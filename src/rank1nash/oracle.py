"""Support enumeration: an independent equilibrium solver for cross-checks.

Deliberately shares no search machinery with the polyhedron or parametric
paths, so agreement between the three is meaningful. What it shares with
them is the rational type, the game and strategy types of ``games``, and,
in a strict scan only, ``games.is_nash`` with its ``IntegerPayoffs``: the
check of a candidate on supports of unequal sizes, the one equilibrium test
the sweep and the label paths also run on what they report. Every other
candidate is checked by the scan's own best-reply comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .games import (
    BimatrixGame,
    EquilibriumPoint,
    IntegerPayoffs,
    MixedStrategyPair,
    is_nash,
)
from .linalg import Rational, rat, vdot


@dataclass(frozen=True)
class OracleResult:
    """Equilibria found, plus a flag when the search saw signs of degeneracy.

    The flag is raised only by a candidate that is nonnegative and has no
    better reply off its supports, and that also has a free variable in its
    square indifference system, a zero probability on its support, or an
    off-support strategy tied with the best reply.
    """

    equilibria: tuple[EquilibriumPoint, ...]
    degenerate_suspect: bool


def _solve_unique(rows: list[list[Rational]], rhs: list[Rational]):
    """Row-reduce; classify the system as none / unique / many solutions."""
    nc = len(rows[0])
    a = [[rat(v) for v in row] + [rat(r)] for row, r in zip(rows, rhs)]
    nr = len(a)
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = prow = [v * inv for v in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], prow)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    if any(a[i][nc] != 0 for i in range(r, nr)):
        return "none", None
    sol = [rat(0)] * nc
    for i, c in enumerate(pivots):
        sol[c] = a[i][nc]
    # under-determined systems still yield the basic solution (free vars 0)
    return ("many" if len(pivots) < nc else "unique"), tuple(sol)


def _spread(size: int, support, vals) -> tuple[Rational, ...]:
    """A full mixed strategy from its values on a support."""
    out = [rat(0)] * size
    for k, p in zip(support, vals):
        out[k] = p
    return tuple(out)


def support_enumeration(g: BimatrixGame, strict: bool = False) -> OracleResult:
    """Enumerate equilibria by candidate supports.

    Non-degenerate games only need equal-size supports; ``strict`` widens the
    scan to all size pairs for suspect inputs (solvable candidates there are
    over/under-determined and any hit is itself evidence of degeneracy).
    """
    m, n = g.m, g.n
    if strict:
        size_pairs = [(k1, k2) for k1 in range(1, m + 1) for k2 in range(1, n + 1)]
    else:
        size_pairs = [(k, k) for k in range(1, min(m, n) + 1)]
    # only the unequal sizes of a strict scan call is_nash
    payoffs = IntegerPayoffs.of(g) if strict else None
    found: dict[tuple, EquilibriumPoint] = {}
    suspect = False
    for k1, k2 in size_pairs:
        for s1 in combinations(range(m), k1):
            for s2 in combinations(range(n), k2):
                # y and the row value u: rows of s1 indifferent, y sums to 1
                rows = [
                    [g.A[i][j] for j in s2] + [-1] for i in s1
                ] + [[1] * k2 + [0]]
                st1, sol = _solve_unique(rows, [0] * k1 + [1])
                if st1 == "none":
                    continue
                yvals, u = sol[:k2], sol[k2]
                # x and the column value v: columns of s2 indifferent
                cols = [
                    [g.B[i][j] for i in s1] + [-1] for j in s2
                ] + [[1] * k1 + [0]]
                st2, sol = _solve_unique(cols, [0] * k2 + [1])
                if st2 == "none":
                    continue
                xvals, v = sol[:k1], sol[k1]
                if "many" in (st1, st2) and k1 != k2:
                    # unequal sizes are under-determined by construction;
                    # only a fully verified basic solution means anything,
                    # and such a hit itself proves degeneracy
                    if any(p < 0 for p in xvals) or any(p < 0 for p in yvals):
                        continue
                    x, y = _spread(m, s1, xvals), _spread(n, s2, yvals)
                    ok, u1, u2 = is_nash(g, MixedStrategyPair(x, y), payoffs)
                    if ok:
                        suspect = True
                        eq = EquilibriumPoint(
                            MixedStrategyPair(x, y), payoff1=u1, payoff2=u2
                        )
                        found.setdefault(eq.key(), eq)
                    continue
                if any(p < 0 for p in xvals) or any(p < 0 for p in yvals):
                    continue
                x, y = _spread(m, s1, xvals), _spread(n, s2, yvals)
                off_rows = [vdot(g.A[i], y) for i in range(m) if i not in s1]
                off_cols = [
                    vdot(x, [g.B[i][j] for i in range(m)])
                    for j in range(n)
                    if j not in s2
                ]
                if any(w > u for w in off_rows) or any(w > v for w in off_cols):
                    continue
                # the candidate is a best reply pair; free variables in a
                # square indifference system hint at a continuum of
                # solutions, and a zero probability at a smaller support
                if "many" in (st1, st2) or any(p == 0 for p in xvals + yvals):
                    suspect = True
                    continue
                if any(w == u for w in off_rows) or any(w == v for w in off_cols):
                    suspect = True
                eq = EquilibriumPoint(
                    MixedStrategyPair(x, y), payoff1=u, payoff2=v
                )
                found.setdefault(eq.key(), eq)
    ordered = tuple(sorted(found.values(), key=lambda e: e.key()))
    return OracleResult(ordered, suspect)
