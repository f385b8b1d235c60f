"""Support enumeration: an independent equilibrium solver for cross-checks.

Deliberately shares no search machinery with the polyhedron or parametric
paths, so agreement between the three is meaningful. What it shares with
them is the rational type and the game and strategy types of ``games``.
Every candidate, in a plain or a strict scan, is checked by the scan's own
nonnegativity and best-reply comparisons, never by ``games.is_nash``, the
test that certifies what the sweep and the label paths report. A support
pair solves the row player's indifference system and passes its tests
before the column player's system is solved, so most pairs pay for one
half only; the order of the tests changes neither the set found nor the
degeneracy flag (``support_enumeration``).
"""

from __future__ import annotations

from itertools import combinations

from .games import BimatrixGame, EquilibriumPoint, MixedStrategyPair
from .linalg import Rational, rat, vdot
from .record import Record


class OracleResult(Record):
    """Equilibria found, plus a flag when the search saw signs of degeneracy.

    The flag is raised only by a candidate that is nonnegative and has no
    better reply off its supports, and that also has supports of unequal
    sizes, a free variable in its square indifference system, a zero
    probability on its support, or an off-support strategy tied with the
    best reply.
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


def _indifferent(mat, own, other):
    """(status, p, u): the other player's probabilities p on ``other``,
    summing to 1, under which every row of ``mat`` in ``own`` pays the same
    u, and status "unique" or "many" as ``_solve_unique`` classifies the
    system; None when it has no solution. The row player's system is
    (A, s1, s2), the column player's (B^T, s2, s1)."""
    k = len(other)
    rows = [[mat[i][j] for j in other] + [-1] for i in own] + [[1] * k + [0]]
    status, sol = _solve_unique(rows, [0] * len(own) + [1])
    if status == "none":
        return None
    return status, sol[:k], sol[k]


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

    Each support pair (s1, s2) is dropped at the first test it fails, in
    this order: the row player's system has no solution; y has a negative
    entry; a row off s1 pays more than u against y; the column player's
    system has no solution; x has a negative entry; a column off s2 pays
    more than v against x. A pair that passes all six is a best reply pair,
    whichever order they run in, and none of them has a side effect, so the
    order decides only how many systems are solved: the equilibria, their
    order and the suspect flag are those of testing both halves together.
    """
    m, n = g.m, g.n
    if strict:
        size_pairs = [(k1, k2) for k1 in range(1, m + 1) for k2 in range(1, n + 1)]
    else:
        size_pairs = [(k, k) for k in range(1, min(m, n) + 1)]
    bt = tuple(zip(*g.B))
    found: dict[tuple, EquilibriumPoint] = {}
    suspect = False
    for k1, k2 in size_pairs:
        for s1 in combinations(range(m), k1):
            for s2 in combinations(range(n), k2):
                # y and the row value u make the rows of s1 indifferent, and
                # no row off s1 beats u; only then are x and the column
                # value v solved for, to make the columns of s2 indifferent
                row = _indifferent(g.A, s1, s2)
                if row is None:
                    continue
                st1, yvals, u = row
                if any(p < 0 for p in yvals):
                    continue
                y = _spread(n, s2, yvals)
                off_rows = [vdot(g.A[i], y) for i in range(m) if i not in s1]
                if any(w > u for w in off_rows):
                    continue
                col = _indifferent(bt, s2, s1)
                if col is None:
                    continue
                st2, xvals, v = col
                if any(p < 0 for p in xvals):
                    continue
                x = _spread(m, s1, xvals)
                off_cols = [vdot(x, bt[j]) for j in range(n) if j not in s2]
                if any(w > v for w in off_cols):
                    continue
                # a best reply pair, so x^T A y = u and x^T B y = v. In a
                # square system, free variables hint at a continuum of
                # solutions and a zero probability at a smaller support:
                # the game is suspect and the candidate is dropped
                if k1 == k2 and ("many" in (st1, st2) or 0 in xvals + yvals):
                    suspect = True
                    continue
                # unequal sizes have free variables by construction, so a hit
                # there proves degeneracy; a tied off-support strategy hints
                # at it
                suspect = suspect or k1 != k2 or u in off_rows or v in off_cols
                eq = EquilibriumPoint(MixedStrategyPair(x, y), payoff1=u, payoff2=v)
                found.setdefault(eq.key(), eq)
    ordered = tuple(sorted(found.values(), key=lambda e: e.key()))
    return OracleResult(ordered, suspect)
