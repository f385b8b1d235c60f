"""The dense model of the parametric LP: the tests' reference for the sweep.

The package reads every basis off the two vertex graphs and builds no
tableau. The tests keep this dense model to compare against, and import it
as they import ``conftest``.

``polyhedron_rows(g, which)`` gives P (over (x, pi2)) or Q (over (y, pi1))
as labeled inequality rows. ``build_tableau`` stacks them into M1 over
z = (x, y, pi1, pi2): P's rows, embedded over (x, ., ., pi2), are rows
1..m+n, and Q's, embedded over (., y, pi1, .), are rows m+n+1..2(m+n), so
row l is label l of P and row m+n+l is label l of Q. M2 holds the
equalities 1^T x = 1, 1^T y = 1, c^T y = xi.

``interval_z(iv)`` is a sweep interval's z as an ``AffineRVector`` in xi,
the basis's solution that the dense model is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

from rank1nash import BimatrixGame, RankOneFactorization, factor_rank1, rat
from rank1nash.linalg import Rational, vdot


@dataclass(frozen=True)
class AffineRVector:
    """Vector-valued affine function of one parameter: const + xi * slope."""

    const: tuple[Rational, ...]
    slope: tuple[Rational, ...]

    def __post_init__(self):
        if len(self.const) != len(self.slope):
            raise ValueError("const/slope length mismatch")

    def __len__(self) -> int:
        return len(self.const)

    def at(self, xi: Rational) -> tuple[Rational, ...]:
        x = rat(xi)
        return tuple(c + x * s for c, s in zip(self.const, self.slope))


def interval_z(iv) -> AffineRVector:
    """(x, y, pi1, pi2) of a sweep interval as an affine function of xi: x
    and pi2 from its P vertex, (y, pi1) moving along its Q edge per unit of
    xi = c^T y."""
    m = iv.basis.m
    v, (w_lo, w_hi), (c_lo, c_hi) = iv.p_vertex, iv.q_edge, iv.q_xi
    step = [(b - a) / (c_hi - c_lo) for a, b in zip(w_lo.point, w_hi.point)]
    at0 = [a - c_lo * d for a, d in zip(w_lo.point, step)]
    zero = rat(0)
    return AffineRVector(
        (*v.point[:m], *at0, v.point[m]), (zero,) * m + tuple(step) + (zero,)
    )


def polyhedron_rows(g: BimatrixGame, which: str):
    """(ineq, eq) of P (which="P") or Q. Row l-1 of ``ineq`` carries label
    l; each row is (coeffs, rhs) with coeffs . point <= rhs. ``eq`` is the
    probability constraint."""
    m, n = g.m, g.n
    if which == "P":  # over (x_1..x_m, pi2)
        rows = [tuple(-1 if k == i else 0 for k in range(m)) + (0,) for i in range(m)]
        rows += [tuple(g.B[i][j] for i in range(m)) + (-1,) for j in range(n)]
    else:  # over (y_1..y_n, pi1)
        rows = [tuple(g.A[i]) + (-1,) for i in range(m)]
        rows += [tuple(-1 if k == j else 0 for k in range(n)) + (0,) for j in range(n)]
    ineq = tuple((tuple(rat(v) for v in row), rat(0)) for row in rows)
    return ineq, ((rat(1),) * (len(rows[0]) - 1) + (rat(0),), rat(1))


@dataclass(frozen=True)
class ParametricTableau:
    game: BimatrixGame
    factorization: RankOneFactorization
    m1: tuple[tuple[Rational, ...], ...]  # K rows of N
    e1: tuple[Rational, ...]  # K zeros
    m2: tuple[tuple[Rational, ...], ...]  # 3 rows of N
    e2_const: tuple[Rational, ...]  # (1, 1, 0)
    e2_slope: tuple[Rational, ...]  # (0, 0, 1)
    dual_rhs_const: tuple[Rational, ...]  # (0,...,0, -1, -1)
    dual_rhs_slope: tuple[Rational, ...]  # (b, 0,...,0, 0, 0)

    @property
    def m(self) -> int:
        return self.game.m

    @property
    def n(self) -> int:
        return self.game.n

    @property
    def k_rows(self) -> int:
        return 2 * (self.game.m + self.game.n)

    @property
    def n_vars(self) -> int:
        return self.game.m + self.game.n + 2


def _rational_rows(rows) -> tuple[tuple[Rational, ...], ...]:
    return tuple(tuple(rat(v) for v in row) for row in rows)


def build_tableau(
    g: BimatrixGame, factorization: RankOneFactorization | None = None
) -> ParametricTableau:
    """Assemble M1 from the rows of P and Q, M2 and the dual right-hand
    side; a zero-sum game gets the factorization b = 0, c = 0."""
    f = factorization
    if f is None:
        if all(v == 0 for row in g.payoff_sum() for v in row):
            f = RankOneFactorization((rat(0),) * g.m, (rat(0),) * g.n)
        else:
            f = factor_rank1(g)
    f.require_matches(g)
    m, n = g.m, g.n
    (p_rows, _), (q_rows, _) = polyhedron_rows(g, "P"), polyhedron_rows(g, "Q")
    m1 = _rational_rows(
        [c[:m] + (0,) * (n + 1) + c[m:] for c, _ in p_rows]
        + [(0,) * m + c + (0,) for c, _ in q_rows]
    )
    m2 = _rational_rows(
        [
            [1] * m + [0] * n + [0, 0],
            [0] * m + [1] * n + [0, 0],
            [0] * m + list(f.c) + [0, 0],
        ]
    )
    return ParametricTableau(
        game=g,
        factorization=f,
        m1=m1,
        e1=(rat(0),) * (2 * (m + n)),
        m2=m2,
        e2_const=(rat(1), rat(1), rat(0)),
        e2_slope=(rat(0), rat(0), rat(1)),
        dual_rhs_const=(rat(0),) * (m + n) + (rat(-1), rat(-1)),
        dual_rhs_slope=tuple(f.b) + (rat(0),) * n + (rat(0), rat(0)),
    )


def binding_rows(t: ParametricTableau, zvals) -> frozenset[int]:
    """1-based M1 rows tight at the given primal point."""
    return frozenset(
        idx
        for idx, row in enumerate(t.m1, start=1)
        if vdot(row, zvals) == 0
    )


def zero_sum_dual_coincidence(t: ParametricTableau) -> bool:
    """Verify that at xi = 0 the dual of a zero-sum tableau is the primal.

    Reading the dual equations (M1^T | M2^T) u = rhs component by component
    and substituting x_i = u_{m+n+i}, y_j = u_{m+j}, pi1 = u_{K+1},
    pi2 = u_{K+2} must reproduce the primal rows, with u_1..u_m and
    u_{2m+n+1}..u_K acting as slacks and the objectives additive inverses.
    """
    m, n = t.m, t.n
    k = t.k_rows
    if any(v != 0 for v in t.factorization.b + t.factorization.c):
        raise ValueError("the tableau is not zero-sum: its factors are not 0")

    def dual_coeff(comp: int, l: int) -> Rational:
        # coefficient of u_l (1-based) in dual equation for z-component comp
        if l <= k:
            return t.m1[l - 1][comp]
        return t.m2[l - k - 1][comp]

    # x_i equations ~ primal rows m+n+i (A y <= 1 pi1), slack u_i
    for i in range(m):
        prim = t.m1[m + n + i]
        for j in range(n):
            if dual_coeff(i, m + 1 + j) != -prim[m + j]:
                return False
        if dual_coeff(i, k + 1) != -prim[m + n]:  # pi1 slot
            return False
        if dual_coeff(i, i + 1) != -1:
            return False
        others = set(range(1, k + 4)) - {i + 1, k + 1} - {m + 1 + j for j in range(n)}
        if any(dual_coeff(i, l) != 0 for l in others):
            return False
        if t.dual_rhs_const[i] != 0 or t.dual_rhs_slope[i] != 0:
            return False
    # y_j equations ~ primal rows m+j (B^T x <= 1 pi2), slack u_{2m+n+j}
    for j in range(n):
        comp = m + j
        prim = t.m1[m + j]
        for i in range(m):
            if dual_coeff(comp, m + n + 1 + i) != -prim[i]:
                return False
        if dual_coeff(comp, k + 2) != -prim[m + n + 1]:  # pi2 slot
            return False
        if dual_coeff(comp, 2 * m + n + 1 + j) != -1:
            return False
        others = (
            set(range(1, k + 4))
            - {2 * m + n + 1 + j, k + 2}
            - {m + n + 1 + i for i in range(m)}
        )
        if any(dual_coeff(comp, l) != 0 for l in others):
            return False
        if t.dual_rhs_const[comp] != 0 or t.dual_rhs_slope[comp] != 0:
            return False
    # pi1 equation ~ 1^T x~ = 1; pi2 equation ~ 1^T y~ = 1
    comp = m + n
    for i in range(m):
        if dual_coeff(comp, m + n + 1 + i) != -1:
            return False
    others = set(range(1, k + 4)) - {m + n + 1 + i for i in range(m)}
    if any(dual_coeff(comp, l) != 0 for l in others):
        return False
    if t.dual_rhs_const[comp] != -1:
        return False
    comp = m + n + 1
    for j in range(n):
        if dual_coeff(comp, m + 1 + j) != -1:
            return False
    others = set(range(1, k + 4)) - {m + 1 + j for j in range(n)}
    if any(dual_coeff(comp, l) != 0 for l in others):
        return False
    if t.dual_rhs_const[comp] != -1:
        return False
    # objectives: dual minimizes u_{K+1} + u_{K+2} (+ 0 * u_{K+3} at xi = 0),
    # i.e. pi1 + pi2, the additive inverse of the primal max -pi1 - pi2
    if any(v != 0 for v in t.e1):
        return False
    if t.e2_const != (1, 1, 0) or t.e2_slope != (0, 0, 1):
        return False
    return True
