"""Parametric enumeration of all equilibria of a non-degenerate rank-1 game.

With A + B = b c^T the equilibrium condition becomes a one-parameter family
of LPs: fix xi = c^T y, maximize (x^T b) xi - pi1 - pi2 over the product of
the two best-reply polyhedra sliced at c^T y = xi. The optimal value is
piecewise linear in xi, nonpositive everywhere, and its zeros are exactly
the equilibria. The sweep walks optimal bases of this LP from xi_min to
xi_max. A basis fixes x, so its objective is linear in xi and, being
nonpositive on the basis's interval, vanishes only at an end of it (or on
all of it, which a non-degenerate game rules out); the equilibria are read
off the interval ends. When c is constant (zero-sum and row-constant games)
the range of xi is one point, and the sweep reduces to its two extremes
there: the P vertex maximising xi b^T x - pi2 and the Q vertex of least pi1.

Constraint rows of M1 (1-based, z = (x, y, pi1, pi2), K = 2(m+n) rows):
rows 1..m are -x <= 0, rows m+1..m+n are B^T x <= 1 pi2, rows m+n+1..m+n+m
are A y <= 1 pi1, rows m+n+m+1..K are -y <= 0. M2 holds the equalities
1^T x = 1, 1^T y = 1, c^T y = xi. A basis keeps m of the P-side rows
(1..m+n) and n-1 of the Q-side rows tight; with the three equality rows that
is a square system in the m+n+2 unknowns.

The LP decomposes: P-side rows and 1^T x = 1 touch (x, pi2) only, so their
basis solution is constant in xi while their dual multipliers are affine;
Q-side rows, 1^T y = 1 and c^T y = xi touch (y, pi1), affine in xi with
constant duals. The square system is therefore block diagonal, and each
block (size m+1 for P, n+1 for Q) is solved on its own. Feasibility
breakpoints always name a Q-side row and optimality breakpoints a P-side
row, so a pivot changes one side only; each side's block is solved once per
set of basic rows and kept on the tableau, and the block of the side that
did not move is reused.

The sweep is a parametric simplex: one pivot per breakpoint, chosen by the
ratio test of the side the breakpoint names (a dual ratio test on the Q
block past a feasibility breakpoint, a primal one on the P block past an
optimality breakpoint), so each breakpoint costs one square solve of that
block plus the two solves of the moved side's new block. The first basis
pairs a P vertex with the point where an edge of Q crosses the slice
c^T y = xi_min; Q's vertices are already known from the non-degeneracy
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DegenerateGame,
    EmptyInterval,
    FactorizationMismatch,
    Infeasible,
    InternalInvariantError,
    SingularBasis,
    SingularMatrix,
    Stalled,
    UnboundedObjective,
)
from .games import (
    BimatrixGame,
    EquilibriumPoint,
    General,
    MixedStrategyPair,
    RankOneFactorization,
    ZeroSum,
    classify_special,
    factor_rank1,
    is_nash,
)
from .linalg import AffineR, AffineRVector, RMatrix, Rational, rat, solve_square, vdot
from .polytopes import (
    LabeledVertex,
    build_polyhedron,
    enumerate_vertices,
    require_nondegenerate,
)


# the two sides of the basis system: P owns M1 rows 1..m+n, the M2 row
# 1^T x = 1 and the unknowns (x, pi2); Q owns rows m+n+1..K, the M2 rows
# 1^T y = 1 and c^T y = xi and the unknowns (y, pi1)
P, Q = "P", "Q"
_SIDE_EQS = {P: (0,), Q: (1, 2)}


@dataclass(frozen=True)
class ParametricTableau:
    game: BimatrixGame
    factorization: RankOneFactorization
    m1: RMatrix  # K x N
    e1: tuple[Rational, ...]  # K zeros
    m2: RMatrix  # 3 x N
    e2_const: tuple[Rational, ...]  # (1, 1, 0)
    e2_slope: tuple[Rational, ...]  # (0, 0, 1)
    dual_rhs_const: tuple[Rational, ...]  # (0,...,0, -1, -1)
    dual_rhs_slope: tuple[Rational, ...]  # (b, 0,...,0, 0, 0)
    # solved diagonal blocks of basis systems, keyed by (side, basic rows):
    # each side's block is solved once for as long as the tableau lives
    _solved: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _side_of(self, row: int) -> str:
        """The side that owns a 1-based M1 row."""
        return P if row <= self.m + self.n else Q

    @cached_property
    def _side_cols(self) -> dict[str, tuple[int, ...]]:
        """The unknowns (positions in z) of each side."""
        m, n = self.m, self.n
        return {P: (*range(m), m + n + 1), Q: tuple(range(m, m + n + 1))}

    @cached_property
    def _side_rows(self) -> tuple[tuple[Rational, ...], ...]:
        """Each M1 row restricted to the unknowns of its own side."""
        return tuple(
            tuple(row[k] for k in self._side_cols[self._side_of(r)])
            for r, row in enumerate(self.m1.entries, start=1)
        )


def build_tableau(
    g: BimatrixGame, factorization: RankOneFactorization | None = None
) -> ParametricTableau:
    """Assemble M1, M2 and the dual right-hand side for the parametric LP."""
    s = g.payoff_sum()
    f = factorization
    if f is None:
        if all(v == 0 for row in s for v in row):
            f = RankOneFactorization((rat(0),) * g.m, (rat(0),) * g.n)
        else:
            f = factor_rank1(g)
    for i in range(g.m):
        for j in range(g.n):
            if f.b[i] * f.c[j] != s[i][j]:
                raise FactorizationMismatch("b c^T != A + B")
    m, n = g.m, g.n
    nv = m + n + 2
    rows = []
    for i in range(m):  # -x_i <= 0
        rows.append([-1 if k == i else 0 for k in range(m)] + [0] * (n + 2))
    for j in range(n):  # x^T B_(j) <= pi2
        rows.append(
            [g.B[i][j] for i in range(m)] + [0] * n + [0, -1]
        )
    for i in range(m):  # A^(i) y <= pi1
        rows.append([0] * m + list(g.A[i]) + [-1, 0])
    for j in range(n):  # -y_j <= 0
        rows.append([0] * m + [-1 if k == j else 0 for k in range(n)] + [0, 0])
    m1 = RMatrix.from_rows(rows)
    m2 = RMatrix.from_rows(
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


def xi_range(t: ParametricTableau) -> tuple[Rational, Rational]:
    """Feasible range of xi = c^T y over the strategy simplex."""
    return min(t.factorization.c), max(t.factorization.c)


@dataclass(frozen=True)
class ParametricBasis:
    """m P-side labels and n-1 Q-side labels, each within 1..m+n."""

    i_labels: frozenset[int]
    j_labels: frozenset[int]
    m: int
    n: int

    def __post_init__(self):
        span = range(1, self.m + self.n + 1)
        if not (set(self.i_labels) <= set(span) and set(self.j_labels) <= set(span)):
            raise ValueError("labels out of range")
        if len(self.i_labels) != self.m or len(self.j_labels) != self.n - 1:
            raise ValueError("basis needs m P-labels and n-1 Q-labels")

    @property
    def rows(self) -> tuple[int, ...]:
        """Global 1-based M1 row indices, ascending."""
        off = self.m + self.n
        return tuple(
            sorted(self.i_labels | {off + l for l in self.j_labels})
        )

    @classmethod
    def from_rows(cls, rows, m: int, n: int) -> "ParametricBasis":
        off = m + n
        i_l = frozenset(r for r in rows if r <= off)
        j_l = frozenset(r - off for r in rows if r > off)
        return cls(i_l, j_l, m, n)


@dataclass(frozen=True)
class _Block:
    """One diagonal block of a basis system, solved.

    The block holds the basic M1 rows of one side, then that side's M2 rows,
    restricted to that side's unknowns; z solves block z = rhs and w solves
    block^T w = dual rhs, both restricted to the side.
    """

    rows: tuple[int, ...]  # basic M1 rows of the side, 1-based, ascending
    matrix: RMatrix
    z: AffineRVector  # the side's unknowns, in _side_cols order
    w: AffineRVector  # duals of the block's rows, in matrix order


def _block(t: ParametricTableau, basis: ParametricBasis, side: str) -> _Block:
    """The solved block of one side of a basis, memoised on the tableau."""
    # basis rows ascend, so the m P-side rows come first
    rows = basis.rows[: t.m] if side == P else basis.rows[t.m :]
    key = (side, rows)
    hit = t._solved.get(key)
    if hit is None:
        try:
            hit = _solve_block(t, side, rows)
        except SingularMatrix as exc:
            hit = str(exc)  # a singular block is remembered by its message
        t._solved[key] = hit
    if isinstance(hit, str):
        raise SingularBasis(hit)
    return hit


def _solve_block(t: ParametricTableau, side: str, rows: tuple[int, ...]) -> _Block:
    cols, eqs = t._side_cols[side], _SIDE_EQS[side]
    matrix = RMatrix(
        len(cols),
        len(cols),
        tuple(t._side_rows[r - 1] for r in rows)
        + tuple(tuple(t.m2.entries[e][k] for k in cols) for e in eqs),
    )
    pad = (rat(0),) * len(rows)
    z = solve_square(
        matrix,
        pad + tuple(t.e2_const[e] for e in eqs),
        pad + tuple(t.e2_slope[e] for e in eqs),
    )
    w = solve_square(
        matrix.transpose(),
        tuple(t.dual_rhs_const[k] for k in cols),
        tuple(t.dual_rhs_slope[k] for k in cols),
    )
    return _Block(rows, matrix, z, w)


def solve_basis(
    t: ParametricTableau, basis: ParametricBasis
) -> tuple[AffineRVector, AffineRVector]:
    """Affine primal z(xi) and full dual u(xi) (length K+3) for one basis.

    The basis system S (the basis rows of M1 stacked on M2) is block
    diagonal: the P block is the m basic P-side rows with 1^T x = 1 on
    (x, pi2), the Q block the n-1 basic Q-side rows with 1^T y = 1 and
    c^T y = xi on (y, pi1). Each block is solved on its own, and at most once
    per tableau for a given set of rows, since a pivot changes one side only.
    """
    k = t.k_rows
    zero = rat(0)
    zc, zs = [zero] * t.n_vars, [zero] * t.n_vars
    uc, us = [zero] * (k + 3), [zero] * (k + 3)
    for side in (P, Q):
        blk = _block(t, basis, side)
        for pos, col in enumerate(t._side_cols[side]):
            zc[col], zs[col] = blk.z.const[pos], blk.z.slope[pos]
        duals = [r - 1 for r in blk.rows] + [k + e for e in _SIDE_EQS[side]]
        for pos, l in enumerate(duals):
            uc[l], us[l] = blk.w.const[pos], blk.w.slope[pos]
    return AffineRVector(tuple(zc), tuple(zs)), AffineRVector(tuple(uc), tuple(us))


@dataclass(frozen=True)
class BasisInterval:
    """One maximal xi-interval on which a basis stays optimal.

    alpha2 is the first xi where primal feasibility breaks (alpha2_row names
    the violated M1 row), beta2 the first where a basic dual multiplier goes
    negative (beta2_row names it); xi2 = min of the two.
    """

    basis: ParametricBasis
    z: AffineRVector
    u: AffineRVector
    xi1: Rational
    xi2: Rational
    alpha2: Rational | None
    beta2: Rational | None
    alpha2_row: int | None
    beta2_row: int | None
    objective: AffineR  # xi b^T x - pi1 - pi2 along the basis

    @property
    def case(self) -> str | None:
        hits_a = self.alpha2 is not None and self.alpha2 == self.xi2
        hits_b = self.beta2 is not None and self.beta2 == self.xi2
        if hits_a and hits_b:
            return "Both"
        if hits_a:
            return "Feasibility"
        if hits_b:
            return "Optimality"
        return None


def basis_interval(t: ParametricTableau, basis: ParametricBasis) -> BasisInterval:
    z, u = solve_basis(t, basis)
    # each side's primal, with no slope for a side constant in xi (P always)
    side_z = {}
    for side in (P, Q):
        zb = _block(t, basis, side).z
        side_z[side] = (zb.const, zb.slope if any(zb.slope) else None)
    lo = hi = None
    lo_row = hi_row = None
    a2 = a2_row = None
    b2 = b2_row = None

    def push(bound, row, upper):
        nonlocal lo, hi, lo_row, hi_row
        if upper:
            if hi is None or bound < hi:
                hi, hi_row = bound, row
        else:
            if lo is None or bound > lo:
                lo, lo_row = bound, row

    # primal rows: (M1 z)(xi) <= 0, each row on its own side's unknowns
    for idx, row in enumerate(t._side_rows, start=1):
        zc, zs = side_z[t._side_of(idx)]
        c = vdot(row, zc)
        s = vdot(row, zs) if zs else 0
        if s == 0:
            if c > 0:
                raise EmptyInterval(f"row {idx} infeasible for every xi")
            continue
        bound = -c / s
        if s > 0:
            if a2 is None or bound < a2 or (bound == a2 and idx < a2_row):
                a2, a2_row = bound, idx
            push(bound, idx, upper=True)
        else:
            push(bound, idx, upper=False)
    # dual rows: u_l(xi) >= 0 on basic rows
    for r in basis.rows:
        c, s = u.const[r - 1], u.slope[r - 1]
        if s == 0:
            if c < 0:
                raise EmptyInterval(f"dual of row {r} negative for every xi")
            continue
        bound = -c / s
        if s < 0:
            if b2 is None or bound < b2 or (bound == b2 and r < b2_row):
                b2, b2_row = bound, r
            push(bound, r, upper=True)
        else:
            push(bound, r, upper=False)

    if hi is None:
        raise UnboundedObjective("no upper bound on the optimality interval")
    if lo is None:
        raise UnboundedObjective("no lower bound on the optimality interval")
    if lo > hi:
        raise EmptyInterval(f"basis optimal on no xi (got [{lo}, {hi}])")

    m, n = t.m, t.n
    # x and pi2 come from the P block, which is constant in xi
    obj = AffineR(
        c0=-z.const[m + n] - z.const[m + n + 1],
        c1=vdot(t.factorization.b, z.const[:m]) - z.slope[m + n],
    )
    return BasisInterval(
        basis=basis,
        z=z,
        u=u,
        xi1=lo,
        xi2=hi,
        alpha2=a2,
        beta2=b2,
        alpha2_row=a2_row,
        beta2_row=b2_row,
        objective=obj,
    )


def equilibria_on_interval(
    t: ParametricTableau, iv: BasisInterval
) -> tuple[EquilibriumPoint, ...]:
    """The ends of the interval where its objective is 0, as equilibria.

    The objective is affine in xi and nonpositive wherever the basis is
    feasible, so a zero inside the interval means it is 0 on all of it: a
    continuum of equilibria, which only a degenerate game has. The points
    are not checked here; enumerate_all checks each distinct one once.
    """
    ends = (iv.xi1,) if iv.xi1 == iv.xi2 else (iv.xi1, iv.xi2)
    values = [iv.objective.at(xi) for xi in ends]
    if any(v > 0 for v in values):
        raise InternalInvariantError(
            f"objective positive at an end of [{iv.xi1}, {iv.xi2}]"
        )
    zeros = [xi for xi, v in zip(ends, values) if v == 0]
    if len(zeros) == 2:
        raise DegenerateGame(
            "objective vanishes on a whole interval; equilibria form a continuum"
        )
    m, n = t.m, t.n
    out = []
    for xi in zeros:
        zv = iv.z.at(xi)
        out.append(
            EquilibriumPoint(
                MixedStrategyPair(zv[:m], zv[m : m + n]),
                payoff1=zv[m + n],
                payoff2=zv[m + n + 1],
                source_xi=xi,
            )
        )
    return tuple(out)


def _p_value(xi: Rational, b, v: LabeledVertex) -> Rational:
    """xi b^T x - pi2 at a vertex (x, pi2) of P: the P side's share of the
    objective, maximised over P by the optimal basis."""
    return xi * vdot(b, v.point[: len(b)]) - v.point[len(b)]


def initial_basis(t: ParametricTableau, xi: Rational) -> ParametricBasis:
    """An optimal basis at xi, built from the two sides independently.

    P side: vertices of P ranked by xi b^T x - pi2 (descending). Q side:
    vertices of Q sliced with c^T y = xi. Each lies on an edge of Q, a pair
    of Q vertices sharing n-1 labels whose c^T y values straddle xi and
    differ; the shared labels are its Q-side basis and pi1 is interpolated
    along the edge. They are ranked by pi1 (ascending). The first pair whose
    combined basis is optimal at xi (its interval contains xi) is returned;
    ranking makes that almost always the first try, while degenerate slice
    endpoints fall through to the next candidate.
    """
    xi = rat(xi)
    m, n = t.m, t.n
    g = t.game
    b, c = t.factorization.b, t.factorization.c

    p_cands = []
    for v in enumerate_vertices(build_polyhedron(g, "P")):
        if len(v.labels) != m:
            continue
        p_cands.append((_p_value(xi, b, v), tuple(sorted(v.labels))))
    p_cands.sort(key=lambda kv: (-kv[0], kv[1]))

    ends: dict[frozenset[int], list] = {}
    for v in enumerate_vertices(build_polyhedron(g, "Q")):
        for l in v.labels:
            ends.setdefault(v.labels - {l}, []).append(v)
    q_cands = []
    for j_labels, verts in ends.items():
        if len(j_labels) != n - 1 or len(verts) != 2:
            continue  # a ray of Q, or not an edge
        (lo_c, lo_pi1), (hi_c, hi_pi1) = sorted(
            (vdot(c, v.point[:n]), v.point[n]) for v in verts
        )
        if lo_c == hi_c or not lo_c <= xi <= hi_c:
            continue
        pi1 = lo_pi1 + (xi - lo_c) / (hi_c - lo_c) * (hi_pi1 - lo_pi1)
        q_cands.append((pi1, tuple(sorted(j_labels))))
    q_cands.sort()

    for _, i_labels in p_cands:
        for _, j_labels in q_cands:
            basis = ParametricBasis(
                frozenset(i_labels), frozenset(j_labels), m, n
            )
            try:
                iv = basis_interval(t, basis)
            except (SingularBasis, EmptyInterval):
                continue
            if iv.xi1 <= xi <= iv.xi2:
                return basis
    raise Infeasible(f"no optimal basis found at xi = {xi}")


def advance(t: ParametricTableau, iv: BasisInterval) -> ParametricBasis:
    """The basis taking over just past iv.xi2: one simplex pivot.

    The pivot stays on the side the breakpoint names, so it needs only that
    side's block of the basis system (see solve_basis). Past a feasibility
    breakpoint (and past "Both") the violated Q-side row alpha2_row enters.
    Writing it as m1[enter] = Q^T lam over the Q block, the leaving row is the
    basic Q-side row l with lam_l > 0 that minimises u_l(xi2) / lam_l (dual
    ratio test). Past an optimality breakpoint the P-side row beta2_row,
    whose dual vanishes, leaves. Its slack grows along d = P^-1 (-e_leave)
    over the P block, and the entering row is the nonbasic P-side row r with
    m1[r] . d > 0 that minimises -m1[r] . z(xi2) / (m1[r] . d) (primal ratio
    test). Ties go to the lowest row. The caller certifies the result with
    the new basis's own interval.
    """
    xi2 = iv.xi2
    case = iv.case
    if case is None:
        raise Stalled(f"interval of basis {iv.basis.rows} has no breakpoint")
    rows = iv.basis.rows
    if case in ("Feasibility", "Both"):
        side, row = Q, iv.alpha2_row
    else:
        side, row = P, iv.beta2_row
    if t._side_of(row) != side:
        raise InternalInvariantError(
            f"{case} breakpoint at xi = {xi2} names row {row} of the other side"
        )
    blk = _block(t, iv.basis, side)
    if side == Q:
        enter = row
        lam = solve_square(blk.matrix.transpose(), t._side_rows[enter - 1]).const
        u = blk.w.at(xi2)
        leave = min(
            (
                (u[pos] / lam[pos], r)
                for pos, r in enumerate(blk.rows)
                if lam[pos] > 0
            ),
            default=(None, None),
        )[1]
    else:
        leave = row
        unit = [rat(0)] * blk.matrix.rows
        unit[blk.rows.index(leave)] = rat(-1)
        d = solve_square(blk.matrix, unit).const
        z = blk.z.at(xi2)
        enter = min(
            (
                (-vdot(prow, z) / rate, r)
                for r, prow in enumerate(t._side_rows[: t.m + t.n], start=1)
                if r not in blk.rows and (rate := vdot(prow, d)) > 0
            ),
            default=(None, None),
        )[1]
    if leave is None or enter is None:
        raise Stalled(f"empty ratio test at xi = {xi2}")
    return ParametricBasis.from_rows((set(rows) - {leave}) | {enter}, t.m, t.n)


@dataclass(frozen=True)
class BreakpointRecord:
    xi: Rational
    kind: str  # "Feasibility" | "Optimality" | "Both"
    leaving: int  # global 1-based M1 row
    entering: int


@dataclass(frozen=True)
class SweepTrace:
    """Everything the enumeration saw: one entry per visited basis."""

    game: BimatrixGame
    factorization: RankOneFactorization | None
    dispatch: str  # "general" | "zero-sum" | "row-constant"
    xi_min: Rational
    xi_max: Rational
    intervals: tuple[BasisInterval, ...]
    breakpoints: tuple[BreakpointRecord, ...]
    equilibria: tuple[EquilibriumPoint, ...]


def _least_payoff(verts, which: str) -> LabeledVertex:
    """The unique vertex of least last coordinate; ties mean degeneracy."""
    best = min(v.point[-1] for v in verts)
    hits = [v for v in verts if v.point[-1] == best]
    if len(hits) != 1:
        raise DegenerateGame(
            f"{which} has {len(hits)} payoff-minimizing vertices",
            witness=hits[0],
        )
    return hits[0]


def _one_point_sweep(
    g: BimatrixGame, f: RankOneFactorization | None, dispatch: str
) -> SweepTrace:
    """The sweep over the one-point range of a game whose c is constant.

    The slice c^T y = xi is then all of Q, so the optimal pair is the P
    vertex maximising xi b^T x - pi2 (P's vertices are shifted to
    (x, pi2 - xi b^T x) and minimised) with the Q vertex of least pi1. A
    zero-sum game has no factors; it is the case b = 0, xi = 0.
    """
    m, n = g.m, g.n
    xi, b = (f.c[0], f.b) if f is not None else (rat(0), (rat(0),) * m)
    vp = _least_payoff(
        [
            LabeledVertex((*v.point[:m], -_p_value(xi, b, v)), v.labels)
            for v in enumerate_vertices(build_polyhedron(g, "P"))
        ],
        "P",
    )
    vq = _least_payoff(enumerate_vertices(build_polyhedron(g, "Q")), "Q")
    s = MixedStrategyPair(vp.point[:m], vq.point[:n])
    flag, u1, u2 = is_nash(g, s)
    if not flag:
        raise InternalInvariantError(
            f"{dispatch} candidate failed the equilibrium check"
        )
    eq = EquilibriumPoint(s, payoff1=u1, payoff2=u2, source_xi=xi)
    return SweepTrace(g, f, dispatch, xi, xi, (), (), (eq,))


def enumerate_all(
    g: BimatrixGame, factorization: RankOneFactorization | None = None
) -> SweepTrace:
    """All Nash equilibria of a non-degenerate game with rank(A+B) <= 1.

    Zero-sum games (A+B = 0) and row-constant games have a constant c, so
    the sweep's range is one point, where it reduces to its two extremes
    and gives their unique equilibrium. NotRankOne is raised when
    rank(A+B) >= 2, DegenerateGame when the non-degeneracy check fails.
    Each distinct equilibrium is checked once with is_nash.
    """
    require_nondegenerate(g)
    cls = classify_special(g)
    if isinstance(cls, ZeroSum):
        return _one_point_sweep(g, None, "zero-sum")
    if not isinstance(cls, General):
        return _one_point_sweep(g, factor_rank1(g), "row-constant")

    f = factorization if factorization is not None else factor_rank1(g)
    t = build_tableau(g, f)
    lo, hi = xi_range(t)
    iv = basis_interval(t, initial_basis(t, lo))
    intervals: list[BasisInterval] = []
    breakpoints: list[BreakpointRecord] = []
    found: dict[tuple, EquilibriumPoint] = {}
    visited: set[tuple[int, ...]] = set()
    while True:
        key = iv.basis.rows
        if key in visited:
            raise Stalled(f"basis {key} revisited; sweep is cycling")
        visited.add(key)
        intervals.append(iv)
        for eq in equilibria_on_interval(t, iv):
            if eq.key() in found:
                continue
            if not is_nash(g, eq.strategies)[0]:
                raise InternalInvariantError(
                    "objective zero failed the equilibrium check"
                )
            found[eq.key()] = eq
        if iv.xi2 >= hi:
            break
        nxt = basis_interval(t, advance(t, iv))
        # the next basis's own interval certifies the pivot
        if not nxt.xi1 <= iv.xi2 <= nxt.xi2:
            raise Stalled(f"no verifiable pivot at xi = {iv.xi2}")
        leaving = set(iv.basis.rows) - set(nxt.basis.rows)
        entering = set(nxt.basis.rows) - set(iv.basis.rows)
        breakpoints.append(
            BreakpointRecord(
                iv.xi2, iv.case, min(leaving), min(entering)
            )
        )
        iv = nxt
    return SweepTrace(
        g,
        f,
        "general",
        lo,
        hi,
        tuple(intervals),
        tuple(breakpoints),
        tuple(sorted(found.values(), key=lambda e: e.key())),
    )


def binding_rows(t: ParametricTableau, zvals) -> frozenset[int]:
    """1-based M1 rows tight at the given primal point."""
    return frozenset(
        idx
        for idx, row in enumerate(t.m1.entries, start=1)
        if vdot(row, zvals) == 0
    )


@dataclass(frozen=True)
class TraceRow:
    """One line of the sweep table: a breakpoint or an open interval."""

    kind: str  # "point" | "interval"
    xi: Rational | None
    span: tuple[Rational, Rational] | None
    objective: Rational | None  # exact value at points, None on intervals
    binding: frozenset[int]


def sweep_table(t: ParametricTableau, trace: SweepTrace) -> tuple[TraceRow, ...]:
    """The breakpoint/interval table for a general sweep.

    Point rows carry the union of binding rows over every basis optimal
    there (adjacent bases both contribute at a breakpoint); interval rows
    carry the rows tight throughout the open interval.
    """
    ivs = trace.intervals
    if not ivs:
        return ()
    points: list[Rational] = []
    for iv in ivs:
        for v in (iv.xi1, iv.xi2):
            if not points or v != points[-1]:
                points.append(v)

    def binding_at(xi):
        rows: frozenset[int] = frozenset()
        objs = []
        for iv in ivs:
            if iv.xi1 <= xi <= iv.xi2:
                rows |= binding_rows(t, iv.z.at(xi))
                objs.append(iv.objective.at(xi))
        if not objs or any(o != objs[0] for o in objs):
            raise InternalInvariantError(
                f"bases optimal at xi = {xi} are missing or disagree"
            )
        return rows, objs[0]

    out: list[TraceRow] = []
    for idx, xi in enumerate(points):
        rows, obj = binding_at(xi)
        out.append(TraceRow("point", xi, None, obj, rows))
        if idx + 1 < len(points):
            nxt = points[idx + 1]
            mid = (xi + nxt) / 2
            iv = next(
                v for v in ivs if v.xi1 <= xi and nxt <= v.xi2
            )
            out.append(
                TraceRow(
                    "interval",
                    None,
                    (xi, nxt),
                    None,
                    binding_rows(t, iv.z.at(mid)),
                )
            )
    return tuple(out)


def zero_sum_dual_coincidence(t: ParametricTableau) -> bool:
    """Verify that at xi = 0 the dual of a zero-sum tableau is the primal.

    Reading the dual equations (M1^T | M2^T) u = rhs component by component
    and substituting x_i = u_{m+n+i}, y_j = u_{m+j}, pi1 = u_{K+1},
    pi2 = u_{K+2} must reproduce the primal rows, with u_1..u_m and
    u_{2m+n+1}..u_K acting as slacks and the objectives additive inverses.
    """
    g = t.game
    m, n = t.m, t.n
    k = t.k_rows
    if any(v != 0 for v in t.factorization.b + t.factorization.c):
        raise ValueError("the tableau is not zero-sum: its factors are not 0")

    def dual_coeff(comp: int, l: int) -> Rational:
        # coefficient of u_l (1-based) in dual equation for z-component comp
        if l <= k:
            return t.m1.entries[l - 1][comp]
        return t.m2.entries[l - k - 1][comp]

    # x_i equations ~ primal rows m+n+i (A y <= 1 pi1), slack u_i
    for i in range(m):
        prim = t.m1.entries[m + n + i]
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
        prim = t.m1.entries[m + j]
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
