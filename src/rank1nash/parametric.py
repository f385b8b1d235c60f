"""Parametric enumeration of all equilibria of a non-degenerate rank-1 game.

With A + B = b c^T the equilibrium condition becomes a one-parameter family
of LPs: fix xi = c^T y, maximize (x^T b) xi - pi1 - pi2 over the product of
the two best-reply polyhedra sliced at c^T y = xi. The optimal value is
piecewise linear in xi, nonpositive everywhere, and its zeros are exactly
the equilibria. The sweep walks optimal bases of this LP from xi_min to
xi_max. A basis fixes x, so its objective is linear in xi and, being
nonpositive on the basis's interval, vanishes only at an end of it (or on
all of it, which a non-degenerate game rules out); the equilibria are read
off the interval ends. When c is constant (zero-sum games, swept with
b = 0 and c = 0, and row-constant games) the range of xi is one point, and
the sweep is its start there: the P vertex maximising xi b^T x - pi2 and
the Q vertex of least pi1, each of which must be unique.

Constraint rows of M1 (1-based, z = (x, y, pi1, pi2), K = 2(m+n) rows):
rows 1..m are -x <= 0, rows m+1..m+n are B^T x <= 1 pi2, rows m+n+1..m+n+m
are A y <= 1 pi1, rows m+n+m+1..K are -y <= 0. M2 holds the equalities
1^T x = 1, 1^T y = 1, c^T y = xi. Row l of the P side is label l of P, and
row m+n+l is label l of Q. A basis keeps m of the P-side rows (1..m+n) and
n-1 of the Q-side rows tight.

The LP splits into two one-dimensional problems, one per side, and the
sweep is a shadow-vertex walk on each (Gass & Saaty 1955; Borgwardt 1987):
- P: maximise xi b^T x - pi2, a parametric objective. Each vertex v of P
  gives a line in xi of slope b^T x. The optimum stays at v until the line
  of a neighbour with a steeper slope crosses v's (beta2, an optimality
  breakpoint); the label dropped to reach that neighbour leaves, and the
  label it adds enters.
- Q: minimise pi1 over Q cut by the moving slice c^T y = xi. The slice
  point runs along an edge of Q (the n-1 labels its ends share) until it
  reaches the end of greater c^T y (alpha2, a feasibility breakpoint),
  where the label that end adds enters. The walk then takes the edge out
  of that end on which c^T y increases and pi1 grows least per unit of xi.
A basis pairs a P vertex with a Q edge, so both walks read the vertex graphs
(polytopes.VertexGraph) that the non-degeneracy check returns, and the
sweep makes no linear solve. x and pi2 come from the P vertex; y and pi1
are interpolated along the Q edge. Once the graphs exist, the sweep's cost
follows the intervals it crosses, not the vertices: b^T x, c^T y and the
payoffs are read off the integer keys of the vertices the walks visit, each
vertex's crossings and each edge's slope are computed once, and an
equilibrium is a vertex pair, so only the vertices of equilibria build
their rationals. The start is one routine on each side (_optimal_face):
descend the vertex graph from a vertex x = e_i of P, or from the vertex
y = e_j of Q of the first least c_j keeping y_l = 0 for every c_l > xi_min,
to a vertex no neighbour beats, then flood the neighbours of equal cost.
The optimal vertices of a linear function over a pointed polyhedron span a
face whose graph is connected (Balinski 1961), so the flood finds all of a
tied optimum without a scan. The walks decide in integers: a vertex's
point (w^T s, payoff) is a triple (s, o, d) over one denominator, a
crossing or a slope is the chord between two such points as a pair
(num, den), and crossings, slopes, the start's costs and the objective's
sign at an interval end are compared by cross-multiplication. The
rationals built are the values the trace reports: per P vertex visited
its crossings p_lo and beta2, per Q vertex visited its c^T y, and per
interval its objective's two coefficients, besides the points of the
equilibria. The sweep table reads its binding rows off the labels of each
interval's P vertex and Q edge ends; no dense tableau is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import (
    DegenerateGame,
    InternalInvariantError,
    Stalled,
)
from .games import (
    BimatrixGame,
    EquilibriumPoint,
    RankOneFactorization,
    factor_rank1,
)
from .linalg import (
    AffineR,
    Rational,
    clear_denominators,
    rat,
)
from .polytopes import (
    LabeledVertex,
    VertexGraph,
    _equilibrium,
    _label_set,
    require_nondegenerate,
)


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


@dataclass(frozen=True)
class BasisInterval:
    """One maximal xi-interval on which a basis stays optimal.

    alpha2 is the first xi where primal feasibility breaks: c^T y at the far
    end of the Q edge, and alpha2_row is the row of the label that end adds.
    beta2 is the first xi where a basic dual multiplier goes negative: where
    the line of a steeper neighbour of the P vertex crosses the vertex's
    own, and beta2_row is the label dropped to reach it (None when no
    neighbour is steeper). xi2 = min of the two. The basis's P vertex, its
    Q edge's two ends in increasing c^T y and their c^T y are kept: x and
    pi2 are the P vertex's, and (y, pi1) moves along the Q edge, so an
    equilibrium at an interval end is the P vertex with an end of the edge.
    """

    basis: ParametricBasis
    xi1: Rational
    xi2: Rational
    alpha2: Rational | None
    beta2: Rational | None
    alpha2_row: int | None
    beta2_row: int | None
    objective: AffineR  # xi b^T x - pi1 - pi2 along the basis
    p_vertex: LabeledVertex
    q_edge: tuple[LabeledVertex, LabeledVertex]
    q_xi: tuple[Rational, Rational]  # c^T y at the ends of q_edge

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


def _objective_zeros(iv: BasisInterval) -> list[Rational]:
    """The ends of the interval where its objective is 0.

    The objective is affine in xi and nonpositive wherever the basis is
    feasible, so a zero inside the interval means it is 0 on all of it: a
    continuum of equilibria, which only a degenerate game has.
    """
    ends = (iv.xi1,) if iv.xi1 == iv.xi2 else (iv.xi1, iv.xi2)
    c0, c1 = iv.objective.c0, iv.objective.c1
    # with c0 = n0 / d0, c1 = n1 / d1 and xi = p / q, every denominator
    # positive, c0 + c1 xi has the sign of n0 d1 q + n1 d0 p
    u = c0.numerator * c1.denominator
    v = c1.numerator * c0.denominator
    signs = [u * xi.denominator + v * xi.numerator for xi in ends]
    if any(sign > 0 for sign in signs):
        raise InternalInvariantError(
            f"objective positive at an end of [{iv.xi1}, {iv.xi2}]"
        )
    zeros = [xi for xi, sign in zip(ends, signs) if sign == 0]
    if len(zeros) == 2:
        raise DegenerateGame(
            "objective vanishes on a whole interval; equilibria form a continuum"
        )
    return zeros


def _q_end(iv: BasisInterval, xi: Rational) -> int:
    """0 or 1: the end of the interval's Q edge where c^T y = xi. In a
    non-degenerate game an equilibrium is a pair of vertices, so an
    objective zero lies at an end of the Q edge."""
    if xi in iv.q_xi:
        return iv.q_xi.index(xi)
    raise InternalInvariantError(f"objective zero at xi = {xi} inside a Q edge")


class _Line:
    """The point (w^T s, payoff) of each vertex of one graph, for a weight
    vector w over its strategies s: (b^T x, pi2) on P, (c^T y, pi1) on Q.
    A vertex's point is kept as integers (s, o, d), the point (s / d, o / d),
    read off the vertex's integers (w' . key, scale * den, num, pay_den) with
    w = w' / scale; only the vertices a walk visits are read. Rationals are
    built only by ``x``, once per vertex."""

    def __init__(self, graph: VertexGraph, weights):
        self.vertices = graph.vertices
        self.w, self.scale = clear_denominators(weights)
        self._ints: dict[int, tuple[int, int, int]] = {}
        self._x: dict[int, Rational] = {}

    def ints(self, k: int) -> tuple[int, int, int]:
        """(s, o, d) of vertex k, with d > 0."""
        got = self._ints.get(k)
        if got is None:
            key, den, num, pay_den = self.vertices[k]._integers
            den *= self.scale
            got = self._ints[k] = (
                sum(map(mul, self.w, key)) * pay_den, num * den, den * pay_den
            )
        return got

    def chord(self, k: int, j: int) -> tuple[int, int]:
        """(num, den): the slope num / den of the chord from the point of
        vertex k to that of vertex j, the payoff's change over w^T s's; den
        has the sign of w^T s's change, and is 0 when it does not change."""
        sk, ok, dk = self.ints(k)
        sj, oj, dj = self.ints(j)
        return oj * dk - ok * dj, sj * dk - sk * dj

    def x(self, k: int) -> Rational:
        """w^T s at vertex k."""
        got = self._x.get(k)
        if got is None:
            s, _, d = self.ints(k)
            got = self._x[k] = rat(s, d)
        return got


def _first_least(fractions):
    """The tag of the first of the (num, den, tag) triples, den > 0, of least
    num / den, compared by cross-multiplication; None when there is none."""
    best = None
    for num, den, tag in fractions:
        if best is None or num * best[1] < best[0] * den:
            best = num, den, tag
    return None if best is None else best[2]


def _optimal_face(graph: VertexGraph, cost, start: int, fixed=frozenset()) -> set[int]:
    """The vertices of least cost on the face of the graph's polyhedron that
    keeps the labels ``fixed`` and holds vertex ``start``; cost(k) is a
    fraction (num, den), den > 0, compared by cross-multiplication.

    The walk descends to a vertex that no neighbour beats, stepping only
    across labels outside ``fixed``, and floods the neighbours of equal cost.
    That vertex is optimal, as the cost is linear and a ray of P or Q only
    raises it; the optimal vertices span a face, whose graph is connected
    (Balinski 1961), so the flood finds all of them.
    """

    ray = len(graph.vertices)

    def near(k: int):
        for l, j in sorted(graph.near(k).items()):
            if j != ray and l not in fixed:
                yield (*cost(j), j)

    k = start
    while (j := _first_least(near(k))) is not None:
        (jn, jd), (kn, kd) = cost(j), cost(k)
        if jn * kd >= kn * jd:
            break
        k = j
    kn, kd = cost(k)
    face, todo = {k}, [k]
    while todo:
        for num, den, j in near(todo.pop()):
            if num * kd == kn * den and j not in face:
                face.add(j)
                todo.append(j)
    return face


class _Walk:
    """The two vertex walks of a sweep, over the vertex graphs p of P
    and q of Q; P vertices and Q vertices are named by their indices. Every
    decision is made on integers: each P vertex's crossings and each Q
    edge's slope are computed once, as fractions num / den compared by
    cross-multiplication."""

    def __init__(self, g: BimatrixGame, f: RankOneFactorization, p, q):
        self.m, self.n = g.m, g.n
        self.p, self.q = p, q
        self.px = _Line(p, f.b)  # (b^T x, pi2): slope and offset of a P line
        self.qy = _Line(q, f.c)  # (c^T y, pi1) at a Q vertex
        self._bounds: dict[int, tuple] = {}
        self._slopes: dict[tuple[int, int], tuple[int, int]] = {}
        self._edges: dict[tuple[int, int], tuple] = {}

    def start(self, xi: Rational) -> tuple[int, int, int]:
        """(P vertex, Q edge ends lo, hi) of the first basis, optimal at
        xi = xi_min.

        The P vertex has the greatest value at xi, ties broken by sorted
        labels. The Q edge leaves a vertex of least pi1 on the slice at xi,
        raising c^T y; of those, it has the least slope, then sorted labels.
        Every vertex of the slice has such an edge, as a ray of Q only
        raises pi1.
        """
        pv, qv = self.p.vertices, self.q.vertices
        k = min(self._p_face(xi), key=lambda k: sorted(pv[k].labels))
        ups = sorted(
            (sorted(_label_set(qv[a].mask & qv[j].mask)), num, den, a, j)
            for a in self._q_face(xi)
            for num, den, j in self._up_edges(a)
        )
        if not ups:
            raise InternalInvariantError(f"no edge of Q meets c^T y = {xi}")
        return k, *_first_least((num, den, (a, j)) for _, num, den, a, j in ups)

    def one_point(self, xi: Rational) -> tuple[LabeledVertex, LabeledVertex]:
        """The P vertex and the Q vertex optimal at xi, when the range of xi
        is that one point and the slice at xi is all of Q. DegenerateGame
        when either optimum is a face of several vertices; its first vertex
        is the witness, P's as (x, pi2 - xi b^T x)."""
        m, p, q = self.m, self.p, self.q
        sides = [("P", p, self._p_face(xi)), ("Q", q, self._q_face(xi))]
        for which, graph, face in sides:
            if len(face) > 1:
                k = min(face)
                v = graph.vertices[k]
                if graph is p:
                    shifted = v.point[m] - xi * self.px.x(k)
                    v = LabeledVertex((*v.point[:m], shifted), v.labels)
                raise DegenerateGame(
                    f"{which} has {len(face)} payoff-minimizing vertices", witness=v
                )
        return tuple(graph.vertices[min(face)] for _, graph, face in sides)

    def _p_face(self, xi: Rational) -> set[int]:
        """The P vertices of greatest value xi b^T x - pi2 at xi, found from
        the best of the m vertices x = e_i, the origin's neighbours."""
        m, p, px = self.m, self.p, self.px
        xn, xd = xi.numerator, xi.denominator

        def cost(k: int) -> tuple[int, int]:
            # minus the value, pi2 - xi b^T x = (xd o - xn s) / (xd d) with
            # b^T x = s / d and pi2 = o / d; xd is the same for every vertex
            s, o, d = px.ints(k)
            return xd * o - xn * s, d

        # the origin, node V, carries the labels 1..m; dropping i reaches e_i
        pure = [p.neighbour(len(p.vertices), i) for i in range(1, m + 1)]
        return _optimal_face(p, cost, _first_least((*cost(k), k) for k in pure))

    def _q_face(self, xi: Rational) -> set[int]:
        """The Q vertices of least pi1 on the slice c^T y = xi = xi_min: the
        face where y_j = 0 for every c_j > xi, found from its vertex y = e_j
        of the first least c_j, a neighbour of the origin."""
        m, n, q, qy = self.m, self.n, self.q, self.qy
        # c_j = w_j / scale equals xi = p / q when w_j q = p scale
        at = xi.numerator * qy.scale
        fixed = frozenset(
            m + 1 + j for j, v in enumerate(qy.w) if v * xi.denominator != at
        )
        j = next(j for j in range(n) if m + 1 + j not in fixed)
        # the origin, node V, carries the labels m+1..m+n; dropping m+1+j
        # reaches e_j
        w = q.neighbour(len(q.vertices), m + 1 + j)
        return _optimal_face(q, lambda k: qy.ints(k)[1:], w, fixed)

    def _p_bounds(self, k: int) -> tuple:
        """(p_lo, beta2, beta2_row) of P vertex k: the crossings of its line
        with its neighbours' lines; a steeper line bounds the interval
        above, a shallower one below. The line of neighbour j crosses k's
        where xi is the slope of the chord from k's point (b^T x, pi2) to
        j's, and is steeper when that chord's b^T x increases."""
        got = self._bounds.get(k)
        if got is not None:
            return got
        p, px = self.p, self.px
        lo = hi = beta2_row = None  # (num, den) with den > 0
        ray = len(p.vertices)
        for l, j in sorted(p.near(k).items()):
            if j == ray:
                continue  # a ray never crosses v's line
            num, den = px.chord(k, j)
            if den > 0:
                if hi is None or num * hi[1] < hi[0] * den:
                    hi, beta2_row = (num, den), l
            elif den < 0:  # den == 0: a parallel line never crosses v's
                if lo is None or num * lo[1] < lo[0] * den:  # -num/-den > lo
                    lo = -num, -den
        got = self._bounds[k] = (
            None if lo is None else rat(*lo),
            None if hi is None else rat(*hi),
            beta2_row,
        )
        return got

    def _slope(self, a: int, b: int) -> tuple[int, int]:
        """(num, den): the growth num / den of pi1 per unit of c^T y from Q
        vertex a to Q vertex b; den > 0 exactly when c^T y increases."""
        got = self._slopes.get((a, b))
        if got is None:
            got = self._slopes[a, b] = self.qy.chord(a, b)
        return got

    def _q_edge(self, lo: int, hi: int) -> tuple:
        """(the mask of the labels kept, pi1 slope, pi1 at xi = 0, the label
        hi adds) of the Q edge from lo to hi, the two as (num, den) with
        den > 0."""
        got = self._edges.get((lo, hi))
        if got is None:
            hi_mask = self.q.vertices[hi].mask
            shared = self.q.vertices[lo].mask & hi_mask
            added = (hi_mask ^ shared).bit_length() - 1
            num, den = slope = self._slope(lo, hi)
            s, o, d = self.qy.ints(lo)
            # pi1 - c^T y * slope at lo: o / d - (s / d) (num / den)
            at0 = (o * den - s * num, d * den)
            got = self._edges[lo, hi] = (shared, slope, at0, added)
        return got

    def interval(self, k: int, lo: int, hi: int) -> BasisInterval:
        """The interval of the basis pairing P vertex k with Q edge (lo, hi)."""
        m, n = self.m, self.n
        p_lo, beta2, beta2_row = self._p_bounds(k)
        shared, (sn, sd), (an, ad), added = self._q_edge(lo, hi)
        s, o, d = self.px.ints(k)  # b^T x = s / d, pi2 = o / d
        c_lo, c_hi = self.qy.x(lo), self.qy.x(hi)
        v = self.p.vertices[k]
        return BasisInterval(
            basis=ParametricBasis(v.labels, _label_set(shared), m, n),
            xi1=c_lo if p_lo is None else max(c_lo, p_lo),
            xi2=c_hi if beta2 is None else min(c_hi, beta2),
            alpha2=c_hi,
            beta2=beta2,
            alpha2_row=m + n + added,
            beta2_row=beta2_row,
            # c0 = -at0 - pi2 and c1 = b^T x - slope
            objective=AffineR(
                c0=rat(-(an * d + o * ad), ad * d), c1=rat(s * sd - sn * d, d * sd)
            ),
            p_vertex=v,
            q_edge=(self.q.vertices[lo], self.q.vertices[hi]),
            q_xi=(c_lo, c_hi),
        )

    def _up_edges(self, a: int) -> list[tuple[int, int, int]]:
        """(num, den, far end) of each edge out of Q vertex a along which
        c^T y increases, by increasing label dropped; num / den is the edge's
        pi1 slope, den > 0."""
        q = self.q
        out = []
        ray = len(q.vertices)
        for l, j in sorted(q.near(a).items()):
            if j != ray:
                num, den = self._slope(a, j)
                if den > 0:
                    out.append((num, den, j))
        return out

    def next_edge(self, hi: int) -> int:
        """The far end of the edge out of Q vertex hi that continues the
        slice: c^T y increases along it and pi1 grows least per unit; ties go
        to the lowest label dropped."""
        ups = self._up_edges(hi)
        if not ups:
            raise Stalled(f"no edge of Q continues the slice past {self.qy.x(hi)}")
        return _first_least(ups)


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


def enumerate_all(
    g: BimatrixGame, factorization: RankOneFactorization | None = None
) -> SweepTrace:
    """All Nash equilibria of a non-degenerate game with rank(A+B) <= 1.

    Zero-sum games (A+B = 0, swept with b = 0 and c = 0) and row-constant
    games have a constant c, so the sweep's range is one point, where its
    start gives the unique equilibrium. NotRankOne is raised when
    rank(A+B) >= 2, DegenerateGame when the non-degeneracy check fails,
    and FactorizationMismatch when a given factorization is not A + B.
    Each distinct equilibrium is checked once, on its vertices' integers.
    """
    p, q = require_nondegenerate(g)
    if factorization is not None:
        factorization.require_matches(g)
    total = g.payoff_sum()
    if any(map(any, total)):
        f = factorization if factorization is not None else factor_rank1(g, total)
        swept = f
    else:  # zero-sum: the trace has no factors, and the sweep runs on b = c = 0
        f, swept = None, RankOneFactorization((rat(0),) * g.m, (rat(0),) * g.n)
    walk = _Walk(g, swept, p, q)
    lo, hi = min(swept.c), max(swept.c)
    if lo == hi:
        dispatch = "zero-sum" if f is None else "row-constant"
        eq = _equilibrium(p.payoffs, *walk.one_point(lo), source_xi=lo)
        return SweepTrace(g, f, dispatch, lo, lo, (), (), (eq,))

    k, q_lo, q_hi = walk.start(lo)
    iv = walk.interval(k, q_lo, q_hi)
    intervals: list[BasisInterval] = []
    breakpoints: list[BreakpointRecord] = []
    # each equilibrium by its (P vertex, Q vertex) pair, first sighting kept
    found: dict[tuple[int, int], EquilibriumPoint] = {}
    visited: set[tuple[int, ...]] = set()
    rows = iv.basis.rows
    while True:
        if rows in visited:
            raise Stalled(f"basis {rows} revisited; sweep is cycling")
        visited.add(rows)
        intervals.append(iv)
        for xi in _objective_zeros(iv):
            end = _q_end(iv, xi)
            pair = (k, (q_lo, q_hi)[end])
            if pair not in found:
                found[pair] = _equilibrium(
                    p.payoffs, iv.p_vertex, iv.q_edge[end], source_xi=xi
                )
        if iv.xi2 >= hi:
            break
        # past a feasibility (or "Both") breakpoint the Q walk steps to the
        # next edge; past an optimality breakpoint the P walk steps across
        # the dropped label
        case = iv.case
        if case == "Optimality":
            k = walk.p.neighbour(k, iv.beta2_row)
        else:
            q_lo, q_hi = q_hi, walk.next_edge(q_hi)
        nxt = walk.interval(k, q_lo, q_hi)
        # the next basis's own interval certifies the step
        if not nxt.xi1 <= iv.xi2 <= nxt.xi2:
            raise Stalled(f"no verifiable pivot at xi = {iv.xi2}")
        nxt_rows = nxt.basis.rows
        leaving = set(rows).difference(nxt_rows)
        entering = set(nxt_rows).difference(rows)
        breakpoints.append(
            BreakpointRecord(iv.xi2, case, min(leaving), min(entering))
        )
        iv, rows = nxt, nxt_rows
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


@dataclass(frozen=True)
class TraceRow:
    """One line of the sweep table: a breakpoint or an open interval."""

    kind: str  # "point" | "interval"
    xi: Rational | None
    span: tuple[Rational, Rational] | None
    objective: Rational | None  # exact value at points, None on intervals
    binding: frozenset[int]


def sweep_table(trace: SweepTrace) -> tuple[TraceRow, ...]:
    """The breakpoint/interval table for a general sweep.

    Point rows carry the union of binding rows over every basis optimal
    there (adjacent bases both contribute at a breakpoint); interval rows
    carry the rows tight throughout the open interval. The rows are read
    off labels, not dotted with z: a basis's x is its P vertex, whose labels
    are its P-side rows, and its (y, pi1) lies on a Q edge, tight on the
    labels the edge's ends share, plus the label an end adds when xi is
    that end's c^T y; the interval keeps both ends and their c^T y.
    """
    ivs = trace.intervals
    if not ivs:
        return ()
    off = trace.game.m + trace.game.n
    points: list[Rational] = []
    for iv in ivs:
        for v in (iv.xi1, iv.xi2):
            if not points or v != points[-1]:
                points.append(v)

    def binding_at(xi):
        rows: set[int] = set()
        objs = []
        for iv in ivs:
            if iv.xi1 <= xi <= iv.xi2:
                rows.update(iv.basis.rows)
                for w, cy in zip(iv.q_edge, iv.q_xi):
                    if cy == xi:
                        rows.update(off + l for l in w.labels)
                objs.append(iv.objective.at(xi))
        if not objs or any(o != objs[0] for o in objs):
            raise InternalInvariantError(
                f"bases optimal at xi = {xi} are missing or disagree"
            )
        return frozenset(rows), objs[0]

    out: list[TraceRow] = []
    for idx, xi in enumerate(points):
        rows, obj = binding_at(xi)
        out.append(TraceRow("point", xi, None, obj, rows))
        if idx + 1 < len(points):
            nxt = points[idx + 1]
            iv = next(v for v in ivs if v.xi1 <= xi and nxt <= v.xi2)
            out.append(
                TraceRow("interval", None, (xi, nxt), None, frozenset(iv.basis.rows))
            )
    return tuple(out)
