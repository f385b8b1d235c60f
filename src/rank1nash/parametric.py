"""Parametric enumeration of all equilibria of a non-degenerate rank-1 game.

With A + B = b c^T the equilibrium condition becomes a one-parameter family
of LPs: fix xi = c^T y, maximize (x^T b) xi - pi1 - pi2 over the product of
the two best-reply polyhedra sliced at c^T y = xi. The optimal value is
piecewise linear in xi, nonpositive everywhere, and its zeros are exactly
the equilibria. The sweep walks optimal bases of this LP from xi_min to
xi_max. A basis fixes x, so its objective is linear in xi and, being
nonpositive on the basis's interval, vanishes only at an end of it (or on
all of it, which a non-degenerate game rules out); the equilibria are read
off the interval ends and reported in the order of their keys
(``EquilibriumPoint.key``), not of the graphs' node numbers. When c is
constant (zero-sum games, swept with b = 0 and c = 0, and row-constant
games) the range of xi is one point, and the sweep is its start there: the
P vertex maximising xi b^T x - pi2 and the Q vertex of least pi1, each of
which must be unique.

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
Both steps are one rule on the points (w^T s, payoff) of a side's vertices,
(b^T x, pi2) on P and (c^T y, pi1) on Q (_Line.up): the least slope of a
chord to a neighbour of greater w^T s, ties to the lowest label dropped. On
P that slope is beta2, and on Q the next edge's pi1 slope.
A basis pairs a P vertex with a Q edge, so both walks read the vertex graphs
(polytopes.VertexGraph) that the non-degeneracy check returns, node by
node through node(k), near(k) and weigh(k, w) (the first tier of its
interface), and the sweep makes no linear solve. x and pi2 come from the P
vertex; y and pi1 are interpolated along the Q edge. Once the graphs
exist, the sweep's cost follows the intervals it crosses, not the
vertices: b^T x, c^T y and the payoffs of a vertex and of each neighbour it
compares are weighed off the walk's record of the vertex's basis
(weigh(k, w)), so only the vertices the walks visit are read out, each
vertex's crossings and each edge's slope are computed once, as neither
walk returns, and an equilibrium is a vertex pair, so only the vertices of
equilibria build their rationals. A + B is factored on the integer payoffs
the check cleared (games.factor_rank1). The start is one routine on each side
(_Line.face), for a cost alpha w^T s + beta payoff: from the graph's
origin, descend the vertex graph of P, or of the face of Q that keeps
y_l = 0 for every c_l > xi_min, to a vertex no neighbour beats, then flood
the neighbours of equal cost. The optimal vertices of a linear function
over a pointed polyhedron span a face whose graph is connected (Balinski
1961), so the flood finds all of a tied optimum without a scan. The start
decodes label sets only to break a tie, as sorted label lists do not order
like masks. The walks decide in
integers: a vertex's point (w^T s, payoff) is a triple (s, o, d) over one
denominator, a crossing or a slope is the chord between two such points as
a pair (num, den), and crossings, slopes and the start's costs are compared
by cross-multiplication. Past the start the loop holds each basis as an
integer span (_Walk.span): its row mask, its interval's ends, its
breakpoint kind and its objective's two coefficients, each number such a
pair, with the walk's tuples of its P vertex and its Q edge, which
hold the rest of what the interval's record reports: the vertices, the
crossings, c^T y at the edge's ends and the rows. It picks each interval's
ends and breakpoint kind, stops at xi_max, certifies each step, finds the
objective's zeros and the Q end each zero sits at, all by cross-multiplying
those pairs, and checks each mask's row counts (_require_rows). The only
rationals it builds are those of the equilibria: each one's source_xi, the
c^T y of its Q vertex, and the points of its two vertices; the equilibria
are ordered by their P vertices' integer keys, as in a non-degenerate game
no two share x. The trace keeps the spans and
nothing of the walk, so an unread trace holds neither vertex graph. Its
intervals and breakpoints are fields it defers (record.Record): on the
first read of either, one function (_records) builds both, reading each
reported value off the spans and building each distinct (num, den) pair
as a rational once; the source_xi the loop built are among them. A caller
that reads only the equilibria, such as the default ``enumerate`` output,
builds no record. A basis (ParametricBasis) is one row mask, P label l as
bit l and Q label l as bit m+n+l, checked once, when the loop builds its
span (_require_rows), and decoded into label sets only when read: the
loop keeps the masks it has visited, and a breakpoint's leaving and
entering rows are the lowest bits of the masks' two differences. The sweep
table unions the row masks of each interval's basis and Q edge ends and
decodes each binding set once; no dense tableau is ever built.
"""

from __future__ import annotations

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
    _by_point,
    _equilibrium,
    _label_set,
    require_nondegenerate,
)
from .record import Record


def _require_rows(mask: int, m: int, n: int) -> None:
    """ValueError unless the row mask holds rows of 1..2(m+n) only, m of them
    on the P side (1..m+n) and n-1 on the Q side."""
    off = m + n
    # a negative mask has bits past every row
    if mask & 1 or mask >> 2 * off + 1:
        raise ValueError("rows out of range")
    p_side = (mask & (2 << off) - 1).bit_count()
    if p_side != m or mask.bit_count() - p_side != n - 1:
        raise ValueError("basis needs m P-side rows and n-1 Q-side rows")


def _rows(mask: int) -> tuple[int, ...]:
    """The rows of a row mask, ascending."""
    return tuple(sorted(_label_set(mask)))


class ParametricBasis(Record):
    """The M1 rows a basis keeps tight, as one row mask: row r is bit r, so
    P label l is bit l and Q label l is bit m+n+l. The rows must lie in
    1..2(m+n), m of them on the P side (1..m+n) and n-1 on the Q side.
    ``i_labels``, ``j_labels`` and ``rows`` are decoded from the mask on
    each read.
    """

    mask: int
    m: int
    n: int

    def __post_init__(self):
        _require_rows(self.mask, self.m, self.n)

    @property
    def i_labels(self) -> frozenset[int]:
        """The P labels: the rows 1..m+n."""
        return _label_set(self.mask & (2 << self.m + self.n) - 1)

    @property
    def j_labels(self) -> frozenset[int]:
        """The Q labels: row m+n+l is label l."""
        return _label_set(self.mask >> self.m + self.n & ~1)

    @property
    def rows(self) -> tuple[int, ...]:
        """Global 1-based M1 row indices, ascending."""
        return _rows(self.mask)

    def __repr__(self) -> str:
        # the label sets, not the mask, so that a trace reads as labels
        return (
            f"ParametricBasis(i_labels={self.i_labels!r}, "
            f"j_labels={self.j_labels!r}, m={self.m!r}, n={self.n!r})"
        )


class BasisInterval(Record):
    """One maximal xi-interval on which a basis stays optimal.

    alpha2 is the first xi where primal feasibility breaks: c^T y at the far
    end of the Q edge, and alpha2_row is the row of the label that end adds.
    beta2 is the first xi where a basic dual multiplier goes negative: where
    the line of a steeper neighbour of the P vertex crosses the vertex's
    own, and beta2_row is the label dropped to reach it (None when no
    neighbour is steeper). xi2 = min of the two, and ``case`` names the
    breakpoint that ends the interval: "Feasibility" when xi2 is alpha2
    alone, "Optimality" when it is beta2 alone, "Both" when it is both. The
    basis's P vertex, its Q edge's two ends in increasing c^T y and their
    c^T y are kept: x and pi2 are the P vertex's, and (y, pi1) moves along
    the Q edge, so an equilibrium at an interval end is the P vertex with
    an end of the edge.
    """

    basis: ParametricBasis
    xi1: Rational
    xi2: Rational
    alpha2: Rational
    beta2: Rational | None
    alpha2_row: int
    beta2_row: int | None
    objective: AffineR  # xi b^T x - pi1 - pi2 along the basis
    p_vertex: LabeledVertex
    q_edge: tuple[LabeledVertex, LabeledVertex]
    q_xi: tuple[Rational, Rational]  # c^T y at the ends of q_edge
    case: str
    _hidden = ("case",)


def _ints(xi: Rational) -> tuple[int, int]:
    """(num, den): xi in lowest terms, den > 0."""
    return xi.numerator, xi.denominator


def _objective_zeros(xi1: tuple, xi2: tuple, c0: tuple, c1: tuple) -> tuple:
    """The ends of [xi1, xi2] where the objective c0 + c1 xi is 0, every
    number a pair (num, den) with den > 0.

    The objective is affine in xi and nonpositive wherever the basis is
    feasible, so a zero inside the interval means it is 0 on all of it: a
    continuum of equilibria, which only a degenerate game has.
    """
    (p1, q1), (p2, q2) = xi1, xi2
    # c0 + c1 xi at xi = p / q has the sign of n0 d1 q + n1 d0 p, with
    # c0 = n0 / d0, c1 = n1 / d1 and every denominator positive
    (n0, d0), (n1, d1) = c0, c1
    u, v = n0 * d1, n1 * d0
    at1, at2 = u * q1 + v * p1, u * q2 + v * p2
    if at1 > 0 or at2 > 0:
        raise InternalInvariantError(
            f"objective positive at an end of [{rat(*xi1)}, {rat(*xi2)}]"
        )
    if p1 * q2 == p2 * q1:  # a one-point interval
        return () if at1 else (xi1,)
    if at1 == at2 == 0:
        raise DegenerateGame(
            "objective vanishes on a whole interval; equilibria form a continuum"
        )
    return (xi1,) if at1 == 0 else (xi2,) if at2 == 0 else ()


def _q_end(q_xi: tuple, xi: tuple) -> int:
    """0 or 1: the end of a Q edge where c^T y = xi, given c^T y at its two
    ends, each number a pair (num, den) with den > 0. In a non-degenerate
    game an equilibrium is a pair of vertices, so an objective zero lies at
    an end of the Q edge."""
    num, den = xi
    for end, (s, d) in enumerate(q_xi):
        if s * den == num * d:
            return end
    raise InternalInvariantError(f"objective zero at xi = {rat(*xi)} inside a Q edge")


class _Line:
    """The walker of one side: the point (w^T s, payoff) of each vertex of
    its graph, for a weight vector w over its strategies s: (b^T x, pi2) on
    P, (c^T y, pi1) on Q. A vertex's point is kept as integers (s, o, d),
    the point (s / d, o / d): with w = w' / scale and the vertex z / det of
    the walk, ``graph.weigh`` gives w' . z, det - shift * sum(z) and sum(z),
    and the payoff is (det - shift * sum(z)) / sum(z), so (s, o, d) is
    (w' . z, (det - shift * sum(z)) * scale, sum(z) * scale). A neighbour
    is weighed off the walk's record of its basis, so no vertex is read
    out to be weighed: ``node(k)`` is read only for the vertices the walks
    visit, those of the start's ties and those of equilibria. No rational
    is built."""

    def __init__(self, graph: VertexGraph, weights):
        self.graph = graph
        self.w, self.scale = clear_denominators(weights)
        self._ints: dict[int, tuple[int, int, int]] = {}

    def ints(self, k: int) -> tuple[int, int, int]:
        """(s, o, d) of vertex k, with d > 0."""
        got = self._ints.get(k)
        if got is None:
            dot, num, total = self.graph.weigh(k, self.w)
            scale = self.scale
            got = self._ints[k] = dot, num * scale, total * scale
        return got

    def up(self, k: int) -> tuple:
        """The shadow-vertex step out of vertex k: (the least slope of a
        chord to a neighbour of greater w^T s, the (label dropped, neighbour)
        of every chord of that slope, minus the greatest slope of a chord to
        a neighbour of lesser w^T s), each slope as (num, den), den > 0, and
        None where there is no such neighbour; ties keep the first slope
        met, in the order of ``near(k)``. A ray, or a neighbour of equal
        w^T s, is no step. The slope of the chord from k's point to j's is
        the payoff's change over w^T s's, and the change in w^T s has the
        sign of the pair's den."""
        graph = self.graph
        ray = graph.origin_index
        sk, ok, dk = self.ints(k)
        least = lo = None
        ties = []
        for l, j in graph.near(k).items():
            if j != ray:
                sj, oj, dj = self.ints(j)
                num, den = oj * dk - ok * dj, sj * dk - sk * dj
                if den > 0:
                    diff = 1 if least is None else least[0] * den - num * least[1]
                    if diff > 0:
                        least, ties = (num, den), [(l, j)]
                    elif diff == 0:
                        ties.append((l, j))
                elif den < 0 and (lo is None or lo[0] * -den > num * lo[1]):
                    lo = num, -den
        return least, ties, lo

    def face(self, alpha: int, beta: int, fixed: int = 0) -> set[int]:
        """The vertices of least cost alpha w^T s + beta payoff on the face
        of the graph's polyhedron that keeps the labels of the mask
        ``fixed``; costs are fractions compared by cross-multiplication.

        The walk starts at the origin, which every vertex beats, descends to
        a vertex that no neighbour beats, stepping only across labels
        outside ``fixed`` to the first neighbour of least cost, and floods
        the neighbours of equal cost. That vertex is optimal, as the cost is
        linear and a ray of P or Q only raises it; the optimal vertices span
        a face, whose graph is connected (Balinski 1961), so the flood finds
        all of them, in whatever order the neighbours come.
        """
        graph = self.graph
        ray = graph.origin_index

        def near(k: int):
            # each neighbour j of k across a label outside ``fixed``, with
            # its cost num / den, as (num, den, j)
            for l, j in graph.near(k).items():
                if j != ray and not fixed >> l & 1:
                    s, o, d = self.ints(j)
                    yield alpha * s + beta * o, d, j

        def least(k: int) -> tuple | None:
            best = None
            for cost in near(k):
                if best is None or best[0] * cost[1] > cost[0] * best[1]:
                    best = cost
            return best

        kn, kd, k = least(ray)
        while True:
            best = least(k)
            diff = 1 if best is None else best[0] * kd - kn * best[1]
            if diff > 0:  # no neighbour ties k: the face is k alone
                return {k}
            if diff == 0:
                break
            kn, kd, k = best
        face, todo = {k}, [k]
        while todo:
            for num, den, j in near(todo.pop()):
                if num * kd == kn * den and j not in face:
                    face.add(j)
                    todo.append(j)
        return face


def _least(fractions) -> tuple[tuple[int, int] | None, list]:
    """The least num / den of the (num, den, tag) triples, den > 0, as
    (num, den), and the tags of all the triples of that value, in order,
    compared by cross-multiplication; (None, []) when there is none."""
    best, tags = None, []
    for num, den, tag in fractions:
        diff = 1 if best is None else best[0] * den - num * best[1]
        if diff > 0:
            best, tags = (num, den), [tag]
        elif diff == 0:
            tags.append(tag)
    return best, tags


class _Walk:
    """The two vertex walks of a sweep, over the vertex graphs p of P and q
    of Q, each stepped by its side's ``_Line``; P vertices and Q vertices
    are named by their indices, weighed through ``weigh(k, w)`` and read
    through ``node(k)``. Every
    decision is made on integers: each P vertex's crossings
    (``_p_bounds``) and each Q edge's slope and ends (``_q_edge``) are
    fractions num / den compared by cross-multiplication, computed once
    without a memo, as neither walk returns: a P step reaches a neighbour
    of greater b^T x, and a Q step an edge of greater c^T y. Each basis is
    an integer ``span``, which carries the tuples of its P vertex and its Q
    edge. The walk builds no rational but the c^T y of a vertex it reports
    stalled at; the records are built from the spans alone (``_records``),
    so the trace need not keep the walk."""

    def __init__(self, g: BimatrixGame, f: RankOneFactorization, p, q):
        self.m, self.n = g.m, g.n
        self.p, self.q = p, q
        self.px = _Line(p, f.b)  # (b^T x, pi2): slope and offset of a P line
        self.qy = _Line(q, f.c)  # (c^T y, pi1) at a Q vertex

    def start(self, xi: Rational) -> tuple[int, int, int]:
        """(P vertex, Q edge ends lo, hi) of the first basis, optimal at
        xi = xi_min.

        The P vertex has the greatest value at xi, ties broken by sorted
        labels. The Q edge leaves a vertex of least pi1 on the slice at xi,
        raising c^T y; of those, it has the least slope, then sorted labels.
        Every vertex of the slice has such an edge, as a ray of Q only
        raises pi1. Labels are decoded only to break a tie, as sorted label
        lists do not order like masks.
        """
        p, q = self.p, self.q
        face = self._p_face(xi)
        if len(face) == 1:
            (k,) = face
        else:
            k = min(face, key=lambda k: sorted(p.node(k).labels))
        edges = []
        for a in self._q_face(xi):
            slope, ties, _ = self.qy.up(a)
            edges.extend((*slope, (a, j)) for _, j in ties)
        _, ups = _least(edges)
        if not ups:
            raise InternalInvariantError(f"no edge of Q meets c^T y = {xi}")
        if len(ups) > 1:
            ups.sort(key=lambda e: sorted(q.node(e[0]).labels & q.node(e[1]).labels))
        return k, *ups[0]

    def one_point(self, xi: Rational) -> tuple[LabeledVertex, LabeledVertex]:
        """The P vertex and the Q vertex optimal at xi, when the range of xi
        is that one point and the slice at xi is all of Q.

        With c constant the game is strategically zero-sum, so each player's
        optimal strategies form a convex set; a non-degenerate game has
        finitely many equilibria, so each set is one point, one vertex.
        DegenerateGame, with no witness, when an optimum is a face of
        several vertices, which only a degenerate game has.
        """
        sides = [("P", self.p, self._p_face(xi)), ("Q", self.q, self._q_face(xi))]
        for which, _, face in sides:
            if len(face) > 1:
                raise DegenerateGame(
                    f"{which} has {len(face)} payoff-minimizing vertices"
                )
        return tuple(graph.node(k) for _, graph, (k,) in sides)

    def _p_face(self, xi: Rational) -> set[int]:
        """The P vertices of greatest value xi b^T x - pi2 at xi."""
        # minus the value, pi2 - xi b^T x = (xd o - xn s) / (xd d) with
        # b^T x = s / d and pi2 = o / d; xd is the same for every vertex
        xn, xd = _ints(xi)
        return self.px.face(-xn, xd)

    def _q_face(self, xi: Rational) -> set[int]:
        """The Q vertices of least pi1 on the slice c^T y = xi = xi_min: the
        face where y_j = 0 for every c_j > xi."""
        qy, labels = self.qy, self.q.labels
        # c_j = w_j / scale equals xi = xn / xd when w_j xd = xn scale
        xn, xd = _ints(xi)
        at = xn * qy.scale
        fixed = sum(1 << labels[j] for j, v in enumerate(qy.w) if v * xd != at)
        return qy.face(0, 1, fixed)

    def _p_bounds(self, k: int) -> tuple:
        """(p_lo, beta2, beta2_row, vertex) of P vertex k: the greatest
        crossing of its line with a shallower neighbour's line, bounding the
        interval below, and the least with a steeper one, bounding it above,
        each as (num, den) with den > 0, ties to the lowest label dropped;
        None where there is none. The line of neighbour j crosses k's where
        xi is the slope of the chord from k's point (b^T x, pi2) to j's, and
        is steeper when that chord's b^T x increases, so the crossings are
        ``px.up(k)``'s chords."""
        hi, ties, lo = self.px.up(k)
        return (
            None if lo is None else (-lo[0], lo[1]),
            hi,
            min(ties)[0] if ties else None,
            self.p.node(k),
        )

    def _q_edge(self, lo: int, hi: int) -> tuple:
        """(the mask of the labels kept, pi1 slope, pi1 at xi = 0, the label
        hi adds, c^T y at lo and at hi, vertex lo, vertex hi) of the Q edge
        from lo to hi, each number as (num, den) with den > 0."""
        v_lo, v_hi = self.q.node(lo), self.q.node(hi)
        shared = v_lo.mask & v_hi.mask
        added = (v_hi.mask ^ shared).bit_length() - 1
        s, o, d = self.qy.ints(lo)
        hs, ho, hd = self.qy.ints(hi)
        # pi1 grows num / den per unit of c^T y, and den > 0
        num, den = slope = ho * d - o * hd, hs * d - s * hd
        # pi1 - c^T y * slope at lo: o / d - (s / d) (num / den)
        at0 = (o * den - s * num, d * den)
        return shared, slope, at0, added, (s, d), (hs, hd), v_lo, v_hi

    def span(self, k: int, bounds: tuple, edge: tuple) -> tuple:
        """The sweep's integer record of the basis pairing P vertex k, whose
        ``_p_bounds`` tuple is ``bounds``, with the Q edge whose ``_q_edge``
        tuple is ``edge``: (row mask, xi1, xi2, case, c0, c1, bounds, edge),
        with xi1 = max(c^T y at lo, p_lo), xi2 = min(alpha2, beta2),
        ``case`` the breakpoint at xi2, c0 + c1 xi the objective, each
        number as (num, den) with den > 0; the two tuples carry the rest of
        what the interval's record reports. ValueError when the mask does
        not hold m P-side and n-1 Q-side rows."""
        m, n = self.m, self.n
        p_lo, beta2, _, vertex = bounds
        shared, (sn, sd), (an, ad), _, c_lo, c_hi, _, _ = edge
        s, o, d = self.px.ints(k)  # b^T x = s / d, pi2 = o / d
        # p_lo > c^T y at lo, and the sign of alpha2 - beta2, which names
        # the breakpoint that ends the interval, by cross-multiplication
        above = p_lo is not None and p_lo[0] * c_lo[1] > c_lo[0] * p_lo[1]
        diff = -1 if beta2 is None else c_hi[0] * beta2[1] - beta2[0] * c_hi[1]
        case = "Feasibility" if diff < 0 else "Both" if diff == 0 else "Optimality"
        mask = vertex.mask | shared << m + n
        _require_rows(mask, m, n)
        return (
            mask,
            p_lo if above else c_lo,
            c_hi if diff <= 0 else beta2,
            case,
            # c0 = -at0 - pi2 and c1 = b^T x - slope
            (-(an * d + o * ad), ad * d),
            (s * sd - sn * d, d * sd),
            bounds,
            edge,
        )

    def next_edge(self, hi: int) -> int:
        """The far end of the edge out of Q vertex hi that continues the
        slice: c^T y increases along it and pi1 grows least per unit; ties go
        to the lowest label dropped."""
        _, ties, _ = self.qy.up(hi)
        if not ties:
            s, _, d = self.qy.ints(hi)
            raise Stalled(f"no edge of Q continues the slice past {rat(s, d)}")
        return min(ties)[1]


class BreakpointRecord(Record):
    xi: Rational
    kind: str  # "Feasibility" | "Optimality" | "Both"
    leaving: int  # global 1-based M1 row
    entering: int


def _records(m: int, n: int, spans: list, rats: dict) -> tuple:
    """(intervals, breakpoints) of the sweep that visited ``spans``
    (``_Walk.span``), each distinct (num, den) pair built as a rational
    once: ``rats`` holds those the sweep built, and gains the rest."""

    def r(pair: tuple[int, int]) -> Rational:
        got = rats.get(pair)
        if got is None:
            got = rats[pair] = rat(*pair)
        return got

    ivs = []
    for mask, xi1, xi2, case, c0, c1, bounds, edge in spans:
        _, beta2, beta2_row, vertex = bounds
        _, _, _, added, c_lo, c_hi, v_lo, v_hi = edge
        ivs.append(
            BasisInterval(
                basis=ParametricBasis._of(mask=mask, m=m, n=n),
                xi1=r(xi1),
                xi2=r(xi2),
                alpha2=r(c_hi),
                beta2=None if beta2 is None else r(beta2),
                alpha2_row=m + n + added,
                beta2_row=beta2_row,
                objective=AffineR(r(c0), r(c1)),
                p_vertex=vertex,
                q_edge=(v_lo, v_hi),
                q_xi=(r(c_lo), r(c_hi)),
                case=case,
            )
        )
    bps = []
    for iv, a, b in zip(ivs, spans, spans[1:]):
        # the least row that leaves and the least that enters: the lowest
        # bits of the two differences of the row masks
        leaving, entering = a[0] & ~b[0], b[0] & ~a[0]
        bps.append(
            BreakpointRecord(
                xi=iv.xi2,
                kind=iv.case,
                leaving=(leaving & -leaving).bit_length() - 1,
                entering=(entering & -entering).bit_length() - 1,
            )
        )
    return tuple(ivs), tuple(bps)


class SweepTrace(Record):
    """Everything the enumeration saw: one entry per visited basis.

    The trace ``enumerate_all`` returns from a general sweep keeps one
    integer record per interval (``_Walk.span``), which names the vertices
    and holds the values its records report, and nothing of the walk or of
    the vertex graphs. It builds ``intervals`` and ``breakpoints``, with
    their rationals, on the first read of either (``_records``), and lets
    the spans go then. A caller that reads only the equilibria builds none
    of them.
    """

    game: BimatrixGame
    factorization: RankOneFactorization | None
    dispatch: str  # "general" | "zero-sum" | "row-constant"
    xi_min: Rational
    xi_max: Rational
    intervals: tuple[BasisInterval, ...]
    breakpoints: tuple[BreakpointRecord, ...]
    equilibria: tuple[EquilibriumPoint, ...]

    def _read_records(self) -> None:
        # the records of a general sweep, from ``_pending``: (m, n, spans,
        # rats), with ``rats`` the rationals the sweep built, by (num, den)
        # pair. Two threads may both build them, and their records are
        # equal; the spans are let go once both fields are set
        d = self.__dict__
        pending = d.get("_pending")
        if pending is not None:
            d["intervals"], d["breakpoints"] = _records(*pending)
            d.pop("_pending", None)

    _deferred = {"intervals": _read_records, "breakpoints": _read_records}


def enumerate_all(
    g: BimatrixGame, factorization: RankOneFactorization | None = None
) -> SweepTrace:
    """All Nash equilibria of a non-degenerate game with rank(A+B) <= 1.

    Zero-sum games (A+B = 0, swept with b = 0 and c = 0) and row-constant
    games have a constant c, so the sweep's range is one point, where its
    start gives the unique equilibrium. NotRankOne is raised when
    rank(A+B) >= 2, DegenerateGame when the non-degeneracy check fails,
    and FactorizationMismatch when a given factorization is not A + B.
    A given factorization is reported as given, except on a zero-sum game:
    there the trace's factorization is None, as the sweep runs on b = c = 0
    at xi = 0, which a given nonzero c would contradict. Each distinct
    equilibrium is checked once, on its vertices' integers.
    """
    p, q = require_nondegenerate(g)
    total = p.payoffs.payoff_sum()  # A + B on the integers the walk cleared
    if factorization is not None:
        factorization.require_matches(g, total)
    if any(map(any, total[0])):
        f = factorization if factorization is not None else factor_rank1(g, total)
        swept = f
    else:  # zero-sum: the trace has no factors, and the sweep runs on b = c = 0
        f, swept = None, RankOneFactorization((rat(0),) * g.m, (rat(0),) * g.n)
    walk = _Walk(g, swept, p, q)
    # the first least and the first greatest c_j, picked on c's integers
    w = walk.qy.w
    w_lo, w_hi = min(w), max(w)
    lo, hi = swept.c[w.index(w_lo)], swept.c[w.index(w_hi)]
    if w_lo == w_hi:
        dispatch = "zero-sum" if f is None else "row-constant"
        eq = _equilibrium(p.payoffs, *walk.one_point(lo), source_xi=lo)
        return SweepTrace(g, f, dispatch, lo, lo, (), (), (eq,))

    k, q_lo, q_hi = walk.start(lo)
    hn, hd = _ints(hi)
    # a P step reaches a greater b^T x and a Q step an edge of greater c^T y,
    # so neither walk returns: each vertex's bounds and each edge are read
    # once, when the walk steps to them
    bounds, edge = walk._p_bounds(k), walk._q_edge(q_lo, q_hi)
    span = walk.span(k, bounds, edge)
    # each equilibrium by its (P vertex, Q vertex) pair, first sighting kept
    found: dict[tuple[int, int], EquilibriumPoint] = {}
    spans: dict[int, tuple] = {}  # the span of each basis, by its row mask
    # each source_xi by the raw (num, den) pair of its Q vertex's c^T y, the
    # records' memo too
    rats: dict[tuple[int, int], Rational] = {}
    while True:
        rows, xi1, xi2, case, c0, c1, _, _ = span
        if rows in spans:
            raise Stalled(f"basis {_rows(rows)} revisited; sweep is cycling")
        spans[rows] = span
        for xi in _objective_zeros(xi1, xi2, c0, c1):
            end = _q_end(edge[4:6], xi)
            key = k, (q_lo, q_hi)[end]
            if key not in found:
                pair = edge[4 + end]
                source_xi = rats[pair] = rat(*pair)
                found[key] = _equilibrium(
                    p.payoffs, bounds[3], edge[6 + end], source_xi=source_xi
                )
        if xi2[0] * hd >= hn * xi2[1]:  # xi2 >= xi_max
            break
        # past a feasibility (or "Both") breakpoint the Q walk steps to the
        # next edge; past an optimality breakpoint the P walk steps across
        # the dropped label
        if case == "Optimality":
            k = p.near(k)[bounds[2]]
            bounds = walk._p_bounds(k)
        else:
            q_lo, q_hi = q_hi, walk.next_edge(q_hi)
            edge = walk._q_edge(q_lo, q_hi)
        span = walk.span(k, bounds, edge)
        # the next basis's own interval certifies the step: it holds xi2
        (n1, d1), (n2, d2), (xn, xd) = span[1], span[2], xi2
        if n1 * xd > xn * d1 or xn * d2 > n2 * xd:
            raise Stalled(f"no verifiable pivot at xi = {rat(xn, xd)}")

    # EquilibriumPoint.key's order, on the P vertices' integers: in a
    # non-degenerate game no two equilibria share x
    order = sorted(found, key=lambda pair: _by_point(p.node(pair[0])._integers))
    return SweepTrace._of(
        game=g,
        factorization=f,
        dispatch="general",
        xi_min=lo,
        xi_max=hi,
        equilibria=tuple(found[pair] for pair in order),
        _pending=(g.m, g.n, list(spans.values()), rats),
    )


class TraceRow(Record):
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
    off label masks, not dotted with z: a basis's x is its P vertex, whose
    labels are its P-side rows, and its (y, pi1) lies on a Q edge, tight on
    the labels the edge's ends share, plus the label an end adds when xi is
    that end's c^T y; the interval keeps both ends and their c^T y. Each
    row's binding set is the union of those masks, decoded once.
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
        rows = 0
        objs = []
        for iv in ivs:
            if iv.xi1 <= xi <= iv.xi2:
                rows |= iv.basis.mask
                for w, cy in zip(iv.q_edge, iv.q_xi):
                    if cy == xi:
                        rows |= w.mask << off
                objs.append(iv.objective.at(xi))
        if not objs or any(o != objs[0] for o in objs):
            raise InternalInvariantError(
                f"bases optimal at xi = {xi} are missing or disagree"
            )
        return _label_set(rows), objs[0]

    out: list[TraceRow] = []
    for idx, xi in enumerate(points):
        rows, obj = binding_at(xi)
        out.append(TraceRow("point", xi, None, obj, rows))
        if idx + 1 < len(points):
            nxt = points[idx + 1]
            iv = next((v for v in ivs if v.xi1 <= xi and nxt <= v.xi2), None)
            if iv is None:
                raise InternalInvariantError(f"no basis is optimal on ({xi}, {nxt})")
            out.append(
                TraceRow("interval", None, (xi, nxt), None, _label_set(iv.basis.mask))
            )
    return tuple(out)
