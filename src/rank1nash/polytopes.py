"""Best-reply polyhedra P and Q, exact vertex enumeration, label-based oracle.

Labels follow the shared 1..m+n convention: in P (over (x, pi2)) label i <= m
marks x_i = 0 and label m+j marks column j being a best reply; in Q (over
(y, pi1)) label i <= m marks row i being a best reply and label m+j marks
y_j = 0. A strategy pair is a Nash equilibrium exactly when the two vertex
label sets cover all of 1..m+n.

Vertices are found on the normalised polytopes P' = {x >= 0 : B'^T x <= 1}
and Q' = {y >= 0 : A' y <= 1}, where A' and B' are the payoffs cleared of
denominators and shifted to positive integers. That positive affine map
keeps every best reply, so each non-zero vertex of P' is a vertex of P with
the same labels, after scaling x onto the simplex. ``require_nondegenerate``
clears A and B^T once, into one ``IntegerPayoffs``: both walks shift it,
and the graphs carry it to every equilibrium check of the call. The walk
starts at the origin, a simple vertex whose dictionary is the raw integer
data, and follows ratio-test pivots through every feasible basis, in the
manner of lrs (Avis & Fukuda 1992; Avis, Rosenberg, Savani & von Stengel
2010). As in lrs, the walk keeps a dictionary: the integer columns of the d
cobasic variables and the right-hand side, all scaled by the basis
determinant det (Bareiss division keeps them integral). The k basic columns
always read det * e_r, so they are not stored: a pivot turns the leaving
variable's column into det in the pivot row and minus the entering column
elsewhere. That pivot is ``linalg._pivot``, the one the package's solves
and ranks also run.

Each vertex is read off the integer dictionary. With A' = scale * A + shift
(likewise B'), a basis of determinant det puts P' or Q' at z = r / det,
where the integer vector r holds the right-hand side on the basic z
variables and 0 elsewhere. At a non-zero vertex some row of A' is tight, so
the best-reply payoff of the strategy z / sum(z) is
(det - shift * S) / (scale * S) with S = sum(r): one rational, with no dot
product. The bases of a degenerate vertex are merged on an integer key, the
primitive vector r / gcd(r) (r itself when the gcd is 1), so a repeated
basis costs no rational arithmetic. A vertex's labels are its cobasic
variables, plus the basic variables at zero. A basis whose basic variables
are all positive is the only basis of its vertex, so only a basis with a
basic variable at zero looks its key up among the vertices found before it.
The labels are kept only as one integer mask, label l as bit l, summed
through the graph's table of label bits; ``_label_set`` decodes a mask
into a frozenset in increasing label order. Every lookup by label set is
a lookup by mask: the check counts the mask's bits, ``VertexGraph.at`` is
keyed by mask, and a P vertex's partner is the Q vertex at ``full ^ mask``.

Vertices stay in integers until a caller reads a rational. Each keeps its
key, the key's sum (the denominator of the strategy) and the payoff's
numerator and denominator, and builds ``point`` on first read. They are
sorted by cross-multiplication: key a comes before key b when, at the first
i where a_i * sum(b) != b_i * sum(a), a_i * sum(b) < b_i * sum(a). That is
the order of their strategies a / sum(a), so of their points. A caller that
reads only label masks, such as the non-degeneracy check, builds no rational
and no label set at all. Past the walk an equilibrium is a pair of
vertices: ``_equilibrium`` validates it and runs the Nash test on the two
keys, which are exactly the integers ``is_nash`` would clear the strategies
to, and builds only the two points it reports. ``_labeled_equilibria`` is
the one readout of every completely labeled pair, for ``labels``,
``reachability`` and ``gprime``.

The walk pivots on pop: its stack keeps, for each basis found but not yet
visited, the parent's dictionary and the pivot's row and column, so
siblings share one dictionary and a dictionary lives only while a child of
it waits. It hands each basis over as its own state (basis, cobasis,
dictionary, det) and tries the entering variables in dictionary order. A
basis is known by its mask, the bits of its variables. The walk also
records every ratio-test step it takes, and in a non-degenerate game, where
each basis is one vertex and each step is one edge, that record is the
vertex graph: ``VertexGraph`` reads it node by node, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key
from itertools import compress, count

from .errors import DegenerateGame, InternalInvariantError
from .games import (
    BimatrixGame,
    EquilibriumPoint,
    IntegerPayoffs,
    MixedStrategyPair,
    _integer_nash_test,
)
from .linalg import Rational, _pivot, rat


def _mask(labels) -> int:
    """The label mask of a set of labels: label l is bit l."""
    return sum(1 << l for l in labels)


def _label_set(mask: int) -> frozenset[int]:
    """The labels of a mask, added to the set in increasing order, so that
    the set's iteration order depends on its labels alone."""
    return frozenset(compress(count(), map("1".__eq__, bin(mask)[:1:-1])))


class LabeledVertex:
    """A vertex of P or Q, as its point and its binding labels.

    ``mask``, label l as bit l, is the only form in which a vertex keeps
    its labels, and every label lookup of the package is keyed by it;
    ``labels`` decodes it on each read, in increasing label order.
    ``LabeledVertex(point, labels)`` keeps the point and the labels' mask.
    The vertex walk makes its vertices with ``_from_integers``, and those
    build ``point`` on first read. Vertices compare and hash as (point,
    mask).
    """

    __slots__ = ("mask", "_point", "_integers")

    def __init__(self, point: tuple[Rational, ...], labels: frozenset[int]):
        self.mask = _mask(labels)
        self._point = point
        self._integers = None

    @classmethod
    def _from_integers(
        cls, key: tuple[int, ...], den: int, num: int, pay_den: int, mask: int
    ) -> "LabeledVertex":
        """The vertex (key / den, num / pay_den) with the label mask ``mask``;
        no rational is built yet."""
        v = cls.__new__(cls)
        v.mask = mask
        v._point = None
        v._integers = (key, den, num, pay_den)
        return v

    @property
    def labels(self) -> frozenset[int]:
        return _label_set(self.mask)

    @property
    def point(self) -> tuple[Rational, ...]:
        if self._point is None:
            key, den, num, pay_den = self._integers
            self._point = tuple(rat(v, den) for v in key) + (rat(num, pay_den),)
        return self._point

    def __eq__(self, other):
        if not isinstance(other, LabeledVertex):
            return NotImplemented
        return self.mask == other.mask and self.point == other.point

    def __hash__(self):
        return hash((self.point, self.mask))

    def __repr__(self):
        return f"LabeledVertex(point={self.point!r}, labels={self.labels!r})"


def _ratio_test(dic: list[list[int]], col: int) -> list[int]:
    """Rows that limit the variable of column ``col`` entering; several on a
    tie."""
    best: list[int] = []
    for r, row in enumerate(dic):
        a = row[col]
        if a <= 0:
            continue
        if not best:
            best.append(r)
            continue
        lead = dic[best[0]]
        # row[-1] / a against lead[-1] / lead[col], both denominators positive
        diff = row[-1] * lead[col] - lead[-1] * a
        if diff < 0:
            best = [r]
        elif diff == 0:
            best.append(r)
    return best


def _feasible_bases(mat: list[list[int]], steps: list | None = None):
    """Every feasible basis of {z >= 0 : mat z + s = 1, s >= 0}.

    ``mat`` is k x d with positive entries, so the polytope is bounded and
    the origin (all slacks basic) is a simple vertex. Variables 0..d-1 are
    z and d..d+k-1 the slacks. Yields the walk's own state for each basis,
    (basis, cobasis, dic, det), to be read and not changed: ``basis[r]`` is
    the variable of dictionary row r, ``cobasis[c]`` that of column c, and
    the basic variable of row r has the value dic[r][-1] / det, where the
    integer det > 0 is |det| of the basis's columns of [mat | I]. The
    entering variables are tried in dictionary order, column by column. A
    tie in the ratio test branches to every tied row, so degenerate vertices
    are reached through all of their bases. When ``steps`` is a list, the
    walk appends to it, for each basis in the order yielded, the basis's
    mask followed by each ratio-test step out of that basis as a pair: the
    variable entering, then the variable leaving.
    """
    k, d = len(mat), len(mat[0])
    mask = ((1 << k) - 1) << d
    seen = {mask}
    origin = (list(range(d, d + k)), list(range(d)), [row + [1] for row in mat], 1)
    stack = [(origin, None, None, mask)]
    while stack:
        state, r, col, mask = stack.pop()
        if r is not None:  # pivot the parent's dictionary into this basis
            basis, cobasis, dic, det = state
            nxt, co = basis.copy(), cobasis.copy()
            nxt[r], co[col] = cobasis[col], basis[r]
            state = (nxt, co, _pivot(dic, r, col, det), dic[r][col])
        yield state
        basis, cobasis, dic, det = state
        out = [mask]
        for col, enter in enumerate(cobasis):
            for r in _ratio_test(dic, col):
                leave = basis[r]
                out += enter, leave
                nxt = mask ^ 1 << enter ^ 1 << leave
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((state, r, col, nxt))
        if steps is not None:
            steps.append(out)


def _point_order(a: tuple, b: tuple) -> int:
    """Negative when the strategy a[0] / a[1] comes before b[0] / b[1], for
    integer keys a[0], b[0] of sums a[1], b[1] > 0: compared at the first
    coordinate where they differ, by cross-multiplication."""
    sa, sb = a[1], b[1]
    for x, y in zip(a[0], b[0]):
        diff = x * sb - y * sa
        if diff:
            return diff
    return 0


def _vertex_graph(payoffs: IntegerPayoffs, which: str) -> "VertexGraph":
    """The vertices of P (which="P") or Q, each with its complete
    binding-label mask, sorted by point, and the steps of the walk.

    Walks the feasible bases of the normalised polytope (P' over x for "P",
    Q' over y for "Q"; see the module docstring), shifting the game's
    payoffs as ``payoffs`` clears them, and maps each non-zero vertex z back
    to the point (z / sum(z), best-reply payoff), read off the integer
    dictionary and built on first read. Its labels are the cobasic
    variables plus every basic variable at zero, so extra bindings on
    degenerate inputs are reported faithfully; ``labels[v]`` is the label
    of variable v, and its bit is the variable's term of the mask.
    """
    m, n = len(payoffs.a), len(payoffs.bt)
    if which == "P":
        ints, scale = payoffs.bt, payoffs.b_scale  # n rows of B^T, over x
        labels = tuple(range(1, m + n + 1))  # x_1..x_m, then column slacks
    else:
        ints, scale = payoffs.a, payoffs.a_scale  # m rows, over y
        labels = tuple(range(m + 1, m + n + 1)) + tuple(range(1, m + 1))
    shift = 1 - min(map(min, ints))  # the least entry becomes 1
    mat = [[v + shift for v in row] for row in ints]
    d = len(mat[0])
    bits = [1 << l for l in labels]  # the label bit of each variable
    steps: list[list[int]] = []
    # key -> (key, sum(key), vertex, number of the vertex's first basis)
    found: dict[tuple[int, ...], tuple] = {}
    for number, (basis, cobasis, dic, det) in enumerate(_feasible_bases(mat, steps)):
        z = [0] * d
        tight = []  # the basic variables at zero
        for var, row in zip(basis, dic):
            value = row[-1]
            if not value:
                tight.append(var)
            elif var < d:
                z[var] = value
        total = sum(z)
        if total == 0:
            continue  # the origin: no strategy
        # the vertex's direction as a primitive integer vector: the bases of
        # a degenerate vertex all give the same key
        common = math.gcd(*z)
        key = tuple(z) if common == 1 else tuple(v // common for v in z)
        if tight and key in found:
            # a vertex with more zeros than cobasic variables: other bases
            # may share it, and the first one found stands for them all.
            # When every basic variable is positive, no other basis has it.
            continue
        # its labels: the cobasic variables, plus the basic variables at zero
        mask = sum(map(bits.__getitem__, cobasis + tight))
        # some row of mat is tight at z / det, so the best-reply payoff of
        # the strategy z / total is (det - shift * total) / (scale * total)
        vertex = LabeledVertex._from_integers(
            key, total // common, det - shift * total, scale * total, mask
        )
        found[key] = (key, total // common, vertex, number)
    # distinct keys give distinct strategies, so no two compare equal
    ordered = sorted(found.values(), key=cmp_to_key(_point_order))
    return VertexGraph(
        tuple(t[2] for t in ordered),
        steps,
        tuple(t[3] for t in ordered),
        labels,
        payoffs,
    )


def enumerate_vertices(g: BimatrixGame, which: str) -> tuple[LabeledVertex, ...]:
    """All vertices of P (which="P") or Q (which="Q"), each with its complete
    binding-label set, sorted by point: the vertices of the walk (see
    _vertex_graph)."""
    if which not in ("P", "Q"):
        raise ValueError("which must be 'P' or 'Q'")
    return _vertex_graph(IntegerPayoffs.of(g), which).vertices


@dataclass(frozen=True)
class VertexGraph:
    """The vertices of P or Q, sorted by point, with the steps of the walk
    that found them.

    ``require_nondegenerate`` returns one per side of a non-degenerate game,
    and every method reads vertices, edges and label masks from these. The
    nodes of the graph are the V vertices and, as node V, the origin of the
    normalised polytope, which carries the x labels on P and the y labels on
    Q. In a non-degenerate game each node is one basis of the walk,
    ``steps[bases[k]]`` for vertex k and ``steps[0]`` for the origin, and
    each step of the walk out of that basis is one edge, keyed by the label
    of the variable entering: the label the step drops. ``payoffs`` is the
    game's ``IntegerPayoffs`` the walk shifted, one object shared by the two
    graphs of a call. The lookups are built on first use and go with the
    graph: nothing is cached between calls.
    """

    vertices: tuple[LabeledVertex, ...]
    steps: list[list[int]] = field(compare=False, repr=False)
    bases: tuple[int, ...] = field(compare=False, repr=False)
    labels: tuple[int, ...] = field(compare=False, repr=False)  # of each variable
    payoffs: IntegerPayoffs = field(compare=False, repr=False)

    @property
    def full(self) -> int:
        """The mask of every label, 1..m+n."""
        return _mask(self.labels)

    @cached_property
    def at(self) -> dict[int, int]:
        """The index of each vertex, keyed by its label mask."""
        return {v.mask: k for k, v in enumerate(self.vertices)}

    @cached_property
    def _node(self) -> dict[int, int]:
        """The node of each basis the vertices were read from, by mask."""
        steps = self.steps
        node = {steps[n][0]: k for k, n in enumerate(self.bases)}
        node[steps[0][0]] = len(self.vertices)
        return node

    def edges_of(self, k: int):
        """(label dropped, node reached) for each edge of node k; node V is
        the origin, and a step to it is a ray of P or Q."""
        it = iter(self.steps[0 if k == len(self.vertices) else self.bases[k]])
        mask = next(it)
        node, labels = self._node, self.labels
        for enter, leave in zip(it, it):
            yield labels[enter], node[mask ^ 1 << enter ^ 1 << leave]

    @cached_property
    def _near(self) -> dict[int, dict[int, int]]:
        return {}

    def near(self, k: int) -> dict[int, int]:
        """The node reached from node k by dropping each of its labels, read
        off the walk's steps on the first call for node k."""
        got = self._near.get(k)
        if got is None:
            got = self._near[k] = dict(self.edges_of(k))
        return got

    def neighbour(self, k: int, drop: int) -> int | None:
        """The vertex reached from node k by dropping label ``drop``; None on
        a ray."""
        j = self.near(k)[drop]
        return None if j == len(self.vertices) else j


def require_nondegenerate(g: BimatrixGame) -> tuple[VertexGraph, VertexGraph]:
    """The vertex graphs of P and Q, once no P-vertex exceeds m labels and no
    Q-vertex exceeds n; DegenerateGame, with the offending vertex attached,
    otherwise."""
    payoffs = IntegerPayoffs.of(g)
    graphs = []
    for which, bound in (("P", g.m), ("Q", g.n)):
        graph = _vertex_graph(payoffs, which)
        for v in graph.vertices:
            if v.mask.bit_count() != bound:
                pt = "(" + ", ".join(str(x) for x in v.point) + ")"
                raise DegenerateGame(
                    f"vertex {pt} carries labels {sorted(v.labels)}", witness=v
                )
        graphs.append(graph)
    return graphs[0], graphs[1]


def check_nondegenerate(
    g: BimatrixGame,
) -> tuple[bool, LabeledVertex | None]:
    """True when no P-vertex exceeds m labels and no Q-vertex exceeds n.

    On failure the offending vertex is returned as witness.
    """
    try:
        require_nondegenerate(g)
    except DegenerateGame as exc:
        return False, exc.witness
    return True, None


def _equilibrium(
    payoffs: IntegerPayoffs,
    vp: LabeledVertex,
    vq: LabeledVertex,
    source_xi: Rational | None = None,
) -> EquilibriumPoint:
    """The equilibrium at the P vertex vp and the Q vertex vq of a walk,
    checked; InternalInvariantError if the pair is not one.

    A walk vertex keeps its strategy as a key of gcd 1 over den = sum(key),
    so the keys are exactly the integers ``clear_denominators`` would derive
    from the strategies: the strategy pair is validated, and the Nash test
    run, on them, as ``is_nash`` would after clearing. The payoffs are the
    vertices' best-reply payoffs, which at an equilibrium are the realized
    ones. Only the two vertices' points are built as rationals.
    """
    x, x_den = vp._integers[:2]
    y, y_den = vq._integers[:2]
    v, w = vp.point, vq.point
    m, n = len(x), len(y)
    s = MixedStrategyPair._of_integers(v[:m], w[:n], x, x_den, y, y_den)
    if not _integer_nash_test(payoffs, x, x_den, y, y_den)[0]:
        raise InternalInvariantError("vertex pair failed the equilibrium check")
    return EquilibriumPoint(s, payoff1=w[n], payoff2=v[m], source_xi=source_xi)


def _labeled_equilibria(
    p: VertexGraph, q: VertexGraph
) -> dict[tuple[int, int], EquilibriumPoint]:
    """The equilibrium of each completely labeled pair (i, j), checked once:
    P vertex i and the Q vertex j labeled by the labels i lacks, found at
    the mask ``full ^ mask``. The pairs
    come in the order of the P vertices, which are sorted by point and each
    have at most one partner, so the equilibria come sorted by key."""
    full, at = p.full, q.at
    out = {}
    for i, vp in enumerate(p.vertices):
        j = at.get(full ^ vp.mask)
        if j is not None:
            out[i, j] = _equilibrium(p.payoffs, vp, q.vertices[j])
    return out


def equilibria_by_labels(g: BimatrixGame) -> tuple[EquilibriumPoint, ...]:
    """All Nash equilibria of a non-degenerate game, via label covering: a P
    vertex and a Q vertex whose label sets cover 1..m+n."""
    return tuple(_labeled_equilibria(*require_nondegenerate(g)).values())
