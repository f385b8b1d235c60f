"""Best-reply polyhedra P and Q, exact vertex enumeration, label-based oracle.

Labels follow the shared 1..m+n convention: in P (over (x, pi2)) label i <= m
marks x_i = 0 and label m+j marks column j being a best reply; in Q (over
(y, pi1)) label i <= m marks row i being a best reply and label m+j marks
y_j = 0. A strategy pair is a Nash equilibrium exactly when the two vertex
label sets cover all of 1..m+n.

Vertices are found on the normalised polytopes P' = {x >= 0 : (B^T + shift)
x <= 1} and Q' = {y >= 0 : (A + shift) y <= 1}, where the integer shift
lifts the least payoff into [1, 2). Adding a constant keeps every best
reply, so each non-zero vertex of P' is a vertex of P with the same labels,
after scaling x onto the simplex. ``require_nondegenerate`` clears A and B^T
once, into one ``IntegerPayoffs``: its walks read it, and the graphs carry
it to every equilibrium check of the call. Each walk clears the rows one at
a time: row j, X_j + shift <= 1 for X = B^T or A, is multiplied by s_j, the
least denominator of X_j, so the origin's dictionary is the integer rows
s_j * (X_j + shift) with the right-hand side s_j. A positive row factor
changes neither the polytope nor any ratio test, and since a Bareiss entry
is a minor of that dictionary, its width is the sum of the widths of its
rows: no row carries the denominators of the others, and an integer game,
where every s_j is 1, walks the integer payoffs plus shift. The walk starts
at the origin, a simple vertex, and follows ratio-test pivots through every
feasible basis, in the manner of lrs (Avis & Fukuda 1992; Avis, Rosenberg,
Savani & von Stengel 2010). As in lrs, the walk keeps a dictionary: the
integer columns of the d cobasic variables and the right-hand side, all
scaled by the basis determinant det (Bareiss division keeps them integral).
The k basic columns always read det * e_r, so they are not stored: a pivot
turns the leaving variable's column into det in the pivot row and minus the
entering column elsewhere. That pivot is ``linalg._pivot``, the one the
package's solves and ranks also run.

Each vertex is read off the integer dictionary. A basis of determinant det
puts P' or Q' at z = r / det, where the integer vector r holds the
right-hand side on the basic z variables and 0 elsewhere. At a non-zero
vertex some row X_j + shift <= 1 is tight, so the best-reply payoff of the
strategy z / sum(z) is (det - shift * S) / S with S = sum(r): one rational,
with no dot product, whatever the rows' factors s_j. The bases of a
degenerate vertex are merged on an integer key, the primitive vector
r / gcd(r) (r itself when the gcd is 1), so a repeated basis costs no
rational arithmetic. A basis whose basic variables are all positive is the
only basis of its vertex, so only a basis with a basic variable at zero
looks its key up among the vertices found before it.

The walk and the labels are apart, and a vertex is read out only where an
output reads it. P' is simple exactly when every vertex has d variables at
zero, that is when no feasible basis has a basic variable at zero, as
every basis of a vertex with more zeros has one (the lrs argument; Avis,
Rosenberg, Savani & von Stengel 2010). ``_feasible_bases`` makes that zero
test on each basis's right-hand side and hands it over with the basis.
``_walk`` keeps, for each basis that passes, a node: its basis mask, a
map from the mask to the node's number, in walk order, and a record of the
basis's variables, right-hand side and det, with no side's labels, until
the node is read out. It reads out only a basis that fails, at the first
basis of its vertex: the vertex's integers, and ``zeros``, the mask of its
variables at zero, variable v as bit v: the cobasic variables, plus the
basic variables at zero. ``_checked`` is the
one place that decides: it raises on the least of those offenders by
point, built from its record alone, so on a non-degenerate game the check
reads out no vertex. ``_label_mask`` labels a vertex for its side by
shifts, in one place: on P variable v carries label v + 1, so the label
mask is ``zeros << 1``; on Q the n bits of y carry the labels m+1..m+n and
the m slack bits the labels 1..m, so the two parts of ``zeros`` trade
places. A node's variables at zero are its cobasis, so its label mask
follows from its basis's mask alone. The labels are kept only as that one
integer mask, label l as bit l; ``_label_set`` decodes a mask into a
frozenset in increasing label order. Every lookup by label set is a
lookup by mask: a P node lacks the labels of its basic variables, so its
partner is the Q node whose variables at zero are those basic variables
with the two parts of the mask swapped, read in Q's walk map by its basis
mask, and G' keys its own numbering of the nodes by label mask.

Vertices stay in integers until a caller reads a rational. A node is read
out on its first read, ``VertexGraph.node(k)``: its key, the key's sum (the
denominator of the strategy) and the payoff's numerator and denominator,
and its label mask; the vertex builds ``point`` on first read. Only an
output that names the point order sorts, by cross-multiplication: key a
comes before key b when, at the first i where a_i * sum(b) != b_i *
sum(a), a_i * sum(b) < b_i * sum(a). That is the order of their strategies
a / sum(a), so of their points. ``VertexGraph.vertices``, every vertex
sorted so, is built on its first read, by ``enumerate_vertices`` and G';
the label method sorts only its equilibria, and the check only its
offenders. Past the walk an equilibrium is a pair of vertices:
``_equilibrium`` validates it and runs the Nash test on the two keys,
which are exactly the integers ``is_nash`` would clear the strategies to,
and builds only the two points it reports. ``_labeled_equilibria`` is the
one readout of every completely labeled pair, for ``labels``,
``reachability`` and ``gprime``, and reads out only the pairs' vertices.

The walk pivots on pop: its stack keeps, for each basis found but not yet
visited, the parent's dictionary and the pivot's row and column, so
siblings share one dictionary and a dictionary lives only while a child of
it waits. It hands each basis over as its own state (basis, cobasis,
dictionary, det), with its right-hand side, mask and zero test, and tries
the entering variables in dictionary order. A basis is known by its mask,
the bits of its variables. The walk tests each edge once. When a basis
whose basic variables are all positive steps to a basis not yet visited,
entering e and leaving l, the far basis settles the reverse step, entering
l and leaving e, without a ratio test: raising l there retraces the edge,
its other basic variables are basic and positive at the near end, so they
leave only past it, and the test would pick e's row alone. A basis whose
steps are all settled has no unseen neighbour, so it is no parent, and it
pivots only the entering column and the right-hand side, the one column a
caller reads. A basis with a basic variable at zero settles nothing, so
its steps are tested from both ends. The walk records every step out of
each basis, and in a non-degenerate game, where each basis is one vertex
and each step is one edge, that record is the vertex graph:
``VertexGraph`` reads it node by node and finds the node a step reaches in
the walk's map, by the basis mask the step leads to. Its nodes are the
vertices and its ``origin``, the walk's first basis, node 0, which is a
``LabeledVertex`` with no point: the origin is not a strategy.

A symmetric game, A = B^T, has one polytope (Nash 1951; von Stengel 2002,
section 3): P' and Q' have the same rows, so their walks pivot the same
dictionaries through the same bases and record the same vertices, zeros
and steps; only the labels of the variables differ. So
``require_nondegenerate`` walks P' alone and labels that one walk for
both sides, whose graphs share its readout and its sort by point. It
tests A = B^T on the cleared integers, so exactly.
"""

from __future__ import annotations

import math
from functools import cmp_to_key

from .errors import DegenerateGame, InternalInvariantError
from .games import (
    BimatrixGame,
    EquilibriumPoint,
    IntegerPayoffs,
    MixedStrategyPair,
    _integer_nash_test,
)
from .linalg import Rational, _pivot, rat
from .record import Record


def _mask(labels) -> int:
    """The label mask of a set of labels: label l is bit l."""
    return sum(1 << l for l in labels)


def _label_set(mask: int) -> frozenset[int]:
    """The labels of a mask, added to the set in increasing order, so that
    the set's iteration order depends on its labels alone."""
    labels = []
    while mask:
        low = mask & -mask
        labels.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(labels)


_ZERO = rat(0)  # every zero coordinate of a vertex's point


class LabeledVertex:
    """A node of the graph of P or Q, as its point and its binding labels.

    ``mask``, label l as bit l, is the only form in which a node keeps its
    labels, and every label lookup of the package is keyed by it;
    ``labels`` decodes it on each read, in increasing label order.
    ``LabeledVertex(point, labels)`` keeps the point and the labels' mask.
    The vertex walk makes its vertices with ``_from_integers``, and those
    build ``point`` on first read. The origin of each graph is a
    ``LabeledVertex`` too, with no point: it is not a strategy, so its
    ``point`` is None. Nodes compare and hash as (point, mask).
    """

    __slots__ = ("mask", "_point", "_integers")

    def __init__(self, point: tuple[Rational, ...] | None, labels: frozenset[int]):
        self.mask = _mask(labels)
        self._point = point
        self._integers = None

    @classmethod
    def _from_integers(cls, integers: tuple, mask: int) -> "LabeledVertex":
        """The vertex (key / den, num / pay_den), from ``integers`` = (key,
        den, num, pay_den), with the label mask ``mask``; no rational is
        built yet."""
        v = cls.__new__(cls)
        v.mask = mask
        v._point = None
        v._integers = integers
        return v

    @property
    def labels(self) -> frozenset[int]:
        return _label_set(self.mask)

    @property
    def point(self) -> tuple[Rational, ...] | None:
        if self._point is None and self._integers is not None:
            key, den, num, pay_den = self._integers
            self._point = tuple(rat(v, den) if v else _ZERO for v in key) + (
                rat(num, pay_den) if num else _ZERO,
            )
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


def _feasible_bases(start: list[list[int]], steps: list):
    """Every feasible basis of {z >= 0 : mat z + s = rhs, s >= 0}, from
    ``start``, the origin's dictionary: the rows of [mat | rhs].

    ``mat`` is k x d with positive entries and ``rhs`` is positive, so the
    polytope is bounded and the origin (all slacks basic) is a simple
    vertex. Variables 0..d-1 are z and d..d+k-1 the slacks. Yields, for
    each basis, the walk's own state (basis, cobasis, dic, det), to be read
    and not changed, then its right-hand side ``rhs``, its mask (variable v
    as bit v, over the basic variables) and ``positive``, its zero test:
    ``basis[r]`` is the variable of dictionary row r, ``cobasis[c]`` that of
    column c, and the basic variable of row r has the value rhs[r] / det,
    where rhs[r] = dic[r][-1] and the integer det > 0 is |det| of the
    basis's columns of [mat | I]; ``positive`` is whether every basic
    variable is positive. The entering variables are tried in
    dictionary order, column by column. A tie in the ratio test branches to
    every tied row, so degenerate vertices are reached through all of their
    bases. The walk appends to ``steps``, for each basis in the order
    yielded, the steps out of that basis as one flat list of pairs: the
    variable entering, then the variable leaving.

    In a non-degenerate polytope each edge is ratio-tested once, from the
    end visited first. ``known`` maps each basis found to its *settled*
    steps, entering variable to leaving variable, until the basis is
    visited. When a basis B whose basic variables are all positive steps,
    e entering and l leaving, to a basis B' not yet visited, B' gets the
    settled step l entering, e leaving: raising l from B' retraces the edge
    back to B, where e is 0. Every other basic variable of B' is basic at B
    too, and positive there, so it reaches 0 only past B, at a ratio
    strictly above that of e's row, whose entry in l's column is det_B > 0.
    So the ratio test would pick e's row alone, even where the test from B
    tied. When B' is visited, it appends its settled steps in column order
    with the others and ratio-tests only its other columns, as it would
    without the rule, so the bases, their order, the steps and the
    branching on ties are unchanged. A settled step leads to a visited
    basis, so a basis whose d steps are all settled has no unseen neighbour
    and is never a parent: only its right-hand side is read, so ``_pivot``
    runs on the entering column and the right-hand side alone, and the
    basis's state holds rows of those two entries. At a basis with a
    basic variable at zero the argument fails, so its steps settle nothing,
    and each is ratio-tested from both ends.
    """
    k, d = len(start), len(start[0]) - 1
    mask = ((1 << k) - 1) << d
    # each basis found, by mask: its settled steps until visited, then None
    known: dict[int, dict[int, int] | None] = {mask: {}}
    origin = (list(range(d, d + k)), list(range(d)), start, 1)
    stack = [(origin, None, None, mask)]
    while stack:
        state, r, col, mask = stack.pop()
        settled, known[mask] = known[mask], None
        if r is not None:  # pivot the parent's dictionary into this basis
            basis, cobasis, dic, det = state
            nxt, co = basis.copy(), cobasis.copy()
            nxt[r], co[col] = cobasis[col], basis[r]
            if len(settled) == d:  # no parent: pivot [col, rhs] alone
                dic, col = [[row[col], row[-1]] for row in dic], 0
            state = (nxt, co, _pivot(dic, r, col, det), dic[r][col])
        basis, cobasis, dic, det = state
        rhs = [row[-1] for row in dic]
        positive = all(rhs)
        yield state, rhs, mask, positive
        out = []
        for col, enter in enumerate(cobasis):
            if enter in settled:
                out += enter, settled[enter]
                continue
            for r in _ratio_test(dic, col):
                leave = basis[r]
                out += enter, leave
                nxt = mask ^ 1 << enter ^ 1 << leave
                far = known.get(nxt, False)
                if far is False:
                    far = known[nxt] = {}
                    stack.append((state, r, col, nxt))
                if positive and far is not None:
                    far[leave] = enter
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
    # no caller compares two equal points: the vertices of a walk have
    # distinct keys, and the sweep orders equilibria of distinct P vertices
    return 0  # pragma: no cover


_by_point = cmp_to_key(_point_order)


def _integers(basis: list, rhs: list, det: int, d: int, shift: int) -> tuple:
    """(key, den, num, pay_den) of the non-zero vertex of a basis (see
    _walk): its point (key / den, num / pay_den), read off the basis's
    variables, right-hand side and det."""
    z = [0] * d
    for var, value in zip(basis, rhs):
        if var < d:
            z[var] = value
    total = sum(z)
    # the vertex's direction as a primitive integer vector: the bases of a
    # degenerate vertex all give the same key
    common = math.gcd(*z)
    key = tuple(z) if common == 1 else tuple(v // common for v in z)
    # some row X_j + shift <= 1 is tight at z / det, so the best-reply
    # payoff of the strategy z / total is (det - shift * total) / total
    return key, total // common, det - shift * total, total


class _Walk:
    """A walk of P' or Q' (see _walk): its ``masks``, ``index``, ``steps``,
    ``offenders``, ``shift`` and d, the number of z variables. It reads
    each node out once, on the first read by any graph labelled from it,
    and then drops the node's record; it sorts the nodes by point once: a
    symmetric game's two graphs share one walk."""

    __slots__ = (
        "masks", "index", "steps", "offenders", "shift", "d",
        "_records", "_read", "_order",
    )

    def __init__(self, masks, records, index, steps, offenders, shift, d):
        self.masks, self.index, self.steps = masks, index, steps
        self.offenders, self.shift, self.d = offenders, shift, d
        self._records: list[tuple | None] = records
        self._read: list[tuple | None] = [None] * len(masks)
        self._order: list[int] | None = None

    def integers(self, k: int) -> tuple:
        """The integers (see _integers) of node k's vertex, read on the
        first call for k."""
        got = self._read[k]
        if got is None:
            basis, rhs, det = self._records[k]
            self._records[k] = None  # read out: the integers stand for it
            got = self._read[k] = _integers(basis, rhs, det, self.d, self.shift)
        return got

    def order(self) -> list[int]:
        """The numbers of the nodes but the origin, node 0, sorted by the
        points of their vertices; sorted on the first call."""
        if self._order is None:
            rest = range(1, len(self.masks))
            self._order = sorted(rest, key=lambda k: _by_point(self.integers(k)))
        return self._order


def _walk(payoffs: IntegerPayoffs, which: str) -> _Walk:
    """The walk of the feasible bases of P' (which="P") or Q', with no
    side's labels: a node record for each basis whose basic variables are
    all positive, and the readout of each vertex with a basic variable at
    zero.

    Walks the normalised polytope (P' over x for "P", Q' over y for "Q";
    see the module docstring). Its origin's dictionary has one row per row
    X_j of X = B^T or A, read off ``payoffs``: s_j * (X_j + shift) with the
    right-hand side s_j, where s_j is the least denominator of X_j and
    shift = 1 - floor(min X). A basis with no basic variable at zero is
    the one basis of a vertex with d variables at zero, its cobasis; it is
    a node, numbered in walk order: the origin, the walk's first basis, is
    node 0. ``masks`` holds each node's basis mask and ``index`` maps the
    mask back to the node's number; the node's record is (basis, rhs,
    det), the basis's variables, right-hand side and det, as
    ``_feasible_bases`` hands them over, kept until ``_Walk.integers``
    reads the node out. Every basis of a vertex with more than d variables at zero has a
    basic variable at zero, and such a vertex is read out at its first
    basis only, as the record (integers, zeros): ``integers`` as
    ``_integers`` gives them, and ``zeros`` with bit v set for each
    variable v at zero, the cobasic variables plus the basic ones at zero;
    ``offenders`` lists those records. ``steps`` holds the steps out of
    every basis, in walk order, so in a walk with no offender, those of
    node k are ``steps[k]``.
    """
    if which == "P":
        ints, scale = payoffs.bt, payoffs.b_scale  # n rows of B^T, over x
    else:
        ints, scale = payoffs.a, payoffs.a_scale  # m rows of A, over y
    # X is ints / scale; X + shift has its least entry in [1, 2)
    shift = 1 - min(map(min, ints)) // scale
    start = []
    for row in ints:
        # row j is X_j + shift <= 1 times s_j, the least denominator of X_j
        common = math.gcd(scale, *row)
        if common > 1:
            row = [v // common for v in row]
        s = scale // common
        lift = s * shift
        start.append([v + lift for v in row] + [s])
    d = len(ints[0])
    every = (1 << d + len(ints)) - 1  # the bit of each variable
    steps: list[list[int]] = []
    masks: list[int] = []
    records: list[tuple | None] = []
    index: dict[int, int] = {}
    found: dict[tuple[int, ...], tuple] = {}  # key -> the offender's record
    for (basis, _, _, det), rhs, mask, positive in _feasible_bases(start, steps):
        if positive:
            index[mask] = len(masks)
            masks.append(mask)
            records.append((basis, rhs, det))
            continue
        # a vertex with more zeros than cobasic variables: other bases may
        # share it, and the first one found stands for them all
        integers = _integers(basis, rhs, det, d, shift)
        if integers[0] not in found:
            zeros = every ^ mask
            for var, value in zip(basis, rhs):
                if not value:
                    zeros |= 1 << var
            found[integers[0]] = (integers, zeros)
    return _Walk(masks, records, index, steps, list(found.values()), shift, d)


def _label_mask(zeros: int, m: int, n: int, which: str) -> int:
    """The label mask of a vertex of P (which="P") or Q of an m x n game
    whose variables at zero are the bits of ``zeros`` (see _walk), by
    shifts. On P the variable v carries label v + 1: x_i label i, and the
    slack of column j label m+j. On Q, y_j carries label m+j and the slack
    of row i label i, so the n bits of y move up by m + 1 and the m slack
    bits down by n - 1."""
    if which == "P":
        return zeros << 1
    return (zeros & (1 << n) - 1) << m + 1 | zeros >> n << 1


def _graph(walk: _Walk, payoffs: IntegerPayoffs, which: str) -> "VertexGraph":
    """The graph of P (which="P") or Q: a walk (see _walk) labelled for that
    side by ``_label_mask``. Its origin, where z = 0, is node 0: a node
    with no point, labeled by the d variables of z. No other node is read
    out yet."""
    m, n = len(payoffs.a), len(payoffs.bt)
    if which == "P":
        labels = tuple(range(1, m + n + 1))  # of x_1..x_m, then the slacks
    else:
        labels = tuple(range(m + 1, m + n + 1)) + tuple(range(1, m + 1))
    origin = LabeledVertex(None, frozenset(labels[: m if which == "P" else n]))
    graph = VertexGraph.__new__(VertexGraph)
    graph.__dict__.update(
        origin=origin,
        steps=walk.steps,
        labels=labels,
        payoffs=payoffs,
        origin_index=0,
        full=(1 << m + n + 1) - 2,  # labels 1..m+n
        _walk=walk,
        _shape=(m, n, which),
        _every=(1 << m + n) - 1,
        _built=[origin] + [None] * (len(walk.masks) - 1),
        _near={},
    )
    return graph


def enumerate_vertices(g: BimatrixGame, which: str) -> tuple[LabeledVertex, ...]:
    """All vertices of P (which="P") or Q (which="Q"), each with its complete
    binding-label set, sorted by point: the walk's vertices, labelled for
    that side (see _walk and _graph)."""
    if which not in ("P", "Q"):
        raise ValueError("which must be 'P' or 'Q'")
    payoffs = IntegerPayoffs.of(g)
    return _graph(_walk(payoffs, which), payoffs, which).vertices


class VertexGraph(Record):
    """The graph of P or Q, node by node, as the vertex walk found it.

    ``require_nondegenerate`` returns one per side of a non-degenerate game,
    and every method reads vertices, edges and label masks from these. The
    nodes are numbered in walk order, each one basis of the walk, whose
    cobasis carries the node's labels. Node 0 (``origin_index``) is the
    walk's first basis, ``origin``: the origin of the normalised polytope,
    a ``LabeledVertex`` with no point that carries the x labels 1..m on P
    and the y labels m+1..m+n on Q. ``node(k)`` is node k of either kind,
    built on its first read from the walk's record and the same object
    after that. ``steps[k]`` holds the walk's steps out of node k's basis:
    each is one edge, keyed by the label of the variable entering, the
    label the step drops. ``near(k)`` finds the node each step reaches in
    the walk's own map from basis mask to node, and keeps node k's edges
    once read. ``payoffs`` is the game's ``IntegerPayoffs`` the walk
    shifted, one object shared by the two graphs of a call. A graph is
    built only by a method that reads one, and nothing is cached between
    calls.

    Its readers use the interface in two tiers. The sweep, ``lh_run`` and
    the Lemke-Howson paths read a graph node by node, through ``node(k)``,
    ``near(k)``, ``origin_index``, ``labels``, ``full`` and ``payoffs``
    alone: they never count the nodes or iterate over them, and their
    outputs do not depend on the numbering. The label method and
    ``reachability`` pair the nodes of the two walks in
    ``_labeled_equilibria``, by basis mask, and read out only the pairs'
    vertices. G' (``gprime_components``) also reads ``vertices``,
    ``origin`` and ``steps``, and numbers the nodes by point itself.
    ``vertices``, the vertices sorted by point, is built on its first
    read, by G' and ``enumerate_vertices``; the graph prints and compares
    as it.
    """

    vertices: tuple[LabeledVertex, ...]
    origin: LabeledVertex
    steps: list[list[int]]
    labels: tuple[int, ...]  # of each variable
    payoffs: IntegerPayoffs
    _hidden = ("origin", "steps", "labels", "payoffs")

    def __getattr__(self, name):
        # reached only when ``name`` is not set: the vertices, read out and
        # sorted on first read; on the degenerate walk enumerate_vertices
        # labels, the offenders' records are vertices too
        if name != "vertices":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        d = self.__dict__
        walk = d["_walk"]
        found = [self.node(k) for k in walk.order()]
        if walk.offenders:
            m, n, which = d["_shape"]
            for integers, zeros in walk.offenders:
                mask = _label_mask(zeros, m, n, which)
                found.append(LabeledVertex._from_integers(integers, mask))
            found.sort(key=lambda v: _by_point(v._integers))
        d["vertices"] = vertices = tuple(found)
        return vertices

    def node(self, k: int) -> LabeledVertex:
        """Node k, read out of the walk's record on the first call for k."""
        v = self._built[k]
        if v is None:
            walk = self._walk
            # a node's variables at zero are its cobasis
            mask = _label_mask(self._every ^ walk.masks[k], *self._shape)
            v = self._built[k] = LabeledVertex._from_integers(walk.integers(k), mask)
        return v

    def near(self, k: int) -> dict[int, int]:
        """The node reached from node k by dropping each of its labels, read
        off the walk's steps on the first call for node k: a step to node 0
        is a ray of P or Q."""
        got = self._near.get(k)
        if got is None:
            it, walk, labels = iter(self.steps[k]), self._walk, self.labels
            mask, index = walk.masks[k], walk.index
            got = self._near[k] = {
                labels[enter]: index[mask ^ 1 << enter ^ 1 << leave]
                for enter, leave in zip(it, it)
            }
        return got


def _checked(walk: _Walk, payoffs: IntegerPayoffs, which: str) -> _Walk:
    """The walk of P (which="P") or Q, once no basis of it has a basic
    variable at zero, so that every vertex has d variables at zero, d = m
    on P and n on Q; DegenerateGame otherwise, on the first vertex by point
    that has more, built from its record and attached."""
    offenders = walk.offenders
    if offenders:
        m, n = len(payoffs.a), len(payoffs.bt)
        integers, zeros = min(offenders, key=lambda r: _by_point(r[0]))
        v = LabeledVertex._from_integers(integers, _label_mask(zeros, m, n, which))
        pt = "(" + ", ".join(str(x) for x in v.point) + ")"
        raise DegenerateGame(
            f"vertex {pt} carries labels {sorted(v.labels)}", witness=v
        )
    return walk


def _walks(payoffs: IntegerPayoffs) -> tuple[_Walk, _Walk]:
    """The walks of P' and Q', each checked. When the cleared payoffs give
    A = B^T exactly, P' is walked alone and its walk serves Q too (see the
    module docstring): it has no offender for Q's check when it has none
    for P's."""
    p = _checked(_walk(payoffs, "P"), payoffs, "P")
    if payoffs.a == payoffs.bt and payoffs.a_scale == payoffs.b_scale:
        return p, p
    return p, _checked(_walk(payoffs, "Q"), payoffs, "Q")


def require_nondegenerate(g: BimatrixGame) -> tuple[VertexGraph, VertexGraph]:
    """The vertex graphs of P and Q, once no P-vertex exceeds m labels and no
    Q-vertex exceeds n; DegenerateGame, with the offending vertex attached,
    otherwise."""
    payoffs = IntegerPayoffs.of(g)
    p, q = _walks(payoffs)
    return _graph(p, payoffs, "P"), _graph(q, payoffs, "Q")


def check_nondegenerate(
    g: BimatrixGame,
) -> tuple[bool, LabeledVertex | None]:
    """True when no P-vertex exceeds m labels and no Q-vertex exceeds n.

    On failure the offending vertex is returned as witness: the first by
    point with too many labels, P's before Q's. The check decides on each
    basis's zero test, inside the walks ``require_nondegenerate`` runs: a
    vertex has too many labels exactly when its bases have a basic
    variable at zero, so only such a basis is read out, and a
    non-degenerate game reads out no vertex, sorts nothing and builds no
    ``LabeledVertex``. The witness is built from its record alone.
    """
    try:
        _walks(IntegerPayoffs.of(g))
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
    """The equilibrium of each completely labeled pair (i, j) of node
    numbers, checked once: P vertex i and the Q node j labeled by the labels
    i lacks. Those are the labels of i's basic variables: x_i basic lacks
    label i and column j's slack label m+j, which on Q are carried by row
    i's slack and by y_j. So j is the Q node whose variables at zero are
    i's basic variables with the two parts of the mask swapped, found in
    Q's walk map by its basis mask. It is never Q's origin, as only P's
    origin, node 0, carries all of 1..m. Each P vertex has at most one
    partner, and the pairs come sorted by their P vertices' points, so the
    equilibria come sorted by key. Only the vertices of a pair are read
    out."""
    m, n, _ = p._shape
    masks, index = p._walk.masks, q._walk.index
    every, low = p._every, (1 << m) - 1
    pairs = []
    for i in range(1, len(masks)):
        basis = masks[i]
        j = index.get(every ^ (basis >> m | (basis & low) << n))
        if j is not None:
            pairs.append((i, j))
    pairs.sort(key=lambda pair: _by_point(p.node(pair[0])._integers))
    return {(i, j): _equilibrium(p.payoffs, p.node(i), q.node(j)) for i, j in pairs}


def equilibria_by_labels(g: BimatrixGame) -> tuple[EquilibriumPoint, ...]:
    """All Nash equilibria of a non-degenerate game, via label covering: a P
    vertex and a Q vertex whose label sets cover 1..m+n."""
    return tuple(_labeled_equilibria(*require_nondegenerate(g)).values())
