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

The walk and the labels are apart. ``_walk`` reads each vertex once, with
no side's labels: its integers, and ``zeros``, the mask of its variables
at zero, variable v as bit v: the cobasic variables, plus the basic
variables at zero. P' is simple exactly when every vertex has d variables
at zero, that is when no feasible basis has a basic variable at zero, as
every basis of a vertex with more zeros has one (the lrs argument; Avis,
Rosenberg, Savani & von Stengel 2010). So the non-degeneracy check makes
the zero test on each basis's right-hand side inside the walk, and reads
out only a basis that has a zero: on a non-degenerate game it reads out
no vertex. ``_checked`` is the one place that decides: it counts the bits
of each record's ``zeros`` and raises on the first offender by point,
built from that record alone. ``_label_mask`` labels a vertex for its
side by shifts, in one place, for ``_graph`` and the check's witness: on
P variable v carries label v + 1, so the label mask is ``zeros << 1``; on
Q the n bits of y carry the labels m+1..m+n and the m slack bits the
labels 1..m, so the two parts of ``zeros`` trade places. The labels are
kept only as that one integer mask, label l as bit l; ``_label_set``
decodes a mask into a frozenset in increasing label order. Every lookup
by label set is a lookup by mask: ``VertexGraph.at`` is keyed by mask,
and a P vertex's partner is the Q vertex at ``full ^ mask``.

Vertices stay in integers until a caller reads a rational. Each keeps its
key, the key's sum (the denominator of the strategy) and the payoff's
numerator and denominator, and builds ``point`` on first read. They are
sorted by cross-multiplication: key a comes before key b when, at the first
i where a_i * sum(b) != b_i * sum(a), a_i * sum(b) < b_i * sum(a). That is
the order of their strategies a / sum(a), so of their points. The
non-degeneracy check reads only the records of the offending bases, so on
a non-degenerate game it builds no key, no record, no vertex, no rational
and no label set, and sorts nothing. Past the walk an equilibrium is a
pair of vertices: ``_equilibrium`` validates it and runs the Nash test on
the two keys, which are exactly the integers ``is_nash`` would clear the
strategies to, and builds only the two points it reports.
``_labeled_equilibria`` is the one readout of every completely labeled
pair, for ``labels``, ``reachability`` and ``gprime``.

The walk pivots on pop: its stack keeps, for each basis found but not yet
visited, the parent's dictionary and the pivot's row and column, so
siblings share one dictionary and a dictionary lives only while a child of
it waits. It hands each basis over as its own state (basis, cobasis,
dictionary, det) and tries the entering variables in dictionary order. A
basis is known by its mask, the bits of its variables. The walk tests each
edge once. When a basis whose basic variables are all positive steps to a
basis not yet visited, entering e and leaving l, the far basis settles the
reverse step, entering l and leaving e, without a ratio test: raising l
there retraces the edge, its other basic variables are basic and positive
at the near end, so they leave only past it, and the test would pick e's
row alone. A basis whose steps are all settled has no unseen neighbour, so
it is no parent, and it pivots only the entering column and the
right-hand side, the one column a caller reads. A basis with a basic
variable at zero settles nothing, so its steps are tested from both ends.
The walk records every step out of each basis, and in a non-degenerate
game, where each basis is one vertex and each step is one edge, that record
is the vertex graph: ``VertexGraph`` reads it node by node and finds the
node a step reaches by its label mask, in ``at``. Its nodes are the
vertices and its ``origin``, the walk's first basis, which is a
``LabeledVertex`` with no point: the origin is not a strategy.

A symmetric game, A = B^T, has one polytope (Nash 1951; von Stengel 2002,
section 3): P' and Q' have the same rows, so their walks pivot the same
dictionaries through the same bases and record the same vertices, zeros
and steps; only the labels of the variables differ. So
``require_nondegenerate`` walks P' alone and labels that one walk for
both sides. It tests A = B^T on the cleared integers, so exactly.
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
    vertex. Variables 0..d-1 are z and d..d+k-1 the slacks. Yields the
    walk's own state for each basis, (basis, cobasis, dic, det), to be read
    and not changed: ``basis[r]`` is the variable of dictionary row r,
    ``cobasis[c]`` that of column c, and the basic variable of row r has the
    value dic[r][-1] / det, where the integer det > 0 is |det| of the
    basis's columns of [mat | I]. The entering variables are tried in
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
    basis is yielded with rows of those two entries. At a basis with a
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
        yield state
        basis, cobasis, dic, det = state
        positive = all(row[-1] for row in dic)
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
    # no caller compares two equal points: the vertices of a graph have
    # distinct keys, and the sweep orders equilibria of distinct P vertices
    return 0  # pragma: no cover


def _walk(
    payoffs: IntegerPayoffs, which: str, *, offenders_only: bool = False
) -> tuple[list, list[list[int]]]:
    """The vertices of P' (which="P") or Q' as the walk reads them, sorted
    by point, with no side's labels, and the steps of the walk.

    Walks the feasible bases of the normalised polytope (P' over x for "P",
    Q' over y for "Q"; see the module docstring). Its origin's dictionary
    has one row per row X_j of X = B^T or A, read off ``payoffs``:
    s_j * (X_j + shift) with the right-hand side s_j, where s_j is the least
    denominator of X_j and shift = 1 - floor(min X). Each non-zero vertex z
    is one record (integers, zeros, number). ``integers`` is (key, den, num,
    pay_den): the point (key / den, num / pay_den), with the best-reply
    payoff (det - shift * sum(z)) / sum(z), read off the integer dictionary.
    ``zeros`` has bit v set for each variable v at zero: the cobasic
    variables plus every basic variable at zero, so extra zeros on
    degenerate inputs are kept. ``number`` is the vertex's first basis. The
    steps come in the records' order, and last those of the origin, where
    z = 0, which is no record.

    With ``offenders_only`` the walk reads out only the bases with a basic
    variable at zero, so its records are the vertices with more than d
    variables at zero, each still read at its first basis: every basis of
    such a vertex has a basic variable at zero, and a basis whose basic
    variables are all positive is the one basis of a vertex with d zeros.
    The non-degeneracy check reads no other record.
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
    bits = [1 << v for v in range(d + len(ints))]  # the bit of each variable
    steps: list[list[int]] = []
    found: dict[tuple[int, ...], tuple] = {}  # key -> the vertex's record
    for number, (basis, cobasis, dic, det) in enumerate(_feasible_bases(start, steps)):
        if offenders_only and all(row[-1] for row in dic):
            continue  # its vertex has d variables at zero
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
        # some row X_j + shift <= 1 is tight at z / det, so the best-reply
        # payoff of the strategy z / total is (det - shift * total) / total
        integers = (key, total // common, det - shift * total, total)
        found[key] = (integers, sum(map(bits.__getitem__, cobasis + tight)), number)
    # distinct keys give distinct strategies, so no two compare equal
    by_point = cmp_to_key(_point_order)
    records = sorted(found.values(), key=lambda record: by_point(record[0]))
    # the origin's basis is the walk's first
    return records, [steps[record[2]] for record in records] + [steps[0]]


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


def _graph(walk: tuple, payoffs: IntegerPayoffs, which: str) -> "VertexGraph":
    """The graph of P (which="P") or Q: the records of a walk (see _walk)
    labelled for that side by ``_label_mask``, and its steps. The origin,
    where z = 0, is the graph's ``origin``: a node with no point, labeled
    by the d variables of z.
    """
    records, steps = walk
    m, n = len(payoffs.a), len(payoffs.bt)
    if which == "P":
        labels = tuple(range(1, m + n + 1))  # of x_1..x_m, then the slacks
    else:
        labels = tuple(range(m + 1, m + n + 1)) + tuple(range(1, m + 1))
    masks = [_label_mask(zeros, m, n, which) for _, zeros, _ in records]
    return VertexGraph(
        tuple(map(LabeledVertex._from_integers, [r[0] for r in records], masks)),
        LabeledVertex(None, frozenset(labels[: m if which == "P" else n])),
        steps,
        labels,
        payoffs,
    )


def enumerate_vertices(g: BimatrixGame, which: str) -> tuple[LabeledVertex, ...]:
    """All vertices of P (which="P") or Q (which="Q"), each with its complete
    binding-label set, sorted by point: the walk's vertices, labelled for
    that side (see _walk and _graph)."""
    if which not in ("P", "Q"):
        raise ValueError("which must be 'P' or 'Q'")
    payoffs = IntegerPayoffs.of(g)
    return _graph(_walk(payoffs, which), payoffs, which).vertices


class VertexGraph(Record):
    """The vertices of P or Q, sorted by point, with the steps of the walk
    that found them.

    ``require_nondegenerate`` returns one per side of a non-degenerate game,
    and every method reads vertices, edges and label masks from these. The
    nodes of the graph are the V vertices and ``origin``, node V
    (``origin_index``): the origin of the normalised polytope, a
    ``LabeledVertex`` with no point that carries the x labels 1..m on P and
    the y labels m+1..m+n on Q. ``node(k)`` is node k of either kind. In a
    non-degenerate game each node is one basis of the walk, whose cobasis
    carries the node's labels, and ``steps[k]`` holds the walk's steps out
    of node k's basis: each is one edge, keyed by the label of the variable
    entering, the label the step drops, and leads to the node whose mask
    lacks that label and has the label of the variable leaving. ``payoffs``
    is the game's ``IntegerPayoffs`` the walk shifted, one object shared by
    the two graphs of a call. ``at``, the index of each node keyed by its
    label mask, is built with the graph, and ``near`` keeps each node's
    edges once read: both go with the graph, and nothing is cached between
    calls. A graph is built only by a method that reads one; the check
    reads the walk alone.

    Its readers use the interface in two tiers. The sweep, ``lh_run`` and
    the Lemke-Howson paths read a graph node by node, through ``node(k)``,
    ``near(k)``, ``origin_index``, ``labels``, ``full`` and ``payoffs``
    alone: they reach every node, the origin included, through ``node(k)``,
    never count the nodes or iterate over them, and their outputs do not
    depend on the numbering, so a graph that numbers its nodes as it
    discovers them serves them as well. The label method and
    ``reachability`` (through ``_labeled_equilibria``) and G'
    (``gprime_components``) also read ``vertices``, ``origin``, ``at`` and
    ``edges_of``, and the order of their outputs is the vertices' point
    order, as is the order in which the check meets a degenerate game's
    witness.
    """

    vertices: tuple[LabeledVertex, ...]
    origin: LabeledVertex
    steps: list[list[int]]
    labels: tuple[int, ...]  # of each variable
    payoffs: IntegerPayoffs
    _hidden = ("origin", "steps", "labels", "payoffs")

    def __post_init__(self):
        # origin_index is the origin's node number, V: a step to it is a
        # ray of P or Q; full is the mask of every label, 1..m+n; node(k)
        # is vertex k, or the origin when k is V, a lookup in one tuple; at
        # is the index of each node by its label mask, the origin as node
        # V: each vertex has a positive coordinate, so lacks one of the
        # origin's labels
        nodes = (*self.vertices, self.origin)
        self.__dict__.update(
            origin_index=len(self.vertices),
            full=_mask(self.labels),
            _near={},
            node=nodes.__getitem__,
            at={v.mask: k for k, v in enumerate(nodes)},
        )

    def edges_of(self, k: int):
        """(label dropped, node reached) for each edge of node k; node V is
        the origin, and a step to it is a ray of P or Q."""
        it = iter(self.steps[k])
        mask, at, labels = self.node(k).mask, self.at, self.labels
        for enter, leave in zip(it, it):
            drop = labels[enter]
            yield drop, at[mask ^ 1 << drop ^ 1 << labels[leave]]

    def near(self, k: int) -> dict[int, int]:
        """The node reached from node k by dropping each of its labels, read
        off the walk's steps on the first call for node k."""
        got = self._near.get(k)
        if got is None:
            got = self._near[k] = dict(self.edges_of(k))
        return got


def _checked(walk: tuple, payoffs: IntegerPayoffs, which: str) -> tuple:
    """The walk of P (which="P") or Q, once each of its vertices has d
    variables at zero, d = m on P and n on Q; DegenerateGame otherwise, on
    the first vertex by point that has more, built from its record and
    attached."""
    m, n = len(payoffs.a), len(payoffs.bt)
    d = m if which == "P" else n
    for integers, zeros, _ in walk[0]:
        if zeros.bit_count() != d:
            v = LabeledVertex._from_integers(integers, _label_mask(zeros, m, n, which))
            pt = "(" + ", ".join(str(x) for x in v.point) + ")"
            raise DegenerateGame(
                f"vertex {pt} carries labels {sorted(v.labels)}", witness=v
            )
    return walk


def _walks(
    payoffs: IntegerPayoffs, *, offenders_only: bool = False
) -> tuple[tuple, tuple]:
    """The walks of P' and Q', each checked. When the cleared payoffs give
    A = B^T exactly, P' is walked alone and its walk serves Q too (see the
    module docstring): its vertices have the zero counts Q's check needs
    when they pass P's. With ``offenders_only`` each walk records only the
    vertices with too many zeros (see _walk): enough for the check, which
    then finds the same witness, and for no graph."""
    p = _checked(_walk(payoffs, "P", offenders_only=offenders_only), payoffs, "P")
    if payoffs.a == payoffs.bt and payoffs.a_scale == payoffs.b_scale:
        return p, p
    q = _walk(payoffs, "Q", offenders_only=offenders_only)
    return p, _checked(q, payoffs, "Q")


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
    basis's right-hand side, inside the walks: a vertex has too many labels
    exactly when its bases have a basic variable at zero, so only such a
    basis is read out, and a non-degenerate game reads out no vertex, sorts
    nothing and builds no ``LabeledVertex``. The witness is built from its
    record alone.
    """
    try:
        _walks(IntegerPayoffs.of(g), offenders_only=True)
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
    the mask ``full ^ mask``. That mask is never Q's origin's, as only P's
    origin carries all of 1..m. The pairs come in the order of the P
    vertices, which are sorted by point and each have at most one partner,
    so the equilibria come sorted by key."""
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
