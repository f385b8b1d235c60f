"""Label-pivoting paths over the best-reply graphs, and the product graph.

Both walk the vertex graphs that ``require_nondegenerate`` returns, which
each public call builds once; nothing is cached. Each side has one more
node, the artificial one: the origin of the normalised polytope, carrying
the x labels 1..m on P and the y labels m+1..m+n on Q. It is node V, after
the V vertices, and its edges run to the pure strategies. Paths that drop
one label r from the artificial pair and chase the duplicate label
alternately over the two sides terminate at equilibria; the product graph
glues those paths over all r, and its components expose equilibria no such
path can reach.

Non-degeneracy, which every function here requires, makes each node one
basis of the vertex walk and each edge one of the walk's pivots. A path
steps from a node by dropping a label, which reads the pivot the walk
recorded for it, and G' takes every edge from that record. It also gives
each node a label set of its own, kept only as an integer mask (label l
is bit l): a path finds its duplicate label as the one bit two masks
share, and G' finds the partners of an edge on the other side by looking
up a mask, never by scanning the other graph. G' joins pairs (i, j) as
the integers i * (V_Q + 1) + j and builds no label set. Past the walk an
equilibrium is a pair of vertex indices: ``reachability`` and
``gprime_components`` take the completely labeled (P vertex, Q vertex)
pairs, each verified once on the vertices' integers, from
``polytopes._labeled_equilibria``, and ``reachability`` matches every path
terminal to one of those by its pair of indices. ``lh_run`` verifies its
single terminal itself. A path's node keeps its mask and vertex, and
decodes its labels (in increasing order) and reads its point only on use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, Stalled
from .games import BimatrixGame, EquilibriumPoint
from .polytopes import (
    LabeledVertex,
    VertexGraph,
    _equilibrium,
    _label_set,
    _labeled_equilibria,
    _mask,
    require_nondegenerate,
)


class GraphNode:
    """A node of a path: its label mask and its vertex, None for the
    artificial node. ``labels`` decodes the mask, in increasing label
    order, and ``point`` reads the vertex's (None on the artificial node),
    each on use. Nodes compare and hash as (mask, point)."""

    __slots__ = ("mask", "_vertex")

    def __init__(self, mask: int, vertex: LabeledVertex | None):
        self.mask = mask
        self._vertex = vertex

    @property
    def labels(self) -> frozenset[int]:
        return _label_set(self.mask)

    @property
    def point(self) -> tuple | None:
        return None if self._vertex is None else self._vertex.point

    @property
    def artificial(self) -> bool:
        return self._vertex is None

    def __eq__(self, other):
        if not isinstance(other, GraphNode):
            return NotImplemented
        return self.mask == other.mask and self.point == other.point

    def __hash__(self):
        return hash((self.mask, self.point))

    def __repr__(self):
        return f"GraphNode(labels={self.labels!r}, point={self.point!r})"


@dataclass(frozen=True)
class PathStep:
    node1: GraphNode
    node2: GraphNode
    pivoted: int | None  # None on the start pair


@dataclass(frozen=True)
class LHPath:
    missing: int
    steps: tuple[PathStep, ...]
    terminal: EquilibriumPoint | None
    artificial_loop: bool


def _artificial_masks(g: BimatrixGame) -> tuple[int, int]:
    """The label masks of the artificial node of P, labels 1..m, and of Q,
    labels m+1..m+n."""
    return _mask(range(1, g.m + 1)), _mask(range(g.m + 1, g.m + g.n + 1))


def _drop_label(vg: VertexGraph, k: int, drop: int) -> int:
    """The node reached from node k by dropping label ``drop``."""
    j = vg.near(k).get(drop)
    if j is None:
        raise InternalInvariantError(f"pivot on label {drop}: node {k} lacks it")
    return j


def _edges(vg: VertexGraph):
    """Each edge of vg once, as (a, b, the mask of the labels it keeps) with
    a < b."""
    for a, v in enumerate(vg.vertices):
        for l, b in vg.edges_of(a):
            if b > a:
                yield a, b, v.mask ^ 1 << l


def _walk(
    g: BimatrixGame, p: VertexGraph, q: VertexGraph, r: int
) -> tuple[tuple[PathStep, ...], tuple[int, int] | None]:
    """The steps of the path that drops label r, and its terminal pair of
    vertex indices; None when the path returns to the artificial pair."""
    full, graphs, art = p.full, (p, q), _artificial_masks(g)
    at = [len(p.vertices), len(q.vertices)]
    nodes = [GraphNode(art[0], None), GraphNode(art[1], None)]
    steps = [PathStep(nodes[0], nodes[1], None)]
    side, drop = (0 if r <= g.m else 1), r
    limit = (at[0] + 1) * (at[1] + 1) + 1
    for _ in range(limit):
        vg = graphs[side]
        k = at[side] = _drop_label(vg, at[side], drop)
        if k == len(vg.vertices):
            nodes[side] = GraphNode(art[side], None)
        else:
            v = vg.vertices[k]
            nodes[side] = GraphNode(v.mask, v)
        steps.append(PathStep(nodes[0], nodes[1], side + 1))
        if nodes[0].mask | nodes[1].mask == full:
            break
        dup = nodes[0].mask & nodes[1].mask
        if not (dup and not dup & (dup - 1)):
            raise InternalInvariantError(
                "path pair duplicates labels "
                f"{sorted(_label_set(dup))}, not exactly one"
            )
        drop = dup.bit_length() - 1
        side = 1 - side
    else:
        raise Stalled(f"no terminal pair within {limit} pivots")
    if nodes[0].artificial != nodes[1].artificial:
        # union = full with one artificial side forces the full start pair
        raise InternalInvariantError("path ended with exactly one artificial node")
    return tuple(steps), None if nodes[0].artificial else (at[0], at[1])


def lh_run(g: BimatrixGame, r: int) -> LHPath:
    """Follow the path that drops label r from the artificial pair.

    Raises DegenerateGame on a degenerate game.
    """
    if not 1 <= r <= g.m + g.n:
        raise ValueError(f"label {r} out of range")
    p, q = require_nondegenerate(g)
    steps, end = _walk(g, p, q, r)
    if end is None:
        return LHPath(r, steps, None, True)
    i, j = end
    eq = _equilibrium(p.payoffs, p.vertices[i], q.vertices[j])
    return LHPath(r, steps, eq, False)


@dataclass(frozen=True)
class ReachabilityReport:
    paths: tuple[LHPath, ...]  # one per label r = 1..m+n, in order
    reached: tuple[EquilibriumPoint, ...]
    unreached: tuple[EquilibriumPoint, ...]


def reachability(g: BimatrixGame) -> ReachabilityReport:
    """Run every label drop; report which equilibria no run terminates at.

    The equilibria are the completely labeled (P vertex, Q vertex) pairs,
    each checked once. Each path terminal is such a pair, so it is matched
    to its equilibrium by its pair of vertex indices rather than checked
    again, and the reached equilibria are those whose pair some path ends
    at.
    """
    p, q = require_nondegenerate(g)
    walks = [_walk(g, p, q, r) for r in range(1, g.m + g.n + 1)]
    eqs = _labeled_equilibria(p, q)
    paths = []
    for r, (steps, end) in enumerate(walks, start=1):
        if end is None:
            paths.append(LHPath(r, steps, None, True))
            continue
        eq = eqs.get(end)
        if eq is None:
            raise InternalInvariantError(
                "terminal pair is not a completely labeled pair"
            )
        paths.append(LHPath(r, steps, eq, False))
    hit = {end for _, end in walks}
    reached = tuple(e for pair, e in eqs.items() if pair in hit)
    unreached = tuple(e for pair, e in eqs.items() if pair not in hit)
    return ReachabilityReport(tuple(paths), reached, unreached)


@dataclass(frozen=True)
class GPrimeReport:
    """Connected components of the union of almost-completely-labeled edges.

    Pairs are (index into P's nodes, index into Q's nodes); the artificial
    node is index V on each side, after the V vertices, so the artificial
    pair is the greatest pair. The components are numbered 0..n_components-1
    in the order of their least pairs. Most are single pairs that no edge
    touches: ``components`` holds only those with two or more pairs, in that
    order, and ``component_of`` numbers any pair. ``equilibrium_pairs`` maps
    completely labeled non-artificial pairs to equilibria and their
    component number.
    """

    n_components: int
    components: tuple[frozenset[tuple[int, int]], ...]
    artificial_pair: tuple[int, int]
    artificial_component: int
    equilibrium_pairs: tuple[tuple[tuple[int, int], int, EquilibriumPoint], ...]

    def component_of(self, pair: tuple[int, int]) -> int:
        return _component_number(self.components, self.artificial_pair, pair)


def _component_number(
    components: tuple[frozenset[tuple[int, int]], ...],
    last: tuple[int, int],
    pair: tuple[int, int],
) -> int:
    """The number of pair's component among all components ordered by least
    pair, given the multi-pair ``components`` in that order and the greatest
    pair ``last``: the place of the component's least pair among all pairs,
    less the pairs before it that are not the least of their component."""
    i, j = pair
    if not (0 <= i <= last[0] and 0 <= j <= last[1]):
        raise KeyError(pair)
    lead = next((min(c) for c in components if pair in c), pair)
    skipped = sum(
        sum(x < lead for x in c) - 1 for c in components if min(c) < lead
    )
    return lead[0] * (last[1] + 1) + lead[1] - skipped


def gprime_components(g: BimatrixGame) -> GPrimeReport:
    """The components of G', over all pairs of a P node and a Q node.

    An edge (a, b) of P joins the pairs (a, j) and (b, j) that miss exactly
    one label, and likewise an edge of Q. Non-degeneracy gives every P
    node m labels and every Q node n labels, each set carried by one node.
    So if the edge keeps the labels S, its partners j are the Q nodes
    labeled (full - S) - {l}, one mask lookup for each l in full - S. Only
    the pairs these edges touch enter the union-find, each pair (i, j) as
    the integer i * (V_Q + 1) + j, whose order is that of the pairs; every
    other pair is a component of its own. The equilibrium pairs are the
    completely labeled (P vertex, Q vertex) pairs, each checked once.
    """
    p, q = require_nondegenerate(g)
    full = p.full
    art1, art2 = _artificial_masks(g)
    n1, n2 = len(p.vertices), len(q.vertices)
    at1 = p.at | {art1: n1}
    at2 = q.at | {art2: n2}
    width = n2 + 1

    # a dict over the touched pairs only: a 12 x 12 game has millions of
    # pairs, and its edges touch a few hundred
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    def partners(shared, at):
        rest = bits = full ^ shared
        while bits:
            bit = bits & -bits
            bits ^= bit
            k = at.get(rest ^ bit)
            if k is not None:
                yield k

    for a, b, shared in _edges(p):
        for j in partners(shared, at2):
            union(a * width + j, b * width + j)
    for a, b, shared in _edges(q):
        for i in partners(shared, at1):
            union(i * width + a, i * width + b)

    # touched pairs in increasing order, so the groups come in the order of
    # their least pairs. A group's number is the place of its least pair
    # among all pairs, less the touched pairs before it that are not the
    # least of their group.
    groups: dict[int, list[int]] = {}
    number: dict[int, int] = {}
    skipped = 0
    for x in sorted(parent):
        root = find(x)
        group = groups.get(root)
        if group is None:
            groups[root] = [x]
            number[root] = x - skipped
        else:
            group.append(x)
            skipped += 1
    # each group's pairs go into a set in increasing order, and the set is
    # copied: that fixes the order in which the frozenset iterates and prints
    components = tuple(
        frozenset({divmod(x, width) for x in group}) for group in groups.values()
    )
    # every completely labeled pair, the artificial one too, is touched: an
    # edge of its P node keeps all but one of the labels its Q node lacks
    eq_pairs = tuple(
        (pair, number[find(pair[0] * width + pair[1])], eq)
        for pair, eq in _labeled_equilibria(p, q).items()
    )
    # each union of two touched groups takes one component off the count
    return GPrimeReport(
        (n1 + 1) * width - len(parent) + len(groups),
        components,
        (n1, n2),
        number[find(n1 * width + n2)],
        eq_pairs,
    )
