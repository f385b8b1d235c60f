"""Label-pivoting paths over the best-reply graphs, and the product graph.

Both walk the vertex graphs that ``require_nondegenerate`` returns, which
each public call builds once; nothing is cached. Each side has one more
node, the artificial one: the graph's ``origin``, the origin of the
normalised polytope, a ``LabeledVertex`` with no point that carries the x
labels 1..m on P and the y labels m+1..m+n on Q. It is the walk's first
node, ``origin_index``, and its edges run to the pure strategies. Paths
that drop one label r from the artificial pair and chase the duplicate
label alternately over the two sides terminate at equilibria, never back
at the artificial pair, which is one end of its path; the product graph
glues those paths over all r, and its components expose equilibria no
such path can reach. A path meets no pair of nodes twice, so one that
does raises Stalled: that rule, not a count of the graphs' nodes, bounds a
path. The paths read a graph node by node, through the first tier of the
interface ``VertexGraph`` names: ``node(k)``, ``near(k)``,
``origin_index``, ``labels``, ``full`` and ``payoffs``; its one other
member, ``weigh(k, w)``, only the sweep reads. A path reaches the
origin as node ``origin_index``, and tells an origin from a vertex by its
index. ``reachability`` and G' read the second tier too.

Non-degeneracy, which every function here requires, makes each node one
basis of the vertex walk and each edge one of the walk's pivots. A path
steps from a node by dropping a label, which reads the pivot the walk
recorded for it, and G' takes every edge from that record. It also gives
each node a label set of its own, kept only as an integer mask (label l
is bit l): a path finds its duplicate label as the one bit two masks
share. G' prints pair indices, so it numbers each side's nodes itself, by
point: the V vertices in the order of ``VertexGraph.vertices``, then the
origin as V, in a dict keyed by label mask. It finds the partners of an
edge on the other side by looking up masks in that dict, never by
scanning the other graph, joins pairs (i, j) as the integers
i * (V_Q + 1) + j and builds no label set. Past the walk an equilibrium is
a pair of node numbers: ``reachability`` and ``gprime_components`` take
the completely labeled (P vertex, Q vertex) pairs, each verified once on
the vertices' integers, from ``polytopes._labeled_equilibria``, and
``reachability`` matches every path terminal to one of those by its pair
of node numbers. ``lh_run`` verifies its single terminal itself. A path's
nodes are the graphs' own nodes, each read out on its first read, so a
path builds no node of its own: each decodes its labels (in increasing
order) and reads its point only on use.
"""

from __future__ import annotations

from .errors import InternalInvariantError, Stalled
from .games import BimatrixGame, EquilibriumPoint
from .polytopes import (
    LabeledVertex,
    VertexGraph,
    _equilibrium,
    _label_set,
    _labeled_equilibria,
    require_nondegenerate,
)
from .record import Record


class PathStep(Record):
    node1: LabeledVertex  # a node of P's graph, its origin or a vertex
    node2: LabeledVertex  # a node of Q's graph
    pivoted: int | None  # None on the start pair


class LHPath(Record):
    missing: int
    steps: tuple[PathStep, ...]
    terminal: EquilibriumPoint


def _drop_label(vg: VertexGraph, k: int, drop: int) -> int:
    """The node reached from node k by dropping label ``drop``."""
    j = vg.near(k).get(drop)
    if j is None:
        raise InternalInvariantError(f"pivot on label {drop}: node {k} lacks it")
    return j


def _numbered(vg: VertexGraph) -> dict[int, int]:
    """G′'s number of each node of vg, by label mask: the V vertices in
    point order, then the origin as V."""
    return {v.mask: k for k, v in enumerate((*vg.vertices, vg.origin))}


def _edges(vg: VertexGraph, at: dict[int, int]):
    """Each edge of vg once, as (a, b, the mask of the labels it keeps),
    its ends numbered by ``at``. A step out of a node drops the label of
    the variable entering, and its far end gains that of the variable
    leaving."""
    labels = vg.labels
    for k, out in enumerate(vg.steps):
        mask = vg.node(k).mask
        a, it = at[mask], iter(out)
        for enter, leave in zip(it, it):
            drop = labels[enter]
            b = at[mask ^ 1 << drop ^ 1 << labels[leave]]
            if b > a:
                yield a, b, mask ^ 1 << drop


def _walk(
    p: VertexGraph, q: VertexGraph, r: int
) -> tuple[tuple[PathStep, ...], tuple[int, int]]:
    """The steps of the path that drops label r, and its terminal pair of
    vertex indices. The artificial pair is one end of the path (Lemke &
    Howson 1964; Shapley 1974), so the path cannot return to it, and no
    other completely labeled pair holds an origin: only Q's origin carries
    the labels P's origin lacks. Nor does the path meet any pair of nodes
    twice, so a pair met again raises Stalled: the walk is bounded by the
    pairs it has met, whatever the graphs' sizes or numbering."""
    full, graphs, seen = p.full, (p, q), set()
    at = [p.origin_index, q.origin_index]
    nodes = [p.node(at[0]), q.node(at[1])]
    steps = [PathStep(*nodes, None)]
    # r is a label of P's origin, an x label, or else of Q's
    side, drop = (0 if nodes[0].mask >> r & 1 else 1), r
    while True:
        vg = graphs[side]
        at[side] = _drop_label(vg, at[side], drop)
        nodes[side] = vg.node(at[side])
        steps.append(PathStep(nodes[0], nodes[1], side + 1))
        if nodes[0].mask | nodes[1].mask == full:
            break
        dup = nodes[0].mask & nodes[1].mask
        if not (dup and not dup & (dup - 1)):
            raise InternalInvariantError(
                "path pair duplicates labels "
                f"{sorted(_label_set(dup))}, not exactly one"
            )
        pair = (at[0], at[1])
        if pair in seen:
            raise Stalled(f"node pair {pair} revisited; path is cycling")
        seen.add(pair)
        drop = dup.bit_length() - 1
        side = 1 - side
    if at[0] == p.origin_index or at[1] == q.origin_index:
        raise InternalInvariantError("path ended at an artificial node")
    return tuple(steps), (at[0], at[1])


def lh_run(g: BimatrixGame, r: int) -> LHPath:
    """Follow the path that drops label r from the artificial pair.

    Raises DegenerateGame on a degenerate game.
    """
    if not 1 <= r <= g.m + g.n:
        raise ValueError(f"label {r} out of range")
    p, q = require_nondegenerate(g)
    steps, (i, j) = _walk(p, q, r)
    return LHPath(r, steps, _equilibrium(p.payoffs, p.node(i), q.node(j)))


class ReachabilityReport(Record):
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
    walks = [_walk(p, q, r) for r in range(1, g.m + g.n + 1)]
    eqs = _labeled_equilibria(p, q)
    paths = []
    for r, (steps, end) in enumerate(walks, start=1):
        eq = eqs.get(end)
        if eq is None:
            raise InternalInvariantError(
                "terminal pair is not a completely labeled pair"
            )
        paths.append(LHPath(r, steps, eq))
    hit = {end for _, end in walks}
    reached = tuple(e for pair, e in eqs.items() if pair in hit)
    unreached = tuple(e for pair, e in eqs.items() if pair not in hit)
    return ReachabilityReport(tuple(paths), reached, unreached)


class GPrimeReport(Record):
    """Connected components of the union of almost-completely-labeled edges.

    Pairs are (index into P's nodes, index into Q's nodes), each side's
    nodes numbered by point: the V vertices in point order, then the
    artificial node as V, so the artificial pair is the greatest pair. The
    components are numbered 0..n_components-1 in the order of their least
    pairs. ``equilibrium_pairs`` maps completely labeled non-artificial
    pairs to equilibria and their component number.
    """

    n_components: int
    artificial_pair: tuple[int, int]
    artificial_component: int
    equilibrium_pairs: tuple[tuple[tuple[int, int], int, EquilibriumPoint], ...]


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
    at_p, at_q = _numbered(p), _numbered(q)
    n1, n2 = len(p.vertices), len(q.vertices)
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

    for a, b, shared in _edges(p, at_p):
        for j in partners(shared, at_q):
            union(a * width + j, b * width + j)
    for a, b, shared in _edges(q, at_q):
        for i in partners(shared, at_p):
            union(i * width + a, i * width + b)

    # touched pairs in increasing order, so each root is first met at its
    # component's least pair. A component's number is the place of its
    # least pair among all pairs, less the touched pairs before it that are
    # not the least of their component.
    number: dict[int, int] = {}
    skipped = 0
    for x in sorted(parent):
        root = find(x)
        if root in number:
            skipped += 1
        else:
            number[root] = x - skipped
    # every completely labeled pair, the artificial one too, is touched: an
    # edge of its P node keeps all but one of the labels its Q node lacks
    eq_pairs = []
    for (i, j), eq in _labeled_equilibria(p, q).items():
        pair = (at_p[p.node(i).mask], at_q[q.node(j).mask])
        eq_pairs.append((pair, number[find(pair[0] * width + pair[1])], eq))
    # each union of two touched components takes one off the count
    return GPrimeReport(
        (n1 + 1) * width - len(parent) + len(number),
        (n1, n2),
        number[find(n1 * width + n2)],
        tuple(eq_pairs),
    )
