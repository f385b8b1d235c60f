"""Label-pivoting paths over the best-reply graphs, and the product graph.

The two graphs carry the polyhedron vertices plus one artificial node per
side (all x resp. y labels, standing in for the origin); adjacency is purely
combinatorial: nodes are neighbors when their label sets share all but one
element. Nodes and edges are read off the vertex graphs that
``require_nondegenerate`` returns, where an edge with one vertex runs to the
origin, the artificial node; each public call builds them once and caches
nothing. Paths that drop one label r from the artificial pair and chase the
duplicate label alternately over the two sides terminate at equilibria; the
product graph glues those paths over all r, and its components expose
equilibria no such path can reach.

Non-degeneracy, which every function here requires, gives each node a label
set of its own, so partners are found by looking up a label set, never by
scanning the other graph. ``reachability`` verifies each distinct
equilibrium once, in the label covering over the same vertex graphs, and
matches every path terminal (a completely labeled pair) to one of those by
key; ``lh_run`` verifies its single terminal itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InternalInvariantError, Stalled
from .games import BimatrixGame, EquilibriumPoint, MixedStrategyPair, is_nash
from .polytopes import VertexGraph, _labeled_equilibria, require_nondegenerate


@dataclass(frozen=True)
class GraphNode:
    labels: frozenset[int]
    point: tuple | None  # None marks the artificial node

    @property
    def artificial(self) -> bool:
        return self.point is None


@dataclass(frozen=True)
class LHGraph:
    side: int  # 1 over P, 2 over Q
    nodes: tuple[GraphNode, ...]  # artificial node last
    edges: tuple[tuple[int, int], ...]  # index pairs i < j

    @cached_property
    def ends(self) -> dict[frozenset[int], tuple[int, int]]:
        """Each edge, keyed by the labels its two nodes share."""
        return {
            self.nodes[a].labels & self.nodes[b].labels: (a, b)
            for a, b in self.edges
        }


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


def _lh_graphs(
    g: BimatrixGame, p: VertexGraph, q: VertexGraph
) -> tuple[LHGraph, LHGraph]:
    graphs = []
    for side, vg, art_labels in (
        (1, p, range(1, g.m + 1)),
        (2, q, range(g.m + 1, g.m + g.n + 1)),
    ):
        nodes = [GraphNode(v.labels, v.point) for v in vg.vertices]
        nodes.append(GraphNode(frozenset(art_labels), None))
        art = len(vg.vertices)
        edges = tuple(
            sorted(
                ends if len(ends) == 2 else (ends[0], art)
                for ends in vg.edges.values()
            )
        )
        graphs.append(LHGraph(side, tuple(nodes), edges))
    return graphs[0], graphs[1]


def build_lh_graphs(g: BimatrixGame) -> tuple[LHGraph, LHGraph]:
    """The graphs of P and Q; raises DegenerateGame on a degenerate game,
    where label-dropping paths are not well defined."""
    return _lh_graphs(g, *require_nondegenerate(g))


def _pivot(graph: LHGraph, node: GraphNode, drop: int) -> GraphNode:
    ends = graph.ends.get(node.labels - {drop}, ())
    hits = [graph.nodes[k] for k in ends if graph.nodes[k] != node]
    if len(hits) != 1:
        raise InternalInvariantError(
            f"pivot on label {drop} has {len(hits)} targets, not 1"
        )
    return hits[0]


def _walk(
    g: BimatrixGame, g1: LHGraph, g2: LHGraph, r: int
) -> tuple[tuple[PathStep, ...], GraphNode, GraphNode]:
    """The steps of the path that drops label r, and its terminal pair."""
    full = frozenset(range(1, g.m + g.n + 1))
    v1, v2 = g1.nodes[-1], g2.nodes[-1]
    steps = [PathStep(v1, v2, None)]
    side, drop = (1, r) if r <= g.m else (2, r)
    limit = len(g1.nodes) * len(g2.nodes) + 1
    for _ in range(limit):
        if side == 1:
            v1 = _pivot(g1, v1, drop)
        else:
            v2 = _pivot(g2, v2, drop)
        steps.append(PathStep(v1, v2, side))
        if v1.labels | v2.labels == full:
            break
        dup = v1.labels & v2.labels
        if len(dup) != 1:
            raise InternalInvariantError(
                f"path pair duplicates labels {sorted(dup)}, not exactly one"
            )
        drop = next(iter(dup))
        side = 3 - side
    else:
        raise Stalled(f"no terminal pair within {limit} pivots")
    if v1.artificial != v2.artificial:
        # union = full with one artificial side forces the full start pair
        raise InternalInvariantError("path ended with exactly one artificial node")
    return tuple(steps), v1, v2


def lh_run(g: BimatrixGame, r: int) -> LHPath:
    """Follow the path that drops label r from the artificial pair.

    Raises DegenerateGame on a degenerate game.
    """
    if not 1 <= r <= g.m + g.n:
        raise ValueError(f"label {r} out of range")
    steps, v1, v2 = _walk(g, *build_lh_graphs(g), r)
    if v1.artificial:
        return LHPath(r, steps, None, True)
    s = MixedStrategyPair(v1.point[: g.m], v2.point[: g.n])
    eq = EquilibriumPoint(s, payoff1=v2.point[g.n], payoff2=v1.point[g.m])
    if not is_nash(g, s)[0]:
        raise InternalInvariantError("terminal pair failed the equilibrium check")
    return LHPath(r, steps, eq, False)


@dataclass(frozen=True)
class ReachabilityReport:
    paths: tuple[LHPath, ...]  # one per label r = 1..m+n, in order
    reached: tuple[EquilibriumPoint, ...]
    unreached: tuple[EquilibriumPoint, ...]


def reachability(g: BimatrixGame) -> ReachabilityReport:
    """Run every label drop; report which equilibria no run terminates at.

    Each terminal is a completely labeled pair, so it is one of the
    equilibria the label covering has verified; it is matched to that
    equilibrium by key rather than checked again.
    """
    p, q = require_nondegenerate(g)
    g1, g2 = _lh_graphs(g, p, q)
    walks = [_walk(g, g1, g2, r) for r in range(1, g.m + g.n + 1)]
    all_eq = [e for e, _, _ in _labeled_equilibria(g, p, q)]
    by_key = {e.key(): e for e in all_eq}
    paths = []
    for r, (steps, v1, v2) in enumerate(walks, start=1):
        if v1.artificial:
            paths.append(LHPath(r, steps, None, True))
            continue
        eq = by_key.get((v1.point[: g.m], v2.point[: g.n]))
        if eq is None:
            raise InternalInvariantError(
                "terminal pair failed the equilibrium check"
            )
        paths.append(LHPath(r, steps, eq, False))
    hit_keys = {p.terminal.key() for p in paths if p.terminal is not None}
    reached = tuple(e for e in all_eq if e.key() in hit_keys)
    unreached = tuple(e for e in all_eq if e.key() not in hit_keys)
    return ReachabilityReport(tuple(paths), reached, unreached)


@dataclass(frozen=True)
class GPrimeReport:
    """Connected components of the union of almost-completely-labeled edges.

    Pairs are (index into G1 nodes, index into G2 nodes); the artificial pair
    is the last index on both sides. ``equilibrium_pairs`` maps completely
    labeled non-artificial pairs to equilibria and their component index.
    """

    components: tuple[frozenset[tuple[int, int]], ...]
    artificial_pair: tuple[int, int]
    artificial_component: int
    equilibrium_pairs: tuple[tuple[tuple[int, int], int, EquilibriumPoint], ...]

    def component_of(self, pair: tuple[int, int]) -> int:
        for k, comp in enumerate(self.components):
            if pair in comp:
                return k
        raise KeyError(pair)


def gprime_components(g: BimatrixGame) -> GPrimeReport:
    """The components of G', over all pairs of a G1 node and a G2 node.

    An edge (a, b) of G1 joins the pairs (a, j) and (b, j) that miss exactly
    one label, and likewise an edge of G2. Non-degeneracy gives every G1
    node m labels and every G2 node n labels, each set carried by one node.
    So if the edge shares the labels S, its partners j are the G2 nodes
    labeled (full - S) - {l}, one lookup for each l in full - S. The
    equilibrium pairs are looked up the same way, by complementary labels.
    """
    g1, g2 = build_lh_graphs(g)
    full = frozenset(range(1, g.m + g.n + 1))
    n1, n2 = len(g1.nodes), len(g2.nodes)
    at1 = {v.labels: i for i, v in enumerate(g1.nodes)}
    at2 = {v.labels: j for j, v in enumerate(g2.nodes)}

    parent: dict[tuple[int, int], tuple[int, int]] = {
        (i, j): (i, j) for i in range(n1) for j in range(n2)
    }

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq

    def partners(shared, at):
        rest = full - shared
        for l in rest:
            k = at.get(rest - {l})
            if k is not None:
                yield k

    for shared, (a, b) in g1.ends.items():
        for j in partners(shared, at2):
            union((a, j), (b, j))
    for shared, (a, b) in g2.ends.items():
        for i in partners(shared, at1):
            union((i, a), (i, b))

    # pairs come in increasing order, so the groups come in the order of
    # their least pairs
    groups: dict[tuple[int, int], set] = {}
    for p in parent:
        groups.setdefault(find(p), set()).add(p)
    components = tuple(frozenset(c) for c in groups.values())
    index = {r: k for k, r in enumerate(groups)}
    art = (n1 - 1, n2 - 1)

    eq_pairs = []
    for i in range(n1 - 1):
        # a vertex of P has some x_i > 0, so no real node completes G2's
        # artificial node
        j = at2.get(full - g1.nodes[i].labels)
        if j is None:
            continue
        s = MixedStrategyPair(g1.nodes[i].point[: g.m], g2.nodes[j].point[: g.n])
        eq = EquilibriumPoint(
            s,
            payoff1=g2.nodes[j].point[g.n],
            payoff2=g1.nodes[i].point[g.m],
        )
        eq_pairs.append(((i, j), index[find((i, j))], eq))
    return GPrimeReport(components, art, index[find(art)], tuple(eq_pairs))
