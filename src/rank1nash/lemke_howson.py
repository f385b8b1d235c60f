"""Label-pivoting paths over the best-reply graphs, and the product graph.

The two graphs carry the polyhedron vertices plus one artificial node per
side (all x resp. y labels, standing in for the origin); adjacency is purely
combinatorial: nodes are neighbors when their label sets share all but one
element. The edges are read off the polyhedron's edge index, where an edge
with one vertex runs to the origin, the artificial node. Paths that drop one
label r from the artificial pair and chase the duplicate label alternately
over the two sides terminate at equilibria; the product graph glues those
paths over all r, and its components expose equilibria no such path can
reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import InternalInvariantError, Stalled
from .games import BimatrixGame, EquilibriumPoint, MixedStrategyPair, is_nash
from .polytopes import (
    build_polyhedron,
    edge_index,
    enumerate_vertices,
    require_nondegenerate,
)


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


@lru_cache(maxsize=None)
def build_lh_graphs(g: BimatrixGame) -> tuple[LHGraph, LHGraph]:
    """The graphs of P and Q; raises DegenerateGame on a degenerate game,
    where label-dropping paths are not well defined."""
    require_nondegenerate(g)
    graphs = []
    for side, which, art_labels in (
        (1, "P", range(1, g.m + 1)),
        (2, "Q", range(g.m + 1, g.m + g.n + 1)),
    ):
        verts = enumerate_vertices(build_polyhedron(g, which))
        nodes = [GraphNode(v.labels, v.point) for v in verts]
        nodes.append(GraphNode(frozenset(art_labels), None))
        art = len(verts)
        edges = tuple(
            sorted(
                ends if len(ends) == 2 else (ends[0], art)
                for ends in edge_index(verts).values()
            )
        )
        graphs.append(LHGraph(side, tuple(nodes), edges))
    return graphs[0], graphs[1]


def _pivot(graph: LHGraph, node: GraphNode, drop: int) -> GraphNode:
    ends = graph.ends.get(node.labels - {drop}, ())
    hits = [graph.nodes[k] for k in ends if graph.nodes[k] != node]
    if len(hits) != 1:
        raise InternalInvariantError(
            f"pivot on label {drop} has {len(hits)} targets, not 1"
        )
    return hits[0]


def lh_run(g: BimatrixGame, r: int) -> LHPath:
    """Follow the path that drops label r from the artificial pair.

    Raises DegenerateGame on a degenerate game.
    """
    if not 1 <= r <= g.m + g.n:
        raise ValueError(f"label {r} out of range")
    g1, g2 = build_lh_graphs(g)
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
    if v1.artificial or v2.artificial:
        # union = full with one artificial side forces the full start pair
        if not (v1.artificial and v2.artificial):
            raise InternalInvariantError(
                "path ended with exactly one artificial node"
            )
        return LHPath(r, tuple(steps), None, True)
    s = MixedStrategyPair(v1.point[: g.m], v2.point[: g.n])
    eq = EquilibriumPoint(s, payoff1=v2.point[g.n], payoff2=v1.point[g.m])
    if not is_nash(g, s)[0]:
        raise InternalInvariantError("terminal pair failed the equilibrium check")
    return LHPath(r, tuple(steps), eq, False)


@dataclass(frozen=True)
class ReachabilityReport:
    paths: tuple[LHPath, ...]  # one per label r = 1..m+n, in order
    reached: tuple[EquilibriumPoint, ...]
    unreached: tuple[EquilibriumPoint, ...]


def reachability(g: BimatrixGame) -> ReachabilityReport:
    """Run every label drop; report which equilibria no run terminates at."""
    from .polytopes import equilibria_by_labels

    paths = tuple(lh_run(g, r) for r in range(1, g.m + g.n + 1))
    hit_keys = {p.terminal.key() for p in paths if p.terminal is not None}
    all_eq = equilibria_by_labels(g)
    reached = tuple(e for e in all_eq if e.key() in hit_keys)
    unreached = tuple(e for e in all_eq if e.key() not in hit_keys)
    return ReachabilityReport(paths, reached, unreached)


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
    g1, g2 = build_lh_graphs(g)
    full = frozenset(range(1, g.m + g.n + 1))
    n1, n2 = len(g1.nodes), len(g2.nodes)

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

    for a, b in g1.edges:
        shared = g1.nodes[a].labels & g1.nodes[b].labels
        for j in range(n2):
            if len(full - (shared | g2.nodes[j].labels)) == 1:
                union((a, j), (b, j))
    for a, b in g2.edges:
        shared = g2.nodes[a].labels & g2.nodes[b].labels
        for i in range(n1):
            if len(full - (g1.nodes[i].labels | shared)) == 1:
                union((i, a), (i, b))

    groups: dict[tuple[int, int], set] = {}
    for p in parent:
        groups.setdefault(find(p), set()).add(p)
    components = tuple(
        frozenset(c) for c in sorted(groups.values(), key=lambda c: min(c))
    )
    art = (n1 - 1, n2 - 1)
    art_comp = next(k for k, c in enumerate(components) if art in c)

    eq_pairs = []
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            if g1.nodes[i].labels | g2.nodes[j].labels != full:
                continue
            s = MixedStrategyPair(g1.nodes[i].point[: g.m], g2.nodes[j].point[: g.n])
            eq = EquilibriumPoint(
                s,
                payoff1=g2.nodes[j].point[g.n],
                payoff2=g1.nodes[i].point[g.m],
            )
            comp = next(k for k, c in enumerate(components) if (i, j) in c)
            eq_pairs.append(((i, j), comp, eq))
    return GPrimeReport(components, art, art_comp, tuple(eq_pairs))
