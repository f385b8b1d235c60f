"""Label-dropping paths, reachability, and the product path graph."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from conftest import random_game, random_rank1_game
from rank1nash import (
    BimatrixGame,
    DegenerateGame,
    EquilibriumPoint,
    GPrimeReport,
    InternalInvariantError,
    LabeledVertex,
    MixedStrategyPair,
    ReachabilityReport,
    Stalled,
    check_nondegenerate,
    enumerate_all,
    enumerate_vertices,
    equilibria_by_labels,
    generate_kt,
    gprime_components,
    is_nash,
    lemke_howson,
    lh_run,
    load_game,
    rat,
    reachability,
    require_nondegenerate,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_graph_shapes(unreach22):
    p, q = require_nondegenerate(unreach22)
    # three polyhedron vertices on each side
    assert len(p.vertices) == 3 and len(q.vertices) == 3
    # a step to node V runs to the artificial node, the origin, which has no
    # point and carries the x labels on P and the y labels on Q
    for graph, artificial in ((p, {1, 2}), (q, {3, 4})):
        origin = len(graph.vertices)
        assert graph.node(origin) is graph.origin
        assert graph.origin.point is None and graph.origin.labels == artificial
        lone = 0
        for k, v in enumerate(graph.vertices):
            assert graph.node(k) is v
            for l in v.labels:
                j = graph.near(k)[l]
                lone += j == origin
                far = graph.node(j).labels
                # adjacency: label sets agree in all but the dropped label
                assert v.labels & far == v.labels - {l}
        assert lone > 0
    # lh_run builds its own graphs, so its origins equal these by value
    start = lh_run(unreach22, 1).steps[0]
    assert start.node1 == p.origin and start.node1.point is None
    assert start.node1.labels == {1, 2}
    assert start.node2 == q.origin and start.node2.point is None
    assert start.node2.labels == {3, 4}
    # a path steps through the graphs' own nodes: on each side, no more
    # distinct objects than the graph's V vertices and its origin
    games = [generate_kt(2), generate_kt(3)]
    games.append(load_game(str(CORPUS / "unreachable-2x2.game")))
    for g in games:
        p, q = require_nondegenerate(g)
        steps = [s for path in reachability(g).paths for s in path.steps]
        m, n = g.m, g.n
        for graph, nodes, artificial in (
            (p, [s.node1 for s in steps], range(1, m + 1)),
            (q, [s.node2 for s in steps], range(m + 1, m + n + 1)),
        ):
            assert len({id(v) for v in nodes}) <= len(graph.vertices) + 1
            assert nodes[0] not in graph.vertices  # every path starts there
            for v in nodes:
                if v not in graph.vertices:
                    assert v.point is None and v.labels == set(artificial)


def test_drop_label_one_trace(unreach22):
    # arrived at independently by hand-pivoting from the artificial pair
    path = lh_run(unreach22, 1)
    seen = [
        (sorted(s.node1.labels), sorted(s.node2.labels)) for s in path.steps
    ]
    assert seen == [
        ([1, 2], [3, 4]),
        ([2, 4], [3, 4]),
        ([2, 4], [1, 3]),
    ]
    assert path.steps[0].pivoted is None
    assert [s.pivoted for s in path.steps[1:]] == [1, 2]
    assert path.terminal.strategies.x == (1, 0)
    assert path.terminal.strategies.y == (0, 1)
    assert (path.terminal.payoff1, path.terminal.payoff2) == (-18, 30)


def test_walk_rejects_a_path_back_to_the_artificial_pair():
    # the artificial pair is an end of its path, so no path returns to it;
    # graphs whose origin steps across label 1 back to itself must trip the
    # check rather than report a terminal
    p, q = require_nondegenerate(generate_kt(1))
    origin = len(p.vertices)
    p.near(origin)[1] = origin
    with pytest.raises(InternalInvariantError, match="artificial node"):
        lemke_howson._walk(p, q, 1)


class _HandBuilt:
    """The nodes a path reads of a hand-built graph of a 2 x 2 game: node k
    carries the labels ``sets[k]`` and reaches node ``moves[k][l]`` by
    dropping label l; the last node is the origin."""

    full = 0b11110  # labels 1..4

    def __init__(self, sets, moves):
        self._nodes = [LabeledVertex(None, frozenset(s)) for s in sets]
        self._moves = moves
        self.origin_index = len(sets) - 1
        self.origin = self._nodes[-1]

    def node(self, k):
        return self._nodes[k]

    def near(self, k):
        return self._moves[k]


def test_walk_rejects_a_pair_met_twice():
    # a path meets no pair of nodes twice. Dropping label 1, these graphs
    # lead through the pairs (0, 2), (0, 0), (1, 0), (1, 1), (2, 1), (2, 2)
    # and back to (0, 2), each missing label 1 and sharing exactly one
    # label, so the path cycles and must be stopped at the pair met twice
    p = _HandBuilt([{2, 3}, {3, 4}, {2, 4}, {1, 2}], [{2: 1}, {3: 2}, {4: 0}, {1: 0}])
    q = _HandBuilt([{2, 4}, {2, 3}, {3, 4}], [{4: 1}, {2: 2}, {3: 0}])
    with pytest.raises(Stalled) as info:
        lemke_howson._walk(p, q, 1)
    assert str(info.value) == "node pair (0, 2) revisited; path is cycling"


@pytest.mark.parametrize(
    "origin_moves, message",
    [
        # P's origin carries labels 1 and 2 but has no step across label 1
        ({}, "pivot on label 1: node 1 lacks it"),
        # dropping label 1, P's origin steps to a vertex that shares labels 3
        # and 4 with Q's origin, where a pair on a path shares exactly one
        ({1: 0}, "path pair duplicates labels [3, 4], not exactly one"),
    ],
)
def test_walk_rejects_a_step_the_graphs_rule_out(origin_moves, message):
    p = _HandBuilt([{3, 4}, {1, 2}], [{}, origin_moves])
    q = _HandBuilt([{3, 4}], [{}])
    with pytest.raises(InternalInvariantError) as info:
        lemke_howson._walk(p, q, 1)
    assert str(info.value) == message


def test_reachability_rejects_a_terminal_that_is_no_equilibrium(monkeypatch):
    # every path ends at a completely labeled pair, one of the equilibria
    # the pair scan lists; with that list emptied, a terminal must raise
    # rather than be reported
    monkeypatch.setattr(lemke_howson, "_labeled_equilibria", lambda p, q: {})
    with pytest.raises(InternalInvariantError) as info:
        reachability(generate_kt(3))
    assert str(info.value) == "terminal pair is not a completely labeled pair"


def test_all_drops_miss_the_mixed_equilibrium(unreach22):
    rep = reachability(unreach22)
    assert len(rep.paths) == 4
    terminals = {
        (p.missing, p.terminal.strategies.x, p.terminal.strategies.y)
        for p in rep.paths
    }
    assert terminals == {
        (1, (1, 0), (0, 1)),
        (2, (0, 1), (1, 0)),
        (3, (0, 1), (1, 0)),
        (4, (1, 0), (0, 1)),
    }
    assert [e.key() for e in rep.unreached] == [
        ((rat(1, 5), rat(4, 5)), (rat(1, 5), rat(4, 5)))
    ]
    assert len(rep.reached) == 2


def test_terminals_are_nash_on_random_games():
    rng = random.Random(64901)
    done = 0
    while done < 10:
        g = random_rank1_game(rng, rng.randint(2, 3), rng.randint(2, 3))
        try:
            eqs = equilibria_by_labels(g)
        except DegenerateGame:
            continue
        keys = {e.key() for e in eqs}
        for r in range(1, g.m + g.n + 1):
            p = lh_run(g, r)
            ok, _, _ = is_nash(g, p.terminal.strategies)
            assert ok
            assert p.terminal.key() in keys
        done += 1


def test_paths_reject_degenerate_game():
    # every payoff 1: the equilibria form a continuum, so no path is defined
    g = BimatrixGame.from_payoffs(((1, 1), (1, 1)), ((1, 1), (1, 1)))
    for call in (lambda g: lh_run(g, 1), reachability, gprime_components):
        with pytest.raises(DegenerateGame) as info:
            call(g)
        assert len(info.value.witness.labels) > 2


def test_lh_run_rejects_bad_label(unreach22):
    with pytest.raises(ValueError):
        lh_run(unreach22, 0)
    with pytest.raises(ValueError):
        lh_run(unreach22, 5)


def test_gprime_connects_mixed_for_2x2(unreach22):
    # every equilibrium pair of this game shares a component with the
    # artificial pair, even though plain label-dropping never reaches the
    # mixed one: the union graph may switch the missing label mid-path
    rep = gprime_components(unreach22)
    assert rep.artificial_pair == (3, 3)
    for _, comp, _ in rep.equilibrium_pairs:
        assert comp == rep.artificial_component


def test_gprime_disconnected_component(disconnected33):
    # frozen from the component listing; the two non-pure equilibria sit
    # together in a component that does not contain the artificial pair
    rep = gprime_components(disconnected33)
    assert rep.artificial_component == 0
    assert rep.n_components == 34
    by_key = {
        e.key(): comp for _, comp, e in rep.equilibrium_pairs
    }
    pure = ((rat(0), rat(0), rat(1)), (rat(0), rat(0), rat(1)))
    inner = (
        (rat(1, 6), rat(1, 3), rat(1, 2)),
        (rat(1, 6), rat(1, 3), rat(1, 2)),
    )
    partial = ((rat(1, 3), rat(2, 3), rat(0)), (rat(1, 3), rat(2, 3), rat(0)))
    assert by_key[pure] == 0
    assert by_key[inner] == by_key[partial] == 7
    assert by_key[inner] != rep.artificial_component


def test_gprime_covers_all_equilibria(disconnected33):
    eqs = equilibria_by_labels(disconnected33)
    rep = gprime_components(disconnected33)
    assert {e.key() for _, _, e in rep.equilibrium_pairs} == {
        e.key() for e in eqs
    }


def test_gprime_shape_on_kt():
    # every equilibrium pair shares the artificial pair's component, number 0
    for d, n_components in ((6, 1641), (9, 16609)):
        rep = gprime_components(generate_kt(d))
        assert rep.n_components == n_components
        assert rep.artificial_component == 0
        assert {comp for _, comp, _ in rep.equilibrium_pairs} == {0}


def _pair_scan(g):
    """Reference label covering: test every P vertex against every Q vertex."""
    require_nondegenerate(g)
    full = frozenset(range(1, g.m + g.n + 1))
    out = []
    for vp in enumerate_vertices(g, "P"):
        for vq in enumerate_vertices(g, "Q"):
            if vp.labels | vq.labels != full:
                continue
            s = MixedStrategyPair(vp.point[: g.m], vq.point[: g.n])
            assert is_nash(g, s)[0]
            out.append(EquilibriumPoint(s, payoff1=vq.point[g.n], payoff2=vp.point[g.m]))
    return tuple(sorted(out, key=lambda e: e.key()))


def _reachability_scan(g):
    """Reference reachability: one checked lh_run per label, then the scan."""
    paths = tuple(lh_run(g, r) for r in range(1, g.m + g.n + 1))
    hit = {p.terminal.key() for p in paths}
    eqs = _pair_scan(g)
    return ReachabilityReport(
        paths,
        tuple(e for e in eqs if e.key() in hit),
        tuple(e for e in eqs if e.key() not in hit),
    )


def _gprime_scan(g):
    """Reference G': test every edge of one graph against every node of the
    other, over node lists with the artificial node last, and number each
    pair's component by a linear scan over the components."""
    p, q = require_nondegenerate(g)
    full = frozenset(range(1, g.m + g.n + 1))
    nodes1 = [(v.labels, v.point) for v in p.vertices]
    nodes1.append((frozenset(range(1, g.m + 1)), None))
    nodes2 = [(v.labels, v.point) for v in q.vertices]
    nodes2.append((frozenset(range(g.m + 1, g.m + g.n + 1)), None))
    n1, n2 = len(nodes1), len(nodes2)
    parent = {(i, j): (i, j) for i in range(n1) for j in range(n2)}

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq

    def edges(nodes):
        # nodes are adjacent when their label sets share all but one member
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                shared = nodes[a][0] & nodes[b][0]
                if len(shared) == len(nodes[a][0]) - 1:
                    yield a, b, shared

    for a, b, shared in edges(nodes1):
        for j in range(n2):
            if len(full - (shared | nodes2[j][0])) == 1:
                union((a, j), (b, j))
    for a, b, shared in edges(nodes2):
        for i in range(n1):
            if len(full - (nodes1[i][0] | shared)) == 1:
                union((i, a), (i, b))
    groups = {}
    for x in parent:
        groups.setdefault(find(x), set()).add(x)
    components = sorted(groups.values(), key=min)

    def number(pair):
        return next(k for k, c in enumerate(components) if pair in c)

    art = (n1 - 1, n2 - 1)
    eq_pairs = []
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            if nodes1[i][0] | nodes2[j][0] != full:
                continue
            s = MixedStrategyPair(nodes1[i][1][: g.m], nodes2[j][1][: g.n])
            eq = EquilibriumPoint(
                s, payoff1=nodes2[j][1][g.n], payoff2=nodes1[i][1][g.m]
            )
            eq_pairs.append(((i, j), number((i, j)), eq))
    return GPrimeReport(len(components), art, number(art), tuple(eq_pairs))


def _outcome(fn, g):
    """The result of fn(g), or the type and message of what it raised."""
    try:
        return fn(g)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _reference_games():
    for path in sorted(CORPUS.glob("*.game")):
        yield load_game(str(path))
    for d in range(1, 8):
        yield generate_kt(d)
    rng = random.Random(90210)
    for k in range(320):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        lo, hi = rng.choice([(-2, 2), (-9, 9)])
        make = random_rank1_game if k % 4 else random_game
        yield make(rng, m, n, lo, hi)


def test_lookups_match_reference_scans():
    # the label-set lookups give exactly the results, or exactly the
    # rejections, of the V_P * V_Q pairing and the edge-by-node G' scan,
    # down to the component numbers
    degenerate = 0
    for g in _reference_games():
        for fn, ref in (
            (equilibria_by_labels, _pair_scan),
            (reachability, _reachability_scan),
            (gprime_components, _gprime_scan),
        ):
            got, want = _outcome(fn, g), _outcome(ref, g)
            assert got == want, (g, fn.__name__)
            assert repr(got) == repr(want)
        degenerate += not check_nondegenerate(g)[0]
    # both kinds of game were compared
    assert 50 < degenerate < 250, degenerate


def test_is_nash_once_per_equilibrium(monkeypatch):
    # equilibria_by_labels, reachability, gprime_components and the sweep
    # verify each distinct equilibrium once, by the integer Nash test on its
    # vertex pair, and reachability matches path terminals to those; lh_run
    # on its own verifies its terminal
    import rank1nash
    from rank1nash import games

    calls = 0
    original = games._integer_nash_test

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    for mod in vars(rank1nash).values():
        if getattr(mod, "_integer_nash_test", None) is original and hasattr(
            mod, "__file__"
        ):
            monkeypatch.setattr(mod, "_integer_nash_test", counted)

    rng = random.Random(6021)
    cases = [generate_kt(d) for d in range(2, 7)]
    while len(cases) < 13:
        g = random_rank1_game(rng, rng.randint(2, 5), rng.randint(2, 5))
        if check_nondegenerate(g)[0]:
            cases.append(g)
    for g in cases:
        calls = 0
        rep = reachability(g)
        assert calls == len(rep.reached) + len(rep.unreached)
        calls = 0
        assert len(gprime_components(g).equilibrium_pairs) == calls > 0
        calls = 0
        for r in range(1, g.m + g.n + 1):
            lh_run(g, r)
        assert calls == g.m + g.n
        calls = 0
        assert len(equilibria_by_labels(g)) == calls > 0
        calls = 0
        assert len(enumerate_all(g).equilibria) == calls > 0
