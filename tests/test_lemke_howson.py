"""Label-dropping paths, reachability, and the product path graph."""

from __future__ import annotations

import random

import pytest

from conftest import random_rank1_game
from rank1nash import (
    BimatrixGame,
    DegenerateGame,
    build_lh_graphs,
    equilibria_by_labels,
    gprime_components,
    is_nash,
    lh_run,
    rat,
    reachability,
)


def test_graph_shapes(unreach22):
    g1, g2 = build_lh_graphs(unreach22)
    # three polyhedron vertices plus the artificial node on each side
    assert len(g1.nodes) == 4 and len(g2.nodes) == 4
    assert g1.nodes[-1].artificial and g2.nodes[-1].artificial
    assert g1.nodes[-1].labels == {1, 2}
    assert g2.nodes[-1].labels == {3, 4}
    # adjacency: label sets agree in all but one member
    for graph in (g1, g2):
        for i, j in graph.edges:
            a, b = graph.nodes[i].labels, graph.nodes[j].labels
            assert len(a & b) == len(a) - 1


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
    assert path.terminal is not None
    assert path.terminal.strategies.x == (1, 0)
    assert path.terminal.strategies.y == (0, 1)
    assert (path.terminal.payoff1, path.terminal.payoff2) == (-18, 30)
    assert not path.artificial_loop


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
            if p.terminal is None:
                continue
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
    assert len(rep.components) == 34
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


def test_components_partition_the_pairs(unreach22):
    rep = gprime_components(unreach22)
    seen = set()
    for comp in rep.components:
        assert not (comp & seen)
        seen |= comp
    g1, g2 = build_lh_graphs(unreach22)
    assert seen == {
        (i, j) for i in range(len(g1.nodes)) for j in range(len(g2.nodes))
    }
