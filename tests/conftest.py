"""Shared fixtures: the small games most test modules lean on."""

from __future__ import annotations

import random

import pytest

from rank1nash import BimatrixGame, rat


@pytest.fixture
def demo23() -> BimatrixGame:
    # 2x3 game with three equilibria; rank(A+B) = 2
    return BimatrixGame.from_payoffs(((2, 1, 5), (3, 0, 4)), ((7, 8, 1), (2, 1, 6)))


@pytest.fixture
def unreach22() -> BimatrixGame:
    # rank-1 game whose mixed equilibrium no label-dropping path reaches
    return BimatrixGame.from_payoffs(((-28, -18), (-8, -23)), ((10, 30), (20, 15)))


@pytest.fixture
def disconnected33() -> BimatrixGame:
    # 3x3 game with an equilibrium pair cut off from the artificial pair
    return BimatrixGame.from_payoffs(
        ((0, 3, 0), (2, 2, 0), (3, 0, 1)),
        ((0, 2, 3), (3, 2, 0), (0, 0, 1)),
    )


def random_rank1_game(
    rng: random.Random, m: int, n: int, lo: int = -9, hi: int = 9
) -> BimatrixGame:
    """Random integer game with rank(A+B) <= 1 by construction: B = b c^T - A."""
    a = tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))
    b = [rng.randint(lo, hi) for _ in range(m)]
    c = [rng.randint(lo, hi) for _ in range(n)]
    bm = tuple(tuple(rat(b[i] * c[j] - a[i][j]) for j in range(n)) for i in range(m))
    return BimatrixGame.from_payoffs(a, bm)


def baseline_game(d: int, seed: int) -> BimatrixGame:
    """The random rank-1 d x d game of a seed: with rng = random.Random(seed),
    draw b, then c, then the rows of A, each entry uniform in -9999..9999,
    and set B = b c^T - A."""
    rng = random.Random(seed)
    b = [rng.randint(-9999, 9999) for _ in range(d)]
    c = [rng.randint(-9999, 9999) for _ in range(d)]
    a = [[rng.randint(-9999, 9999) for _ in range(d)] for _ in range(d)]
    bm = [[b[i] * c[j] - a[i][j] for j in range(d)] for i in range(d)]
    return BimatrixGame.from_payoffs(a, bm)


def vertex_nodes(graph) -> dict:
    """The vertices of a vertex graph by node number: every node but the
    origin, in the graph's numbering."""
    count = len(graph.steps)
    return {k: graph.node(k) for k in range(count) if k != graph.origin_index}


def node_at(graph, mask: int):
    """The number of the node of a vertex graph whose label mask is
    ``mask``, or None, by a scan of every node: every basis of the walk
    with no basic variable at zero, which on a degenerate walk are fewer
    than its steps."""
    count = len(graph._walk.masks)
    return next((k for k in range(count) if graph.node(k).mask == mask), None)


def label_set_edges(graph) -> dict[frozenset[int], tuple[int, ...]]:
    """Reference edge index of a vertex graph of a non-degenerate game: each
    edge, keyed by the labels it keeps, as the node numbers of its one or
    two vertices. An edge with one vertex runs to the origin of the
    normalised polytope."""
    index: dict[frozenset[int], tuple[int, ...]] = {}
    for k, v in vertex_nodes(graph).items():
        for l in v.labels:
            key = v.labels - {l}
            index[key] = index.get(key, ()) + (k,)
    return index


def random_game(
    rng: random.Random, m: int, n: int, lo: int = -9, hi: int = 9
) -> BimatrixGame:
    """Random integer game with no rank constraint."""
    a = tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))
    b = tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m))
    return BimatrixGame.from_payoffs(a, b)


def reweight(v: tuple, index: int, factor) -> tuple:
    """Divide entry `index` of a mixed strategy by `factor`, renormalized.

    This is the equilibrium bijection of the scaling transforms:
    ScaleRowOfB(i, f) sends each equilibrium (x, y) to
    (reweight(x, i, f), y), and ScaleColumnOfA(j, f) sends it to
    (x, reweight(y, j, f)).
    """
    z = [p / factor if k == index else p for k, p in enumerate(v)]
    t = sum(z)
    return tuple(p / t for p in z)
