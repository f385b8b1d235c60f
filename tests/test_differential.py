"""Differential fuzzing: sweep = oracle = labels = lh --all = gprime on
random rank-1 games.

Hypothesis draws games of every shape up to 5x5, 1xn and mx1 included, with
fractional payoffs, built as B = b c^T - A so that rank(A+B) <= 1, and hands
the sweep the factorization rescaled to (b*lam, c/lam) for a random nonzero
lam (negative lam reverses the sweep direction). Random b and c almost
never make c constant, so zero-sum (B = -A) and row-constant (B = u 1^T - A)
games, where the sweep's range is one point, are drawn on their own. The
sweep and the label method read the same vertex enumeration and edge index,
so the oracle (support enumeration) is the independent method here, and
every draw also checks Shapley's index theorem, which uses none of the
three: the indices of the equilibria of a non-degenerate game sum to 1.
The path methods must find the same set: the reached and unreached
equilibria of ``reachability`` and the equilibrium pairs of
``gprime_components``. A label-dropping path is a path in G' from the
artificial pair, so every reached equilibrium lies in its component.
Degenerate draws are skipped, and each test prints how many it skipped
(shown under -s).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rank1nash import (
    BimatrixGame,
    DegenerateGame,
    RankOneFactorization,
    enumerate_all,
    equilibria_by_labels,
    generate_kt,
    gprime_components,
    reachability,
    support_enumeration,
)

PAYOFF = st.fractions(-9, 9, max_denominator=6)


@st.composite
def rank1_games(draw, sizes_m, sizes_n, tied=False):
    """(game, factorization); with ``tied``, the factor's least c_j is
    repeated on 2..n columns."""
    m, n = draw(sizes_m), draw(sizes_n)
    a = draw(st.lists(st.lists(PAYOFF, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(PAYOFF, min_size=m, max_size=m))
    c = draw(st.lists(PAYOFF, min_size=n, max_size=n))
    lam = draw(PAYOFF.filter(lambda v: v != 0))
    if tied:
        cols = draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n))
        least = min(c, key=lambda v: v / lam)
        c = [least if j in cols else v for j, v in enumerate(c)]
    g = BimatrixGame.from_payoffs(
        a, [[b[i] * c[j] - a[i][j] for j in range(n)] for i in range(m)]
    )
    f = RankOneFactorization.for_game(g, [v * lam for v in b], [v / lam for v in c])
    return g, f


@st.composite
def one_point_games(draw, sizes):
    """Zero-sum and row-constant games: A + B = u 1^T, u = 0 for zero-sum."""
    m, n = draw(sizes), draw(sizes)
    a = draw(st.lists(st.lists(PAYOFF, min_size=n, max_size=n), min_size=m, max_size=m))
    u = draw(st.one_of(st.just([0] * m), st.lists(PAYOFF, min_size=m, max_size=m)))
    g = BimatrixGame.from_payoffs(
        a, [[u[i] - a[i][j] for j in range(n)] for i in range(m)]
    )
    return g, None


def _det(rows):
    """Determinant by exact Gaussian elimination."""
    a = [list(r) for r in rows]
    det = 1
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _index_sum(g, equilibria) -> int:
    """The sum of the Shapley indices of the given equilibria.

    With A and B shifted so that every entry is positive, an equilibrium of
    a non-degenerate game with supports I, J (|I| = |J| = k) has index
    (-1)^(k+1) sign(det A_IJ det B_IJ) (Shapley 1974; von Stengel 2002).
    The indices of all equilibria sum to 1, so a missing or spurious
    equilibrium changes the sum.
    """
    shift_a = 1 - min(min(r) for r in g.A)
    shift_b = 1 - min(min(r) for r in g.B)
    total = 0
    for e in equilibria:
        rows = [i for i, p in enumerate(e.strategies.x) if p > 0]
        cols = [j for j, q in enumerate(e.strategies.y) if q > 0]
        assert len(rows) == len(cols)
        d = _det([[g.A[i][j] + shift_a for j in cols] for i in rows]) * _det(
            [[g.B[i][j] + shift_b for j in cols] for i in rows]
        )
        assert d != 0
        total += (-1) ** (len(rows) + 1) * (1 if d > 0 else -1)
    return total


def test_index_sum_on_kt_family():
    for d in range(1, 11):
        g = generate_kt(d)
        eqs = enumerate_all(g).equilibria
        assert len(eqs) == 2 * d - 1
        assert _index_sum(g, eqs) == 1


def _agree(g, f, tally: Counter) -> str | None:
    """Compare the three methods on g; return the sweep's dispatch label."""
    tally["drawn"] += 1
    try:
        trace = enumerate_all(g, f)
    except DegenerateGame:
        tally["degenerate"] += 1
        event("degenerate draw skipped")
        return None
    sweep = trace.equilibria
    oracle = support_enumeration(g)
    # the game passed the non-degeneracy check, so the oracle has no suspicion
    assert not oracle.degenerate_suspect
    want = [(e.key(), e.payoff1, e.payoff2) for e in oracle.equilibria]
    assert [(e.key(), e.payoff1, e.payoff2) for e in sweep] == want
    assert [(e.key(), e.payoff1, e.payoff2) for e in equilibria_by_labels(g)] == want
    assert _index_sum(g, sweep) == 1
    _paths_agree(g, set(want))
    return trace.dispatch


def _paths_agree(g, want: set) -> None:
    """lh --all and gprime find the oracle's equilibria, and every reached
    equilibrium lies in the artificial pair's component of G'."""
    rep = reachability(g)
    assert {(e.key(), e.payoff1, e.payoff2) for e in rep.reached + rep.unreached} == want
    for p in rep.paths:
        assert (p.terminal.key(), p.terminal.payoff1, p.terminal.payoff2) in want
    gp = gprime_components(g)
    assert {(e.key(), e.payoff1, e.payoff2) for _, _, e in gp.equilibrium_pairs} == want
    component = {e.key(): comp for _, comp, e in gp.equilibrium_pairs}
    for e in rep.reached:
        assert component[e.key()] == gp.artificial_component


def _run(check, label: str) -> None:
    tally: Counter = Counter()
    check(tally)
    print(
        f"{label}: {tally['degenerate']} of {tally['drawn']} draws degenerate "
        "and skipped"
    )
    # a run that skipped every draw compared nothing
    assert tally["drawn"] > tally["degenerate"]


def test_sweep_matches_oracle_and_labels_on_thin_games():
    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            rank1_games(st.just(1), st.integers(1, 5)),
            rank1_games(st.integers(1, 5), st.just(1)),
        )
    )
    def check(tally, game):
        _agree(*game, tally)

    _run(check, "1xn and mx1")


def test_sweep_matches_oracle_and_labels_up_to_5x5():
    @settings(max_examples=120, deadline=None)
    @given(rank1_games(st.integers(2, 5), st.integers(2, 5)))
    def check(tally, game):
        _agree(*game, tally)

    _run(check, "2x2 to 5x5")


def test_sweep_matches_oracle_and_labels_on_zero_sum_and_row_constant():
    @settings(max_examples=80, deadline=None)
    @given(one_point_games(st.integers(1, 5)))
    def check(tally, game):
        assert _agree(*game, tally) in (None, "zero-sum", "row-constant")

    _run(check, "zero-sum and row-constant")


@st.composite
def permuted_games(draw, games):
    """(game, rows, cols): a drawn game with a permutation of its rows and
    one of its columns."""
    g, _ = draw(games)
    rows = draw(st.permutations(range(g.m)))
    return g, rows, draw(st.permutations(range(g.n)))


def _permuted(g, rows, cols) -> BimatrixGame:
    """The game whose row i is g's row rows[i] and whose column j is g's
    column cols[j]."""

    def pick(mat):
        return [[mat[r][c] for c in cols] for r in rows]

    return BimatrixGame.from_payoffs(pick(g.A), pick(g.B))


def _unpermuted(e, rows, cols) -> tuple:
    """An equilibrium of ``_permuted(g, rows, cols)`` as g's: its key and
    payoffs, with the probability of the permuted game's row i put on g's
    row rows[i], and likewise for the columns."""
    x, y = [None] * len(rows), [None] * len(cols)
    for i, r in enumerate(rows):
        x[r] = e.strategies.x[i]
    for j, c in enumerate(cols):
        y[c] = e.strategies.y[j]
    return (tuple(x), tuple(y)), e.payoff1, e.payoff2


def test_a_permuted_game_has_the_permuted_equilibria():
    # renaming the strategies renames the equilibria: the sweep, labels and
    # the oracle map a permuted game's equilibria onto the original's.
    # Ties in the sweep's start break by sorted labels, so a permuted game
    # may start from another basis: sets are compared, not traces
    methods = {
        "sweep": lambda g: enumerate_all(g).equilibria,
        "labels": equilibria_by_labels,
        "oracle": lambda g: support_enumeration(g).equilibria,
    }

    @settings(max_examples=100, deadline=None)
    @given(
        permuted_games(
            st.one_of(
                rank1_games(st.integers(1, 5), st.integers(1, 5)),
                rank1_games(st.integers(2, 5), st.integers(2, 5), tied=True),
                one_point_games(st.integers(1, 4)),
            )
        )
    )
    def check(tally, case):
        g, rows, cols = case
        h = _permuted(g, rows, cols)
        tally["drawn"] += 1
        try:
            want = {(e.key(), e.payoff1, e.payoff2) for e in enumerate_all(g).equilibria}
        except DegenerateGame:
            tally["degenerate"] += 1
            event("degenerate draw skipped")
            # a permutation keeps the labels of every vertex, so degeneracy
            with pytest.raises(DegenerateGame):
                enumerate_all(h)
            return
        for name, method in methods.items():
            assert {_unpermuted(e, rows, cols) for e in method(h)} == want, name
            assert {(e.key(), e.payoff1, e.payoff2) for e in method(g)} == want, name

    _run(check, "permuted")
