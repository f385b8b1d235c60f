"""Game containers, rank tools, special forms, payoff transforms."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_game, random_rank1_game, reweight
from rank1nash import (
    AddToColumnOfA,
    AddToRowOfB,
    BimatrixGame,
    FactorizationMismatch,
    IntegerPayoffs,
    MixedStrategyPair,
    NonPositiveScale,
    NotFullRank,
    NotRankOne,
    NotRowConstant,
    RankOneFactorization,
    ScaleColumnOfA,
    ScaleRowOfB,
    best_response_values,
    factor_rank1,
    game_rank,
    generate_kt,
    is_nash,
    loss,
    rat,
    reduce_rank,
    reduce_row_constant,
    support_enumeration,
    transform,
)
from rank1nash.linalg import vdot


def pair(x, y) -> MixedStrategyPair:
    return MixedStrategyPair.from_vectors(x, y)


def test_game_shape_and_payoff_sum(demo23):
    assert (demo23.m, demo23.n) == (2, 3)
    assert demo23.payoff_sum() == ((9, 9, 6), (5, 1, 10))


def test_mixed_strategy_validation():
    with pytest.raises(ValueError):
        pair((rat(1, 2), rat(1, 2)), (rat(2), rat(-1)))
    with pytest.raises(ValueError):
        pair((rat(1, 3), rat(1, 3)), (1, 0))
    p = pair(("1/2", "1/2"), (0, 1, 0))
    assert sum(p.x) == 1 and sum(p.y) == 1
    # the checks run on the entries cleared of denominators
    with pytest.raises(ValueError, match="must sum to 1"):
        pair((1, 0), (rat(1, 3), rat(1, 3), rat(1, 4)))
    with pytest.raises(ValueError, match="negative probability"):
        pair((rat(1, 2), rat(-1, 6), rat(2, 3)), (1,))
    p = pair((rat(1, 3), rat(1, 4), rat(5, 12)), (rat(5, 7), rat(2, 7)))
    assert sum(p.x) == 1 and sum(p.y) == 1


def test_is_nash_and_loss_on_demo(demo23):
    # the three equilibria, worked by hand from the best-response conditions
    for x, y, u1, u2 in (
        ((1, 0), (0, 1, 0), 1, 8),
        (("1/2", "1/2"), ("1/2", "1/2", 0), rat(3, 2), rat(9, 2)),
        (("2/5", "3/5"), ("1/2", 0, "1/2"), rat(7, 2), 4),
    ):
        ok, g1, g2 = is_nash(demo23, pair(x, y))
        assert ok and (g1, g2) == (u1, u2)
        assert loss(demo23, pair(x, y)) == 0
    bad = pair((0, 1), (1, 0, 0))
    ok, _, _ = is_nash(demo23, bad)
    assert not ok
    assert loss(demo23, bad) > 0


def _is_nash_reference(g, s):
    """is_nash as first written: A y and x^T B formed twice each."""
    u1 = vdot(s.x, tuple(vdot(row, s.y) for row in g.A))
    u2 = vdot(s.x, tuple(vdot(row, s.y) for row in g.B))
    b1, b2 = best_response_values(g, s)
    return (u1 == b1 and u2 == b2), u1, u2


PAYOFF = st.fractions(-5, 5, max_denominator=4)
# numerators up to 10**6 over denominators up to 10**3, as in rank1-bigrat
WIDE_PAYOFF = st.builds(rat, st.integers(-(10**6), 10**6), st.integers(1, 10**3))


@st.composite
def games_and_pairs(draw, payoff=PAYOFF, weight=6):
    """A game, its oracle equilibria and a random strategy pair."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = st.lists(st.lists(payoff, min_size=n, max_size=n), min_size=m, max_size=m)
    g = BimatrixGame.from_payoffs(draw(matrix), draw(matrix))
    weights = [
        draw(st.lists(st.integers(0, weight), min_size=k, max_size=k).filter(any))
        for k in (m, n)
    ]
    x, y = ([rat(w, sum(ws)) for w in ws] for ws in weights)
    pairs = [e.strategies for e in support_enumeration(g).equilibria]
    return g, pairs + [pair(x, y)]


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        games_and_pairs(), games_and_pairs(payoff=WIDE_PAYOFF, weight=10**4)
    )
)
def test_is_nash_matches_the_reference(drawn):
    g, pairs = drawn
    payoffs = IntegerPayoffs.of(g)
    for s in pairs:
        want = _is_nash_reference(g, s)
        assert is_nash(g, s) == want
        assert is_nash(g, s, payoffs) == want


def test_is_nash_length_errors_match_the_reference(demo23):
    for s in (pair((1,), (0, 1, 0)), pair((1, 0), (0, 1)), pair((1, 0, 0), (1,))):
        with pytest.raises(ValueError) as want:
            _is_nash_reference(demo23, s)
        with pytest.raises(ValueError) as got:
            is_nash(demo23, s)
        assert str(got.value) == str(want.value)


def test_best_response_values(demo23):
    # against y = e1 the best row pays 3; against x = e1 the best column pays 8
    assert best_response_values(demo23, pair((1, 0), (1, 0, 0))) == (3, 8)
    assert best_response_values(demo23, pair((0, 1), (0, 0, 1))) == (5, 6)


def test_loss_nonnegative_everywhere(demo23):
    rng = random.Random(93)
    for _ in range(50):
        cuts = sorted(rng.random() for _ in range(demo23.m - 1))
        x = [rat(round(v * 60), 60) for v in cuts] + [rat(1)]
        x = [b - a for a, b in zip([rat(0)] + x[:-1], x)]
        cuts = sorted(rng.random() for _ in range(demo23.n - 1))
        y = [rat(round(v * 60), 60) for v in cuts] + [rat(1)]
        y = [b - a for a, b in zip([rat(0)] + y[:-1], y)]
        assert loss(demo23, pair(x, y)) >= 0


def test_game_rank(demo23, unreach22):
    assert game_rank(demo23) == 2
    assert game_rank(unreach22) == 1
    zs = BimatrixGame.from_payoffs(((1, 2), (3, 4)), ((-1, -2), (-3, -4)))
    assert game_rank(zs) == 0


def test_factor_rank1_canonical(unreach22):
    f = factor_rank1(unreach22)
    assert f.c == (-18, 12)
    assert f.b == (1, rat(-2, 3))
    s = unreach22.payoff_sum()
    assert all(
        f.b[i] * f.c[j] == s[i][j] for i in range(2) for j in range(2)
    )


def test_factor_rank1_rejects_higher_rank(demo23):
    with pytest.raises(NotRankOne):
        factor_rank1(demo23)


def test_factor_rank1_agrees_with_the_rank():
    # b c^T = A + B is the rank-1 test; a rejection still reports the rank.
    # Rank-1 draws with zero rows and columns, rank-0 and full-rank draws
    rng = random.Random(7717)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        g = random_rank1_game(rng, m, n, -2, 2)
        if rng.random() < 0.3:
            g = random_game(rng, m, n, -1, 1)
        total = g.payoff_sum()
        if game_rank(g) == 1:
            f = factor_rank1(g)
            assert f == factor_rank1(g, total)
            f.require_matches(g)
            continue
        for args in ((g,), (g, total)):
            with pytest.raises(NotRankOne) as err:
                factor_rank1(*args)
            assert str(err.value) == f"rank(A+B) = {game_rank(g)}, need 1"


def _factor_rank1_reference(s):
    """factor_rank1 as first written, in rationals: (b, c), or None when
    b c^T != A + B."""
    c = next((row for row in s if any(v != 0 for v in row)), None)
    if c is None:
        return None
    j0 = next(j for j, v in enumerate(c) if v != 0)
    b = tuple(row[j0] / c[j0] for row in s)
    if all(bi * cj == v for bi, row in zip(b, s) for cj, v in zip(c, row)):
        return b, c
    return None


def test_factor_rank1_matches_the_rational_formula():
    # fractional totals with zero rows (b_i = 0), zero leading columns
    # (c_j = 0) and negative entries, some made rank 2 by one changed entry
    rng = random.Random(9151)

    def draw():
        return rat(rng.randint(-40, 40), rng.randint(1, 9))

    kinds = set()
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        b = [draw() if rng.random() < 0.6 else rat(0) for _ in range(m)]
        c = [draw() if rng.random() < 0.6 else rat(0) for _ in range(n)]
        a = [[draw() for _ in range(n)] for _ in range(m)]
        bm = [[b[i] * c[j] - a[i][j] for j in range(n)] for i in range(m)]
        if rng.random() < 0.3:
            bm[rng.randrange(m)][rng.randrange(n)] += draw()
        g = BimatrixGame.from_payoffs(a, bm)
        want = _factor_rank1_reference(g.payoff_sum())
        if want is None:
            with pytest.raises(NotRankOne) as err:
                factor_rank1(g)
            assert str(err.value) == f"rank(A+B) = {game_rank(g)}, need 1"
            kinds.add(game_rank(g))
            continue
        f = factor_rank1(g)
        assert (f.b, f.c) == want
        kinds.add((want[1][0] == 0, any(v == 0 for v in want[0])))
    assert kinds >= {0, 2, (True, True), (False, False)}


def test_factorization_for_game(unreach22):
    f = RankOneFactorization.for_game(unreach22, (3, -2), (-6, 4))
    assert f.b == (3, -2)
    with pytest.raises(FactorizationMismatch):
        RankOneFactorization.for_game(unreach22, (1, 1), (-18, 12))
    with pytest.raises(FactorizationMismatch):
        RankOneFactorization.for_game(unreach22, (1,), (-18, 12))


def test_reduce_rank_drops_rank_and_keeps_equilibria():
    rng = random.Random(2718)
    done = 0
    while done < 20:
        g = random_game(rng, 3, 3)
        if game_rank(g) != 3:
            continue
        red = reduce_rank(g)
        assert game_rank(red.game) == 2
        assert red.game.B == g.B
        # adding lam to one column of A shifts player 1 payoffs only
        before = support_enumeration(g)
        after = support_enumeration(red.game)
        if before.degenerate_suspect or after.degenerate_suspect:
            continue
        assert [e.key() for e in before.equilibria] == [
            e.key() for e in after.equilibria
        ]
        for e0, e1 in zip(before.equilibria, after.equilibria):
            shift = red.lam * e0.strategies.y[red.column]
            assert e1.payoff1 == e0.payoff1 + shift
            assert e1.payoff2 == e0.payoff2
        done += 1


def test_reduce_rank_preconditions(demo23, unreach22):
    with pytest.raises(NotFullRank):
        reduce_rank(demo23)  # not square
    with pytest.raises(NotFullRank):
        reduce_rank(unreach22)  # rank 1 already
    with pytest.raises(NotFullRank):
        reduce_rank(BimatrixGame.from_payoffs(((1,),), ((1,),)))


def test_reduce_rank_twice_reaches_rank_one():
    g = BimatrixGame.from_payoffs(
        ((5, 1, 2), (0, 4, 1), (2, 2, 6)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    )
    assert game_rank(g) == 3
    r1 = reduce_rank(g)
    assert game_rank(r1.game) == 2
    # the reduced game is no longer full rank, so a second step refuses
    with pytest.raises(NotFullRank):
        reduce_rank(r1.game)


def test_reduce_row_constant():
    g = BimatrixGame.from_payoffs(((1, 2), (3, 4)), ((4, 3), (-1, -2)))
    z = reduce_row_constant(g, (5, 2))
    assert all(v == 0 for row in z.payoff_sum() for v in row)
    assert z.A == g.A
    with pytest.raises(NotRowConstant):
        reduce_row_constant(g, (5, 3))
    with pytest.raises(NotRowConstant):
        reduce_row_constant(generate_kt(2), (1, 1))


def _strategy_sets(g: BimatrixGame) -> list[tuple]:
    res = support_enumeration(g)
    assert not res.degenerate_suspect
    return [e.key() for e in res.equilibria]


def test_additive_transforms_preserve_equilibria(unreach22, demo23):
    for g in (unreach22, demo23):
        base = _strategy_sets(g)
        for op in (
            AddToColumnOfA(0, rat(7)),
            AddToColumnOfA(1, rat(-3, 2)),
            AddToRowOfB(0, rat(11, 3)),
            AddToRowOfB(1, rat(-5)),
        ):
            assert _strategy_sets(transform(g, op)) == base


def test_scaling_transforms_move_mixed_points(unreach22):
    # multiplying row 1 of B by 2 relocates the mixed equilibrium:
    # x = (1/5, 4/5) maps to (1/10, 8/10) renormalized = (1/9, 8/9)
    scaled = transform(unreach22, ScaleRowOfB(0, 2))
    keys = _strategy_sets(scaled)
    assert (tuple(map(rat, ("1/9", "8/9"))), tuple(map(rat, ("1/5", "4/5")))) in keys
    assert keys != _strategy_sets(unreach22)


def test_scaling_transforms_bijection():
    # scaling a row of B (column of A) by f > 0 maps each equilibrium
    # (x, y) to (x', y) with x'_i proportional to x_i / f_i; counts match
    rng = random.Random(5077)
    done = 0
    while done < 15:
        g = random_rank1_game(rng, rng.randint(2, 3), rng.randint(2, 3))
        res = support_enumeration(g)
        if res.degenerate_suspect or not res.equilibria:
            continue
        row = rng.randrange(g.m)
        fac = rat(rng.randint(1, 5), rng.randint(1, 5))
        scaled = transform(g, ScaleRowOfB(row, fac))
        res2 = support_enumeration(scaled)
        if res2.degenerate_suspect:
            continue
        want = sorted(
            (reweight(e.strategies.x, row, fac), e.strategies.y)
            for e in res.equilibria
        )
        assert [e.key() for e in res2.equilibria] == want
        done += 1


def test_scale_rejects_nonpositive(unreach22):
    with pytest.raises(NonPositiveScale):
        transform(unreach22, ScaleColumnOfA(0, 0))
    with pytest.raises(NonPositiveScale):
        transform(unreach22, ScaleRowOfB(1, rat(-1, 2)))


def test_transform_rejects_an_index_out_of_range():
    # a 2 x 3 game, so a column index of 2 is in range and a row index is not
    g = BimatrixGame.from_payoffs(((1, 2, 3), (4, 5, 6)), ((6, 5, 4), (3, 2, 1)))
    for op, size in (
        (AddToColumnOfA, 3),
        (ScaleColumnOfA, 3),
        (AddToRowOfB, 2),
        (ScaleRowOfB, 2),
    ):
        for index in (-1, size, 5):
            with pytest.raises(ValueError, match=f"{index} out of range"):
                transform(g, op(index, 2))
        assert transform(g, op(size - 1, 2)) != g


def test_generate_kt_goldens():
    g1 = generate_kt(1)
    assert g1.A == ((2,),) and g1.B == ((2,),)
    g2 = generate_kt(2)
    assert g2.A == ((2, 7), (1, 8))
    assert g2.B == ((2, 1), (7, 8))
    # A + B = (2i)(2j) has rank one for every d
    for d in (1, 2, 3, 4):
        assert game_rank(generate_kt(d)) == 1
    with pytest.raises(ValueError):
        generate_kt(0)
