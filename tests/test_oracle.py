"""Support enumeration used as the independent cross-check."""

from __future__ import annotations

from itertools import combinations_with_replacement
from pathlib import Path

from rank1nash import (
    BimatrixGame,
    EquilibriumPoint,
    MixedStrategyPair,
    OracleResult,
    generate_kt,
    is_nash,
    rat,
    support_enumeration,
)
from rank1nash import oracle

from conftest import cli_code, solvers_after

# degenerate games with the strict scan's equilibria, as (x, y, payoff1,
# payoff2), and the number of them a plain scan also finds; the others lie
# on supports of unequal sizes, whose indifference systems have free
# variables
STRICT = [
    (
        ((1, 1), (1, 1)),
        ((1, 1), (1, 1)),
        [
            ("0 1", "0 1", "1", "1"),
            ("0 1", "1 0", "1", "1"),
            ("1 0", "0 1", "1", "1"),
            ("1 0", "1 0", "1", "1"),
        ],
        4,
    ),
    (
        ((1, 1, 0), (1, 1, 0)),
        ((2, 1, 0), (0, 1, 2)),
        [
            ("0 1", "0 0 1", "0", "2"),
            ("1/2 1/2", "0 0 1", "0", "1"),
            ("1 0", "1 0 0", "1", "2"),
        ],
        2,
    ),
    (
        ((2, 0, 2), (1, 2, 1)),
        ((1, 1, 2), (2, 2, 2)),
        [
            ("0 1", "0 1 0", "2", "2"),
            ("0 1", "2/3 1/3 0", "4/3", "2"),
            ("1 0", "0 0 1", "2", "2"),
        ],
        2,
    ),
    (
        ((1, 1, 1), (1, 1, 1), (1, 1, 2)),
        ((0, 1, 0), (1, 0, 1), (2, 0, 2)),
        [
            ("0 0 1", "0 0 1", "2", "2"),
            ("0 0 1", "1 0 0", "1", "2"),
            ("0 1 0", "1 0 0", "1", "1"),
            ("1/2 1/2 0", "1 0 0", "1", "1/2"),
            ("2/3 0 1/3", "1 0 0", "1", "2/3"),
            ("1 0 0", "0 1 0", "1", "1"),
        ],
        4,
    ),
    (
        ((2, 2, 0), (0, 0, 0), (2, 0, 0)),
        ((0, 2, 2), (1, 0, 0), (2, 0, 0)),
        [
            ("0 0 1", "1 0 0", "2", "2"),
            ("1/3 2/3 0", "0 0 1", "0", "2/3"),
            ("1/2 0 1/2", "0 0 1", "0", "1"),
            ("1 0 0", "0 0 1", "0", "2"),
            ("1 0 0", "0 1 0", "2", "2"),
        ],
        3,
    ),
]


def test_demo_game_equilibria(demo23):
    res = support_enumeration(demo23)
    assert not res.degenerate_suspect
    assert [
        (e.strategies.x, e.strategies.y, e.payoff1, e.payoff2)
        for e in res.equilibria
    ] == [
        ((rat(2, 5), rat(3, 5)), (rat(1, 2), rat(0), rat(1, 2)), rat(7, 2), rat(4)),
        ((rat(1, 2), rat(1, 2)), (rat(1, 2), rat(1, 2), rat(0)), rat(3, 2), rat(9, 2)),
        ((rat(1), rat(0)), (rat(0), rat(1), rat(0)), rat(1), rat(8)),
    ]


def test_unreachable_game_equilibria(unreach22):
    res = support_enumeration(unreach22)
    assert not res.degenerate_suspect
    assert [(e.payoff1, e.payoff2) for e in res.equilibria] == [
        (-8, 20),
        (-20, 18),
        (-18, 30),
    ]


def _strict_games():
    return [BimatrixGame.from_payoffs(a, b) for a, b, _, _ in STRICT]


def test_strict_scan_is_pinned():
    for g, (_, _, eqs, plain) in zip(_strict_games(), STRICT):
        want = OracleResult(
            tuple(
                EquilibriumPoint(
                    MixedStrategyPair.from_vectors(x.split(), y.split()),
                    rat(u1),
                    rat(u2),
                )
                for x, y, u1, u2 in eqs
            ),
            degenerate_suspect=True,
        )
        assert repr(support_enumeration(g, strict=True)) == repr(want)
        got = {e.key() for e in support_enumeration(g).equilibria}
        assert len(got) == plain and got <= {e.key() for e in want.equilibria}
    # past the all-ones game, each strict scan finds more than a plain one
    assert all(plain < len(eqs) for _, _, eqs, plain in STRICT[1:])


def test_every_result_is_nash(demo23, unreach22, disconnected33):
    scans = [(g, False) for g in (demo23, unreach22, disconnected33)]
    scans += [(g, True) for g in _strict_games()]
    for g, strict in scans:
        for e in support_enumeration(g, strict).equilibria:
            ok, u1, u2 = is_nash(g, e.strategies)
            assert ok and (u1, u2) == (e.payoff1, e.payoff2)


def _simplex_grid(k: int, den: int):
    """All points with coordinates i/den on the (k-1)-simplex."""
    for bars in combinations_with_replacement(range(den + 1), k - 1):
        parts = (
            [bars[0]]
            + [b - a for a, b in zip(bars, bars[1:])]
            + [den - bars[-1]]
        )
        yield tuple(rat(p, den) for p in parts)


def test_grid_completeness(demo23):
    # no Nash point with denominator 10 escapes the oracle
    found = {e.key() for e in support_enumeration(demo23).equilibria}
    hits = set()
    for x in _simplex_grid(2, 10):
        for y in _simplex_grid(3, 10):
            s = MixedStrategyPair(x, y)
            ok, _, _ = is_nash(demo23, s)
            if ok:
                hits.add((x, y))
    assert hits == found


def test_degenerate_flag_and_strict_mode():
    ones = ((1, 1), (1, 1))
    g = BimatrixGame.from_payoffs(ones, ones)
    res = support_enumeration(g)
    assert res.degenerate_suspect
    # the four pure profiles are genuine equilibria and survive
    assert {e.key() for e in res.equilibria} == {
        ((rat(1), rat(0)), (rat(1), rat(0))),
        ((rat(1), rat(0)), (rat(0), rat(1))),
        ((rat(0), rat(1)), (rat(1), rat(0))),
        ((rat(0), rat(1)), (rat(0), rat(1))),
    }
    strict = support_enumeration(g, strict=True)
    assert strict.degenerate_suspect
    assert {e.key() for e in strict.equilibria} >= {
        e.key() for e in res.equilibria
    }


def test_strict_mode_agrees_on_nondegenerate(demo23, unreach22):
    for g in (demo23, unreach22):
        a = support_enumeration(g)
        b = support_enumeration(g, strict=True)
        assert [e.key() for e in a.equilibria] == [e.key() for e in b.equilibria]
        assert not b.degenerate_suspect


def test_column_half_waits_for_the_row_half(monkeypatch, demo23, disconnected33):
    # a support pair solves the column player's indifference system only
    # once the row player's has a solution that is nonnegative and has no
    # better row off its support; pinned as (row, column) solves, plain and
    # strict. Solving both halves first took 52, 128, 125, 419, 8, 17, 18
    # and 34 column solves
    calls = []

    def counted(mat, own, other):
        calls.append(mat is g.A)
        return original(mat, own, other)

    original = oracle._indifferent
    monkeypatch.setattr(oracle, "_indifferent", counted)
    pins = [
        (generate_kt(4), (69, 14), (225, 14)),
        (generate_kt(5), (251, 25), (961, 25)),
        (demo23, (9, 5), (21, 5)),
        (disconnected33, (19, 7), (49, 7)),
    ]
    for g, plain, strict in pins:
        for want, scan in ((plain, False), (strict, True)):
            calls.clear()
            support_enumeration(g, scan)
            assert (calls.count(True), calls.count(False)) == want


def test_oracle_runs_no_other_solver():
    # in a fresh interpreter, the library call and the CLI command each
    # leave polytopes, parametric and lemke_howson unloaded, so the oracle
    # reaches no vertex walk through games, linalg or the package root,
    # which a scan of oracle.py alone would not see
    path = Path(__file__).resolve().parent.parent / "corpus" / "kt4.game"
    library = (
        "from rank1nash import generate_kt, support_enumeration\n"
        "if len(support_enumeration(generate_kt(4)).equilibria) != 7:\n"
        "    raise SystemExit('kt4 has seven equilibria')"
    )
    command = cli_code(["oracle", str(path)])
    assert solvers_after(library) == solvers_after(command) == ["oracle"]
