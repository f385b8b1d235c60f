"""Command-line behavior: output shape, exit codes, JSON mode."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rank1nash import (
    DegenerateGame,
    FactorizationMismatch,
    GameFileError,
    InternalInvariantError,
    NonPositiveScale,
    NotFullRank,
    NotRankOne,
    NotRowConstant,
    Rank1NashError,
    SingularMatrix,
    Stalled,
    cli,
    equilibria_by_labels,
    format_game,
    games,
    generate_kt,
    gprime_components,
    load_game,
    polytopes,
)
from rank1nash.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


@pytest.fixture
def unreach_path() -> str:
    return str(CORPUS / "unreachable-2x2.game")


@pytest.fixture
def demo_path() -> str:
    return str(CORPUS / "demo-2x3.game")


@pytest.fixture
def degen_path(tmp_path) -> str:
    p = tmp_path / "degen.game"
    p.write_text("2 2\n1 1\n1 1\n1 1\n1 1\n")
    return str(p)


def test_enumerate_human(unreach_path, capsys):
    assert main(["enumerate", unreach_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dispatch: general"
    assert out[1] == "factorization: b=(1, -2/3) c=(-18, 12)"
    assert out[2] == "xi range: [-18, 12]"
    assert out[3] == "equilibria: 3"
    assert "x=(1/5, 4/5) y=(1/5, 4/5) payoffs=(-20, 18) xi=6" in out


def test_enumerate_trace(capsys, tmp_path):
    p = tmp_path / "kt2.game"
    p.write_text(format_game(generate_kt(2)))
    rc = main(
        ["enumerate", str(p), "--factor", "b=2,4", "c=2,4", "--trace"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "xi=2 objective=0 binding={2,3,5,8}" in out
    assert "(2, 5/2) objective<0 binding={2,3,5}" in out
    assert "xi=5/2 objective=-1/4 binding={2,3,4,5}" in out
    assert "pivot at xi=3: feasibility, row 5 leaves, row 6 enters" in out


def test_enumerate_json(unreach_path, capsys):
    assert main(["enumerate", unreach_path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["dispatch"] == "general"
    assert obj["xi_range"] == ["-18", "12"]
    assert {(e["payoff1"], e["payoff2"]) for e in obj["equilibria"]} == {
        ("-8", "20"),
        ("-20", "18"),
        ("-18", "30"),
    }
    mixed = next(e for e in obj["equilibria"] if e["x"] == ["1/5", "4/5"])
    assert mixed["source_xi"] == "6"


def test_enumerate_bad_factor(unreach_path, capsys):
    assert main(["enumerate", unreach_path, "--factor", "b=1,1", "c=2,2"]) == 4
    assert main(["enumerate", unreach_path, "--factor", "b=1;1", "c=2,2"]) == 3


def test_zero_sum_enumerate_checks_a_factorization_and_reports_none(capsys):
    # A + B = 0 = b c^T for b = 0 and any c, so the factorization is accepted;
    # the sweep runs on b = c = 0 at xi = 0, which the given c = (1, 5) would
    # contradict, so it is not reported
    path = str(CORPUS / "zero-sum-2x2.game")
    args = ["enumerate", path, "--factor", "b=0,0", "c=1,5"]
    assert main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["dispatch: zero-sum", "xi range: [0, 0]", "equilibria: 1"]
    assert not [line for line in out if line.startswith("factorization:")]
    assert main([*args, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["dispatch"], obj["factorization"]) == ("zero-sum", None)
    assert obj["xi_range"] == ["0", "0"]


def test_enumerate_wrong_rank(demo_path):
    assert main(["enumerate", demo_path]) == 4


def test_enumerate_degenerate(degen_path):
    assert main(["enumerate", degen_path]) == 2


# path commands on a degenerate game: the paths are not well defined there
PATH_COMMANDS = (["lh", "--r", "1"], ["lh", "--all"], ["gprime"])


def test_paths_degenerate(degen_path, capsys):
    for cmd, *rest in PATH_COMMANDS:
        assert main([cmd, degen_path, *rest]) == 2
        assert capsys.readouterr().err.startswith("degenerate game: vertex")


def test_paths_degenerate_under_optimize(degen_path):
    # -O strips asserts: the rejection must not rest on one
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for cmd, *rest in PATH_COMMANDS:
        out = subprocess.run(
            [sys.executable, "-O", "-m", "rank1nash.cli", cmd, degen_path, *rest],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert out.returncode == 2, out.stdout + out.stderr


def test_failed_equilibrium_check_exits_5(demo_path, unreach_path, monkeypatch, capsys):
    # every equilibrium check runs the one integer Nash test: is_nash after
    # clearing its arguments, and polytopes' vertex-pair helper on the
    # vertices' keys, for labels, lh, gprime and the sweep alike
    for mod in (games, polytopes):
        monkeypatch.setattr(mod, "_integer_nash_test", lambda *args: (False, 0, 0))
    with pytest.raises(InternalInvariantError):
        equilibria_by_labels(load_game(demo_path))
    with pytest.raises(InternalInvariantError):
        gprime_components(load_game(demo_path))
    for args in (
        ["labels", demo_path],
        ["gprime", demo_path],
        ["lh", demo_path, "--r", "1"],
        ["lh", demo_path, "--all"],
        ["enumerate", unreach_path],
    ):
        assert main(args) == 5, args
        assert "InternalInvariantError" in capsys.readouterr().err


def _package_errors(cls=Rank1NashError):
    """Every subclass of cls, however deep."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _package_errors(sub)


PRECONDITIONS = (
    NotRankOne,
    NotFullRank,
    NotRowConstant,
    NonPositiveScale,
    FactorizationMismatch,
)
INTERNAL = (SingularMatrix, Stalled, InternalInvariantError)
# each package error's exit code and stderr prefix; ValueError, which no
# package class is, reads as a violated precondition
EXIT_CODES = [
    (DegenerateGame, 2, "degenerate game: "),
    (GameFileError, 3, "error: "),
    *((cls, 4, "error: ") for cls in PRECONDITIONS),
    *((cls, 5, f"internal error: {cls.__name__}: ") for cls in INTERNAL),
    (ValueError, 4, "error: "),
]


@pytest.mark.parametrize(
    "cls, rc, prefix", EXIT_CODES, ids=[cls.__name__ for cls, _, _ in EXIT_CODES]
)
def test_each_error_class_exits_with_its_code(
    demo_path, monkeypatch, capsys, cls, rc, prefix
):
    # a class added to the package fails here until its code is in the table
    assert {c for c, _, _ in EXIT_CODES} - {ValueError} == set(_package_errors())

    def fail(g, args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_rank", fail)
    assert main(["rank", demo_path]) == rc
    assert capsys.readouterr() == ("", prefix + "boom\n")


def test_oracle_and_labels(demo_path, capsys):
    assert main(["oracle", demo_path]) == 0
    out = capsys.readouterr().out
    assert "equilibria: 3" in out
    assert "x=(1/2, 1/2) y=(1/2, 1/2, 0) payoffs=(3/2, 9/2)" in out
    assert main(["labels", demo_path]) == 0
    out = capsys.readouterr().out
    assert "labels={2,4}|{1,3,5}" in out


def test_oracle_no_false_degeneracy_warning(tmp_path, capsys):
    # zero-sum 5x3 game whose four duplicate rows are never best replies:
    # their square support systems are singular, yet the game is
    # non-degenerate, so the oracle must not warn
    rows = ["0 0 -1"] * 4 + ["1 1 0"]
    neg = ["0 0 1"] * 4 + ["-1 -1 0"]
    p = tmp_path / "zs53.game"
    p.write_text("5 3\n" + "\n".join(rows + neg) + "\n")
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out == "non-degenerate\n"
    assert main(["oracle", str(p)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "equilibria: 1\nx=(0, 0, 0, 0, 1) y=(0, 0, 1) payoffs=(0, 0)\n"
    assert captured.err == ""


def test_lh_single_and_all(unreach_path, capsys):
    assert main(["lh", unreach_path, "--r", "1"]) == 0
    out = capsys.readouterr().out
    assert (
        out.splitlines()[0]
        == "r=1: ({1,2}|{3,4}) -> ({2,4}|{3,4}) -> ({2,4}|{1,3})"
    )
    assert "terminal: x=(1, 0) y=(0, 1) payoffs=(-18, 30)" in out
    assert main(["lh", unreach_path, "--all"]) == 0
    out = capsys.readouterr().out
    assert "unreached: x=(1/5, 4/5) y=(1/5, 4/5) payoffs=(-20, 18)" in out


def test_lh_all_text_when_every_equilibrium_is_reached(capsys):
    assert main(["lh", str(CORPUS / "kt1.game"), "--all"]) == 0
    assert capsys.readouterr().out == (
        "r=1: ({1}|{2}) -> ({2}|{2}) -> ({2}|{1})\n"
        "  terminal: x=(1) y=(1) payoffs=(2, 2)\n"
        "r=2: ({1}|{2}) -> ({1}|{1}) -> ({2}|{1})\n"
        "  terminal: x=(1) y=(1) payoffs=(2, 2)\n"
        "unreached: none\n"
    )


def test_lh_bad_label(unreach_path):
    assert main(["lh", unreach_path, "--r", "9"]) == 4


def test_gprime(capsys):
    assert main(["gprime", str(CORPUS / "disconnected-3x3.game")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "components: 34"
    assert out[1] == "artificial pair component: 0"
    assert sum("with-artificial=no" in l for l in out) == 2


def test_rank_and_check(demo_path, degen_path, capsys):
    assert main(["rank", demo_path]) == 0
    assert capsys.readouterr().out == "rank: 2\n"
    assert main(["check", demo_path]) == 0
    assert capsys.readouterr().out == "non-degenerate\n"
    assert main(["check", degen_path]) == 2
    assert capsys.readouterr().out.startswith("degenerate: vertex")
    assert main(["check", degen_path, "--json"]) == 2
    obj = json.loads(capsys.readouterr().out)
    assert obj["nondegenerate"] is False and "witness" in obj


def test_reduce_rank_round_trip(tmp_path, capsys):
    src = tmp_path / "full.game"
    src.write_text("2 2\n1 0\n0 1\n1 0\n0 1\n")
    assert main(["reduce-rank", str(src)]) == 0
    out = capsys.readouterr().out
    dst = tmp_path / "reduced.game"
    dst.write_text(out)
    assert main(["rank", str(dst)]) == 0
    assert capsys.readouterr().out == "rank: 1\n"


ONES_2X2 = "2 2\n1 1\n1 1\n1 1\n1 1\n"


@pytest.mark.parametrize(
    "game, args, rc, stream, text",
    [
        ("demo-2x3", ["rank", "--json"], 0, "out", '{"m": 2, "n": 3, "rank": 2}\n'),
        (
            "2 2\n1 2\n3 4\n5 6\n7 8\n",
            ["reduce-rank", "--json"],
            0,
            "out",
            '"column": 0, "lam": "2", "rank": 1',
        ),
        ("demo-2x3", ["oracle", "--json"], 0, "out", '"degenerate_suspect": false'),
        (ONES_2X2, ["oracle"], 0, "err", "warning: degenerate suspect\n"),
        (
            "unreachable-2x2",
            ["enumerate", "--factor", "x=1", "c=2"],
            3,
            "err",
            "got 'x=1'",
        ),
        (
            "unreachable-2x2",
            ["enumerate", "--factor", "b=1,2", "b=2,3"],
            3,
            "err",
            "--factor needs both b=... and c=...",
        ),
    ],
)
def test_json_warning_and_factor_branches(tmp_path, capsys, game, args, rc, stream, text):
    # a game is a corpus name or the text of a game file
    if "\n" in game:
        path = tmp_path / "inline.game"
        path.write_text(game)
    else:
        path = CORPUS / f"{game}.game"
    assert main([args[0], str(path), *args[1:]]) == rc
    captured = capsys.readouterr()
    assert text in (captured.out if stream == "out" else captured.err)


def test_generate_matches_library(capsys):
    assert main(["generate", "--kt", "--d", "3"]) == 0
    out = capsys.readouterr().out
    from rank1nash import parse_game

    assert parse_game(out) == generate_kt(3)


def test_generate_bad_d(capsys):
    assert main(["generate", "--kt", "--d", "0"]) == 4
    assert capsys.readouterr().err == "error: d must be >= 1\n"


def test_parse_failures(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text("2 2\n1 2\n3 4\n5 oops\n7 8\n")
    assert main(["enumerate", str(bad)]) == 3
    assert main(["enumerate", str(tmp_path / "missing.game")]) == 3
    assert main(["no-such-command"]) == 3
    assert main([]) == 3


def test_non_utf8_game_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_bytes(b"2 2\n1 2\n3 4\n\xff\xfe 1\n1 1\n")
    assert main(["check", str(bad)]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "enumerate" in capsys.readouterr().out


def test_entry_of_5000_digits(tmp_path, capsys):
    # Python refuses int-str conversions past 4,300 digits by default; the
    # CLI lifts that limit for its run and gives the caller's back
    limit = sys.get_int_max_str_digits()
    rng = random.Random(20)
    entry = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=4999))
    path = tmp_path / "wide.game"
    path.write_text(f"1 1\n{entry}\n-{entry}\n")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "non-degenerate\n"
    assert main(["labels", str(path), "--json"]) == 0
    (eq,) = json.loads(capsys.readouterr().out)["equilibria"]
    assert (eq["payoff1"], eq["payoff2"]) == (entry, f"-{entry}")
    assert sys.get_int_max_str_digits() == limit


def _wide_strs(*values) -> list[str]:
    """The str of each value, however wide, with Python's int-str digit
    limit lifted for these conversions alone."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


def test_zero_sum_game_of_3000_digit_entries(tmp_path, capsys):
    # A = ((a, -b), (-c, d)), B = -A with a..d > 0 of 3,000 digits: the one
    # equilibrium is completely mixed, x1 = (c+d)/s and y1 = (b+d)/s with
    # value (ad - bc)/s, s = a+b+c+d; every command prints it exactly
    limit = sys.get_int_max_str_digits()
    rng = random.Random(3000)
    a, b, c, d = (rng.randrange(10**2999, 10**3000) for _ in range(4))
    path = tmp_path / "zero-sum.game"
    path.write_text(f"2 2\n{a} {-b}\n{-c} {d}\n{-a} {b}\n{c} {-d}\n")
    s = a + b + c + d
    x1, y1, value = Fraction(c + d, s), Fraction(b + d, s), Fraction(a * d - b * c, s)
    x = _wide_strs(x1, 1 - x1)
    y = _wide_strs(y1, 1 - y1)
    want = dict(zip(["payoff1", "payoff2"], _wide_strs(value, -value)), x=x, y=y)

    def shown(eq):
        return {key: eq[key] for key in want}

    for command in ("check", "enumerate", "labels", "oracle", "gprime"):
        assert main([command, str(path), "--json"]) == 0, command
        out = json.loads(capsys.readouterr().out)
        assert [shown(eq) for eq in out.get("equilibria", [want])] == [want], command
    assert main(["lh", str(path), "--all", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["unreached"] == [] and len(out["paths"]) == 4
    assert all(shown(path["terminal"]) == want for path in out["paths"])
    assert sys.get_int_max_str_digits() == limit
