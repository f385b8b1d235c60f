"""Game file parsing and formatting."""

from __future__ import annotations

from pathlib import Path

import pytest

from rank1nash import (
    BimatrixGame,
    GameFileError,
    format_game,
    load_game,
    parse_game,
    rat,
)
from rank1nash.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# spellings the rational constructors take but the format does not: other
# Unicode digits (full-width, Arabic-Indic), underscores, decimals, exponents
OFF_GRAMMAR = ("１２", "٣", "1_000", "0.5", "1e-1", "3/-4", "1/2/3", "+-1", "½")


def test_parse_basic():
    g = parse_game("2 2\n1 2\n3 4\n5 6\n7 8\n")
    assert g.A == ((1, 2), (3, 4))
    assert g.B == ((5, 6), (7, 8))


def test_parse_comments_blanks_and_rationals():
    text = """
    # leading comment
    2 3

    -1/2 0 3
    7 1/3 -2   # trailing comment
    0 0 1
    1 1 1
    """
    g = parse_game(text)
    assert g.A[0] == (rat(-1, 2), 0, 3)
    assert g.A[1] == (7, rat(1, 3), -2)
    assert g.m == 2 and g.n == 3


def test_round_trip(unreach22, demo23):
    for g in (unreach22, demo23):
        assert parse_game(format_game(g)) == g
        assert parse_game(format_game(g, comment="two\nlines")) == g


def test_format_carries_comment():
    g = BimatrixGame.from_payoffs(((1,),), ((2,),))
    out = format_game(g, comment="what this is")
    assert out.splitlines()[0] == "# what this is"
    assert parse_game(out) == g


def test_parse_errors():
    for text in (
        "",
        "2\n1 2\n3 4\n5 6\n7 8\n",
        "2 2\n1 2\n3 4\n5 6\n",
        "2 2\n1 2\n3 4\n5 6\n7 8\n9 10\n",
        "2 2\n1 x\n3 4\n5 6\n7 8\n",
        "2 2\n1 2 3\n3 4\n5 6\n7 8\n",
        "0 2\n",
        "-1 2\n",
        "+1 1\n1\n1\n",
        "１ 1\n1\n1\n",
        "1_0 1\n" + "1\n" * 20,
        "2 2\n1 1/0\n3 4\n5 6\n7 8\n",
    ):
        with pytest.raises(GameFileError):
            parse_game(text)


def test_load_game_missing_file(tmp_path):
    with pytest.raises(GameFileError):
        load_game(str(tmp_path / "nope.game"))


def test_load_game_not_utf8(tmp_path):
    # a decoding failure is unreadable input, not a bad argument
    p = tmp_path / "bad.game"
    p.write_bytes(b"2 2\n1 2\n3 4\n\xff\xfe 1\n1 1\n")
    with pytest.raises(GameFileError):
        load_game(str(p))


def test_load_game_reads_file(tmp_path, unreach22):
    p = tmp_path / "g.game"
    p.write_text(format_game(unreach22))
    assert load_game(str(p)) == unreach22


def test_corpus_parses():
    paths = sorted(CORPUS.glob("*.game"))
    assert paths
    for path in paths:
        g = load_game(str(path))
        assert parse_game(format_game(g)) == g


def test_signed_and_padded_entries_parse():
    g = parse_game("1 3\n+3 -0 007/014\n1 1 1\n")
    assert g.A == ((3, 0, rat(1, 2)),)


@pytest.mark.parametrize("entry", OFF_GRAMMAR)
def test_entries_off_the_grammar_are_refused(entry, tmp_path):
    text = f"1 2\n{entry} 1\n0 0\n"
    with pytest.raises(GameFileError, match="A row 1: bad entry"):
        parse_game(text)
    path = tmp_path / "g.game"
    path.write_text(text, encoding="utf-8")
    assert main(["labels", str(path)]) == 3
    good = tmp_path / "ok.game"
    good.write_text("1 2\n1 1\n0 0\n", encoding="utf-8")
    assert main(["enumerate", str(good), "--factor", f"b={entry}", "c=1,1"]) == 3
