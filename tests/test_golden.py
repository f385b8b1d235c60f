"""Byte-identical CLI output on every corpus game.

tests/golden/<game>.txt and <game>.json hold the stdout of
`rank1nash enumerate corpus/<game>.game --trace` and of the same command
with `--json`: the equilibria, the sweep table and the breakpoint records.
exit_codes.json holds the exit code both commands give. The other readers
of the vertex enumeration are pinned too: <game>.labels.json,
<game>.lh.json and <game>.gprime.json hold the stdout of `labels --json`,
`lh --all --json` and `gprime --json`, which exit 0 on every corpus game;
`lh --r r --json` must print entry r of the paths in <game>.lh.json.
A change that alters any of these fails here; if the change is intended,
regenerate a file with the command above.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from rank1nash.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


def test_golden_covers_the_corpus():
    games = sorted(p.stem for p in (ROOT / "corpus").glob("*.game"))
    assert games == sorted(EXIT_CODES)


@pytest.mark.parametrize("suffix", ["txt", "json"])
@pytest.mark.parametrize("game", sorted(EXIT_CODES))
def test_enumerate_matches_golden(game, suffix, capsys):
    argv = ["enumerate", str(ROOT / "corpus" / f"{game}.game"), "--trace"]
    if suffix == "json":
        argv.append("--json")
    assert main(argv) == EXIT_CODES[game]
    assert capsys.readouterr().out == (GOLDEN / f"{game}.{suffix}").read_text()


READERS = {"labels": ["labels"], "lh": ["lh", "--all"], "gprime": ["gprime"]}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("game", sorted(EXIT_CODES))
def test_vertex_readers_match_golden(game, reader, capsys):
    argv = READERS[reader] + [str(ROOT / "corpus" / f"{game}.game"), "--json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{game}.{reader}.json").read_text()


@pytest.mark.parametrize("game", sorted(EXIT_CODES))
def test_lh_run_matches_golden_paths(game, capsys):
    # lh --r r walks the same path that lh --all reports as entry r
    paths = json.loads((GOLDEN / f"{game}.lh.json").read_text())["paths"]
    for r, want in enumerate(paths, start=1):
        argv = ["lh", str(ROOT / "corpus" / f"{game}.game"), "--r", str(r), "--json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == json.dumps(want) + "\n"
