"""Byte-identical CLI output on every corpus game.

tests/golden/<game>.txt and <game>.json hold the stdout of
`rank1nash enumerate corpus/<game>.game --trace` and of the same command
with `--json`: the equilibria, the sweep table and the breakpoint records.
exit_codes.json holds the exit code both commands give. The other readers
of the vertex enumeration are pinned too: <game>.labels.json,
<game>.lh.json and <game>.gprime.json hold the stdout of `labels --json`,
`lh --all --json` and `gprime --json`, which exit 0 on every corpus game;
`lh --r r --json` must print entry r of the paths in <game>.lh.json.
commands.txt holds the exit code, stdout and stderr of every other
command variant on every corpus game (COMMANDS below), one block each:
a `$ rank1nash ...` line, an `exit: N` line, then each line of stdout as
`out| ...` and of stderr as `err| ...`. A change that alters any of these
fails here; if the change is intended, regenerate a file with the command
above, or commands.txt with
`PYTHONPATH=src python tests/test_golden.py > tests/golden/commands.txt`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
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


# the variants the files above leave out, each run on every corpus game
COMMANDS = [["labels"], ["lh", "--all"], ["lh", "--r", "1"], ["gprime"]] + [
    [*cmd, *flag]
    for cmd in (["oracle"], ["oracle", "--strict"], ["rank"], ["reduce-rank"], ["check"])
    for flag in ([], ["--json"])
]
GOLDEN_ARGVS = [
    [cmd[0], f"corpus/{game}.game", *cmd[1:]]
    for game in sorted(EXIT_CODES)
    for cmd in COMMANDS
]


def _block(argv) -> str:
    # argv names the game relative to the repository root
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([argv[0], str(ROOT / argv[1]), *argv[2:]])
    lines = [f"$ rank1nash {' '.join(argv)}", f"exit: {rc}"]
    for tag, text in (("out", out.getvalue()), ("err", err.getvalue())):
        if text and not text.endswith("\n"):
            raise ValueError(f"{argv}: std{tag} does not end in a newline")
        lines += [f"{tag}| {line}" for line in text.splitlines()]
    return "\n".join(lines) + "\n"


def _golden_blocks() -> dict[str, str]:
    blocks: dict[str, str] = {}
    for line in (GOLDEN / "commands.txt").read_text().splitlines(keepends=True):
        if line.startswith("$ "):
            head = line.rstrip("\n")
            blocks[head] = ""
        blocks[head] += line
    return blocks


GOLDEN_BLOCKS = _golden_blocks()


def test_commands_golden_covers_every_variant():
    assert list(GOLDEN_BLOCKS) == [f"$ rank1nash {' '.join(a)}" for a in GOLDEN_ARGVS]


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
def test_command_matches_golden(argv):
    assert _block(argv) == GOLDEN_BLOCKS[f"$ rank1nash {' '.join(argv)}"]


if __name__ == "__main__":
    sys.stdout.write("".join(_block(argv) for argv in GOLDEN_ARGVS))
