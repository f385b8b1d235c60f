"""The package's public surface: ``rank1nash.__all__``."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import rank1nash

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves_once():
    names = rank1nash.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(rank1nash, n)] == []


def test_star_import_binds_every_exported_name():
    ns: dict = {}
    exec("from rank1nash import *", ns)
    assert set(rank1nash.__all__) <= ns.keys()


def test_every_imported_public_name_is_exported():
    # the package root's imports are its re-exports, so a public name it
    # imports and leaves out of __all__ is a half-removed export
    tree = ast.parse(Path(rank1nash.__file__).read_text())
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    public = {n for n in bound if not n.startswith("_")}
    assert sorted(public - set(rank1nash.__all__)) == []


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert rank1nash.__version__ == version


def test_console_script_entry_point_runs():
    # pyproject.toml installs `rank1nash` as a call of this target; read
    # with a regex, as tomllib is missing before Python 3.11
    text = (ROOT / "pyproject.toml").read_text()
    (target,) = re.findall(r'^rank1nash = "([^"]+)"$', text, re.MULTILINE)
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name)(["--help"]) == 0
