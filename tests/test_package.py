"""The package's public surface: ``rank1nash.__all__``, its result records
and what importing it loads."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rank1nash
from rank1nash import (
    AddToColumnOfA,
    AddToRowOfB,
    BimatrixGame,
    IntegerPayoffs,
    ScaleColumnOfA,
    ScaleRowOfB,
    enumerate_all,
    generate_kt,
    gprime_components,
    rat,
    reachability,
    reduce_rank,
    require_nondegenerate,
    support_enumeration,
    sweep_table,
)
from rank1nash.record import Record

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


def _record_samples() -> list[Record]:
    """One instance of each result record of the package, from kt3's runs."""
    g = generate_kt(3)
    trace = enumerate_all(g)
    iv, eq = trace.intervals[0], trace.equilibria[0]
    reach = reachability(g)
    path = reach.paths[0]
    full_rank = BimatrixGame.from_payoffs([[1, 0], [0, 1]], [[0, 0], [0, 0]])
    ops = [AddToColumnOfA(0, rat(1)), AddToRowOfB(0, rat(1))]
    ops += [ScaleColumnOfA(0, rat(2)), ScaleRowOfB(0, rat(2))]
    return [
        g, trace, iv, iv.basis, iv.objective, trace.breakpoints[0],
        sweep_table(trace)[0], eq, eq.strategies, trace.factorization,
        IntegerPayoffs.of(g), reduce_rank(full_rank), *ops,
        require_nondegenerate(g)[0], reach, path, path.steps[0],
        gprime_components(g), support_enumeration(g),
    ]


def test_records_build_compare_hash_print_and_refuse_changes():
    samples = _record_samples()
    assert {type(r) for r in samples} == set(Record.__subclasses__())
    for k, r in enumerate(samples):
        cls, fields = type(r), r._fields
        values = {f: getattr(r, f) for f in fields}
        assert fields == tuple(cls.__annotations__)
        # by position, by name, and by default
        assert cls(*values.values()) == r == cls(**values)
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        required = {f: v for f, v in values.items() if f not in defaults}
        assert {f: getattr(cls(**required), f) for f in defaults} == defaults
        with pytest.raises(TypeError):
            cls(*list(required.values())[:-1])
        with pytest.raises(TypeError):
            cls(**values, unknown=None)
        shown = [f for f in fields if f not in cls._hidden]
        text = ", ".join(f"{f}={values[f]!r}" for f in shown)
        if "__repr__" not in cls.__dict__:  # ParametricBasis prints labels
            assert repr(r) == f"{cls.__qualname__}({text})"
        # the hidden fields count for none of ==, hash and repr; a shown one
        # counts for ==
        twin = cls.__new__(cls)
        twin.__dict__.update(r.__dict__, **dict.fromkeys(cls._hidden, object()))
        assert (twin, hash(twin), repr(twin)) == (r, hash(r), repr(r))
        twin.__dict__[shown[0]] = object()
        assert twin != r
        other = samples[k - 1]  # of another class
        assert r.__eq__(other) is NotImplemented and r != other
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(r, f, None)
            with pytest.raises(AttributeError):
                delattr(r, f)
        assert {f: getattr(r, f) for f in fields} == values


@pytest.mark.parametrize("module", ["rank1nash", "rank1nash.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # each loads in a fresh interpreter; both modules cost start-up time on
    # every CLI command
    loaded = "sorted({'dataclasses', 'inspect'} & {*sys.modules})"
    code = f"import sys, {module}; print({loaded})"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"
