"""The package's public surface: ``rank1nash.__all__``, its result records
and what importing it loads."""

from __future__ import annotations

import ast
import copy
import importlib
import numbers
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rank1nash
from rank1nash import (
    AddToColumnOfA,
    AddToRowOfB,
    BimatrixGame,
    IntegerPayoffs,
    LabeledVertex,
    ScaleColumnOfA,
    ScaleRowOfB,
    enumerate_all,
    enumerate_vertices,
    generate_kt,
    gprime_components,
    parse_game,
    rat,
    reachability,
    reduce_rank,
    require_nondegenerate,
    support_enumeration,
    sweep_table,
)
from rank1nash.record import Record

from conftest import SOLVERS, cli_code, solvers_after

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
    # the package root's imports and its table of the solvers' names are its
    # re-exports, so a public name either holds and __all__ leaves out is a
    # half-removed export; every name of the table is its module's own
    tree = ast.parse(Path(rank1nash.__file__).read_text())
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    bound |= rank1nash._HOME.keys()
    public = {n for n in bound if not n.startswith("_")}
    assert sorted(public - set(rank1nash.__all__)) == []
    assert sorted(rank1nash._SOLVERS) == list(SOLVERS)
    for module, names in rank1nash._SOLVERS.items():
        home = importlib.import_module(f"rank1nash.{module}")
        assert [n for n in names if n not in vars(home)] == []


def test_solvers_load_on_first_read(monkeypatch):
    # the package root's __getattr__ (PEP 562) imports a solver module on
    # the first read of one of its names, or of the module, and keeps the
    # value in the package's namespace; it is called here directly, as the
    # test modules read every name before
    for module, names in rank1nash._SOLVERS.items():
        home = importlib.import_module(f"rank1nash.{module}")
        assert rank1nash.__getattr__(module) is home
        for name in names:
            assert rank1nash.__getattr__(name) is getattr(home, name)
    monkeypatch.delitem(vars(rank1nash), "enumerate_all")
    assert "enumerate_all" in dir(rank1nash)
    assert rank1nash.enumerate_all is enumerate_all
    assert vars(rank1nash)["enumerate_all"] is enumerate_all
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        rank1nash.__getattr__("nope")
    assert not hasattr(rank1nash, "nope")
    assert {*rank1nash.__all__, *rank1nash._SOLVERS} <= {*dir(rank1nash)}


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


def test_readme_library_example_runs(monkeypatch, capsys):
    # README's one Python block reads the trace's equilibria and the
    # oracle's, from the repository root as its game path is relative; it
    # prints one line per equilibrium of unreachable-2x2
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


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
        # every record inherits Record.__getattr__: a copy and a pickle round
        # trip give the record back, and a name no class sets is missing
        for copied in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(copied) is cls and copied == r and repr(copied) == repr(r)
        assert not hasattr(r, "nope")


def test_every_number_a_result_reports_is_an_int_or_a_fraction():
    # Fraction is the package's one rational type: no float, and no other
    # rational or integer type, reaches a result
    kinds = []

    def walk(value):
        if isinstance(value, Record):
            for f in value._fields:
                walk(getattr(value, f))
        elif isinstance(value, LabeledVertex):
            walk(value.point)
        elif isinstance(value, (tuple, list, frozenset)):
            for v in value:
                walk(v)
        elif isinstance(value, numbers.Number) and not isinstance(value, bool):
            kinds.append(type(value))

    walk(_record_samples())
    walk(enumerate_vertices(generate_kt(3), "P"))
    assert set(kinds) == {int, Fraction}
    built = [rat(3), rat("-5/7"), rat(1, 2), rat(Fraction(2, 3))]
    built += parse_game("1 2\n1 2/3\n0 -1\n").A[0]
    built += BimatrixGame.from_payoffs([[1, 0]], [[rat(1, 2), 2]]).B[0]
    assert [type(v) for v in built] == [Fraction] * len(built)


@pytest.mark.parametrize("module", ["rank1nash", "rank1nash.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # each loads in a fresh interpreter; both modules cost start-up time on
    # every CLI command, as would a solver the command does not run, so
    # neither import loads a solver either
    unwanted = {"dataclasses", "inspect", *(f"rank1nash.{n}" for n in SOLVERS)}
    loaded = f"sorted({unwanted!r} & {{*sys.modules}})"
    code = f"import sys, {module}; print({loaded})"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"


KT4 = str(ROOT / "corpus" / "kt4.game")


# each command of the CLI, and the solver modules it leaves loaded
COMMAND_SOLVERS = [
    (["check", KT4], ["polytopes"]),
    (["labels", KT4], ["polytopes"]),
    (["enumerate", KT4], ["parametric", "polytopes"]),
    (["lh", KT4, "--all"], ["lemke_howson", "polytopes"]),
    (["gprime", KT4], ["lemke_howson", "polytopes"]),
    (["oracle", KT4], ["oracle"]),
    (["rank", KT4], []),
    (["reduce-rank", str(ROOT / "corpus" / "disconnected-3x3.game")], []),
    (["generate", "--kt", "--d", "3"], []),
]


@pytest.mark.parametrize(
    "argv, loaded", COMMAND_SOLVERS, ids=[argv[0] for argv, _ in COMMAND_SOLVERS]
)
def test_each_command_loads_only_the_solvers_it_runs(argv, loaded):
    # in a fresh interpreter: each command imports its solver in its own
    # body, and the solver imports the modules it builds on; rank,
    # reduce-rank and generate run none
    assert solvers_after(cli_code(argv)) == loaded
