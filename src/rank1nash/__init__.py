"""Exact enumeration of Nash equilibria in rank-1 bimatrix games.

The central entry point is :func:`enumerate_all`, which sweeps a scalar
parameter across a one-dimensional family of linear programs whose optimal
objective, piecewise linear in the parameter, touches zero exactly at the
equilibria of the game.  The sweep walks the vertex graphs of the two
best-response polyhedra, one per side, and makes no linear solve.
Zero-sum and row-constant games need no special-class handling: for them
the sweep is its start, taken at a one-point parameter range.  Two other
methods, :func:`support_enumeration` and :func:`equilibria_by_labels`, are
provided for cross-checking, along with label-dropping path analysis
(:func:`lh_run`, :func:`reachability`, :func:`gprime_components`) over the
same vertex graphs.
"""

from importlib import import_module as _import_module

from .errors import (
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
)
from .linalg import rat
from .games import (
    AddToColumnOfA,
    AddToRowOfB,
    BimatrixGame,
    EquilibriumPoint,
    IntegerPayoffs,
    MixedStrategyPair,
    RankOneFactorization,
    RankReduction,
    ScaleColumnOfA,
    ScaleRowOfB,
    best_response_values,
    factor_rank1,
    game_rank,
    generate_kt,
    is_nash,
    loss,
    reduce_rank,
    reduce_row_constant,
    transform,
)
from .gamefile import format_game, load_game, parse_game

# the solvers' names, by the module each comes from: a solver module is
# imported on the first read of one of its names, or of the module itself
# (PEP 562), so that importing the package, and each CLI command, compiles
# only the solvers it runs
_SOLVERS = {
    "polytopes": (
        "LabeledVertex",
        "VertexGraph",
        "check_nondegenerate",
        "enumerate_vertices",
        "equilibria_by_labels",
        "require_nondegenerate",
    ),
    "oracle": ("OracleResult", "support_enumeration"),
    "lemke_howson": (
        "GPrimeReport",
        "LHPath",
        "ReachabilityReport",
        "gprime_components",
        "lh_run",
        "reachability",
    ),
    "parametric": (
        "BasisInterval",
        "BreakpointRecord",
        "ParametricBasis",
        "SweepTrace",
        "TraceRow",
        "enumerate_all",
        "sweep_table",
    ),
}
_HOME = {name: module for module, names in _SOLVERS.items() for name in names}


def __getattr__(name: str):
    """A solver module, or a name of one, imported on its first read and
    then kept in the package's namespace."""
    home = _HOME.get(name, name)
    if home not in _SOLVERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{home}")
    if name != home:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOLVERS, *_HOME})


__version__ = "0.1.0"

__all__ = [
    "AddToColumnOfA",
    "AddToRowOfB",
    "BasisInterval",
    "BimatrixGame",
    "BreakpointRecord",
    "DegenerateGame",
    "EquilibriumPoint",
    "FactorizationMismatch",
    "GPrimeReport",
    "GameFileError",
    "IntegerPayoffs",
    "InternalInvariantError",
    "LHPath",
    "LabeledVertex",
    "MixedStrategyPair",
    "NonPositiveScale",
    "NotFullRank",
    "NotRankOne",
    "NotRowConstant",
    "OracleResult",
    "ParametricBasis",
    "Rank1NashError",
    "RankOneFactorization",
    "RankReduction",
    "ReachabilityReport",
    "ScaleColumnOfA",
    "ScaleRowOfB",
    "SingularMatrix",
    "Stalled",
    "SweepTrace",
    "TraceRow",
    "VertexGraph",
    "best_response_values",
    "check_nondegenerate",
    "enumerate_all",
    "enumerate_vertices",
    "equilibria_by_labels",
    "factor_rank1",
    "format_game",
    "game_rank",
    "generate_kt",
    "gprime_components",
    "is_nash",
    "lh_run",
    "load_game",
    "loss",
    "parse_game",
    "rat",
    "reachability",
    "reduce_rank",
    "reduce_row_constant",
    "require_nondegenerate",
    "support_enumeration",
    "sweep_table",
    "transform",
]
