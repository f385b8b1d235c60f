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
from .polytopes import (
    LabeledVertex,
    VertexGraph,
    check_nondegenerate,
    enumerate_vertices,
    equilibria_by_labels,
    require_nondegenerate,
)
from .oracle import OracleResult, support_enumeration
from .lemke_howson import (
    GPrimeReport,
    LHPath,
    ReachabilityReport,
    gprime_components,
    lh_run,
    reachability,
)
from .parametric import (
    BasisInterval,
    BreakpointRecord,
    ParametricBasis,
    SweepTrace,
    TraceRow,
    enumerate_all,
    sweep_table,
)

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
