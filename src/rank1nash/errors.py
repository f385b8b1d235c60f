"""Exception hierarchy shared by all modules.

Each class names the command line's exit code for it as ``exit_code``, in
four categories:

- 2, a degenerate game: ``DegenerateGame``;
- 3, unreadable input: ``GameFileError``;
- 4, a violated precondition: ``NotRankOne``, ``NotFullRank``,
  ``NotRowConstant``, ``NonPositiveScale`` and ``FactorizationMismatch``;
- 5, an internal error, a bug to report: ``SingularMatrix``, ``Stalled``,
  ``InternalInvariantError`` and any class that names no code of its own.
"""

from __future__ import annotations


class Rank1NashError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 5


class SingularMatrix(Rank1NashError):
    """Square solve attempted on a singular matrix."""


class NotRankOne(Rank1NashError):
    """Operation requires a payoff-sum matrix of rank exactly one."""

    exit_code = 4


class NotFullRank(Rank1NashError):
    """Operation requires a square payoff-sum matrix of full rank."""

    exit_code = 4


class NotRowConstant(Rank1NashError):
    """Operation requires every row of the payoff-sum matrix to be constant."""

    exit_code = 4


class NonPositiveScale(Rank1NashError):
    """Scaling transforms require a strictly positive factor."""

    exit_code = 4


class FactorizationMismatch(Rank1NashError):
    """Supplied rank-1 factors do not multiply out to the payoff-sum matrix."""

    exit_code = 4


class DegenerateGame(Rank1NashError):
    """The game is degenerate; enumeration contracts do not apply.

    The offending vertex (or other witness) is attached when available.
    """

    exit_code = 2

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class Stalled(Rank1NashError):
    """No verifiable pivot advances the sweep past the current breakpoint,
    or a Lemke-Howson path meets a pair of nodes a second time."""


class GameFileError(Rank1NashError):
    """Game file (or inline game text) failed to parse."""

    exit_code = 3


class InternalInvariantError(Rank1NashError):
    """A result failed a check that the mathematics guarantees.

    Raised instead of an ``assert`` so the check survives ``python -O``;
    it always means a bug in this package, never bad input.
    """
