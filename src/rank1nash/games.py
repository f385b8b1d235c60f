"""Bimatrix games: model types, rank tools and reductions, transforms."""

from __future__ import annotations

from functools import partial
from operator import add, mul
from typing import Iterable, Sequence

from .errors import (
    FactorizationMismatch,
    NonPositiveScale,
    NotFullRank,
    NotRankOne,
    NotRowConstant,
)
from .linalg import (
    Rational,
    clear_denominators,
    clear_rows,
    matrix_rank,
    rat,
    solve,
    vdot,
)
from .record import Record

Matrix = tuple[tuple[Rational, ...], ...]


def _to_matrix(rows: Iterable[Iterable[Rational]]) -> Matrix:
    return tuple(tuple(rat(x) for x in row) for row in rows)


class BimatrixGame(Record):
    """An m x n bimatrix game with exact rational payoffs A (row), B (column)."""

    m: int
    n: int
    A: Matrix
    B: Matrix

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("need at least one strategy per player")
        for mat in (self.A, self.B):
            if len(mat) != self.m or any(len(r) != self.n for r in mat):
                raise ValueError("payoff matrix shape mismatch")

    @classmethod
    def from_payoffs(
        cls, a: Iterable[Iterable[Rational]], b: Iterable[Iterable[Rational]]
    ) -> "BimatrixGame":
        am, bm = _to_matrix(a), _to_matrix(b)
        return cls(len(am), len(am[0]) if am else 0, am, bm)

    def payoff_sum(self) -> Matrix:
        return tuple(
            tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(self.A, self.B)
        )


def _require_distribution(ints: Sequence[int], scale: int) -> None:
    """ValueError unless ints / scale, with scale > 0, is a probability
    vector."""
    if any(p < 0 for p in ints):
        raise ValueError("negative probability")
    if sum(ints) != scale:
        raise ValueError("probabilities must sum to 1")


class MixedStrategyPair(Record):
    """A pair of mixed strategies; entries nonnegative, each summing to one."""

    x: tuple[Rational, ...]
    y: tuple[Rational, ...]

    def __post_init__(self):
        for v in (self.x, self.y):
            _require_distribution(*clear_denominators(v))

    @classmethod
    def _of_integers(
        cls,
        x: tuple[Rational, ...],
        y: tuple[Rational, ...],
        x_ints: Sequence[int],
        x_scale: int,
        y_ints: Sequence[int],
        y_scale: int,
    ) -> "MixedStrategyPair":
        """The pair (x, y), validated on integers with x = x_ints / x_scale
        and y = y_ints / y_scale, where each scale is the least common
        denominator: the integers ``__post_init__`` would clear them to."""
        _require_distribution(x_ints, x_scale)
        _require_distribution(y_ints, y_scale)
        return cls._of(x=x, y=y)

    @classmethod
    def from_vectors(
        cls, x: Iterable[Rational], y: Iterable[Rational]
    ) -> "MixedStrategyPair":
        return cls(tuple(rat(p) for p in x), tuple(rat(p) for p in y))


class EquilibriumPoint(Record):
    """A Nash equilibrium with its payoffs; source_xi records the sweep
    parameter it was found at, when it came out of the parametric run."""

    strategies: MixedStrategyPair
    payoff1: Rational
    payoff2: Rational
    source_xi: Rational | None = None

    def key(self) -> tuple:
        return (self.strategies.x, self.strategies.y)


class RankOneFactorization(Record):
    """Vectors b, c with b * c^T = A + B."""

    b: tuple[Rational, ...]
    c: tuple[Rational, ...]

    @classmethod
    def for_game(
        cls, g: BimatrixGame, b: Iterable[Rational], c: Iterable[Rational]
    ) -> "RankOneFactorization":
        f = cls(tuple(rat(v) for v in b), tuple(rat(v) for v in c))
        f.require_matches(g)
        return f

    def require_matches(
        self, g: BimatrixGame, total: tuple[list[list[int]], int] | None = None
    ) -> None:
        """Raise FactorizationMismatch unless b c^T = A + B, tested on
        integers: with b = bw / bs and c = cw / cs, bw_i cw_j scale must be
        s_ij bs cs. ``total``, when given, must be
        ``IntegerPayoffs.of(g).payoff_sum()``, the pair (s, scale)."""
        if len(self.b) != g.m or len(self.c) != g.n:
            raise FactorizationMismatch("factor length mismatch")
        s, scale = total if total is not None else IntegerPayoffs.of(g).payoff_sum()
        bw, bs = clear_denominators(self.b)
        cw, cs = clear_denominators(self.c)
        for i in range(g.m):
            for j in range(g.n):
                if bw[i] * cw[j] * scale != s[i][j] * bs * cs:
                    raise FactorizationMismatch(
                        f"b[{i}]*c[{j}] != (A+B)[{i}][{j}]"
                    )


def best_response_values(
    g: BimatrixGame, s: MixedStrategyPair
) -> tuple[Rational, Rational]:
    """(max_i A^(i) y, max_j x^T B_(j)): the two best-reply payoffs."""
    p1 = max(vdot(row, s.y) for row in g.A)
    p2 = max(vdot(s.x, col) for col in zip(*g.B))
    return p1, p2


class IntegerPayoffs(Record):
    """A = a / a_scale and B^T = bt / b_scale, each cleared of denominators
    by one positive integer. ``is_nash`` builds one per check, and
    ``polytopes.require_nondegenerate`` one per call, for its walks (one
    when a == bt and a_scale == b_scale, that is A = B^T, and two
    otherwise) and every equilibrium check of the call. It is never kept
    beyond the call."""

    a: tuple[tuple[int, ...], ...]
    a_scale: int
    bt: tuple[tuple[int, ...], ...]
    b_scale: int

    @classmethod
    def of(cls, g: BimatrixGame) -> "IntegerPayoffs":
        a, a_scale = clear_rows(g.A)
        bt, b_scale = clear_rows(zip(*g.B))
        return cls(tuple(map(tuple, a)), a_scale, tuple(map(tuple, bt)), b_scale)

    def payoff_sum(self) -> tuple[list[list[int]], int]:
        """(s, scale): A + B = s / scale, with scale = a_scale * b_scale,
        as a_ij / a_scale + bt_ji / b_scale."""
        sa, sb = self.a_scale, self.b_scale
        return [
            list(map(add, map(sb.__mul__, row), map(sa.__mul__, col)))
            for row, col in zip(self.a, zip(*self.bt))
        ], sa * sb


def is_nash(g: BimatrixGame, s: MixedStrategyPair) -> tuple[bool, Rational, Rational]:
    """Whether s is a Nash equilibrium, plus the realized payoffs (x^T A y, x^T B y).

    Clears A, B, x and y of denominators and runs ``_integer_nash_test``;
    only the two returned payoffs are built as rationals.
    """
    if len(s.y) != g.n:
        raise ValueError(f"dot of lengths {g.n} and {len(s.y)}")
    if len(s.x) != g.m:
        raise ValueError(f"dot of lengths {len(s.x)} and {g.m}")
    ip = IntegerPayoffs.of(g)
    x, x_scale = clear_denominators(s.x)
    y, y_scale = clear_denominators(s.y)
    ok, u1, u2 = _integer_nash_test(ip, x, x_scale, y, y_scale)
    return (
        ok,
        rat(u1, x_scale * ip.a_scale * y_scale),
        rat(u2, x_scale * ip.b_scale * y_scale),
    )


def _integer_nash_test(
    ip: IntegerPayoffs,
    x: Sequence[int],
    x_scale: int,
    y: Sequence[int],
    y_scale: int,
) -> tuple[bool, int, int]:
    """The Nash test of (x / x_scale, y / y_scale), all on integers.

    A y and x^T B are formed once each, the realized payoffs are x . (A y)
    and (x^T B) . y, and the best-reply payoffs are the largest entries of
    A y and x^T B. Returns the verdict and the realized payoffs'
    numerators u1 and u2, over x_scale * ip.a_scale * y_scale and
    x_scale * ip.b_scale * y_scale.
    """
    ay = [sum(map(mul, row, y)) for row in ip.a]
    xb = [sum(map(mul, x, col)) for col in ip.bt]
    u1, u2 = sum(map(mul, x, ay)), sum(map(mul, xb, y))
    # A y = ay / (a_scale * y_scale) and u1 carries one more factor x_scale;
    # likewise for B
    return u1 == x_scale * max(ay) and u2 == y_scale * max(xb), u1, u2


def loss(g: BimatrixGame, s: MixedStrategyPair) -> Rational:
    """Total best-reply improvement available; zero exactly at equilibria."""
    b1, b2 = best_response_values(g, s)
    csum = g.payoff_sum()
    return b1 + b2 - vdot(s.x, tuple(vdot(row, s.y) for row in csum))


def game_rank(g: BimatrixGame) -> int:
    """Rank of A + B."""
    return matrix_rank(g.payoff_sum())


def factor_rank1(
    g: BimatrixGame, total: tuple[list[list[int]], int] | None = None
) -> RankOneFactorization:
    """Canonical factorization b * c^T of A + B for a rank-1 game.

    c is the first nonzero row of A + B; b_i = (A+B)[i][j0] / c[j0] for the
    first j0 with c[j0] != 0. Raises NotRankOne unless rank(A+B) == 1, which
    holds exactly when c exists and b c^T = A + B, that is when every 2x2
    minor of a row with c's row in columns j0 and j vanishes. The test runs
    on A + B cleared of denominators, as the integer payoffs hold it.
    ``total``, when given, must be ``IntegerPayoffs.of(g).payoff_sum()``.
    """
    s, scale = total if total is not None else IntegerPayoffs.of(g).payoff_sum()
    piv = next(filter(any, s), None)
    if piv is not None:
        j0 = next(j for j, v in enumerate(piv) if v)
        p0 = piv[j0]
        # row * p0 == piv * row[j0] for every row
        if all(
            list(map(p0.__mul__, row)) == list(map(row[j0].__mul__, piv)) for row in s
        ):
            b = tuple(rat(row[j0], p0) for row in s)
            return RankOneFactorization(b, tuple(rat(v, scale) for v in piv))
    raise NotRankOne(f"rank(A+B) = {game_rank(g)}, need 1")


class RankReduction(Record):
    """Result of a one-step rank reduction: lam * 1 was added to A's column."""

    game: BimatrixGame
    column: int
    lam: Rational


def reduce_rank(g: BimatrixGame) -> RankReduction:
    """Drop the rank of a full-rank d x d game by one (d >= 2).

    With C = A + B nonsingular and w = C^{-1} 1, adding lam * 1 to column j of
    A changes det(C) by the factor 1 + lam * w_j, so the first j with w_j != 0
    and lam = -1/w_j produce a game of rank d-1. Such a j always exists (w = 0
    would force 1 = 0). The equilibrium set is unchanged: a constant added to
    a column of A shifts every row payoff A^(i) y by the same lam * y_j.
    """
    if g.m != g.n:
        raise NotFullRank("rank reduction needs a square game")
    if g.m < 2:
        raise NotFullRank("need d >= 2")
    rank = game_rank(g)
    if rank != g.m:
        raise NotFullRank(f"rank(A+B) = {rank}, need {g.m}")
    w = solve(g.payoff_sum(), (1,) * g.m)
    j = next(i for i, v in enumerate(w) if v != 0)
    lam = -1 / w[j]
    a2 = tuple(
        tuple(v + lam if jj == j else v for jj, v in enumerate(row)) for row in g.A
    )
    return RankReduction(BimatrixGame(g.m, g.n, a2, g.B), j, lam)


def reduce_row_constant(g: BimatrixGame, u: Sequence[Rational]) -> BimatrixGame:
    """Subtract u_i from row i of B, turning a row-constant game zero-sum."""
    ut = tuple(rat(v) for v in u)
    s = g.payoff_sum()
    if len(ut) != g.m or any(
        s[i][j] != ut[i] for i in range(g.m) for j in range(g.n)
    ):
        raise NotRowConstant("A + B rows are not constant at the given u")
    b2 = tuple(tuple(v - ut[i] for v in row) for i, row in enumerate(g.B))
    return BimatrixGame(g.m, g.n, g.A, b2)


class AddToColumnOfA(Record):
    """Add lam to every entry of A's column (0-based index)."""

    column: int
    lam: Rational


class AddToRowOfB(Record):
    """Add lam to every entry of B's row (0-based index)."""

    row: int
    lam: Rational


class ScaleColumnOfA(Record):
    """Multiply A's column by a positive factor (0-based index).

    The equilibrium set is preserved only up to a reweighting of y: each
    equilibrium (x, y) becomes (x, y') with y'_column proportional to
    y_column / factor and the other entries of y kept, renormalized.
    Mixed equilibria move; pure ones stay put.
    """

    column: int
    factor: Rational


class ScaleRowOfB(Record):
    """Multiply B's row by a positive factor (0-based index).

    The equilibrium set is preserved only up to a reweighting of x: each
    equilibrium (x, y) becomes (x', y) with x'_row proportional to
    x_row / factor and the other entries of x kept, renormalized.
    Mixed equilibria move; pure ones stay put.
    """

    row: int
    factor: Rational


TransformOp = AddToColumnOfA | AddToRowOfB | ScaleColumnOfA | ScaleRowOfB


def transform(g: BimatrixGame, op: TransformOp) -> BimatrixGame:
    """Apply one payoff transform, returning the modified game; ValueError
    when the op names a row or column the game lacks."""
    if isinstance(op, (AddToColumnOfA, ScaleColumnOfA)):
        kind, index, size = "column", op.column, g.n
    elif isinstance(op, (AddToRowOfB, ScaleRowOfB)):
        kind, index, size = "row", op.row, g.m
    else:
        raise TypeError(f"unknown transform {op!r}")
    if not 0 <= index < size:
        raise ValueError(f"{kind} {index} out of range 0..{size - 1}")
    if isinstance(op, (ScaleColumnOfA, ScaleRowOfB)):
        f = rat(op.factor)
        if f <= 0:
            raise NonPositiveScale(f"scale factor {f} must be positive")
        change = partial(mul, f)
    else:
        change = partial(add, rat(op.lam))
    if kind == "column":
        a2 = tuple(
            tuple(change(v) if j == index else v for j, v in enumerate(row))
            for row in g.A
        )
        return BimatrixGame(g.m, g.n, a2, g.B)
    b2 = tuple(
        tuple(map(change, row)) if i == index else row for i, row in enumerate(g.B)
    )
    return BimatrixGame(g.m, g.n, g.A, b2)


def generate_kt(d: int) -> BimatrixGame:
    """d x d rank-1 game with at least 2d-1 equilibria.

    With 1-based indices, a_ij = 2ij - i^2 + j^2 and b_ij = 2ij + i^2 - j^2,
    so A + B = (2i * 2j)_ij has rank one.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    a = [
        [2 * i * j - i * i + j * j for j in range(1, d + 1)]
        for i in range(1, d + 1)
    ]
    b = [
        [2 * i * j + i * i - j * j for j in range(1, d + 1)]
        for i in range(1, d + 1)
    ]
    return BimatrixGame.from_payoffs(a, b)
