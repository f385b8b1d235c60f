"""Exact rational linear algebra: square affine solves, rank, affine functions.

Everything here is pure and works on immutable values. Rationals are
``gmpy2.mpq`` when gmpy2 is importable and ``fractions.Fraction`` otherwise;
both expose ``numerator``/``denominator`` and interoperate with ints, so the
rest of the package never needs to know which backend is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .errors import InternalInvariantError, SingularMatrix

try:
    from gmpy2 import mpq as _Q

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only where gmpy2 is absent
    _Q = Fraction
    HAVE_GMPY2 = False

# gmpy2.mpq or fractions.Fraction depending on the active backend.
Rational = Any


def rat(value: Rational | str = 0, den: int | None = None) -> Rational:
    """Build a rational from an int, a string like ``-3`` or ``5/7``, or a
    pair of ints (numerator, denominator), each in one construction."""
    if den is not None:
        return _Q(value, den)
    if isinstance(value, str):
        return _Q(value.strip())
    return _Q(value)


def vdot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    if len(u) != len(v):
        raise ValueError(f"dot of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), _Q(0))


@dataclass(frozen=True)
class RMatrix:
    """Immutable rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Rational, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Rational]]) -> "RMatrix":
        ent = tuple(tuple(rat(x) for x in row) for row in rows)
        if not ent:
            raise ValueError("empty matrix")
        return cls(len(ent), len(ent[0]), ent)

    def transpose(self) -> "RMatrix":
        return RMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def mat_vec(self, v: Sequence[Rational]) -> tuple[Rational, ...]:
        return tuple(vdot(r, v) for r in self.entries)


@dataclass(frozen=True)
class AffineRVector:
    """Vector-valued affine function of one parameter: const + xi * slope."""

    const: tuple[Rational, ...]
    slope: tuple[Rational, ...]

    def __post_init__(self):
        if len(self.const) != len(self.slope):
            raise ValueError("const/slope length mismatch")

    def __len__(self) -> int:
        return len(self.const)

    def at(self, xi: Rational) -> tuple[Rational, ...]:
        x = rat(xi)
        return tuple(c + x * s for c, s in zip(self.const, self.slope))


@dataclass(frozen=True)
class AffineR:
    """Scalar affine function of one parameter: c0 + c1 * xi."""

    c0: Rational
    c1: Rational

    def at(self, xi: Rational) -> Rational:
        return self.c0 + self.c1 * rat(xi)


def solve_square(
    m: RMatrix,
    rhs_const: Sequence[Rational],
    rhs_slope: Sequence[Rational] | None = None,
) -> AffineRVector:
    """Solve M z(xi) = rhs_const + xi * rhs_slope exactly.

    Raises SingularMatrix when M is singular. A None slope means zero slope.
    The entries of M are used as given, so they must be ints or rationals;
    the right-hand sides are converted, which makes the result rational.
    """
    n = m.rows
    if m.cols != n:
        raise ValueError("solve_square needs a square matrix")
    if rhs_slope is None:
        rhs_slope = (0,) * n
    if len(rhs_const) != n or len(rhs_slope) != n:
        raise ValueError("rhs length mismatch")
    # augmented rows: [coefficients | const | slope]
    a = [
        [*m.entries[i], rat(rhs_const[i]), rat(rhs_slope[i])] for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrix(f"no pivot in column {col}")
        a[col], a[piv] = a[piv], a[col]
        prow = a[col]
        inv = 1 / rat(prow[col])
        a[col] = prow = [x * inv for x in prow]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y if y else x for x, y in zip(a[r], prow)]
    return AffineRVector(
        const=tuple(a[i][n] for i in range(n)),
        slope=tuple(a[i][n + 1] for i in range(n)),
    )


def solve(m: RMatrix, rhs: Sequence[Rational]) -> tuple[Rational, ...]:
    """Constant-RHS convenience wrapper around solve_square."""
    return solve_square(m, rhs).const


def clear_denominators(values: Sequence[Rational]) -> tuple[list[int], int]:
    """(ints, scale): scale is the lcm of the denominators, and value i is
    ints[i] / scale."""
    dens = [int(v.denominator) for v in values]
    scale = math.lcm(*dens)
    if scale == 1:
        return [int(v.numerator) for v in values], 1
    return [int(v.numerator) * (scale // d) for v, d in zip(values, dens)], scale


def clear_rows(
    rows: Iterable[Sequence[Rational]],
) -> tuple[list[list[int]], int]:
    """(int_rows, scale): every row times one scale, the lcm of all the
    denominators."""
    rows = list(rows)
    flat, scale = clear_denominators([v for row in rows for v in row])
    w = len(rows[0])
    return [flat[i : i + w] for i in range(0, len(flat), w)], scale


def matrix_rank(m: RMatrix) -> int:
    """Rank via fraction-free (Bareiss) elimination after clearing denominators."""
    # scaling a row by a positive integer leaves the rank unchanged
    a = [clear_denominators(row)[0] for row in m.entries]
    rows, cols = m.rows, m.cols
    rank = 0
    prev = 1
    r0 = 0
    for col in range(cols):
        piv = next((r for r in range(r0, rows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[r0], a[piv] = a[piv], a[r0]
        for r in range(r0 + 1, rows):
            for c in range(col + 1, cols):
                num = a[r0][col] * a[r][c] - a[r][col] * a[r0][c]
                q, rem = divmod(num, prev)
                if rem:
                    raise InternalInvariantError("Bareiss division not exact")
                a[r][c] = q
            a[r][col] = 0
        prev = a[r0][col]
        r0 += 1
        rank += 1
        if r0 == rows:
            break
    return rank
