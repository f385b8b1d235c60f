"""Exact rational linear algebra: square affine solves, rank, quadratic zeros.

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

from .errors import (
    IdenticallyZero,
    InternalInvariantError,
    IrrationalInteriorZero,
    SingularMatrix,
)

try:
    from gmpy2 import mpq as _Q

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only where gmpy2 is absent
    _Q = Fraction
    HAVE_GMPY2 = False

# gmpy2.mpq or fractions.Fraction depending on the active backend.
Rational = Any


def rat(value: Rational | str = 0, den: Rational | None = None) -> Rational:
    """Build a rational from an int, a string like ``-3`` or ``5/7``, or a pair."""
    if den is not None:
        return _Q(value) / _Q(den)
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

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Rational, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "RMatrix":
        return RMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def matmul(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose()
        return RMatrix.from_rows(
            [[vdot(r, c) for c in ot.entries] for r in self.entries]
        )

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
class QuadraticR:
    """Quadratic c2*xi^2 + c1*xi + c0 with rational coefficients."""

    c0: Rational
    c1: Rational
    c2: Rational

    def at(self, xi: Rational) -> Rational:
        x = rat(xi)
        return (self.c2 * x + self.c1) * x + self.c0


def solve_square(
    m: RMatrix,
    rhs_const: Sequence[Rational],
    rhs_slope: Sequence[Rational] | None = None,
) -> AffineRVector:
    """Solve M z(xi) = rhs_const + xi * rhs_slope exactly.

    Raises SingularMatrix when M is singular. A None slope means zero slope.
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
        [rat(x) for x in m.entries[i]] + [rat(rhs_const[i]), rat(rhs_slope[i])]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrix(f"no pivot in column {col}")
        a[col], a[piv] = a[piv], a[col]
        prow = a[col]
        inv = 1 / prow[col]
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


def _integer_rows(m: RMatrix) -> list[list[int]]:
    # scaling a row by a positive integer leaves the rank unchanged
    out = []
    for row in m.entries:
        scale = math.lcm(*(int(x.denominator) for x in row)) if row else 1
        out.append([int(x.numerator) * (scale // int(x.denominator)) for x in row])
    return out


def matrix_rank(m: RMatrix) -> int:
    """Rank via fraction-free (Bareiss) elimination after clearing denominators."""
    a = _integer_rows(m)
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


def rational_sqrt(x: Rational) -> Rational | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        raise ValueError("negative radicand")
    p, q = int(x.numerator), int(x.denominator)
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return _Q(rp) / _Q(rq)
    return None


def _irrational_root_strictly_inside(q: QuadraticR, lo, hi) -> bool:
    # q has two distinct irrational real roots; endpoints are rational, so
    # sign tests at lo/hi decide containment exactly.
    flo, fhi = q.at(lo), q.at(hi)
    if flo * fhi < 0:
        return True
    vx = -q.c1 / (2 * q.c2)
    if not (lo < vx < hi):
        return False
    if q.c2 > 0:
        return flo > 0 and fhi > 0
    return flo < 0 and fhi < 0


def quadratic_zeros_in_interval(
    q: QuadraticR,
    lo: Rational,
    hi: Rational,
    nonpositive_hint: bool = False,
) -> list[Rational]:
    """All rational zeros of q in [lo, hi], ascending.

    ``nonpositive_hint`` records the caller's promise that q <= 0 on the whole
    interval (interior zeros are then double roots, hence rational). The root
    computation below is exact either way; an irrational root strictly inside
    the interval raises IrrationalInteriorZero - without the hint it means the
    answer would be incomplete, with it that the promise was broken.
    """
    lo, hi = rat(lo), rat(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if q.c0 == 0 and q.c1 == 0 and q.c2 == 0:
        raise IdenticallyZero("zero polynomial has no finite zero set")
    if q.c2 == 0:
        if q.c1 == 0:
            return []
        roots = [-q.c0 / q.c1]
    else:
        disc = q.c1 * q.c1 - 4 * q.c0 * q.c2
        if disc < 0:
            return []
        if disc == 0:
            roots = [-q.c1 / (2 * q.c2)]
        else:
            s = rational_sqrt(disc)
            if s is None:
                if _irrational_root_strictly_inside(q, lo, hi):
                    raise IrrationalInteriorZero(
                        "irrational zero strictly inside interval"
                        + (" (nonpositive hint violated)" if nonpositive_hint else "")
                    )
                return []
            roots = [(-q.c1 - s) / (2 * q.c2), (-q.c1 + s) / (2 * q.c2)]
    return sorted({r for r in roots if lo <= r <= hi})
