"""Exact linear algebra: rationals, the integer pivot, solves, rank, and the
scalar affine function that is a sweep interval's objective.

Rationals are ``gmpy2.mpq`` when gmpy2 is importable and
``fractions.Fraction`` otherwise; both expose ``numerator``/``denominator``
and interoperate with ints, so the rest of the package never needs to know
which backend is active.

``_pivot`` is the package's one elimination step: the integer pivot of lrs
(Avis & Fukuda 1992) on a dictionary scaled by its determinant, whose
divisions are exact as in Bareiss (1968). The vertex walk of ``polytopes``
runs it, and ``row_reduce`` builds ``solve`` and ``matrix_rank`` on it. The
oracle keeps its own rational elimination, so that it stays an independent
check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterable, Sequence

from .errors import InternalInvariantError, SingularMatrix
from .record import Record

try:
    from gmpy2 import mpq as _Q

    HAVE_GMPY2 = True  # pragma: no cover - runs only where gmpy2 is installed
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


class AffineR(Record):
    """Scalar affine function of one parameter: c0 + c1 * xi."""

    c0: Rational
    c1: Rational

    def at(self, xi: Rational) -> Rational:
        return self.c0 + self.c1 * rat(xi)


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


def _pivot(dic: list[list[int]], r: int, col: int, det: int) -> list[list[int]]:
    """Integer pivot of the dictionary on (r, col); the pivot element becomes
    the new determinant. Column ``col`` then holds the leaving variable,
    whose old column was det * e_r."""
    prow = dic[r]
    p = prow[col]
    out = []
    for i, row in enumerate(dic):
        f = row[col]
        if i == r:
            new = prow.copy()
            new[col] = det
        else:
            new = []
            for a, b in zip(row, prow):
                q, rem = divmod(p * a - f * b, det)
                if rem:
                    raise InternalInvariantError("integer pivot division not exact")
                new.append(q)
            new[col] = -f
        out.append(new)
    return out


def row_reduce(
    rows: Iterable[Sequence[Rational]], ncols: int
) -> tuple[list[list[int]], dict[int, int], int]:
    """(dic, row_of, det): the rows, each cleared of denominators, with each
    of the first ``ncols`` columns pivoted by ``_pivot`` on the first unused
    row that has a nonzero entry there. ``row_of`` maps each pivot column to
    its row. Any other column then holds det times its coordinates over the
    pivot columns, and it is zero in every unused row."""
    dic = [clear_denominators(row)[0] for row in rows]
    free = list(range(len(dic)))  # the rows no pivot has used
    row_of: dict[int, int] = {}
    det = 1
    for col in range(ncols):
        r = next((r for r in free if dic[r][col]), None)
        if r is not None:
            free.remove(r)
            row_of[col] = r
            dic, det = _pivot(dic, r, col, det), dic[r][col]
    return dic, row_of, det


def matrix_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """The rank: the number of pivot columns."""
    return len(row_reduce(rows, len(rows[0]))[1])


def solve(
    rows: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> tuple[Rational, ...]:
    """The z with rows z = rhs, for n rows of n entries; SingularMatrix names
    the first column with no pivot."""
    n = len(rows)
    if len(rhs) != n or any(len(row) != n for row in rows):
        raise ValueError("solve needs n rows of n entries and n right-hand sides")
    dic, row_of, det = row_reduce([[*row, b] for row, b in zip(rows, rhs)], n)
    col = next((c for c in range(n) if c not in row_of), None)
    if col is not None:
        raise SingularMatrix(f"no pivot in column {col}")
    return tuple(rat(dic[row_of[c]][n], det) for c in range(n))
