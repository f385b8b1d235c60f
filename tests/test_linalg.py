"""Exact linear algebra: rationals, the shared integer elimination, solver,
rank, affine functions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_lp import AffineRVector
from rank1nash.errors import SingularMatrix
from rank1nash.linalg import (
    AffineR,
    matrix_rank,
    rat,
    row_reduce,
    solve,
    vdot,
)


def _times(rows, z):
    return tuple(vdot(row, z) for row in rows)


def test_rat_accepts_ints_strings_and_pairs():
    assert rat(3) == 3
    assert rat("3/4") * 4 == 3
    assert rat("-2") == -2
    assert rat(1, 3) + rat(2, 3) == 1
    assert rat(Fraction(5, 7)) == rat(5, 7)


def test_vdot():
    assert vdot((1, 2, 3), (4, 5, 6)) == 32
    assert vdot((), ()) == 0


def test_solve_known_system():
    # 2x + y = 5, x - y = 1 has the unique solution (2, 1)
    assert solve(((2, 1), (1, -1)), (5, 1)) == (2, 1)


def test_solve_int_matrix_stays_exact():
    # plain ints in, and the solution still comes out exact
    m = ((2, 1, 0), (1, 3, 1), (0, 1, 4))
    z = solve(m, (1, 2, 3))
    # every entry is the backend's rational type, so no float slipped in
    assert {type(v) for v in z} == {type(rat(0))}
    assert _times(m, z) == (1, 2, 3)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        solve(((1, 2), (2, 4)), (1, 1))


def test_solve_rejects_a_system_that_is_not_square():
    for rows, rhs in [
        (((1, 2),), (1,)),  # one row of two entries
        (((1, 0), (0, 1)), (1,)),  # one right-hand side for two rows
    ]:
        with pytest.raises(ValueError, match="n rows of n entries"):
            solve(rows, rhs)


def test_solve_singular_names_the_first_column_without_a_pivot():
    # column 0 pivots on row 0; row 1 is twice row 0, so column 1 finds no
    # pivot in the unused rows, although column 2 would
    with pytest.raises(SingularMatrix, match=r"^no pivot in column 1$"):
        solve(((1, 2, 3), (2, 4, 6), (0, 0, 1)), (1, 2, 3))


def test_solve_random_residuals():
    rng = random.Random(1805)
    solved = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        m = tuple(tuple(rat(rng.randint(-9, 9)) for _ in range(n)) for _ in range(n))
        rhs = tuple(rat(rng.randint(-9, 9)) for _ in range(n))
        try:
            z = solve(m, rhs)
        except SingularMatrix:
            continue
        assert _times(m, z) == rhs
        solved += 1
    assert solved >= 40


def _rank_by_elimination(rows: list[list[Fraction]]) -> int:
    """Plain fraction Gaussian elimination, used as an independent check."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        for r in range(len(rows)):
            if r != row and rows[r][col] != 0:
                f = rows[r][col] / rows[row][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[row])]
        row += 1
        rank += 1
    return rank


def test_matrix_rank_against_elimination():
    rng = random.Random(411)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)
        ]
        got = matrix_rank(tuple(tuple(rat(v) for v in r) for r in rows))
        assert got == _rank_by_elimination(rows)


def test_matrix_rank_edge_cases():
    assert matrix_rank(((0, 0), (0, 0))) == 0
    assert matrix_rank(((1, 2), (2, 4))) == 1
    assert matrix_rank(((1, 0), (0, 1))) == 2


_fractions = st.builds(
    lambda num, den: rat(num, den), st.integers(-20, 20), st.integers(1, 4)
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(_fractions, min_size=n, max_size=n), min_size=n, max_size=n
            ),
            st.lists(_fractions, min_size=n, max_size=n),
        )
    )
)
def test_solve_property(data):
    # entries of both signs and several denominators: pivots of both signs,
    # and rows cleared by different scales; singular exactly when the plain
    # elimination finds a rank below n
    rows, rhs = data
    singular = _rank_by_elimination(rows) < len(rows)
    try:
        z = solve(rows, rhs)
    except SingularMatrix:
        assert singular
        return
    assert not singular
    assert _times(rows, z) == tuple(rhs)


def test_row_reduce_determinant():
    # det is the last pivot element of the fraction-free elimination: on a
    # full-rank integer matrix it is the determinant, up to sign
    rng = random.Random(2007)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        want = Fraction(1)
        a = [[Fraction(v) for v in row] for row in rows]
        for c in range(n):  # the determinant by plain elimination
            r = next((r for r in range(c, n) if a[r][c]), None)
            if r is None:
                want = Fraction(0)
                break
            a[c], a[r] = a[r], a[c]
            want *= a[c][c]
            for i in range(c + 1, n):
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
        _, row_of, det = row_reduce(rows, n)
        if want:
            assert sorted(row_of) == list(range(n)) and abs(det) == abs(want)
        else:
            assert len(row_of) < n


def test_affine_eval():
    v = AffineRVector(const=(rat(1), rat(0)), slope=(rat(2), rat(-1)))
    assert v.at(rat(3)) == (7, -3)
    assert len(v) == 2
    f = AffineR(c0=rat(1), c1=rat(-3))
    assert f.at(rat(0)) == 1
    assert f.at(rat(1, 3)) == 0
    assert f.at(2) == -5
