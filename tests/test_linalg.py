"""Exact linear algebra: rationals, solver, rank, affine functions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank1nash.errors import SingularMatrix
from rank1nash.linalg import (
    AffineR,
    AffineRVector,
    RMatrix,
    matrix_rank,
    rat,
    solve,
    solve_square,
    vdot,
)


def test_rat_accepts_ints_strings_and_pairs():
    assert rat(3) == 3
    assert rat("3/4") * 4 == 3
    assert rat("-2") == -2
    assert rat(1, 3) + rat(2, 3) == 1
    assert rat(Fraction(5, 7)) == rat(5, 7)


def test_vdot():
    assert vdot((1, 2, 3), (4, 5, 6)) == 32
    assert vdot((), ()) == 0


def test_rmatrix_product_golden():
    a = RMatrix.from_rows(((1, 2), (3, 4)))
    assert a.transpose().entries == ((1, 3), (2, 4))
    assert a.mat_vec((1, 1)) == (3, 7)


def test_solve_known_system():
    # 2x + y = 5, x - y = 1 has the unique solution (2, 1)
    m = RMatrix.from_rows(((2, 1), (1, -1)))
    assert solve(m, (5, 1)) == (2, 1)


def test_solve_square_int_matrix_stays_exact():
    # matrix entries are used as given; plain ints must still solve exactly
    m = RMatrix(3, 3, ((2, 1, 0), (1, 3, 1), (0, 1, 4)))
    z = solve_square(m, (1, 2, 3), (0, 1, -1))
    # every entry is the backend's rational type, so no float slipped in
    assert {type(v) for v in z.const + z.slope} == {type(rat(0))}
    for xi in (rat(0), rat(5, 3)):
        assert m.mat_vec(z.at(xi)) == (1, 2 + xi, 3 - xi)


def test_solve_singular_raises():
    m = RMatrix.from_rows(((1, 2), (2, 4)))
    with pytest.raises(SingularMatrix):
        solve(m, (1, 1))


def test_solve_random_residuals():
    rng = random.Random(1805)
    solved = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        m = RMatrix.from_rows(
            tuple(tuple(rat(rng.randint(-9, 9)) for _ in range(n)) for _ in range(n))
        )
        rhs = tuple(rat(rng.randint(-9, 9)) for _ in range(n))
        try:
            z = solve(m, rhs)
        except SingularMatrix:
            continue
        assert m.mat_vec(z) == rhs
        solved += 1
    assert solved >= 40


def test_solve_square_affine_rhs():
    # rhs = const + slope * xi must carry through the solver exactly
    m = RMatrix.from_rows(((2, 0), (1, 1)))
    z = solve_square(m, (4, 1), (2, 0))
    for xi in (rat(0), rat(1), rat(-7, 3)):
        zv = z.at(xi)
        want = (4 + 2 * xi, rat(1))
        assert m.mat_vec(zv) == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
        )
    )
)
def test_solve_property(data):
    rows, rhs = data
    m = RMatrix.from_rows(tuple(tuple(rat(v) for v in r) for r in rows))
    try:
        z = solve(m, tuple(rat(v) for v in rhs))
    except SingularMatrix:
        return
    assert m.mat_vec(z) == tuple(rat(v) for v in rhs)


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
        got = matrix_rank(RMatrix.from_rows(tuple(tuple(rat(v) for v in r) for r in rows)))
        assert got == _rank_by_elimination(rows)


def test_matrix_rank_edge_cases():
    assert matrix_rank(RMatrix.from_rows(((0, 0), (0, 0)))) == 0
    assert matrix_rank(RMatrix.from_rows(((1, 2), (2, 4)))) == 1
    assert matrix_rank(RMatrix.from_rows(((1, 0), (0, 1)))) == 2


def test_affine_eval():
    v = AffineRVector(const=(rat(1), rat(0)), slope=(rat(2), rat(-1)))
    assert v.at(rat(3)) == (7, -3)
    assert len(v) == 2
    f = AffineR(c0=rat(1), c1=rat(-3))
    assert f.at(rat(0)) == 1
    assert f.at(rat(1, 3)) == 0
    assert f.at(2) == -5
