"""The parametric sweep: tableau, bases, intervals, full enumeration."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import random_game, random_rank1_game
from rank1nash import (
    BimatrixGame,
    DegenerateGame,
    FactorizationMismatch,
    InternalInvariantError,
    ParametricBasis,
    RankOneFactorization,
    Stalled,
    advance,
    basis_interval,
    build_tableau,
    enumerate_all,
    equilibria_by_labels,
    equilibria_on_interval,
    generate_kt,
    initial_basis,
    rat,
    solve_basis,
    support_enumeration,
    sweep_table,
    xi_range,
    zero_sum_dual_coincidence,
)
from rank1nash.linalg import AffineR, AffineRVector, RMatrix, solve_square, vdot


@pytest.fixture
def kt2_tab():
    g = generate_kt(2)
    f = RankOneFactorization.for_game(g, (2, 4), (2, 4))
    return build_tableau(g, f)


def test_tableau_shape(kt2_tab):
    t = kt2_tab
    assert (t.m, t.n) == (2, 2)
    assert t.k_rows == 8
    assert t.n_vars == 6
    assert t.m1.rows == 8 and t.m1.cols == 6
    assert t.m2.rows == 3 and t.m2.cols == 6
    assert xi_range(t) == (2, 4)
    # first block: -x <= 0
    assert t.m1.entries[0] == (-1, 0, 0, 0, 0, 0)
    assert t.e1 == (0,) * 8
    assert t.e2_const == (1, 1, 0) and t.e2_slope == (0, 0, 1)


def test_tableau_rejects_bad_factor():
    g = generate_kt(2)
    with pytest.raises(FactorizationMismatch):
        build_tableau(g, RankOneFactorization((2, 4), (2, 5)))


def test_tableau_default_factor_is_canonical():
    t = build_tableau(generate_kt(2))
    assert t.factorization.b == (1, 2)
    assert t.factorization.c == (4, 8)
    assert xi_range(t) == (4, 8)


def test_initial_basis_at_left_end(kt2_tab):
    b = initial_basis(kt2_tab, rat(2))
    assert b.rows == (2, 3, 5)
    # the same basis is optimal a bit further in
    assert initial_basis(kt2_tab, rat(9, 4)).rows == (2, 3, 5)


def test_solve_basis_values(kt2_tab):
    b = ParametricBasis.from_rows((2, 3, 5), 2, 2)
    z, u = solve_basis(kt2_tab, b)
    # worked by hand: x = e1 and y puts (2 - xi/2, xi/2 - 1) on the columns
    for xi in (rat(2), rat(9, 4), rat(5, 2)):
        x1, x2, y1, y2, pi1, pi2 = z.at(xi)
        assert (x1, x2) == (1, 0)
        assert y1 == 2 - xi / 2 and y2 == xi / 2 - 1
        assert y1 + y2 == 1
    # at xi = 5/2: y = (3/4, 1/4), best-reply values follow
    x1, x2, y1, y2, pi1, pi2 = z.at(rat(5, 2))
    assert (y1, y2) == (rat(3, 4), rat(1, 4))
    assert pi1 == rat(13, 4)


def test_interval_of_initial_basis(kt2_tab):
    iv = basis_interval(kt2_tab, ParametricBasis.from_rows((2, 3, 5), 2, 2))
    assert (iv.xi1, iv.xi2) == (2, rat(5, 2))
    assert iv.case == "Optimality"
    assert (iv.beta2, iv.beta2_row) == (rat(5, 2), 2)
    assert (iv.alpha2, iv.alpha2_row) == (3, 6)
    # phi(2) = 0 at the left end, negative inside
    assert iv.objective.at(rat(2)) == 0
    assert iv.objective.at(rat(9, 4)) < 0


def test_equilibria_read_at_interval_ends(kt2_tab):
    iv = basis_interval(kt2_tab, ParametricBasis.from_rows((2, 3, 5), 2, 2))
    eqs = equilibria_on_interval(kt2_tab, iv)
    assert [(e.key(), e.source_xi) for e in eqs] == [
        (((rat(1), rat(0)), (rat(1), rat(0))), 2)
    ]
    # an objective that is 0 at both ends is 0 on the whole interval
    flat = replace(iv, objective=AffineR(rat(0), rat(0)))
    with pytest.raises(DegenerateGame, match="vanishes on a whole interval"):
        equilibria_on_interval(kt2_tab, flat)
    # the objective of an optimal basis is never positive
    rising = replace(iv, objective=AffineR(rat(-4), rat(2)))  # 1 at xi = 5/2
    with pytest.raises(InternalInvariantError, match="objective positive"):
        equilibria_on_interval(kt2_tab, rising)
    # on a zero-length interval one end is both ends
    point = replace(iv, xi2=iv.xi1, objective=AffineR(rat(0), rat(0)))
    assert [e.source_xi for e in equilibria_on_interval(kt2_tab, point)] == [2]


def test_advance_chain(kt2_tab):
    t = kt2_tab
    b = ParametricBasis.from_rows((2, 3, 5), 2, 2)
    seen = [b.rows]
    for _ in range(3):
        b = advance(t, basis_interval(t, b))
        seen.append(b.rows)
    assert seen == [(2, 3, 5), (3, 4, 5), (3, 4, 6), (1, 4, 6)]
    # past xi_max = 4 the slice c^T y = xi is empty: no row can leave
    with pytest.raises(Stalled, match="empty ratio test"):
        advance(t, basis_interval(t, b))


def test_enumerate_kt2_with_explicit_factor():
    g = generate_kt(2)
    f = RankOneFactorization.for_game(g, (2, 4), (2, 4))
    tr = enumerate_all(g, f)
    assert tr.dispatch == "general"
    assert (tr.xi_min, tr.xi_max) == (2, 4)
    assert [bp.xi for bp in tr.breakpoints] == [rat(5, 2), 3, rat(7, 2)]
    assert [bp.kind for bp in tr.breakpoints] == [
        "Optimality",
        "Feasibility",
        "Optimality",
    ]
    assert [(bp.leaving, bp.entering) for bp in tr.breakpoints] == [
        (2, 4),
        (5, 6),
        (3, 1),
    ]
    assert [(e.key(), e.source_xi) for e in tr.equilibria] == [
        (((rat(0), rat(1)), (rat(0), rat(1))), 4),
        (((rat(1, 2), rat(1, 2)), (rat(1, 2), rat(1, 2))), 3),
        (((rat(1), rat(0)), (rat(1), rat(0))), 2),
    ]


def test_sweep_table_golden(kt2_tab):
    tr = enumerate_all(generate_kt(2), kt2_tab.factorization)
    rows = sweep_table(kt2_tab, tr)
    flat = [
        (r.kind, r.xi if r.kind == "point" else r.span, r.objective, set(r.binding))
        for r in rows
    ]
    assert flat == [
        ("point", rat(2), 0, {2, 3, 5, 8}),
        ("interval", (rat(2), rat(5, 2)), None, {2, 3, 5}),
        ("point", rat(5, 2), rat(-1, 4), {2, 3, 4, 5}),
        ("interval", (rat(5, 2), rat(3)), None, {3, 4, 5}),
        ("point", rat(3), 0, {3, 4, 5, 6}),
        ("interval", (rat(3), rat(7, 2)), None, {3, 4, 6}),
        ("point", rat(7, 2), rat(-1, 4), {1, 3, 4, 6}),
        ("interval", (rat(7, 2), rat(4)), None, {1, 4, 6}),
        ("point", rat(4), 0, {1, 4, 6, 7}),
    ]


def test_enumerate_matches_oracle_on_fixture(unreach22):
    tr = enumerate_all(unreach22)
    assert tr.dispatch == "general"
    got = [(e.key(), e.payoff1, e.payoff2) for e in tr.equilibria]
    want = [
        (e.key(), e.payoff1, e.payoff2)
        for e in support_enumeration(unreach22).equilibria
    ]
    assert got == want
    assert sorted(e.source_xi for e in tr.equilibria) == [-18, 6, 12]


def test_kt_family_counts():
    for d in range(1, 6):
        g = generate_kt(d)
        tr = enumerate_all(g)
        assert len(tr.equilibria) == 2 * d - 1
        assert [e.key() for e in tr.equilibria] == [
            e.key() for e in equilibria_by_labels(g)
        ]


def test_zero_sum_dispatch():
    a = ((3, -1), (0, 2))
    g = BimatrixGame.from_payoffs(a, tuple(tuple(-v for v in r) for r in a))
    tr = enumerate_all(g)
    assert tr.dispatch == "zero-sum"
    assert (tr.xi_min, tr.xi_max) == (0, 0)
    assert len(tr.intervals) == 0
    assert [e.key() for e in tr.equilibria] == [
        e.key() for e in support_enumeration(g).equilibria
    ]


def test_zero_sum_random_matches_oracle():
    rng = random.Random(7741)
    done = 0
    while done < 10:
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        a = tuple(
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m)
        )
        g = BimatrixGame.from_payoffs(a, tuple(tuple(-v for v in r) for r in a))
        try:
            tr = enumerate_all(g)
        except DegenerateGame:
            continue
        res = support_enumeration(g)
        if res.degenerate_suspect:
            continue
        assert len(tr.equilibria) == 1
        assert [e.key() for e in tr.equilibria] == [
            e.key() for e in res.equilibria
        ]
        done += 1


def test_row_constant_dispatch():
    a = ((1, 4), (2, 0))
    u = (5, 3)
    b = tuple(
        tuple(u[i] - a[i][j] for j in range(2)) for i in range(2)
    )
    g = BimatrixGame.from_payoffs(a, b)
    tr = enumerate_all(g)
    assert tr.dispatch == "row-constant"
    assert [e.key() for e in tr.equilibria] == [
        e.key() for e in support_enumeration(g).equilibria
    ]
    # payoffs are reported for the original game, not the reduced one
    for e in tr.equilibria:
        assert e.payoff1 + e.payoff2 == sum(
            u[i] * xv for i, xv in enumerate(e.strategies.x)
        )


def test_factor_rescaling_leaves_equilibria_alone(unreach22):
    base = [e.key() for e in enumerate_all(unreach22).equilibria]
    f0 = enumerate_all(unreach22).factorization
    for t in (rat(2), rat(1, 3), rat(-1)):
        f = RankOneFactorization.for_game(
            unreach22,
            tuple(v * t for v in f0.b),
            tuple(v / t for v in f0.c),
        )
        tr = enumerate_all(unreach22, f)
        assert [e.key() for e in tr.equilibria] == base


def test_intervals_tile_the_range():
    rng = random.Random(880)
    done = 0
    while done < 12:
        g = random_rank1_game(rng, rng.randint(2, 4), rng.randint(2, 4))
        try:
            tr = enumerate_all(g)
        except DegenerateGame:
            continue
        if tr.dispatch != "general":
            continue
        ivs = tr.intervals
        assert ivs[0].xi1 == tr.xi_min
        assert ivs[-1].xi2 == tr.xi_max
        for a, b in zip(ivs, ivs[1:]):
            assert a.xi2 == b.xi1
        # the objective never goes positive: check ends and midpoints
        for iv in ivs:
            for xi in (iv.xi1, (iv.xi1 + iv.xi2) / 2, iv.xi2):
                assert iv.objective.at(xi) <= 0
        done += 1


def test_interval_count_bounded_by_vertex_product():
    from rank1nash import build_polyhedron, enumerate_vertices

    rng = random.Random(5150)
    done = 0
    while done < 12:
        g = random_rank1_game(rng, rng.randint(2, 4), rng.randint(2, 4))
        try:
            tr = enumerate_all(g)
        except DegenerateGame:
            continue
        if tr.dispatch != "general":
            continue
        f0p = len(enumerate_vertices(build_polyhedron(g, "P")))
        f0q = len(enumerate_vertices(build_polyhedron(g, "Q")))
        assert len(tr.intervals) <= f0p * f0q
        done += 1


def test_zero_sum_duals_mirror_primals():
    rng = random.Random(430)
    done = 0
    while done < 10:
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        a = tuple(
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m)
        )
        g = BimatrixGame.from_payoffs(a, tuple(tuple(-v for v in r) for r in a))
        assert zero_sum_dual_coincidence(build_tableau(g))
        done += 1


def test_degenerate_games_refused():
    g = BimatrixGame.from_payoffs(((1, 1), (1, 1)), ((1, 1), (1, 1)))
    with pytest.raises(DegenerateGame):
        enumerate_all(g)


def test_general_dispatch_never_sees_constant_c():
    # a game whose c factor is constant is row-constant, so the general
    # sweep always has xi_min < xi_max
    rng = random.Random(26)
    for _ in range(30):
        g = random_rank1_game(rng, 3, 3)
        try:
            tr = enumerate_all(g)
        except DegenerateGame:
            continue
        if tr.dispatch == "general":
            assert tr.xi_min < tr.xi_max


def _sweep_oracle_labels(g):
    tr = enumerate_all(g)
    keys = [e.key() for e in tr.equilibria]
    assert keys == [e.key() for e in support_enumeration(g).equilibria]
    assert keys == [e.key() for e in equilibria_by_labels(g)]
    return tr


def test_tied_minimum_of_c():
    # min c = -12 is attained by columns 1 and 3, so the slice of Q at
    # xi_min is an edge, not a vertex
    g = random_rank1_game(random.Random(14), 4, 3)
    tr = _sweep_oracle_labels(g)
    assert tr.factorization.c == (-12, 6, -12)
    assert [(bp.xi, bp.kind, bp.leaving, bp.entering) for bp in tr.breakpoints] == [
        (rat(-54, 7), "Optimality", 1, 6),
        (rat(-2), "Feasibility", 12, 8),
        (rat(0), "Optimality", 3, 5),
        (rat(6, 5), "Feasibility", 11, 14),
        (rat(126, 53), "Optimality", 7, 4),
        (rat(3), "Optimality", 5, 3),
    ]
    assert [e.source_xi for e in tr.equilibria] == [-12, -2, 6]


@pytest.mark.parametrize(
    "seed, m, n, kinds",
    [
        (19, 5, 2, ["Both", "Optimality"]),
        (
            173,
            5,
            4,
            [
                "Feasibility",
                "Optimality",
                "Feasibility",
                "Optimality",
                "Both",
                "Optimality",
                "Optimality",
            ],
        ),
    ],
)
def test_both_breakpoint_takes_the_feasibility_pivot(seed, m, n, kinds):
    # past a "Both" breakpoint the Q-side row that breaks feasibility
    # enters; the next basis is optimal only at that point, and its own
    # optimality breakpoint moves the P side
    g = random_rank1_game(random.Random(seed), m, n)
    tr = _sweep_oracle_labels(g)
    assert [bp.kind for bp in tr.breakpoints] == kinds
    both = kinds.index("Both")
    bp, iv = tr.breakpoints[both], tr.intervals[both]
    assert bp.entering == iv.alpha2_row
    assert bp.leaving > m + n  # rows past m+n are the Q side
    after = tr.intervals[both + 1]
    assert after.xi1 == after.xi2 == bp.xi
    assert after.case == "Optimality"


def _dense_solve_basis(t, basis):
    """Reference: the whole (m+n+2)-square basis system, solved densely."""
    rows = basis.rows
    s = RMatrix.from_rows([t.m1.entries[r - 1] for r in rows] + list(t.m2.entries))
    nb = len(rows)
    z = solve_square(s, (rat(0),) * nb + t.e2_const, (rat(0),) * nb + t.e2_slope)
    w = solve_square(s.transpose(), t.dual_rhs_const, t.dual_rhs_slope)
    k = t.k_rows
    uc, us = [rat(0)] * (k + 3), [rat(0)] * (k + 3)
    for pos, l in enumerate([r - 1 for r in rows] + [k, k + 1, k + 2]):
        uc[l], us[l] = w.const[pos], w.slope[pos]
    return s, z, AffineRVector(tuple(uc), tuple(us))


def _dense_pivot(t, iv):
    """Reference: advance's (leaving, entering) rows from the dense system."""
    rows = iv.basis.rows
    s, z, u = _dense_solve_basis(t, iv.basis)
    if iv.case in ("Feasibility", "Both"):
        enter = iv.alpha2_row
        lam = solve_square(s.transpose(), t.m1.entries[enter - 1]).const
        uv = u.at(iv.xi2)
        ratios = [(uv[r - 1] / lam[p], r) for p, r in enumerate(rows) if lam[p] > 0]
        return min(ratios)[1], enter
    leave = iv.beta2_row
    unit = [rat(0)] * s.rows
    unit[rows.index(leave)] = rat(-1)
    d = solve_square(s, unit).const
    zv = z.at(iv.xi2)
    ratios = [
        (-vdot(row, zv) / rate, r)
        for r, row in enumerate(t.m1.entries, start=1)
        if r not in rows and (rate := vdot(row, d)) > 0
    ]
    return leave, min(ratios)[1]


def _fractional_rank1_game(rng, m, n):
    def draw():
        return rat(rng.randint(-30, 30), rng.randint(1, 7))

    a = [[draw() for _ in range(n)] for _ in range(m)]
    b, c = [draw() for _ in range(m)], [draw() for _ in range(n)]
    return BimatrixGame.from_payoffs(
        a, [[b[i] * c[j] - a[i][j] for j in range(n)] for i in range(m)]
    )


def _differential_sweeps():
    for d in range(2, 7):
        yield enumerate_all(generate_kt(d))
    rng = random.Random(3607)
    done = 0
    while done < 20:
        g = _fractional_rank1_game(rng, rng.randint(2, 5), rng.randint(2, 5))
        try:
            tr = enumerate_all(g)
        except DegenerateGame:
            continue
        if tr.dispatch != "general":
            continue
        done += 1
        yield tr
        f = tr.factorization
        for lam in (rat(-2), rat(1, 3)):
            yield enumerate_all(
                g,
                RankOneFactorization.for_game(
                    g, [v * lam for v in f.b], [v / lam for v in f.c]
                ),
            )


def test_block_solves_match_dense_reference():
    # the sweep solves the two diagonal blocks of each basis system; the
    # whole system solved densely must give the same z, u and pivots
    pivots = 0
    for tr in _differential_sweeps():
        t = build_tableau(tr.game, tr.factorization)
        for iv in tr.intervals:
            _, z, u = _dense_solve_basis(t, iv.basis)
            assert (iv.z, iv.u) == (z, u)
            assert solve_basis(t, iv.basis) == (z, u)
        for iv, bp in zip(tr.intervals, tr.breakpoints):
            assert _dense_pivot(t, iv) == (bp.leaving, bp.entering)
            pivots += 1
    assert pivots > 100


def _counting_games():
    for d in range(2, 7):
        yield generate_kt(d)
    rng = random.Random(6021)
    done = 0
    while done < 8:
        g = random_rank1_game(rng, rng.randint(2, 5), rng.randint(2, 5))
        try:
            tr = enumerate_all(g)
        except DegenerateGame:
            continue
        if tr.dispatch == "general":
            done += 1
            yield g


def test_one_pivot_per_breakpoint(monkeypatch):
    # each call is recorded with the names of the wrapped calls it is inside
    from rank1nash import linalg, parametric

    stack: list[str] = []
    calls: list[tuple[str, set[str], tuple]] = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, set(stack), args))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    names = ("basis_interval", "advance", "initial_basis", "solve_square", "is_nash")
    for name in names:
        monkeypatch.setattr(parametric, name, counted(name, getattr(parametric, name)))
    monkeypatch.setattr(
        linalg, "solve_square", counted("solve_square", linalg.solve_square)
    )

    def count(name, inside=None, outside=frozenset()):
        return sum(
            1
            for n, enclosing, _ in calls
            if n == name
            and (inside is None or inside in enclosing)
            and not outside & enclosing
        )

    for g in _counting_games():
        calls.clear()
        tr = enumerate_all(g)
        assert count("basis_interval", inside="advance") == 0
        # an equilibrium at an end shared by two intervals is checked once
        assert count("is_nash") == len(tr.equilibria)
        sweep = count("basis_interval", outside={"advance", "initial_basis"})
        assert sweep == len(tr.intervals)
        assert count("solve_square", inside="advance") == len(tr.breakpoints)
        assert count("solve_square", "initial_basis", {"basis_interval"}) == 0
        # each side's block is solved once per set of basic rows, by one
        # primal and one dual solve, however many bases share that side
        bases = [args[1] for n, _, args in calls if n == "basis_interval"]
        sides = {("P", b.i_labels) for b in bases} | {("Q", b.j_labels) for b in bases}
        assert count("solve_square", outside={"advance"}) == 2 * len(sides)
        if g == generate_kt(6):
            assert (len(tr.intervals), len(bases)) == (20, 25)
