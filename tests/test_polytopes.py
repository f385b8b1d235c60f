"""Best-response polyhedra: vertex enumeration, labels, non-degeneracy."""

from __future__ import annotations

import gc
import math
import random
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    baseline_game,
    label_set_edges,
    node_at,
    random_game,
    random_rank1_game,
    vertex_nodes,
)
from dense_lp import polyhedron_rows
from test_differential import rank1_games
from rank1nash import (
    DegenerateGame,
    BimatrixGame,
    EquilibriumPoint,
    IntegerPayoffs,
    InternalInvariantError,
    LabeledVertex,
    MixedStrategyPair,
    SingularMatrix,
    check_nondegenerate,
    enumerate_all,
    enumerate_vertices,
    equilibria_by_labels,
    generate_kt,
    gprime_components,
    is_nash,
    lh_run,
    lemke_howson,
    load_game,
    parametric,
    polytopes,
    rat,
    reachability,
    require_nondegenerate,
)
from rank1nash.linalg import _pivot, clear_rows, solve, vdot
from rank1nash.polytopes import _feasible_bases, _ratio_test


def _positive_integer_rows(rows):
    """(mat, scale, shift): the walk's matrix for the payoff rows, which
    are ints / scale, each entry ints + shift with the least entry 1."""
    ints, scale = clear_rows(rows)
    shift = 1 - min(map(min, ints))
    return [[v + shift for v in row] for row in ints], scale, shift


def _rhs_bases(mat):
    """(basis, rhs, det) for each basis the walk yields: basis[r] has the
    value rhs[r] / det."""
    walk = _feasible_bases([row + [1] for row in mat], [])
    for (basis, _, _, det), rhs, _, _ in walk:
        yield basis, rhs, det


def _subset_scan(g, which):
    """Reference vertex enumeration: solve every (dim-1)-subset of the
    inequality rows together with the equality, keep the feasible points,
    and read each point's labels off the rows tight there."""
    ineq, eq = polyhedron_rows(g, which)
    seen = {}
    for subset in combinations(ineq, len(eq[0]) - 1):
        rows = [coeffs for coeffs, _ in subset] + [eq[0]]
        rhs = [r for _, r in subset] + [eq[1]]
        try:
            point = solve(rows, rhs)
        except SingularMatrix:
            continue
        if point in seen or any(vdot(c, point) > r for c, r in ineq):
            continue
        labels = frozenset(
            l for l, (c, r) in enumerate(ineq, start=1) if vdot(c, point) == r
        )
        seen[point] = LabeledVertex(point, labels)
    return tuple(sorted(seen.values(), key=lambda v: v.point))


def _vertex_map(g, which):
    return {v.point: set(v.labels) for v in enumerate_vertices(g, which)}


def test_vertices_of_unreachable_game(unreach22):
    # worked by hand: P lives over (x, pi2), Q over (y, pi1); labels 1..2
    # are row labels, 3..4 column labels on both sides
    p = _vertex_map(unreach22, "P")
    assert p == {
        (rat(0), rat(1), rat(20)): {1, 3},
        (rat(1, 5), rat(4, 5), rat(18)): {3, 4},
        (rat(1), rat(0), rat(30)): {2, 4},
    }
    q = _vertex_map(unreach22, "Q")
    assert q == {
        (rat(0), rat(1), rat(-18)): {1, 3},
        (rat(1, 5), rat(4, 5), rat(-20)): {1, 2},
        (rat(1), rat(0), rat(-8)): {2, 4},
    }


def test_vertex_labels_demo(demo23):
    # frozen from the enumeration output after checking each vertex by hand;
    # e.g. at x = (2/5, 3/5) columns 1 and 3 tie at 4, giving labels {3, 5}
    assert _vertex_map(demo23, "P") == {
        (rat(0), rat(1), rat(6)): {1, 5},
        (rat(2, 5), rat(3, 5), rat(4)): {3, 5},
        (rat(1, 2), rat(1, 2), rat(9, 2)): {3, 4},
        (rat(1), rat(0), rat(8)): {2, 4},
    }
    assert _vertex_map(demo23, "Q") == {
        (rat(0), rat(0), rat(1), rat(5)): {1, 3, 4},
        (rat(0), rat(1), rat(0), rat(1)): {1, 3, 5},
        (rat(1, 2), rat(0), rat(1, 2), rat(7, 2)): {1, 2, 4},
        (rat(1, 2), rat(1, 2), rat(0), rat(3, 2)): {1, 2, 5},
        (rat(1), rat(0), rat(0), rat(3)): {2, 4, 5},
    }


def test_vertices_satisfy_all_inequalities():
    rng = random.Random(3301)
    for _ in range(15):
        g = random_game(rng, rng.randint(2, 3), rng.randint(2, 3))
        for which in ("P", "Q"):
            ineq, (ceq, req) = polyhedron_rows(g, which)
            for v in enumerate_vertices(g, which):
                for coeffs, rhs in ineq:
                    assert vdot(coeffs, v.point) <= rhs
                assert vdot(ceq, v.point) == req


def test_enumerate_vertices_refuses_an_unknown_side(demo23):
    # the walk reads every side other than "P" as Q
    with pytest.raises(ValueError, match="which must be 'P' or 'Q'"):
        enumerate_vertices(demo23, "X")


def test_label_bound_on_nondegenerate_games(unreach22, demo23, disconnected33):
    for g in (unreach22, demo23, disconnected33):
        ok, witness = check_nondegenerate(g)
        assert ok and witness is None
        for v in enumerate_vertices(g, "P"):
            assert len(v.labels) == g.m
        for v in enumerate_vertices(g, "Q"):
            assert len(v.labels) == g.n


def test_degenerate_witness():
    # duplicate columns of B give x = e2 a double best reply
    g = BimatrixGame.from_payoffs(((1, 1), (1, 1)), ((1, 1), (1, 1)))
    ok, witness = check_nondegenerate(g)
    assert not ok
    assert len(witness.labels) > 2


def test_equilibria_by_labels_demo(demo23):
    eqs = equilibria_by_labels(demo23)
    assert [
        (e.strategies.x, e.strategies.y, e.payoff1, e.payoff2) for e in eqs
    ] == [
        ((rat(2, 5), rat(3, 5)), (rat(1, 2), rat(0), rat(1, 2)), rat(7, 2), rat(4)),
        ((rat(1, 2), rat(1, 2)), (rat(1, 2), rat(1, 2), rat(0)), rat(3, 2), rat(9, 2)),
        ((rat(1), rat(0)), (rat(0), rat(1), rat(0)), rat(1), rat(8)),
    ]


def test_equilibria_by_labels_unreachable(unreach22):
    eqs = equilibria_by_labels(unreach22)
    assert [(e.payoff1, e.payoff2) for e in eqs] == [(-8, 20), (-20, 18), (-18, 30)]
    # each pair covers every label exactly
    p = _vertex_map(unreach22, "P")
    q = _vertex_map(unreach22, "Q")
    for e in eqs:
        lp = p[e.strategies.x + (max(vdot(e.strategies.x, col) for col in zip(*unreach22.B)),)]
        lq = q[e.strategies.y + (max(vdot(row, e.strategies.y) for row in unreach22.A),)]
        assert lp | lq == {1, 2, 3, 4}


def test_equilibria_by_labels_rejects_degenerate():
    g = BimatrixGame.from_payoffs(((1, 1), (1, 1)), ((1, 1), (1, 1)))
    with pytest.raises(DegenerateGame):
        equilibria_by_labels(g)


def test_pivot_walk_matches_subset_scan():
    # every shape 1x1..4x4; narrow payoff ranges make many draws degenerate,
    # and a third of the draws have fractional payoffs
    rng = random.Random(6113)
    games = [generate_kt(d) for d in range(1, 5)]
    for m in range(1, 5):
        for n in range(1, 5):
            for draw in range(9):
                span = (1, 2, 9)[draw % 3]
                den = 1 if draw < 6 else 7
                payoffs = [
                    [[rat(rng.randint(-span, span), rng.randint(1, den))
                      for _ in range(n)] for _ in range(m)]
                    for _ in range(2)
                ]
                games.append(BimatrixGame.from_payoffs(*payoffs))
    degenerate = 0
    for g in games:
        for which in ("P", "Q"):
            assert enumerate_vertices(g, which) == _subset_scan(g, which), (g, which)
        degenerate += not check_nondegenerate(g)[0]
    assert degenerate > 0


def _tied_matrices():
    """Small positive matrices whose entries 1..3 force ratio-test ties."""
    rng = random.Random(7207)
    for _ in range(60):
        k, d = rng.randint(1, 4), rng.randint(1, 4)
        yield [[rng.randint(1, 3) for _ in range(d)] for _ in range(k)]


def test_walk_visits_every_feasible_basis():
    # small entries force ratio-test ties; branching on every tied row must
    # reach each feasible basis, not only one basis per vertex
    for mat in _tied_matrices():
        k, d = len(mat), len(mat[0])
        full = [row + [int(c == r) for c in range(k)] for r, row in enumerate(mat)]
        feasible = set()
        for cols in combinations(range(d + k), k):
            square = [[row[c] for c in cols] for row in full]
            try:
                z = solve(square, [1] * k)
            except SingularMatrix:
                continue
            if min(z) >= 0:
                feasible.add(frozenset(cols))
        walk = _feasible_bases([row + [1] for row in mat], [])
        assert {frozenset(b) for (b, _, _, _), *_ in walk} == feasible, mat


def test_labels_read_off_the_cobasis():
    # the walk reads a vertex's labels off its first basis: the cobasis, plus
    # the basic variables at zero when there are any. Every basis of a vertex
    # must give that set, and a basis with no basic variable at zero must be
    # the only basis with its key, so that no set algebra is needed there
    rng = random.Random(7211)
    cases = [(mat, None, None, None) for mat in _tied_matrices()]
    for _ in range(80):
        g = random_game(rng, rng.randint(1, 4), rng.randint(1, 4), -2, 2)
        names = {
            "P": tuple(range(1, g.m + g.n + 1)),
            "Q": tuple(range(g.m + 1, g.m + g.n + 1)) + tuple(range(1, g.m + 1)),
        }
        for which, rows in (("P", tuple(zip(*g.B))), ("Q", g.A)):
            cases.append((_positive_integer_rows(rows)[0], g, which, names[which]))
    shared = 0
    for mat, g, which, names in cases:
        k, d = len(mat), len(mat[0])
        every = set(range(d + k))
        by_key: dict[tuple, list] = {}
        walk = _feasible_bases([row + [1] for row in mat], [])
        for (basis, cobasis, dic, _), *_ in walk:
            zero = [var for var, row in zip(basis, dic) if row[-1] == 0]
            # the old readout: every variable outside the basis, and the
            # basic ones at zero
            assert set(cobasis) | set(zero) == (every - set(basis)) | set(zero)
            z = [0] * d
            for var, row in zip(basis, dic):
                if var < d:
                    z[var] = row[-1]
            if not any(z):
                continue
            common = math.gcd(*z)
            key = tuple(v // common for v in z)
            by_key.setdefault(key, []).append((frozenset(cobasis + zero), not zero))
        for key, seen in by_key.items():
            assert len({labels for labels, _ in seen}) == 1, (mat, key)
            if any(simple for _, simple in seen):
                assert len(seen) == 1, (mat, key)
            shared += len(seen) > 1
        if g is not None:
            got = {v.labels for v in enumerate_vertices(g, which)}
            want = {
                frozenset(names[v] for v in seen[0][0]) for seen in by_key.values()
            }
            assert got == want, (g, which)
    assert shared > 0


def test_pivot_rejects_inexact_division():
    # a determinant that is not the previous pivot breaks Bareiss exactness
    with pytest.raises(InternalInvariantError):
        _pivot([[2, 1, 1], [1, 1, 1]], 0, 0, 3)


def _reference_walk(start, steps):
    """Reference: the walk that ratio-tests every column of every basis and
    pivots every dictionary whole, keeping the set of the bases seen."""
    k, d = len(start), len(start[0]) - 1
    mask = ((1 << k) - 1) << d
    seen = {mask}
    origin = (list(range(d, d + k)), list(range(d)), start, 1)
    stack = [(origin, None, None, mask)]
    while stack:
        state, r, col, mask = stack.pop()
        if r is not None:
            basis, cobasis, dic, det = state
            nxt, co = basis.copy(), cobasis.copy()
            nxt[r], co[col] = cobasis[col], basis[r]
            state = (nxt, co, _pivot(dic, r, col, det), dic[r][col])
        yield state
        basis, cobasis, dic, det = state
        out = []
        for col, enter in enumerate(cobasis):
            for r in _ratio_test(dic, col):
                leave = basis[r]
                out += enter, leave
                nxt = mask ^ 1 << enter ^ 1 << leave
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((state, r, col, nxt))
        steps.append(out)


def _states(walk):
    """The state of each basis ``_feasible_bases`` yields, once the
    right-hand side, mask and zero test it hands over with the state are
    checked against the state itself."""
    for state, rhs, mask, positive in walk:
        basis, _, dic, _ = state
        assert rhs == [row[-1] for row in dic]
        assert mask == sum(1 << var for var in basis)
        assert positive == all(value > 0 for value in rhs)
        yield state


def _strategy(integers) -> tuple:
    """The strategy key / den of a vertex's integers (key, den, num,
    pay_den), as rationals."""
    key, den = integers[:2]
    return tuple(rat(v, den) for v in key)


def _eager_walk(payoffs, which):
    """Reference: the earlier full readout of the walk of P' (which="P") or
    Q', over ``_reference_walk``, as (records, steps). Each non-zero vertex
    is one record (integers, zeros, number), read at its first basis, with
    ``zeros`` its variables at zero and ``number`` that basis; the records
    are sorted by point, and the steps come in their order, the origin's
    last."""
    ints, scale = (payoffs.bt, payoffs.b_scale) if which == "P" else (
        payoffs.a, payoffs.a_scale
    )
    shift = 1 - min(map(min, ints)) // scale
    start = []
    for row in ints:
        common = math.gcd(scale, *row)
        s = scale // common
        start.append([v // common + s * shift for v in row] + [s])
    d = len(ints[0])
    steps, found = [], {}
    for number, (basis, cobasis, dic, det) in enumerate(_reference_walk(start, steps)):
        z, tight = [0] * d, []
        for var, row in zip(basis, dic):
            if not row[-1]:
                tight.append(var)
            elif var < d:
                z[var] = row[-1]
        total = sum(z)
        if total == 0:
            continue
        common = math.gcd(*z)
        key = tuple(v // common for v in z)
        if key not in found:
            integers = (key, total // common, det - shift * total, total)
            found[key] = (integers, sum(1 << v for v in cobasis + tight), number)
    records = sorted(found.values(), key=lambda r: _strategy(r[0]))
    return records, [steps[r[2]] for r in records] + [steps[0]]


class _EagerGraph:
    """Reference: the earlier eager vertex graph of a walk of ``_eager_walk``
    labelled for P or Q: every vertex built at once and sorted by point,
    the origin as node V after the V vertices, and ``at``, the node of each
    label mask, built over every node."""

    def __init__(self, walk, payoffs, which):
        records, self.steps = walk
        m, n = len(payoffs.a), len(payoffs.bt)
        if which == "P":
            self.labels = tuple(range(1, m + n + 1))
        else:
            self.labels = tuple(range(m + 1, m + n + 1)) + tuple(range(1, m + 1))
        self.vertices = tuple(
            LabeledVertex._from_integers(
                integers,
                sum(1 << self.labels[v] for v in range(m + n) if zeros >> v & 1),
            )
            for integers, zeros, _ in records
        )
        d = m if which == "P" else n
        self.origin = LabeledVertex(None, frozenset(self.labels[:d]))
        self.nodes = (*self.vertices, self.origin)
        self.at = {v.mask: k for k, v in enumerate(self.nodes)}

    def near(self, k):
        it, mask, labels = iter(self.steps[k]), self.nodes[k].mask, self.labels
        return {
            labels[enter]: self.at[mask ^ 1 << labels[enter] ^ 1 << labels[leave]]
            for enter, leave in zip(it, it)
        }


def _eager_check(payoffs, m, n):
    """Reference: the earlier check, on the eager graph of each side's own
    walk, P first: DegenerateGame on the first vertex by point with more
    labels than its side's dimension; the two graphs otherwise."""
    graphs = []
    for which, d in (("P", m), ("Q", n)):
        graph = _EagerGraph(_eager_walk(payoffs, which), payoffs, which)
        for v in graph.vertices:
            if len(v.labels) != d:
                pt = "(" + ", ".join(str(x) for x in v.point) + ")"
                raise DegenerateGame(
                    f"vertex {pt} carries labels {sorted(v.labels)}", witness=v
                )
        graphs.append(graph)
    return graphs


def _assert_walk_is_reference(start):
    """The walk yields the reference's bases in its order, with the same
    cobases, right-hand sides and det, and appends the same steps."""
    walks = []
    for walk in (lambda *a: _states(_feasible_bases(*a)), _reference_walk):
        steps = []
        bases = [
            (basis, cobasis, [row[-1] for row in dic], det)
            for basis, cobasis, dic, det in walk(start, steps)
        ]
        walks.append((bases, steps))
    assert walks[0] == walks[1], start


def _walk_starts(g):
    """The origin's dictionary of each of g's two walks."""
    starts = []

    def kept(start, steps):
        starts.append(start)
        return _feasible_bases(start, steps)

    payoffs = IntegerPayoffs.of(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytopes, "_feasible_bases", kept)
        for which in ("P", "Q"):
            polytopes._walk(payoffs, which)
    return starts


def test_walk_matches_the_reference_walk():
    # a step settled at its far end skips that end's ratio test, and a basis
    # whose steps are all settled pivots two columns, [entering, rhs]; neither
    # changes a basis, its order, its right-hand side or a step
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 11)]
    games.append(_bigrat_game(random.Random(1), 5, 5))
    starts = [start for g in games for start in _walk_starts(g)]
    starts += [[row + [1] for row in mat] for mat in _tied_matrices()]
    for start in starts:
        _assert_walk_is_reference(start)


@st.composite
def integer_games(draw, bound):
    """Games of 1..5 x 1..5 with integer payoffs in -bound..bound."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.integers(-bound, bound)
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
    return BimatrixGame.from_payoffs(draw(matrix), draw(matrix))


@settings(max_examples=100, deadline=None)
@given(integer_games(2))
def test_walk_matches_the_reference_walk_on_draws(g):
    # payoffs in -2..2: many draws are degenerate and tie the ratio test
    for start in _walk_starts(g):
        _assert_walk_is_reference(start)


def test_steps_out_of_a_degenerate_basis_are_tested_from_both_ends(monkeypatch):
    # the triangle's corner (1/3, 1/3) lies on all three lines 2x + y = 1,
    # x + 2y = 1 and 3x + 3y = 2, so each of its three bases has a basic
    # variable at zero. Such a basis settles nothing at its neighbours, so
    # each step it ratio-tests is ratio-tested again at the far end: 3 edges
    # are tested from both ends, and the walk makes 8 ratio tests for its 7
    # edges, where the reference tests every column of its 6 bases, 12
    start = [[2, 1, 1], [1, 2, 1], [3, 3, 2]]
    _assert_walk_is_reference(start)
    tested = []  # (basis, entering variable) of each ratio test
    here = {}

    def counted(dic, col):
        tested.append((here["basis"], here["cobasis"][col]))
        return _ratio_test(dic, col)

    monkeypatch.setattr(polytopes, "_ratio_test", counted)
    bases, steps = [], []
    for (basis, cobasis, _, _), _, _, positive in _feasible_bases(start, steps):
        here.update(basis=frozenset(basis), cobasis=cobasis)
        bases.append((here["basis"], positive))
    zero = {basis for basis, positive in bases if not positive}
    edges, both = set(), set()
    for (basis, _), out in zip(bases, steps):
        it = iter(out)
        for enter, leave in zip(it, it):
            far = basis - {leave} | {enter}
            edge = frozenset((basis, far))
            edges.add(edge)
            if (basis, enter) in tested and (far, leave) in tested:
                both.add(edge)
            elif basis in zero:
                assert (basis, enter) not in tested, (basis, enter, leave)
    assert all(edge & zero for edge in both)
    assert (len(zero), len(tested), len(edges), len(both)) == (3, 8, 7, 3)


def _full_tableau_bases(mat):
    """Reference walk over the full fraction-free tableau [mat | I | 1]:
    every pivot recomputes all d + k columns, basic ones included."""
    k, d = len(mat), len(mat[0])
    tab = [row + [int(c == r) for c in range(k)] + [1] for r, row in enumerate(mat)]
    basis = list(range(d, d + k))
    seen, stack = {frozenset(basis)}, [(basis, tab, 1)]
    while stack:
        basis, tab, det = stack.pop()
        yield basis, [row[-1] for row in tab], det
        for col in (c for c in range(d + k) if c not in basis):
            ratios = {
                r: rat(row[-1], row[col]) for r, row in enumerate(tab) if row[col] > 0
            }
            for r in (r for r, v in ratios.items() if v == min(ratios.values())):
                nxt = basis.copy()
                nxt[r] = col
                if frozenset(nxt) in seen:
                    continue
                seen.add(frozenset(nxt))
                p, prow = tab[r][col], tab[r]
                new = [
                    [(p * a - row[col] * b) // det for a, b in zip(row, prow)]
                    for row in tab
                ]
                new[r] = prow
                stack.append((nxt, new, p))


def _bases(walk):
    """Each basis as its (variable, rhs) pairs in variable order, and det:
    the row a variable sits in depends on the path the walk took to it."""
    return [(tuple(sorted(zip(b, rhs))), det) for b, rhs, det in walk]


def test_dictionary_walk_matches_the_full_tableau():
    # small entries tie the ratio test; the kt polytopes are large and simple
    rng = random.Random(4409)
    mats = []
    for _ in range(80):
        k, d = rng.randint(1, 5), rng.randint(1, 5)
        mats.append([[rng.randint(1, 3) for _ in range(d)] for _ in range(k)])
    for d in range(1, 9):
        g = generate_kt(d)
        mats += [_positive_integer_rows(rows)[0] for rows in (tuple(zip(*g.B)), g.A)]
    for mat in mats:
        want = _bases(_full_tableau_bases(mat))
        got = _bases(_rhs_bases(mat))
        assert len(set(want)) == len(want) == len(got)
        assert set(got) == set(want), mat


def _eager_vertices(g, which):
    """Reference: every vertex point built as rationals at once, merged and
    sorted by that point."""
    payoffs = tuple(zip(*g.B)) if which == "P" else g.A
    labels = (
        tuple(range(1, g.m + g.n + 1))
        if which == "P"
        else tuple(range(g.m + 1, g.m + g.n + 1)) + tuple(range(1, g.m + 1))
    )
    mat, scale, shift = _positive_integer_rows(payoffs)
    d = len(mat[0])
    found = {}
    for basis, rhs, det in _rhs_bases(mat):
        z = [rat(0)] * d
        for var, value in zip(basis, rhs):
            if var < d:
                z[var] = rat(value, det)
        if sum(z) == 0:
            continue
        # a row of mat is tight: scale * payoff + shift * sum(z) = 1
        total = sum(z)
        point = tuple(v / total for v in z) + ((1 - shift * total) / (scale * total),)
        zero = {v for v in range(len(labels)) if v not in basis}
        zero.update(var for var, value in zip(basis, rhs) if value == 0)
        vertex = LabeledVertex(point, frozenset(labels[v] for v in zero))
        found.setdefault(point, vertex)
    return tuple(sorted(found.values(), key=lambda v: v.point))


def _bigrat_game(rng, m, n):
    """A random rank-1 game with payoffs of numerators up to 10**6 and
    denominators up to 10**3."""
    def draw():
        return rat(rng.randint(-(10**6), 10**6), rng.randint(1, 10**3))

    a = [[draw() for _ in range(n)] for _ in range(m)]
    b, c = [draw() for _ in range(m)], [draw() for _ in range(n)]
    return BimatrixGame.from_payoffs(
        a, [[b[i] * c[j] - a[i][j] for j in range(n)] for i in range(m)]
    )


def _row_scale_games():
    """Fractional games whose rows of A and of B^T are of four kinds: all
    integers (a row's least denominator 1), a least denominator sharing a
    factor with the matrix's, all zeros, and one holding the matrix's least
    entry, fractional or an integer; the second game's entries are all
    positive."""
    f = rat
    a = [[1, -2, 3, 0], [f(1, 2), f(3, 4), f(-1, 4), f(5, 2)], [0, 0, 0, 0],
         [f(-7, 3), f(1, 6), f(5, 6), f(2, 3)]]
    bt = [[2, 0, -1, 5], [f(1, 3), f(2, 9), f(-4, 9), 1], [0, 0, 0, 0],
          [f(-11, 5), f(3, 5), f(1, 5), f(4, 5)]]
    yield BimatrixGame.from_payoffs(a, [list(col) for col in zip(*bt)])
    a = [[f(5, 2), f(7, 2), 3], [4, f(11, 4), 6]]
    b = [[-3, f(1, 2), 2], [0, f(-1, 3), f(5, 6)]]
    yield BimatrixGame.from_payoffs(a, b)


def test_enumerate_vertices_matches_the_eager_reference():
    # points, labels and order, with every point built only when read
    rng = random.Random(5527)
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 9)]
    games += _row_scale_games()
    for _ in range(12):
        games.append(_bigrat_game(rng, rng.randint(2, 5), rng.randint(2, 5)))
    for g in games:
        for which in ("P", "Q"):
            got, want = enumerate_vertices(g, which), _eager_vertices(g, which)
            assert [v.point for v in got] == [v.point for v in want], (g, which)
            assert [v.labels for v in got] == [v.labels for v in want], (g, which)
            assert got == want


def _widest(walk) -> int:
    """The bit length of the widest entry of every dictionary of a walk."""
    return max(
        abs(v).bit_length() for (_, _, dic, _), *_ in walk for row in dic for v in row
    )


def test_each_row_is_cleared_by_its_own_denominator(monkeypatch):
    # a Bareiss entry is a minor of the origin's dictionary, so its width is
    # the sum of the widths of its rows: a walk that clears each row of a
    # fractional game by the row's own least denominator reads integers of
    # half the width of the reference, which clears the whole matrix by one
    # scale, on the same 42 pivots over both sides: 37 whole and 5 of the
    # entering column and right-hand side alone, at the bases whose steps
    # are all settled
    g = _bigrat_game(random.Random(1), 5, 5)
    pivots = [0, 0]

    def counted(dic, *args):
        pivots[len(dic[0]) == 2] += 1
        return _pivot(dic, *args)

    monkeypatch.setattr(polytopes, "_pivot", counted)
    widths = []
    original = polytopes._feasible_bases

    def measured(start, steps):
        for item in original(start, steps):
            widths.append(_widest([item]))
            yield item

    monkeypatch.setattr(polytopes, "_feasible_bases", measured)
    payoffs = IntegerPayoffs.of(g)
    for which in ("P", "Q"):
        polytopes._walk(payoffs, which)
    assert (max(widths), pivots) == (337, [37, 5])
    pivots = [0, 0]
    uniform = max(
        _widest(original([row + [1] for row in _positive_integer_rows(rows)[0]], []))
        for rows in (tuple(zip(*g.B)), g.A)
    )
    assert (uniform, pivots) == (657, [37, 5])


def test_sweep_lines_scale_each_point_by_its_payoff_denominator(monkeypatch):
    # the sweep's lines put a vertex's point (w^T s, payoff) over
    # scale * pay_den, where pay_den, den times the gcd of the walk's z, is
    # already a multiple of the strategy's denominator den: on the game
    # above the widest line integer is 291 bits, against 441 with every
    # integer scaled by den as well, at the same points
    g = _bigrat_game(random.Random(1), 5, 5)
    widths = []
    original = parametric._Line.ints

    def measured(line, k):
        s, o, d = got = original(line, k)
        key, den, num, pay_den = line.graph.node(k)._integers
        dw = den * line.scale
        wide = sum(map(math.prod, zip(line.w, key))) * pay_den, num * dw, dw * pay_den
        assert s * wide[2] == wide[0] * d and o * wide[2] == wide[1] * d
        widths.append([max(abs(v).bit_length() for v in t) for t in (got, wide)])
        return got

    monkeypatch.setattr(parametric._Line, "ints", measured)
    enumerate_all(g)
    assert [max(w) for w in zip(*widths)] == [291, 441]


def test_integer_games_walk_the_uniform_dictionaries(monkeypatch):
    # integer payoffs give every row the least denominator 1 and the shift
    # that makes the least entry 1, so the walk's dictionaries are the
    # one-scale reference's, basis by basis
    walked = []
    original = polytopes._feasible_bases

    def kept(start, steps):
        for state in original(start, steps):
            walked.append(state)
            yield state

    monkeypatch.setattr(polytopes, "_feasible_bases", kept)
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 9)]
    for g in games:
        payoffs = IntegerPayoffs.of(g)
        assert payoffs.a_scale == payoffs.b_scale == 1, g
        for which, rows in (("P", tuple(zip(*g.B))), ("Q", g.A)):
            walked.clear()
            polytopes._walk(payoffs, which)
            mat = _positive_integer_rows(rows)[0]
            assert walked == list(original([row + [1] for row in mat], [])), (g, which)


def test_check_builds_no_vertex_point(monkeypatch):
    # the check reads the walks' records alone: it builds no vertex, so no
    # point and no label set, on a non-degenerate game
    built = 0
    original = polytopes.rat

    def counted(*args):
        nonlocal built
        built += 1
        return original(*args)

    monkeypatch.setattr(polytopes, "rat", counted)
    decoded = 0
    original_decode = polytopes._label_set

    def counted_decode(mask):
        nonlocal decoded
        decoded += 1
        return original_decode(mask)

    monkeypatch.setattr(polytopes, "_label_set", counted_decode)
    vertices = 0
    original_init = LabeledVertex.__init__
    original_from = LabeledVertex._from_integers.__func__

    def counted_init(vertex, *args):
        nonlocal vertices
        vertices += 1
        original_init(vertex, *args)

    def counted_from(cls, *args):
        nonlocal vertices
        vertices += 1
        return original_from(cls, *args)

    monkeypatch.setattr(LabeledVertex, "__init__", counted_init)
    monkeypatch.setattr(LabeledVertex, "_from_integers", classmethod(counted_from))
    walks = []
    original_walk = polytopes._walk

    def kept(payoffs, which, **options):
        walks.append(which)
        return original_walk(payoffs, which, **options)

    monkeypatch.setattr(polytopes, "_walk", kept)
    rng = random.Random(5531)
    games = [generate_kt(d) for d in range(1, 9)]
    games += [_bigrat_game(rng, 5, 5) for _ in range(3)]
    games.append(random_rank1_game(random.Random(1), 10, 10, -99, 99))
    for g in games:
        assert check_nondegenerate(g) == (True, None)
    # one walk for each symmetric kt game, which serves both sides, and two
    # for each of the other four
    assert len(walks) == 8 * 1 + 4 * 2
    assert (vertices, decoded, built) == (0, 0, 0)
    # the graphs build their origins alone; reading the vertices builds each
    # once, and still no point
    p, q = polytopes.require_nondegenerate(generate_kt(5))
    assert vertices == 2
    counts = len(p.vertices) + len(q.vertices)
    assert vertices == 2 + counts
    # the vertices are the nodes: reading every node builds no other
    for graph in (p, q):
        nodes = {id(graph.node(k)) for k in range(1, len(graph.steps))}
        assert nodes == {id(v) for v in graph.vertices}
    assert vertices == 2 + counts
    assert built == 0
    # the point (0, 0, 0, 0, 1, 50): a rational for each non-zero
    # coordinate, and every zero coordinate the one shared zero
    point = p.vertices[0].point
    assert point == (0, 0, 0, 0, 1, 50)
    assert built == 2
    assert all(v is polytopes._ZERO for v in point[:4])
    # a degenerate game's witness is still the first vertex by point with
    # more labels than its side's dimension, P's before Q's; payoffs in
    # -2..2 make most draws degenerate, on either side
    rng = random.Random(5537)
    sides = set()
    for _ in range(60):
        g = random_game(rng, rng.randint(1, 4), rng.randint(1, 4), -2, 2)
        offenders = [
            (which, v)
            for which, size in (("P", g.m), ("Q", g.n))
            for v in enumerate_vertices(g, which)
            if len(v.labels) > size
        ]
        ok, witness = check_nondegenerate(g)
        assert ok == (not offenders), g
        if offenders:
            which, want = offenders[0]
            assert witness == want and witness.labels == want.labels, g
            sides.add(which)
    assert sides == {"P", "Q"}


def _full_readout_check(payoffs, m, n):
    """Reference: the check on the eager full readout of each side's own
    walk, P first: (verdict, witness, message)."""
    try:
        _eager_check(payoffs, m, n)
    except DegenerateGame as exc:
        return False, exc.witness, str(exc)
    return True, None, None


def _assert_check_decides_on_the_zero_test(g) -> bool:
    """check_nondegenerate gives the full readout's verdict, witness and
    message, and each side's walk reads out exactly the full readout's
    offenders, the vertices with more than d variables at zero, with the
    same records. Returns the verdict."""
    payoffs = IntegerPayoffs.of(g)
    ok, want, message = _full_readout_check(payoffs, g.m, g.n)
    got = check_nondegenerate(g)
    if ok:
        assert got == (True, None), g
    else:
        assert got[0] is False, g
        witness = got[1]
        assert (witness.point, witness.labels) == (want.point, want.labels), g
        assert repr(witness) == repr(want)
        with pytest.raises(DegenerateGame) as raised:
            polytopes._walks(payoffs)
        assert str(raised.value) == message
    for which, d in (("P", g.m), ("Q", g.n)):
        offenders = polytopes._walk(payoffs, which).offenders
        full = _eager_walk(payoffs, which)[0]
        want = [r[:2] for r in full if r[1].bit_count() > d]
        assert sorted(offenders, key=lambda r: _strategy(r[0])) == want, (g, which)
    return ok


def test_check_decides_on_the_zero_test():
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 11)]
    # small entries tie the ratio test: A = B, so P walks the transpose
    games += [BimatrixGame.from_payoffs(mat, mat) for mat in _tied_matrices()]
    games.append(_bigrat_game(random.Random(5903), 5, 5))
    rng = random.Random(5911)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if m == n and rng.random() < 0.3:
            b = [list(col) for col in zip(*a)]  # symmetric
        games.append(BimatrixGame.from_payoffs(a, b))
    assert len(games) == 15 + 10 + 60 + 1 + 150
    verdicts = [_assert_check_decides_on_the_zero_test(g) for g in games]
    assert 0 < verdicts.count(False) < len(verdicts)
    # a non-degenerate game: the walks read out no vertex at all, and keep
    # one node record per basis
    for g in (generate_kt(6), baseline_game(10, 1)):
        payoffs = IntegerPayoffs.of(g)
        for which in ("P", "Q"):
            walk = polytopes._walk(payoffs, which)
            assert walk.offenders == []
            assert len(walk.masks) == len(walk.index) == len(walk.steps)
            # sorting reads every node but the origin out, and each drops
            # its record
            walk.order()
            assert walk._records[1:] == [None] * (len(walk.masks) - 1)
    # a degenerate draw: every readout of the walk is an offender
    g = BimatrixGame.from_payoffs(((1, 1), (1, 1)), ((1, 1), (1, 1)))
    offenders = polytopes._walk(IntegerPayoffs.of(g), "P").offenders
    assert offenders and all(zeros.bit_count() > g.m for _, zeros in offenders)


@st.composite
def check_games(draw):
    """Games of 1..5 x 1..5 with integer payoffs in -3..3, a square draw
    symmetric one time in three: many are degenerate."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
    a = draw(matrix)
    if m == n and draw(st.integers(0, 2)) == 0:
        return BimatrixGame.from_payoffs(a, [list(col) for col in zip(*a)])
    return BimatrixGame.from_payoffs(a, draw(matrix))


@settings(max_examples=150, deadline=None)
@given(check_games())
def test_check_decides_on_the_zero_test_on_draws(g):
    _assert_check_decides_on_the_zero_test(g)


def _assert_graphs_match_the_eager_reference(g) -> bool:
    """require_nondegenerate's graphs, numbered in walk order and read out
    node by node, against the earlier eager graphs of each side's own walk:
    the same (point, mask) nodes and origin, the same edges as (point,
    label dropped, point), the same ``vertices``, and each label mask on one
    node; on a degenerate game, the same message and witness. Returns
    whether g is non-degenerate."""
    payoffs = IntegerPayoffs.of(g)
    try:
        want = _eager_check(payoffs, g.m, g.n)
    except DegenerateGame as exc:
        with pytest.raises(DegenerateGame) as raised:
            require_nondegenerate(g)
        assert str(raised.value) == str(exc), g
        assert repr(raised.value.witness) == repr(exc.witness), g
        return False
    for got, ref in zip(require_nondegenerate(g), want):
        nodes = vertex_nodes(got)
        assert len(nodes) == len(ref.vertices), g
        assert {(v.point, v.mask) for v in nodes.values()} == {
            (v.point, v.mask) for v in ref.vertices
        }, g
        assert got.node(got.origin_index) is got.origin
        assert (got.origin.point, got.origin.mask) == (None, ref.origin.mask)
        point = {k: v.point for k, v in nodes.items()}
        point[got.origin_index] = None
        edges = {
            (point[k], l, point[j]) for k in point for l, j in got.near(k).items()
        }
        ref_points = [v.point for v in ref.nodes]
        ref_edges = {
            (ref_points[k], l, ref_points[j])
            for k in range(len(ref.nodes))
            for l, j in ref.near(k).items()
        }
        assert edges == ref_edges, g
        assert got.vertices == ref.vertices
        assert [v.labels for v in got.vertices] == [v.labels for v in ref.vertices]
        # each label set is carried by one node
        assert len({got.node(k).mask for k in point}) == len(point)
    return True


def test_graphs_match_the_eager_reference():
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 11)]
    # small entries tie the ratio test: A = B, so P walks the transpose
    games += [BimatrixGame.from_payoffs(mat, mat) for mat in _tied_matrices()]
    games.append(_bigrat_game(random.Random(1), 5, 5))
    assert len(games) == 15 + 10 + 60 + 1
    verdicts = [_assert_graphs_match_the_eager_reference(g) for g in games]
    assert 0 < verdicts.count(False) < len(verdicts)


@settings(max_examples=100, deadline=None)
@given(check_games())
def test_graphs_match_the_eager_reference_on_draws(g):
    _assert_graphs_match_the_eager_reference(g)


@pytest.mark.parametrize(
    "g, reads",
    [(generate_kt(6), 62), (baseline_game(10, 1), 301)],
    ids=["kt6", "10x10"],
)
def test_methods_read_out_only_the_vertices_they_read(g, reads, monkeypatch, capsys):
    # a graph reads a vertex out of the walk's record on the vertex's first
    # read: the check reads out none, the label method the two vertices of
    # each equilibrium, and the sweep the vertices its walks visit, far
    # fewer than the graphs hold
    built = []
    original = LabeledVertex._from_integers.__func__

    def counted(cls, integers, mask):
        built.append(integers)
        return original(cls, integers, mask)

    monkeypatch.setattr(LabeledVertex, "_from_integers", classmethod(counted))
    assert check_nondegenerate(g) == (True, None) and built == []
    eqs = equilibria_by_labels(g)
    assert len(built) == 2 * len(eqs)
    built.clear()
    enumerate_all(g)
    assert len(built) == reads
    p, q = require_nondegenerate(g)
    assert reads < len(p.vertices) + len(q.vertices)
    # the labels command reads each pair's label sets off the same nodes
    built.clear()
    import rank1nash.cli as cli

    monkeypatch.setattr(cli, "load_game", lambda path: g)
    assert cli.main(["labels", "game"]) == 0
    assert len(built) == 2 * len(eqs)
    capsys.readouterr()


def _best_reply_payoff(g, which, strategy):
    """Reference payoff: the largest entry of B^T x (P) or of A y (Q)."""
    rows = zip(*g.B) if which == "P" else g.A
    return max(vdot(row, strategy) for row in rows)


def _assert_payoffs_are_best_replies(g):
    for which in ("P", "Q"):
        for v in enumerate_vertices(g, which):
            assert v.point[-1] == _best_reply_payoff(g, which, v.point[:-1]), (g, v)


def test_vertex_payoff_is_the_best_reply_on_kt():
    for d in range(1, 10):
        _assert_payoffs_are_best_replies(generate_kt(d))


# payoffs in halves from -2 to 2: many draws are degenerate, so the walk
# meets ratio-test ties and vertices reached through several bases
SMALL_PAYOFF = st.fractions(-2, 2, max_denominator=2)


@st.composite
def small_games(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = st.lists(
        st.lists(SMALL_PAYOFF, min_size=n, max_size=n), min_size=m, max_size=m
    )
    return BimatrixGame.from_payoffs(draw(matrix), draw(matrix))


@settings(max_examples=80, deadline=None)
@given(small_games())
def test_vertex_payoff_is_the_best_reply(g):
    _assert_payoffs_are_best_replies(g)


def _assert_vertex_pairs_check_as_is_nash(g):
    # every walk vertex keeps its strategy as a key of gcd 1 over its sum,
    # and on every vertex pair, complementary or not, the check on those
    # keys gives is_nash's verdict, strategies and payoffs
    payoffs = IntegerPayoffs.of(g)
    ps, qs = enumerate_vertices(g, "P"), enumerate_vertices(g, "Q")
    for v in ps + qs:
        key, den = v._integers[:2]
        assert math.gcd(*key) == 1 and den == sum(key), v
    for vp in ps:
        for vq in qs:
            s = MixedStrategyPair(vp.point[: g.m], vq.point[: g.n])
            ok, u1, u2 = is_nash(g, s)
            try:
                eq = polytopes._equilibrium(payoffs, vp, vq)
            except InternalInvariantError:
                assert not ok, (g, vp, vq)
            else:
                want = EquilibriumPoint(s, payoff1=u1, payoff2=u2)
                assert ok and eq == want and repr(eq) == repr(want), (g, vp, vq)


def test_vertex_pairs_check_as_is_nash():
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 6)]
    for g in games:
        _assert_vertex_pairs_check_as_is_nash(g)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        small_games(),
        rank1_games(st.integers(1, 4), st.integers(1, 4)).map(lambda gf: gf[0]),
    )
)
def test_vertex_pairs_check_as_is_nash_on_draws(g):
    _assert_vertex_pairs_check_as_is_nash(g)


def _det(rows):
    """Determinant by exact Gaussian elimination."""
    a = [[rat(v) for v in r] for r in rows]
    det = rat(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if p is None:
            return rat(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


@settings(max_examples=40, deadline=None)
@given(small_games(), st.sampled_from("PQ"))
def test_basis_determinant_gives_the_returned_vertex(g, which):
    # each basis's det is |det| of its columns of [mat | I], and rhs / det
    # is the normalised vertex whose point enumerate_vertices returns
    payoffs = tuple(zip(*g.B)) if which == "P" else g.A
    mat, _, _ = _positive_integer_rows(payoffs)
    d = len(mat[0])
    full = [row + [int(c == r) for c in range(len(mat))] for r, row in enumerate(mat)]
    points = {v.point for v in enumerate_vertices(g, which)}
    for basis, rhs, det in _rhs_bases(mat):
        assert abs(_det([[row[c] for c in basis] for row in full])) == det
        z = [rat(0)] * d
        for var, value in zip(basis, rhs):
            if var < d:
                z[var] = rat(value) / det
        if sum(z) == 0:
            continue
        x = tuple(v / sum(z) for v in z)
        assert x + (_best_reply_payoff(g, which, x),) in points


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.mark.parametrize("name", ["kt3", "zero-sum-2x2", "row-constant-2x2"])
def test_one_enumeration_per_side_per_call(name, monkeypatch, capsys):
    # every method reads P and Q from the graphs require_nondegenerate
    # returns, one vertex walk per side, and the sweep table reads the Q
    # edges its intervals keep; kt3 is symmetric, B^T = A, so its one walk
    # of P serves both sides
    import rank1nash.cli as cli

    walks = 1 if name == "kt3" else 2

    calls = 0
    original = polytopes._walk

    def counted(payoffs, which, **options):
        nonlocal calls
        calls += 1
        return original(payoffs, which, **options)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "rank1nash":
            if getattr(mod, "_walk", None) is original:
                monkeypatch.setattr(mod, "_walk", counted)

    path = str(CORPUS / f"{name}.game")
    g = load_game(path)
    runs = [
        lambda: check_nondegenerate(g),
        lambda: enumerate_all(g),
        lambda: equilibria_by_labels(g),
        lambda: lh_run(g, 1),
        lambda: reachability(g),
        lambda: gprime_components(g),
        lambda: cli.main(["labels", path]),
    ]
    for run in runs:
        calls = 0
        run()
        assert calls == walks
    calls = 0
    assert cli.main(["enumerate", path, "--trace"]) == 0
    assert calls == walks
    capsys.readouterr()


def test_walk_work_on_kt6(monkeypatch):
    # kt6's P and Q each have 42 feasible bases, the origin and 41 vertices,
    # and the walk reaches the 41 by one pivot each: 6 of them have every
    # step settled, so they pivot only the two columns [entering, rhs] of
    # their parent's dictionary. Each of the 126
    # edges is ratio-tested once, where testing every column of every basis
    # takes 42 * 6 = 252 tests. kt6 is symmetric, so a call walks P alone and
    # relabels it as Q. A call clears A and B^T of denominators once, for
    # its walks, every equilibrium check and, in enumerate_all, the
    # factorization of A + B
    counts = {"pivot": 0, "rhs_pivot": 0, "ratio_test": 0, "clear_rows": 0}

    def counted(name, fn):
        def run(*args):
            counts[name] += 1
            return fn(*args)

        return run

    def pivot(dic, *args):
        counts["rhs_pivot" if len(dic[0]) == 2 else "pivot"] += 1
        return _pivot(dic, *args)

    monkeypatch.setattr(polytopes, "_pivot", pivot)
    monkeypatch.setattr(polytopes, "_ratio_test", counted("ratio_test", _ratio_test))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "rank1nash":
            if getattr(mod, "clear_rows", None) is clear_rows:
                monkeypatch.setattr(mod, "clear_rows", counted("clear_rows", clear_rows))

    g = generate_kt(6)
    p, q = require_nondegenerate(g)
    assert (len(p.steps), len(q.steps)) == (42, 42)
    runs = [
        (check_nondegenerate, 2),
        (equilibria_by_labels, 2),
        (lambda g: lh_run(g, 1), 2),
        (reachability, 2),
        (gprime_components, 2),
        (enumerate_all, 2),
    ]
    for run, clears in runs:
        counts.update(pivot=0, rhs_pivot=0, ratio_test=0, clear_rows=0)
        run(g)
        want = {"pivot": 35, "rhs_pivot": 6, "ratio_test": 126, "clear_rows": clears}
        assert counts == want, run
    # a game that is not symmetric walks both sides: V_P + V_Q = 44 + 39
    # pivots, 71 whole and 12 of two columns, and
    # (V_P + 1 + V_Q + 1) * 6 / 2 ratio tests
    h = random_rank1_game(random.Random(3), 6, 6)
    p, q = require_nondegenerate(h)
    assert (len(p.vertices), len(q.vertices)) == (44, 39)
    for run, clears in runs:
        counts.update(pivot=0, rhs_pivot=0, ratio_test=0, clear_rows=0)
        run(h)
        want = {"pivot": 71, "rhs_pivot": 12, "ratio_test": 255, "clear_rows": clears}
        assert counts == want, run


def _own_walks(g):
    """Reference: P's and Q's graphs, each walked on its own, labelled for
    its side and checked for degeneracy, P first, with
    require_nondegenerate's message."""
    payoffs = IntegerPayoffs.of(g)
    graphs = []
    for which, bound in (("P", g.m), ("Q", g.n)):
        graphs.append(polytopes._graph(polytopes._walk(payoffs, which), payoffs, which))
        for v in graphs[-1].vertices:
            if len(v.labels) != bound:
                pt = ", ".join(map(str, v.point))
                raise DegenerateGame(f"vertex ({pt}) carries labels {sorted(v.labels)}")
    return graphs


def _assert_q_graph_is_q_walk(g):
    """require_nondegenerate's Q graph of a symmetric game, P's walk
    labelled for Q, equals Q's own walk labelled for Q, node by node and
    edge by edge, or both raise the same error."""
    try:
        q = require_nondegenerate(g)[1]
    except DegenerateGame as exc:
        with pytest.raises(DegenerateGame) as own:
            _own_walks(g)
        assert str(exc) == str(own.value)
        return False
    walked = _own_walks(g)[1]
    assert q.vertices == walked.vertices
    assert [v.mask for v in q.vertices] == [v.mask for v in walked.vertices]
    assert (q.steps, q.labels, q.origin) == (walked.steps, walked.labels, walked.origin)
    for k in range(len(q.steps)):
        assert q.node(k) == walked.node(k), k
        assert q.near(k) == walked.near(k), k
        assert q.node(k).mask == walked.node(k).mask, k
    return True


def test_symmetric_q_graph_is_q_walk(monkeypatch):
    # kt is symmetric, B^T = A: one walk of P serves both sides
    assert all(_assert_q_graph_is_q_walk(generate_kt(d)) for d in range(1, 11))
    walks = []
    original = polytopes._walk

    def kept(payoffs, which, **options):
        walks.append(which)
        return original(payoffs, which, **options)

    monkeypatch.setattr(polytopes, "_walk", kept)
    g = generate_kt(6)
    require_nondegenerate(g)
    assert walks == ["P"]
    # one entry of B away from symmetric, both sides are walked
    b = [list(row) for row in g.B]
    b[0][0] += 1
    walks.clear()
    require_nondegenerate(BimatrixGame.from_payoffs(g.A, b))
    assert walks == ["P", "Q"]


@st.composite
def symmetric_games(draw):
    # small integers and fractions: many draws are degenerate
    m = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.fractions(-9, 9, max_denominator=4))
    a = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    return BimatrixGame.from_payoffs(a, [list(col) for col in zip(*a)])


@settings(max_examples=150, deadline=None)
@given(symmetric_games())
def test_symmetric_q_graph_is_q_walk_on_draws(g):
    _assert_q_graph_is_q_walk(g)


def test_memory_stays_flat_over_many_games():
    # nothing outlives a call: solving more games keeps no more memory
    rng = random.Random(8101)
    solved = 0
    tracemalloc.start()
    try:
        while solved < 110:
            g = random_rank1_game(rng, 3, 3)
            try:
                enumerate_all(g)
                reachability(g)
            except DegenerateGame:
                continue
            solved += 1
            if solved == 10:
                gc.collect()
                early = tracemalloc.get_traced_memory()[0]
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - early
    finally:
        tracemalloc.stop()
    assert growth < 64 * 1024, growth


def _assert_neighbours_match_label_sets(g):
    """Every step of the walk's record, from every vertex across every label,
    against the edge index keyed by label sets; and the origin's neighbours
    are the vertices x = e_i of P and y = e_j of Q."""
    try:
        p, q = require_nondegenerate(g)
    except DegenerateGame:
        return False
    for graph, labels, size in (
        (p, range(1, g.m + 1), g.m),
        (q, range(g.m + 1, g.m + g.n + 1), g.n),
    ):
        index = label_set_edges(graph)
        for k, v in vertex_nodes(graph).items():
            for l in v.labels:
                far = next((j for j in index[v.labels - {l}] if j != k), None)
                # no other vertex keeps the labels: the step runs to the origin
                want = graph.origin if far is None else graph.node(far)
                assert graph.node(graph.near(k)[l]) is want
        origin = graph.origin_index
        assert graph.node(origin) is graph.origin
        assert graph.origin.point is None and graph.origin.labels == set(labels)
        pure = [graph.near(origin)[l] for l in labels]
        assert sorted(pure) == sorted(e[0] for e in index.values() if len(e) == 1)
        for i, j in enumerate(pure):
            assert graph.node(j).point[:size] == tuple(int(t == i) for t in range(size))
    return True


def test_neighbours_match_the_label_set_index():
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 11)]
    assert all(_assert_neighbours_match_label_sets(g) for g in games)


def _assert_masks_match_label_sets(g) -> int:
    """Every vertex the walk finds on either side, degenerate games
    included: its label mask and its label set name the same labels, the
    set iterates in the order of a set built from its sorted labels, a
    vertex made from its point and label set gets the same mask, and the
    graph's node with its mask is that vertex, unless it has more labels
    than the side's dimension: such a vertex, one with a basic variable at
    zero, is no node. Returns the number of those. The origin is the node
    ``origin_index`` with its mask."""
    payoffs = IntegerPayoffs.of(g)
    extra = 0
    for which, size in (("P", g.m), ("Q", g.n)):
        graph = polytopes._graph(polytopes._walk(payoffs, which), payoffs, which)
        for v in graph.vertices:
            bits = {l for l in range(v.mask.bit_length()) if v.mask >> l & 1}
            assert v.labels == bits, (g, which, v)
            assert repr(v.labels) == repr(frozenset(sorted(v.labels))), (g, which, v)
            assert v.mask.bit_count() == len(v.labels)
            assert LabeledVertex(v.point, v.labels).mask == v.mask
            k = node_at(graph, v.mask)
            if len(v.labels) > size:
                assert k is None
                extra += 1
            else:
                assert graph.node(k) is v
        assert node_at(graph, graph.origin.mask) == graph.origin_index
    return extra


def test_masks_match_label_sets():
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 9)]
    # duplicate columns of B: x = e2 is a double best reply
    games.append(BimatrixGame.from_payoffs(((1, 1), (1, 1)), ((1, 1), (1, 1))))
    # labels 1..9 over Q's sets of four: label 9 shares a hash slot with
    # label 1, so a set's order depends on the order its labels were added
    games.append(random_rank1_game(random.Random(1), 5, 4))
    assert len(games) == 25
    assert sum(map(_assert_masks_match_label_sets, games)) > 0


@settings(max_examples=80, deadline=None)
@given(small_games())
def test_masks_match_label_sets_on_draws(g):
    _assert_masks_match_label_sets(g)


@settings(max_examples=60, deadline=None)
@given(integer_games(50))  # most draws are non-degenerate
def test_neighbours_match_the_label_set_index_on_draws(g):
    _assert_neighbours_match_label_sets(g)


def _assert_masks_follow_from_zeros(g):
    """Each side's walk labelled for that side: every vertex's mask is the
    sum of 1 << label over its record's zero variables, each variable's
    label named here, on P x_i label i and column j's slack m+j, on Q y_j
    label m+j and row i's slack i; and the origin carries the labels of
    the d variables of z."""
    m, n = g.m, g.n
    names = {
        "P": list(range(1, m + n + 1)),
        "Q": list(range(m + 1, m + n + 1)) + list(range(1, m + 1)),
    }
    payoffs = IntegerPayoffs.of(g)
    every = (1 << m + n) - 1
    for which, d in (("P", m), ("Q", n)):
        walk = polytopes._walk(payoffs, which)
        masks, steps, offenders = walk.masks, walk.steps, walk.offenders
        graph = polytopes._graph(walk, payoffs, which)
        assert len(graph.vertices) == len(masks) - 1 + len(offenders)
        assert graph.steps is steps
        # a node's variables at zero are its cobasis; an offender keeps them
        records = [(graph.node(k), every ^ masks[k]) for k in range(1, len(masks))]
        for integers, zeros in offenders:
            (v,) = [v for v in graph.vertices if v._integers is integers]
            records.append((v, zeros))
        for v, zeros in records:
            assert 0 < zeros < 1 << m + n, (g, which, zeros)
            zero = [var for var in range(m + n) if zeros >> var & 1]
            assert v.mask == sum(1 << names[which][var] for var in zero), (g, which)
        assert graph.origin.labels == set(names[which][:d])


def test_masks_follow_from_zeros_by_shifts():
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 9)]
    for g in games:
        _assert_masks_follow_from_zeros(g)


@settings(max_examples=80, deadline=None)
@given(small_games().filter(lambda g: g.m != g.n))
def test_masks_follow_from_zeros_by_shifts_on_draws(g):
    # the shift on Q moves y's n bits and the m slack bits by different
    # amounts, so it differs from a swap of halves only when m != n; payoffs
    # in halves from -2 to 2 make many draws degenerate
    _assert_masks_follow_from_zeros(g)


def test_scale_guard_on_a_12x12_game():
    # a random 12x12 game, seed 2 of tests/scale_report.py: the check sorts
    # 9,333 vertices by cross-multiplication, and the sweep agrees with the
    # label covering
    g = baseline_game(12, 2)
    p, q = require_nondegenerate(g)
    assert (len(p.vertices), len(q.vertices)) == (7359, 1974)
    tr = enumerate_all(g)
    assert (len(tr.intervals), len(tr.equilibria)) == (40, 5)
    assert [e.key() for e in tr.equilibria] == [e.key() for e in equilibria_by_labels(g)]


def test_one_side_walk_memory_is_bounded():
    # the walk pivots on pop, so a dictionary lives only while a child of it
    # waits on the stack: one side of a random 10x10 game peaks under 3 MB,
    # its 1,163 vertices and the walk's record included
    g = baseline_game(10, 2)
    gc.collect()
    tracemalloc.start()
    try:
        payoffs = IntegerPayoffs.of(g)
        graph = polytopes._graph(polytopes._walk(payoffs, "P"), payoffs, "P")
        vertices = graph.vertices
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(vertices) == 1163
    assert peak < 3 * 2**20, peak


class _Discovered:
    """The first tier of an eager ``VertexGraph``'s interface (see its
    docstring) and nothing else, with the nodes numbered breadth first from
    the origin, as a graph that discovers its nodes would number them: the
    origin is node 0, not V, and there is no vertex list to count."""

    def __init__(self, graph):
        old = [graph.origin_index]  # the eager number of each node, in order
        new = {graph.origin_index: 0}
        for k in old:  # old grows as it is read: breadth first
            for j in graph.near(k).values():
                if j not in new:
                    new[j] = len(old)
                    old.append(j)
        self._graph, self._old, self._new = graph, old, new
        self.origin_index = 0
        self.labels, self.full, self.payoffs = graph.labels, graph.full, graph.payoffs

    def node(self, k):
        return self._graph.node(self._old[k])

    def near(self, k):
        return {l: self._new[j] for l, j in self._graph.near(self._old[k]).items()}


def _sweep_and_paths(g, f=None) -> list:
    """The repr of ``enumerate_all(g)``, of ``enumerate_all(g, f)`` when f is
    given, and of ``lh_run(g, r)`` for every label r, or the type and
    message of what each raised."""
    calls = [lambda: enumerate_all(g)]
    if f is not None:
        calls.append(lambda: enumerate_all(g, f))
    calls += [lambda r=r: lh_run(g, r) for r in range(1, g.m + g.n + 1)]
    out = []
    for call in calls:
        try:
            out.append(repr(call()))
        except Exception as exc:  # compared, not swallowed
            out.append((type(exc), str(exc)))
    return out


def _assert_first_tier_suffices(g, f=None) -> bool:
    """The sweep and the paths give the eager graphs' outputs, or raise
    their errors, when they read renumbered graphs through the first tier
    alone; True when g is non-degenerate."""
    want = _sweep_and_paths(g, f)

    def discovered(game):
        return tuple(map(_Discovered, polytopes.require_nondegenerate(game)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parametric, "require_nondegenerate", discovered)
        mp.setattr(lemke_howson, "require_nondegenerate", discovered)
        got = _sweep_and_paths(g, f)
    assert got == want, g
    return check_nondegenerate(g)[0]


def test_sweep_and_paths_read_the_first_tier_alone():
    # the sweep, lh_run and the paths read a graph node by node, so a graph
    # that numbers its nodes in discovery order and cannot count them gives
    # the same traces and paths, in the same order; every one of these 25
    # games is non-degenerate
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 11)]
    assert sum(map(_assert_first_tier_suffices, games)) == 25


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        rank1_games(st.integers(1, 5), st.integers(1, 5)),
        rank1_games(st.integers(2, 5), st.integers(2, 5), tied=True),
    )
)
def test_sweep_and_paths_read_the_first_tier_alone_on_draws(game):
    _assert_first_tier_suffices(*game)
