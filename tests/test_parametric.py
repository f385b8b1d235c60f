"""The parametric sweep: tableau, bases, intervals, full enumeration."""

from __future__ import annotations

import copy
import gc
import pickle
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import label_set_edges, node_at, random_rank1_game, vertex_nodes
from dense_lp import (
    AffineRVector,
    binding_rows,
    build_tableau,
    interval_z,
    zero_sum_dual_coincidence,
)
from rank1nash import (
    BimatrixGame,
    DegenerateGame,
    FactorizationMismatch,
    InternalInvariantError,
    NotRankOne,
    ParametricBasis,
    RankOneFactorization,
    Stalled,
    check_nondegenerate,
    enumerate_all,
    equilibria_by_labels,
    factor_rank1,
    generate_kt,
    gprime_components,
    lh_run,
    load_game,
    rat,
    reachability,
    require_nondegenerate,
    support_enumeration,
    sweep_table,
)
from rank1nash import lemke_howson, parametric, polytopes
from rank1nash.linalg import AffineR, solve, vdot
from test_differential import rank1_games

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def replace(record, **changes):
    """A copy of a record with the given fields changed."""
    return type(record)(**{f: getattr(record, f) for f in record._fields} | changes)


def _fractional_rank1_game(rng, m, n, num=30, den=7):
    def draw():
        return rat(rng.randint(-num, num), rng.randint(1, den))

    a = [[draw() for _ in range(n)] for _ in range(m)]
    b, c = [draw() for _ in range(m)], [draw() for _ in range(n)]
    return BimatrixGame.from_payoffs(
        a, [[b[i] * c[j] - a[i][j] for j in range(n)] for i in range(m)]
    )


@pytest.fixture
def kt2_tab():
    g = generate_kt(2)
    f = RankOneFactorization.for_game(g, (2, 4), (2, 4))
    return build_tableau(g, f)


@pytest.fixture
def kt2_trace(kt2_tab):
    return enumerate_all(kt2_tab.game, kt2_tab.factorization)


def test_tableau_shape(kt2_tab):
    t = kt2_tab
    assert (t.m, t.n) == (2, 2)
    assert t.k_rows == 8
    assert t.n_vars == 6
    assert len(t.m1) == 8 and {len(row) for row in t.m1} == {6}
    assert len(t.m2) == 3 and {len(row) for row in t.m2} == {6}
    assert (min(t.factorization.c), max(t.factorization.c)) == (2, 4)
    # first block: -x <= 0
    assert t.m1[0] == (-1, 0, 0, 0, 0, 0)
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
    tr = enumerate_all(t.game)
    assert tr.factorization == t.factorization and (tr.xi_min, tr.xi_max) == (4, 8)


def test_initial_basis_at_left_end(kt2_trace):
    iv = kt2_trace.intervals[0]
    assert iv.basis.rows == (2, 3, 5)
    assert iv.basis == ParametricBasis(0b101100, 2, 2)
    # the same basis is optimal a bit further in
    assert iv.xi1 == 2 and rat(9, 4) <= iv.xi2


def test_basis_checks_its_labels():
    # the basis is its row mask, rows 1..8 of a 2x2 game: P label l is row l
    # and Q label l is row 4 + l; the label sets are decoded on read
    basis = ParametricBasis(0b101100, 2, 2)
    assert basis.rows == (2, 3, 5)
    assert (basis.i_labels, basis.j_labels) == ({2, 3}, {1})
    assert repr(basis) == (
        "ParametricBasis(i_labels=frozenset({2, 3}), "
        "j_labels=frozenset({1}), m=2, n=2)"
    )
    # row 4, the last P row, is no Q label
    edge = ParametricBasis(0b111000, 2, 2)
    assert (edge.i_labels, edge.j_labels) == ({3, 4}, {1})
    for mask, message in [
        (0b101101, "out of range"),  # row 0
        (1 << 9 | 0b1100, "out of range"),  # row 9, past 2(m+n)
        (-0b101100, "out of range"),
        (0b100100, "m P-side rows"),  # one P row
        (0b111100, "m P-side rows"),  # three P rows
        (0b1100, "n-1 Q-side rows"),  # no Q row
        (0b1101100, "n-1 Q-side rows"),  # two Q rows
    ]:
        with pytest.raises(ValueError, match=message):
            ParametricBasis(mask, 2, 2)


def test_solve_basis_values(kt2_trace):
    z = interval_z(kt2_trace.intervals[0])
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


def test_interval_of_initial_basis(kt2_trace):
    iv = kt2_trace.intervals[0]
    assert iv.basis.rows == (2, 3, 5)
    assert (iv.xi1, iv.xi2) == (2, rat(5, 2))
    assert iv.case == "Optimality"
    assert (iv.beta2, iv.beta2_row) == (rat(5, 2), 2)
    assert (iv.alpha2, iv.alpha2_row) == (3, 6)
    # phi(2) = 0 at the left end, negative inside
    assert iv.objective.at(rat(2)) == 0
    assert iv.objective.at(rat(9, 4)) < 0


def _pair(xi) -> tuple[int, int]:
    """(num, den) of a rational in lowest terms."""
    return xi.numerator, xi.denominator


def _zeros(xi1, xi2, objective) -> list:
    """The objective's zeros at the ends of [xi1, xi2], through the sweep's
    integer helper, as rationals."""
    pairs = parametric._objective_zeros(
        _pair(xi1), _pair(xi2), _pair(objective.c0), _pair(objective.c1)
    )
    return [rat(*xi) for xi in pairs]


def test_equilibria_read_at_interval_ends(kt2_trace):
    iv = kt2_trace.intervals[0]
    assert iv.basis.rows == (2, 3, 5)
    # the objective vanishes at xi = 2, the lower end of the Q edge, and
    # the trace's equilibrium there is the P vertex with that end
    assert _zeros(iv.xi1, iv.xi2, iv.objective) == [2]
    q_xi = tuple(map(_pair, iv.q_xi))
    assert parametric._q_end(q_xi, (2, 1)) == 0
    # a pair need not be in lowest terms
    assert parametric._q_end(q_xi, (6, 2)) == 1
    eqs = [e for e in kt2_trace.equilibria if e.source_xi == 2]
    assert [e.key() for e in eqs] == [((rat(1), rat(0)), (rat(1), rat(0)))]
    m, n = iv.basis.m, iv.basis.n
    assert eqs[0].key() == (iv.p_vertex.point[:m], iv.q_edge[0].point[:n])
    # an objective that is 0 at both ends is 0 on the whole interval
    flat = AffineR(rat(0), rat(0))
    with pytest.raises(DegenerateGame, match="vanishes on a whole interval"):
        _zeros(iv.xi1, iv.xi2, flat)
    # the objective of an optimal basis is never positive
    rising = AffineR(rat(-4), rat(2))  # 1 at xi = 5/2
    with pytest.raises(InternalInvariantError, match=r"at an end of \[2, 5/2\]"):
        _zeros(iv.xi1, iv.xi2, rising)
    # on a zero-length interval one end is both ends, also when its two
    # pairs differ
    assert _zeros(iv.xi1, iv.xi1, flat) == [2]
    assert parametric._objective_zeros((2, 1), (4, 2), (0, 1), (0, 1)) == ((2, 1),)


def test_objective_zero_inside_a_q_edge_is_an_internal_error(kt2_trace):
    # an equilibrium of a non-degenerate game is a vertex pair, so a zero
    # of the objective must sit at an end of the basis's Q edge
    iv = kt2_trace.intervals[0]
    assert iv.q_xi == (2, 3) and iv.xi2 == rat(5, 2)
    inside = AffineR(rat(-5), rat(2))  # 0 at xi = 5/2
    assert _zeros(iv.xi1, iv.xi2, inside) == [rat(5, 2)]
    with pytest.raises(InternalInvariantError, match="inside a Q edge"):
        parametric._q_end(tuple(map(_pair, iv.q_xi)), (5, 2))


class _Astray(dict):
    """The near memo of a node, with its items left as the graph's, so the
    crossings read off them keep their values, but with the lookup of one
    label answering the node ``to``: only the step across it goes astray."""

    def __init__(self, near, label, to):
        super().__init__(near)
        self.label, self.to = label, to

    def __getitem__(self, label):
        return self.to if label == self.label else super().__getitem__(label)


def _sweep_stepping_astray(monkeypatch, to):
    """The sweep of kt2, whose first interval ends at an optimality
    breakpoint, with the P walk's step there sent to the P vertex of
    interval ``to`` of the true sweep instead."""
    g = generate_kt(2)
    ivs = enumerate_all(g).intervals
    assert ivs[0].case == "Optimality"
    p, q = require_nondegenerate(g)
    k = node_at(p, ivs[0].p_vertex.mask)
    p._near[k] = _Astray(p.near(k), ivs[0].beta2_row, node_at(p, ivs[to].p_vertex.mask))
    monkeypatch.setattr(parametric, "require_nondegenerate", lambda game: (p, q))
    return enumerate_all(g)


def test_sweep_refuses_a_step_back_to_its_own_basis(monkeypatch):
    # a step that keeps the P vertex keeps the basis: the next interval is
    # the one just left, which certifies the step, and the loop must then
    # see the basis again and stop
    with pytest.raises(Stalled, match="revisited; sweep is cycling"):
        _sweep_stepping_astray(monkeypatch, 0)


def test_sweep_refuses_a_step_whose_interval_misses_the_breakpoint(monkeypatch):
    # kt2's last P vertex is optimal only from xi = 7, so its interval on the
    # first Q edge misses the first breakpoint, xi = 5
    with pytest.raises(Stalled, match="no verifiable pivot at xi = 5"):
        _sweep_stepping_astray(monkeypatch, -1)


def test_sweep_stalls_where_no_q_edge_continues_the_slice(monkeypatch):
    # kt2's second interval ends where the slice reaches a Q vertex at
    # xi = 6; with every step out of that vertex a ray, no edge of Q on
    # which c^T y grows leaves it
    g = generate_kt(2)
    ivs = enumerate_all(g).intervals
    assert (ivs[1].xi2, ivs[1].case) == (6, "Feasibility")
    p, q = require_nondegenerate(g)
    k = node_at(q, ivs[1].q_edge[1].mask)
    q._near[k] = dict.fromkeys(q.near(k), q.origin_index)
    monkeypatch.setattr(parametric, "require_nondegenerate", lambda game: (p, q))
    with pytest.raises(Stalled, match="no edge of Q continues the slice past 6"):
        enumerate_all(g)


def _one_point_game(rng, m, n, row_constant):
    """Random game with A + B = u 1^T, u = 0 unless ``row_constant``."""
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    u = [rng.randint(-9, 9) if row_constant else 0 for _ in range(m)]
    return BimatrixGame.from_payoffs(a, [[ui - v for v in r] for ui, r in zip(u, a)])


@pytest.mark.parametrize(
    "g, built",
    [
        (generate_kt(6), (11, 11)),
        (random_rank1_game(random.Random(1), 10, 10, -99, 99), (5, 5)),
        (_one_point_game(random.Random(0), 5, 5, False), (1, 1)),
        (_one_point_game(random.Random(2), 5, 5, True), (1, 1)),
    ],
    ids=["kt6", "random-10x10", "zero-sum-5x5", "row-constant-5x5"],
)
def test_sweep_builds_points_of_equilibrium_vertices_only(g, built, monkeypatch):
    # the walks read b^T x, c^T y and the payoffs off the vertices'
    # integers; only the vertices of an equilibrium build their point, on
    # the one-point range of a zero-sum or row-constant game too
    graphs = []
    original = parametric.require_nondegenerate

    def kept(game):
        graphs.append(original(game))
        return graphs[-1]

    monkeypatch.setattr(parametric, "require_nondegenerate", kept)
    tr = enumerate_all(g)
    (p, q), = graphs
    counts = tuple(
        sum(v._point is not None for v in side.vertices) for side in (p, q)
    )
    assert counts == built == (len(tr.equilibria),) * 2
    assert counts[0] < len(p.vertices) and counts[1] < len(q.vertices)


@pytest.mark.parametrize(
    "g",
    [generate_kt(6), random_rank1_game(random.Random(1), 10, 10, -99, 99)],
    ids=["kt6", "random-10x10"],
)
def test_label_methods_build_points_of_reported_vertices_only(g, monkeypatch):
    # labels, lh and gprime match vertices by label mask and by index and
    # check each equilibrium on its vertices' integers; a path's nodes read
    # no point, so per side only the vertices of a reported equilibrium
    # build theirs. Every call gets the same two graphs, their points
    # dropped after each call, so the 10x10 game is enumerated once.
    graphs = require_nondegenerate(g)
    for module in (polytopes, lemke_howson):
        monkeypatch.setattr(module, "require_nondegenerate", lambda game: graphs)

    def built():
        counts = []
        for side in graphs:
            counts.append(sum(v._point is not None for v in side.vertices))
            assert counts[-1] < len(side.vertices)
            for v in side.vertices:
                v._point = None
        return tuple(counts)

    # labels, lh and G' match vertices by label mask and decode no label set
    decoded = []
    original_decode = polytopes._label_set

    def counted_decode(mask):
        decoded.append(mask)
        return original_decode(mask)

    for module in (polytopes, lemke_howson):
        monkeypatch.setattr(module, "_label_set", counted_decode)

    labeled = equilibria_by_labels(g)
    assert not decoded
    assert built() == (len(labeled),) * 2
    rep = reachability(g)
    assert built() == (len(rep.reached) + len(rep.unreached),) * 2
    gp = gprime_components(g)
    assert not decoded
    assert built() == (len(gp.equilibrium_pairs),) * 2
    for r in range(1, g.m + g.n + 1):
        lh_run(g, r)
        assert built() == (1, 1)
    assert not decoded


def test_sweep_builds_rationals_of_reported_values_only(monkeypatch):
    # the walks compare crossings, slopes and objective signs as integers;
    # past the check the sweep builds a rational only for a value the trace
    # reports. Before the records are read that is each equilibrium's
    # source_xi, the c^T y of its Q vertex: 11 on kt6. Reading them builds
    # each distinct (num, den) pair the records report once, from one memo
    # that already holds the source_xi: the 10 crossings of P lines that
    # bound an interval and the 24 distinct objective coefficients (20 pairs
    # c0 and 4 pairs c1 over the 20 intervals). The c^T y of the 11 Q
    # vertices visited are the 11 source_xi, so 11 + 34 = 45 in all.
    built = []
    original = parametric.rat

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(parametric, "rat", counted)
    tr = enumerate_all(generate_kt(6))
    assert len(built) == len(tr.equilibria) == 11
    q_vertices = {w for iv in tr.intervals for w in iv.q_edge}
    p_vertices = {iv.p_vertex for iv in tr.intervals}
    assert (len(tr.intervals), len(p_vertices), len(q_vertices)) == (20, 11, 11)
    assert len(built) == 45
    assert len(set(built)) == 45  # no pair built twice
    tr.breakpoints, sweep_table(tr), repr(tr)
    assert len(built) == 45


@pytest.mark.parametrize(
    "g",
    [
        generate_kt(6),
        _fractional_rank1_game(random.Random(3625), 5, 5, 10**6, 10**3),
    ],
    ids=["kt6", "fractional-5x5"],
)
def test_sweep_builds_its_records_when_read(g, monkeypatch):
    # a caller that reads only the equilibria gets no interval record, no
    # breakpoint record and no rational but each equilibrium's source_xi;
    # the first read of intervals or breakpoints builds each record once,
    # and reading intervals first, breakpoints first or repr first gives
    # the same records
    made = []  # the class of each record built
    for cls in (parametric.BasisInterval, parametric.BreakpointRecord):

        def init(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    built = []
    original = parametric.rat

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(parametric, "rat", counted)
    traces = []
    for read in (
        lambda tr: (tr.intervals, tr.breakpoints),
        lambda tr: (tr.breakpoints, tr.intervals),
        repr,
    ):
        built.clear()
        made.clear()
        tr = enumerate_all(g)
        assert (len(built), made) == (len(tr.equilibria), [])
        read(tr)
        assert made.count(parametric.BasisInterval) == len(tr.intervals) > 1
        assert made.count(parametric.BreakpointRecord) == len(tr.breakpoints)
        assert len(made) == 2 * len(tr.intervals) - 1
        counts = len(built), len(made)
        tr.intervals, tr.breakpoints, repr(tr)  # a second read builds nothing
        assert (len(built), len(made)) == counts
        traces.append(tr)
    first, second, third = traces
    assert first == second == third
    assert repr(first) == repr(second) == repr(third)
    # the regular constructor keeps the records it is given
    assert replace(first) == first


@pytest.mark.parametrize(
    "g",
    [
        generate_kt(6),
        generate_kt(10),
        _fractional_rank1_game(random.Random(3625), 5, 5, 10**6, 10**3),
    ],
    ids=["kt6", "kt10", "fractional-5x5"],
)
def test_unread_trace_holds_no_vertex_graph(g, monkeypatch):
    # the trace keeps the sweep's integer spans, which carry the vertices
    # and values its records report, and nothing of the walk: once
    # enumerate_all returns, both vertex graphs can be collected, and the
    # records read afterwards are those of a trace read at once
    refs = []
    original = parametric.require_nondegenerate

    def kept(game):
        graphs = original(game)
        refs.extend(map(weakref.ref, graphs))
        return graphs

    monkeypatch.setattr(parametric, "require_nondegenerate", kept)
    tr = enumerate_all(g)
    gc.collect()
    assert len(refs) == 2 and [r() for r in refs] == [None, None]
    now = enumerate_all(g)
    now.intervals
    # == and repr read every field, the records among them
    assert tr == now and repr(tr) == repr(now)


@pytest.mark.parametrize(
    "g",
    [generate_kt(6), _fractional_rank1_game(random.Random(3625), 5, 5, 10**6, 10**3)],
    ids=["kt6", "fractional-5x5"],
)
def test_lazy_attributes_survive_copy_and_pickle(g):
    # copy, deepcopy, pickle and hasattr look up names a trace or a graph
    # does not set, such as __deepcopy__ and __setstate__, and need
    # Record's __getattr__, which builds a deferred field (the records, or
    # a graph's ``vertices``) on first read, to raise AttributeError for
    # every other name; a graph copied before its vertices are read reads
    # them out of its own walk
    now = enumerate_all(g)
    now.intervals
    for copied in (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))):
        tr = copied(enumerate_all(g))
        assert tr == now and repr(tr) == repr(now)
    assert not hasattr(enumerate_all(g), "nope")
    for graph in require_nondegenerate(g):
        back = pickle.loads(pickle.dumps(graph))
        assert back.vertices == graph.vertices and back.near(0) == graph.near(0)
        assert not hasattr(graph, "nope")


def _full_scan_start(p, q, f):
    """Reference: the first basis by scanning every P vertex for the greatest
    value at xi_min, ties to sorted labels, and every Q edge straddling
    xi_min for the least pi1 there, then the least slope, then sorted labels."""
    m, n, xi = len(f.b), len(f.c), min(f.c)
    pv, qv = vertex_nodes(p), vertex_nodes(q)
    cy = {j: vdot(f.c, w.point[:n]) for j, w in qv.items()}
    k = min(
        pv,
        key=lambda k: (
            pv[k].point[m] - xi * vdot(f.b, pv[k].point[:m]),
            sorted(pv[k].labels),
        ),
    )
    edges = []
    for key, ends in label_set_edges(q).items():
        if len(ends) != 2:
            continue
        lo, hi = sorted(ends, key=lambda j: cy[j])
        if cy[lo] == cy[hi] or not cy[lo] <= xi <= cy[hi]:
            continue
        slope = (qv[hi].point[n] - qv[lo].point[n]) / (cy[hi] - cy[lo])
        edges.append(((qv[lo].point[n] + (xi - cy[lo]) * slope, slope, sorted(key)), lo, hi))
    return (k, *min(edges)[1:])


def _start_matches_full_scan(g, f=None) -> tuple[bool, bool] | None:
    """Assert that the sweep's start is the full scan's; return whether the
    P optimum and the least c_j were tied, or None off the general sweep."""
    try:
        tr = enumerate_all(g, f)
    except DegenerateGame:
        return None
    if tr.dispatch != "general":
        return None
    f = tr.factorization
    p, q = require_nondegenerate(g)
    xi = min(f.c)
    assert parametric._Walk(g, f, p, q).start(xi) == _full_scan_start(p, q, f)
    values = [xi * vdot(f.b, v.point[: g.m]) - v.point[g.m] for v in p.vertices]
    return values.count(max(values)) > 1, list(f.c).count(xi) > 1


def test_start_matches_the_full_scan():
    # the sweep descends P, and Q's slice at xi_min, to their optimal faces;
    # on every corpus game, kt1..kt10 and two draws it must pick the basis
    # the scan of every P vertex and every Q edge picks. In draw 218 two P
    # vertices tie at xi_min and the descent reaches the one of greater
    # sorted labels; in draw 30 two edges out of Q's start vertex raise pi1
    # at one rate.
    tied_p, tied_slope = (
        random_rank1_game(rng, rng.randint(2, 4), rng.randint(2, 4))
        for rng in (random.Random(218), random.Random(30))
    )
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 11)] + [tied_p, tied_slope]
    ties = {}
    for g in games:
        try:
            ties[g] = _start_matches_full_scan(g)
        except NotRankOne:  # the corpus's demo game has rank(A+B) = 2
            continue
    assert ties[tied_p] == (True, False)
    assert ties[tied_slope] == (False, False)
    assert ties[load_game(str(CORPUS / "tied-min-c-2x3.game"))] == (False, True)
    # kt1..kt5 are also corpus games; zero-sum and row-constant games have
    # no first basis
    assert sum(t is not None for t in ties.values()) == 17


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        rank1_games(st.integers(2, 5), st.integers(2, 5)),
        rank1_games(st.integers(2, 5), st.integers(2, 5), tied=True),
    )
)
def test_start_matches_the_full_scan_on_draws(game):
    _start_matches_full_scan(*game)


def _assert_integer_decisions(g, f=None) -> int:
    """Check every decision the sweep made on integers against plain
    rational arithmetic; return the number of intervals checked."""
    try:
        tr = enumerate_all(g, f)
    except (DegenerateGame, NotRankOne):
        return 0
    p, _ = require_nondegenerate(g)
    b, m = tr.factorization.b if tr.factorization else None, g.m
    for iv in tr.intervals:
        # the P vertex's crossings with its neighbours' lines, as rationals
        k = node_at(p, iv.p_vertex.mask)
        x = iv.p_vertex.point
        below, above = [], []
        for j in p.near(k).values():
            if j == p.origin_index:
                continue
            y = p.node(j).point
            rise = vdot(b, y[:m]) - vdot(b, x[:m])
            if rise:
                (above if rise > 0 else below).append((y[m] - x[m]) / rise)
        p_lo = max(below, default=None)
        beta2 = min(above, default=None)
        assert iv.beta2 == beta2
        assert iv.xi1 == (iv.q_xi[0] if p_lo is None else max(iv.q_xi[0], p_lo))
        assert iv.xi2 == (iv.alpha2 if beta2 is None else min(iv.alpha2, beta2))
        if iv.alpha2 != iv.xi2:
            assert iv.case == "Optimality"
        else:
            assert iv.case == ("Both" if beta2 == iv.xi2 else "Feasibility")
        ends = [iv.objective.at(xi) for xi in (iv.xi1, iv.xi2)]
        assert all(v <= 0 for v in ends)
        zeros = {xi for xi, v in zip((iv.xi1, iv.xi2), ends) if v == 0}
        assert _zeros(iv.xi1, iv.xi2, iv.objective) == sorted(zeros)
    for bp, iv, nxt in zip(tr.breakpoints, tr.intervals, tr.intervals[1:]):
        rows, nxt_rows = set(iv.basis.rows), set(nxt.basis.rows)
        assert (bp.xi, bp.kind) == (iv.xi2, iv.case)
        assert (bp.leaving, bp.entering) == (min(rows - nxt_rows), min(nxt_rows - rows))
    return len(tr.intervals)


def test_integer_decisions_match_rational_arithmetic():
    # the sweep picks xi1, xi2 and the breakpoint kind, finds the objective's
    # zeros and the rows that leave and enter on integers; rationals must
    # give the same on every corpus game and on kt1..kt8
    games = [load_game(str(path)) for path in sorted(CORPUS.glob("*.game"))]
    games += [generate_kt(d) for d in range(1, 9)]
    assert sum(map(_assert_integer_decisions, games)) > 0


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        rank1_games(st.integers(2, 5), st.integers(2, 5)),
        rank1_games(st.integers(2, 5), st.integers(2, 5), tied=True),
    )
)
def test_integer_decisions_match_rational_arithmetic_on_draws(game):
    _assert_integer_decisions(*game)


def test_sweep_decodes_labels_for_the_records_and_ties_only(monkeypatch):
    # the start compares vertices and edges by mask and decodes a label set
    # only to break a tie; an interval's basis is its row mask, decoded only
    # when read
    decoded = []

    def counted(mask):
        decoded.append(mask)
        return original(mask)

    original = polytopes._label_set
    for module in (polytopes, parametric):
        monkeypatch.setattr(module, "_label_set", counted)
    g = generate_kt(6)
    f = factor_rank1(g)
    p, q = require_nondegenerate(g)
    parametric._Walk(g, f, p, q).start(min(f.c))
    assert not decoded
    tr = enumerate_all(g)
    assert len(tr.intervals) == 20 and not decoded
    # a tie in P's optimum at xi_min (draw 218) and between two edges out of
    # Q's start vertex (draw 30) each decode, and still match the full scan
    for seed in (218, 30):
        rng = random.Random(seed)
        g = random_rank1_game(rng, rng.randint(2, 4), rng.randint(2, 4))
        f = factor_rank1(g)
        p, q = require_nondegenerate(g)
        decoded.clear()
        start = parametric._Walk(g, f, p, q).start(min(f.c))
        assert decoded
        assert start == _full_scan_start(p, q, f)


def test_a_tied_start_face_is_not_degeneracy():
    # P's start face at xi_min = 0 holds two vertices, labels {1, 4} and
    # {2, 4}, in a game that passes the non-degeneracy check: a tie in the
    # start's flood is a tie of the objective, not a degenerate vertex
    g = BimatrixGame.from_payoffs([[0, -1], [1, 1]], [[0, 1], [-1, 1]])
    assert check_nondegenerate(g) == (True, None)
    f = factor_rank1(g)
    p, q = require_nondegenerate(g)
    face = parametric._Walk(g, f, p, q)._p_face(min(f.c))
    assert sorted(sorted(p.node(k).labels) for k in face) == [[1, 4], [2, 4]]
    keys = {e.key() for e in enumerate_all(g).equilibria}
    assert keys == {e.key() for e in support_enumeration(g).equilibria}


def test_start_at_the_top_of_the_range_finds_no_q_edge():
    # the start leaves the slice of Q at xi by an edge on which c^T y grows;
    # at xi = max(c) no point of Q has a greater c^T y, so no edge leaves
    # the slice and the start must raise rather than return
    g = generate_kt(3)
    f = factor_rank1(g)
    walk = parametric._Walk(g, f, *require_nondegenerate(g))
    with pytest.raises(InternalInvariantError) as info:
        walk.start(max(f.c))
    assert str(info.value) == "no edge of Q meets c^T y = 12"


def test_one_point_refuses_an_optimal_face_of_two_vertices():
    # the public API cannot reach this raise: with c constant the game is
    # strategically zero-sum, so a non-degenerate game has one equilibrium,
    # one optimal vertex a side. Here P's face is patched to two vertices
    g = generate_kt(3)
    f = factor_rank1(g)
    walk = parametric._Walk(g, f, *require_nondegenerate(g))
    walk._p_face = lambda xi: {0, 1}
    with pytest.raises(DegenerateGame) as info:
        walk.one_point(min(f.c))
    assert str(info.value) == "P has 2 payoff-minimizing vertices"
    assert info.value.witness is None


def test_advance_chain(kt2_trace):
    ivs = kt2_trace.intervals
    assert [iv.basis.rows for iv in ivs] == [(2, 3, 5), (3, 4, 5), (3, 4, 6), (1, 4, 6)]
    # the last basis's Q edge ends at xi_max = 4, where the slice c^T y = xi
    # leaves Q, so the sweep takes no step past it
    assert (ivs[-1].xi2, ivs[-1].case) == (4, "Feasibility")
    assert len(kt2_trace.breakpoints) == len(ivs) - 1


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


def test_sweep_table_of_a_one_point_range_is_empty():
    # a zero-sum or row-constant game sweeps no interval, so its table has
    # no row
    for dispatch in ("zero-sum", "row-constant"):
        tr = enumerate_all(load_game(str(CORPUS / f"{dispatch}-2x2.game")))
        assert tr.dispatch == dispatch and not tr.intervals
        assert sweep_table(tr) == ()


def test_sweep_table_refuses_bases_that_disagree(kt2_trace):
    # the first two bases are both optimal at xi = 5/2, so their objectives
    # must agree there
    ivs = kt2_trace.intervals
    assert (ivs[0].xi2, ivs[1].xi1) == (rat(5, 2), rat(5, 2))
    flat = replace(ivs[0], objective=AffineR(rat(-1), rat(0)))
    doctored = replace(kt2_trace, intervals=(flat, *ivs[1:]))
    with pytest.raises(InternalInvariantError, match="5/2 are missing or disagree"):
        sweep_table(doctored)


def test_sweep_table_refuses_a_gap_between_intervals():
    # with kt3's third interval, [6, 7], dropped, each point still has a
    # basis, but no interval covers the span between 6 and 7
    tr = enumerate_all(generate_kt(3))
    ivs = tr.intervals
    assert (ivs[2].xi1, ivs[2].xi2) == (6, 7)
    doctored = replace(tr, intervals=ivs[:2] + ivs[3:])
    with pytest.raises(InternalInvariantError, match=r"optimal on \(6, 7\)"):
        sweep_table(doctored)


def test_sweep_table_golden(kt2_tab):
    tr = enumerate_all(generate_kt(2), kt2_tab.factorization)
    rows = sweep_table(tr)
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


def test_special_dispatch_checks_and_keeps_the_factorization():
    a = ((1, 4), (2, 0))
    row_constant = BimatrixGame.from_payoffs(
        a, tuple(tuple(u - v for v in r) for u, r in zip((5, 3), a))
    )
    zero_sum = BimatrixGame.from_payoffs(a, tuple(tuple(-v for v in r) for r in a))
    # a factorization that is not A + B is refused on every dispatch
    for g in (row_constant, zero_sum):
        with pytest.raises(FactorizationMismatch):
            enumerate_all(g, RankOneFactorization((1, 1), (5, 5)))
    with pytest.raises(FactorizationMismatch):
        enumerate_all(row_constant, RankOneFactorization((1,), (5, 5)))
    # a valid rescaled factorization is the one the trace reports
    base = enumerate_all(row_constant)
    assert base.factorization.c == (5, 5)
    f = RankOneFactorization(
        tuple(2 * v for v in base.factorization.b), (rat(5, 2), rat(5, 2))
    )
    tr = enumerate_all(row_constant, f)
    assert tr.factorization == f
    assert (tr.xi_min, tr.xi_max) == (rat(5, 2), rat(5, 2))
    assert [(e.key(), e.source_xi) for e in tr.equilibria] == [
        (e.key(), rat(5, 2)) for e in base.equilibria
    ]


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
    from rank1nash import enumerate_vertices

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
        f0p = len(enumerate_vertices(g, "P"))
        f0q = len(enumerate_vertices(g, "Q"))
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
    """Reference: the whole (m+n+2)-square basis system, solved densely; an
    affine right-hand side by two solves, by linearity."""
    rows = basis.rows
    s = [t.m1[r - 1] for r in rows] + list(t.m2)
    st = list(zip(*s))
    zero = (rat(0),) * len(rows)
    z = AffineRVector(solve(s, zero + t.e2_const), solve(s, zero + t.e2_slope))
    w = AffineRVector(solve(st, t.dual_rhs_const), solve(st, t.dual_rhs_slope))
    k = t.k_rows
    uc, us = [rat(0)] * (k + 3), [rat(0)] * (k + 3)
    for pos, l in enumerate([r - 1 for r in rows] + [k, k + 1, k + 2]):
        uc[l], us[l] = w.const[pos], w.slope[pos]
    return s, z, AffineRVector(tuple(uc), tuple(us))


def _dense_interval(t, basis):
    """Reference: the LP interval of a basis, by scanning every primal row
    and every basic dual; returns (xi1, xi2, alpha2, alpha2_row, beta2,
    beta2_row), ties to the lowest row."""
    _, z, u = _dense_solve_basis(t, basis)
    lows, highs, alpha, beta = [], [], [], []
    for r, row in enumerate(t.m1, start=1):  # (M1 z)(xi) <= 0
        c, s = vdot(row, z.const), vdot(row, z.slope)
        assert s != 0 or c <= 0
        if s:
            (highs if s > 0 else lows).append(-c / s)
            if s > 0:
                alpha.append((-c / s, r))
    for r in basis.rows:  # u_r(xi) >= 0
        c, s = u.const[r - 1], u.slope[r - 1]
        assert s != 0 or c >= 0
        if s:
            (highs if s < 0 else lows).append(-c / s)
            if s < 0:
                beta.append((-c / s, r))
    a2, a2_row = min(alpha, default=(None, None))
    b2, b2_row = min(beta, default=(None, None))
    return max(lows), min(highs), a2, a2_row, b2, b2_row


def _dense_pivot(t, iv):
    """Reference: the LP's (leaving, entering) rows from the dense system,
    by the dual ratio test past a feasibility breakpoint and the primal one
    past an optimality breakpoint."""
    rows = iv.basis.rows
    s, z, u = _dense_solve_basis(t, iv.basis)
    if iv.case in ("Feasibility", "Both"):
        enter = iv.alpha2_row
        lam = solve(list(zip(*s)), t.m1[enter - 1])
        uv = u.at(iv.xi2)
        ratios = [(uv[r - 1] / lam[p], r) for p, r in enumerate(rows) if lam[p] > 0]
        return min(ratios)[1], enter
    leave = iv.beta2_row
    unit = [rat(0)] * len(s)
    unit[rows.index(leave)] = rat(-1)
    d = solve(s, unit)
    zv = z.at(iv.xi2)
    ratios = [
        (-vdot(row, zv) / rate, r)
        for r, row in enumerate(t.m1, start=1)
        if r not in rows and (rate := vdot(row, d)) > 0
    ]
    return leave, min(ratios)[1]


def _refactored_sweeps(rng, count, draw):
    """The sweeps of ``count`` general, non-degenerate draws, each also under
    the factorizations (lam b, c / lam) for lam = -2 and 1/3."""
    done = 0
    while done < count:
        g = draw(rng)
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


def _differential_sweeps():
    for d in range(2, 7):
        yield enumerate_all(generate_kt(d))
    yield from _refactored_sweeps(
        random.Random(3607),
        20,
        lambda rng: _fractional_rank1_game(rng, rng.randint(2, 5), rng.randint(2, 5)),
    )
    # numerators up to 10^6 over denominators up to 10^3, as in the
    # rank1-bigrat workload: the walk's cross-multiplications on wide integers
    yield from _refactored_sweeps(
        random.Random(3617),
        3,
        lambda rng: _fractional_rank1_game(rng, 5, 5, 10**6, 10**3),
    )


def _assert_trace_is_lp(tr) -> int:
    """Assert that the dense LP gives the trace's z, bounds, rows, objective
    and pivots; return the number of pivots checked."""
    t = build_tableau(tr.game, tr.factorization)
    m, n = t.m, t.n
    assert tr.intervals[0].xi1 == tr.xi_min
    for iv in tr.intervals:
        _, z, _ = _dense_solve_basis(t, iv.basis)
        assert interval_z(iv) == z
        assert _dense_interval(t, iv.basis) == (
            iv.xi1, iv.xi2, iv.alpha2, iv.alpha2_row, iv.beta2, iv.beta2_row
        )
        b_x = vdot(t.factorization.b, z.const[:m])
        assert iv.objective == AffineR(
            -z.const[m + n] - z.const[m + n + 1], b_x - z.slope[m + n]
        )
    for iv, bp in zip(tr.intervals, tr.breakpoints):
        assert _dense_pivot(t, iv) == (bp.leaving, bp.entering)
    return len(tr.breakpoints)


def test_trace_matches_dense_lp_reference():
    # the sweep reads each basis off a P vertex and a Q edge; the LP's
    # dense basis system, interval scan and ratio tests must give the same
    # z, bounds, rows, objective and pivots
    assert sum(_assert_trace_is_lp(tr) for tr in _differential_sweeps()) > 100


def _dense_sweep_table(t, trace):
    """Reference sweep table: dot every row of M1 with z at each point and
    at each interval's midpoint (binding_rows)."""
    ivs = trace.intervals
    points = []
    for iv in ivs:
        for v in (iv.xi1, iv.xi2):
            if not points or v != points[-1]:
                points.append(v)
    out = []
    for idx, xi in enumerate(points):
        here = [iv for iv in ivs if iv.xi1 <= xi <= iv.xi2]
        zs = [interval_z(iv).at(xi) for iv in here]
        rows = frozenset().union(*(binding_rows(t, z) for z in zs))
        out.append(("point", xi, here[0].objective.at(xi), rows))
        if idx + 1 < len(points):
            nxt = points[idx + 1]
            iv = next(v for v in ivs if v.xi1 <= xi and nxt <= v.xi2)
            mid = interval_z(iv).at((xi + nxt) / 2)
            out.append(("interval", (xi, nxt), None, binding_rows(t, mid)))
    return out


def test_sweep_table_matches_dense_binding_rows():
    # the table reads binding rows off the P vertex's and Q edge's labels;
    # dotting every row of M1 with z must find the same rows
    count = 0
    for tr in _differential_sweeps():
        t = build_tableau(tr.game, tr.factorization)
        got = [
            (r.kind, r.xi if r.kind == "point" else r.span, r.objective, r.binding)
            for r in sweep_table(tr)
        ]
        assert got == _dense_sweep_table(t, tr)
        count += len(got)
    assert count > 200


def test_tied_q_step_takes_the_lowest_leaving_row():
    # at xi = -5/3 two edges out of the Q vertex raise pi1 at the same rate;
    # the LP's dual ratio test, and so the walk, drops the lower row
    g = BimatrixGame.from_payoffs(
        ((0, -2, 3, 2), (-1, 0, 2, 0)), ((-2, 1, -5, -3), (1, 0, -2, 0))
    )
    tr = _sweep_oracle_labels(g)
    assert [(bp.xi, bp.kind, bp.leaving, bp.entering) for bp in tr.breakpoints] == [
        (rat(-5, 3), "Feasibility", 7, 8)
    ]
    assert _assert_trace_is_lp(tr) == 1


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
    # the sweep steps along P's and Q's edges, one step per breakpoint, and
    # makes no linear solve; each distinct equilibrium is checked once, by
    # the integer Nash test on its vertex pair
    import rank1nash
    from rank1nash import games, linalg

    calls = {"row_reduce": 0, "is_nash": 0}
    seams = {
        "row_reduce": (linalg, "row_reduce"),
        "is_nash": (games, "_integer_nash_test"),
    }

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, (home, attr) in seams.items():
        original = getattr(home, attr)
        for mod in vars(rank1nash).values():
            if getattr(mod, attr, None) is original and hasattr(mod, "__file__"):
                monkeypatch.setattr(mod, attr, counted(name, original))

    for g in _counting_games():
        calls.update(row_reduce=0, is_nash=0)
        tr = enumerate_all(g)
        assert calls == {"row_reduce": 0, "is_nash": len(tr.equilibria)}
        assert len(tr.breakpoints) == len(tr.intervals) - 1
        if g == generate_kt(6):
            assert len(tr.intervals) == 20
