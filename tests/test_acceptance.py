"""Acceptance gate: one test per shipped guarantee, run in order.

Every comparison is exact rational equality; the only tolerances in this
file are the wall-clock budgets. Each test prints a single PASS/FAIL
verdict line (run with -s to watch them live; pytest -v shows the same
verdict per test name); sub-failures are listed beneath the line and
repeated in the assert message.
"""

from __future__ import annotations

import random
import time

from conftest import random_game, random_rank1_game, reweight
from dense_lp import build_tableau, interval_z, zero_sum_dual_coincidence
from rank1nash import (
    AddToColumnOfA,
    AddToRowOfB,
    BimatrixGame,
    DegenerateGame,
    NotRankOne,
    RankOneFactorization,
    ScaleColumnOfA,
    ScaleRowOfB,
    check_nondegenerate,
    enumerate_all,
    enumerate_vertices,
    equilibria_by_labels,
    game_rank,
    generate_kt,
    gprime_components,
    lh_run,
    rat,
    reachability,
    reduce_rank,
    reduce_row_constant,
    support_enumeration,
    sweep_table,
    transform,
)


def _emit(num: int, slug: str, bad: list[str], t0: float, budget: float | None):
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        bad.append(f"took {elapsed:.2f}s, budget {budget:g}s")
    status = "PASS" if not bad else "FAIL"
    clock = f"{elapsed:.2f}s" + (f", budget {budget:g}s" if budget else "")
    print(f"{status} criterion {num} ({slug}) [{clock}]", flush=True)
    for msg in bad:
        print(f"    {msg}", flush=True)
    assert not bad, f"criterion {num}: " + " | ".join(bad)


def _chk(bad: list[str]):
    def chk(cond, msg):
        if not cond:
            bad.append(msg)

    return chk


def _keys(eqs):
    return {e.key() for e in eqs}


def _demo():
    return BimatrixGame.from_payoffs(((2, 1, 5), (3, 0, 4)), ((7, 8, 1), (2, 1, 6)))


def _unreach():
    return BimatrixGame.from_payoffs(((-28, -18), (-8, -23)), ((10, 30), (20, 15)))


def _disconnected():
    return BimatrixGame.from_payoffs(
        ((0, 3, 0), (2, 2, 0), (3, 0, 1)), ((0, 2, 3), (3, 2, 0), (0, 0, 1))
    )


def test_criterion_1_demo_game():
    t0 = time.perf_counter()
    bad: list[str] = []
    chk = _chk(bad)
    g = _demo()
    chk(game_rank(g) == 2, f"rank(A+B) = {game_rank(g)}, expected 2")
    try:
        enumerate_all(g)
        chk(False, "the sweep accepted a rank-2 game")
    except NotRankOne:
        pass
    want = {
        ((rat(1), rat(0)), (rat(0), rat(1), rat(0))),
        ((rat(1, 2), rat(1, 2)), (rat(1, 2), rat(1, 2), rat(0))),
        ((rat(2, 5), rat(3, 5)), (rat(1, 2), rat(0), rat(1, 2))),
    }
    res = support_enumeration(g)
    chk(not res.degenerate_suspect, "oracle raised a degeneracy suspicion")
    chk(_keys(res.equilibria) == want, "oracle equilibrium set differs")
    chk(_keys(equilibria_by_labels(g)) == want, "label equilibrium set differs")
    _emit(1, "2x3 demo game: oracle and labels agree on 3 equilibria", bad, t0, 1.0)


def test_criterion_2_unreachable_game():
    t0 = time.perf_counter()
    bad: list[str] = []
    chk = _chk(bad)
    g = _unreach()
    payoff_want = {(-18, 30), (-8, 20), (-20, 18)}
    sweep = enumerate_all(g)
    oracle = support_enumeration(g)
    labels = equilibria_by_labels(g)
    for name, eqs in (
        ("enumerate", sweep.equilibria),
        ("oracle", oracle.equilibria),
        ("labels", labels),
    ):
        chk(
            {(e.payoff1, e.payoff2) for e in eqs} == payoff_want,
            f"{name}: payoff set differs",
        )
        chk(len(eqs) == 3, f"{name}: expected 3 equilibria, got {len(eqs)}")
    chk(
        _keys(sweep.equilibria) == _keys(oracle.equilibria) == _keys(labels),
        "the three methods disagree on the strategy pairs",
    )
    rep = reachability(g)
    reached_payoffs = {
        (p.terminal.payoff1, p.terminal.payoff2)
        for p in rep.paths
    }
    chk(len(rep.paths) == 4, "expected one path per label r = 1..4")
    chk(
        all(p.terminal is not None for p in rep.paths),
        "some label drop failed to terminate at an equilibrium",
    )
    chk(
        reached_payoffs == {(-18, 30), (-8, 20)},
        f"paths reached {sorted(reached_payoffs)}, expected the two pure ones",
    )
    mixed = ((rat(1, 5), rat(4, 5)), (rat(1, 5), rat(4, 5)))
    chk(
        [e.key() for e in rep.unreached] == [mixed],
        "unreached list is not exactly the mixed equilibrium",
    )
    path = lh_run(g, 1)
    got = [(sorted(s.node1.labels), sorted(s.node2.labels)) for s in path.steps]
    chk(
        got == [([1, 2], [3, 4]), ([2, 4], [3, 4]), ([2, 4], [1, 3])],
        f"r=1 label trace differs: {got}",
    )
    _emit(2, "2x2 rank-1 game: 3 equilibria, mixed one unreachable", bad, t0, 1.0)


def test_criterion_3_sweep_trace():
    t0 = time.perf_counter()
    bad: list[str] = []
    chk = _chk(bad)
    g = generate_kt(2)
    f = RankOneFactorization.for_game(g, (2, 4), (2, 4))
    tr = enumerate_all(g, f)
    rows = sweep_table(tr)
    points = [(r.xi, r.objective, set(r.binding)) for r in rows if r.kind == "point"]
    chk(
        [p[0] for p in points] == [2, rat(5, 2), 3, rat(7, 2), 4],
        f"breakpoints differ: {[str(p[0]) for p in points]}",
    )
    chk(
        [p[1] for p in points] == [0, rat(-1, 4), 0, rat(-1, 4), 0],
        f"objective values differ: {[str(p[1]) for p in points]}",
    )
    chk(
        [p[2] for p in points]
        == [{2, 3, 5, 8}, {2, 3, 4, 5}, {3, 4, 5, 6}, {1, 3, 4, 6}, {1, 4, 6, 7}],
        "breakpoint binding sets differ",
    )
    spans = [set(r.binding) for r in rows if r.kind == "interval"]
    chk(
        spans == [{2, 3, 5}, {3, 4, 5}, {3, 4, 6}, {1, 4, 6}],
        "open-interval binding sets differ",
    )
    iv0, iv1 = tr.intervals[0], tr.intervals[1]
    chk(
        (iv0.basis.rows, iv1.basis.rows) == ((2, 3, 5), (3, 4, 5)),
        f"bases at xi=5/2 differ: {iv0.basis.rows}, {iv1.basis.rows}",
    )
    half = rat(5, 2)
    chk(iv0.xi2 == half == iv1.xi1, "the two bases do not meet at xi=5/2")
    for iv, want_pt in ((iv0, (1, 2)), (iv1, (rat(1, 2), rat(9, 2)))):
        x1, x2, y1, y2, pi1, pi2 = interval_z(iv).at(half)
        chk((y1, y2) == (rat(3, 4), rat(1, 4)), f"y at xi=5/2 is ({y1}, {y2})")
        chk(pi1 == rat(13, 4), f"pi1 at xi=5/2 is {pi1}")
        chk(
            (x1, pi2) == want_pt,
            f"basis {iv.basis.rows}: (x1, pi2) = ({x1}, {pi2}), want {want_pt}",
        )
    chk(
        [(bp.xi, bp.kind, bp.leaving, bp.entering) for bp in tr.breakpoints]
        == [
            (rat(5, 2), "Optimality", 2, 4),
            (3, "Feasibility", 5, 6),
            (rat(7, 2), "Optimality", 3, 1),
        ],
        "pivot records differ",
    )
    _emit(3, "parametric sweep reproduces the worked 2x2 table", bad, t0, 1.0)


def test_criterion_4_kt_counts():
    t0 = time.perf_counter()
    bad: list[str] = []
    chk = _chk(bad)
    for d in range(1, 6):
        g = generate_kt(d)
        tr = enumerate_all(g)
        chk(
            len(tr.equilibria) == 2 * d - 1,
            f"d={d}: found {len(tr.equilibria)}, expected {2 * d - 1}",
        )
        res = support_enumeration(g)
        chk(
            _keys(tr.equilibria) == _keys(res.equilibria),
            f"d={d}: sweep and oracle sets differ",
        )
    _emit(4, "kt family yields 1,3,5,7,9 equilibria for d=1..5", bad, t0, 30.0)


def test_criterion_5_disconnected_gprime():
    t0 = time.perf_counter()
    bad: list[str] = []
    chk = _chk(bad)
    rep = gprime_components(_disconnected())
    mixed = (
        (rat(1, 6), rat(1, 3), rat(1, 2)),
        (rat(1, 6), rat(1, 3), rat(1, 2)),
    )
    comp_of = {e.key(): comp for _, comp, e in rep.equilibrium_pairs}
    chk(mixed in comp_of, "mixed equilibrium missing from the pair graph")
    if mixed in comp_of:
        chk(
            comp_of[mixed] != rep.artificial_component,
            "mixed equilibrium shares a component with the artificial pair",
        )
    _emit(5, "product graph strands the mixed equilibrium", bad, t0, 5.0)


def _stranded_rank1():
    """A non-degenerate 3x3 game with A + B = b c^T, b = (1, -1, 0) and
    c = (-269, 52, 217), whose G' strands two of its three equilibria."""
    return BimatrixGame.from_payoffs(
        ((-387, -120, -63), (-9, -150, -45), (-117, -108, -72)),
        ((118, 172, 280), (278, 98, -172), (117, 108, 72)),
    )


def test_criterion_5_stranded_in_rank_1():
    # the paper's second result holds in rank 1 too: G' strands two mixed
    # equilibria of this rank-1 game in one component of their own
    t0 = time.perf_counter()
    bad: list[str] = []
    chk = _chk(bad)
    g = _stranded_rank1()
    chk(game_rank(g) == 1, f"rank(A + B) is {game_rank(g)}, not 1")
    chk(check_nondegenerate(g) == (True, None), "the game is degenerate")
    sweep = _keys(enumerate_all(g).equilibria)
    chk(
        sweep == _keys(support_enumeration(g).equilibria)
        == _keys(equilibria_by_labels(g))
        and len(sweep) == 3,
        "sweep, oracle and labels disagree, or find other than 3 equilibria",
    )
    stranded = {
        ((rat(1, 4), 0, rat(3, 4)), (0, rat(3, 7), rat(4, 7))),
        (
            (rat(25, 61), rat(6, 61), rat(30, 61)),
            (rat(1, 388), rat(153, 388), rat(117, 194)),
        ),
    }
    rep = gprime_components(g)
    comps = {comp for _, comp, e in rep.equilibrium_pairs if e.key() in stranded}
    chk(len(comps) == 1, f"the two mixed equilibria lie in components {comps}")
    chk(
        rep.artificial_component not in comps,
        "a mixed equilibrium shares a component with the artificial pair",
    )
    chk(
        _keys(reachability(g).unreached) == stranded,
        "reachability does not list exactly the two mixed equilibria unreached",
    )
    _emit(5, "G' strands two equilibria of a rank-1 game", bad, t0, 5.0)


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    bad: list[str] = []
    chk = _chk(bad)
    rng = random.Random(20260821)
    compared = 0
    skipped = 0
    mismatches = 0
    while compared < 100:
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        g = random_rank1_game(rng, m, n)
        try:
            sweep = enumerate_all(g)
        except DegenerateGame:
            skipped += 1
            continue
        oracle = support_enumeration(g)
        labels = equilibria_by_labels(g)
        if not (
            _keys(sweep.equilibria) == _keys(oracle.equilibria) == _keys(labels)
        ):
            mismatches += 1
            if mismatches == 1:
                bad.append(f"first mismatch on a {m}x{n} game: {g}")
        compared += 1
    chk(mismatches == 0, f"{mismatches} mismatches over {compared} games")
    chk(compared >= 100, f"only {compared} games compared")
    _emit(
        6,
        f"sweep = oracle = labels on {compared} random rank-1 games "
        f"({skipped} degenerate draws skipped)",
        bad,
        t0,
        60.0,
    )


def test_criterion_7_invariance():
    t0 = time.perf_counter()
    bad: list[str] = []
    chk = _chk(bad)
    rng = random.Random(40117)

    def oracle_keys(g):
        res = support_enumeration(g)
        return None if res.degenerate_suspect else _keys(res.equilibria)

    def image(eqs, op):
        # additive ops fix every equilibrium; a scaling by f reweights the
        # scaled index of the other player's strategy by 1/f
        if isinstance(op, ScaleRowOfB):
            return {(reweight(x, op.row, op.factor), y) for x, y in eqs}
        if isinstance(op, ScaleColumnOfA):
            return {(x, reweight(y, op.column, op.factor)) for x, y in eqs}
        return eqs

    skipped = 0
    scaled = 0
    moved = 0
    # the four payoff transforms, applied to the 2x2 fixture and to
    # random rank-1 games whose oracle run is clean
    samples = [_unreach()]
    while len(samples) < 5:
        g = random_rank1_game(rng, rng.randint(2, 3), rng.randint(2, 3))
        if oracle_keys(g):
            samples.append(g)
    for g in samples:
        base = oracle_keys(g)
        ops = [
            AddToColumnOfA(rng.randrange(g.n), rat(rng.randint(1, 9))),
            AddToRowOfB(rng.randrange(g.m), rat(-rng.randint(1, 9))),
            ScaleColumnOfA(rng.randrange(g.n), rat(2)),
            ScaleRowOfB(rng.randrange(g.m), rat(3, 2)),
        ]
        for op in ops:
            after = oracle_keys(transform(g, op))
            if after is None:
                skipped += 1
                continue
            want = image(base, op)
            if isinstance(op, (ScaleColumnOfA, ScaleRowOfB)):
                scaled += 1
                moved += want != base
            where = (
                f"column {op.column}" if hasattr(op, "column") else f"row {op.row}"
            )
            by = op.lam if hasattr(op, "lam") else op.factor
            chk(
                after == want,
                f"{type(op).__name__} ({where}, {by}) on a {g.m}x{g.n} game: "
                "the equilibrium set is not the image of the original",
            )
    chk(moved > 0, f"none of the {scaled} scaling checks moved an equilibrium")
    # rank reduction on 20 random full-rank 3x3 games
    done = 0
    while done < 20:
        g = random_game(rng, 3, 3)
        if game_rank(g) != 3:
            continue
        base = oracle_keys(g)
        if base is None:
            continue
        red = reduce_rank(g)
        after = oracle_keys(red.game)
        if after is None:
            skipped += 1
            continue
        chk(after == base, "reduce_rank changed the equilibrium set")
        done += 1
    # row-constant reduction on 20 random games
    done = 0
    while done < 20:
        a = tuple(
            tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3)
        )
        u = tuple(rng.randint(-9, 9) for _ in range(3))
        b = tuple(
            tuple(u[i] - a[i][j] for j in range(3)) for i in range(3)
        )
        g = BimatrixGame.from_payoffs(a, b)
        base = oracle_keys(g)
        if base is None:
            continue
        after = oracle_keys(reduce_row_constant(g, u))
        if after is None:
            skipped += 1
            continue
        chk(after == base, "reduce_row_constant changed the equilibrium set")
        done += 1
    # factorization rescaling never changes what the sweep finds
    g = _unreach()
    base = _keys(enumerate_all(g).equilibria)
    f0 = enumerate_all(g).factorization
    for t in (rat(2), rat(1, 3), rat(-1)):
        f = RankOneFactorization.for_game(
            g, tuple(v * t for v in f0.b), tuple(v / t for v in f0.c)
        )
        chk(
            _keys(enumerate_all(g, f).equilibria) == base,
            f"rescaling the factors by {t} changed the sweep output",
        )
    _emit(
        7,
        "additive transforms and reductions fix the equilibrium set, scalings "
        f"reweight it ({moved} of {scaled} scaling checks moved an equilibrium, "
        f"{skipped} degenerate transformed games skipped)",
        bad,
        t0,
        None,
    )


def test_criterion_8_structural():
    t0 = time.perf_counter()
    bad: list[str] = []
    chk = _chk(bad)
    rng = random.Random(777)
    done = 0
    while done < 15:
        g = random_rank1_game(rng, rng.randint(2, 4), rng.randint(2, 4))
        try:
            tr = enumerate_all(g)
        except DegenerateGame:
            continue
        if tr.dispatch != "general":
            continue
        ivs = tr.intervals
        chk(
            ivs[0].xi1 == tr.xi_min and ivs[-1].xi2 == tr.xi_max,
            "intervals do not span the xi range",
        )
        chk(
            all(a.xi2 == b.xi1 for a, b in zip(ivs, ivs[1:])),
            "gap or overlap between consecutive intervals",
        )
        for iv in ivs:
            mid = (iv.xi1 + iv.xi2) / 2
            chk(
                max(iv.objective.at(p) for p in (iv.xi1, mid, iv.xi2)) <= 0,
                "objective went positive on an optimal interval",
            )
        f0p = len(enumerate_vertices(g, "P"))
        f0q = len(enumerate_vertices(g, "Q"))
        chk(
            len(ivs) <= f0p * f0q,
            f"{len(ivs)} intervals exceeds the vertex product {f0p * f0q}",
        )
        done += 1
    done = 0
    while done < 10:
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        a = tuple(
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m)
        )
        g = BimatrixGame.from_payoffs(a, tuple(tuple(-v for v in r) for r in a))
        chk(
            zero_sum_dual_coincidence(build_tableau(g)),
            "zero-sum dual rows fail to mirror the primal",
        )
        done += 1
    _emit(8, "interval tiling, sign, count bound, zero-sum duality", bad, t0, None)
