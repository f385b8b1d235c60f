"""Command-line interface.

Exit codes: 0 success, 2 degenerate game detected, 3 parse error (game file
or argument syntax), 4 precondition violation (wrong rank, bad factors, out
of range indices), 5 internal error (a solver state or result that the
mathematics rules out on valid input, e.g. a reported equilibrium failing
the Nash check; a bug to report).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    DegenerateGame,
    FactorizationMismatch,
    GameFileError,
    NonPositiveScale,
    NotFullRank,
    NotRankOne,
    NotRowConstant,
    Rank1NashError,
)
from .gamefile import format_game, load_game, parse_entry
from .games import (
    RankOneFactorization,
    game_rank,
    generate_kt,
    reduce_rank,
)
from .lemke_howson import lh_run, reachability, gprime_components
from .oracle import support_enumeration
from .parametric import enumerate_all, sweep_table
from .polytopes import _labeled_equilibria, check_nondegenerate, require_nondegenerate


def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _labels(ls) -> str:
    return "{" + ",".join(str(l) for l in sorted(ls)) + "}"


def _eq_line(e, with_xi: bool = False) -> str:
    s = (
        f"x={_vec(e.strategies.x)} y={_vec(e.strategies.y)} "
        f"payoffs=({e.payoff1}, {e.payoff2})"
    )
    if with_xi and e.source_xi is not None:
        s += f" xi={e.source_xi}"
    return s


def _eq_json(e) -> dict:
    return {
        "x": [str(v) for v in e.strategies.x],
        "y": [str(v) for v in e.strategies.y],
        "payoff1": str(e.payoff1),
        "payoff2": str(e.payoff2),
        "source_xi": None if e.source_xi is None else str(e.source_xi),
    }


def _parse_factor(parts) -> tuple[tuple, tuple]:
    spec = {}
    for part in parts:
        name, _, body = part.partition("=")
        if name not in ("b", "c") or not body:
            raise GameFileError(f"factor must look like b=1,2 or c=3,4; got {part!r}")
        try:
            spec[name] = tuple(parse_entry(x.strip()) for x in body.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise GameFileError(f"bad factor entry in {part!r}") from exc
    if set(spec) != {"b", "c"}:
        raise GameFileError("--factor needs both b=... and c=...")
    return spec["b"], spec["c"]


def cmd_enumerate(args) -> int:
    g = load_game(args.game)
    fact = None
    if args.factor:
        b, c = _parse_factor(args.factor)
        fact = RankOneFactorization.for_game(g, b, c)
    trace = enumerate_all(g, fact)
    table = sweep_table(trace) if args.trace else ()
    if args.json:
        obj = {
            "dispatch": trace.dispatch,
            "m": g.m,
            "n": g.n,
            "factorization": None
            if trace.factorization is None
            else {
                "b": [str(v) for v in trace.factorization.b],
                "c": [str(v) for v in trace.factorization.c],
            },
            "xi_range": [str(trace.xi_min), str(trace.xi_max)],
            "equilibria": [_eq_json(e) for e in trace.equilibria],
        }
        if args.trace:
            obj["trace"] = [
                {
                    "kind": "point",
                    "xi": str(r.xi),
                    "objective": str(r.objective),
                    "binding": sorted(r.binding),
                }
                if r.kind == "point"
                else {
                    "kind": "interval",
                    "span": [str(r.span[0]), str(r.span[1])],
                    "binding": sorted(r.binding),
                }
                for r in table
            ]
            obj["breakpoints"] = [
                {
                    "xi": str(bp.xi),
                    "kind": bp.kind,
                    "leaving": bp.leaving,
                    "entering": bp.entering,
                }
                for bp in trace.breakpoints
            ]
        print(json.dumps(obj))
        return 0
    print(f"dispatch: {trace.dispatch}")
    if trace.factorization is not None:
        print(
            f"factorization: b={_vec(trace.factorization.b)} "
            f"c={_vec(trace.factorization.c)}"
        )
    print(f"xi range: [{trace.xi_min}, {trace.xi_max}]")
    print(f"equilibria: {len(trace.equilibria)}")
    for e in trace.equilibria:
        print(_eq_line(e, with_xi=True))
    if table:
        print("trace:")
        for r in table:
            if r.kind == "point":
                print(f"xi={r.xi} objective={r.objective} binding={_labels(r.binding)}")
            else:
                # every zero of the objective is a point of the table
                a, b = r.span
                print(f"({a}, {b}) objective<0 binding={_labels(r.binding)}")
        for bp in trace.breakpoints:
            print(
                f"pivot at xi={bp.xi}: {bp.kind.lower()}, "
                f"row {bp.leaving} leaves, row {bp.entering} enters"
            )
    return 0


def cmd_oracle(args) -> int:
    g = load_game(args.game)
    res = support_enumeration(g, strict=args.strict)
    if args.json:
        print(
            json.dumps(
                {
                    "equilibria": [_eq_json(e) for e in res.equilibria],
                    "degenerate_suspect": res.degenerate_suspect,
                }
            )
        )
        return 0
    print(f"equilibria: {len(res.equilibria)}")
    for e in res.equilibria:
        print(_eq_line(e))
    if res.degenerate_suspect:
        print("warning: degenerate suspect", file=sys.stderr)
    return 0


def cmd_labels(args) -> int:
    g = load_game(args.game)
    p, q = require_nondegenerate(g)
    eqs = [
        (e, p.vertices[i].labels, q.vertices[j].labels)
        for (i, j), e in _labeled_equilibria(p, q).items()
    ]
    if args.json:
        out = []
        for e, lp, lq in eqs:
            d = _eq_json(e)
            d["labels_p"] = sorted(lp)
            d["labels_q"] = sorted(lq)
            out.append(d)
        print(json.dumps({"equilibria": out}))
        return 0
    print(f"equilibria: {len(eqs)}")
    for e, lp, lq in eqs:
        print(_eq_line(e) + f" labels={_labels(lp)}|{_labels(lq)}")
    return 0


def _path_steps_str(path) -> str:
    return " -> ".join(
        f"({_labels(s.node1.labels)}|{_labels(s.node2.labels)})" for s in path.steps
    )


def _path_json(path) -> dict:
    return {
        "r": path.missing,
        "steps": [
            [sorted(s.node1.labels), sorted(s.node2.labels)] for s in path.steps
        ],
        "terminal": _eq_json(path.terminal),
        # kept for the output format: no path returns to the artificial pair
        "artificial_loop": False,
    }


def cmd_lh(args) -> int:
    g = load_game(args.game)
    if args.all:
        rep = reachability(g)
        if args.json:
            print(
                json.dumps(
                    {
                        "paths": [_path_json(p) for p in rep.paths],
                        "unreached": [_eq_json(e) for e in rep.unreached],
                    }
                )
            )
            return 0
        for p in rep.paths:
            print(f"r={p.missing}: {_path_steps_str(p)}")
            print(f"  terminal: {_eq_line(p.terminal)}")
        if rep.unreached:
            for e in rep.unreached:
                print(f"unreached: {_eq_line(e)}")
        else:
            print("unreached: none")
        return 0
    p = lh_run(g, args.r)
    if args.json:
        print(json.dumps(_path_json(p)))
        return 0
    print(f"r={p.missing}: {_path_steps_str(p)}")
    print(f"terminal: {_eq_line(p.terminal)}")
    return 0


def cmd_gprime(args) -> int:
    g = load_game(args.game)
    rep = gprime_components(g)
    if args.json:
        print(
            json.dumps(
                {
                    "components": rep.n_components,
                    "artificial_component": rep.artificial_component,
                    "equilibria": [
                        dict(
                            _eq_json(e),
                            component=comp,
                            with_artificial=comp == rep.artificial_component,
                        )
                        for _, comp, e in rep.equilibrium_pairs
                    ],
                }
            )
        )
        return 0
    print(f"components: {rep.n_components}")
    print(f"artificial pair component: {rep.artificial_component}")
    for _, comp, e in rep.equilibrium_pairs:
        tag = "yes" if comp == rep.artificial_component else "no"
        print(f"{_eq_line(e)} component={comp} with-artificial={tag}")
    return 0


def cmd_rank(args) -> int:
    g = load_game(args.game)
    r = game_rank(g)
    if args.json:
        print(json.dumps({"m": g.m, "n": g.n, "rank": r}))
        return 0
    print(f"rank: {r}")
    return 0


def cmd_reduce_rank(args) -> int:
    g = load_game(args.game)
    red = reduce_rank(g)
    rank = game_rank(red.game)
    if args.json:
        print(
            json.dumps(
                {
                    "column": red.column,
                    "lam": str(red.lam),
                    "rank": rank,
                    "game": format_game(red.game),
                }
            )
        )
        return 0
    comment = (
        f"rank reduced from {g.m} to {rank}: "
        f"added {red.lam} to column {red.column + 1} of A"
    )
    sys.stdout.write(format_game(red.game, comment=comment))
    return 0


def cmd_check(args) -> int:
    g = load_game(args.game)
    ok, witness = check_nondegenerate(g)
    if args.json:
        obj = {"nondegenerate": ok}
        if not ok:
            obj["witness"] = {
                "point": [str(v) for v in witness.point],
                "labels": sorted(witness.labels),
            }
        print(json.dumps(obj))
        return 0 if ok else 2
    if ok:
        print("non-degenerate")
        return 0
    print(
        f"degenerate: vertex {_vec(witness.point)} "
        f"carries labels {_labels(witness.labels)}"
    )
    return 2


def cmd_generate(args) -> int:
    if args.d < 1:
        raise ValueError("--d must be >= 1")
    g = generate_kt(args.d)
    sys.stdout.write(
        format_game(g, comment=f"quadratic-form construction, d = {args.d}")
    )
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rank1nash",
        description="Exact Nash equilibrium enumeration for rank-1 bimatrix games",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def game_cmd(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("game", help="game file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = game_cmd("enumerate", cmd_enumerate, "enumerate all equilibria (rank <= 1)")
    p.add_argument("--trace", action="store_true", help="print the sweep table")
    p.add_argument(
        "--factor",
        nargs=2,
        metavar=("B", "C"),
        help="override factorization, e.g. --factor b=2,4 c=2,4",
    )
    p = game_cmd("oracle", cmd_oracle, "support-enumeration cross-check")
    p.add_argument("--strict", action="store_true", help="also scan unequal supports")
    game_cmd("labels", cmd_labels, "equilibria via completely labeled vertex pairs")
    p = game_cmd("lh", cmd_lh, "label-dropping paths from the artificial pair")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--r", type=int, help="label to drop")
    grp.add_argument("--all", action="store_true", help="run every label")
    game_cmd("gprime", cmd_gprime, "components of the product path graph")
    game_cmd("rank", cmd_rank, "rank of A + B")
    game_cmd("reduce-rank", cmd_reduce_rank, "lower the rank of a full-rank game")
    game_cmd("check", cmd_check, "non-degeneracy check")
    p = sub.add_parser("generate", help="emit a built-in game family")
    p.add_argument("--kt", action="store_true", required=True)
    p.add_argument("--d", type=int, required=True, help="size of the square game")
    p.set_defaults(func=cmd_generate)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    try:
        return args.func(args)
    except GameFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateGame as exc:
        print(f"degenerate game: {exc}", file=sys.stderr)
        return 2
    except (
        NotRankOne,
        NotFullRank,
        NotRowConstant,
        FactorizationMismatch,
        NonPositiveScale,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Rank1NashError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
