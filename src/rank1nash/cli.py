"""Command-line interface.

Exit codes: 0 success, 2 degenerate game detected, 3 parse error (game file
or argument syntax), 4 precondition violation (wrong rank, bad factors, out
of range indices), 5 internal error (a solver state or result that the
mathematics rules out on valid input, e.g. a reported equilibrium failing
the Nash check; a bug to report). Each error class of the package names its
code as ``exit_code`` (see ``errors``); `main` returns it and prints the
message after the code's prefix.

Every game command is a `cmd_x(g, args)` of the loaded game and the parsed
arguments. It returns its exit code, its JSON object and its text lines;
one runner loads the game and prints either the object (under `--json`)
or the lines, so both modes print the same result.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import GameFileError, Rank1NashError
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


def cmd_enumerate(g, args):
    given = None
    if args.factor:
        b, c = _parse_factor(args.factor)
        given = RankOneFactorization.for_game(g, b, c)
    trace = enumerate_all(g, given)
    table = sweep_table(trace) if args.trace else ()
    fac = trace.factorization
    obj = {
        "dispatch": trace.dispatch,
        "m": g.m,
        "n": g.n,
        "factorization": None
        if fac is None
        else {"b": [str(v) for v in fac.b], "c": [str(v) for v in fac.c]},
        "xi_range": [str(trace.xi_min), str(trace.xi_max)],
        "equilibria": [_eq_json(e) for e in trace.equilibria],
    }
    lines = [f"dispatch: {trace.dispatch}"]
    if fac is not None:
        lines.append(f"factorization: b={_vec(fac.b)} c={_vec(fac.c)}")
    lines.append(f"xi range: [{trace.xi_min}, {trace.xi_max}]")
    lines.append(f"equilibria: {len(trace.equilibria)}")
    lines += [_eq_line(e, with_xi=True) for e in trace.equilibria]
    if args.trace:
        obj["trace"] = [
            dict(
                {"kind": "point", "xi": str(r.xi), "objective": str(r.objective)}
                if r.kind == "point"
                else {"kind": "interval", "span": [str(r.span[0]), str(r.span[1])]},
                binding=sorted(r.binding),
            )
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
    if table:
        lines.append("trace:")
        for r in table:
            # every zero of the objective is a point of the table
            head = (
                f"xi={r.xi} objective={r.objective}"
                if r.kind == "point"
                else f"({r.span[0]}, {r.span[1]}) objective<0"
            )
            lines.append(f"{head} binding={_labels(r.binding)}")
        lines += [
            f"pivot at xi={bp.xi}: {bp.kind.lower()}, "
            f"row {bp.leaving} leaves, row {bp.entering} enters"
            for bp in trace.breakpoints
        ]
    return 0, obj, lines


def cmd_oracle(g, args):
    res = support_enumeration(g, strict=args.strict)
    if res.degenerate_suspect and not args.json:
        print("warning: degenerate suspect", file=sys.stderr)
    obj = {
        "equilibria": [_eq_json(e) for e in res.equilibria],
        "degenerate_suspect": res.degenerate_suspect,
    }
    lines = [f"equilibria: {len(res.equilibria)}"]
    return 0, obj, lines + [_eq_line(e) for e in res.equilibria]


def cmd_labels(g, args):
    p, q = require_nondegenerate(g)
    eqs = [
        (e, p.node(i).labels, q.node(j).labels)
        for (i, j), e in _labeled_equilibria(p, q).items()
    ]
    obj = {
        "equilibria": [
            dict(_eq_json(e), labels_p=sorted(lp), labels_q=sorted(lq))
            for e, lp, lq in eqs
        ]
    }
    lines = [f"equilibria: {len(eqs)}"] + [
        _eq_line(e) + f" labels={_labels(lp)}|{_labels(lq)}" for e, lp, lq in eqs
    ]
    return 0, obj, lines


def _path_line(path) -> str:
    return f"r={path.missing}: " + " -> ".join(
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


def cmd_lh(g, args):
    if not args.all:
        p = lh_run(g, args.r)
        return 0, _path_json(p), [_path_line(p), f"terminal: {_eq_line(p.terminal)}"]
    rep = reachability(g)
    obj = {
        "paths": [_path_json(p) for p in rep.paths],
        "unreached": [_eq_json(e) for e in rep.unreached],
    }
    lines = []
    for p in rep.paths:
        lines += [_path_line(p), f"  terminal: {_eq_line(p.terminal)}"]
    unreached = [f"unreached: {_eq_line(e)}" for e in rep.unreached]
    return 0, obj, lines + (unreached or ["unreached: none"])


def cmd_gprime(g, args):
    rep = gprime_components(g)
    art = rep.artificial_component
    obj = {
        "components": rep.n_components,
        "artificial_component": art,
        "equilibria": [
            dict(_eq_json(e), component=comp, with_artificial=comp == art)
            for _, comp, e in rep.equilibrium_pairs
        ],
    }
    lines = [
        f"components: {rep.n_components}",
        f"artificial pair component: {art}",
    ] + [
        f"{_eq_line(e)} component={comp} "
        f"with-artificial={'yes' if comp == art else 'no'}"
        for _, comp, e in rep.equilibrium_pairs
    ]
    return 0, obj, lines


def cmd_rank(g, args):
    r = game_rank(g)
    return 0, {"m": g.m, "n": g.n, "rank": r}, [f"rank: {r}"]


def cmd_reduce_rank(g, args):
    red = reduce_rank(g)
    rank = game_rank(red.game)
    obj = {
        "column": red.column,
        "lam": str(red.lam),
        "rank": rank,
        "game": format_game(red.game),
    }
    comment = (
        f"rank reduced from {g.m} to {rank}: "
        f"added {red.lam} to column {red.column + 1} of A"
    )
    return 0, obj, format_game(red.game, comment=comment).splitlines()


def cmd_check(g, args):
    ok, witness = check_nondegenerate(g)
    if ok:
        return 0, {"nondegenerate": True}, ["non-degenerate"]
    obj = {
        "nondegenerate": False,
        "witness": {
            "point": [str(v) for v in witness.point],
            "labels": sorted(witness.labels),
        },
    }
    line = (
        f"degenerate: vertex {_vec(witness.point)} "
        f"carries labels {_labels(witness.labels)}"
    )
    return 2, obj, [line]


def cmd_generate(args) -> int:
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

    def game_cmd(name, cmd, help_):
        def run(args) -> int:
            code, obj, lines = cmd(load_game(args.game), args)
            print(json.dumps(obj) if args.json else "\n".join(lines))
            return code

        p = sub.add_parser(name, help=help_)
        p.add_argument("game", help="game file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=run)
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
    # Python 3.10.7 and later refuse int-str conversions past 4,300 digits
    # by default; the command reads and prints exact numbers of any width,
    # so it lifts that limit while it runs and then restores the caller's
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (Rank1NashError, ValueError) as exc:
        # each package error names its code; a ValueError, which the library
        # raises for an argument out of range, is a violated precondition
        code = getattr(exc, "exit_code", 4)
        prefix = {2: "degenerate game", 5: f"internal error: {type(exc).__name__}"}
        print(f"{prefix.get(code, 'error')}: {exc}", file=sys.stderr)
        return code
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())  # pragma: no cover - runs only as python -m rank1nash.cli
