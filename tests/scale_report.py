"""Time and peak memory of the non-degeneracy check, and of one method, on
large random games.

    PYTHONPATH=src python tests/scale_report.py                 # the table
    PYTHONPATH=src python tests/scale_report.py --d 14 --seed 2  # one check
    PYTHONPATH=src python tests/scale_report.py --d 12 --seed 2 --method gprime
    PYTHONPATH=src python tests/scale_report.py --method labels  # a table

The check (``require_nondegenerate``: the vertex walk of P and of Q, the
sort and the label count) runs once on ``conftest.baseline_game(d, seed)``,
the random rank-1 d x d game with payoffs in -9999..9999. With ``--method``
other than ``check`` (labels, lh_all, gprime or enumerate), one cold call of
that library method follows the check in the same process and is timed on
its own; it runs its own check, as every public call does. One row prints
one JSON line: d, seed, the vertex count of each side, the wall time of the
check, that of the method when one was asked for, and the peak resident set
size of the process. It exits 0 when the row finishes, whether or not the
game is degenerate (a degenerate game gets no method call), so running it
under ``ulimit -v`` tests that the row fits in that much memory. Without
``--d``, the script runs every (d, seed) of ROWS in a fresh interpreter, one
at a time, and prints a Markdown table. Run it with another checkout's
``src`` on PYTHONPATH to measure that checkout. Pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

ROWS = ((10, 1), (10, 2), (12, 1), (12, 2), (14, 1), (14, 2))
# the library call each --method times, named as in the benchmark
METHODS = {
    "labels": "equilibria_by_labels",
    "lh_all": "reachability",
    "gprime": "gprime_components",
    "enumerate": "enumerate_all",
}


def one_row(d: int, seed: int, method: str = "check") -> dict:
    import rank1nash
    from conftest import baseline_game

    g = baseline_game(d, seed)
    t0 = time.perf_counter()
    try:
        counts = [len(side.vertices) for side in rank1nash.require_nondegenerate(g)]
    except rank1nash.DegenerateGame:
        counts = None
    seconds = time.perf_counter() - t0
    row = {"d": d, "seed": seed, "vertices": counts, "check_s": round(seconds, 3)}
    if method != "check":
        method_s = None
        if counts is not None:
            fn = getattr(rank1nash, METHODS[method])
            t0 = time.perf_counter()
            fn(g)
            method_s = round(time.perf_counter() - t0, 3)
        row[f"{method}_s"] = method_s
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB on Linux
    row["peak_rss_mb"] = round(peak_kb / 1024)
    return row


def table(method: str) -> None:
    extra = "" if method == "check" else f" {method} (s) |"
    print(f"| d | seed | V_P, V_Q | check (s) |{extra} peak RSS (MB) |")
    print("|---|---:|---|---:|" + ("---:|" if extra else "") + "---:|")
    for d, seed in ROWS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--d", str(d),
             "--seed", str(seed), "--method", method],
            capture_output=True, text=True,
        )
        if out.returncode != 0:
            last = (out.stderr.strip().splitlines() or ["?"])[-1]
            dashes = " — |" * (2 if extra else 1)
            print(f"| {d} | {seed} | — | exit {out.returncode}: {last} |{dashes}")
            continue
        row = json.loads(out.stdout.strip().splitlines()[-1])
        counts = "degenerate" if row["vertices"] is None else "{:,}, {:,}".format(*row["vertices"])
        cells = f" {row['check_s']:.2f} |"
        if extra:
            got = row[f"{method}_s"]
            cells += " — |" if got is None else f" {got:.2f} |"
        print(f"| {d} | {seed} | {counts} |{cells} {row['peak_rss_mb']:,} |")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--method", choices=("check", *METHODS), default="check")
    args = ap.parse_args()
    if args.d is None:
        table(args.method)
    else:
        print(json.dumps(one_row(args.d, args.seed, args.method)))


if __name__ == "__main__":
    main()
