"""Time and peak memory of the non-degeneracy check on large random games.

    PYTHONPATH=src python tests/scale_report.py                 # the table
    PYTHONPATH=src python tests/scale_report.py --d 14 --seed 2  # one check

The check (``require_nondegenerate``: the vertex walk of P and of Q, the
sort and the label count) runs once on ``conftest.baseline_game(d, seed)``,
the random rank-1 d x d game with payoffs in -9999..9999. One check prints
one JSON line: d, seed, the vertex count of each side, the wall time of the
check and the peak resident set size of the process. It exits 0 when the
check finishes, whether or not the game is degenerate, so running it under
``ulimit -v`` tests that the check fits in that much memory. Without
arguments, the script runs every (d, seed) of ROWS in a fresh interpreter,
one at a time, and prints a Markdown table. Run it with another checkout's
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


def one_check(d: int, seed: int) -> dict:
    from conftest import baseline_game
    from rank1nash import DegenerateGame, require_nondegenerate

    g = baseline_game(d, seed)
    t0 = time.perf_counter()
    try:
        p, q = require_nondegenerate(g)
        counts = [len(p.vertices), len(q.vertices)]
    except DegenerateGame:
        counts = None
    seconds = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB on Linux
    return {"d": d, "seed": seed, "vertices": counts, "check_s": round(seconds, 3),
            "peak_rss_mb": round(peak_kb / 1024)}


def table() -> None:
    print("| d | seed | V_P, V_Q | check (s) | peak RSS (MB) |")
    print("|---|---:|---|---:|---:|")
    for d, seed in ROWS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--d", str(d), "--seed", str(seed)],
            capture_output=True, text=True,
        )
        if out.returncode != 0:
            last = (out.stderr.strip().splitlines() or ["?"])[-1]
            print(f"| {d} | {seed} | — | exit {out.returncode}: {last} | — |")
            continue
        row = json.loads(out.stdout.strip().splitlines()[-1])
        counts = "degenerate" if row["vertices"] is None else "{:,}, {:,}".format(*row["vertices"])
        print(f"| {d} | {seed} | {counts} | {row['check_s']:.2f} | {row['peak_rss_mb']:,} |")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int)
    ap.add_argument("--seed", type=int, default=2)
    args = ap.parse_args()
    if args.d is None:
        table()
    else:
        print(json.dumps(one_check(args.d, args.seed)))


if __name__ == "__main__":
    main()
