"""Time and peak memory of the non-degeneracy check, and of one method, on
large random games.

    PYTHONPATH=src python tests/scale_report.py                 # the table
    PYTHONPATH=src python tests/scale_report.py --d 14 --seed 2  # one check
    PYTHONPATH=src python tests/scale_report.py --d 12 --seed 2 --method gprime
    PYTHONPATH=src python tests/scale_report.py --method labels  # a table
    PYTHONPATH=src python tests/scale_report.py --kt             # kt4..kt12
    PYTHONPATH=src python tests/scale_report.py --kt --d 8 --method labels

The "check" column times ``require_nondegenerate``: the vertex walk of P
and of Q, which keeps a node record for each basis and reads out only a
basis with a basic variable at zero, and the two graphs (a symmetric
game, A = B^T, walks P' alone and relabels it for Q). That is the check
every method runs; the ``check`` command's ``check_nondegenerate`` runs
the same walks and builds no graph. The vertex counts are read after the
timer stops, off each graph's ``vertices``, which reads out and sorts
every node. It runs once on ``conftest.baseline_game(d, seed)``, the
random rank-1 d x d game with payoffs in -9999..9999. With ``--method``
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

With ``--kt`` the game is ``generate_kt(d)`` instead, and ``--seed`` is
not read. Every kt game is symmetric, so its check walks one polytope.
Those games are small, so each time is the median of 5 calls in one
process, the first of them cold, and the table prints milliseconds;
without ``--d`` it runs kt4..kt12.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

ROWS = ((10, 1), (10, 2), (12, 1), (12, 2), (14, 1), (14, 2))
KT_ROWS = tuple((d, None) for d in range(4, 13))
KT_CALLS = 5  # a kt time is the median of this many calls
# the library call each --method times, named as in the benchmark
METHODS = {
    "labels": "equilibria_by_labels",
    "lh_all": "reachability",
    "gprime": "gprime_components",
    "enumerate": "enumerate_all",
}


def one_row(d: int, seed: int | None, method: str = "check") -> dict:
    """The row of baseline_game(d, seed), each time one cold call, or of
    generate_kt(d) when seed is None, each time the median of KT_CALLS."""
    import rank1nash

    if seed is None:
        g, calls, digits = rank1nash.generate_kt(d), KT_CALLS, 6
    else:
        from conftest import baseline_game

        g, calls, digits = baseline_game(d, seed), 1, 3

    def timed(fn):
        """fn(g), None when g is degenerate, and the median time."""
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            try:
                got = fn(g)
            except rank1nash.DegenerateGame:
                got = None
            times.append(time.perf_counter() - t0)
        return got, round(statistics.median(times), digits)

    sides, seconds = timed(rank1nash.require_nondegenerate)
    counts = None if sides is None else [len(side.vertices) for side in sides]
    row = {"d": d, "seed": seed, "vertices": counts, "check_s": seconds}
    if method != "check":
        method_s = None
        if counts is not None:
            method_s = timed(getattr(rank1nash, METHODS[method]))[1]
        row[f"{method}_s"] = method_s
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB on Linux
    row["peak_rss_mb"] = round(peak_kb / 1024)
    return row


def table(method: str, kt: bool) -> None:
    # kt rows print milliseconds, the others seconds
    unit, scale, rows = ("ms", 1000, KT_ROWS) if kt else ("s", 1, ROWS)
    extra = "" if method == "check" else f" {method} ({unit}) |"
    first = "game" if kt else "d | seed"
    print(f"| {first} | V_P, V_Q | check ({unit}) |{extra} peak RSS (MB) |")
    align = "---|" if kt else "---|---:|"
    print(f"|{align}---|---:|" + ("---:|" if extra else "") + "---:|")
    for d, seed in rows:
        name = f"kt{d}" if kt else f"{d} | {seed}"
        where = ["--kt"] if kt else ["--seed", str(seed)]
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--d", str(d), *where,
             "--method", method],
            capture_output=True, text=True,
        )
        if out.returncode != 0:
            last = (out.stderr.strip().splitlines() or ["?"])[-1]
            dashes = " — |" * (2 if extra else 1)
            print(f"| {name} | — | exit {out.returncode}: {last} |{dashes}")
            continue
        row = json.loads(out.stdout.strip().splitlines()[-1])
        counts = "degenerate" if row["vertices"] is None else "{:,}, {:,}".format(*row["vertices"])
        digits = 1 if kt else 2
        cells = f" {row['check_s'] * scale:.{digits}f} |"
        if extra:
            got = row[f"{method}_s"]
            cells += " — |" if got is None else f" {got * scale:.{digits}f} |"
        print(f"| {name} | {counts} |{cells} {row['peak_rss_mb']:,} |")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--method", choices=("check", *METHODS), default="check")
    ap.add_argument("--kt", action="store_true", help="run generate_kt(d)")
    args = ap.parse_args()
    if args.d is None:
        table(args.method, args.kt)
    else:
        seed = None if args.kt else args.seed
        print(json.dumps(one_row(args.d, seed, args.method)))


if __name__ == "__main__":
    main()
