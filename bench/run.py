"""rank1nash benchmark: per-method cold solve time, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. Each run starts fresh child processes, one at a time,
and each makes one library call at a time from one thread (a closed loop
with one client):

- set-up-only children, each timed from its start until it has imported
  ``rank1nash`` and parsed the games, and scaled by the start-up of a bare
  interpreter timed just before it (``setup_s`` is the median; see
  calibrate.py);
- one worker that measures the workload (see worker.py).

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Every line before it is a readable report: the run record, every metric
with its unit (also those BENCHMARK.json cannot carry, such as
``error_rate``), and the failures by kind. ``--smoke`` runs every workload
on a few games and checks that every metric is emitted and that the exact
counts repeat; see README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calibrate
from workloads import ALL_METHODS, WORKLOADS, load_reference, run_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 15
CHILD_TIMEOUT = 170

UNITS = {
    "_s": "s", ".s": "s", "_ms.p50": "ms", "_ms.p90": "ms", "_kb": "KB", ".calls": "count",
    ".us_per_solve": "us", ".max_bits": "bits", "_yield": "ratio",
    "_per_interval": "ratio", "_per_breakpoint": "ratio",
}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def start_worker(config: bytes) -> tuple[subprocess.Popen, float]:
    """Start a worker, hand it the configuration; return it and its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        proc.stdin.write(config)
        proc.stdin.close()
        proc.stdin = None  # written in full; communicate() must not flush it
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise RuntimeError("worker failed during set-up")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup


def finish(proc: subprocess.Popen) -> dict | None:
    """Wait for a started worker; return its result (None from set-up only)."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def run_once(workload: str, seed: int, seconds: int, trace: bool,
             limit: int | None = None, methods=ALL_METHODS) -> dict:
    """One measured run; the result holds the metrics and the run record."""
    reference = load_reference(workload)
    if limit is not None:
        reference = dict(reference, games=reference["games"][:limit])
    games, order = run_inputs(workload, seed, reference)
    config = json.dumps({
        "games": games, "order": order, "methods": list(methods),
        "seconds": seconds, "trace": trace, "setup_only": False,
    }).encode()
    setup = []  # (wall seconds, bare interpreter start-up seconds)
    if not trace:
        setup_config = json.dumps({"games": games, "setup_only": True}).encode()
        for _ in range(SETUP_SAMPLES - 1):
            bare = calibrate.bare_startup_seconds()
            proc, dt = start_worker(setup_config)
            finish(proc)
            setup.append((dt, bare))
    bare = calibrate.bare_startup_seconds()
    proc, dt = start_worker(config)
    setup.append((dt, bare))
    result = finish(proc)
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(
            dt * calibrate.STARTUP_REFERENCE_S / bare for dt, bare in setup)
    result["record"] = {
        "workload": workload, "seed": seed, "master_seed": reference["master_seed"],
        "seconds": seconds, "trace": int(trace),
        "backend": result.pop("backend"), "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": git_commit(),
        "games": len(games), "degenerate": sum(g["degenerate"] for g in games),
        "setup_wall_ms": "/".join(f"{1000 * dt:.0f}" for dt, _ in setup),
        "bare_startup_ms": "/".join(f"{1000 * bare:.0f}" for _, bare in setup), **result.pop("info"),
    }
    return result


def report(result: dict, names) -> dict:
    """Print the readable report; return the final JSON line's object."""
    rec, metrics = result["record"], result["metrics"]
    per_call = rec.pop("per_call", [])
    wall = rec.pop("wall", {})
    per_game = rec.pop("per_game", {})
    print("record: " + " ".join(f"{k}={v}" for k, v in rec.items()))
    for name, value in sorted(wall.items()):
        print(f"wall {name} = {value:.6g} s (unscaled)")
    for name, values in per_game.items():
        print(f"per-game {name}_s = " + " ".join(f"{v:.4g}" for v in values))
    for name in sorted(metrics):
        extra = ""
        if name.startswith("enumerate_ms.") and "enumerate_ms.samples" in rec:
            extra = f" (n={rec['enumerate_ms.samples']})"
        print(f"metric {name} = {metrics[name]:.6g} {unit_of(name)}{extra}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"metric error_rate = {failed / attempted:.6g} "
          f"(failed {failed} of {attempted} operations)")
    for kind, count in sorted(result["failures"].items()):
        print(f"failed {count:5d} x {kind}")
    for line in result["unexpected"]:
        print(f"UNEXPECTED {line}")
    for c in per_call:
        print("counts: " + " ".join(f"{k}={v}" for k, v in c.items() if v))
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": not result["unexpected"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
    }


def smoke() -> None:
    """Every workload on a few games: every metric is emitted, and two traced
    runs with the same seed give the same exact counts."""
    spec = benchmark_spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    limits = {"kt-ladder": 2, "rank1-batch": 12, "rank1-bigrat": 2}
    for workload, limit in limits.items():
        run = run_once(workload, 1, 1, False, limit)
        assert not run["unexpected"], run["unexpected"]
        report(run, e2e)
        counts = []
        for _ in range(2):
            run = run_once(workload, 1, 1, True, limit)
            assert not run["unexpected"], run["unexpected"]
            report(run, layers)
            counts.append({k: v for k, v in run["metrics"].items()
                           if unit_of(k) in ("count", "bits")})
        assert counts[0] == counts[1], counts
    run = run_once("kt-ladder", 1, 1, True, methods=["enumerate"])
    kt6 = next(c for c in run["record"]["per_call"] if c["game"] == 2)
    assert kt6["polytopes.vertices"] == 82, kt6
    assert kt6["parametric.intervals"] == 20, kt6
    assert kt6["parametric.basis_interval.calls"] == 69, kt6
    print("smoke ok")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "rank1nash", "__init__.py")):
        print(f"error: no rank1nash package under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        smoke()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    try:
        result = run_once(args.workload, args.seed, seconds, bool(args.trace))
        line = report(result, [m["name"] for m in spec[kind]])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
