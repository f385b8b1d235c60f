"""One benchmark run of one workload, in a fresh process.

Started by run.py, which writes the run's configuration as JSON on stdin.
The worker imports the package from the checkout's ``src``, parses the
games and prints ``ready``; that is the end of set-up. A set-up-only worker
exits there. Otherwise it runs, one call at a time from one thread:

- with ``trace`` off: the CLI spot check, untimed, then timed passes over
  the games until ``seconds`` have gone by (at least one whole pass);
- with ``trace`` on: a warm-up pass of ``enumerate_all`` over every game
  without clearing the caches, measuring the RSS it leaves behind; one
  traced pass of every method; the CLI spot check, traced.

Before each timed call the package's caches are cleared outside the timer,
so every call starts cold. Every answer is checked against the reference.
The last line on stdout is the result as JSON.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import rank1nash  # noqa: E402
from rank1nash import cli  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import KNOWN_DEGENERATE_DEFECTS  # noqa: E402

# benchmark method -> package function, looked up at call time so that a
# traced run calls the wrapped function
LIBRARY = {
    "check": "check_nondegenerate",
    "enumerate": "enumerate_all",
    "labels": "equilibria_by_labels",
    "oracle": "support_enumeration",
    "lh_all": "reachability",
    "gprime": "gprime_components",
}
CLI = {
    "check": ["check"],
    "enumerate": ["enumerate"],
    "labels": ["labels"],
    "oracle": ["oracle"],
    "lh_all": ["lh", "--all"],
    "gprime": ["gprime"],
}


def package_modules():
    return [rank1nash] + [
        mod for name, mod in sorted(sys.modules.items())
        if name.startswith("rank1nash.")
    ]


def find_caches(modules):
    """Every object in a package namespace that has a ``cache_clear``."""
    found = {}
    for mod in modules:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def rss_kb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024


def eq_key(x, y):
    return tuple(str(v) for v in x), tuple(str(v) for v in y)


def answer_keys(method, result):
    if method in ("enumerate", "oracle"):
        eqs = result.equilibria
    elif method == "labels":
        eqs = result
    elif method == "lh_all":
        eqs = result.reached + result.unreached
        terminals = {
            eq_key(p.terminal.strategies.x, p.terminal.strategies.y)
            for p in result.paths if p.terminal is not None
        }
        keys = {eq_key(e.strategies.x, e.strategies.y) for e in eqs}
        return keys if terminals <= keys else None
    else:  # gprime
        eqs = [e for _, _, e in result.equilibrium_pairs]
    return {eq_key(e.strategies.x, e.strategies.y) for e in eqs}


def library_fault(method, ref, result):
    """Why a library call's outcome is wrong, or None when it is right.

    ``result`` is the return value, or the exception the call raised. On a
    degenerate game the only right outcome of the enumerating methods is
    DegenerateGame; the oracle is checked on non-degenerate games only.
    """
    if (ref["degenerate"] and method not in ("check", "oracle")
            and isinstance(result, rank1nash.DegenerateGame)):
        return None
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}"
    if method == "check":
        return None if result[0] == (not ref["degenerate"]) else "wrong verdict"
    if ref["degenerate"]:
        return None if method == "oracle" else "answered"
    return None if answer_keys(method, result) == ref["keys"] else "wrong answer"


def cli_fault(method, ref, code, stdout):
    """Why a CLI call's exit code or JSON output is wrong, or None."""
    if ref["degenerate"] and method != "oracle":
        if code != 2:
            return f"exit {code}"
        if method == "check" and json.loads(stdout)["nondegenerate"] is not False:
            return "wrong verdict"
        return None
    if code != 0:
        return f"exit {code}"
    obj = json.loads(stdout)
    if method == "check":
        return None if obj["nondegenerate"] is True else "wrong verdict"
    if ref["degenerate"]:
        return None
    if method == "lh_all":
        eqs = [p["terminal"] for p in obj["paths"] if p["terminal"]] + obj["unreached"]
    else:
        eqs = obj["equilibria"]
    keys = {(tuple(e["x"]), tuple(e["y"])) for e in eqs}
    return None if keys == ref["keys"] else "wrong answer"


class Ledger:
    """Attempted and failed operations, and the failures outside the known
    defects (which make the run incorrect)."""

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()
        self.unexpected: list[str] = []

    def record(self, where, method, gi, ref, fault):
        self.attempted += 1
        if fault is None:
            return
        self.failed[f"{where} {method}: {fault}"] += 1
        if not (ref["degenerate"] and method in KNOWN_DEGENERATE_DEFECTS):
            self.unexpected.append(f"{where} {method} game {gi}: {fault}")


def cli_spot_check(ledger, games, refs, methods):
    """CLI calls on the first non-degenerate and the first degenerate game."""
    picks = [
        gi for gi in (
            next((i for i, r in enumerate(refs) if not r["degenerate"]), None),
            next((i for i, r in enumerate(refs) if r["degenerate"]), None),
        ) if gi is not None
    ]
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        for gi in picks:
            path = os.path.join(tmp, f"game{gi}.game")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rank1nash.format_game(games[gi]))
            for method in methods:
                argv = [CLI[method][0], path, *CLI[method][1:], "--json"]
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                except Exception as exc:  # a traceback is what a CLI user gets
                    fault = f"uncaught {type(exc).__name__}"
                else:
                    fault = cli_fault(method, refs[gi], code, out.getvalue())
                ledger.record("cli", method, gi, refs[gi], fault)


def timed_call(log, caches, method, game):
    """One cold call: ((start, end, seconds outside the kernel), outcome)."""
    for cache in caches:
        cache.cache_clear()
    fn = getattr(rank1nash, LIBRARY[method])
    t0, n0 = log.clock()
    try:
        result = fn(game)
    except Exception as exc:  # every outcome is checked against the reference
        result = exc
    t1, n1 = log.clock()
    return (t0, t1, n1 - n0), result


def run_pass(log, ledger, caches, games, refs, order, methods, samples,
             stop=None, on_call=None) -> bool:
    """One pass over the games in ``order``, every method on each game.

    Appends each call's timing to ``samples[method][game]``. Returns False
    when ``stop()`` cut the pass short.
    """
    for gi in order:
        for method in methods:
            timing, result = timed_call(log, caches, method, games[gi])
            samples[method][gi].append(timing)
            if on_call is not None:
                on_call(gi, method)
            ledger.record("lib", method, gi, refs[gi],
                          library_fault(method, refs[gi], result))
            if stop is not None and stop():
                return False
    return True


def per_game_seconds(log, samples, scaled=True):
    """Per method and game, the median seconds of its calls (see calibrate.py).

    Settle the log first, so that it covers the window after the last call.
    """
    def secs(t):
        return log.scale(*t) if scaled else t[2]

    return {
        method: [statistics.median(secs(t) for t in calls) for calls in per_game]
        for method, per_game in samples.items()
    }


def measure(cfg, log, ledger, caches, games, refs):
    methods, order = cfg["methods"], cfg["order"]
    samples = {m: [[] for _ in games] for m in methods}
    deadline = time.perf_counter() + cfg["seconds"]

    def stop():
        return time.perf_counter() >= deadline

    run_pass(log, ledger, caches, games, refs, order, methods, samples)
    passes = 1
    while not stop():
        passes += run_pass(log, ledger, caches, games, refs, order, methods,
                           samples, stop)
    log.settle()
    per_game = per_game_seconds(log, samples)
    metrics = {f"{m}_s": sum(v) for m, v in per_game.items()}
    latencies = [1000 * v for v in per_game["enumerate"]]
    metrics["enumerate_ms.p50"] = statistics.median(latencies)
    metrics["enumerate_ms.p90"] = statistics.quantiles(
        latencies, n=10, method="inclusive")[8]
    wall = per_game_seconds(log, samples, scaled=False)
    info = {"whole_passes": passes, "enumerate_ms.samples": len(latencies),
            "kernel_ms.p50": 1000 * statistics.median(log.took),
            "wall": {f"{m}_s": sum(v) for m, v in wall.items()}}
    if len(games) <= 6:
        info["per_game"] = per_game
    return metrics, info


def warm_up(log, ledger, games, refs, order):
    """``enumerate_all`` on every game without clearing the caches.

    Returns the RSS growth in KB, after ``gc.collect()``, and the timings.
    No game repeats, so each call still computes its own game from scratch
    and its time serves as the untraced ``enumerate_s``.
    """
    samples = {"enumerate": [[] for _ in games]}
    gc.collect()
    before = rss_kb()
    run_pass(log, ledger, [], games, refs, order, ["enumerate"], samples)
    gc.collect()
    return rss_kb() - before, samples


def trace(cfg, log, ledger, caches, games, refs, texts):
    methods, order = cfg["methods"], cfg["order"]
    retained_kb, untraced = warm_up(log, ledger, games, refs, order)

    tracer = tracing.Tracer(clock=lambda: log.clock()[1])
    missing = tracer.install(rank1nash, package_modules())
    for text in texts:
        rank1nash.parse_game(text)
    parse_s = tracing.summarize(tracer.spans)["s"].get("gamefile.parse_game", 0.0)

    tracer.clear()
    calls = []
    traced = {m: [[] for _ in games] for m in methods}

    def mark(gi, method):
        calls.append((gi, method, len(tracer.spans)))

    run_pass(log, ledger, caches, games, refs, order, methods, traced, on_call=mark)
    metrics = tracing.layer_metrics(tracer.spans)
    per_call, start = [], 0
    for gi, method, end in calls:
        per_call.append({"game": gi, "method": method,
                         **tracing.counts(tracer.spans[start:end], start)})
        start = end

    tracer.clear()
    cli_spot_check(ledger, games, refs, methods)
    metrics["cli.main.s"] = tracing.summarize(tracer.spans)["s"].get("cli.main", 0.0)
    log.settle()
    untraced_s = sum(per_game_seconds(log, untraced)["enumerate"])
    traced_s = sum(per_game_seconds(log, {"enumerate": traced["enumerate"]})["enumerate"])
    metrics["trace_overhead_s"] = traced_s - untraced_s
    metrics["gamefile.parse_game.s"] = parse_s
    metrics["retained_kb"] = retained_kb
    return metrics, {"untraced_enumerate_s": untraced_s, "traced_enumerate_s": traced_s,
                     "missing": missing, "per_call": per_call}


def main() -> None:
    cfg = json.load(sys.stdin)
    texts = [g["text"] for g in cfg["games"]]
    games = [rank1nash.parse_game(t) for t in texts]
    print("ready", flush=True)
    if cfg["setup_only"]:
        return
    if not os.path.abspath(rank1nash.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported rank1nash from {rank1nash.__file__}, not {SRC}")
    refs = [
        {"degenerate": g["degenerate"],
         "keys": None if g["equilibria"] is None
         else {eq_key(x, y) for x, y in g["equilibria"]}}
        for g in cfg["games"]
    ]
    caches = find_caches(package_modules())
    ledger = Ledger()
    with calibrate.SpeedLog() as log:
        if cfg["trace"]:
            metrics, info = trace(cfg, log, ledger, caches, games, refs, texts)
        else:
            # the CLI spot check also runs every code path once before timing
            cli_spot_check(ledger, games, refs, cfg["methods"])
            metrics, info = measure(cfg, log, ledger, caches, games, refs)
            metrics["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info["caches"] = len(caches)
    print(json.dumps({
        "metrics": metrics,
        "attempted": ledger.attempted,
        "failed": sum(ledger.failed.values()),
        "failures": dict(ledger.failed),
        "unexpected": ledger.unexpected,
        "backend": "gmpy2" if rank1nash.linalg.HAVE_GMPY2 else "fractions",
        "info": info,
    }))


if __name__ == "__main__":
    main()
