"""One sha256 per library method over a fixed set of games, to show that a
change leaves every output as it was.

    PYTHONPATH=src python tests/sameness_report.py

The games are kt1..kt6 and 1,200 seeded draws of m x n games with m and n
in 1..5. Of the draws, 70% are rank-1, with B = b c^T - A; the others draw
B on its own. Each draw takes its payoffs from +-6, +-27 or +-297, and 30%
of the entries of A, B, b and c are fractional. For every game the script
calls ``enumerate_all``, ``equilibria_by_labels``, ``reachability``,
``gprime_components``, ``check_nondegenerate`` and ``lh_run`` for every
label r, and hashes the repr of each result, or the type and message of
the exception it raises. On kt1..kt6 and the first 450 draws it also
calls ``support_enumeration``, plain and strict. It prints one line per
method: its name, the sha256 and the number of calls, then the number of
games. Run it with another checkout's ``src`` on PYTHONPATH and compare
the lines: equal hashes mean equal outputs. Pytest does not collect this file.
``tests/golden/sameness.txt`` holds its output with the ``fractions``
backend, and CI diffs a fresh run against it there; gmpy2's ``mpq`` prints
unlike ``Fraction``, so the hashes differ with that backend.

A second series, whose lines start with ``wide``, hashes every method,
the oracle's scans included, on 60 rank-1 draws of m x n games with m
and n in 2..5, each payoff, b_i and c_j a numerator in +-10**6 over a
denominator in 1..1,000: the distribution of the benchmark's
rank1-bigrat workload, where each row of a payoff matrix has its own
least denominator.

A third series, whose lines start with ``sym``, hashes every method on 200
symmetric draws, B = A^T, of m x m games with m in 1..5, the oracle's scans
on the first 100. Each draw takes its payoffs from +-2, +-6 or +-27, with
30% of the entries fractional. Half the draws have kt's form, A = b b^T + K
with K antisymmetric, so that A + B = 2 b b^T has rank at most 1; the
others draw A on its own. A symmetric game's two best-reply polytopes are
one polytope with its labels renamed, and the package walks it once and
relabels it for Q: this series covers that path, degenerate draws included.
"""

from __future__ import annotations

import argparse
import hashlib
import random

import rank1nash
from rank1nash import BimatrixGame, generate_kt, rat

METHODS = (
    "enumerate_all",
    "equilibria_by_labels",
    "reachability",
    "gprime_components",
    "check_nondegenerate",
)
# the oracle's scans, plain and strict, on kt1..kt6 and the first 450 draws
ORACLE = {
    "support_enumeration": (),
    "support_enumeration strict": (True,),
}
ORACLE_GAMES = 456
WIDE_GAMES = 60
SYM_GAMES = 200
SYM_ORACLE_GAMES = 100


def draw(rng: random.Random) -> BimatrixGame:
    """One random game, as the module docstring describes."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    bound = rng.choice((6, 27, 297))

    def entry():
        v = rng.randint(-bound, bound)
        return rat(v, rng.randint(2, 9)) if rng.random() < 0.3 else rat(v)

    a = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.7:
        b = [entry() for _ in range(m)]
        c = [entry() for _ in range(n)]
        bm = [[b[i] * c[j] - a[i][j] for j in range(n)] for i in range(m)]
    else:
        bm = [[entry() for _ in range(n)] for _ in range(m)]
    return BimatrixGame.from_payoffs(a, bm)


def wide_draw(rng: random.Random) -> BimatrixGame:
    """One rank-1 game of the wide-denominator series."""
    m, n = rng.randint(2, 5), rng.randint(2, 5)

    def entry():
        return rat(rng.randint(-(10**6), 10**6), rng.randint(1, 10**3))

    a = [[entry() for _ in range(n)] for _ in range(m)]
    b = [entry() for _ in range(m)]
    c = [entry() for _ in range(n)]
    return BimatrixGame.from_payoffs(
        a, [[b[i] * c[j] - a[i][j] for j in range(n)] for i in range(m)]
    )


def sym_draw(rng: random.Random) -> BimatrixGame:
    """One symmetric game, B = A^T, of the ``sym`` series."""
    m = rng.randint(1, 5)
    bound = rng.choice((2, 6, 27))

    def entry():
        v = rng.randint(-bound, bound)
        return rat(v, rng.randint(2, 9)) if rng.random() < 0.3 else rat(v)

    if rng.random() < 0.5:
        # kt's form: A = b b^T + K with K antisymmetric, so A + B = 2 b b^T
        b = [entry() for _ in range(m)]
        k = [[rat(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                k[i][j] = entry()
                k[j][i] = -k[i][j]
        a = [[b[i] * b[j] + k[i][j] for j in range(m)] for i in range(m)]
    else:
        a = [[entry() for _ in range(m)] for _ in range(m)]
    return BimatrixGame.from_payoffs(a, [list(col) for col in zip(*a)])


def games(seed: int, count: int):
    for d in range(1, 7):
        yield generate_kt(d)
    rng = random.Random(seed)
    for _ in range(count):
        yield draw(rng)


def outcome(fn, *args) -> bytes:
    """The repr of fn(*args), or the type and message of what it raised."""
    try:
        got = repr(fn(*args))
    except Exception as exc:  # every outcome is hashed, errors included
        got = f"{type(exc).__name__}: {exc}"
    return got.encode() + b"\n"


def report(prefix: str, series, oracle_games: int) -> None:
    """Print the hash lines of a series of games, each line led by prefix;
    the oracle runs on its first ``oracle_games`` games."""
    hashes = {name: hashlib.sha256() for name in (*METHODS, "lh_run", *ORACLE)}
    calls = dict.fromkeys(hashes, 0)
    total = 0
    for g in series:
        total += 1
        for name in METHODS:
            hashes[name].update(outcome(getattr(rank1nash, name), g))
            calls[name] += 1
        for r in range(1, g.m + g.n + 1):
            hashes["lh_run"].update(outcome(rank1nash.lh_run, g, r))
            calls["lh_run"] += 1
        if total <= oracle_games:
            for name, strict in ORACLE.items():
                hashes[name].update(outcome(rank1nash.support_enumeration, g, *strict))
                calls[name] += 1
    for name, h in hashes.items():
        print(f"{prefix}{name} {h.hexdigest()} {calls[name]}")
    print(f"{prefix}games {total}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=1200)
    args = ap.parse_args()
    report("", games(args.seed, args.count), ORACLE_GAMES)
    rng = random.Random(f"wide {args.seed}")
    report("wide ", (wide_draw(rng) for _ in range(WIDE_GAMES)), WIDE_GAMES)
    rng = random.Random(f"sym {args.seed}")
    report("sym ", (sym_draw(rng) for _ in range(SYM_GAMES)), SYM_ORACLE_GAMES)


if __name__ == "__main__":
    main()
