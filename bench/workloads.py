"""Workload definitions shared by run.py and make_reference.py.

Each workload is a fixed list of base games drawn once from a master seed by
the generator the workload names. ``bench/reference/<workload>.json`` freezes
the base games together with their reference answers. The per-run ``--seed``
turns the base games into the run's inputs (see ``run_inputs``). This module
uses only the standard library, so run.py never imports the package it
measures.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

ALL_METHODS = ("check", "enumerate", "labels", "oracle", "lh_all", "gprime")

# Methods that do not reject degenerate input at the commit that froze the
# reference (ROADMAP item 4): on a degenerate game they raise AssertionError
# or answer anyway. Those outcomes still count as failed operations; this
# set only keeps them from marking the run incorrect.
KNOWN_DEGENERATE_DEFECTS = frozenset({"lh_all", "gprime"})

WORKLOADS = {
    "kt-ladder": {
        "why": "generate_kt(d) for d = 4, 5, 6: large structured polyhedra with "
        "small integers, so vertex enumeration dominates every method",
        "master_seed": None,
        "permute": False,
    },
    "rank1-batch": {
        "why": "150 small random rank-1 games, 2..4 strategies a side, about a "
        "quarter degenerate: per-call overhead and the sweep loop dominate",
        "master_seed": 20261017,
        "permute": True,
    },
    "rank1-bigrat": {
        "why": "6 random 5x5 rank-1 games with fractional payoffs: exact "
        "rational arithmetic on wide integers dominates",
        "master_seed": 20261018,
        "permute": True,
    },
}


def kt_payoffs(d: int):
    """The quadratic-form family: a_ij = 2ij - i^2 + j^2, b_ij = 2ij + i^2 - j^2."""
    r = range(1, d + 1)
    a = [[2 * i * j - i * i + j * j for j in r] for i in r]
    b = [[2 * i * j + i * i - j * j for j in r] for i in r]
    return a, b


def rank1_payoffs(rng: random.Random, m: int, n: int, draw):
    """A from ``draw``, B = b c^T - A with b and c from ``draw``: rank(A+B) <= 1."""
    a = [[draw() for _ in range(n)] for _ in range(m)]
    b = [draw() for _ in range(m)]
    c = [draw() for _ in range(n)]
    return a, [[b[i] * c[j] - a[i][j] for j in range(n)] for i in range(m)]


def base_payoffs(name: str):
    """The workload's base games as (A, B) pairs, drawn from its master seed."""
    if name == "kt-ladder":
        return [kt_payoffs(d) for d in (4, 5, 6)]
    rng = random.Random(WORKLOADS[name]["master_seed"])
    if name == "rank1-batch":
        def draw():
            return rng.randint(-9, 9)

        out = []
        for _ in range(150):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            out.append(rank1_payoffs(rng, m, n, draw))
        return out
    if name == "rank1-bigrat":
        def draw():
            return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**3))

        return [rank1_payoffs(rng, 5, 5, draw) for _ in range(6)]
    raise KeyError(name)


def format_payoffs(a, b) -> str:
    """Game-file text: header "m n", the rows of A, then the rows of B."""
    lines = [f"{len(a)} {len(a[0])}"]
    lines += [" ".join(str(v) for v in row) for row in a]
    lines += [" ".join(str(v) for v in row) for row in b]
    return "\n".join(lines) + "\n"


def parse_payoffs(text: str):
    rows = [line.split() for line in text.splitlines() if line.strip()]
    m = int(rows[0][0])
    a = [[Fraction(v) for v in row] for row in rows[1 : 1 + m]]
    b = [[Fraction(v) for v in row] for row in rows[1 + m :]]
    return a, b


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_inputs(name: str, seed: int, reference: dict):
    """The run's games and reference answers, and the order of the calls.

    The seed shuffles the order in which a pass visits the games. On the
    random workloads it also relabels each game's rows and columns with a
    random permutation, so every seed hands the program different matrices
    from the same distribution, at the same cost, with answers that map
    exactly. kt-ladder keeps its games as generated, so its exact counts
    stay comparable with the ROADMAP baseline.
    """
    rng = random.Random(f"{name}:{seed}")
    games = []
    for entry in reference["games"]:
        a, b = parse_payoffs(entry["text"])
        m, n = len(a), len(a[0])
        p, q = list(range(m)), list(range(n))
        if WORKLOADS[name]["permute"]:
            rng.shuffle(p)
            rng.shuffle(q)
        a = [[a[p[i]][q[j]] for j in range(n)] for i in range(m)]
        b = [[b[p[i]][q[j]] for j in range(n)] for i in range(m)]
        eqs = entry["equilibria"]
        if eqs is not None:
            eqs = [[[x[p[i]] for i in range(m)], [y[q[j]] for j in range(n)]]
                   for x, y in eqs]
        games.append(
            {
                "text": format_payoffs(a, b),
                "degenerate": entry["degenerate"],
                "equilibria": eqs,
            }
        )
    order = list(range(len(games)))
    rng.shuffle(order)
    return games, order
