"""Rebuild bench/reference/*.json: the base games and their reference answers.

    python3 bench/make_reference.py [workload ...]

For every base game this records the degeneracy verdict of
``check_nondegenerate`` and, for non-degenerate games, the equilibrium set
of the independent support-enumeration oracle. Before writing, it requires
the sweep and the label method to agree with the oracle, and kt-ladder's
game kt_d to have 2d-1 equilibria. The files are committed: they freeze the
answers of the code they were built with, so rebuild them only when a
workload's games change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import REFERENCE_DIR, WORKLOADS, base_payoffs, format_payoffs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from rank1nash import (  # noqa: E402
    DegenerateGame,
    check_nondegenerate,
    enumerate_all,
    equilibria_by_labels,
    parse_game,
    support_enumeration,
)


def _keys(eqs):
    return sorted(
        ([str(v) for v in e.strategies.x], [str(v) for v in e.strategies.y])
        for e in eqs
    )


def build(name: str) -> dict:
    games = []
    for k, (a, b) in enumerate(base_payoffs(name)):
        text = format_payoffs(a, b)
        g = parse_game(text)
        ok, _ = check_nondegenerate(g)
        eqs = None
        if ok:
            eqs = _keys(support_enumeration(g).equilibria)
            if _keys(enumerate_all(g).equilibria) != eqs:
                raise SystemExit(f"{name} game {k}: sweep disagrees with oracle")
            if _keys(equilibria_by_labels(g)) != eqs:
                raise SystemExit(f"{name} game {k}: labels disagree with oracle")
        else:
            try:
                enumerate_all(g)
            except DegenerateGame:
                pass
            else:
                raise SystemExit(f"{name} game {k}: sweep accepted a degenerate game")
        if name == "kt-ladder" and len(eqs) != 2 * len(a) - 1:
            raise SystemExit(f"kt{len(a)} has {len(eqs)} equilibria, not {2 * len(a) - 1}")
        games.append({"text": text, "degenerate": not ok, "equilibria": eqs})
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    ).stdout.strip()
    return {
        "workload": name,
        "master_seed": WORKLOADS[name]["master_seed"],
        "frozen_at": commit or "unknown",
        "games": games,
    }


def main(names) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names or WORKLOADS:
        ref = build(name)
        path = os.path.join(REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        degenerate = sum(g["degenerate"] for g in ref["games"])
        print(f"{name}: {len(ref['games'])} games, {degenerate} degenerate -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
