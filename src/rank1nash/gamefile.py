"""Plain-text game format: header "m n", then m rows of A, then m rows of B.

m and n are positive integers and entries are integers or fractions like
``-3/4``, all in ASCII digits; ``#`` starts a comment.
"""

from __future__ import annotations

import re

from .errors import GameFileError
from .games import BimatrixGame
from .linalg import Rational, rat

# The one spelling of an entry, in ASCII digits: the rational constructors
# would also take other Unicode digits, underscores, decimals and exponents.
ENTRY = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_entry(token: str) -> Rational:
    """The rational an entry spells; ValueError unless it matches ENTRY,
    ZeroDivisionError on a zero denominator."""
    match = ENTRY.fullmatch(token)
    if match is None:
        raise ValueError(f"not an integer or fraction: {token!r}")
    num, den = match.groups()
    return rat(int(num)) if den is None else rat(int(num), int(den))


def parse_game(text: str) -> BimatrixGame:
    """The game a game file's text spells; GameFileError on any other text.

    An entry may have any number of digits, but Python 3.10.7 and later
    refuse to convert a string of more than ``sys.get_int_max_str_digits()``
    digits (4,300 by default) to an int, so a longer entry is a bad entry
    unless the caller lifts that limit, as ``rank1nash.cli.main`` does while
    it runs.
    """
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if not lines:
        raise GameFileError("empty game file")
    head = lines[0].split()
    if len(head) != 2:
        raise GameFileError(f"header must be 'm n', got {lines[0]!r}")
    if not all(h.isascii() and h.isdigit() for h in head):
        raise GameFileError(f"bad header {lines[0]!r}")
    m, n = int(head[0]), int(head[1])
    if m < 1 or n < 1:
        raise GameFileError("m and n must be positive")
    if len(lines) != 1 + 2 * m:
        raise GameFileError(
            f"expected {2 * m} payoff rows after the header, got {len(lines) - 1}"
        )

    def parse_row(line: str, label: str):
        parts = line.split()
        if len(parts) != n:
            raise GameFileError(f"{label}: expected {n} entries, got {len(parts)}")
        row = []
        for p in parts:
            try:
                row.append(parse_entry(p))
            except (ValueError, ZeroDivisionError) as exc:
                raise GameFileError(f"{label}: bad entry {p!r}") from exc
        return tuple(row)

    a = tuple(parse_row(lines[1 + i], f"A row {i + 1}") for i in range(m))
    b = tuple(parse_row(lines[1 + m + i], f"B row {i + 1}") for i in range(m))
    return BimatrixGame(m, n, a, b)


def load_game(path: str) -> BimatrixGame:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from exc
    return parse_game(text)


def format_game(g: BimatrixGame, comment: str | None = None) -> str:
    """The game file of g, with ``comment`` as its leading ``#`` lines.

    Writing an integer of more than ``sys.get_int_max_str_digits()`` digits
    (4,300 by default from Python 3.10.7) raises ValueError unless the
    caller lifts that limit, as ``rank1nash.cli.main`` does while it runs.
    """
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    out.append(f"{g.m} {g.n}")
    for row in g.A:
        out.append(" ".join(str(v) for v in row))
    for row in g.B:
        out.append(" ".join(str(v) for v in row))
    return "\n".join(out) + "\n"
