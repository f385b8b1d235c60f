"""Spans around the package's public functions, and the per-layer metrics.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper in
every module namespace that binds it, so calls made through any import path
are recorded. A span is ``[name, start, end, parent, value]``: ``parent`` is
the index of the enclosing span (-1 at the top) and ``value`` is what the
function's hook read off its result, such as the number of vertices found.
Spans stay in memory until the metrics are computed.
"""

from __future__ import annotations

import functools
import math
import time


def _bits(result, args, computed):
    # largest numerator or denominator bit length in a solve_square output
    return max(
        (
            max(int(v.numerator).bit_length(), int(v.denominator).bit_length())
            for v in result.const + result.slope
        ),
        default=0,
    )


def _size_if_computed(result, args, computed):
    # a cache hit did no enumeration, so it finds no vertices
    return len(result) if computed else 0


def _edges_if_computed(result, args, computed):
    return sum(len(graph.edges) for graph in result) if computed else 0


def _sweep_sizes(result, args, computed):
    return len(result.intervals), len(result.breakpoints)


def _path_steps(result, args, computed):
    return len(result.steps)


def _supports(result, args, computed):
    # candidate support pairs of the default (equal-size) scan, computed
    # from the game's shape rather than counted inside the oracle
    m, n = args[0].m, args[0].n
    return sum(math.comb(m, k) * math.comb(n, k) for k in range(1, min(m, n) + 1))


# (module, function, hook): the public functions spanned in a traced run
TRACED = (
    ("linalg", "solve_square", _bits),
    ("linalg", "matrix_rank", None),
    ("polytopes", "enumerate_vertices", _size_if_computed),
    ("polytopes", "check_nondegenerate", None),
    ("polytopes", "equilibria_by_labels", None),
    ("parametric", "build_tableau", None),
    ("parametric", "initial_basis", None),
    ("parametric", "basis_interval", None),
    ("parametric", "advance", None),
    ("parametric", "enumerate_all", _sweep_sizes),
    ("lemke_howson", "build_lh_graphs", _edges_if_computed),
    ("lemke_howson", "lh_run", _path_steps),
    ("lemke_howson", "reachability", None),
    ("lemke_howson", "gprime_components", None),
    ("oracle", "support_enumeration", _supports),
    ("games", "is_nash", None),
    ("games", "factor_rank1", None),
    ("games", "classify_special", None),
    ("gamefile", "parse_game", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def install(self, package, modules) -> list[str]:
        """Wrap every TRACED function; return the names that were missing."""
        missing = []
        for mod_name, fn_name, hook in TRACED:
            original = getattr(getattr(package, mod_name, None), fn_name, None)
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original, hook)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapped)
        return missing

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, self._clock
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            misses = cache_info().misses if cache_info else 0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                computed = cache_info is None or cache_info().misses > misses
                span[4] = hook(result, args, computed)
            return result

        return traced

    def clear(self) -> None:
        self.spans.clear()


def summarize(spans, base: int = 0) -> dict:
    """Per-function calls, inclusive and self seconds, hook values and nesting.

    ``spans`` may be a slice of the recorded list that starts at index
    ``base`` and holds whole calls, so that every parent index points into it.
    """
    n = len(spans)
    child = [0.0] * n
    under: list[frozenset] = [frozenset()] * n
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    nested: dict[tuple[str, str], int] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            parent -= base
            child[parent] += end - start
            under[i] = under[parent] | {spans[parent][0]}
        for outer in under[i]:
            nested[(outer, name)] = nested.get((outer, name), 0) + 1
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
    values: dict[str, list] = {}
    for name, _, _, _, value in spans:
        if value is not None:
            values.setdefault(name, []).append(value)
    return {"calls": calls, "s": total, "self_s": self_s, "nested": nested,
            "values": values}


def counts(spans, base: int = 0) -> dict:
    """The exact counts of one pass; two passes over the same inputs agree."""
    return _counts(summarize(spans, base))


def _counts(sm) -> dict:
    calls, nested, values = sm["calls"], sm["nested"], sm["values"]
    sweeps = values.get("parametric.enumerate_all", [])
    return {
        "linalg.solve_square.calls": calls.get("linalg.solve_square", 0),
        "linalg.max_bits": max(values.get("linalg.solve_square", []), default=0),
        "polytopes.enumerate_vertices.calls": calls.get("polytopes.enumerate_vertices", 0),
        "polytopes.solves": nested.get(("polytopes.enumerate_vertices", "linalg.solve_square"), 0),
        "polytopes.vertices": sum(values.get("polytopes.enumerate_vertices", [])),
        "parametric.initial_basis.solves": nested.get(("parametric.initial_basis", "linalg.solve_square"), 0),
        "parametric.basis_interval.calls": calls.get("parametric.basis_interval", 0),
        "parametric.intervals": sum(iv for iv, _ in sweeps),
        "parametric.breakpoints": sum(bp for _, bp in sweeps),
        "parametric.advance.basis_interval.calls": nested.get(("parametric.advance", "parametric.basis_interval"), 0),
        "lemke_howson.edges": sum(values.get("lemke_howson.build_lh_graphs", [])),
        "lemke_howson.lh_run.calls": calls.get("lemke_howson.lh_run", 0),
        "lemke_howson.path_steps": sum(values.get("lemke_howson.lh_run", [])),
        "oracle.supports": sum(values.get("oracle.support_enumeration", [])),
        "games.is_nash.calls": calls.get("games.is_nash", 0),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Every per-layer metric of one traced pass: counts, ratios and seconds."""
    sm = summarize(spans)
    s, self_s = sm["s"], sm["self_s"]
    c = _counts(sm)
    out = dict(c)
    out.pop("parametric.breakpoints")
    out.pop("parametric.advance.basis_interval.calls")
    out.update(
        {
            "linalg.solve_square.s": s.get("linalg.solve_square", 0.0),
            "linalg.us_per_solve": 1e6 * _ratio(
                s.get("linalg.solve_square", 0.0), c["linalg.solve_square.calls"]
            ),
            "linalg.matrix_rank.s": s.get("linalg.matrix_rank", 0.0),
            "polytopes.enumerate_vertices.self_s": self_s.get("polytopes.enumerate_vertices", 0.0),
            "polytopes.vertex_yield": _ratio(c["polytopes.vertices"], c["polytopes.solves"]),
            "polytopes.check_nondegenerate.s": s.get("polytopes.check_nondegenerate", 0.0),
            "parametric.initial_basis.s": s.get("parametric.initial_basis", 0.0),
            "parametric.basis_interval_per_interval": _ratio(
                c["parametric.basis_interval.calls"], c["parametric.intervals"]
            ),
            "parametric.advance.s": s.get("parametric.advance", 0.0),
            "parametric.pivots_per_breakpoint": _ratio(
                c["parametric.advance.basis_interval.calls"], c["parametric.breakpoints"]
            ),
            "parametric.sweep.self_s": self_s.get("parametric.enumerate_all", 0.0),
            "parametric.build_tableau.s": s.get("parametric.build_tableau", 0.0),
            "lemke_howson.build_lh_graphs.s": s.get("lemke_howson.build_lh_graphs", 0.0),
            "lemke_howson.gprime_components.self_s": self_s.get("lemke_howson.gprime_components", 0.0),
            "oracle.support_enumeration.s": s.get("oracle.support_enumeration", 0.0),
            "games.is_nash.s": s.get("games.is_nash", 0.0),
            "games.factor_rank1.s": s.get("games.factor_rank1", 0.0),
            "games.classify_special.s": s.get("games.classify_special", 0.0),
        }
    )
    return out
