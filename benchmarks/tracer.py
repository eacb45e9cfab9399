"""Spans and counters around the public functions of every alg2d layer.

Nothing in ``src/`` is touched: ``install()`` replaces each listed function
by a timing wrapper in every ``alg2d`` module namespace (and module-level
dict) that bound it, including names bound through ``from .x import y``,
and wraps a few methods (``Fel.__init__``, ``Field.__init__``,
``Field.elements``, ``Poly.__call__``) and ``algebra.mul`` with plain
counters.  Spans are kept in memory as (name, start_ns, end_ns, parent,
op) and written out by ``write_spans``; a span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import gc
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

# layer module -> public functions that get a span
SPANNED = {
    "fields": ("embed",),
    "poly": (
        "roots_in_field",
        "splitting_field",
        "sqrt_in_ext",
        "distinct_root_count",
        "joint_quadratic_splitting",
    ),
    "solvers": (
        "subalgebras",
        "left_ideals",
        "right_ideals",
        "two_sided_ideals",
        "idempotents",
        "left_quasiunits",
        "is_simple",
        "simple_by_cases_extended",
        "line_count_closed",
        "ideal_splitting",
        "subalgebra_splitting",
        "subalgebra_count_closed",
    ),
    "algebra": ("oracle_enumerate", "oracle_points"),
    "report": ("analyze",),
    "sweep": ("verify_point", "adjudicate_flag", "_oracle_check"),
    "tables": ("predict_count", "predict_quasiunits"),
    "families": ("instantiate",),
}
# prefix of the stderr line on which a traced CLI child reports
TRACE_MARK = "#alg2d-trace "

MODULES = ("fields", "poly", "algebra", "solvers", "families", "tables", "sweep", "report", "cli")

# a solve is a line-count computation started directly by the sweep layer;
# one op needs each (point, quantity) solved once
SWEEP_SPANS = ("sweep.verify_point", "sweep.adjudicate_flag", "sweep._oracle_check")
SOLVE_QUANTITY = {
    "solvers.subalgebras": "subalgebras",
    "solvers.left_ideals": "left",
    "solvers.right_ideals": "right",
    "solvers.two_sided_ideals": "two_sided",
}


class Tracer:
    """In-memory spans and counters; ``active`` is off outside the ops."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self.op = -1
        self.point = None
        self.solves: list = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn):
        tracer = self
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        analyze = name == "report.analyze"
        instantiate = name == "families.instantiate"
        solve_quantity = SOLVE_QUANTITY.get(name)
        count_solve = solve_quantity is not None or name == "solvers.line_count_closed"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name
            if analyze:
                bound = dict(zip(("A", "closed", "oracle"), args), **kwargs)
                mode = "oracle" if bound.get("oracle") else "closed" if bound.get("closed") else "plain"
                label = f"report.analyze.{mode}"
            elif instantiate:
                fam, params, F = args
                tracer.point = (fam.name(), tuple(c.text() for c in params), F.text())
            parent = stack[-1] if stack else -1
            if count_solve and parent >= 0 and spans[parent][0] in SWEEP_SPANS:
                quantity = solve_quantity or (args[1] if len(args) > 1 else kwargs["which"])
                tracer.solves.append((tracer.op, tracer.point, quantity))
            idx = len(spans)
            spans.append([label, 0, 0, parent, tracer.op])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec = spans[idx]
                rec[1], rec[2] = start, end

        return wrapper

    def counter(self, name: str, fn, weight=None):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += weight(args[0]) if weight else 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        mods = [importlib.import_module(f"alg2d.{m}") for m in MODULES]
        namespaces = [sys.modules["alg2d"], *mods]
        for layer, names in SPANNED.items():
            mod = sys.modules[f"alg2d.{layer}"]
            for fname in names:
                orig = getattr(mod, fname)
                _rebind(namespaces, orig, self.span(f"{layer}.{fname}", orig))
        algebra = sys.modules["alg2d.algebra"]
        _rebind(namespaces, algebra.mul, self.counter("algebra.mul.calls", algebra.mul))
        fields = sys.modules["alg2d.fields"]
        poly = sys.modules["alg2d.poly"]
        fields.Fel.__init__ = self.counter("fields.Fel.created", fields.Fel.__init__)
        fields.Field.__init__ = self.counter("fields.Field.built", fields.Field.__init__)
        fields.Field.elements = self.counter(
            "fields.elements.scanned", fields.Field.elements, weight=lambda F: F.order
        )
        poly.Poly.__call__ = self.counter("poly.Poly.evals", poly.Poly.__call__)

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: call count and total self time in seconds."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        recheck = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "sweep._oracle_check"
            or (name == "algebra.oracle_points" and parent >= 0
                and self.spans[parent][0] == "sweep.verify_point")
        )
        return {
            "calls": dict(calls),
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "counts": dict(self.counts),
            "solves": len(self.solves),
            "solved_points": len(set(self.solves)),
            "oracle_rechecks": recheck,
        }

    def write_spans(self, path):
        """All spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _rebind(namespaces, orig, wrapper):
    """Point every binding of orig, in module globals and module-level dicts, at wrapper."""
    for ns in namespaces:
        for attr, val in list(vars(ns).items()):
            if val is orig:
                setattr(ns, attr, wrapper)
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if item is orig:
                        val[key] = wrapper


def cache_entries() -> int:
    """Memo-cache entries alive now: _SQRT_CACHE, the GF cache, per-field caches."""
    fields = sys.modules["alg2d.fields"]
    poly = sys.modules["alg2d.poly"]
    total = len(poly._SQRT_CACHE) + fields.GF.cache_info().currsize
    for obj in gc.get_objects():
        if isinstance(obj, fields.Field):
            total += len(obj._inv_cache)
            total += len(obj._mul_cache or ())
            total += len(obj._elements or ())
    return total


def merge(into: dict, part: dict) -> None:
    """Add one aggregate (e.g. from a CLI child process) into another."""
    for key in ("calls", "self_s", "counts"):
        dst = into.setdefault(key, {})
        for k, v in part.get(key, {}).items():
            dst[k] = dst.get(k, 0) + v
    for key in ("solves", "solved_points", "oracle_rechecks"):
        into[key] = into.get(key, 0) + part.get(key, 0)
