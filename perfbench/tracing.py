"""Traced runs: spans and per-layer counters, recorded from outside realforms.

``install`` replaces the public functions of each realforms module, and the
arithmetic methods of its scalar, polynomial and ideal classes, with wrappers
that time each call.  Names that other modules imported (``certified_unit``
in ``intersection``, ``enumerate_negative_classes`` in ``classification``,
the re-exports of the package) are replaced too, so every call path is seen.

Every wrapped call keeps a frame on one stack.  A frame's self time is its
duration minus the durations of the wrapped calls made inside it; a layer's
self time is the sum over the frames of its module.  Calls of the coarse
functions also become spans (name, start, end, parent, operation), kept in
memory and written out when the run ends.  The scalar and polynomial
operations number in the millions, so they are counted and timed in
aggregate per operation kind and make no spans.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter_ns

# Modules whose public functions become spans.
SPAN_MODULES = ("groebner", "surfaces", "intersection", "classification",
                "modification", "checks", "cli")
# Methods wrapped in aggregate (no spans).
AGGREGATE_METHODS = {
    ("gaussian", "GaussianRational"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
        "conjugate", "norm",
    ),
    ("ring", "Poly"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__pow__", "conjugate", "specialize", "derivative",
    ),
    ("ring", "RatFunc"): (
        "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
        "inverse", "conjugate", "__eq__", "as_poly",
    ),
    ("ring", "RingMap"): ("__call__", "is_identity"),
}
# Methods that become spans.
SPAN_METHODS = {
    ("groebner", "Ideal"): ("groebner", "normal_form", "member",
                            "contains_ideal", "equal", "eliminate"),
    ("reports", "SuiteReport"): ("to_json",),
}
RENDER_KEYS = ("cli._dump", "reports.SuiteReport.to_json")

CHECK_IDS = ("def-3.1", "rem-3.2", "rem-3.3", "lem-3.5", "prop-4.1",
             "prop-4.2", "prop-5.1", "lem-6.1", "lem-6.2", "prop-6.3",
             "sec-2-cocycle", "def-3.4-rees", "def-3.4-fiber")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("gaussian.ops", "count"),
    ("gaussian.self_s", "s"),
    ("ring.poly_mul.calls", "count"),
    ("ring.poly_mul.self_s", "s"),
    ("ring.ringmap.calls", "count"),
    ("ring.ringmap.self_s", "s"),
    ("ring.ratfunc.self_s", "s"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.lex.self_s", "s"),
    ("groebner.buchberger.elim.self_s", "s"),
    ("groebner.basis_len_max", "count"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.self_s", "s"),
    ("groebner.member.calls", "count"),
    ("groebner.member.fastpath_ratio", "ratio"),
    ("groebner.basis_cache_hit_ratio", "ratio"),
    ("groebner.exact_quotient.calls", "count"),
    ("surfaces.make_surface.calls", "count"),
    ("surfaces.modified_plane_config.calls", "count"),
    ("surfaces.self_s", "s"),
    ("intersection.enumerate.calls", "count"),
    ("intersection.enumerate.self_s", "s"),
    ("intersection.candidates_scanned", "count"),
    ("intersection.survivor_ratio", "ratio"),
    ("classification.incidence_graph.calls", "count"),
    ("classification.incidence_graph.self_s", "s"),
    ("classification.matchings.calls", "count"),
    ("classification.matchings.self_s", "s"),
    ("classification.witness_solves", "count"),
    ("classification.witness_yield", "ratio"),
    ("modification.self_s", "s"),
) + tuple((f"checks.{c}.ms", "ms") for c in CHECK_IDS) + (
    ("cli.render_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
)


class Tracer:
    """Frame stack, per-name totals and spans of one traced run."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.stack: list[list[int]] = []  # open frames: [child_ns, span index]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op)
        self.counts = {"basis_len_max": 0, "candidates_scanned": 0,
                       "survivors": 0, "witnesses": 0, "member_fast": 0,
                       "basis_hits": 0}

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0,))[0]

    def wrap(self, key, fn, span=True, before=None, after=None):
        """Wrap fn; key is a name or a function of (args, kwargs) giving one.

        before(args, kwargs) runs ahead of the call and its result is passed
        to after(args, kwargs, result, token) once the call returns.
        """
        stats, stack, spans = self.stats, self.stack, self.spans
        namer = key if callable(key) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = namer(args, kwargs) if namer else key
            token = before(args, kwargs) if before else None
            parent = stack[-1][1] if stack else -1
            index = parent
            if span:
                index = len(spans)
                spans.append(None)
            frame = [0, index]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span:
                    spans[index] = (name, start, end, parent, self.op)
            if after:
                after(args, kwargs, result, token)
            return result

        return wrapper

    # -- metrics -----------------------------------------------------------

    def _self_s(self, *keys: str) -> float:
        return sum(self.stats.get(k, (0, 0, 0))[2] for k in keys) / 1e9

    def _layer_self_s(self, layer: str) -> float:
        return sum(v[2] for k, v in self.stats.items()
                   if k.startswith(layer + ".")) / 1e9

    def per_layer(self, wall_s: float) -> dict:
        """Every PER_LAYER metric from what the run recorded."""
        calls, self_s = self.calls, self._self_s
        c = self.counts
        gaussian_ops = sum(v[0] for k, v in self.stats.items()
                           if k.startswith("gaussian."))
        buchberger = calls("groebner.buchberger[lex]") + calls("groebner.buchberger[elim]")
        members = calls("groebner.Ideal.member")
        lookups = calls("groebner.Ideal.groebner")
        scanned = c["candidates_scanned"]
        solves = calls("classification.solve_linear_witness")
        ratfunc = [k for k in self.stats if k.startswith("ring.RatFunc.")]
        values = {
            "gaussian.ops": gaussian_ops,
            "gaussian.self_s": self._layer_self_s("gaussian"),
            "ring.poly_mul.calls": calls("ring.Poly.__mul__") + calls("ring.Poly.__rmul__"),
            "ring.poly_mul.self_s": self_s("ring.Poly.__mul__", "ring.Poly.__rmul__"),
            "ring.ringmap.calls": calls("ring.RingMap.__call__"),
            "ring.ringmap.self_s": self_s("ring.RingMap.__call__"),
            "ring.ratfunc.self_s": self_s(*ratfunc),
            "groebner.buchberger.calls": buchberger,
            "groebner.buchberger.lex.self_s": self_s("groebner.buchberger[lex]"),
            "groebner.buchberger.elim.self_s": self_s("groebner.buchberger[elim]"),
            "groebner.basis_len_max": c["basis_len_max"],
            "groebner.normal_form.calls": calls("groebner.normal_form"),
            "groebner.normal_form.self_s": self_s("groebner.normal_form"),
            "groebner.member.calls": members,
            "groebner.member.fastpath_ratio": c["member_fast"] / members if members else 0.0,
            "groebner.basis_cache_hit_ratio": c["basis_hits"] / lookups if lookups else 0.0,
            "groebner.exact_quotient.calls": calls("groebner.exact_quotient"),
            "surfaces.make_surface.calls": calls("surfaces.make_surface"),
            "surfaces.modified_plane_config.calls": calls("surfaces.modified_plane_config"),
            "surfaces.self_s": self._layer_self_s("surfaces"),
            "intersection.enumerate.calls": calls("intersection.enumerate_negative_classes"),
            "intersection.enumerate.self_s": self_s("intersection.enumerate_negative_classes"),
            "intersection.candidates_scanned": scanned,
            "intersection.survivor_ratio": c["survivors"] / scanned if scanned else 0.0,
            "classification.incidence_graph.calls": calls("classification.incidence_graph"),
            "classification.incidence_graph.self_s": self_s("classification.incidence_graph"),
            "classification.matchings.calls": calls("classification.admissible_matchings"),
            "classification.matchings.self_s": self_s("classification.admissible_matchings"),
            "classification.witness_solves": solves,
            "classification.witness_yield": c["witnesses"] / solves if solves else 0.0,
            "modification.self_s": self._layer_self_s("modification"),
            "cli.render_s": sum(self.stats.get(k, (0, 0))[1] for k in RENDER_KEYS) / 1e9,
            "trace.wall_s": wall_s,
            "trace.spans": len(self.spans),
        }
        for check_id in CHECK_IDS:
            entry = self.stats.get(f"checks.run_check[{check_id}]")
            values[f"checks.{check_id}.ms"] = entry[1] / entry[0] / 1e6 if entry else 0.0
        return values

    def write(self, path) -> None:
        """Spans as a name table and rows [name, start_us, end_us, parent, op]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0
        rows = [
            [index[n], (start - origin) // 1000, (end - origin) // 1000, parent, op]
            for n, start, end, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "columns": ["name", "start_us", "end_us",
                                                   "parent", "op"],
                       "spans": rows}, handle, separators=(",", ":"))


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


def _hooks(tracer: Tracer, checks) -> dict:
    """Extra counts read from arguments and results at layer boundaries."""
    c = tracer.counts

    def basis_len(args, kwargs, result, token):
        c["basis_len_max"] = max(c["basis_len_max"], len(result))

    def enumerated(args, kwargs, result, token):
        c["candidates_scanned"] += result.candidates_scanned
        realized = sum(1 for r in result.records if r.kind != "exceptional")
        c["survivors"] += realized + len(result.unrealized) + len(result.undetermined)

    def classified(args, kwargs, result, token):
        c["witnesses"] += len(result.witnesses)

    def groebner_calls(args, kwargs):
        return tracer.calls("groebner.Ideal.groebner")

    def member_done(args, kwargs, result, token):
        if tracer.calls("groebner.Ideal.groebner") == token:
            c["member_fast"] += 1

    def buchberger_calls(args, kwargs):
        return tracer.calls("groebner.buchberger[lex]") + tracer.calls("groebner.buchberger[elim]")

    def basis_done(args, kwargs, result, token):
        if buchberger_calls(args, kwargs) == token:
            c["basis_hits"] += 1

    def order_kind(args, kwargs):
        order = args[1] if len(args) > 1 else kwargs.get("order")
        return f"groebner.buchberger[{getattr(order, 'kind', 'lex')}]"

    def check_key(args, kwargs):
        return f"checks.run_check[{checks.resolve_check_id(args[0])}]"

    return {
        "groebner.buchberger": {"key": order_kind, "after": basis_len},
        "intersection.enumerate_negative_classes": {"after": enumerated},
        "classification.classify": {"after": classified},
        "groebner.Ideal.member": {"before": groebner_calls, "after": member_done},
        "groebner.Ideal.groebner": {"before": buchberger_calls, "after": basis_done},
        "checks.run_check": {"key": check_key},
    }


def install(tracer: Tracer) -> None:
    """Wrap realforms in place; import it first."""
    modules = {name: sys.modules[f"realforms.{name}"]
               for name in SPAN_MODULES + ("gaussian", "ring", "reports")}
    hooks = _hooks(tracer, modules["checks"])
    replaced = {}  # id(original) -> wrapper

    for mod_name in SPAN_MODULES + ("ring",):
        module = modules[mod_name]
        span = mod_name in SPAN_MODULES
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != module.__name__):
                continue
            name = f"{mod_name}.{attr}"
            extra = hooks.get(name, {})
            wrapper = tracer.wrap(extra.get("key", name), value, span=span,
                                  before=extra.get("before"), after=extra.get("after"))
            replaced[id(value)] = wrapper
    dump = modules["cli"]._dump
    replaced[id(dump)] = tracer.wrap("cli._dump", dump)

    for table, span in ((AGGREGATE_METHODS, False), (SPAN_METHODS, True)):
        for (mod_name, cls_name), methods in table.items():
            cls = getattr(modules[mod_name], cls_name)
            for method in methods:
                name = f"{mod_name}.{cls_name}.{method}"
                extra = hooks.get(name, {})
                setattr(cls, method, tracer.wrap(
                    extra.get("key", name), vars(cls)[method], span=span,
                    before=extra.get("before"), after=extra.get("after")))

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "realforms" and not mod_name.startswith("realforms."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)
