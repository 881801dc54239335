"""Spans around flatcount's public functions, recorded from outside.

Tracer.install() replaces each target function, wherever a flatcount
module has it bound, by a wrapper that records a span: name, start, end,
parent span and the id of the job (request) it belongs to. Spans stay in
memory until the caller writes them out. Counters are kept at the same
boundaries. Nothing in flatcount is edited; a target the program no
longer has is listed in `missing` instead.

aggregate() turns a span list into per-layer numbers: inclusive time per
span name (a recursive call inside a span of the same name is not counted
twice), self time (duration minus the child spans), and call counts.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name). "Class.method" patches the class.
TARGETS = (
    ("flatcount.triangles", "stirling1_matrix", "triangles.stirling"),
    ("flatcount.triangles", "stirling2_matrix", "triangles.stirling"),
    ("flatcount.triangles", "mat_mul", "triangles.mat_mul"),
    ("flatcount.triangles", "mat_pow", "triangles.mat_pow"),
    ("flatcount.triangles", "lah_power_closed", "triangles.closed"),
    ("flatcount.triangles", "shi_triangle", "triangles.shi"),
    ("flatcount.triangles", "catalan_triangle", "triangles.catalan"),
    ("flatcount.species", "CountSeq.compose", "species.compose"),
    ("flatcount.species", "CountSeq.iterate", "species.iterate"),
    ("flatcount.species", "bell_transform", "species.bell_transform"),
    ("flatcount.dsl", "parse", "dsl.parse"),
    ("flatcount.dsl", "evaluate", "dsl.evaluate"),
    ("flatcount.oracle", "enumerate_flats_gain", "oracle.gain"),
    ("flatcount.oracle", "enumerate_connected_blocks", "oracle.blocks"),
    ("flatcount.oracle", "enumerate_flats_linear", "oracle.linear"),
    ("flatcount.bijections", "enumerate_catalan_structures", "bijections.enumerate"),
    ("flatcount.bijections", "enumerate_nested_lists", "bijections.enumerate"),
    ("flatcount.bijections", "catalan_structure_to_height", "bijections.to_height"),
    ("flatcount.bijections", "shi_structure_to_height", "bijections.to_height"),
    ("flatcount.bijections", "height_to_catalan_structure", "bijections.to_structure"),
    ("flatcount.bijections", "height_to_shi_structure", "bijections.to_structure"),
    ("flatcount.cli", "cmd_count", "cli.count"),
    ("flatcount.cli", "cmd_table", "cli.table"),
    ("flatcount.cli", "cmd_eval", "cli.eval"),
    ("flatcount.cli", "cmd_verify", "cli.verify"),
    ("flatcount.cli", "formula_triangle", "cli.formula_triangle"),
)

# Counters fed from a call's result, keyed by span name.
_RESULT_COUNTERS = {
    "oracle.blocks": ("oracle.blocks.found", len),
    "oracle.linear": ("oracle.linear.flats", lambda counts: sum(counts.values())),
    "bijections.to_structure": ("bijections.roundtrips", lambda _: 1),
}

# set_partitions as the oracle sees it: items yielded are counted, the
# generator itself gets no span.
PARTITIONS = ("flatcount.oracle", "set_partitions", "enumeration.partitions")

# A formula_triangle call that builds a triangle missed the disk cache.
_TRIANGLE_BUILDERS = ("triangles.shi", "triangles.catalan")

# Span names reported as per-layer times. Each gives `<name>.s` (inclusive)
# and `<name>.self_s`; the Stirling layer keeps the flat name
# `triangles.stirling_s` for its inclusive time.
TIMED = (
    "triangles.stirling",
    "triangles.mat_mul",
    "triangles.mat_pow",
    "triangles.closed",
    "species.compose",
    "species.iterate",
    "species.bell_transform",
    "dsl.parse",
    "dsl.evaluate",
    "oracle.gain",
    "oracle.blocks",
    "oracle.linear",
    "bijections.enumerate",
    "bijections.to_height",
    "bijections.to_structure",
    "cli.count",
    "cli.table",
    "cli.eval",
    "cli.verify",
)
CALLS = ("triangles.mat_mul", "species.compose", "oracle.blocks")
COUNTERS = (
    "oracle.blocks.found",
    "oracle.linear.flats",
    "enumeration.partitions",
    "bijections.roundtrips",
)
CACHE = ("cli.cache.hits", "cli.cache.misses", "cli.cache.hit_s", "cli.cache.miss_s")


def inclusive_name(prefix: str) -> str:
    return "triangles.stirling_s" if prefix == "triangles.stirling" else f"{prefix}.s"


def per_layer_names():
    """Every per-layer metric, in report order, with its unit."""
    names = [("setup.import_s", "s")]
    for prefix in TIMED:
        names.append((inclusive_name(prefix), "s"))
        names.append((f"{prefix}.self_s", "s"))
    names += [(f"{prefix}.calls", "count") for prefix in CALLS]
    names += [(name, "count") for name in COUNTERS]
    names += [(name, "s" if name.endswith("_s") else "count") for name in CACHE]
    names += [("cli.cache.bytes", "bytes"), ("trace.spans", "count"), ("trace.overhead_s", "s")]
    return names


class Tracer:
    """In-memory span recorder. Spans are [name, start_ns, end_ns, parent, run_id]."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.missing = []
        self.run_id = ""
        self._stack = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name, fn, on_result=None):
        """Wrap fn so each call records a span named name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.run_id]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _result_counter(self, name):
        if name not in _RESULT_COUNTERS:
            return None
        counter, measure = _RESULT_COUNTERS[name]
        return lambda result: self.count(counter, measure(result))

    def _counted_generator(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count(name)
                yield item

        return counted

    def install(self):
        """Patch every target in the loaded flatcount modules."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "flatcount"]
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:  # a layer this process never loaded
                continue
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.span(name, original, self._result_counter(name))
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        module_name, attr, name = PARTITIONS
        module = sys.modules.get(module_name)
        if module is not None:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
            else:
                setattr(module, attr, self._counted_generator(name, original))

    def dump(self):
        return {"spans": self.spans, "counters": self.counters, "missing": self.missing}


def merge(dumps):
    """One trace from several (one per process), parents re-indexed."""
    spans, counters, missing = [], {}, []
    for dump in dumps:
        offset = len(spans)
        for name, start, end, parent, run_id in dump["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, run_id])
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
        missing += [m for m in dump["missing"] if m not in missing]
    return {"spans": spans, "counters": counters, "missing": missing}


def aggregate(trace):
    """Per-layer metrics of one trace (see per_layer_names)."""
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    builds_below = [False] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    # A span's index is above its parent's, so a reverse sweep pushes
    # "built a triangle" up to every ancestor.
    for index in range(len(spans) - 1, -1, -1):
        name, _, _, parent, _ = spans[index]
        if name in _TRIANGLE_BUILDERS:
            builds_below[index] = True
        if builds_below[index] and parent >= 0:
            builds_below[parent] = True
    inclusive, self_ns, calls = {}, {}, {}
    cache = dict.fromkeys(CACHE, 0)
    for index, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + duration - child_ns[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0) + duration
        if name == "cli.formula_triangle":
            hit = not builds_below[index]
            cache["cli.cache.hits" if hit else "cli.cache.misses"] += 1
            cache["cli.cache.hit_s" if hit else "cli.cache.miss_s"] += duration / 1e9
    out = {}
    for prefix in TIMED:
        out[inclusive_name(prefix)] = inclusive.get(prefix, 0) / 1e9
        out[f"{prefix}.self_s"] = self_ns.get(prefix, 0) / 1e9
    for prefix in CALLS:
        out[f"{prefix}.calls"] = calls.get(prefix, 0)
    for name in COUNTERS:
        out[name] = trace["counters"].get(name, 0)
    out.update(cache)
    out["trace.spans"] = len(spans)
    return out
