"""Spans and counters recorded around the engine's public entry points.

`install(tracer)` rebinds each wrapped entry point wherever its callers
look it up: module-level functions in every loaded ``moebius.*`` module
that binds them, methods and lazy properties on their classes.  A
wrapper only opens a span around the original call and counts; it never
calls a layer the original would not have called, nor in another order.
Lazy properties and memoized methods open a span only on the call that
computes (their cache slot is still empty) and count the other calls.

Spans are kept in memory as ``[name, start_ns, end_ns, parent]`` and
written out once, by `Tracer.dump`, when the process ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# span name -> per-layer metric (summed self time, in seconds)
SPAN_METRICS = {
    "groups.build": "groups.build_s",
    "groups.table": "groups.table_s",
    "lattice.enumerate": "lattice.enumerate_s",
    "lattice.relation": "lattice.relation_s",
    "lattice.mu": "lattice.mu_s",
    "lattice.classes": "lattice.classes_s",
    "lattice.normalizer": "lattice.normalizer_s",
    "automorphisms.build": "automorphisms.build_s",
    "automorphisms.orbit": "automorphisms.orbit_s",
    "classposet.build": "classposet.build_s",
    "classposet.relation": "classposet.relation_s",
    "classposet.mu": "classposet.mu_s",
    "counting.hall": "counting.hall_s",
    "counting.classes": "counting.classes_s",
    "counting.star": "counting.star_s",
    "mulambda.init": "mulambda.init_s",
    "mulambda.report": "mulambda.report_s",
    "mulambda.beta": "mulambda.beta_s",
    "tables.name": "tables.name_s",
    "tables.render": "tables.render_s",
    "cache.load": "cache.load_s",
    "cache.save": "cache.save_s",
    "cli": "cli.self_s",
}

# counters summed over processes, and the one kept as a maximum
COUNT_METRICS = (
    "groups.table_reads", "lattice.subgroups", "lattice.normalizer_calls",
    "automorphisms.maps", "automorphisms.map_entries",
    "classposet.orbit_calls", "classposet.classes", "mulambda.violations",
    "tables.name_calls", "cache.bytes", "cache.hits", "cache.misses",
)
MAX_METRICS = ("groups.table_bytes",)


class Tracer:
    """In-memory span list plus counters for one process."""

    def __init__(self, query_id: str = ""):
        self.query_id = query_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self._stack
        rec = [name, 0, 0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            stack.pop()

    def inside(self, name: str) -> bool:
        """True when the innermost open span is called name."""
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def at_most(self, key: str, value: int):
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"query": self.query_id, "spans": self.spans,
                       "counts": dict(self.counts), "maxima": self.maxima}, fh)


def self_times(spans) -> dict[str, float]:
    """Seconds per span name of its spans' duration minus their children's."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start - child_ns[i]) / 1e9
    return out


def layer_metrics(dumps) -> dict[str, float]:
    """Per-layer metrics from the span dumps of every traced process."""
    selfs: dict[str, float] = {}
    counts: Counter = Counter()
    maxima: dict[str, int] = {}
    for d in dumps:
        for name, s in self_times(d["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + s
        counts.update(d["counts"])
        for k, v in d["maxima"].items():
            maxima[k] = max(maxima.get(k, 0), v)
    out = {metric: selfs.get(name, 0.0) for name, metric in SPAN_METRICS.items()}
    out.update({k: counts.get(k, 0) for k in COUNT_METRICS})
    out.update({k: maxima.get(k, 0) for k in MAX_METRICS})
    lookups = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    out["cache.hit_ratio"] = counts.get("cache.hits", 0) / lookups if lookups else 0.0
    return out


# -- installing the wrappers -----------------------------------------------

def _rebind(original, wrapper):
    """Replace original with wrapper in every moebius module that binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "moebius" or mod_name.startswith("moebius.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _spanned(tracer, original, name, on_result=None):
    """original inside a span; on_result(result) unless nested in a same-name span."""
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        outermost = not tracer.inside(name)
        result = tracer.call(name, original, *args, **kwargs)
        if on_result is not None and outermost:
            on_result(result)
        return result
    return wrapper


def _wrap_function(tracer, original, name, on_result=None):
    _rebind(original, _spanned(tracer, original, name, on_result))


def _wrap_method(tracer, cls, attr, name, on_result=None):
    setattr(cls, attr, _spanned(tracer, cls.__dict__[attr], name, on_result))


def _wrap_lazy_property(tracer, cls, attr, slot, name, read_count=None, on_build=None):
    """Span the read that fills cls.slot; count every other read under read_count."""
    fget = cls.__dict__[attr].fget
    counts = tracer.counts

    def get(self):
        if getattr(self, slot) is None:
            value = tracer.call(name, fget, self)
            if on_build is not None:
                on_build(value)
            return value
        if read_count is not None:
            counts[read_count] += 1
        return fget(self)
    setattr(cls, attr, property(get, doc=fget.__doc__))


def _wrap_memoized(tracer, cls, attr, memo, name, on_call=None):
    """Span the calls whose key is not yet in the instance's memo dict."""
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def wrapper(self, key):
        if on_call is not None:
            on_call()
        if getattr(self, memo).get(key) is None:
            return tracer.call(name, original, self, key)
        return original(self, key)
    setattr(cls, attr, wrapper)


def install(tracer: Tracer):
    """Wrap every public entry point the workloads reach; see the module doc."""
    import moebius.cli  # noqa: F401  - loads every module whose bindings we patch
    from moebius import (automorphisms, cache, classposet, counting, groups,
                         lattice, mulambda, tables)

    counts = tracer.counts

    def count(key, n=1):
        counts[key] += n

    # groups
    _wrap_function(tracer, groups.build_from_spec, "groups.build")
    _wrap_lazy_property(
        tracer, groups.FiniteGroup, "table", "_table", "groups.table",
        read_count="groups.table_reads",
        on_build=lambda mt: tracer.at_most("groups.table_bytes", memoryview(mt).nbytes))

    # lattice
    _wrap_function(tracer, lattice.enumerate_subgroups, "lattice.enumerate",
                   on_result=lambda lat: count("lattice.subgroups", len(lat)))
    L = lattice.SubgroupLattice
    _wrap_lazy_property(tracer, L, "up", "_up", "lattice.relation")
    _wrap_lazy_property(tracer, L, "down", "_down", "lattice.relation")
    _wrap_lazy_property(tracer, L, "mu_top", "_mu_top", "lattice.mu")
    _wrap_method(tracer, L, "class_representatives", "lattice.classes")
    _wrap_memoized(tracer, L, "conjugacy_orbit", "_conj_orbit", "lattice.classes")
    _wrap_memoized(tracer, L, "normalizer_mask", "_normalizer", "lattice.normalizer",
                   on_call=lambda: count("lattice.normalizer_calls"))

    # automorphisms
    def count_maps(aut):
        count("automorphisms.maps", len(aut.maps))
        count("automorphisms.map_entries", sum(len(a.map) for a in aut.maps))
    for fn in (automorphisms.trivial_automorphisms, automorphisms.inner_automorphisms,
               automorphisms.full_automorphism_group, automorphisms.close_automorphisms):
        _wrap_function(tracer, fn, "automorphisms.build", on_result=count_maps)
    _wrap_method(tracer, automorphisms.AutomorphismGroup, "mask_orbit",
                 "automorphisms.orbit", on_result=lambda _: count("classposet.orbit_calls"))

    # classposet
    count_classes = lambda poset: count("classposet.classes", len(poset.classes))  # noqa: E731
    for fn in (classposet.build_class_poset, classposet.conjugation_poset,
               classposet.lambda_poset):
        _wrap_function(tracer, fn, "classposet.build", on_result=count_classes)
    P = classposet.ClassPoset
    _wrap_lazy_property(tracer, P, "up", "_up", "classposet.relation")
    _wrap_lazy_property(tracer, P, "mu_top", "_mu_top", "classposet.mu")

    # counting
    for fn, name in ((counting.phi_hall, "counting.hall"),
                     (counting.phi_via_classes, "counting.classes"),
                     (counting.omega, "counting.classes"),
                     (counting.phi_star, "counting.star"),
                     (counting.phi_star_hall, "counting.star")):
        _wrap_function(tracer, fn, name)

    # mulambda
    A = mulambda.MuLambdaAnalyzer
    _wrap_method(tracer, A, "__init__", "mulambda.init")
    _wrap_method(tracer, A, "report", "mulambda.report",
                 on_result=lambda rep: count("mulambda.violations", len(rep.violations)))
    _wrap_method(tracer, A, "beta_vector", "mulambda.beta")
    _wrap_method(tracer, A, "beta_span_rank", "mulambda.beta")

    # tables
    _wrap_function(tracer, tables.name_subgroup, "tables.name",
                   on_result=lambda _: count("tables.name_calls"))
    for fn in (tables.class_table, tables.lattice_mu_table, tables.render):
        _wrap_function(tracer, fn, "tables.render")

    # cache
    _wrap_function(tracer, cache.load_lattice, "cache.load",
                   on_result=lambda lat: count("cache.misses" if lat is None else "cache.hits"))
    _wrap_function(tracer, cache.save_lattice, "cache.save",
                   on_result=lambda path: count("cache.bytes", path.stat().st_size))

    # cli
    _wrap_function(tracer, moebius.cli.main, "cli")
