"""Per-layer tracing for the benchmark: spans around calls into bierlab.

A ``Tracer`` replaces each watched function by a timing wrapper in every
``bierlab`` module namespace (and on its class, for methods).  Because the
package resolves ``from .x import f`` bindings as module globals at call
time, the wrappers also see the calls the package makes to itself.  Only
watched calls pay for tracing; a ``sys.setprofile`` hook, which pays on
every Python and C call, slowed the cold census 4.6-fold on a 2-core
machine and buried the self times it was meant to measure.

Spans stay in memory as per-function aggregates.  A span's self time is
its duration minus the time covered by the watched spans it encloses.

``LAYER_METRICS`` is the layer map: every per-layer metric with its unit,
which direction is better, and the end-to-end metric and workload it
should move.  ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric, unit, better, what it should move)
LAYER_METRICS = [
    ("tor.hochster_betti.self_s", "s", "lower",
     "wall_s/ops_per_s on facering-*; op_p50_ms on cli-queries; nothing on census-canon"),
    ("tor.hochster_betti.subsets", "count", "lower", "as tor.hochster_betti.self_s"),
    ("tor.golod_summary.self_s", "s", "lower", "as tor.hochster_betti.self_s"),
    ("tor.tor_products.self_s", "s", "lower", "op_p50_ms on cli-queries (golod requests)"),
    ("tor.subset_ranks.calls", "count", "lower", "as tor.hochster_betti.self_s"),
    ("tor.products.calls", "count", "lower", "as tor.hochster_betti.self_s"),
    ("tor.products.nonzero_frac", "frac", "higher", "as tor.hochster_betti.self_s"),
    ("linalg.rank.calls", "count", "lower",
     "as tor; QQ and GF(2) split across facering-qq and facering-gf2"),
    ("linalg.rank.self_s", "s", "lower", "as linalg.rank.calls"),
    ("linalg.rank.entries", "count", "lower", "as linalg.rank.calls"),
    ("linalg.rank.rows_max", "count", "lower", "as linalg.rank.calls"),
    ("linalg.rank.cols_max", "count", "lower", "as linalg.rank.calls"),
    ("linalg.echelon_add.calls", "count", "lower", "as linalg.rank.calls"),
    ("linalg.echelon_add.self_s", "s", "lower", "as linalg.rank.calls"),
    ("linalg.nullspace.calls", "count", "lower", "as linalg.rank.calls"),
    ("linalg.nullspace.self_s", "s", "lower", "as linalg.rank.calls"),
    ("complexes.canonical_form.calls", "count", "lower",
     "wall_s on census-canon; op_p50_ms on cli-queries; nothing on facering-*"),
    ("complexes.canonical_form.self_s", "s", "lower", "as complexes.canonical_form.calls"),
    ("complexes.are_isomorphic.calls", "count", "lower", "as complexes.canonical_form.calls"),
    ("complexes.are_isomorphic.self_s", "s", "lower", "as complexes.canonical_form.calls"),
    ("census.enumerate_complexes.self_s", "s", "lower", "wall_s on census-canon"),
    ("census.enumerate_multicomplexes.self_s", "s", "lower", "wall_s on census-canon"),
    ("census.multicomplex_canonical_key.calls", "count", "lower", "wall_s on census-canon"),
    ("census.multicomplex_canonical_key.self_s", "s", "lower", "wall_s on census-canon"),
    ("census.canon_useful_frac", "frac", "higher", "wall_s on census-canon"),
    ("duality.bier_sphere.calls", "count", "lower",
     "wall_s on census-canon; a small share on every other workload"),
    ("duality.bier_sphere.self_s", "s", "lower", "as duality.bier_sphere.calls"),
    ("duality.classify_bier.self_s", "s", "lower", "as duality.bier_sphere.calls"),
    ("multicomplexes.murai_sphere.calls", "count", "lower", "as duality.bier_sphere.calls"),
    ("multicomplexes.murai_sphere.self_s", "s", "lower", "as duality.bier_sphere.calls"),
    ("cubical.z_complex.self_s", "s", "lower", "op_p90_ms on cli-queries (cubical is the tail)"),
    ("cubical.boundary_complex.self_s", "s", "lower", "as cubical.z_complex.self_s"),
    ("cubical.cubical_homology.self_s", "s", "lower", "as cubical.z_complex.self_s"),
    ("cubical.gw_partition_check.self_s", "s", "lower", "as cubical.z_complex.self_s"),
    ("facevectors.realize_gamma_as_flag_f.self_s", "s", "lower",
     "op_p50_ms on cli-queries; a little of census-canon"),
    ("facevectors.h_vector.self_s", "s", "lower", "as facevectors.realize_gamma_as_flag_f.self_s"),
    ("cache.get.calls", "count", "lower", "op_p50_ms and failed ops on cli-queries"),
    ("cache.get.self_s", "s", "lower", "as cache.get.calls"),
    ("cache.put.self_s", "s", "lower", "as cache.get.calls"),
    ("cache.hit_frac", "frac", "higher", "as cache.get.calls"),
    ("cli.run.self_s", "s", "lower", "op_p50_ms on cli-queries"),
    ("jsonio.self_s", "s", "lower", "op_p50_ms on cli-queries"),
    ("trace.overhead_frac", "frac", "lower",
     "nothing; it tells how far traced self times can be trusted"),
]

# span name -> (module, attribute path); a missing target is skipped, so a
# refactor that removes a function reports zeros instead of crashing.
WATCHED = {
    "tor.hochster_betti": ("bierlab.tor", "hochster_betti"),
    "tor.golod_summary": ("bierlab.tor", "golod_summary"),
    "tor.tor_products": ("bierlab.tor", "tor_products"),
    "tor.subset_ranks": ("bierlab.tor", "SubsetCohomology.ranks"),
    "tor.products": ("bierlab.tor", "SubsetCohomology.product_is_nonzero"),
    "linalg.rank": ("bierlab.linalg", "rank"),
    "linalg.echelon_add": ("bierlab.linalg", "Echelon.add"),
    "linalg.nullspace": ("bierlab.linalg", "nullspace"),
    "complexes.canonical_form": ("bierlab.complexes", "canonical_form"),
    "complexes.are_isomorphic": ("bierlab.complexes", "are_isomorphic"),
    "census.enumerate_complexes": ("bierlab.census", "enumerate_complexes"),
    "census.enumerate_multicomplexes": ("bierlab.census", "enumerate_multicomplexes"),
    "census.multicomplex_canonical_key": ("bierlab.census", "multicomplex_canonical_key"),
    "duality.bier_sphere": ("bierlab.duality", "bier_sphere"),
    "duality.classify_bier": ("bierlab.duality", "classify_bier"),
    "multicomplexes.murai_sphere": ("bierlab.multicomplexes", "murai_sphere"),
    "cubical.z_complex": ("bierlab.cubical", "z_complex"),
    "cubical.boundary_complex": ("bierlab.cubical", "boundary_complex"),
    "cubical.cubical_homology": ("bierlab.cubical", "cubical_homology"),
    "cubical.gw_partition_check": ("bierlab.cubical", "gw_partition_check"),
    "facevectors.realize_gamma_as_flag_f": ("bierlab.facevectors", "realize_gamma_as_flag_f"),
    "facevectors.h_vector": ("bierlab.facevectors", "h_vector"),
    "cache.get": ("bierlab.cache", "cache_get"),
    "cache.put": ("bierlab.cache", "cache_put"),
    "cli.run": ("bierlab.cli", "run"),
}
# every public function of jsonio, summed under one span name
JSONIO_SPAN = "jsonio"


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    func = getattr(owner, attr, None)
    return None if func is None else (owner, attr, func)


class _Agg:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra: dict = {}


class Tracer:
    """Install with ``start()``, remove with ``stop()``; read ``metrics()``."""

    def __init__(self):
        self.aggs: dict[str, _Agg] = {}
        self._stack: list[list] = []  # [name, start, child_time]
        self._patches: list[tuple] = []  # (owner, attr, original)
        self._canon_results: set = set()
        self._mc_keys: set = set()
        self._enumerating = 0

    # -- installation -----------------------------------------------------

    def _targets(self):
        out = []
        for name, (module_name, path) in WATCHED.items():
            hit = _resolve(module_name, path)
            if hit is not None:
                out.append((name, hit))
        try:
            jsonio = importlib.import_module("bierlab.jsonio")
        except ImportError:
            return out
        for attr, func in sorted(vars(jsonio).items()):
            if (callable(func) and getattr(func, "__module__", None) == jsonio.__name__
                    and not attr.startswith("_") and not isinstance(func, type)):
                out.append((JSONIO_SPAN, (jsonio, attr, func)))
        return out

    def start(self):
        originals = {}
        for name, (owner, attr, func) in self._targets():
            wrapper = self._wrap(name, func)
            originals[id(func)] = (func, wrapper)
            if isinstance(owner, type):
                self._patches.append((owner, attr, func))
                setattr(owner, attr, wrapper)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "bierlab" or n.startswith("bierlab.")) and m is not None]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def stop(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, func):
        agg = self.aggs.setdefault(name, _Agg())
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(name, agg)

        def traced(*args, **kwargs):
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            if observe is not None:
                observe(args, kwargs, None, True)
            result = None
            start = frame[1] = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                agg.calls += 1
                agg.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if observe is not None:
                    observe(args, kwargs, result, False)

        return functools.wraps(func)(traced)

    def _observer(self, name, agg):
        """Extra counters read from arguments and results, or None.  The
        observer runs before the call and again after it, with ``result``
        None when the call raised."""
        extra = agg.extra
        if name == "tor.hochster_betti":
            def observe(args, kwargs, result, before):
                if before:
                    k = args[0] if args else kwargs["k"]
                    extra["subsets"] = extra.get("subsets", 0) + (1 << k.m)
            return observe
        if name == "linalg.rank":
            def observe(args, kwargs, result, before):
                if before:
                    matrix = args[0] if args else kwargs["matrix"]
                    rows = len(matrix)
                    cols = len(matrix[0]) if rows else 0
                    extra["entries"] = extra.get("entries", 0) + rows * cols
                    extra["rows_max"] = max(extra.get("rows_max", 0), rows)
                    extra["cols_max"] = max(extra.get("cols_max", 0), cols)
            return observe
        if name == "tor.products":
            def observe(args, kwargs, result, before):
                if not before and result:
                    extra["nonzero"] = extra.get("nonzero", 0) + 1
            return observe
        if name == "cache.get":
            def observe(args, kwargs, result, before):
                if not before and result is not None:
                    extra["hits"] = extra.get("hits", 0) + 1
            return observe
        if name == "census.enumerate_complexes":
            def observe(args, kwargs, result, before):
                self._enumerating += 1 if before else -1
            return observe
        if name == "complexes.canonical_form":
            def observe(args, kwargs, result, before):
                if not before and self._enumerating and result is not None:
                    extra["enumerating"] = extra.get("enumerating", 0) + 1
                    self._canon_results.add(result)
            return observe
        if name == "census.multicomplex_canonical_key":
            def observe(args, kwargs, result, before):
                if not before and result is not None:
                    self._mc_keys.add(result)
            return observe
        return None

    # -- metrics ----------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        def agg(name):
            return self.aggs.get(name) or _Agg()

        def frac(num, den):
            return num / den if den else 0.0

        values = {}
        for metric, _unit, _better, _moves in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = agg(span).calls
            elif field == "self_s":
                values[metric] = agg(span).self_s
            elif not field.endswith("_frac"):
                values[metric] = agg(span).extra.get(field, 0)
        values["tor.products.nonzero_frac"] = frac(
            agg("tor.products").extra.get("nonzero", 0), agg("tor.products").calls)
        values["cache.hit_frac"] = frac(
            agg("cache.get").extra.get("hits", 0), agg("cache.get").calls)
        canon_made = (agg("complexes.canonical_form").extra.get("enumerating", 0)
                      + agg("census.multicomplex_canonical_key").calls)
        values["census.canon_useful_frac"] = frac(
            len(self._canon_results) + len(self._mc_keys), canon_made)
        values["trace.overhead_frac"] = overhead_frac
        return values
