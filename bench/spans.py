"""Outside-in span recorder for the traced benchmark run.

`Recorder.installed()` replaces each public function of the polyvis layers
with a wrapper that records a span (name, start, end, parent, op id), in
the function's own module and in every polyvis module that imported it by
name, and puts the originals back on exit. Spans stay in a list in memory
and are folded into per-layer metrics once, after the pass.

Left unwrapped because they run inside the hot loops of their callers and a
span each would cost more than the work: PolyFamily.eval,
ProfileCache.value and arith.valuation. Their time is self time of the
wrapped function that calls them.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
import weakref
from collections import Counter

# layer -> public functions recorded as "<layer>.<name>"
LAYERS = {
    "cli": ("main",),
    "visibility": (
        "modulus", "is_visible", "is_visible_direct", "gcd_p", "column_profile", "lcm_criterion",
        "ProfileCache.minimal_moduli", "ProfileCache.prime_set", "ProfileCache.is_visible",
    ),
    "arith": ("factorize", "is_prime", "next_prime_above", "primes_up_to", "base_digits", "lcm_many"),
    "census": (
        "empirical_density", "coprimality_count", "density_rows", "exact_count_ie", "brute_count",
        "rho", "constant_cp", "constant_cpq", "constant_cpq_star",
    ),
    "geometry": (
        "classify_region", "region_to_csv", "find_block", "find_all_blocks", "scan_block_range",
        "blocks_to_csv", "radius_to_visible", "find_point_with_radius", "survey_family",
    ),
    "construct": ("construct_visible", "construct_multi_prime", "construct_curve_bundle", "valuation_profile"),
}

# self-time metric -> the recorded functions it sums
SELF_TIME = {
    "visibility.minimal_moduli.s": ("visibility.ProfileCache.minimal_moduli",),
    "visibility.prime_set.s": ("visibility.ProfileCache.prime_set",),
    "visibility.is_visible.s": ("visibility.is_visible",),
    "arith.factorize.s": ("arith.factorize",),
    "census.sieve.s": (
        "census.empirical_density", "census.coprimality_count", "census.density_rows", "census.exact_count_ie",
    ),
    "census.rho.s": ("census.rho",),
    "census.constant_cp.s": ("census.constant_cp",),
    "geometry.csv.s": ("geometry.region_to_csv", "geometry.blocks_to_csv"),
    "geometry.classify.s": ("geometry.classify_region",),
    "geometry.scan.s": ("geometry.find_block", "geometry.find_all_blocks", "geometry.scan_block_range"),
    "geometry.radius.s": ("geometry.find_point_with_radius", "geometry.radius_to_visible"),
}

# call-count metric -> the recorded functions whose calls it counts
CALLS = {
    "visibility.minimal_moduli.calls": ("visibility.ProfileCache.minimal_moduli",),
    "visibility.prime_set.calls": ("visibility.ProfileCache.prime_set",),
    "visibility.is_visible.calls": ("visibility.is_visible",),
    "arith.factorize.calls": ("arith.factorize",),
    "census.passes": SELF_TIME["census.sieve.s"],
    "census.rho.calls": ("census.rho",),
    "construct.calls": tuple(f"construct.{f}" for f in LAYERS["construct"]),
}


class Recorder:
    """Spans and work counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._columns_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._distinct_columns: set = set()

    def begin_op(self) -> None:
        self._op += 1

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # Counters taken at the layer boundary, from arguments and results.

    def _after_minimal_moduli(self, result, cache, a):
        seen = self._columns_seen.setdefault(cache, set())
        if a not in seen:
            seen.add(a)
            self.counts["visibility.columns_computed"] += 1
            self.counts["visibility.moduli_kept"] += len(result)
            self._distinct_columns.add((self._op, cache.family, a))

    def _after_region_csv(self, result, grid, region, path):
        self.counts["geometry.csv.rows"] += region.width * region.height
        self.counts["geometry.csv.bytes"] += os.path.getsize(path)

    def _after_blocks_csv(self, result, hits, path):
        self.counts["geometry.csv.rows"] += len(hits)
        self.counts["geometry.csv.bytes"] += os.path.getsize(path)

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer function for the duration of the block."""
        hooks = {
            "visibility.ProfileCache.minimal_moduli": self._after_minimal_moduli,
            "geometry.region_to_csv": self._after_region_csv,
            "geometry.blocks_to_csv": self._after_blocks_csv,
        }
        homes = {layer: importlib.import_module(f"polyvis.{layer}") for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items()) if n == "polyvis" or n.startswith("polyvis.")]
        undo = []
        try:
            for layer, names in LAYERS.items():
                home = homes[layer]
                for name in names:
                    owner_name, _, attr = name.rpartition(".")
                    owner = getattr(home, owner_name) if owner_name else home
                    original = getattr(owner, attr)
                    wrapper = self._wrap(f"{layer}.{name}", original, hooks.get(f"{layer}.{name}"))
                    # a class method lives only in its class; a function also
                    # wherever another module imported it by name
                    holders = [owner] if owner_name else [m for m in modules if getattr(m, attr, None) is original]
                    for holder in holders:
                        setattr(holder, attr, wrapper)
                        undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def metrics(self) -> dict[str, float]:
        """Self times per layer and metric group, call counts and work counters."""
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = sum(v for k, v in self_time.items() if k.startswith(layer + "."))
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self_time[n] for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(calls[n] for n in names)
        for metric in ("visibility.columns_computed", "visibility.moduli_kept", "geometry.csv.rows", "geometry.csv.bytes"):
            out[metric] = self.counts[metric]
        computed = self.counts["visibility.columns_computed"]
        out["visibility.column_reuse"] = len(self._distinct_columns) / computed if computed else 0.0
        out["trace.spans"] = len(self.spans)
        return out
