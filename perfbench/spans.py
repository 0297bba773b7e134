"""Spans around calls into magarr's modules, installed from outside.

magarr itself has no tracing, so this module wraps the public functions
that mark each layer's boundary.  Every wrapper records one span (name,
start, end, parent span, job id) in memory; a few also add counts taken
from the call's arguments or result.  A function is patched under every
name a magarr module looks it up by, so calls made through
``from .x import f`` are seen too.  ``Tracer.uninstall`` puts every
original object back.

A function that a later version of magarr renames or deletes is simply
not wrapped, and its metrics read 0.
"""

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) of the function it times.  The
# attribute may name a method as "Class.method".
SPANS = {
    "cli.geometry": ("magarr.cli", "get_geometry"),
    "cli.render": ("magarr.cli", "render"),
    "arrangement.enumerate": ("magarr.arrangement", "enumerate_chambers"),
    "arrangement.lattice": ("magarr.arrangement", "intersection_lattice"),
    "arrangement.restriction": (
        "magarr.arrangement", "FaceLattice.restriction_chamber_count"),
    "arrangement.symmetry": ("magarr.arrangement", "tope_symmetries"),
    "linalg.lp": ("magarr.linalg", "strict_feasible"),
    "linalg.homology": ("magarr.linalg", "complex_homology"),
    "magnitude.elimination": ("magarr.magnitude", "magnitude_fraction"),
    "magnitude.face_route": (
        "magarr.magnitude", "magnitude_by_face_decomposition"),
    "magnitude.det": ("magarr.magnitude", "varchenko_det"),
    "magnitude.det_product": ("magarr.magnitude", "varchenko_det_product"),
    "homology.self": ("magarr.homology", "magnitude_homology"),
    "homology.recursion": ("magarr.homology", "chain_count_table"),
    "homology.face_check": ("magarr.homology", "face_decomposition_check"),
    "homology.geodesic": ("magarr.homology", "geodesic_homology_direct"),
    "polyq.reduce": ("magarr.polyq", "reduce_fraction"),
    "polyq.series": ("magarr.polyq", "series_expand"),
}

# Per-layer metric -> how it is read off the spans and counts of one pass:
# ("self", span) is the span's self time, ("calls", span) its number of
# calls, ("count", key) a count added by a wrapper.
METRICS = {
    "cli.geometry_s": ("self", "cli.geometry"),
    "cli.cache_hits": ("count", "cache_hits"),
    "cli.cache_misses": ("count", "cache_misses"),
    "cli.cache_discards": ("count", "cache_discards"),
    "cli.render_s": ("self", "cli.render"),
    "arrangement.enumerate_calls": ("calls", "arrangement.enumerate"),
    "arrangement.chambers": ("count", "chambers"),
    "arrangement.enumerate_s": ("self", "arrangement.enumerate"),
    "arrangement.lattice_s": ("self", "arrangement.lattice"),
    "arrangement.flats": ("count", "flats"),
    "arrangement.restriction_calls": ("calls", "arrangement.restriction"),
    "arrangement.symmetry_s": ("self", "arrangement.symmetry"),
    "arrangement.group_order": ("count", "group_order"),
    "linalg.lp_calls": ("calls", "linalg.lp"),
    "linalg.lp_s": ("self", "linalg.lp"),
    "linalg.homology_calls": ("calls", "linalg.homology"),
    "linalg.homology_s": ("self", "linalg.homology"),
    "magnitude.elimination_s": ("self", "magnitude.elimination"),
    "magnitude.orbits": ("count", "orbits"),
    "magnitude.face_route_s": ("self", "magnitude.face_route"),
    "magnitude.det_s": ("self", "magnitude.det"),
    "magnitude.det_product_s": ("self", "magnitude.det_product"),
    "homology.calls": ("calls", "homology.self"),
    "homology.self_s": ("self", "homology.self"),
    "homology.chain_dims": ("count", "chain_dims"),
    "homology.recursion_s": ("self", "homology.recursion"),
    "homology.face_check_s": ("self", "homology.face_check"),
    "homology.geodesic_s": ("self", "homology.geodesic"),
    "polyq.reduce_s": ("self", "polyq.reduce"),
    "polyq.gcd_calls": ("count", "gcd_calls"),
    "polyq.series_s": ("self", "polyq.series"),
}


def _resolve(module_name, attr):
    """(owner, name, object) for "f" or "Class.f" in a module, or None."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # read from __dict__ so a method comes back as the plain function
    obj = vars(owner).get(name)
    return None if obj is None else (owner, name, obj)


def _magarr_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None
            and (key == "magarr" or key.startswith("magarr."))]


class Tracer:
    """Spans and counts of the jobs run while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or None, job id)
        self.counts = defaultdict(Counter)  # job id -> count key -> value
        self.job = None
        self._stack = []  # (span index, span name) of the open spans
        self._patched = []  # (owner, name, original), in patch order

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every function in SPANS, plus the count-only wrappers."""
        for span, (module_name, attr) in SPANS.items():
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, name, original = found
            wrapper = self._span_wrapper(span, original)
            if isinstance(owner, type):  # a method: patch it on its class
                self._patch(owner, name, wrapper)
                continue
            for mod in _magarr_modules():
                if vars(mod).get(name) is original:
                    self._patch(mod, name, wrapper)
        # group order from each job's own top-level orbit computation
        self._patch_counter("magarr.cli", "chamber_orbits", self._count_group)
        # collapsed system size: the orbit call made inside the elimination
        self._patch_counter("magarr.magnitude", "chamber_orbits",
                            self._count_orbits)
        self._patch_counter("magarr.polyq", "poly_gcd", self._count_gcd)

    def uninstall(self):
        """Restore every patched name, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _patch_counter(self, module_name, name, count):
        mod = importlib.import_module(module_name)
        original = vars(mod).get(name)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            count(result)
            return result

        self._patch(mod, name, wrapper)

    def _span_wrapper(self, span, original):
        tracer = self
        before_hook = _BEFORE.get(span)
        after_hook = _AFTER.get(span)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1][0] if stack else None
            before = before_hook(args) if before_hook else None
            stack.append((index, span))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (span, start, end, parent, tracer.job)
            if after_hook:
                after_hook(tracer, args, result, before)
            return result

        return wrapper

    # -- counts -------------------------------------------------------------

    def add(self, key, value=1):
        self.counts[self.job][key] += value

    def _count_group(self, result):
        self.add("group_order", len(result[2]))

    def _count_orbits(self, result):
        if self._stack and self._stack[-1][1] == "magnitude.elimination":
            self.add("orbits", len(result[1]))

    def _count_gcd(self, result):
        self.add("gcd_calls")

    # -- results ------------------------------------------------------------

    def pass_metrics(self, job_scales):
        """Per-layer metrics summed over the jobs of ``job_scales``.

        ``job_scales`` maps each job id to the factor that rescales its
        times to the nominal CPU speed.
        """
        selfs = Counter()
        calls = Counter()
        child = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if job in job_scales and parent is not None:
                child[parent] += end - start
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            if job in job_scales:
                selfs[name] += (end - start - child[index]) * job_scales[job]
                calls[name] += 1
        counts = Counter()
        for job in job_scales:
            counts.update(self.counts.get(job, {}))
        out = {}
        for metric, (kind, key) in METRICS.items():
            if kind == "self":
                out[metric] = selfs[key]
            elif kind == "calls":
                out[metric] = calls[key]
            else:
                out[metric] = counts[key]
        return out

    def span_records(self):
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "job": job}
            for name, start, end, parent, job in self.spans
        ]


def _cache_entry_exists(args):
    arrangement, cache_dir = args[:2]
    if not cache_dir:
        return False
    cli = sys.modules["magarr.cli"]
    return os.path.exists(
        os.path.join(cache_dir, cli.cache_key(arrangement) + ".json"))


def _count_geometry(tracer, args, result, existed):
    outcome = result[2]
    if outcome == "hit":
        tracer.add("cache_hits")
    elif outcome == "miss":
        tracer.add("cache_misses")
        if existed:  # an entry was there but rejected, so recomputed
            tracer.add("cache_discards")


# Hooks around a span's call: _BEFORE[span](args) runs before it and its
# value is passed on to _AFTER[span](tracer, args, result, value).
_BEFORE = {"cli.geometry": _cache_entry_exists}
_AFTER = {
    "cli.geometry": _count_geometry,
    "arrangement.enumerate":
        lambda tracer, args, graph, _: tracer.add("chambers", len(graph)),
    "arrangement.lattice":
        lambda tracer, args, lattice, _:
            tracer.add("flats", len(lattice.flats)),
    "homology.self": lambda tracer, args, res, _: tracer.add(
        "chain_dims", sum(res.chain_dims.values())),
}

