"""Span recorder for the traced run, patched in from outside the program.

``Recorder.install()`` replaces the public functions of valgeo's geometry,
slicing, valuations, harness and cli layers with wrappers.  Modules import
each other with ``from ... import name``, so one function can be bound under
several module attributes: every binding in every loaded valgeo module that
holds the original function object is patched, and so are the ``Polytope``
and ``FaceLattice`` methods.  ``uninstall()`` restores them all.

Each wrapped call records a span (name, start, end, parent span, request id)
in memory; ``write()`` saves them when the run ends.  A span's self time is
its duration minus the durations of its direct children.  Functions are
grouped: ``geometry.transform`` covers reflect, cone_hull, scale, translate
and apply_linear, ``valuations.body`` the derived-body evaluators, and so on.
Exact-rational primitives (``linalg``, ``poly``) are not wrapped: they run
millions of times per run and their time shows in their callers' self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

# group -> [(module, attribute)]; "Class.method" patches a method.  Entries
# whose target is missing are skipped, so a later refactor of the program
# cannot break the benchmark; their counts then read 0.
TARGETS = {
    "geometry.convex_hull": [("valgeo.geometry.polytope", "convex_hull")],
    "geometry.cut": [("valgeo.geometry.polytope", "cut")],
    "geometry.transform": [("valgeo.geometry.polytope", name) for name in
                           ("reflect", "cone_hull", "scale", "translate", "apply_linear")],
    "geometry.face_lattice": [("valgeo.geometry.faces", "build_face_lattice")],
    "geometry.triangulation": [("valgeo.geometry.polytope", "Polytope.triangulation")],
    "geometry.volume": [("valgeo.geometry.polytope", "volume"),
                        ("valgeo.geometry.polytope", "volume_full")],
    "geometry.membership": [("valgeo.geometry.polytope", "Polytope.point_membership"),
                            ("valgeo.geometry.faces", "FaceLattice.face_contains_point")],
    "slicing.section_profile": [("valgeo.slicing.profile", "section_profile")],
    "slicing.dd_poly": [("valgeo.slicing.divdiff", "dd_poly")],
    "slicing.dd_fraction": [("valgeo.slicing.divdiff", "dd_fraction")],
    "slicing.dd_mpf": [("valgeo.slicing.divdiff", "dd_mpf")],
    "slicing.moment": [("valgeo.slicing.moments", "moment_transform")],
    "slicing.measure_transform": [("valgeo.slicing.moments", "measure_transform")],
    "slicing.simplex_moment": [("valgeo.slicing.moments", "simplex_moment")],
    "slicing.quadrature": [("valgeo.slicing.profile", "quadrature_against_profile")],
    "valuations.euler_op": [("valgeo.valuations", "euler_op")],
    "valuations.classified_evaluate": [("valgeo.valuations", "classified_evaluate")],
    "valuations.supp_compose": [("valgeo.valuations", "supp_compose")],
    "valuations.body": [("valgeo.valuations", name) for name in
                        ("moment_body_support", "polar_moment_gauge",
                         "l0_polar_moment_gauge", "intersection_body_gauge_inv",
                         "difference_body_support", "laplace_body_value")],
    "harness.run_suite": [("valgeo.harness.suites", "run_suite")],
    "harness.oracle": [("valgeo.harness.oracles", name) for name in
                       ("exhaustive_local_euler", "local_euler_probes", "mc_oracle_moment",
                        "brute_facets", "brute_face_vertex_sets")],
    "harness.rand_polytope": [("valgeo.harness.generators", "rand_polytope")],
    "cli.main": [("valgeo.cli", "main")],
}

# Counts read off a group's return value: extra name and how to count it.
RESULT_COUNTS = {
    "geometry.face_lattice": ("faces", lambda lattice: len(lattice.faces)),
    "slicing.section_profile": ("pieces", lambda profile: len(profile.pieces)),
    "harness.run_suite": ("checks", lambda result: result.summary.get("checks", 0)),
}

# Counter-only hooks: calls are counted without a span of their own.
COUNTERS = {
    "face_lattice.requests": ("valgeo.geometry.polytope", "Polytope.face_lattice"),
    "triangulation.builds": ("valgeo.geometry.polytope", "_pulling_triangulation"),
}


class Stat:
    __slots__ = ("calls", "self_s", "errors", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.extra = defaultdict(float)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, request]
        self.stack: list[list] = []     # [span index, name, child seconds]
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self.request = None
        self.hull_inputs: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------------

    def _span(self, group, fn, args, kwargs, name=None):
        name = name or group
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, start, None, parent[0] if parent else -1, self.request])
        frame = [index, name, 0.0]
        self.stack.append(frame)
        stat = self.stats[name]
        stat.calls += 1
        try:
            result = fn(*args, **kwargs)
            if group in RESULT_COUNTS:
                key, count = RESULT_COUNTS[group]
                stat.extra[key] += count(result)
            return result
        except BaseException:
            stat.errors += 1
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index][2] = end
            stat.self_s += (end - start) - frame[2]
            if parent is not None:
                parent[2] += end - start

    def _wrapper(self, group, fn):
        if group == "geometry.convex_hull":
            @functools.wraps(fn)
            def hull(points, *args, **kwargs):
                pts = [tuple(p) for p in points]
                extra = self.stats[group].extra
                extra["points_in"] += len(pts)
                self.hull_inputs.add(hash(frozenset(pts)))
                if self.stack and self.stack[-1][1] == "harness.rand_polytope":
                    self.counts["rand_polytope.attempts"] += 1
                return self._span(group, fn, (pts,) + args, kwargs)
            return hull
        if group == "slicing.moment":
            @functools.wraps(fn)
            def moment(P, x, weight, *args, **kwargs):
                name = "slicing.moment_exact" if weight.is_exact else "slicing.moment_float"
                return self._span(group, fn, (P, x, weight) + args, kwargs, name)
            return moment

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self._span(group, fn, args, kwargs)
        return wrapped

    def _counter(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += 1
            if key == "triangulation.builds":
                self.counts["triangulation.simplices"] += len(result)
            return result
        return counted

    # -- patching --------------------------------------------------------------------

    def _patch(self, module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            return
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = owner.__dict__.get(method) if owner is not None else None
            if original is None:
                return
            self._patches.append((owner, method, original))
            setattr(owner, method, make(original))
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("valgeo"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        for group, targets in TARGETS.items():
            for module_name, attr in targets:
                self._patch(module_name, attr, lambda fn, g=group: self._wrapper(g, fn))
        for key, (module_name, attr) in COUNTERS.items():
            self._patch(module_name, attr, lambda fn, k=key: self._counter(k, fn))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------------

    def add_output(self, nbytes: int):
        self.stats["cli.main"].extra["output_bytes"] += nbytes

    def write(self, path):
        """Save every span as one JSON line: name, start, end, parent, request."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, stat in self.stats.items():
            out[name.split(".")[0]] += stat.self_s
        return out

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: calls, self_s and errors of every group,
        plus the extra counts and ratios."""
        out: dict[str, float] = {}
        groups = [g for g in TARGETS if g != "slicing.moment"] + \
            ["slicing.moment_exact", "slicing.moment_float"]
        for group in groups:
            stat = self.stats.get(group) or Stat()
            out[f"{group}.calls"] = stat.calls
            out[f"{group}.self_s"] = stat.self_s
            out[f"{group}.errors"] = stat.errors
        hull = self.stats.get("geometry.convex_hull") or Stat()
        out["geometry.convex_hull.points_in"] = hull.extra["points_in"]
        out["geometry.convex_hull.distinct_ratio"] = \
            len(self.hull_inputs) / hull.calls if hull.calls else 0.0
        requests = self.counts["face_lattice.requests"]
        builds = out["geometry.face_lattice.calls"]
        out["geometry.face_lattice.requests"] = requests
        out["geometry.face_lattice.builds"] = builds
        out["geometry.face_lattice.hit_ratio"] = 1 - builds / requests if requests else 0.0
        out["geometry.face_lattice.faces"] = self.stats["geometry.face_lattice"].extra["faces"]
        out["geometry.triangulation.requests"] = out["geometry.triangulation.calls"]
        out["geometry.triangulation.builds"] = self.counts["triangulation.builds"]
        out["geometry.triangulation.simplices"] = self.counts["triangulation.simplices"]
        out["slicing.section_profile.pieces"] = \
            self.stats["slicing.section_profile"].extra["pieces"]
        out["harness.checks"] = self.stats["harness.run_suite"].extra["checks"]
        attempts = self.counts["rand_polytope.attempts"]
        out["harness.rand_polytope.attempts_ratio"] = \
            out["harness.rand_polytope.calls"] / attempts if attempts else 0.0
        out["cli.main.output_bytes"] = self.stats["cli.main"].extra["output_bytes"]
        for layer, seconds in self.layer_self_s().items():
            out[f"{layer}.self_s"] = seconds
        return out
