"""Span tracing from outside the library, and per-layer aggregation.

``Tracer.install`` wraps public functions and class methods of the
centercut modules in place and ``Tracer.uninstall`` puts the originals back.
A function imported by name into several modules (``min_direction_2d`` lives
in depth, centerpoint and cutplane) is replaced in every module that binds
it, so no call path escapes the wrapper. Spans are kept in memory as
``[name, start, end, parent, job]`` rows and written as JSONL at the end.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from centercut import adversary, centerpoint, cutplane, depth, geom, measures

_FAMILY = {measures.LatticeCounting: "lattice", measures.MixedInteger: "mixed",
           measures.UniformPolytope: "uniform", measures.FinitePointMass: "finite"}

# (module, function name, span name); a None span name splits by measure family
FUNCTIONS = [
    (geom, "enumerate_lattice_points", "geom.enumerate_lattice_points"),
    (geom, "enumerate_vertices", "geom.enumerate_vertices"),
    (geom, "lattice_width_2d", "geom.lattice_width_2d"),
    (geom, "clip_polygon_vertices", "geom.clip_polygon_vertices"),
    (geom, "linprog", "geom.linprog"),
    (depth, "min_direction_2d", None),
    (depth, "depth_finite", "depth.depth_finite"),
    (depth, "depth_sampled", "depth.depth_sampled"),
    (centerpoint, "centerpoint_lattice_measure", "centerpoint.lattice_measure"),
    (centerpoint, "centerpoint_mixed_2d", "centerpoint.mixed_2d"),
    (centerpoint, "centerpoint_monte_carlo", "centerpoint.monte_carlo"),
    (centerpoint, "centerpoint_lenstra_mixed", "centerpoint.lenstra_mixed"),
    (centerpoint, "centroid", "centerpoint.centroid"),
    (cutplane, "solve", "cutplane.solve"),
    (cutplane, "evaluate", "cutplane.oracle"),
    (adversary, "adversary_query", "adversary.query"),
    (adversary, "is_consistent", "adversary.is_consistent"),
]

METHODS = [
    (cls, meth, f"measures.{fam}.{label}")
    for cls, fam in ((measures.LatticeCounting, "lattice"), (measures.MixedInteger, "mixed"),
                     (measures.UniformPolytope, "uniform"))
    for meth, label in (("__init__", "build"), ("halfspace_mass", "halfspace_mass"))
] + [(measures.UniformPolytope, "sample", "measures.uniform.sample")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []

    # -- recording -----------------------------------------------------------
    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            label = name or "depth.min_direction_2d." + _FAMILY.get(type(args[0]), "other")
            rec = [label, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def begin_job(self, job_id):
        """Open the root span of a job; library spans nest under it."""
        self.job = job_id
        self._stack.append(len(self.spans))
        self.spans.append(["job", time.perf_counter(), 0.0, -1, job_id])

    def end_job(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self.job = None

    # -- patching ------------------------------------------------------------
    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "centercut" or name.startswith("centercut.")]
        for home, attr, name in FUNCTIONS:
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, name)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        for cls, attr, name in METHODS:
            orig = cls.__dict__[attr]
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "job": job}) + "\n")


def layer_table(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so recursion
    (the Lenstra route calls itself) is not counted twice. Self time is a
    span's duration minus its children's.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    phases = defaultdict(lambda: {"calls": 0, "s": 0.0})
    for i, (name, start, end, parent, _job) in enumerate(spans):
        if name == "job":
            continue
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        if not _has_ancestor(spans, parent, name):
            row["s"] += end - start
        if parent >= 0 and spans[parent][0] == "cutplane.solve":
            phase = _phase(name)
            if phase:
                phases[phase]["calls"] += 1
                phases[phase]["s"] += end - start
    for phase, row in phases.items():
        table[f"cutplane.{phase}"] = row
    return dict(table)


def _phase(name):
    """Solver phase of a span whose parent is cutplane.solve."""
    if name.startswith(("centerpoint.", "depth.")):
        return "pick"
    if name.startswith("measures.") and name.endswith(".build"):
        return "rebuild"
    if name.startswith("measures.") and name.endswith(".halfspace_mass"):
        return "cut"
    return None


def _has_ancestor(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def job_share(spans, name, jobs=None):
    """Share of job wall time spent inside outermost ``name`` spans,
    over the given job ids (all jobs when None)."""
    job_total = 0.0
    inside = 0.0
    for i, (n, start, end, parent, job) in enumerate(spans):
        if jobs is not None and job not in jobs:
            continue
        if n == "job":
            job_total += end - start
        elif n == name and not _has_ancestor(spans, parent, name):
            inside += end - start
    return inside / job_total if job_total > 0 else float("nan")
