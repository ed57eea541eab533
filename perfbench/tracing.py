"""Spans and counts around every call into impshap, recorded from outside.

`Tracer.install` replaces each public function and public method of the
impshap modules with a wrapper, in every module namespace that holds a
reference to it, and `Tracer.uninstall` puts the originals back.  A wrapper
records one span per call (name, start, end, parent span, job id) into flat
arrays kept in memory; the tracer writes them out when the run ends.

Layers are the modules: a span named `forest.build_forest` belongs to layer
`forest`, `info_theory.JointDistribution.marginal` to layer `info_theory`.
A span's self time is its duration minus the durations of its direct child
spans, so the self times of all spans of one job add up to the job span.

Counts that need a look at arguments or results (trees grown, table cells
read, bytes loaded) are taken by hooks that run after the job, on arguments
and results kept until then, so their cost never lands inside a span.
"""

import contextlib
import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "impshap"
JOB_SPAN = "bench.job"


def _forest_counts(counts, job, args, forest):
    trees = forest.trees
    counts[job, "forest.trees"] += len(trees)
    counts[job, "forest.nodes"] += sum(t.n_nodes for t in trees)
    counts[job, "forest.array_bytes"] += sum(
        a.nbytes for t in trees for a in vars(t).values() if isinstance(a, np.ndarray)
    )


def _walk_counts(counts, job, args, result):
    forest, instances = args[0], args[1]
    counts[job, "forest.walks"] += len(instances) * forest.n_trees


def _cell_counts(counts, job, args, result):
    counts[job, "info_theory.cells_read"] += args[0].table.size


def _coalition_counts(counts, job, args, result):
    counts[job, "tu_game.coalitions"] += 1 << args[0].p


def _byte_counts(counts, job, args, result):
    counts[job, "data.bytes_read"] += os.path.getsize(args[0])


HOOKS = {
    "forest.build_forest": _forest_counts,
    "forest.local_mdi": _walk_counts,
    "forest.saabas": _walk_counts,
    "forest.predict_proba": _walk_counts,
    "info_theory.JointDistribution.marginal": _cell_counts,
    "tu_game.TUGame.coalition_values": _coalition_counts,
    "data.load_csv": _byte_counts,
    "data.load_joint_csv": _byte_counts,
}


def _traceable(obj) -> bool:
    # a generator's span would end before its work starts
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class Tracer:
    """Span recorder for one run; jobs are told apart by `job_id`."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.counts = defaultdict(int)  # (job id, counter) -> value
        self.job_id = -1
        self._stack = [-1]
        self._pending = []  # (hook, job id, args, result), counted after the job
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        idx = len(self.start) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        """Wrapper recording a span per call; the body is `_open`/`_close`
        inlined, since hot helpers are called tens of thousands of times
        per job."""
        nid = self._intern(name)
        hook = HOOKS.get(name)
        tracer = self
        stack, pending, end = self._stack, self._pending, self.end
        add_name, add_parent, add_job = (
            self.name_id.append, self.parent.append, self.job.append
        )
        add_start, add_end = self.start.append, end.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            add_name(nid)
            add_parent(stack[-1])
            add_job(tracer.job_id)
            add_end(0)
            idx = len(end) - 1
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                pending.append((hook, tracer.job_id, args, result))
            return result

        return traced

    @contextlib.contextmanager
    def job_span(self, job_id: int):
        """Install the wrappers and record one job as a root span."""
        self.job_id = job_id
        self.install()
        idx = self._open(self._intern(JOB_SPAN))
        try:
            yield
        finally:
            self._close(idx)
            self.uninstall()
            for hook, job, args, result in self._pending:
                hook(self.counts, job, args, result)
            self._pending.clear()
            self.job_id = -1

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        """Wrap every public function and method of the package's modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrapped = {}  # id(original function) -> (original, wrapper)
        patches = []
        for mod in modules:
            if mod.__name__ == PACKAGE:
                continue
            layer = mod.__name__[len(PACKAGE) + 1:]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _traceable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    for mname, meth in vars(obj).items():
                        if not mname.startswith("_") and _traceable(meth):
                            qual = f"{layer}.{name}.{mname}"
                            patches.append((obj, mname, meth, self._wrap(qual, meth)))
        for mod in modules:
            for name, obj in vars(mod).items():
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    patches.append((mod, name, obj, entry[1]))
        for owner, name, _, wrapper in patches:
            setattr(owner, name, wrapper)
        self._patches = patches

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span columns (a view would pin the arrays' size)."""
        return {
            "name": np.array(self.name_id, dtype=np.int64),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job, dtype=np.int64),
        }

    def per_job(self) -> dict:
        """{job id: {span name: (calls, self seconds, outermost seconds)}}.

        Outermost seconds sum the spans that have no ancestor of the same
        name, so a function that calls itself is not counted twice.
        """
        a = self.arrays()
        name, parent, job = a["name"], a["parent"], a["job"]
        n = name.size
        if n == 0:
            return {}
        dur = (a["end"] - a["start"]).astype(np.float64) * 1e-9
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        nested = np.zeros(n, dtype=bool)
        anc = parent.copy()
        live = anc >= 0
        while live.any():
            nested[live] |= name[anc[live]] == name[live]
            anc[live] = parent[anc[live]]
            live = anc >= 0
        outer = np.where(nested, 0.0, dur)
        n_names = len(self.names)
        jobs = np.unique(job)
        out = {}
        for j in jobs:
            sel = job == j
            key = name[sel]
            calls = np.bincount(key, minlength=n_names)
            selfs = np.bincount(key, weights=self_s[sel], minlength=n_names)
            outers = np.bincount(key, weights=outer[sel], minlength=n_names)
            out[int(j)] = {
                self.names[k]: (int(calls[k]), float(selfs[k]), float(outers[k]))
                for k in np.flatnonzero(calls)
            }
        return out

    def save(self, path: str) -> None:
        """Write every span as columns of an .npz file (names in `names`)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
