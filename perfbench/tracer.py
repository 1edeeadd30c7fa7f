"""Span tracer that wraps dualflow's public functions from outside ``src/``.

``Tracer.install(targets)`` replaces each named function with a wrapper that
records one span per call: name, start, end, parent span and the
workload-run id (one id per op).  Module-level functions are replaced under
every name any dualflow module bound them to, because ``from .hgeom import
geometry_of`` gives ``flow``, ``dualmap`` and ``diagnostics`` their own
reference; wrapping only the defining module would miss those calls.
Methods are replaced on every class of the module that defines them
(``SphereGrid.d1``, ``CurvatureFunction.value``, the grids' ``integrate``).
``uninstall`` puts every original back.

Spans live in flat arrays while the program runs and are written out at the
end.  A span's self time is its duration minus the time its child spans
cover; single-threaded nesting makes the children disjoint, so that is
the duration minus the sum of the children's durations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# the layers and, for each, the public functions that are traced
TARGETS = {
    "sphere_grid": ("d1", "d2", "integrate", "resample_monotone", "refine_extremum"),
    "curvfn": ("value", "gradient", "check_strict_concavity"),
    "hgeom": ("geometry_of", "inradius_circumradius", "embed_arrays"),
    "dualmap": ("gauss_dual", "desitter_geometry", "verify_duality", "dual_to_primal"),
    "flow": ("step", "dual_step", "run_flow", "run_dual_flow", "make_initial",
             "estimate_Tstar"),
    "diagnostics": ("compute_record",),
    "cli": ("execute", "write_outputs"),
}


class Tracer:
    """Records nested call spans of wrapped functions in one thread."""

    def __init__(self, package: str = "dualflow", clock=time.perf_counter_ns):
        self.package = package
        self.clock = clock
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.dense_fallbacks = 0
        self.missing: list[str] = []
        # set from a signal handler; run at the next span boundary, where
        # no wrapper is half way through its bookkeeping
        self.pending = None

    # -- recording -----------------------------------------------------

    def next_run(self) -> None:
        """Start a new workload-run id; spans opened from now on carry it."""
        self.run_id += 1

    def _run_pending(self) -> None:
        job, self.pending = self.pending, None
        job()

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def wrap(self, label: str, fn, on_return=None):
        """fn with every call recorded as a span named label."""
        lid = self._label_id(label)
        clock, stack = self.clock, self._stack
        labels, starts, ends, parents, runs = (self.label, self.start, self.end,
                                               self.parent, self.run)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.pending is not None:
                self._run_pending()
            idx = len(starts)
            labels.append(lid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    # -- installing ----------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, targets=TARGETS) -> "Tracer":
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        for layer, names in targets.items():
            mod = by_name[f"{self.package}.{layer}"]
            for fn_name in names:
                label = f"{layer}.{fn_name}"
                hook = self._count_fallback if fn_name == "inradius_circumradius" else None
                found = False
                fn = mod.__dict__.get(fn_name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped = self.wrap(label, fn, hook)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is fn:
                                self._patch(m, attr, wrapped)
                    found = True
                for cls in vars(mod).values():
                    if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                            and inspect.isfunction(cls.__dict__.get(fn_name))):
                        self._patch(cls, fn_name, self.wrap(label, cls.__dict__[fn_name], hook))
                        found = True
                if not found:
                    # a later version of the program may drop a function;
                    # its metrics then read 0 instead of breaking the run
                    self._label_id(label)
                    self.missing.append(label)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_fallback(self, result) -> None:
        if getattr(result, "dense_fallback", False):
            self.dense_fallbacks += 1

    # -- analysis ------------------------------------------------------

    def arrays(self):
        """(label, start, end, parent, run) as numpy copies of the span arrays."""
        return (np.array(self.label, dtype=np.int32),
                np.array(self.start, dtype=np.int64),
                np.array(self.end, dtype=np.int64),
                np.array(self.parent, dtype=np.int32),
                np.array(self.run, dtype=np.int32))

    def summary(self) -> dict:
        """Per label: calls, self seconds, inclusive durations (s), and
        the number of calls whose parent span carries each label."""
        label, start, end, parent, _ = self.arrays()
        n_labels = len(self.labels)
        dur = (end - start).astype(np.float64) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child
        calls = np.bincount(label, minlength=n_labels)
        self_total = np.bincount(label, weights=self_s, minlength=n_labels)
        parent_label = np.where(has_parent, label[np.maximum(parent, 0)], -1)
        out = {}
        for i, name in enumerate(self.labels):
            mine = label == i
            under = parent_label[mine]
            out[name] = {
                "calls": int(calls[i]),
                "self_s": float(self_total[i]),
                "durations": dur[mine],
                "parents": {self.labels[j]: int(c)
                            for j, c in enumerate(np.bincount(under[under >= 0],
                                                              minlength=n_labels)) if c},
            }
        return out

    def write_spans(self, path: Path) -> None:
        """All spans as an uncompressed .npz: arrays label, start_ns, end_ns,
        parent (-1 for none) and run, one entry per span, plus the label
        names; span i is labelled names[label[i]]."""
        label, start, end, parent, run = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.labels), label=label, start_ns=start,
                 end_ns=end, parent=parent, run=run)
