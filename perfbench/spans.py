"""Span tracer that wraps pathmeter's public layer functions from outside.

`Tracer.install` replaces each listed function wherever a pathmeter
module namespace binds it (so `from .fourier import centered_idft` in
`pathmeter.meters` is wrapped too) and `uninstall` puts the originals
back; nothing under `src/` changes. Spans stay in memory as
(name, start, end, parent, experiment) tuples. Work counts are computed
from each call's arguments or result and summed per experiment.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from statistics import median


def _paths(a, r):
    return {"pathsum.paths": a["decomp"].dim ** a["grid"].steps,
            "pathsum.bins": r.f_values.shape[0]}


def _field_updates(a, r):
    # coupled lambda evolution: one slice update per (lambda point, slice, component)
    return {"meters.slice_updates": r.states.size * a["grid"].steps}


def _check_updates(a, r):
    return {"meters.slice_updates": a["field"].states.size * a["grid"].steps}


def _weak_updates(a, r):
    return {"meters.slice_updates":
            a["lgrid"].n_points * a["H"].shape[0] * a["grid"].steps}


def _fourier_points(a, r):
    # centered_dft calls centered_idft, so counting here counts each pass once
    return {"fourier.points": a["x"].size}


def _kernel_bytes(a, r):
    k = a["kernel"]
    return {"transforms.kernel_table_bytes": (k.grid.n_points * k.dim) ** 2 * 16}


def _passes(a):
    return 4 if a.get("symmetric") else 2


def _particle_points(a, r):
    return {"particle1d.fft_points":
            _passes(a) * a["grid"].steps * a["lgrid"].n_points * a["psi0"].n_x}


def _free_points(a, r):
    return {"particle1d.fft_points": _passes(a) * a["grid"].steps * a["psi"].n_x}


def _emit_bytes(a, r):
    return {"cli.emit.bytes": sum(os.path.getsize(p) for p in r)}


# layer -> public functions traced, with the work count each call adds
LAYERS = {
    "pathsum": {"binned_measurement_amplitude": _paths},
    "meters": {"amplitude_field": _field_updates,
               "fourier_consistency_check": _check_updates,
               "coarse_grain": None,
               "binned_field_residual": None,
               "aligned_grid": None},
    "fourier": {"centered_idft": _fourier_points, "centered_dft": None},
    "transforms": {"finite_time_kernel": None,
                   "apply_kernel": _kernel_bytes,
                   "OperatorKernel.unitarity_residual": None},
    "particle1d": {"coordinate_amplitude_field": _particle_points,
                   "split_step_evolve": _free_points,
                   "boundary_mass": None},
    "mensky": {"weak_limit_check": _weak_updates},
    "hilbert": {"spectral_decompose": None, "exact_propagator": None},
    "cli": {"run": None, "emit": _emit_bytes},
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
COUNT_UNITS = {"pathsum.paths": "count", "pathsum.bins": "count",
               "pathsum.bins_per_path": "ratio", "meters.slice_updates": "count",
               "fourier.points": "count", "transforms.kernel_table_bytes": "bytes",
               "particle1d.fft_points": "count", "cli.emit.bytes": "bytes"}


def unit(name: str) -> str:
    """Unit of a `layer_times` or `work_counts` metric."""
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


class Tracer:
    """Spans and work counts for the experiments of one benchmark run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, experiment)
        self.counts = defaultdict(lambda: defaultdict(int))  # experiment -> name -> n
        self.experiment = -1
        self._stack = []
        self._saved = []  # (namespace, attribute, original)

    @contextlib.contextmanager
    def active(self, experiment: int):
        """Spans and counts of `experiment` while the block runs."""
        self.experiment = experiment
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "pathmeter" or name.startswith("pathmeter.")]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"pathmeter.{mod}"]
            for fn, count in fns.items():
                owner_name, _, attr = fn.rpartition(".")
                if owner_name:  # a method: patch the class
                    owner = getattr(home, owner_name)
                    orig = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(f"{mod}.{fn}", orig, count))
                    continue
                orig = getattr(home, attr)
                wrapper = self._wrap(f"{mod}.{fn}", orig, count)
                for m in modules:
                    if m.__dict__.get(attr) is orig:
                        self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, orig = self._saved.pop()
            setattr(ns, attr, orig)

    def _patch(self, ns, attr, value) -> None:
        self._saved.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def _wrap(self, name, fn, count):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.experiment)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, n in count(bound.arguments, result).items():
                    self.counts[self.experiment][key] += int(n)
            return result

        return traced

    def layer_times(self, experiments) -> dict:
        """Per-experiment medians of total time, self time and calls per span name."""
        experiments = list(experiments)
        total = {e: defaultdict(float) for e in experiments}
        own = {e: defaultdict(float) for e in experiments}
        calls = {e: defaultdict(int) for e in experiments}
        child = defaultdict(float)
        for name, start, end, parent, exp in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, exp) in enumerate(self.spans):
            if exp in total:
                total[exp][name] += end - start
                own[exp][name] += end - start - child[i]
                calls[exp][name] += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = median(total[e][name] for e in experiments)
            out[f"{name}.self_s"] = median(own[e][name] for e in experiments)
            out[f"{name}.calls"] = median(calls[e][name] for e in experiments)
        return out

    def layer_shares(self, experiments) -> dict:
        """Share of summed experiment time spent in each layer's own code."""
        times = self.layer_times(experiments)
        whole = times["cli.run.s"] + times["cli.emit.s"]
        shares = {mod: sum(times[f"{mod}.{fn}.self_s"] for fn in fns) / whole
                  for mod, fns in LAYERS.items()}
        return {mod: round(v, 4) for mod, v in shares.items()}

    def work_counts(self, experiment) -> dict:
        out = {name: self.counts[experiment].get(name, 0) for name in COUNT_UNITS}
        paths = out["pathsum.paths"]
        out["pathsum.bins_per_path"] = out["pathsum.bins"] / paths if paths else 0.0
        return out
