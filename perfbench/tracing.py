"""Spans around the public calls of each driftfv layer, recorded from outside.

The program is not changed: :func:`instrument` replaces module and class
attributes with timing wrappers and returns a function that puts the
originals back.  Spans are kept in memory as ``[name, start, end, parent]``
and written out once, when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import Counter

import scipy.sparse.linalg as spla

import driftfv.constitutive
import driftfv.diagnostics
import driftfv.sparse
import driftfv.transient
from driftfv.transient import Stepper


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> Counter:
        """Seconds per span name: duration minus the time child spans cover.

        Spans nest strictly in one thread, so the direct children of a span
        are disjoint and their summed durations are the covered time.
        """
        child_cover = Counter()
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_cover[parent] += t1 - t0
        out = Counter()
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[name] += t1 - t0 - child_cover[i]
        return out

    def totals(self) -> "tuple[Counter, Counter]":
        """Inclusive seconds and call counts per span name."""
        secs, calls = Counter(), Counter()
        for name, t0, t1, _ in self.spans:
            secs[name] += t1 - t0
            calls[name] += 1
        return secs, calls

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one ``[name, start, end, parent]`` per line."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class _TracedFactor:
    """Stands in for a SuperLU object so that its triangular solves are timed."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.wrap("sparse.trisolve", lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# (owner, attribute, span name) of every public call timed as its own layer.
_LAYER_CALLS = (
    (driftfv.sparse, "solve", "sparse.solve"),
    (driftfv.transient, "flux_coefficients", "flux.coeff"),
    (driftfv.constitutive, "dr_mean", "constitutive.dr_mean"),
    (driftfv.diagnostics, "make_record", "diagnostics.record"),
    (Stepper, "__init__", "transient.stepper_init"),
    (Stepper, "advance", "transient.advance"),
    (Stepper, "linearized_density_step", "transient.density_step"),
    (Stepper, "solve_poisson", "transient.poisson"),
)


def instrument(tracer: Tracer):
    """Install the layer wrappers; returns a callable that removes them."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in _LAYER_CALLS]
    saved += [(spla, "splu", spla.splu),
              (Stepper, "scheme_residuals", Stepper.scheme_residuals)]
    factor = tracer.wrap("sparse.factor", spla.splu)
    residuals = tracer.wrap("transient.residual", Stepper.scheme_residuals)

    def splu(*args, **kwargs):
        lu = factor(*args, **kwargs)
        tracer.counts["sparse.lu_nnz"] += lu.nnz
        return _TracedFactor(lu, tracer)

    def scheme_residuals(self, *args):
        rn, rp = residuals(self, *args)
        worst = max(abs(rn).max(initial=0.0), abs(rp).max(initial=0.0))
        # Stepper.advance accepts the iterate at or below this residual.
        if worst <= 10.0 * self.config.fp_tol:
            tracer.counts["transient.residual_accepts"] += 1
        return rn, rp

    for owner, attr, name in _LAYER_CALLS:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    spla.splu = splu
    Stepper.scheme_residuals = scheme_residuals

    def restore():
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return restore
