"""In-memory spans around specherit's public functions, installed from outside.

The tracer rebinds each traced function in every loaded ``specherit.*``
module namespace that holds it, so calls made inside the package
(``harness`` calling ``decompose``, ``newton_estimate`` calling
``loglik_grid``) go through the wrapper too. Nothing in ``src/`` changes;
``uninstall`` restores the original objects.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level). Spans stay in a list until the run ends.
A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the traced calls are single-threaded.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import Counter

import numpy as np

# Functions that get a span, as "<module>.<function>" under specherit.
SPANNED = (
    "harness.read_genotypes",
    "harness.estimate_files",
    "harness.estimate_from_design",
    "harness.run_study",
    "harness.run_replicate",
    "synthcohort.simulate_cohort",
    "synthcohort.sample_genotypes",
    "spectral.standardize",
    "spectral.residualize",
    "spectral.decompose",
    "spectral.kinship",
    "spectral.eigendecompose",
    "spectral.rotate",
    "likelihood.newton_estimate",
    "likelihood.loglik_grid",
    "inference.build_report",
)

# Functions that are only counted: they run tens of times per solve, where a
# span would cost more than the call.
COUNTED = ("likelihood.dloglik", "likelihood.d2loglik")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    """Records spans and exact counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for qualname in SPANNED:
            self._rebind(qualname, self._spanned)
        for qualname in COUNTED:
            self._rebind(qualname, self._counted)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _rebind(self, qualname: str, make) -> None:
        module_name, attr = qualname.split(".")
        original = getattr(sys.modules[f"specherit.{module_name}"], attr)
        wrapper = make(qualname, original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "specherit" and getattr(module, attr, None) is original:
                self._rebound.append((module, attr, original))
                setattr(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, _OBSERVERS.get(name)
        counts = self.counts
        # run_study's CPU covers every thread, and pool workers once they exit.
        track_cpu = name == "harness.run_study"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            cpu0 = _cpu_s() if track_cpu else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if track_cpu:
                counts[name + ".cpu_s"] += _cpu_s() - cpu0
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += (end - start) - inner
        return dict(totals)

    def dump(self, path: str) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- observers: exact counts read from arguments and results -----------------


def _observe_kinship(counts, args, kwargs, result) -> None:
    Z = args[0] if args else kwargs["Z"]
    n, N = np.shape(getattr(Z, "Z", Z))
    counts["spectral.kinship.flop"] += 2 * n * n * N
    counts["spectral.kinship.bytes"] += 8 * (n * N + n * n)


def _observe_eigendecompose(counts, args, kwargs, result) -> None:
    lam, _ = result
    tol = sys.modules["specherit.spectral"].EIGENVALUE_CLAMP_TOL
    counts["spectral.eigendecompose.calls"] += 1
    counts["spectral.eigendecompose.null_dim"] += int(np.count_nonzero(lam <= tol))


def _observe_newton(counts, args, kwargs, result) -> None:
    counts["likelihood.solves"] += 1
    counts["likelihood.newton_iterations"] += sum(result.iterations_per_start)
    counts["likelihood.grid_overrides"] += int(result.chosen_start == -1)
    counts["likelihood.clamped_fits"] += int(result.clamped)
    counts["likelihood.zero_fits"] += int(result.eta_hat == 0.0)


_OBSERVERS = {
    "spectral.kinship": _observe_kinship,
    "spectral.eigendecompose": _observe_eigendecompose,
    "likelihood.newton_estimate": _observe_newton,
}
