"""Timing and counting at layer boundaries, from outside the program.

A :class:`Probe` replaces a public function or method with a thin
wrapper for the duration of one traced unit of work, then puts the
original back.  Timed boundaries record one duration per call; count
boundaries only count calls, for the hot ones (tens of thousands of
calls per unit) where a clock read per call would distort the run.

Nested timed calls are fine: every name keeps its own durations, and
``covered_s`` sums only the outermost timed calls, so it never counts
an interval twice.  ``1 - covered_s / wall`` is the unit's
unattributed fraction.
"""

from __future__ import annotations

import functools
import gc
import resource
import time
from collections import Counter, defaultdict


def cpu_seconds() -> tuple[float, float]:
    """(this process, its reaped children) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime)


#: What one calibration pass takes on the reference host state; every
#: time the benchmark reports is scaled by this over the pass time the
#: measuring process itself saw.
CALIBRATION_REFERENCE_S = 0.075


def calibration_pass() -> float:
    """Seconds for a fixed mix of interpreter and NumPy work (~75 ms).

    A shared host runs the same code 20-30% faster or slower from one
    minute to the next.  A pass measured in the same process, between
    units of work, sees the same host state, so dividing by it takes
    that drift out of run-to-run comparisons; a change to the program
    still moves the scaled time, because the pass does not call it.
    """
    import numpy as np
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    rng = np.random.default_rng(0)
    ones = np.ones((6, 4))
    for _ in range(4):
        rng.laplace(size=(65536, 6)) @ ones
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Probe:
    """Wrappers installed on layer boundaries for one traced unit."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.calls: Counter = Counter()
        self.results: dict[str, list] = defaultdict(list)
        self.covered_s = 0.0
        self._depth = 0
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0

    # -- installing wrappers -------------------------------------------

    def _install(self, owner, attr: str, wrapper) -> None:
        # Restore the exact attribute the owner held itself; a method
        # it inherited is restored by deleting the wrapper again.
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def time(self, owner, attr: str, name: str, keep=None) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``keep(args, result)``, when given, picks a value to retain from
        each call into ``results[name]``.
        """
        target = getattr(owner, attr)
        durations = self.durations[name]
        results = self.results[name]

        @functools.wraps(target)
        def timed(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                durations.append(elapsed)
                if self._depth == 0:
                    self.covered_s += elapsed
            if keep is not None:
                results.append(keep(args, result))
            return result

        self._install(owner, attr, timed)

    def count(self, owner, attr: str, name: str, keep=None) -> None:
        """Count calls of ``owner.attr`` under ``name``; no clock."""
        target = getattr(owner, attr)
        calls = self.calls
        results = self.results[name]

        @functools.wraps(target)
        def counted(*args, **kwargs):
            calls[name] += 1
            result = target(*args, **kwargs)
            if keep is not None:
                results.append(keep(args, result))
            return result

        self._install(owner, attr, counted)

    # -- garbage collector ---------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_start
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    # -- scope -----------------------------------------------------------

    def __enter__(self) -> "Probe":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- readouts --------------------------------------------------------

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def n(self, name: str) -> int:
        return len(self.durations.get(name, ())) or self.calls.get(name, 0)


class OpTimer:
    """End-to-end op latency: wraps one callable, keeps every duration.

    Used on untraced units too, so it stays as lean as a wrapper can
    be: two clock reads and a list append per call.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []

    def wrap(self, target):
        durations = self.durations

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = target(*args, **kwargs)
            durations.append(time.perf_counter() - start)
            return result

        return timed
