"""Result confirmation (paper Section VI-E).

Three mechanisms remove gadgets whose reported effect is an artifact:

- **Multiple executions** — external factors (interrupts) disturb single
  measurements; the same gadget runs several times and the median is
  used (paper: 10 repetitions).
- **Repeated triggers** — distinguishes the trigger sequence's real
  effect from side effects of the reset sequence by comparing a cold
  path (reset only, repeated R times) with a hot path (reset + trigger,
  repeated R times). The gadget is accepted when
  ``V2 - V1 == (1 - lambda1) * R * (v2 - v1)`` within the lambda1
  tolerance and ``V2 > lambda2 * V1`` (paper: lambda1 in [-0.2, 0.2],
  lambda2 = 10).
- **Gadget reordering** — back-to-back fuzzing leaves dirty state
  (caches, predictors) to subsequent gadgets; re-running the survivors
  in random order and cross-validating removes order-dependent results.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.fuzzer.generator import ExecutionHarness
from repro.core.fuzzer.grammar import Gadget
from repro.utils.rng import derive_stream, ensure_rng


@dataclass
class ConfirmationResult:
    """Verdict for one (gadget, event) candidate."""

    gadget: Gadget
    event_index: int
    confirmed: bool
    per_iteration_delta: float
    cold_median: float
    hot_median: float
    reason: str = ""


class GadgetConfirmer:
    """Applies the paper's three confirmation mechanisms.

    Parameters
    ----------
    harness:
        Execution harness for the measurements.
    executions:
        Median-of-n repetitions (paper: 10).
    trigger_repeats:
        R in the repeated-triggers protocol.
    lambda1 / lambda2:
        Accept thresholds (paper: [-0.2, 0.2] and 10).
    rng:
        Seeds the entropy every confirmation stream derives from.
    """

    def __init__(self, harness: ExecutionHarness, executions: int = 10,
                 trigger_repeats: int = 16,
                 lambda1: tuple[float, float] = (-0.2, 0.2),
                 lambda2: float = 10.0,
                 rng: "int | np.random.Generator | None" = None) -> None:
        if executions < 1:
            raise ValueError(f"executions must be >= 1, got {executions}")
        if trigger_repeats < 2:
            raise ValueError(
                f"trigger_repeats must be >= 2, got {trigger_repeats}")
        if lambda1[0] >= lambda1[1]:
            raise ValueError(f"lambda1 bounds must be ordered: {lambda1}")
        if lambda2 <= 0:
            raise ValueError(f"lambda2 must be > 0, got {lambda2}")
        self.harness = harness
        self.executions = executions
        self.trigger_repeats = trigger_repeats
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        # A gadget's draws depend on (entropy, gadget index) only,
        # never on what was confirmed before it.
        self.entropy = int(ensure_rng(rng).integers(2**63))

    def _start(self, *labels: "int | str") -> np.random.Generator:
        """Reset and warm the core, then reseed the harness.

        Every confirmation unit starts from the canonical state
        screening measures from, under its own derived stream, so its
        verdicts do not depend on whatever ran on the core before.
        """
        stream = derive_stream(self.entropy, *labels)
        self.harness.core.reset_microarch_state()
        self.harness.warm_measurement_state()
        self.harness.set_rng(stream)
        return stream

    # -- mechanisms 1 + 2: multiple executions, repeated triggers ---------

    def confirm(self, gadget: Gadget, events: "int | Sequence[int]",
                gadget_index: int = 0
                ) -> "ConfirmationResult | list[ConfirmationResult]":
        """Cold-vs-hot repeated-trigger validation of one gadget.

        ``events`` is one event index (one result returned) or a
        sequence of them (one result per event, in order): the gadget
        is measured once for all of its candidate events.
        ``gadget_index`` keys its derived stream.

        One execution repeats the path R times with the counter read
        between iterations (Fig. 6); v is the median per-iteration
        change, V the cumulative change. The ``executions`` executions
        of a path (mechanism 1) run back to back as one harness call of
        ``executions * R`` iterations, split into blocks of R; the
        medians of v and V across blocks feed the lambda1/lambda2
        verdict per event (mechanism 2).
        """
        single = isinstance(events, (int, np.integer))
        event_indices = np.atleast_1d(np.asarray(events, dtype=int))
        self._start("confirm", gadget_index)
        r = self.trigger_repeats
        medians = []
        for body in (list(gadget.reset),
                     list(gadget.reset) + list(gadget.trigger)):
            per_iteration, _ = self.harness.measure_iterations(
                body, event_indices, self.executions * r)
            blocks = per_iteration.reshape(self.executions, r,
                                           len(event_indices))
            medians.append((np.median(np.median(blocks, axis=1), axis=0),
                            np.median(blocks.sum(axis=1), axis=0)))
        (v1, big_v1), (v2, big_v2) = medians
        results = [self._verdict(gadget, int(event), float(v1[j]),
                                 float(big_v1[j]), float(v2[j]),
                                 float(big_v2[j]))
                   for j, event in enumerate(event_indices)]
        return results[0] if single else results

    def _verdict(self, gadget: Gadget, event_index: int, v1: float,
                 big_v1: float, v2: float,
                 big_v2: float) -> ConfirmationResult:
        """The repeated-trigger accept test for one (gadget, event)."""
        r = self.trigger_repeats
        per_iteration = v2 - v1
        expected = r * per_iteration
        observed = big_v2 - big_v1
        if per_iteration <= 0:
            return ConfirmationResult(gadget, event_index, False,
                                      per_iteration, big_v1, big_v2,
                                      reason="trigger adds no counts")
        # V2 - V1 = (1 - lambda1) R (v2 - v1), lambda1 in [-0.2, 0.2]:
        # the cumulative effect must scale linearly with R, i.e. the
        # reset sequence really returns the event to S0 every iteration.
        lo = (1.0 - self.lambda1[1]) * expected
        hi = (1.0 - self.lambda1[0]) * expected
        if not lo <= observed <= hi:
            return ConfirmationResult(gadget, event_index, False,
                                      per_iteration, big_v1, big_v2,
                                      reason="effect does not scale with R")
        # V2 > lambda2 * V1: the trigger dominates reset side effects.
        if big_v2 <= self.lambda2 * big_v1:
            return ConfirmationResult(gadget, event_index, False,
                                      per_iteration, big_v1, big_v2,
                                      reason="reset side effects dominate")
        return ConfirmationResult(gadget, event_index, True, per_iteration,
                                  big_v1, big_v2)

    # -- mechanism 3: gadget reordering ------------------------------------

    def reorder_validate(self, candidates: list[ConfirmationResult],
                         tolerance: float = 0.5) -> list[ConfirmationResult]:
        """Re-measure confirmed candidates in random order.

        Keeps candidates whose per-iteration delta stays within
        ``tolerance`` (relative) of the original measurement — the
        cross-validation that removes inherited-dirty-state artifacts.
        The pass is sequential on purpose — each candidate runs on the
        state its predecessor left — but it starts from a reset, warmed
        core under its own derived stream.
        """
        if tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        confirmed = [c for c in candidates if c.confirmed]
        order = self._start("reorder").permutation(len(confirmed))
        survivors: list[ConfirmationResult] = []
        for i in order:
            candidate = confirmed[int(i)]
            event = np.array([candidate.event_index])
            hot = list(candidate.gadget.reset) + list(candidate.gadget.trigger)
            _, hot_cumulative = self.harness.measure_iterations(
                hot, event, self.trigger_repeats)
            _, cold_cumulative = self.harness.measure_iterations(
                list(candidate.gadget.reset), event, self.trigger_repeats)
            per_iteration = (hot_cumulative[0] - cold_cumulative[0]) \
                / self.trigger_repeats
            original = candidate.per_iteration_delta
            if original > 0 and abs(per_iteration - original) \
                    <= tolerance * original:
                survivors.append(candidate)
        survivors.sort(key=lambda c: -c.per_iteration_delta)
        return survivors
