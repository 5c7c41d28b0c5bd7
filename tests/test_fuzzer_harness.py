"""Tests for the execution harness and confirmation mechanisms."""

import numpy as np
import pytest

from repro.core.fuzzer import (
    ExecutionHarness,
    Gadget,
    GadgetConfirmer,
    GadgetFilter,
    minimal_covering_set,
)
from repro.core.fuzzer.confirm import ConfirmationResult


@pytest.fixture()
def harness(core):
    return ExecutionHarness(core, unroll=16, rng=0)


def _gadget(isa_catalog, reset_names, trigger_names):
    return Gadget(reset=tuple(isa_catalog.get(n) for n in reset_names),
                  trigger=tuple(isa_catalog.get(n) for n in trigger_names))


class TestHarness:
    def test_environment_configured(self, harness):
        assert harness.core.interrupts.isolated
        assert harness.core.interrupts.pinned

    def test_prolog_epilog_in_program(self, harness, isa_catalog):
        program = harness.build_program([isa_catalog.get("NOP")], repeats=1)
        mnemonics = [i.spec.mnemonic for i in program.instructions]
        assert mnemonics.count("PUSH") == 6
        assert mnemonics.count("POP") == 6
        assert mnemonics.count("CPUID") == 2

    def test_bare_program_has_no_frame(self, harness, isa_catalog):
        program = harness.build_program([isa_catalog.get("NOP")],
                                        include_frame=False)
        assert len(program) == 1

    def test_simd_gadget_moves_simd_event(self, harness, isa_catalog,
                                          amd_catalog):
        gadget = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        event = np.array([amd_catalog.index_of(
            "RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR")])
        measured = harness.measure_gadget(gadget, event)
        assert measured.deltas[0] > 8  # ~1/iteration over 16 iterations

    def test_unrelated_event_unmoved(self, harness, isa_catalog,
                                     amd_catalog):
        gadget = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        event = np.array([amd_catalog.index_of("RETIRED_X87_FP_OPS")])
        measured = harness.measure_gadget(gadget, event)
        assert measured.deltas[0] < 10  # read noise only

    def test_clflush_load_gadget_hits_refill_event(self, harness,
                                                   isa_catalog, amd_catalog):
        gadget = _gadget(isa_catalog, ["CLFLUSH m8"], ["MOV r64,m64"])
        event = np.array([amd_catalog.index_of(
            "DATA_CACHE_REFILLS_FROM_SYSTEM")])
        # Warm the line once, then the reset must keep re-missing it.
        hot = harness.measure_gadget(gadget, event)
        assert hot.deltas[0] > 8

    def test_load_without_flush_only_misses_once(self, harness, isa_catalog,
                                                 amd_catalog):
        gadget = _gadget(isa_catalog, [], ["MOV r64,m64"])
        event = np.array([amd_catalog.index_of(
            "DATA_CACHE_REFILLS_FROM_SYSTEM")])
        measured = harness.measure_gadget(gadget, event)
        assert measured.deltas[0] < 6  # one cold miss + noise

    def test_measure_iterations_shapes(self, harness, isa_catalog,
                                       amd_catalog):
        event = np.array([amd_catalog.index_of("RETIRED_UOPS")])
        per_iter, cumulative = harness.measure_iterations(
            [isa_catalog.get("ADD r64,r64")], event, iterations=8)
        assert per_iter.shape == (8, 1)
        assert cumulative.shape == (1,)
        assert cumulative[0] == pytest.approx(per_iter.sum(), abs=1e-6)

    def test_measure_iterations_digest_pinned(self, core, isa_catalog,
                                              amd_catalog):
        """Regression pin for the vectorized measure_iterations path.

        The measured-iterations stream is a pure function of the
        harness RNG root: one root draw seeds the per-iteration
        execution seeds (distinct per iteration, not a duplicated
        program list) and the interference stream. Any accidental
        change to the derivation, the batched execution, or the noise
        draws shows up as a digest change here.
        """
        import hashlib
        harness = ExecutionHarness(core, unroll=16, rng=0)
        events = np.array([
            amd_catalog.index_of("RETIRED_UOPS"),
            amd_catalog.index_of("DATA_CACHE_REFILLS_FROM_SYSTEM")])
        per_iter, cumulative = harness.measure_iterations(
            [isa_catalog.get("CLFLUSH m8"), isa_catalog.get("MOV r64,m64")],
            events, iterations=12)
        digest = hashlib.sha256(
            np.round(per_iter, 6).tobytes()
            + np.round(cumulative, 6).tobytes()).hexdigest()
        assert digest == ("32a11870b5a14775c31dc3029693972f"
                          "8131e9e779bebdd4d8435f6a683a444a")

    def test_idle_counter_reads_near_zero(self, harness, amd_catalog):
        event = np.array([amd_catalog.index_of("RETIRED_UOPS")])
        per_iter, cumulative = harness.measure_iterations([], event, 16)
        assert abs(per_iter.mean()) < 3.0

    def test_gadget_signal_profile(self, harness, isa_catalog):
        from repro.cpu.signals import Signal
        gadget = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        profile = harness.gadget_signal_profile(gadget)
        assert profile[Signal.SIMD_OPS] == pytest.approx(1.0, abs=0.1)

    def test_validation(self, core):
        with pytest.raises(ValueError):
            ExecutionHarness(core, unroll=0)


class TestConfirmer:
    def test_real_gadget_confirms(self, harness, isa_catalog, amd_catalog):
        confirmer = GadgetConfirmer(harness, executions=5, rng=0)
        gadget = _gadget(isa_catalog, ["CLFLUSH m8"], ["MOV r64,m64"])
        event = amd_catalog.index_of("DATA_CACHE_REFILLS_FROM_SYSTEM")
        result = confirmer.confirm(gadget, event)
        assert result.confirmed, result.reason

    def test_broken_reset_rejected(self, harness, isa_catalog, amd_catalog):
        # Without the flush the load only misses on the first iteration:
        # the cumulative effect does not scale with R.
        confirmer = GadgetConfirmer(harness, executions=5, rng=0)
        gadget = _gadget(isa_catalog, ["NOP"], ["MOV r64,m64"])
        event = amd_catalog.index_of("DATA_CACHE_REFILLS_FROM_SYSTEM")
        result = confirmer.confirm(gadget, event)
        assert not result.confirmed

    def test_unrelated_trigger_rejected(self, harness, isa_catalog,
                                        amd_catalog):
        confirmer = GadgetConfirmer(harness, executions=5, rng=0)
        gadget = _gadget(isa_catalog, [], ["NOP"])
        event = amd_catalog.index_of("RETIRED_X87_FP_OPS")
        result = confirmer.confirm(gadget, event)
        assert not result.confirmed
        assert "no counts" in result.reason

    def test_reset_side_effect_rejected(self, harness, isa_catalog,
                                        amd_catalog):
        # The reset itself generates most of the uops: lambda2 test.
        confirmer = GadgetConfirmer(harness, executions=5, rng=0)
        gadget = _gadget(isa_catalog, ["CPUID"], ["ADD r64,r64"])
        event = amd_catalog.index_of("RETIRED_UOPS")
        result = confirmer.confirm(gadget, event)
        assert not result.confirmed

    def test_reorder_keeps_stable_gadgets(self, harness, isa_catalog,
                                          amd_catalog):
        confirmer = GadgetConfirmer(harness, executions=5, rng=0)
        gadget = _gadget(isa_catalog, ["CLFLUSH m8"], ["MOV r64,m64"])
        event = amd_catalog.index_of("DATA_CACHE_REFILLS_FROM_SYSTEM")
        result = confirmer.confirm(gadget, event)
        survivors = confirmer.reorder_validate([result])
        assert [s.gadget.name for s in survivors] == [gadget.name]

    def test_validation(self, harness):
        with pytest.raises(ValueError):
            GadgetConfirmer(harness, executions=0)
        with pytest.raises(ValueError):
            GadgetConfirmer(harness, trigger_repeats=1)
        with pytest.raises(ValueError):
            GadgetConfirmer(harness, lambda1=(0.2, -0.2))
        # lambda2 <= 0 would silently disable the reset-side-effect test.
        for lambda2 in (0.0, -1.0):
            with pytest.raises(ValueError):
                GadgetConfirmer(harness, lambda2=lambda2)
        # A negative tolerance would drop every candidate.
        with pytest.raises(ValueError):
            GadgetConfirmer(harness).reorder_validate([], tolerance=-0.1)

    def test_event_sequence_gives_one_result_per_event(self, harness,
                                                       isa_catalog,
                                                       amd_catalog):
        confirmer = GadgetConfirmer(harness, executions=5, rng=0)
        gadget = _gadget(isa_catalog, ["CLFLUSH m8"], ["MOV r64,m64"])
        events = [amd_catalog.index_of("DATA_CACHE_REFILLS_FROM_SYSTEM"),
                  amd_catalog.index_of("RETIRED_X87_FP_OPS")]
        results = confirmer.confirm(gadget, events, gadget_index=3)
        assert [r.event_index for r in results] == events
        assert results[1].reason == "trigger adds no counts"
        single = confirmer.confirm(gadget, events[1], gadget_index=3)
        assert isinstance(single, ConfirmationResult)
        assert single.event_index == events[1]

    def test_verdicts_independent_of_dirty_state(self, core, isa_catalog,
                                                 amd_catalog):
        # Confirmation starts every gadget from a reset, warmed core
        # under its own derived stream: a CLFLUSH gadget confirmed
        # first (which leaves the data line flushed) changes nothing.
        gadget = _gadget(isa_catalog, ["CLFLUSH m8"], ["MOV r64,m64"])
        dirty = _gadget(isa_catalog, [], ["CLFLUSH m8"])
        events = [amd_catalog.index_of("DATA_CACHE_REFILLS_FROM_SYSTEM"),
                  amd_catalog.index_of("RETIRED_UOPS"),
                  amd_catalog.index_of("CACHE_LINE_FLUSHES")]

        def verdicts(results):
            return [(r.event_index, r.confirmed, r.reason,
                     r.per_iteration_delta, r.cold_median, r.hot_median)
                    for r in results]

        first = GadgetConfirmer(ExecutionHarness(core, unroll=16, rng=0),
                                executions=5, rng=7)
        alone = verdicts(first.confirm(gadget, events, gadget_index=3))
        harness = ExecutionHarness(core, unroll=16, rng=1)
        after = GadgetConfirmer(harness, executions=5, rng=7)
        after.confirm(dirty, events, gadget_index=2)
        harness.measure_gadget(dirty, np.array(events), repeats=1)
        assert verdicts(after.confirm(gadget, events, gadget_index=3)) \
            == alone


def _confirmation(gadget, event, delta):
    return ConfirmationResult(gadget=gadget, event_index=event,
                              confirmed=True, per_iteration_delta=delta,
                              cold_median=0.0, hot_median=delta * 16)


class TestFilteringAndCover:
    def test_cluster_by_signature(self, isa_catalog):
        g1 = _gadget(isa_catalog, [], ["ADD r64,r64"])
        g2 = _gadget(isa_catalog, [], ["SUB r64,r64"])  # same signature
        g3 = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        filt = GadgetFilter()
        clusters = filt.cluster([_confirmation(g1, 0, 1.0),
                                 _confirmation(g2, 0, 2.0),
                                 _confirmation(g3, 0, 3.0)])
        assert len(clusters) == 2

    def test_filter_keeps_best_per_cluster(self, isa_catalog):
        g1 = _gadget(isa_catalog, [], ["ADD r64,r64"])
        g2 = _gadget(isa_catalog, [], ["SUB r64,r64"])
        filt = GadgetFilter()
        kept = filt.filter_event([_confirmation(g1, 0, 1.0),
                                  _confirmation(g2, 0, 5.0)])
        assert len(kept) == 1
        assert kept[0].gadget.name == g2.name

    def test_best_gadget(self, isa_catalog):
        g1 = _gadget(isa_catalog, [], ["ADD r64,r64"])
        g2 = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        filt = GadgetFilter()
        best = filt.best_gadget([_confirmation(g1, 0, 1.0),
                                 _confirmation(g2, 0, 9.0)])
        assert best.gadget.name == g2.name
        with pytest.raises(ValueError):
            filt.best_gadget([])

    def test_greedy_cover_minimizes(self, isa_catalog):
        wide = _gadget(isa_catalog, [], ["ADD r64,r64"])
        narrow1 = _gadget(isa_catalog, [], ["PADDB xmm,xmm"])
        narrow2 = _gadget(isa_catalog, [], ["FSQRT"])
        per_event = {
            0: [_confirmation(wide, 0, 1.0), _confirmation(narrow1, 0, 2.0)],
            1: [_confirmation(wide, 1, 1.0)],
            2: [_confirmation(wide, 2, 1.0), _confirmation(narrow2, 2, 2.0)],
        }
        cover = minimal_covering_set(per_event)
        assert len(cover) == 1
        chosen = next(iter(cover))
        assert chosen.name == wide.name
        assert sorted(cover[chosen]) == [0, 1, 2]

    def test_cover_handles_uncoverable_events(self, isa_catalog):
        g = _gadget(isa_catalog, [], ["ADD r64,r64"])
        per_event = {0: [_confirmation(g, 0, 1.0)], 1: []}
        cover = minimal_covering_set(per_event)
        assert sum(len(v) for v in cover.values()) == 1
