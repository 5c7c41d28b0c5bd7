"""Integration tests for the EventFuzzer orchestrator."""

import numpy as np
import pytest

from repro.core.fuzzer import EventFuzzer
from repro.core.fuzzer.fuzzer import FuzzingReport


@pytest.fixture(scope="module")
def small_report(amd_catalog_module):
    catalog = amd_catalog_module
    events = [catalog.index_of(n) for n in
              ("RETIRED_UOPS", "RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR",
               "DATA_CACHE_REFILLS_FROM_SYSTEM", "LS_DISPATCH",
               "RETIRED_X87_FP_OPS", "MUL_OPS_RETIRED",
               "RETIRED_COND_BRANCHES", "CACHE_LINE_FLUSHES")]
    fuzzer = EventFuzzer(gadget_budget=800, confirm_per_event=8, rng=11)
    return fuzzer.fuzz(np.array(events)), catalog


@pytest.fixture(scope="module")
def amd_catalog_module():
    from repro.cpu.events import processor_catalog
    return processor_catalog("amd-epyc-7252")


class TestFuzzingReport:
    def test_all_steps_timed(self, small_report):
        report, _ = small_report
        assert set(report.step_seconds) == {
            "cleanup", "generation_execution", "confirmation", "filtering"}
        assert all(v >= 0 for v in report.step_seconds.values())

    def test_search_space_scale(self, small_report):
        report, _ = small_report
        assert 10e6 < report.search_space_size < 13e6

    def test_throughput_positive(self, small_report):
        report, _ = small_report
        assert report.throughput_gadgets_per_second > 0

    def test_ubiquitous_event_has_most_gadgets(self, small_report):
        report, catalog = small_report
        most = report.most_fuzzed_event()
        # Events modified by nearly all instructions dominate (paper:
        # instruction-count events are the most vulnerable).
        assert catalog.specs[most].name in ("RETIRED_UOPS", "LS_DISPATCH")
        stats = report.gadget_count_stats()
        assert stats["max"] >= stats["mean"] >= stats["median"]

    def test_most_events_get_confirmed_gadgets(self, small_report):
        report, _ = small_report
        confirmed = sum(1 for v in report.confirmed_per_event.values() if v)
        assert confirmed >= 6  # of the 8 hand-picked events

    def test_covering_set_smaller_than_event_count(self, small_report):
        report, _ = small_report
        covered = {e for events in report.covering_set.values()
                   for e in events}
        assert len(report.covering_set) <= len(covered)
        confirmed = {e for e, v in report.confirmed_per_event.items() if v}
        assert covered == confirmed

    def test_confirmed_gadgets_have_positive_delta(self, small_report):
        report, _ = small_report
        for results in report.confirmed_per_event.values():
            for result in results:
                assert result.confirmed
                assert result.per_iteration_delta > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EventFuzzer(gadget_budget=0)
        with pytest.raises(ValueError):
            EventFuzzer(shard_size=0)
        fuzzer = EventFuzzer(gadget_budget=10, rng=0)
        with pytest.raises(ValueError):
            fuzzer.fuzz(np.array([], dtype=int))


class TestConfirmationPlan:
    def test_one_harness_call_per_path_per_gadget(self, make_fuzzer,
                                                  fuzz_events):
        # Four (event, gadget) pairs over three distinct gadgets: each
        # gadget is measured once for all its events, cold and hot.
        fuzzer = make_fuzzer(confirm_per_event=8)
        e0, e1, e2, _ = fuzz_events
        screened = {e0: [(0, 5.0), (1, 4.0)], e1: [(0, 3.0), (2, 1.0)],
                    e2: [(1, 2.0)]}
        harness = fuzzer.confirmer.harness
        measure = harness.measure_iterations
        calls = []
        before_reorder = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return measure(*args, **kwargs)

        reorder = fuzzer.confirmer.reorder_validate

        def spy(results):
            before_reorder.append(len(calls))
            return reorder(results)

        harness.measure_iterations = counting
        fuzzer.confirmer.reorder_validate = spy
        fuzzer.finalize(fuzzer.run_cleanup(), screened,
                        np.array([e0, e1, e2]), {})
        assert before_reorder == [2 * 3]
        assert [sorted(events) for events in calls[:6]] == [
            sorted([e0, e1])] * 2 + [sorted([e0, e2])] * 2 + [[e1]] * 2


def make_report(**overrides):
    """A minimal FuzzingReport for edge-case accessors."""
    fields = dict(microarch="amd-epyc-7252", cleanup=None,
                  search_space_size=0, gadgets_tested=0, events_fuzzed=0,
                  step_seconds={}, screened_per_event={},
                  confirmed_per_event={})
    fields.update(overrides)
    return FuzzingReport(**fields)


class TestFuzzingReportEdgeCases:
    def test_gadget_count_stats_on_empty_report(self):
        stats = make_report().gadget_count_stats()
        assert stats == {"mean": 0.0, "median": 0.0, "max": 0.0}

    def test_throughput_with_zero_generation_time(self):
        report = make_report(
            gadgets_tested=100, events_fuzzed=4,
            step_seconds={"generation_execution": 0.0})
        assert report.throughput_gadgets_per_second == 0.0

    def test_throughput_with_missing_generation_step(self):
        report = make_report(gadgets_tested=100, events_fuzzed=4,
                             step_seconds={"cleanup": 1.0})
        assert report.throughput_gadgets_per_second == 0.0

    def test_most_fuzzed_event_on_empty_report_raises(self):
        with pytest.raises(ValueError, match="no events"):
            make_report().most_fuzzed_event()

    def test_total_seconds_sums_steps(self):
        report = make_report(step_seconds={"cleanup": 0.5,
                                           "confirmation": 1.25})
        assert report.total_seconds == pytest.approx(1.75)
