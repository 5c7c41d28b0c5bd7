"""Tests for the analysis utilities (trace MI, stats, overhead)."""

import numpy as np
import pytest

from repro.analysis import (
    app_cycles_per_slice,
    gaussian_fit,
    measure_overhead,
    qq_points,
    shapiro_francia_w,
    trace_mutual_information,
)
from repro.core.obfuscator.injector import InjectionReport
from repro.cpu.signals import NUM_SIGNALS, Signal


class TestTraceMi:
    def test_identical_traces_high_mi(self, rng):
        clean = rng.normal(100, 10, (50, 20))
        mi = trace_mutual_information(clean, clean.copy())
        assert mi > 5.0

    def test_independent_noise_kills_mi(self, rng):
        clean = rng.normal(100, 10, (50, 20))
        noised = clean + rng.normal(0, 1000, clean.shape)
        assert trace_mutual_information(clean, noised) < 0.1

    def test_mi_decreases_with_noise_scale(self, rng):
        clean = rng.normal(100, 10, (80, 10))
        values = []
        for scale in (1.0, 10.0, 100.0):
            noised = clean + rng.normal(0, scale, clean.shape)
            values.append(trace_mutual_information(clean, noised))
        assert values[0] > values[1] > values[2]

    def test_per_slice_output(self, rng):
        clean = rng.normal(0, 1, (30, 7))
        out = trace_mutual_information(clean, clean + 0.1, per_slice=True)
        assert out.shape == (7,)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            trace_mutual_information(np.zeros((5, 3)), np.zeros((5, 4)))
        with pytest.raises(ValueError):
            trace_mutual_information(np.zeros((2, 3)), np.zeros((2, 3)))


class TestStats:
    def test_gaussian_fit(self, rng):
        mu, sigma = gaussian_fit(rng.normal(5.0, 2.0, 10_000))
        assert mu == pytest.approx(5.0, abs=0.1)
        assert sigma == pytest.approx(2.0, abs=0.1)

    def test_qq_points_straight_for_normal(self, rng):
        theoretical, sample = qq_points(rng.normal(0, 1, 2000))
        assert np.corrcoef(theoretical, sample)[0, 1] > 0.995

    def test_shapiro_francia_discriminates(self, rng):
        normal_w = shapiro_francia_w(rng.normal(0, 1, 2000))
        heavy_w = shapiro_francia_w(rng.standard_cauchy(2000))
        assert normal_w > 0.99
        assert heavy_w < normal_w

    def test_qq_points_pinned(self):
        """Values the scipy-based ``qq_points`` produced, to ~1e-16:
        the stdlib inverse normal CDF differs only in the last bits."""
        theoretical, sample = qq_points(
            np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]))
        np.testing.assert_allclose(theoretical, [
            -1.5341205443525463, -0.887146559018876, -0.4887764111146695,
            -0.1573106846101707, 0.1573106846101707, 0.4887764111146695,
            0.887146559018876, 1.5341205443525463], rtol=1e-12, atol=0)
        np.testing.assert_allclose(sample, [
            -1.118298268150525, -1.118298268150525, -0.7293249574894728,
            -0.3403516468284206, 0.048621663832631515, 0.4375949744936836,
            0.8265682851547358, 1.9934882171378923], rtol=1e-12, atol=0)
        theoretical, _ = qq_points(np.arange(1000.0))
        np.testing.assert_allclose(theoretical[[0, 1, 499, 998, 999]], [
            -3.2905267314918945, -2.9677379253417833,
            -0.0012533144654325557, 2.9677379253417944,
            3.2905267314919255], rtol=1e-12, atol=0)

    def test_shapiro_francia_pinned(self):
        rng = np.random.default_rng(0)
        assert shapiro_francia_w(rng.normal(size=200)) \
            == pytest.approx(0.9907862535488879, rel=1e-12)
        assert shapiro_francia_w(rng.exponential(size=200)) \
            == pytest.approx(0.7786678007427854, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_fit(np.array([1.0]))
        with pytest.raises(ValueError):
            qq_points(np.array([1.0, 1.0, 1.0]))  # zero variance


class TestOverhead:
    def _report(self, slices, cycles_per_slice):
        reps = np.ones(slices)
        return InjectionReport(
            repetitions=reps,
            injected_reference_counts=reps * 128,
            injected_cycles=np.full(slices, cycles_per_slice),
            clipped_slices=0)

    def test_app_cycles_model(self):
        matrix = np.zeros((2, NUM_SIGNALS))
        matrix[:, Signal.UOPS] = 400.0
        matrix[:, Signal.LLC_MISS] = 1.0
        cycles = app_cycles_per_slice(matrix)
        assert cycles[0] == pytest.approx(400 / 4 + 140)

    def test_latency_counts_active_slices_only(self):
        matrix = np.zeros((10, NUM_SIGNALS))
        matrix[:5, Signal.UOPS] = 1e7  # active first half
        report = self._report(10, cycles_per_slice=1e5)
        overhead = measure_overhead(matrix, report, slice_s=1e-3)
        # Injected cycles only over active app cycles: 5e5 / 1.25e7.
        assert overhead.latency_overhead == pytest.approx(
            5e5 / (5 * 1e7 / 4))

    def test_cpu_usage_counts_everything(self):
        matrix = np.zeros((10, NUM_SIGNALS))
        report = self._report(10, cycles_per_slice=3.1e5)
        overhead = measure_overhead(matrix, report, slice_s=1e-3,
                                    frequency_hz=3.1e9)
        assert overhead.cpu_usage_clean == pytest.approx(0.0)
        # 10 x 3.1e5 injected cycles over 10 x 3.1e6 capacity = 10%.
        assert overhead.cpu_usage_overhead == pytest.approx(0.1, rel=0.01)

    def test_idle_app_zero_latency_overhead(self):
        matrix = np.zeros((4, NUM_SIGNALS))
        report = self._report(4, cycles_per_slice=1e6)
        overhead = measure_overhead(matrix, report, slice_s=1e-3)
        assert overhead.latency_overhead == 0.0
