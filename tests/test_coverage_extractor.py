"""The array-based coverage extractor against the per-feature loop it replaced.

``CoverageExtractor.extract`` gathers feature ids from a per-process id
table.  ``reference_extract`` below is the loop it replaced, which
hashes every (event, unit, bucket) triple with :func:`feature_id` on
the spot; it is kept here as the oracle.  Corpus and coverage digests
are built from these samples, so the two must agree field for field,
including the Python types of every element.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cpu.signals import NUM_SIGNALS, Signal
from repro.search.coverage import (BUCKET_OFFSET, FRONTIER_EVENT,
                                   MAX_MAGNITUDE_BUCKET, NEAR_MISS_FRACTION,
                                   UNIT_OF_SIGNAL, CoverageExtractor,
                                   CoverageSample, _magnitude_buckets,
                                   feature_id, feature_table)


def _reference_bucket(delta: float, threshold: float) -> int:
    if threshold <= 0.0:
        return 1
    ratio = max(1.0, delta / threshold)
    return 1 + min(MAX_MAGNITUDE_BUCKET, int(math.log2(ratio)) // 2)


def reference_extract(weights, event_indices, thresholds, signals, deltas
                      ) -> CoverageSample:
    """The loop extractor, one ``feature_id`` hash per observed feature."""
    weights = np.asarray(weights, dtype=np.float64)
    event_indices = np.asarray(event_indices, dtype=np.int64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    signals = np.asarray(signals, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    unit_of = tuple(UNIT_OF_SIGNAL[Signal(s)]
                    for s in range(weights.shape[1]))
    features: set[int] = set()
    for unit in {unit_of[s] for s in np.flatnonzero(signals)}:
        features.add(feature_id(FRONTIER_EVENT, unit, 0))
    expected = weights @ signals
    responses = []
    for j in np.flatnonzero(deltas > thresholds):
        event = int(event_indices[j])
        responses.append((event, float(deltas[j])))
        sign = 1 if expected[j] >= 0.0 else -1
        bucket = sign * _reference_bucket(float(deltas[j]),
                                          float(thresholds[j]))
        for s in np.flatnonzero(weights[j] * signals):
            features.add(feature_id(event, unit_of[s], bucket))
    near_mask = ((deltas <= thresholds)
                 & (np.abs(expected) > NEAR_MISS_FRACTION
                    * np.maximum(thresholds, 1e-12)))
    near = tuple(int(event_indices[j]) for j in np.flatnonzero(near_mask))
    return CoverageSample(features=tuple(sorted(features)),
                          responses=tuple(responses), near=near)


def assert_same_sample(got: CoverageSample, want: CoverageSample) -> None:
    assert got.features == want.features
    assert got.responses == want.responses
    assert got.near == want.near
    assert all(type(f) is int for f in got.features)
    assert all(type(e) is int and type(d) is float
               for e, d in got.responses)
    assert all(type(e) is int for e in got.near)


CATALOG_EVENTS = 24


def _case(seed: int):
    """A random extractor set-up plus one measurement.

    Weights are signed and sparse; thresholds include zero and negative
    values; signals are sparse and sometimes all zero; deltas sit on,
    just below and far past the thresholds and the bucket edges.
    """
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 1.0, (CATALOG_EVENTS, NUM_SIGNALS))
    weights[rng.random(weights.shape) < 0.7] = 0.0
    events = np.sort(rng.choice(CATALOG_EVENTS, size=rng.integers(1, 13),
                                replace=False))
    thresholds = rng.uniform(0.1, 50.0, events.size)
    special = rng.random(events.size)
    thresholds[special < 0.1] = 0.0
    thresholds[(special >= 0.1) & (special < 0.2)] *= -1.0
    signals = rng.exponential(20.0, NUM_SIGNALS)
    signals[rng.random(NUM_SIGNALS) < 0.6] = 0.0
    if seed % 7 == 0:
        signals[:] = 0.0
    ratios = rng.choice([0.0, 0.5, 1.0, 1.5, 4.0, 16.0, 64.0, 256.0, 1e6,
                         np.nextafter(4.0, 0.0), np.nextafter(16.0, 0.0),
                         np.nextafter(64.0, 0.0)], size=events.size)
    deltas = thresholds * ratios
    free = thresholds <= 0.0
    deltas[free] = rng.choice([-1.0, 0.0, 1.0, 1e3], size=int(free.sum()))
    deltas[rng.random(events.size) < 0.2] *= -1.0
    return SimpleNamespace(weights=weights), events, thresholds, signals, \
        deltas


@pytest.mark.parametrize("seed", range(60))
def test_matches_reference_loop(seed):
    catalog, events, thresholds, signals, deltas = _case(seed)
    extractor = CoverageExtractor(catalog, events, thresholds)
    want = reference_extract(catalog.weights[events], events, thresholds,
                             signals, deltas)
    assert_same_sample(extractor.extract(signals, deltas), want)


def test_edge_cases_are_covered():
    """The random cases reach every edge the oracle must agree on."""
    seen = {"negative weight": False, "threshold <= 0": False,
            "delta == threshold": False, "past clamp": False,
            "zero signals": False, "responding": False}
    for seed in range(60):
        catalog, events, thresholds, signals, deltas = _case(seed)
        responding = deltas > thresholds
        seen["negative weight"] |= bool(
            (catalog.weights[events] * signals < 0).any())
        seen["threshold <= 0"] |= bool((responding & (thresholds <= 0)).any())
        seen["delta == threshold"] |= bool(
            ((deltas == thresholds) & (thresholds > 0)).any())
        seen["past clamp"] |= bool(
            (responding & (thresholds > 0)
             & (deltas >= thresholds * 4.0 ** (MAX_MAGNITUDE_BUCKET + 1))
             ).any())
        seen["zero signals"] |= not signals.any()
        seen["responding"] |= bool(responding.any())
    assert all(seen.values()), seen


def test_bucket_edges_match_log2():
    """Ratios on and near each power of 4 bucket like math.log2.

    ``math.log2`` rounds ratios a few ulps under 16 and 64 up to 4.0
    and 6.0, so exact powers of 4 are not the edges."""
    near = []
    for edge in 4.0 ** np.arange(1, MAX_MAGNITUDE_BUCKET + 2):
        ratio = edge
        for _ in range(64):
            ratio = np.nextafter(ratio, 0.0)
        for _ in range(129):
            near.append(ratio)
            ratio = np.nextafter(ratio, np.inf)
    rng = np.random.default_rng(5)
    ratios = np.concatenate([near, 2.0 ** rng.uniform(0.0, 10.0, 5000)])
    for threshold in (1.0, 3.0, 0.1, 0.0, -2.0):
        thresholds = np.full(ratios.size, threshold)
        deltas = ratios * (threshold if threshold > 0 else 1.0)
        want = [_reference_bucket(d, t) for d, t in zip(deltas, thresholds)]
        assert _magnitude_buckets(deltas, thresholds).tolist() == want


def test_bucket_edges_through_extract():
    """The same edges, end to end through ``extract``."""
    events = np.arange(1)
    catalog = SimpleNamespace(weights=np.ones((1, NUM_SIGNALS)))
    signals = np.zeros(NUM_SIGNALS)
    signals[Signal.LOADS] = 1.0
    for edge in (4.0, 16.0, 64.0, 256.0):
        for ratio in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1e9)):
            for threshold in (1.0, 3.0, 0.1):
                deltas = np.array([threshold * ratio])
                thresholds = np.array([threshold])
                got = CoverageExtractor(catalog, events, thresholds).extract(
                    signals, deltas)
                assert_same_sample(got, reference_extract(
                    catalog.weights, events, thresholds, signals, deltas))


def test_real_catalog_samples_match(amd_catalog):
    events = np.flatnonzero(amd_catalog.guest_sensitive)
    rng = np.random.default_rng(3)
    thresholds = rng.uniform(0.5, 20.0, events.size)
    extractor = CoverageExtractor(amd_catalog, events, thresholds)
    for _ in range(20):
        signals = rng.exponential(30.0, NUM_SIGNALS)
        signals[rng.random(NUM_SIGNALS) < 0.5] = 0.0
        expected = amd_catalog.weights[events] @ signals
        deltas = np.abs(expected) * rng.uniform(0.0, 3.0, events.size)
        assert_same_sample(
            extractor.extract(signals, deltas),
            reference_extract(amd_catalog.weights[events], events,
                              thresholds, signals, deltas))


def test_table_entries_are_feature_ids(amd_catalog):
    events = tuple(int(e) for e in np.flatnonzero(amd_catalog.guest_sensitive))
    units = tuple(dict.fromkeys(UNIT_OF_SIGNAL[Signal(s)]
                                for s in range(NUM_SIGNALS)))
    ids, frontier = feature_table(events, units)
    assert ids.shape == (len(events), len(units), 2 * BUCKET_OFFSET + 1)
    assert ids.dtype == np.uint64 and not ids.flags.writeable
    for j, event in enumerate(events):
        for u, unit in enumerate(units):
            assert ids[j, u].tolist() == [
                feature_id(event, unit, b)
                for b in range(-BUCKET_OFFSET, BUCKET_OFFSET + 1)]
    assert frontier.tolist() == [feature_id(FRONTIER_EVENT, unit, 0)
                                 for unit in units]
    assert feature_table(events, units) is feature_table(events, units)
