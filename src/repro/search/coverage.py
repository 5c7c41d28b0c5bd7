"""Deterministic coverage map for gadget search.

A gadget's *coverage signature* is a set of integer feature ids over

    (event row, microarchitectural unit, response-sign bucket)

extracted from one batched screening measurement: the event rows whose
measured delta clears the screening threshold, crossed with the
microarchitectural units the gadget's signal vector actually exercised,
bucketed by response sign and log-magnitude.  A second family of
*frontier* features records which units a gadget touches at all —
independent of any event responding — so the corpus retains gadgets
that exercise rare units (crypto, cache-control, x87) before a
threshold crossing confirms them.

Feature ids are the first 8 bytes of a SHA-256 over the textual
``event|unit|bucket`` triple — never Python ``hash()`` — so maps built
in different processes, in different orders, by different worker
counts, are bit-identical.  The feature domain is finite (events ×
units × buckets, plus one frontier id per unit), so each process
hashes it once into an id table (:func:`feature_table`) and extraction
is array gathers over that table, as AFL-style fuzzers index a fixed
coverage map; :func:`feature_id` stays the definition of every entry.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.cpu.signals import Signal

#: Microarchitectural unit of each of the 40 simulator signals.  Units
#: partition the signal space coarsely enough that one gadget touches a
#: handful, finely enough that "new unit" is a meaningful frontier.
UNIT_OF_SIGNAL: dict[Signal, str] = {
    Signal.CYCLES: "pipeline",
    Signal.INSTRUCTIONS: "pipeline",
    Signal.UOPS: "pipeline",
    Signal.NOP_OPS: "pipeline",
    Signal.LOADS: "l1d",
    Signal.STORES: "l1d",
    Signal.L1D_ACCESS: "l1d",
    Signal.L1D_MISS: "l1d",
    Signal.MAB_ALLOC: "l1d",
    Signal.L1I_MISS: "frontend",
    Signal.L2_ACCESS: "l2",
    Signal.L2_MISS: "l2",
    Signal.LLC_ACCESS: "memory",
    Signal.LLC_MISS: "memory",
    Signal.MEM_READS: "memory",
    Signal.MEM_WRITES: "memory",
    Signal.BRANCHES: "branch",
    Signal.BRANCH_MISS: "branch",
    Signal.COND_BRANCHES: "branch",
    Signal.CALLS: "branch",
    Signal.RETURNS: "branch",
    Signal.ITLB_MISS: "tlb",
    Signal.DTLB_MISS: "tlb",
    Signal.TLB_FLUSHES: "tlb",
    Signal.FP_OPS: "fp",
    Signal.X87_OPS: "fp",
    Signal.MUL_OPS: "fp",
    Signal.DIV_OPS: "fp",
    Signal.SIMD_OPS: "simd",
    Signal.BIT_OPS: "simd",
    Signal.CRYPTO_OPS: "crypto",
    Signal.STACK_OPS: "stack",
    Signal.PREFETCHES: "cache-control",
    Signal.CACHE_FLUSHES: "cache-control",
    Signal.SERIALIZING: "serialize",
    Signal.PAGE_FAULTS: "host",
    Signal.SYSCALLS: "host",
    Signal.CONTEXT_SWITCHES: "host",
    Signal.INTERRUPTS: "host",
    Signal.IO_OPS: "host",
}

#: Sentinel event id for unit-frontier features (no specific event).
FRONTIER_EVENT = -1

#: Near-miss threshold fraction: an event whose *expected* (noise-free)
#: response exceeds this fraction of its screening threshold without
#: the measured delta clearing it is recorded as a near miss.
NEAR_MISS_FRACTION = 0.25

#: Magnitude buckets cap (log4 of delta/threshold, clamped).
MAX_MAGNITUDE_BUCKET = 3


def feature_id(event: int, unit: str, bucket: int) -> int:
    """Stable 64-bit id for one (event, unit, bucket) coverage triple."""
    digest = hashlib.sha256(f"{event}|{unit}|{bucket}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


#: Signed bucket range: ``±(1 .. MAX_MAGNITUDE_BUCKET + 1)``; the id
#: table's bucket axis is offset by this so bucket ``b`` sits at
#: column ``b + BUCKET_OFFSET`` (column ``BUCKET_OFFSET`` is bucket 0).
BUCKET_OFFSET = MAX_MAGNITUDE_BUCKET + 1


def _bucket_edge(k: int) -> float:
    """Smallest ratio ``r`` with ``math.log2(r) >= 2k``.

    ``math.log2`` rounds ratios a few ulps below 16 and 64 up to the
    power itself, so the edge can sit just under ``4**k``.
    """
    edge = 4.0 ** k
    while math.log2(math.nextafter(edge, 0.0)) >= 2 * k:
        edge = math.nextafter(edge, 0.0)
    return edge


#: Ratio edges of the magnitude buckets, as ``math.log2`` draws them.
_BUCKET_EDGES = np.array([_bucket_edge(k)
                          for k in range(1, MAX_MAGNITUDE_BUCKET + 1)])


def _magnitude_buckets(deltas: np.ndarray, thresholds: np.ndarray
                       ) -> np.ndarray:
    """1 + floor(log4(delta / threshold)), clamped to the bucket cap.

    Counts the bucket edges each ratio reaches, which is exactly
    ``1 + min(cap, int(math.log2(max(1, ratio))) // 2)`` element by
    element; a threshold <= 0 gives bucket 1.
    """
    positive = thresholds > 0.0
    ratio = np.divide(deltas, thresholds, out=np.ones_like(deltas),
                      where=positive)
    return 1 + (ratio[:, None] >= _BUCKET_EDGES).sum(axis=1)


@lru_cache(maxsize=None)
def feature_table(event_indices: tuple[int, ...], units: tuple[str, ...]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Every feature id of one event subset, hashed once per process.

    Returns ``(ids, frontier)``: ``ids[j, u, b + BUCKET_OFFSET]`` is
    ``feature_id(event_indices[j], units[u], b)`` for every signed
    bucket ``b``, and ``frontier[u]`` is ``feature_id(FRONTIER_EVENT,
    units[u], 0)``.  Both are ``uint64`` and read-only.
    """
    buckets = range(-BUCKET_OFFSET, BUCKET_OFFSET + 1)
    ids = np.array([[[feature_id(event, unit, b) for b in buckets]
                     for unit in units] for event in event_indices],
                   dtype=np.uint64).reshape(
                       len(event_indices), len(units), len(buckets))
    frontier = np.array([feature_id(FRONTIER_EVENT, unit, 0)
                         for unit in units], dtype=np.uint64)
    ids.flags.writeable = False
    frontier.flags.writeable = False
    return ids, frontier


@dataclass(frozen=True)
class CoverageSample:
    """One gadget's extracted coverage: the unit of corpus feedback.

    ``features`` are sorted feature ids; ``responses`` are
    ``(catalog event index, measured delta)`` pairs for every event
    that cleared its screening threshold; ``near`` are catalog event
    indices whose noise-free response came within
    :data:`NEAR_MISS_FRACTION` of the threshold without clearing it —
    the scheduler's set-cover hints.
    """

    features: tuple[int, ...]
    responses: tuple[tuple[int, float], ...]
    near: tuple[int, ...]


class CoverageExtractor:
    """Extracts :class:`CoverageSample` from screening measurements.

    Built once per (catalog, event subset, thresholds); extraction is a
    pure function of the measured ``(signals, deltas)`` pair, so the
    same gadget evaluated in any worker yields the same sample.  The id
    table is fetched on the first extraction, not here: search builds
    an extractor per chunk, and one that is never used hashes nothing.
    """

    def __init__(self, catalog, event_indices, thresholds) -> None:
        self.event_indices = np.asarray(event_indices, dtype=np.int64)
        self.thresholds = np.asarray(thresholds, dtype=np.float64)
        if self.thresholds.shape != self.event_indices.shape:
            raise ValueError("thresholds must align with event_indices")
        self.weights = np.asarray(
            catalog.weights[self.event_indices], dtype=np.float64)
        unit_of = [UNIT_OF_SIGNAL[Signal(s)]
                   for s in range(self.weights.shape[1])]
        self._units = tuple(dict.fromkeys(unit_of))
        #: Unit column of each signal.
        self._unit_index = np.array([self._units.index(u) for u in unit_of],
                                    dtype=np.intp)
        self._table: "tuple[np.ndarray, np.ndarray] | None" = None

    def extract(self, signals, deltas) -> CoverageSample:
        """Coverage of one measurement.

        ``signals`` is the gadget's raw program signal vector;
        ``deltas`` the measured per-event screening deltas (aligned
        with ``event_indices``).
        """
        if self._table is None:
            self._table = feature_table(tuple(self.event_indices.tolist()),
                                        self._units)
        ids, frontier = self._table
        signals = np.asarray(signals, dtype=np.float64)
        deltas = np.asarray(deltas, dtype=np.float64)

        # Unit frontier: which units does this gadget exercise at all?
        found = [frontier[self._unit_index[signals != 0.0]]]

        # Noise-free expected response carries the sign (weights may be
        # negative); measured deltas decide *whether* an event responded,
        # with exact parity to campaign screening.  Each responding
        # event contributes one feature per unit its weighted signal
        # touches.
        expected = self.weights @ signals
        responding = np.flatnonzero(deltas > self.thresholds)
        if responding.size:
            sign = np.where(expected[responding] >= 0.0, 1, -1)
            buckets = sign * _magnitude_buckets(deltas[responding],
                                                self.thresholds[responding])
            rows, touched = np.nonzero(self.weights[responding] * signals)
            found.append(ids[responding[rows], self._unit_index[touched],
                             buckets[rows] + BUCKET_OFFSET])

        near_mask = ((deltas <= self.thresholds)
                     & (np.abs(expected) > NEAR_MISS_FRACTION
                        * np.maximum(self.thresholds, 1e-12)))
        return CoverageSample(
            features=tuple(np.unique(np.concatenate(found)).tolist()),
            responses=tuple(zip(self.event_indices[responding].tolist(),
                                deltas[responding].tolist())),
            near=tuple(self.event_indices[near_mask].tolist()))


class CoverageMap:
    """Order-invariant multiset of observed coverage features.

    The map records how many corpus-admitted samples hit each feature;
    rarity (inverse hit count) feeds scheduler energies.  Its digest is
    a SHA-256 over the sorted feature ids, so two runs that observed
    the same feature *set* — in any order, from any worker partition —
    have equal digests.
    """

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, fid: int) -> bool:
        return fid in self._counts

    def count(self, fid: int) -> int:
        return self._counts.get(fid, 0)

    def new_features(self, features) -> tuple[int, ...]:
        """The subset of ``features`` not yet in the map (sorted)."""
        return tuple(sorted(f for f in set(features)
                            if f not in self._counts))

    def observe(self, features) -> int:
        """Record one sample's features; returns how many were new."""
        new = 0
        for fid in set(features):
            if fid not in self._counts:
                new += 1
            self._counts[fid] = self._counts.get(fid, 0) + 1
        return new

    def rarity(self, features) -> float:
        """Mean inverse hit count over ``features`` (0 for empty)."""
        fids = set(features)
        if not fids:
            return 0.0
        return sum(1.0 / self._counts.get(fid, 1) for fid in fids) / len(fids)

    def digest(self) -> str:
        """SHA-256 hex digest of the sorted covered-feature set."""
        h = hashlib.sha256()
        for fid in sorted(self._counts):
            h.update(fid.to_bytes(8, "big"))
        return h.hexdigest()

    def to_payload(self) -> dict:
        return {"counts": {str(fid): count
                           for fid, count in sorted(self._counts.items())}}

    @classmethod
    def from_payload(cls, payload: dict) -> "CoverageMap":
        cmap = cls()
        for fid, count in payload.get("counts", {}).items():
            cmap._counts[int(fid)] = int(count)
        return cmap
