"""The on-disk content-addressed store of the measurement cache.

Layout mirrors git's object store: ``<root>/objects/<key[:2]>/<key>.json``.
Writes go through :func:`repro.utils.atomic.write_text_atomic`, so
concurrent campaign shards (worker processes sharing one
``--cache-dir``) never observe a torn entry — the worst race is two
workers writing the same key, which is idempotent because the content
*is* the address. A write that fails partway removes its temp file,
and opening a store sweeps temp files old enough that their writer
must be dead (a killed worker's leak), so crashes never grow the store
unboundedly.

Anything unreadable (missing file, truncated JSON, wrong schema
version, an object damaged by the ``cache.store.read`` fault point in
chaos runs) reads as a miss; the caller simply re-measures, which is
always safe because measurements are deterministic.
"""

from __future__ import annotations

import json
import time
from contextlib import suppress
from pathlib import Path

from repro.resilience import runtime as resilience
from repro.resilience.faults import corrupt_text, stable_key
from repro.telemetry import runtime as telemetry
from repro.utils.atomic import write_text_atomic

#: On-disk entry schema version; bump to invalidate every stored entry.
STORE_VERSION = 1

#: Temp files older than this are presumed orphaned by a dead writer
#: and swept on store open. Generous enough that no live writer — a
#: put is a single small write — can be swept mid-flight.
STALE_TMP_SECONDS = 3600.0


class DiskStore:
    """Content-addressed JSON entries under one cache directory."""

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.swept_tmp = self._sweep_stale_tmp()

    def path_for(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def _sweep_stale_tmp(self) -> int:
        """Remove temp files leaked by writers that died mid-put."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        cutoff = time.time() - STALE_TMP_SECONDS
        swept = 0
        for tmp in objects.glob("*/*.tmp"):
            with suppress(OSError):  # racing writers/sweepers are fine
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    swept += 1
        if swept:
            registry = telemetry.metrics()
            if registry.enabled:
                registry.counter("cache.tmp_swept").inc(swept)
        return swept

    def get(self, key: str) -> "dict | None":
        """Load one entry, or ``None`` when missing/corrupt/stale."""
        try:
            text = self.path_for(key).read_text(encoding="utf-8")
        except OSError:
            return None
        action = resilience.check("cache.store.read", key=stable_key(key))
        if action is not None and action.mode == "corrupt":
            text = corrupt_text(text, key=stable_key(key))
        try:
            payload = json.loads(text)
            if (payload.get("version") != STORE_VERSION
                    or payload.get("key") != key):
                return None
            return payload
        except ValueError:
            return None

    def put(self, key: str, payload: dict) -> int:
        """Durably persist one entry; returns the bytes written."""
        body = json.dumps({"version": STORE_VERSION, "key": key, **payload},
                          separators=(",", ":"))
        write_text_atomic(self.path_for(key), body)
        return len(body)

    def __len__(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.json"))
