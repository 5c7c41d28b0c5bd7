"""Crash-safe fleet state files.

``fleet status`` trusts whatever ``fleet-state/fleet-status.json``
holds, and search checkpoints and corpus entries go through the same
writer: a writer dying mid-write must never leave a truncated or
interleaved file for the reader to parse. :func:`write_json_atomic`
is the JSON serialisation of
:func:`repro.utils.atomic.write_text_atomic` — unique same-directory
temp, fsync, atomic rename, directory fsync — plus a sweep of the
temps earlier crashed writers left in the same directory.

A writer killed at any point leaves at worst an orphaned
``.<name>.*.tmp`` alongside a still-valid state file;
:func:`sweep_stale_tmp` reclaims those on the next write.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.utils.atomic import TMP_SUFFIX, write_text_atomic

#: Prefix of every temp file the atomic writer creates.
TMP_PREFIX = "."


def sweep_stale_tmp(directory: "Path | str") -> int:
    """Remove orphaned temp files a crashed writer left; returns count."""
    directory = Path(directory)
    removed = 0
    for stale in directory.glob(f"{TMP_PREFIX}*{TMP_SUFFIX}"):
        try:
            stale.unlink()
            removed += 1
        except OSError:  # pragma: no cover - racing writer owns it
            continue
    return removed


def write_json_atomic(path: "Path | str", payload: dict) -> Path:
    """Atomically publish ``payload`` as JSON at ``path``.

    Crash-safe per the module docstring; returns the final path.
    """
    path = Path(path)
    sweep_stale_tmp(path.parent)
    return write_text_atomic(
        path, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def read_json(path: "Path | str") -> dict:
    """Load a state file written by :func:`write_json_atomic`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
