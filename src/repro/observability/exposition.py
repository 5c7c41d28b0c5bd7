"""Exposition: OpenMetrics text rendering and JSONL snapshot export.

Two deterministic serializations of a metrics snapshot:

- :func:`render_openmetrics` produces the OpenMetrics text format
  (counter ``_total`` samples, cumulative ``_bucket{le=...}`` series,
  ``# EOF`` terminator) so any Prometheus-compatible scraper can read
  a run's metrics straight off disk;
- :class:`SnapshotExporter` appends numbered snapshots to a JSONL
  file. Sequence numbers start at 0 and increment per export, so two
  identical runs produce byte-identical export files apart from the
  metric values themselves — and bit-identical ones when the metrics
  are deterministic too.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.utils.atomic import write_text_atomic

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """Sanitize a registry name into an OpenMetrics metric name."""
    name = _NAME_SANITIZER.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_openmetrics(snapshot: dict) -> str:
    """The OpenMetrics text exposition of one metrics snapshot."""
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        sample = metric_name(name)
        lines.append(f"# TYPE {sample} counter")
        lines.append(
            f"{sample}_total {_fmt(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("gauges", {})):
        sample = metric_name(name)
        lines.append(f"# TYPE {sample} gauge")
        lines.append(f"{sample} {_fmt(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        payload = snapshot["histograms"][name]
        sample = metric_name(name)
        lines.append(f"# TYPE {sample} histogram")
        cumulative = 0
        for bound, count in zip(payload["bounds"], payload["counts"]):
            cumulative += int(count)
            lines.append(
                f'{sample}_bucket{{le="{float(bound):g}"}} {cumulative}')
        cumulative += int(payload["counts"][len(payload["bounds"])])
        lines.append(f'{sample}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{sample}_sum {_fmt(payload['total'])}")
        lines.append(f"{sample}_count {int(payload['count'])}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(snapshot: dict, path: "str | Path") -> Path:
    """Atomically write the OpenMetrics exposition to ``path``."""
    return write_text_atomic(path, render_openmetrics(snapshot))


class SnapshotExporter:
    """Appends numbered metric snapshots to a JSONL file."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.seq = 0

    def export(self, snapshot: dict) -> int:
        """Append one snapshot; returns its sequence number."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"seq": self.seq, "metrics": snapshot},
                          sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        seq = self.seq
        self.seq += 1
        return seq


def read_export(path: "str | Path") -> list[dict]:
    """Parse a snapshot export file back into its records."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records
