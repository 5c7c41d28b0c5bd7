"""End-to-end and per-layer benchmark of the offline pipeline and the fleet.

    python3 pipebench/run.py --workload deploy --seed 1 --seconds 20 --trace 0

Workloads: ``deploy``, ``search``, ``fleet-onboard``, ``fleet-serve``
(see ``pipebench/README.md``).  Run from the repository root; the
program is imported from ``src/``.

This parent process stays light: it spawns a few set-up probes (each a
fresh interpreter that imports the program and builds the workload's
objects, then exits) and one measuring child that sets up, runs units
of work for ``--seconds`` and reports.  ``setup_s`` is the median over
all of them.  The parent then checks the child's outputs against the
record of earlier runs at the same seed and source tree, prints every
metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports
the per-layer metrics, with units alternating traced and untraced so
the tracing overhead is measured in the same run.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probes import CALIBRATION_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: cross-run records, trace dirs.
STATE = ROOT / ".pipebench"
#: Seeds and the exact traced counts recorded at them, per workload.
SEEDS = HERE / "seeds.json"

WORKLOADS = ("deploy", "search", "fleet-onboard", "fleet-serve")
#: Extra set-up-only interpreters per run; the measuring child's own
#: set-up is one more sample.
SETUP_PROBES = 2
SETUP_TIMEOUT_S = 60.0
#: Hard cap on one run, under the 180 s a run may take.
RUN_TIMEOUT_S = 170.0

END_TO_END = (("setup_s", "s"), ("unit_s", "s"), ("unit_cpu_s", "s"),
              ("op_ms_p50", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("profiler.profile_s", "s"), ("fuzzer.screening_s", "s"),
    ("campaign.worker_cpu_s", "s"), ("campaign.retries", "count"),
    ("fuzzer.confirm_s", "s"), ("fuzzer.confirm_calls", "count"),
    ("fuzzer.harness_calls", "count"), ("fuzzer.confirm_yield", "ratio"),
    ("fuzzer.filter_s", "s"), ("obfuscator.build_s", "s"),
    ("cpu.batch_evals", "count"), ("cpu.fallback_scalar_fraction", "ratio"),
    ("search.parent_cpu_s", "s"), ("search.worker_cpu_s", "s"),
    ("search.evals", "count"), ("search.minimize_evals", "count"),
    ("search.admit_ratio", "ratio"),
    ("fleet.admit_ms_p50", "ms"), ("fleet.admit_ms_p95", "ms"),
    ("vm.launch_guest_ms_p50", "ms"), ("vm.launch_guest_ms_p95", "ms"),
    ("fleet.create_buffer_ms_p50", "ms"),
    ("fleet.record_trace_ms_p50", "ms"), ("fleet.record_trace_ms_p95", "ms"),
    ("workloads.make_workload_ms_p50", "ms"),
    ("workloads.generate_blocks_ms_p50", "ms"),
    ("runtime.gc_pause_s", "s"), ("runtime.gc_gen2_count", "count"),
    ("fleet.tick_ms_p50", "ms"), ("fleet.tick_ms_p99", "ms"),
    ("fleet.top_up_s", "s"), ("fleet.provisioned_slices", "count"),
    ("fleet.admission_ms_p50", "ms"), ("fleet.ledger_s", "s"),
    ("policy.on_tick_s", "s"), ("observability.ingest_calls", "count"),
    ("observability.alerts", "count"),
    ("policy.quarantined_windows", "count"),
    ("fleet.watchdog_restarts", "count"),
    ("covered_events", "count"), ("latency_overhead_pct", "%"),
    ("unattributed_fraction", "ratio"), ("trace_overhead_s", "s"),
    ("trace_overhead_fraction", "ratio"),
)

def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child: set up, measure, report --------------------------------------


def _child(args: argparse.Namespace) -> dict:
    # The fleet logs a warning per watchdog restart (~130 per
    # fleet-serve round); the count is reported, the lines are not.
    logging.disable(logging.WARNING)
    sys.path.insert(0, str(SRC))
    from drivers import DRIVERS
    from probes import calibration_pass, peak_rss_mb
    driver = DRIVERS[args.workload](STATE)
    driver.setup(args.seed)
    setup_s = time.perf_counter() - args.spawned_at
    passes = [calibration_pass() for _ in range(3)]
    setup = {"setup_s": setup_s, "calibration_s": statistics.median(passes)}
    if args.child == "setup":
        return setup
    units = []
    start = time.perf_counter()
    while True:
        n = len(units)
        if args.trace:
            # Pairs on one input: traced, then untraced.
            traced, k = n % 2 == 0, (n // 2) % driver.INPUTS
        else:
            traced, k = False, n % driver.INPUTS
        # Each unit starts from a collected heap, so no unit pays for
        # the previous one's garbage.
        gc.collect()
        passes.append(calibration_pass())
        units.append((traced, k, driver.unit(traced, k)))
        elapsed = time.perf_counter() - start
        estimate = statistics.median(u.wall_s for _, _, u in units)
        # Start another unit only if at least half of it fits.
        if elapsed + 0.5 * estimate > args.seconds:
            break
    result = _summarise(units, peak_rss_mb(), driver.TAIL)
    result["setup"] = setup
    result["calibration_s"] = statistics.median(passes)
    return result


def _summarise(units, rss, tail) -> dict:
    """Check every unit, then reduce the run to its figures.

    A unit's outputs must equal those of the first unit on the same
    input.  Counts are kept from the first traced unit on each input
    and compared across runs only: a warm process may legitimately
    count differently (the first search in a process makes one more
    scalar batch fallback than the searches after it).
    """
    fingerprints: dict = {}
    counts: dict = {}
    problems = []
    attempted = failed = expected = 0
    for index, (traced, k, unit) in enumerate(units):
        attempted += unit.attempted
        failed += unit.failed
        expected += unit.expected_rejections
        problems.extend(f"unit {index}: {p}" for p in unit.problems)
        if fingerprints.setdefault(str(k), unit.fingerprint) \
                != unit.fingerprint:
            problems.append(f"unit {index}: outputs differ from an "
                            f"earlier unit on the same input")
            unit.problems.append("outputs differ")
        if traced:
            counts.setdefault(str(k), unit.counts)
        if unit.problems:
            # A failed output check fails every operation it covers.
            failed += unit.attempted - unit.failed
    plain = [u for traced, _, u in units if not traced]
    traced = [u for is_traced, _, u in units if is_traced]
    result = {
        "units": len(units),
        "attempted": attempted,
        "failed": failed,
        "expected_rejections": expected,
        "problems": problems,
        "fingerprint": fingerprints,
        "counts": counts,
        "peak_rss_mb": rss,
        "notes": _notes([u for _, _, u in units]),
    }
    if plain:
        ops = [d for u in plain for d in u.ops_s]
        result["end_to_end"] = {
            "unit_s": statistics.median(u.wall_s for u in plain),
            "unit_cpu_s": statistics.median(u.cpu_s for u in plain),
            "op_ms_p50": 1e3 * statistics.median(ops),
        }
        result["op_samples"] = len(ops)
        if tail is not None:
            cut = statistics.quantiles(ops, n=100)[tail - 1]
            result["op_tail"] = {"percentile": tail, "ms": 1e3 * cut,
                                 "beyond": sum(op > cut for op in ops)}
    if traced:
        layers = {name: statistics.median(
                      u.layers.get(name, u.notes.get(name, 0.0))
                      for u in traced)
                  for name, _ in PER_LAYER}
        layers["unattributed_fraction"] = statistics.median(
            max(0.0, 1.0 - u.covered_s / u.wall_s) for u in traced)
        # Units run in (traced, untraced) pairs on one input.
        walls = [u.wall_s for _, _, u in units]
        extra = [t - u for t, u in zip(walls[0::2], walls[1::2])]
        overhead = statistics.median(extra) if extra else 0.0
        layers["trace_overhead_s"] = overhead
        layers["trace_overhead_fraction"] = \
            overhead / statistics.median(u.wall_s for u in plain) \
            if plain else 0.0
        result["per_layer"] = layers
        result["overhead_measured"] = bool(plain)
    return result


def _notes(units) -> dict:
    """Workload-specific readouts: median over units."""
    keys = {key for unit in units for key in unit.notes}
    return {key: statistics.median(unit.notes[key] for unit in units
                                   if key in unit.notes)
            for key in sorted(keys)}


# -- parent: spawn, check against records, report ---------------------------


def _spawn(args: argparse.Namespace, mode: str, timeout: float) -> dict:
    spawned_at = time.perf_counter()
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--child", mode, "--spawned-at", repr(spawned_at)]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"pipebench: {mode} child exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"pipebench: {mode} child exited with "
                         f"{proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"pipebench: {mode} child printed no result")
    return json.loads(lines[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_record(args: argparse.Namespace, result: dict) -> list[str]:
    """Outputs and counts must repeat across runs at a seed.

    Records are kept per (source tree, workload, seed) and per input.
    The first run to reach an input writes its entry; every later run —
    traced or not — must match it exactly.
    """
    path = STATE / "records" / _source_digest() \
        / f"{args.workload}-seed{args.seed}.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    problems = []
    for kind, what in (("fingerprint", "outputs"), ("counts", "counts")):
        for k, value in result[kind].items():
            if record.setdefault(kind, {}).setdefault(k, value) != value:
                problems.append(f"input {k}: {what} differ from an "
                                f"earlier run at this seed")
    if not problems:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return problems


def _pinned_counts(args: argparse.Namespace, counts: dict) -> str:
    """Compare traced counts with those recorded in ``seeds.json``.

    Informational: a change may move a count on purpose (that is how a
    count-based claim is made), so a difference is reported, not failed.
    """
    pinned = json.loads(SEEDS.read_text())[args.workload]["counts"] \
        .get(str(args.seed), {})
    common = sorted(set(pinned) & set(counts))
    if not common:
        return "no counts recorded for this seed"
    differ = [k for k in common if pinned[k] != counts[k]]
    if differ:
        return f"DIFFER from the recorded counts on input(s) {differ}"
    return f"equal to the recorded counts on input(s) {common}"


def _json_digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _digest_count(payload) -> int:
    if isinstance(payload, dict):
        return sum(_digest_count(value) for value in payload.values())
    return 1


def _say(text: str = "") -> None:
    print(text, flush=True)


def _end_to_end(result: dict, setups: list[dict]) -> dict:
    """Every end-to-end metric as ``name -> (scaled, as measured)``.

    Times are scaled to the reference host state by the calibration
    pass the measuring process saw (see ``probes.calibration_pass``).
    """
    scale = CALIBRATION_REFERENCE_S / result["calibration_s"]
    figures = {"setup_s": (
        statistics.median(CALIBRATION_REFERENCE_S / one["calibration_s"]
                          * one["setup_s"] for one in setups),
        statistics.median(one["setup_s"] for one in setups))}
    for name, value in result.get("end_to_end", {}).items():
        figures[name] = (scale * value, value)
    figures["peak_rss_mb"] = (result["peak_rss_mb"],) * 2
    return figures


def _report(args, result: dict, figures: dict, correct: bool) -> None:
    notes = result["notes"]
    _say(f"pipebench {args.workload}  seed={args.seed}  "
         f"seconds={args.seconds:g}  trace={args.trace}  "
         f"units={result['units']}")
    _say(f"  host calibration pass  {result['calibration_s']:10.4f} s"
         f"     (times below are scaled to "
         f"{CALIBRATION_REFERENCE_S:g} s; as measured in brackets)")

    def line(name: str, unit: str, scaled: float, measured: float,
             extra: str = "") -> None:
        _say(f"  {name:<22s} {scaled:10.4f} {unit:<3s} "
             f"[{measured:.4f}]{extra}")

    line("setup_s", "s", *figures["setup_s"], "  (median of 3 set-ups)")
    if "unit_s" in figures:
        n = result["op_samples"]
        op_scaled, op_measured = figures["op_ms_p50"]
        cpu = figures["unit_cpu_s"]
        named = {
            "deploy": (("deploy_s", "s", op_scaled / 1e3, op_measured / 1e3),
                       ("deploy_cpu_s", "s", *cpu)),
            "search": (("search_s", "s", op_scaled / 1e3, op_measured / 1e3),
                       ("search_cpu_s", "s", *cpu)),
            "fleet-onboard": (("onboard_ms_p50", "ms", op_scaled,
                               op_measured),),
            "fleet-serve": (("serve_window_ms_p50", "ms", op_scaled,
                             op_measured),),
        }[args.workload]
        for name, unit, scaled, measured in named:
            line(name, unit, scaled, measured, f"  (n={n})")
        tail = result.get("op_tail")
        if tail:
            base = {"fleet-onboard": "onboard_ms",
                    "fleet-serve": "serve_window_ms"}[args.workload]
            scale = figures["op_ms_p50"][0] / figures["op_ms_p50"][1]
            line(f"{base}_p{tail['percentile']}", "ms", scale * tail["ms"],
                 tail["ms"], f"  (n={n}, {tail['beyond']} beyond)")
        else:
            _say(f"  (no tail percentile: {n} operation(s) a run)")
        line("unit_s", "s", *figures["unit_s"])
        line("unit_cpu_s", "s", *figures["unit_cpu_s"])
        for key, unit in (("covered_events", "count"),
                          ("latency_overhead_pct", "%"),
                          ("e2e_slices_per_s", "1/s"),
                          ("serve_only_slices_per_s", "1/s")):
            if key in notes:
                _say(f"  {key:<22s} {notes[key]:10.4f} {unit}"
                     + ("  (as measured)" if "slices" in key else ""))
    _say(f"  peak_rss_mb            {result['peak_rss_mb']:10.4f} MB")
    attempted, failed = result["attempted"], result["failed"]
    _say(f"  failed_fraction        {failed / max(attempted, 1):10.4f}"
         f"       ({failed} of {attempted} operations; "
         f"{result['expected_rejections']} expected quarantine "
         f"rejections)")
    layers = result.get("per_layer")
    if layers:
        _say("  per-layer (traced units, as measured):")
        for name, unit in PER_LAYER:
            _say(f"    {name:<34s} {layers[name]:14.6f} {unit}")
        if not result["overhead_measured"]:
            _say("    (no untraced unit fit in the run: tracing overhead "
                 "not measured)")
        if result["counts"]:
            _say("  exact counts: " + json.dumps(result["counts"],
                                                 sort_keys=True))
            _say("  counts vs pipebench/seeds.json: "
                 + _pinned_counts(args, result["counts"]))
    _say(f"  outputs: {_digest_count(result['fingerprint'])} digests over "
         f"{len(result['fingerprint'])} input(s), hashing to "
         f"{_json_digest(result['fingerprint'])[:16]}")
    for problem in result["problems"]:
        _say(f"  CHECK FAILED: {problem}")
    _say(f"  correct: {correct}")


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    if args.child:
        print(json.dumps(_child(args)), flush=True)
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pipebench: no program sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    setups = [_spawn(args, "setup", SETUP_TIMEOUT_S)
              for _ in range(SETUP_PROBES)]
    result = _spawn(args, "run",
                    RUN_TIMEOUT_S - (time.perf_counter() - started))
    setups.append(result["setup"])
    result["problems"].extend(_check_record(args, result))
    correct = not result["problems"] and result["failed"] == 0
    if result["problems"] and result["failed"] == 0:
        # A failed check fails at least the run's operations it covers.
        result["failed"] = result["attempted"]
    figures = _end_to_end(result, setups)
    _report(args, result, figures, correct)
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": figures[name][0], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
