"""The four workloads, each driven through the program's public API.

The program is imported here, at module level, so the set-up time a
run reports includes the imports.  Every driver builds its inputs from
the benchmark seed in :meth:`setup`, then runs *units* of work: one deploy, one search, or
one fleet replay round.  A unit reports its wall and CPU time, the
latencies of its user-facing operations, a fingerprint of everything it
produced (digests that must repeat exactly at a seed), and — when
traced — per-layer times from a :class:`probes.Probe` plus the exact
counts the program's own telemetry kept.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro import telemetry
from repro.analysis import measure_overhead
from repro.core import Aegis
from repro.core.artifacts import DeploymentArtifact
from repro.core.fuzzer import EventFuzzer
from repro.core.fuzzer.campaign import FuzzingCampaign
from repro.core.fuzzer.confirm import GadgetConfirmer
from repro.core.fuzzer.generator import ExecutionHarness
from repro.cpu.events import processor_catalog
from repro.fleet import (AttackerProfile, FleetControlPlane, LoadGenerator,
                         default_artifact, default_specs, loadgen,
                         resolve_profile)
from repro.fleet.admission import AdmissionController
from repro.fleet.ledger import FleetLedger
from repro.fleet.policy import DefensePolicyEngine
from repro.fleet.provisioner import NoiseProvisioner
from repro.observability import runtime as observability
from repro.observability.runtime import ObservabilityRuntime
from repro.search import CoverageSearch
from repro.utils.rng import derive_stream
from repro.vm.hypervisor import Hypervisor
from repro.workloads import WebsiteWorkload
from repro.workloads.base import Workload

from probes import OpTimer, Probe, cpu_seconds


@dataclass
class Unit:
    """What one unit of work measured and produced."""

    wall_s: float
    cpu_s: float
    ops_s: list[float]
    attempted: int
    failed: int = 0
    expected_rejections: int = 0
    fingerprint: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    covered_s: float = 0.0
    notes: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1e3, q)) \
        if values else 0.0


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _counters(snapshot: dict) -> dict:
    return dict(snapshot.get("counters", {}))


class _TraceDir:
    """A telemetry session with a scratch trace directory.

    Campaign and search workers write per-process metric files there;
    merging them gives counters covering the workers too.  The
    directory lives under the checkout and is removed afterwards.
    """

    def __init__(self, root: Path) -> None:
        self.root = root

    def __enter__(self):
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="trace-", dir=self.root))
        self._session = telemetry.session(trace_dir=self.path)
        self._session.__enter__()
        self.counters: dict = {}
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._session.__exit__(*exc)
            if exc[0] is None:
                run = telemetry.merge_run(self.path, write=False)
                self.counters = _counters(run.metrics)
        finally:
            shutil.rmtree(self.path, ignore_errors=True)


def _batch_layers(counters: dict) -> dict:
    evals = counters.get("batch.evals", 0)
    fallback = counters.get("batch.fallback_scalar", 0)
    return {"cpu.batch_evals": evals,
            "cpu.fallback_scalar_fraction": fallback / evals
            if evals else 0.0}


# -- deploy ----------------------------------------------------------------


class DeployDriver:
    """profile -> fuzz -> build obfuscator, then obfuscate clean windows."""

    name = "deploy"
    #: Too few deploys a run leave ten samples beyond any tail.
    TAIL = None
    #: Distinct deploy inputs per run, cycled through by the units.  The
    #: covering set (and so the confirmation work) differs a lot from
    #: one fuzzing seed to the next; a run's median over six inputs is
    #: what keeps its figure steady from seed to seed.
    INPUTS = 6
    SECRETS = 6
    RUNS_PER_SECRET = 6
    GADGET_BUDGET = 2000
    EPSILON = 0.5
    #: Events whose leakage reaches 1.5 bits count as vulnerable (the
    #: default is 0.1 bits, which flags ~190 events and makes one
    #: deploy take ~10 s on a 2-core host).  Confirmation is still
    #: ~65% of a deploy.
    MI_THRESHOLD_BITS = 1.5
    WORKERS = 2
    WINDOW_S = 3.0
    SLICE_S = 0.01

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def setup(self, seed: int) -> None:
        self.workload = WebsiteWorkload()
        self.secrets = self.workload.secrets[:self.SECRETS]
        self.seeds = []
        self.clean = []
        for k in range(self.INPUTS):
            self.seeds.append(int(derive_stream(seed, "deploy", k)
                                  .integers(2**31)))
            # One clean 3 s window per profiled secret: the customer's
            # traffic the deployed obfuscator is then applied to.
            windows = []
            for index, secret in enumerate(self.secrets):
                blocks = self.workload.generate_blocks(
                    secret, derive_stream(seed, "clean-window", k, index),
                    duration_s=self.WINDOW_S, slice_s=self.SLICE_S)
                windows.append(np.stack([b.signals for b in blocks]))
            self.clean.append(windows)

    def _aegis(self, k: int):
        return Aegis(self.workload, runs_per_secret=self.RUNS_PER_SECRET,
                     gadget_budget=self.GADGET_BUDGET, epsilon=self.EPSILON,
                     mi_threshold_bits=self.MI_THRESHOLD_BITS,
                     workers=self.WORKERS, rng=self.seeds[k])

    def unit(self, traced: bool, k: int) -> Unit:
        with ExitStack() as stack:
            if traced:
                trace = stack.enter_context(_TraceDir(self.scratch))
                probe = stack.enter_context(Probe())
                probe.time(Aegis, "profile", "profiler.profile")
                probe.count(FuzzingCampaign, "run", "fuzzer.campaign",
                            keep=lambda args, result: args[0].stats)
                probe.time(GadgetConfirmer, "confirm", "fuzzer.confirm")
                probe.time(GadgetConfirmer, "reorder_validate",
                           "fuzzer.reorder")
                probe.count(ExecutionHarness, "measure_iterations",
                            "fuzzer.harness_calls")
                probe.time(Aegis, "build_obfuscator", "obfuscator.build")
            own0, kids0 = cpu_seconds()
            start = time.perf_counter()
            deployment = self._aegis(k).deploy(secrets=self.secrets)
            deploy_s = time.perf_counter() - start
            obfuscator = deployment.obfuscator
            noised = []
            overheads = []
            for matrix in self.clean[k]:
                noised.append(obfuscator.obfuscate_matrix(
                    matrix, self.SLICE_S).tobytes())
                overheads.append(measure_overhead(
                    matrix, obfuscator.last_report,
                    self.SLICE_S).latency_overhead)
            artifact = DeploymentArtifact.from_deployment(deployment)
            wall = time.perf_counter() - start
            own1, kids1 = cpu_seconds()
        unit = Unit(wall_s=wall, cpu_s=(own1 - own0) + (kids1 - kids0),
                    ops_s=[deploy_s], attempted=1)
        unit.fingerprint = {
            "artifact_sha256": digest(artifact.to_json().encode()),
            "noised_windows_sha256": digest(*noised)}
        unit.notes = {
            "covered_events": deployment.covered_events,
            "latency_overhead_pct": 100.0 * float(np.mean(overheads))}
        if deployment.covered_events < 1:
            unit.problems.append("deploy covered no vulnerable event")
        if traced:
            self._trace_readout(unit, probe, trace, deployment,
                                kids1 - kids0)
        return unit

    @staticmethod
    def _trace_readout(unit: Unit, probe: Probe, trace: _TraceDir,
                       deployment, worker_cpu_s: float) -> None:
        steps = deployment.fuzzing_report.step_seconds
        stats = probe.results["fuzzer.campaign"][0]
        confirm_calls = probe.n("fuzzer.confirm")
        confirm_s = probe.total("fuzzer.confirm") \
            + probe.total("fuzzer.reorder")
        confirmed = trace.counters.get("fuzz.confirmed", 0)
        unit.layers = {
            "profiler.profile_s": probe.total("profiler.profile"),
            "fuzzer.screening_s": steps.get("generation_execution", 0.0),
            "campaign.worker_cpu_s": worker_cpu_s,
            "campaign.retries": stats.retries + stats.timeouts
            + stats.pool_restarts,
            "fuzzer.confirm_s": confirm_s,
            "fuzzer.confirm_calls": confirm_calls,
            "fuzzer.harness_calls": probe.calls["fuzzer.harness_calls"],
            "fuzzer.confirm_yield": confirmed / confirm_calls
            if confirm_calls else 0.0,
            "fuzzer.filter_s": steps.get("filtering", 0.0),
            "obfuscator.build_s": probe.total("obfuscator.build"),
            **_batch_layers(trace.counters),
        }
        # Screening and filtering are timed by the program's own step
        # clock, outside every wrapped call, so they add to coverage.
        unit.covered_s = probe.covered_s \
            + steps.get("generation_execution", 0.0) \
            + steps.get("filtering", 0.0)
        unit.counts = {
            "fuzzer.harness_calls": probe.calls["fuzzer.harness_calls"],
            "fuzzer.confirm_calls": confirm_calls,
            "fuzz.confirmed": confirmed,
            "cpu.batch_evals": trace.counters.get("batch.evals", 0),
            "cpu.batch_fallback_scalar":
                trace.counters.get("batch.fallback_scalar", 0),
            "campaign.retries": unit.layers["campaign.retries"],
        }


# -- search ----------------------------------------------------------------


class SearchDriver:
    """CoverageSearch over every guest-sensitive AMD event."""

    name = "search"
    INPUTS = 1
    TAIL = None
    PROCESSOR = "amd-epyc-7252"
    MAX_EVALS = 2000
    WORKERS = 2

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def setup(self, seed: int) -> None:
        catalog = processor_catalog(self.PROCESSOR)
        self.events = np.flatnonzero(catalog.guest_sensitive)
        fuzzer = EventFuzzer(processor_model=self.PROCESSOR,
                             gadget_budget=self.MAX_EVALS, rng=seed)
        self.config = fuzzer.search_config(self.events)

    def unit(self, traced: bool, k: int) -> Unit:
        with ExitStack() as stack:
            if traced:
                trace = stack.enter_context(_TraceDir(self.scratch))
            search = CoverageSearch(self.config, max_evals=self.MAX_EVALS,
                                    workers=self.WORKERS)
            own0, kids0 = cpu_seconds()
            start = time.perf_counter()
            result = search.run()
            wall = time.perf_counter() - start
            own1, kids1 = cpu_seconds()
        unit = Unit(wall_s=wall, cpu_s=(own1 - own0) + (kids1 - kids0),
                    ops_s=[wall], attempted=1)
        unit.fingerprint = {
            "corpus_replay_digest": result.corpus_replay_digest,
            "coverage_digest": result.coverage_digest}
        unit.notes = {"covered_events": result.covered_count}
        if result.covered_count < 1:
            unit.problems.append("search covered no event")
        if traced:
            unit.layers = {
                "search.parent_cpu_s": own1 - own0,
                "search.worker_cpu_s": kids1 - kids0,
                "search.evals": result.evals,
                "search.minimize_evals": result.minimize_evals,
                "search.admit_ratio": result.corpus_size / result.evals
                if result.evals else 0.0,
                **_batch_layers(trace.counters),
            }
            unit.counts = {
                "search.evals": result.evals,
                "search.minimize_evals": result.minimize_evals,
                "search.rounds": result.rounds,
                "search.corpus_size": result.corpus_size,
                "cpu.batch_evals": trace.counters.get("batch.evals", 0),
                "cpu.batch_fallback_scalar":
                    trace.counters.get("batch.fallback_scalar", 0),
            }
        return unit


# -- fleet -----------------------------------------------------------------


class FleetDriver:
    """One replay round: fresh plane, admit, record, serve, tick.

    A round is one ``LoadGenerator.run`` on a new control plane, with
    op timers on ``admit_tenant``, ``record_trace`` and
    ``serve_window``.  Every round must reproduce the first round's
    per-tenant read digests and budget digest bit for bit.
    """

    name = "fleet"
    INPUTS = 1
    TENANTS = 8
    WINDOWS = 2
    SLICES = 500
    POLICY = None
    ATTACKERS: dict = {}
    OBSERVE = False

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.policy = resolve_profile(self.POLICY)
        self.artifact = default_artifact()
        self.specs = default_specs(self.TENANTS)
        self.attackers = {tenant: AttackerProfile(kind=kind)
                          for tenant, kind in self.ATTACKERS.items()}
        # Built once here so set-up time includes plane construction;
        # every round then builds its own.
        FleetControlPlane(self.artifact, seed=seed,
                          defense_policy=self.policy).close()

    def _generator(self, plane):
        return LoadGenerator(plane, self.specs, windows=self.WINDOWS,
                             slices_per_window=self.SLICES,
                             attackers=self.attackers or None)

    def _scopes(self, stack: ExitStack) -> None:
        if self.OBSERVE:
            stack.enter_context(observability.session())

    def _check(self, plane, report) -> list[str]:
        return []

    def unit(self, traced: bool, k: int) -> Unit:
        admit, record = OpTimer(), OpTimer()
        served: list[float] = []
        record_trace = loadgen.record_trace
        loadgen.record_trace = record.wrap(record_trace)
        try:
            with ExitStack() as stack:
                if traced:
                    stack.enter_context(telemetry.session())
                self._scopes(stack)
                if traced:
                    # Class-level probes go in before the plane exists,
                    # so the op timers below wrap the probed methods.
                    probe = stack.enter_context(Probe())
                    restarts = self._instrument(probe)
                plane = FleetControlPlane(self.artifact, seed=self.seed,
                                          defense_policy=self.policy)
                serve = plane.serve_window

                def timed_serve(tenant_id, event_matrix):
                    start = time.perf_counter()
                    decision, out = serve(tenant_id, event_matrix)
                    if decision:
                        served.append(time.perf_counter() - start)
                    return decision, out

                plane.admit_tenant = admit.wrap(plane.admit_tenant)
                plane.serve_window = timed_serve
                generator = self._generator(plane)
                own0, kids0 = cpu_seconds()
                start = time.perf_counter()
                report = generator.run()
                wall = time.perf_counter() - start
                own1, kids1 = cpu_seconds()
                if traced:
                    counters = _counters(telemetry.metrics().snapshot())
        finally:
            loadgen.record_trace = record_trace
        onboard = [a + r for a, r in zip(admit.durations, record.durations)]
        unit = self._unit(report, wall, (own1 - own0) + (kids1 - kids0),
                          onboard, served)
        unit.fingerprint = report.fingerprint()
        unit.problems.extend(self._check(plane, report))
        unit.notes = {
            "e2e_slices_per_s": report.served_slices / wall,
            "serve_only_slices_per_s": report.slices_per_second,
        }
        if traced:
            self._trace_readout(unit, probe, counters, restarts)
        plane.close()
        return unit

    def _instrument(self, probe: Probe) -> list[int]:
        probe.time(FleetControlPlane, "admit_tenant", "fleet.admit")
        probe.time(Hypervisor, "launch_guest", "vm.launch_guest")
        probe.time(NoiseProvisioner, "create_buffer", "fleet.create_buffer")
        probe.time(loadgen, "record_trace", "fleet.record_trace")
        probe.time(loadgen, "make_workload", "workloads.make_workload")
        probe.time(Workload, "generate_blocks_with_phases",
                   "workloads.generate_blocks")
        probe.time(FleetControlPlane, "tick", "fleet.tick",
                   keep=lambda args, result: result["daemon_restarts"])
        probe.time(NoiseProvisioner, "top_up", "fleet.top_up")
        probe.time(AdmissionController, "admit", "fleet.admission")
        probe.time(FleetLedger, "account", "fleet.ledger")
        probe.time(DefensePolicyEngine, "on_tick", "policy.on_tick")
        # ~20k calls per round: counted, never clocked.
        probe.count(ObservabilityRuntime, "ingest_read",
                    "observability.ingest")
        return probe.results["fleet.tick"]

    @staticmethod
    def _unit(report, wall, cpu, onboard, served) -> Unit:
        raise NotImplementedError

    @staticmethod
    def _trace_readout(unit: Unit, probe: Probe, counters: dict,
                       restarts: list[int]) -> None:
        def ms(name: str, q: float) -> float:
            return percentile_ms(probe.durations.get(name, []), q)

        unit.layers = {
            "fleet.admit_ms_p50": ms("fleet.admit", 50),
            "fleet.admit_ms_p95": ms("fleet.admit", 95),
            "vm.launch_guest_ms_p50": ms("vm.launch_guest", 50),
            "vm.launch_guest_ms_p95": ms("vm.launch_guest", 95),
            "fleet.create_buffer_ms_p50": ms("fleet.create_buffer", 50),
            "fleet.record_trace_ms_p50": ms("fleet.record_trace", 50),
            "fleet.record_trace_ms_p95": ms("fleet.record_trace", 95),
            "workloads.make_workload_ms_p50":
                ms("workloads.make_workload", 50),
            "workloads.generate_blocks_ms_p50":
                ms("workloads.generate_blocks", 50),
            "runtime.gc_pause_s": probe.gc_pause_s,
            "runtime.gc_gen2_count": probe.gc_gen2,
            "fleet.tick_ms_p50": ms("fleet.tick", 50),
            "fleet.tick_ms_p99": ms("fleet.tick", 99),
            "fleet.top_up_s": probe.total("fleet.top_up"),
            "fleet.provisioned_slices":
                counters.get("fleet.provisioned_slices", 0),
            "fleet.admission_ms_p50": ms("fleet.admission", 50),
            "fleet.ledger_s": probe.total("fleet.ledger"),
            "policy.on_tick_s": probe.total("policy.on_tick"),
            "observability.ingest_calls":
                probe.calls["observability.ingest"],
            "observability.alerts": counters.get("obs.alerts", 0),
            "policy.quarantined_windows":
                counters.get("policy.quarantined_windows", 0),
            "fleet.watchdog_restarts": sum(restarts),
        }
        unit.covered_s = probe.covered_s
        unit.counts = {
            "fleet.tenants_admitted":
                counters.get("fleet.tenants_admitted", 0),
            "fleet.windows_served": counters.get("fleet.windows_served", 0),
            "fleet.rejected_windows":
                counters.get("fleet.rejected_windows", 0),
            "fleet.ticks": counters.get("fleet.ticks", 0),
            "fleet.provisioned_slices":
                unit.layers["fleet.provisioned_slices"],
            "observability.ingest_calls":
                unit.layers["observability.ingest_calls"],
            "observability.alerts": unit.layers["observability.alerts"],
            "policy.quarantined_windows":
                unit.layers["policy.quarantined_windows"],
            "fleet.watchdog_restarts": unit.layers["fleet.watchdog_restarts"],
        }


class FleetOnboardDriver(FleetDriver):
    """Many tenants, short replay: onboarding dominates."""

    name = "fleet-onboard"
    #: 768+ onboardings a run: p95 leaves 38+ samples beyond it.
    TAIL = 95
    TENANTS = 256
    WINDOWS = 2
    SLICES = 500

    @staticmethod
    def _unit(report, wall, cpu, onboard, served) -> Unit:
        # The operation is one tenant onboarding (admit + record).
        return Unit(wall_s=wall, cpu_s=cpu, ops_s=onboard,
                    attempted=len(report.tenants),
                    failed=report.rejected_windows)


class FleetServeDriver(FleetDriver):
    """Few tenants, long replay under attack: serving dominates."""

    name = "fleet-serve"
    #: 14k+ windows a run: p99 leaves 140+ samples beyond it.
    TAIL = 99
    TENANTS = 8
    WINDOWS = 128
    SLICES = 3000
    POLICY = "balanced"
    ATTACKERS = {"t02": "burst-poll", "t05": "single-step"}
    OBSERVE = True

    @staticmethod
    def _unit(report, wall, cpu, onboard, served) -> Unit:
        # The operation is one window.  Quarantine rejections of the
        # attacked tenants are the expected outcome, not failures.
        expected = sum(len(reasons) for tenant, reasons
                       in report.rejections.items()
                       if tenant in FleetServeDriver.ATTACKERS)
        attempted = report.served_windows + report.rejected_windows
        return Unit(wall_s=wall, cpu_s=cpu, ops_s=served,
                    attempted=attempted,
                    failed=report.rejected_windows - expected,
                    expected_rejections=expected)

    def _check(self, plane, report) -> list[str]:
        quarantined = sorted(tenant for tenant, state
                             in plane.policy.tenants.items()
                             if state.state == "QUARANTINED")
        problems = []
        if quarantined != sorted(self.ATTACKERS):
            problems.append(f"quarantined tenants {quarantined}, expected "
                            f"{sorted(self.ATTACKERS)}")
        bystanders = sorted(set(report.rejections) - set(self.ATTACKERS))
        if bystanders:
            problems.append(f"unattacked tenants had rejected windows: "
                            f"{bystanders}")
        return problems


DRIVERS = {driver.name: driver for driver in
           (DeployDriver, SearchDriver, FleetOnboardDriver,
            FleetServeDriver)}
