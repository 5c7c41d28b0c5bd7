"""The simulated CPU core.

Two execution granularities share the signal vocabulary:

- :meth:`Core.execute_program` — the *detailed* path. Runs placed
  instructions one by one against real cache/branch/TLB state. This is
  what the Event Fuzzer measures gadgets on: a CLFLUSH really evicts the
  line, so the following load really misses.
- :meth:`Core.execute_block` — the *aggregate* path. Consumes an
  :class:`ActivityBlock` (per-slice signal counts emitted by a workload
  phase program), adds interrupt interference, and advances the HPC
  register file. Guest applications execute millions of instructions per
  1 ms sampling slice; this path makes that affordable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cpu.branch import BranchPredictor
from repro.cpu.caches import CacheHierarchy
from repro.cpu.events import EventCatalog, processor_catalog
from repro.cpu.hpc import HpcRegisterFile
from repro.cpu.interrupts import InterruptSource
from repro.cpu.memory import MemoryMap, Page
from repro.cpu.pipeline import Pipeline, PipelinePenalties
from repro.cpu.prefetch import StridePrefetcher
from repro.cpu.signals import NUM_SIGNALS, Signal
from repro.cpu.tlb import Tlb
from repro.isa.spec import (Instruction, InstructionClass,
                            InstructionSpec, Program)
from repro.utils.clock import SimClock
from repro.utils.rng import ensure_rng


@dataclass
class ActivityBlock:
    """Aggregate guest activity for one sampling slice.

    ``signals`` holds the slice's microarchitectural signal counts
    (except CYCLES, which the core derives); ``duration_s`` is the
    nominal wall-clock length of the slice.
    """

    signals: np.ndarray
    duration_s: float = 1e-3

    def __post_init__(self) -> None:
        self.signals = np.asarray(self.signals, dtype=np.float64)
        if self.signals.shape != (NUM_SIGNALS,):
            raise ValueError(
                f"signals must have shape ({NUM_SIGNALS},), got "
                f"{self.signals.shape}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")


@dataclass
class ExecutionResult:
    """Outcome of a detailed program execution."""

    signals: np.ndarray
    cycles: int
    rdpmc_values: list[int] = field(default_factory=list)
    faulted: bool = False
    fault_name: str = ""


class Core:
    """One simulated CPU core with caches, predictor, TLBs and HPCs.

    Parameters
    ----------
    model_name:
        Processor model whose event catalog this core exposes.
    rng:
        Root randomness; children are derived for noise/interrupts.
    frequency_hz:
        Nominal clock used for cycle/second conversions.
    """

    def __init__(self, model_name: str = "amd-epyc-7252",
                 rng: "int | np.random.Generator | None" = None,
                 frequency_hz: float = 3.1e9) -> None:
        root = ensure_rng(rng)
        self.model_name = model_name
        self.catalog: EventCatalog = processor_catalog(model_name)
        self.caches = CacheHierarchy()
        self.branch_predictor = BranchPredictor()
        self.itlb = Tlb(entries=64, name="ITLB")
        self.dtlb = Tlb(entries=64, name="DTLB")
        self.prefetcher = StridePrefetcher()
        self.pipeline = Pipeline(penalties=PipelinePenalties())
        self.clock = SimClock(frequency_hz=frequency_hz)
        self.interrupts = InterruptSource(
            rng=np.random.default_rng(int(root.integers(2**63))))
        self.hpc = HpcRegisterFile(
            self.catalog, rng=np.random.default_rng(int(root.integers(2**63))))
        self.memory = MemoryMap()
        self.code_page: Page = self.memory.map_page("code", executable=True,
                                                    writable=False)
        self.data_page: Page = self.memory.map_page("data")
        self.stack_page: Page = self.memory.map_page("stack")
        self._rng = root
        self._stack_depth = 0
        # Canonical-state tracking for the batch engine: ``_pristine``
        # means the microarch state is exactly post-reset; the harness
        # warm-up promotes that to ``_canonical`` (reset + deterministic
        # warm-up), the state the screening memo is keyed against. Any
        # execution invalidates both.
        self._pristine = True
        self._canonical = False

    # ---------------- detailed per-instruction path ----------------

    def execute_program(self, program: Program,
                        update_hpc: bool = True) -> ExecutionResult:
        """Execute placed instructions and return signals + cycles.

        Faulting system instructions (already removed by the cleanup
        step in normal fuzzing flows) terminate execution with
        ``faulted=True``.

        Signals accumulate as Python ints and become one float64 vector
        at the end (every increment is a small integer, so that is
        exact).  Each spec dispatches through its cached
        ``(handler, uops, issue cycles)`` entry.  The pipeline's retire
        counters and the ITLB/memory stalls advance once per program,
        also when it faults or a handler raises; mispredict and
        serializing stalls are charged by their handlers.
        """
        self._pristine = False
        self._canonical = False
        counts = [0] * NUM_SIGNALS
        cycles = stalls = uops = retired = 0
        rdpmc_values: list[int] = []
        pipeline = self.pipeline
        penalties = pipeline.penalties
        tlb_miss = penalties.tlb_miss
        l1_miss, l2_miss, llc_miss = (penalties.l1_miss, penalties.l2_miss,
                                      penalties.llc_miss)
        itlb_access = self.itlb.access
        table = _DISPATCH.setdefault(pipeline.dispatch_width, {})
        fault = ""
        try:
            for instruction in program.instructions:
                # Instruction fetch: ITLB translation on the code address.
                if not itlb_access(instruction.address):
                    counts[_ITLB_MISS] += 1
                    cycles += tlb_miss
                    stalls += tlb_miss
                spec = instruction.spec
                entry = table.get(id(spec))
                if entry is None:
                    entry = _dispatch_entry(table, spec,
                                            pipeline.dispatch_width)
                _, handler, spec_uops, issue = entry
                uops += spec_uops
                retired += 1
                cycles += issue
                fault = handler(self, instruction, counts)
                if fault:
                    break
                outcome = self._last_outcome
                if outcome is not None:
                    # Stall for the instruction's last data access.
                    self._last_outcome = None
                    if outcome.memory_access:
                        stall = llc_miss
                    elif not outcome.l2_hit:
                        stall = l2_miss
                    elif not outcome.l1_hit:
                        stall = l1_miss
                    else:
                        stall = 0
                    cycles += stall
                    stalls += stall
                if handler is _execute_rdpmc:
                    slots = self.hpc.programmed_slots()
                    if slots:
                        # Counters observe everything retired so far.
                        rdpmc_values.extend(
                            self.hpc.rdpmc(slot) for slot in slots)
        finally:
            pipeline.retired_uops += uops
            pipeline.retired_instructions += retired
            pipeline.stall_cycles += stalls
        counts[_INSTRUCTIONS] += retired
        counts[_UOPS] += uops
        signals = np.array(counts, dtype=np.float64)
        if fault:
            return ExecutionResult(signals=signals, cycles=cycles,
                                   rdpmc_values=rdpmc_values,
                                   faulted=True, fault_name=fault)
        if update_hpc:
            self.hpc.accumulate(signals)
        signals[_CYCLES] += cycles
        self.clock.advance(cycles)
        return ExecutionResult(signals=signals, cycles=cycles,
                               rdpmc_values=rdpmc_values)

    def execute_batch(self, programs: "Program | list[Program] | None" = None,
                      update_hpc: bool = True, *,
                      repeats: "int | None" = None,
                      seeds: "np.ndarray | None" = None
                      ) -> list[ExecutionResult]:
        """Execute a batch of programs back to back, one result each.

        The batch is a single submission of sequential executions:
        microarchitectural state deliberately carries over from one
        program to the next, exactly as if the caller had looped over
        :meth:`execute_program` itself — the vectorized engine in
        :mod:`repro.cpu.batch` is proven bit-identical to that loop by
        the differential equivalence suite.

        ``programs`` may be a list, or a single :class:`Program`
        combined with either ``repeats`` (execute it that many times)
        or ``seeds`` (one execution per per-iteration seed; the
        detailed path is deterministic, so seeds carry the batch
        geometry and provenance rather than perturbing execution).
        """
        from repro.cpu import batch
        from repro.observability import runtime as observability
        obs = observability.active()
        if not obs.enabled:
            return batch.execute_batch(self, programs,
                                       update_hpc=update_hpc,
                                       repeats=repeats, seeds=seeds)
        start = time.perf_counter()
        results = batch.execute_batch(self, programs,
                                      update_hpc=update_hpc,
                                      repeats=repeats, seeds=seeds)
        obs.slo.observe("batch.execute", time.perf_counter() - start)
        return results

    _last_outcome = None

    def _data_access(self, address: int, counts: list,
                     write: bool, pc: int = 0) -> None:
        """Shared load/store path: TLB, hierarchy, signal accounting.

        Demand accesses also train the stride prefetcher; confident
        strides issue hardware prefetches that fill the hierarchy and
        show up on the prefetch/MAB signals (without stalling the
        pipeline).
        """
        if write:
            self.memory.check_write(address)
        if not self.dtlb.access(address):
            counts[_DTLB_MISS] += 1
        outcome = self.caches.access(address, write)
        self._last_outcome = outcome
        counts[_L1D_ACCESS] += 1
        if not outcome.l1_hit:
            counts[_L1D_MISS] += 1
            counts[_MAB_ALLOC] += 1
            counts[_L2_ACCESS] += 1
            if not outcome.l2_hit:
                counts[_L2_MISS] += 1
                counts[_LLC_ACCESS] += 1
                if outcome.memory_access:
                    counts[_LLC_MISS] += 1
                    counts[_MEM_READS] += 1
        if pc:
            for target in self.prefetcher.observe(pc, address):
                counts[_PREFETCHES] += 1
                if self.caches.access(target, False).memory_access:
                    counts[_MAB_ALLOC] += 1
                    counts[_MEM_READS] += 1

    # ----------------- aggregate block path ------------------------

    def execute_block(self, block: ActivityBlock,
                      noisy: bool = True) -> np.ndarray:
        """Consume one activity slice; returns the effective signals.

        Adds interrupt interference (each interrupt perturbs cycles and
        instruction-path signals), derives CYCLES from the slice
        duration, advances the clock, and feeds the HPC register file.
        """
        self._pristine = False
        self._canonical = False
        signals = block.signals.copy()
        cycles = block.duration_s * self.clock.frequency_hz
        if noisy:
            n_irq = self.interrupts.interrupts_during(block.duration_s)
            if n_irq:
                signals[Signal.INTERRUPTS] += n_irq
                signals[Signal.INSTRUCTIONS] += 400.0 * n_irq
                signals[Signal.UOPS] += 700.0 * n_irq
                cycles += self.pipeline.penalties.interrupt * n_irq
        signals[Signal.CYCLES] += cycles
        self.clock.advance(int(cycles))
        self.hpc.accumulate(signals, noisy=noisy)
        return signals

    def execute_blocks(self, blocks: "list[ActivityBlock]",
                       noisy: bool = True) -> list[np.ndarray]:
        """Consume a batch of activity slices, one signal vector each.

        Bit-identical to looping :meth:`execute_block`: the vectorized
        engine batches the interrupt draws and signal adjustments but
        replays the scalar RNG stream and HPC fold order exactly.
        """
        from repro.cpu import batch
        return batch.execute_blocks(self, blocks, noisy=noisy)

    # ----------------- measurement helpers -------------------------

    def reset_microarch_state(self) -> None:
        """Return caches/TLBs/predictor/prefetcher to power-on state.

        The Event Fuzzer's screening stage measures every gadget from
        this known state (plus a deterministic warm-up) so that a
        gadget's screening delta is independent of whichever gadgets
        happened to execute before it — the property that makes sharded
        campaigns produce identical results for any shard partition.
        """
        self.caches.reset()
        self.branch_predictor.reset()
        self.itlb.reset()
        self.dtlb.reset()
        self.prefetcher.reset()
        self._stack_depth = 0
        self._last_outcome = None
        self._pristine = True
        self._canonical = False

    def configure_measurement_environment(self) -> None:
        """Apply the harness mitigations from the paper (Section VI-D):
        pin the process and isolate the core so interrupts are rare."""
        self.interrupts.pin_process()
        self.interrupts.isolate_core()

    def serialize(self) -> None:
        """Drain the pipeline (CPUID-style barrier around measurements)."""
        self.clock.advance(self.pipeline.penalties.serialize)


# Signal indices as plain ints: the handlers below index a Python list.
_CYCLES = int(Signal.CYCLES)
_INSTRUCTIONS = int(Signal.INSTRUCTIONS)
_UOPS = int(Signal.UOPS)
_LOADS = int(Signal.LOADS)
_STORES = int(Signal.STORES)
_L1D_ACCESS = int(Signal.L1D_ACCESS)
_L1D_MISS = int(Signal.L1D_MISS)
_L2_ACCESS = int(Signal.L2_ACCESS)
_L2_MISS = int(Signal.L2_MISS)
_LLC_ACCESS = int(Signal.LLC_ACCESS)
_LLC_MISS = int(Signal.LLC_MISS)
_MEM_READS = int(Signal.MEM_READS)
_MEM_WRITES = int(Signal.MEM_WRITES)
_BRANCHES = int(Signal.BRANCHES)
_BRANCH_MISS = int(Signal.BRANCH_MISS)
_COND_BRANCHES = int(Signal.COND_BRANCHES)
_CALLS = int(Signal.CALLS)
_RETURNS = int(Signal.RETURNS)
_ITLB_MISS = int(Signal.ITLB_MISS)
_DTLB_MISS = int(Signal.DTLB_MISS)
_TLB_FLUSHES = int(Signal.TLB_FLUSHES)
_STACK_OPS = int(Signal.STACK_OPS)
_PREFETCHES = int(Signal.PREFETCHES)
_CACHE_FLUSHES = int(Signal.CACHE_FLUSHES)
_SERIALIZING = int(Signal.SERIALIZING)
_MAB_ALLOC = int(Signal.MAB_ALLOC)


def _simple_handler(spec: InstructionSpec):
    """The handler of a class without its own: the class signal, then
    the memory operand's read and/or write, bound to ``spec``."""
    sig = _SIMPLE_SIGNALS.get(spec.iclass)
    sig = None if sig is None else int(sig)
    reads, writes = spec.reads_memory, spec.writes_memory

    def execute(core: Core, instruction: Instruction, counts: list) -> str:
        if sig is not None:
            counts[sig] += 1
        if reads:
            core._data_access(instruction.mem_operand or core.data_page.base,
                              counts, False, instruction.address)
            counts[_LOADS] += 1
        if writes:
            core._data_access(instruction.mem_operand or core.data_page.base,
                              counts, True, instruction.address)
            counts[_STORES] += 1
        return ""

    return execute


def _execute_load(core: Core, instruction: Instruction, counts: list) -> str:
    counts[_LOADS] += 1
    core._data_access(instruction.mem_operand or core.data_page.base,
                      counts, False, instruction.address)
    return ""


def _execute_store(core: Core, instruction: Instruction,
                   counts: list) -> str:
    counts[_STORES] += 1
    address = instruction.mem_operand or core.data_page.base
    try:
        core._data_access(address, counts, True, instruction.address)
    except PermissionError as exc:
        return f"#PF: {exc}"
    if instruction.spec.mnemonic.startswith("MOVNT"):
        # Non-temporal stores bypass the hierarchy and write to memory.
        counts[_MEM_WRITES] += 1
    return ""


def _execute_branch(core: Core, instruction: Instruction,
                    counts: list) -> str:
    counts[_BRANCHES] += 1
    if instruction.spec.iclass is InstructionClass.BRANCH_COND:
        counts[_COND_BRANCHES] += 1
        taken = instruction.taken
    else:
        taken = True
    if core.branch_predictor.update(instruction.address, taken):
        counts[_BRANCH_MISS] += 1
        core.pipeline.stall(core.pipeline.penalties.branch_mispredict)
    return ""


def _execute_call(core: Core, instruction: Instruction, counts: list) -> str:
    counts[_BRANCHES] += 1
    counts[_CALLS] += 1
    counts[_STACK_OPS] += 1
    core._stack_depth += 8
    address = core.stack_page.base + (core._stack_depth % core.stack_page.size)
    core._data_access(address, counts, True)
    counts[_STORES] += 1
    core.branch_predictor.update(instruction.address, True)
    return ""


def _execute_ret(core: Core, instruction: Instruction, counts: list) -> str:
    counts[_BRANCHES] += 1
    counts[_RETURNS] += 1
    counts[_STACK_OPS] += 1
    address = core.stack_page.base + (core._stack_depth % core.stack_page.size)
    core._stack_depth = max(0, core._stack_depth - 8)
    core._data_access(address, counts, False)
    counts[_LOADS] += 1
    return ""


def _execute_push(core: Core, instruction: Instruction, counts: list) -> str:
    counts[_STACK_OPS] += 1
    counts[_STORES] += 1
    core._stack_depth += 8
    address = core.stack_page.base + (core._stack_depth % core.stack_page.size)
    core._data_access(address, counts, True)
    return ""


def _execute_pop(core: Core, instruction: Instruction, counts: list) -> str:
    counts[_STACK_OPS] += 1
    counts[_LOADS] += 1
    address = core.stack_page.base + (core._stack_depth % core.stack_page.size)
    core._stack_depth = max(0, core._stack_depth - 8)
    core._data_access(address, counts, False)
    return ""


def _execute_clflush(core: Core, instruction: Instruction,
                     counts: list) -> str:
    counts[_CACHE_FLUSHES] += 1
    core.caches.flush(instruction.mem_operand or core.data_page.base)
    return ""


def _execute_prefetch(core: Core, instruction: Instruction,
                      counts: list) -> str:
    counts[_PREFETCHES] += 1
    address = instruction.mem_operand or core.data_page.base
    if core.caches.access(address, False).memory_access:
        counts[_MEM_READS] += 1
        counts[_MAB_ALLOC] += 1
    return ""


def _execute_serialize(core: Core, instruction: Instruction,
                       counts: list) -> str:
    counts[_SERIALIZING] += 1
    core.pipeline.stall(core.pipeline.penalties.serialize)
    return ""


def _execute_tlb_flush(core: Core, instruction: Instruction,
                       counts: list) -> str:
    counts[_TLB_FLUSHES] += 1
    core.dtlb.flush()
    core.itlb.flush()
    return ""


def _execute_string(core: Core, instruction: Instruction,
                    counts: list) -> str:
    mnemonic = instruction.spec.mnemonic
    repeats = 8 if mnemonic.startswith("REP") else 1
    writes = mnemonic.lstrip("REP ").startswith(("MOVS", "STOS"))
    base = instruction.mem_operand or core.data_page.base
    pc = instruction.address
    for i in range(repeats):
        address = base + 8 * i
        counts[_LOADS] += 1
        core._data_access(address, counts, False, pc)
        if writes:
            counts[_STORES] += 1
            core._data_access(address + 64, counts, True, pc + 1)
    return ""


def _execute_system(core: Core, instruction: Instruction,
                    counts: list) -> str:
    return f"#GP: privileged instruction {instruction.spec.mnemonic}"


def _execute_rdpmc(core: Core, instruction: Instruction,
                   counts: list) -> str:
    return ""  # reads are handled by the core loop


_SIMPLE_SIGNALS: dict[InstructionClass, Signal] = {
    InstructionClass.ALU: Signal.BIT_OPS,
    InstructionClass.BIT: Signal.BIT_OPS,
    InstructionClass.MUL: Signal.MUL_OPS,
    InstructionClass.DIV: Signal.DIV_OPS,
    InstructionClass.X87: Signal.X87_OPS,
    InstructionClass.SIMD_INT: Signal.SIMD_OPS,
    InstructionClass.SIMD_FP: Signal.FP_OPS,
    InstructionClass.FMA: Signal.FP_OPS,
    InstructionClass.CRYPTO: Signal.CRYPTO_OPS,
    InstructionClass.NOP: Signal.NOP_OPS,
    InstructionClass.FENCE: Signal.SERIALIZING,
}

_CLASS_HANDLERS = {
    InstructionClass.LOAD: _execute_load,
    InstructionClass.STORE: _execute_store,
    InstructionClass.BRANCH_COND: _execute_branch,
    InstructionClass.BRANCH_UNCOND: _execute_branch,
    InstructionClass.CALL: _execute_call,
    InstructionClass.RET: _execute_ret,
    InstructionClass.PUSH: _execute_push,
    InstructionClass.POP: _execute_pop,
    InstructionClass.CLFLUSH: _execute_clflush,
    InstructionClass.PREFETCH: _execute_prefetch,
    InstructionClass.FENCE: _execute_serialize,
    InstructionClass.SERIALIZE: _execute_serialize,
    InstructionClass.TLB_FLUSH: _execute_tlb_flush,
    InstructionClass.STRING: _execute_string,
    InstructionClass.SYSTEM: _execute_system,
    InstructionClass.RDPMC: _execute_rdpmc,
}

#: Per dispatch width: ``id(spec) -> (spec, handler, uops, issue
#: cycles)``.  Catalog specs are process-wide singletons, and the entry
#: holds its spec, so the id stays pinned.
_DISPATCH: dict[int, dict[int, tuple]] = {}


def _dispatch_entry(table: dict, spec: InstructionSpec,
                    dispatch_width: int) -> tuple:
    """Build and cache ``spec``'s entry; the issue cost is
    :meth:`Pipeline.issue`'s, which also rejects ``uops < 1``."""
    issue = Pipeline(dispatch_width).issue(spec.uops, spec.latency)
    handler = _CLASS_HANDLERS.get(spec.iclass)
    if handler is None:
        handler = _simple_handler(spec)
    entry = table[id(spec)] = (spec, handler, spec.uops, issue)
    return entry
