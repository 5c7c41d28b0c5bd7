"""The detailed interpreter against its plain per-instruction oracle.

``Core.execute_program`` accumulates signals in a Python int list,
dispatches through cached per-spec entries, advances the pipeline
counters once per program and returns shared ``AccessOutcome``
instances.  The oracle below is the straightforward interpreter it
replaced: a float64 vector updated per instruction, a class-handler
lookup per instruction, and ``Pipeline.issue``/``stall`` per event.
Both run the same programs on identically seeded cores and must agree
on everything observable: signals, cycles, RDPMC reads, fault names,
every counter the batch engine snapshots, the predictor history, the
pending access outcome, the clock and the HPC registers.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fuzzer.campaign import default_cleanup
from repro.core.fuzzer.generator import ExecutionHarness
from repro.cpu import batch
from repro.cpu.core import Core, ExecutionResult
from repro.cpu.signals import Signal, zero_signals
from repro.isa.catalog import shared_catalog
from repro.isa.spec import Instruction, InstructionClass, Program

MODEL = "amd-epyc-7252"


# -- the oracle ------------------------------------------------------------


def oracle_execute_program(core, program, update_hpc=True):
    core._pristine = False
    core._canonical = False
    signals = zero_signals()
    cycles = 0
    rdpmc_values = []
    penalties = core.pipeline.penalties
    for instruction in program.instructions:
        spec = instruction.spec
        if not core.itlb.access(instruction.address):
            signals[Signal.ITLB_MISS] += 1
            cycles += core.pipeline.stall(penalties.tlb_miss)
        signals[Signal.INSTRUCTIONS] += 1
        signals[Signal.UOPS] += spec.uops
        cycles += core.pipeline.issue(spec.uops, spec.latency)
        handler = _HANDLERS.get(spec.iclass, _simple)
        fault = handler(core, instruction, signals)
        if fault:
            return ExecutionResult(signals=signals, cycles=cycles,
                                   rdpmc_values=rdpmc_values,
                                   faulted=True, fault_name=fault)
        cycles += _charge_memory_stalls(core)
        if spec.iclass is InstructionClass.RDPMC:
            slots = core.hpc.programmed_slots()
            if slots:
                rdpmc_values.extend(core.hpc.rdpmc(slot) for slot in slots)
    if update_hpc:
        core.hpc.accumulate(signals)
    signals[Signal.CYCLES] += cycles
    core.clock.advance(cycles)
    return ExecutionResult(signals=signals, cycles=cycles,
                           rdpmc_values=rdpmc_values)


def _charge_memory_stalls(core):
    outcome = core._last_outcome
    core._last_outcome = None
    if outcome is None:
        return 0
    penalties = core.pipeline.penalties
    if outcome.memory_access:
        return core.pipeline.stall(penalties.llc_miss)
    if not outcome.l2_hit:
        return core.pipeline.stall(penalties.l2_miss)
    if not outcome.l1_hit:
        return core.pipeline.stall(penalties.l1_miss)
    return 0


def _data_access(core, address, signals, write, pc=0):
    if write:
        core.memory.check_write(address)
    if not core.dtlb.access(address):
        signals[Signal.DTLB_MISS] += 1
    outcome = core.caches.access(address, write=write)
    core._last_outcome = outcome
    signals[Signal.L1D_ACCESS] += 1
    if outcome.l1_miss:
        signals[Signal.L1D_MISS] += 1
        signals[Signal.MAB_ALLOC] += 1
        signals[Signal.L2_ACCESS] += 1
    if not outcome.l2_hit:
        signals[Signal.L2_MISS] += 1
        signals[Signal.LLC_ACCESS] += 1
    if outcome.memory_access:
        signals[Signal.LLC_MISS] += 1
        signals[Signal.MEM_READS] += 1
    if pc:
        for target in core.prefetcher.observe(pc, address):
            pf_outcome = core.caches.access(target, write=False)
            signals[Signal.PREFETCHES] += 1
            if pf_outcome.memory_access:
                signals[Signal.MAB_ALLOC] += 1
                signals[Signal.MEM_READS] += 1


_SIMPLE_SIGNALS = {
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


def _simple(core, instruction, signals):
    spec = instruction.spec
    sig = _SIMPLE_SIGNALS.get(spec.iclass)
    if sig is not None:
        signals[sig] += 1
    if spec.reads_memory:
        _data_access(core, instruction.mem_operand or core.data_page.base,
                     signals, write=False, pc=instruction.address)
        signals[Signal.LOADS] += 1
    if spec.writes_memory:
        _data_access(core, instruction.mem_operand or core.data_page.base,
                     signals, write=True, pc=instruction.address)
        signals[Signal.STORES] += 1
    return ""


def _load(core, instruction, signals):
    signals[Signal.LOADS] += 1
    _data_access(core, instruction.mem_operand or core.data_page.base,
                 signals, write=False, pc=instruction.address)
    return ""


def _store(core, instruction, signals):
    signals[Signal.STORES] += 1
    address = instruction.mem_operand or core.data_page.base
    try:
        _data_access(core, address, signals, write=True,
                     pc=instruction.address)
    except PermissionError as exc:
        return f"#PF: {exc}"
    if instruction.spec.mnemonic.startswith("MOVNT"):
        signals[Signal.MEM_WRITES] += 1
    return ""


def _branch(core, instruction, signals):
    spec = instruction.spec
    signals[Signal.BRANCHES] += 1
    if spec.iclass is InstructionClass.BRANCH_COND:
        signals[Signal.COND_BRANCHES] += 1
        taken = instruction.taken
    else:
        taken = True
    if core.branch_predictor.update(instruction.address, taken):
        signals[Signal.BRANCH_MISS] += 1
        core.pipeline.stall(core.pipeline.penalties.branch_mispredict)
    return ""


def _stack_address(core):
    return core.stack_page.base + (core._stack_depth % core.stack_page.size)


def _call(core, instruction, signals):
    signals[Signal.BRANCHES] += 1
    signals[Signal.CALLS] += 1
    signals[Signal.STACK_OPS] += 1
    core._stack_depth += 8
    _data_access(core, _stack_address(core), signals, write=True)
    signals[Signal.STORES] += 1
    core.branch_predictor.update(instruction.address, True)
    return ""


def _ret(core, instruction, signals):
    signals[Signal.BRANCHES] += 1
    signals[Signal.RETURNS] += 1
    signals[Signal.STACK_OPS] += 1
    address = _stack_address(core)
    core._stack_depth = max(0, core._stack_depth - 8)
    _data_access(core, address, signals, write=False)
    signals[Signal.LOADS] += 1
    return ""


def _push(core, instruction, signals):
    signals[Signal.STACK_OPS] += 1
    signals[Signal.STORES] += 1
    core._stack_depth += 8
    _data_access(core, _stack_address(core), signals, write=True)
    return ""


def _pop(core, instruction, signals):
    signals[Signal.STACK_OPS] += 1
    signals[Signal.LOADS] += 1
    address = _stack_address(core)
    core._stack_depth = max(0, core._stack_depth - 8)
    _data_access(core, address, signals, write=False)
    return ""


def _clflush(core, instruction, signals):
    signals[Signal.CACHE_FLUSHES] += 1
    core.caches.flush(instruction.mem_operand or core.data_page.base)
    return ""


def _prefetch(core, instruction, signals):
    signals[Signal.PREFETCHES] += 1
    address = instruction.mem_operand or core.data_page.base
    if core.caches.access(address, write=False).memory_access:
        signals[Signal.MEM_READS] += 1
        signals[Signal.MAB_ALLOC] += 1
    return ""


def _serialize(core, instruction, signals):
    signals[Signal.SERIALIZING] += 1
    core.pipeline.stall(core.pipeline.penalties.serialize)
    return ""


def _tlb_flush(core, instruction, signals):
    signals[Signal.TLB_FLUSHES] += 1
    core.dtlb.flush()
    core.itlb.flush()
    return ""


def _string(core, instruction, signals):
    repeats = 8 if instruction.spec.mnemonic.startswith("REP") else 1
    base = instruction.mem_operand or core.data_page.base
    for i in range(repeats):
        address = base + 8 * i
        signals[Signal.LOADS] += 1
        _data_access(core, address, signals, write=False,
                     pc=instruction.address)
        if instruction.spec.mnemonic.lstrip("REP ").startswith(
                ("MOVS", "STOS")):
            signals[Signal.STORES] += 1
            _data_access(core, address + 64, signals, write=True,
                         pc=instruction.address + 1)
    return ""


def _system(core, instruction, signals):
    return f"#GP: privileged instruction {instruction.spec.mnemonic}"


def _rdpmc(core, instruction, signals):
    return ""


_HANDLERS = {
    InstructionClass.LOAD: _load,
    InstructionClass.STORE: _store,
    InstructionClass.BRANCH_COND: _branch,
    InstructionClass.BRANCH_UNCOND: _branch,
    InstructionClass.CALL: _call,
    InstructionClass.RET: _ret,
    InstructionClass.PUSH: _push,
    InstructionClass.POP: _pop,
    InstructionClass.CLFLUSH: _clflush,
    InstructionClass.PREFETCH: _prefetch,
    InstructionClass.FENCE: _serialize,
    InstructionClass.SERIALIZE: _serialize,
    InstructionClass.TLB_FLUSH: _tlb_flush,
    InstructionClass.STRING: _string,
    InstructionClass.SYSTEM: _system,
    InstructionClass.RDPMC: _rdpmc,
}


# -- comparison ------------------------------------------------------------


def observed(core, result):
    """Everything a caller or the batch engine can read after a run."""
    fields = batch._counter_fields(core)
    return {
        "signals": result.signals.tolist(),
        "dtype": result.signals.dtype,
        "cycles": result.cycles,
        "rdpmc": list(result.rdpmc_values),
        "faulted": result.faulted,
        "fault": result.fault_name,
        "counters": [getattr(owner, name) for owner, name in fields],
        "history": core.branch_predictor._history,
        "last_outcome": core._last_outcome,
        "state": batch._state_signature(core),
        "clock": core.clock.cycles,
        "hpc": [core.hpc.rdpmc(slot)
                for slot in core.hpc.programmed_slots()],
    }


def run_both(programs, seed=5, update_hpc=False, slots=(), build=None):
    """Run ``programs`` back to back on two equal cores, one through the
    interpreter and one through the oracle, and compare after each.

    ``programs`` maps a core to its program list (programs are placed
    against a core's pages); ``build`` defaults to the harness frame.
    """
    cores = [Core(MODEL, rng=np.random.default_rng(seed)) for _ in range(2)]
    for core in cores:
        for slot, event in enumerate(slots):
            core.hpc.program(slot, int(event))
    lists = [programs(core) for core in cores]
    for interpreted, oracled in zip(*lists):
        got = cores[0].execute_program(interpreted, update_hpc=update_hpc)
        want = oracle_execute_program(cores[1], oracled,
                                      update_hpc=update_hpc)
        assert observed(cores[0], got) == observed(cores[1], want)
    return cores


@functools.lru_cache(maxsize=1)
def legal_specs():
    return tuple(default_cleanup(MODEL).legal)


@functools.lru_cache(maxsize=1)
def class_samples():
    """Up to four variants of every class in the catalog, memory forms
    and the widest decode included."""
    by_class = {}
    for spec in shared_catalog().variants:
        by_class.setdefault(spec.iclass, []).append(spec)
    picks = []
    for iclass in sorted(by_class, key=lambda ic: ic.name):
        specs = by_class[iclass]
        chosen = {specs[0].name: specs[0], specs[-1].name: specs[-1]}
        for spec in specs:
            if spec.reads_memory or spec.writes_memory:
                chosen.setdefault(spec.name, spec)
                break
        widest = max(specs, key=lambda s: (s.uops, s.latency))
        chosen.setdefault(widest.name, widest)
        picks.append((iclass, list(chosen.values())))
    return picks


def framed(body, repeats=2):
    def build(core):
        harness = ExecutionHarness(core, rng=0)
        return [harness.build_program(list(body), repeats=repeats)] * 3
    return build


class TestCatalogSamples:
    @pytest.mark.parametrize("index", range(len(class_samples())),
                             ids=[ic.name for ic, _ in class_samples()])
    def test_every_class(self, index):
        _, specs = class_samples()[index]
        for spec in specs:
            run_both(framed([spec]))

    def test_catalog_sweep_in_one_state(self):
        """Every fifth catalog variant, executed back to back on one
        core, so state carries across classes."""
        specs = list(shared_catalog().variants)[::5]

        def build(core):
            harness = ExecutionHarness(core, rng=0)
            return [harness.build_program(specs[i:i + 7], repeats=1)
                    for i in range(0, len(specs), 7)]
        run_both(build)

    def test_rdpmc_reads_and_noisy_accumulate(self):
        rdpmc = next(s for s in shared_catalog().variants
                     if s.iclass is InstructionClass.RDPMC)
        load = next(s for s in legal_specs()
                    if s.iclass is InstructionClass.LOAD)
        cores = run_both(framed([load, rdpmc, load, rdpmc], repeats=3),
                         update_hpc=True, slots=(10, 400, 900))
        assert cores[0].hpc.rdpmc(0) > 0

    def test_not_taken_branches_and_other_widths(self):
        branch = next(s for s in legal_specs()
                      if s.iclass is InstructionClass.BRANCH_COND)

        def build(core):
            core.pipeline.dispatch_width = 2
            base = core.code_page.base
            return [Program([Instruction(spec=branch, address=base + 4 * i,
                                         taken=bool(i % 3))
                             for i in range(40)])] * 2
        run_both(build)


    def test_every_hierarchy_level(self):
        """Loads striding one L1 set (past its ways) and one L2 set
        (past its ways) hit L1, L2, the LLC and memory, so every stall
        penalty is charged."""
        load = next(s for s in legal_specs()
                    if s.iclass is InstructionClass.LOAD)

        def build(core):
            caches = core.caches
            l1_stride = caches.l1.num_sets * caches.line_size
            l2_stride = caches.l2.num_sets * caches.line_size
            base = core.code_page.base
            addresses = ([core.data_page.base + l1_stride * i
                          for i in range(caches.l1.ways + 4)]
                         + [core.data_page.base + l2_stride * i
                            for i in range(caches.l2.ways + 4)])
            program = Program([Instruction(spec=load, address=base + 4 * i,
                                           mem_operand=address)
                               for i, address in enumerate(addresses * 2)])
            return [program] * 2
        cores = run_both(build)
        stats = cores[0].caches
        assert stats.l2.stats.hits and stats.llc.stats.hits
        assert stats.llc.stats.misses


class TestFaults:
    def test_store_to_read_only_page(self):
        store = next(s for s in legal_specs()
                     if s.iclass is InstructionClass.STORE)
        load = next(s for s in legal_specs()
                    if s.iclass is InstructionClass.LOAD)

        def build(core):
            base = core.code_page.base
            return [Program([
                Instruction(spec=load, address=base,
                            mem_operand=core.data_page.base),
                Instruction(spec=store, address=base + 4,
                            mem_operand=core.code_page.base),
                Instruction(spec=load, address=base + 8)])]
        cores = run_both(build)
        assert cores[0].pipeline.retired_instructions == 2

    def test_system_instruction(self):
        system = next(s for s in shared_catalog().variants
                      if s.iclass is InstructionClass.SYSTEM)
        alu = next(s for s in legal_specs()
                   if s.iclass is InstructionClass.ALU)
        run_both(framed([alu, system]))

    def test_escaping_write_fault_keeps_pipeline_counts(self):
        """A string move onto a read-only page raises out of both
        interpreters after its first read; the pipeline counters and the
        pending outcome must still agree."""
        rmw = next(s for s in shared_catalog().variants
                   if s.iclass is InstructionClass.STRING
                   and "MOVS" in s.mnemonic)
        cores = [Core(MODEL, rng=1) for _ in range(2)]
        for core, run in zip(cores, (Core.execute_program,
                                     oracle_execute_program)):
            base = core.code_page.base
            program = Program([
                Instruction(spec=rmw, address=base,
                            mem_operand=core.data_page.base),
                Instruction(spec=rmw, address=base + 4,
                            mem_operand=core.code_page.base)])
            with pytest.raises(PermissionError):
                run(core, program)
        snapshots = [batch._counter_snapshot(core,
                                             batch._counter_fields(core))
                     for core in cores]
        assert snapshots[0] == snapshots[1]
        assert cores[0].pipeline.retired_instructions == 2
        assert cores[0]._last_outcome == cores[1]._last_outcome
        assert cores[0]._last_outcome is not None


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_programs_match_the_oracle(data):
    specs = legal_specs()
    bodies = data.draw(st.lists(
        st.lists(st.integers(0, len(specs) - 1), min_size=1, max_size=6),
        min_size=1, max_size=4))
    repeats = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**32 - 1))

    def build(core):
        harness = ExecutionHarness(core, rng=0)
        return [harness.build_program([specs[i] for i in body],
                                      repeats=repeats)
                for body in bodies]
    run_both(build, seed=seed)
