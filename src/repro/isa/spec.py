"""Instruction specification types.

An :class:`InstructionSpec` corresponds to one *instruction variant* in a
machine-readable ISA list (uops.info style): a mnemonic plus a concrete
operand form, annotated with the ISA extension it belongs to, its general
category, and the microarchitectural semantics the simulator needs
(instruction class, uop count, latency, memory behaviour).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from functools import cached_property


class InstructionClass(enum.Enum):
    """Semantic class driving the detailed execution path."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    BIT = "bit"
    MOV = "mov"
    LEA = "lea"
    LOAD = "load"
    STORE = "store"
    BRANCH_COND = "branch_cond"
    BRANCH_UNCOND = "branch_uncond"
    CALL = "call"
    RET = "ret"
    PUSH = "push"
    POP = "pop"
    NOP = "nop"
    X87 = "x87"
    SIMD_INT = "simd_int"
    SIMD_FP = "simd_fp"
    FMA = "fma"
    CRYPTO = "crypto"
    CLFLUSH = "clflush"
    PREFETCH = "prefetch"
    FENCE = "fence"
    SERIALIZE = "serialize"
    RDPMC = "rdpmc"
    TLB_FLUSH = "tlb_flush"
    STRING = "string"
    SYSTEM = "system"


class Extension(enum.Enum):
    """ISA extension an instruction variant belongs to."""

    BASE = "BASE"
    X87_FPU = "X87-FPU"
    MMX = "MMX"
    SSE = "SSE"
    SSE2 = "SSE2"
    SSE3 = "SSE3"
    SSSE3 = "SSSE3"
    SSE4_1 = "SSE4.1"
    SSE4_2 = "SSE4.2"
    AVX = "AVX"
    AVX2 = "AVX2"
    AVX512 = "AVX512"
    FMA = "FMA"
    BMI1 = "BMI1"
    BMI2 = "BMI2"
    AES = "AES"
    SHA = "SHA"
    ADX = "ADX"
    CLFLUSHOPT = "CLFLUSHOPT"
    PREFETCHW = "PREFETCHW"
    TSX = "TSX"
    MPX = "MPX"
    CET = "CET"
    VIA_PADLOCK = "VIA-PADLOCK"


class InstructionCategory(enum.Enum):
    """General category (uops.info-style) used by gadget filtering."""

    ARITHMETIC = "arithmetic"
    LOGICAL = "logical"
    DATA_TRANSFER = "data_transfer"
    CONTROL_FLOW = "control_flow"
    FLOAT = "float"
    SIMD = "simd"
    CRYPTO = "crypto"
    CACHE_CONTROL = "cache_control"
    STACK = "stack"
    STRING = "string"
    SYSTEM = "system"
    MISC = "misc"


class OperandForm(enum.Enum):
    """Concrete operand encoding of a variant."""

    NONE = "none"
    R8 = "r8"
    R16 = "r16"
    R32 = "r32"
    R64 = "r64"
    R32_R32 = "r32,r32"
    R64_R64 = "r64,r64"
    R32_IMM = "r32,imm"
    R64_IMM = "r64,imm"
    R64_M64 = "r64,m64"
    M64_R64 = "m64,r64"
    M8 = "m8"
    M64 = "m64"
    M128 = "m128"
    M256 = "m256"
    XMM_XMM = "xmm,xmm"
    XMM_M128 = "xmm,m128"
    M128_XMM = "m128,xmm"
    YMM_YMM = "ymm,ymm"
    YMM_M256 = "ymm,m256"
    ZMM_ZMM = "zmm,zmm"
    REL8 = "rel8"
    REL32 = "rel32"
    ST_ST = "st,st"
    ST_M64 = "st,m64"
    IMM = "imm"


#: Operand forms that read memory.
MEMORY_READ_FORMS: frozenset[OperandForm] = frozenset(
    {
        OperandForm.R64_M64,
        OperandForm.M64,
        OperandForm.M128,
        OperandForm.M256,
        OperandForm.XMM_M128,
        OperandForm.YMM_M256,
        OperandForm.ST_M64,
        OperandForm.M8,
    }
)

#: Operand forms that write memory.
MEMORY_WRITE_FORMS: frozenset[OperandForm] = frozenset(
    {OperandForm.M64_R64, OperandForm.M128_XMM}
)


class FaultKind(enum.Enum):
    """Fault raised when an illegal variant is executed."""

    NONE = "none"
    UNDEFINED_OPCODE = "#UD"
    GENERAL_PROTECTION = "#GP"
    PAGE_FAULT = "#PF"
    DEVICE_NOT_AVAILABLE = "#NM"


@dataclass(frozen=True)
class InstructionSpec:
    """One instruction variant in the machine-readable ISA list.

    Attributes
    ----------
    mnemonic:
        Assembly mnemonic, e.g. ``"ADD"``.
    operand_form:
        Concrete operand encoding of this variant.
    iclass:
        Semantic class used by the detailed execution path.
    extension:
        ISA extension the variant belongs to (used by gadget filtering).
    category:
        General category (arithmetic, logical, ...).
    uops:
        Number of micro-ops the variant decodes into.
    latency:
        Nominal execution latency in cycles.
    width_bits:
        Operand width in bits (0 when not meaningful).
    """

    mnemonic: str
    operand_form: OperandForm
    iclass: InstructionClass
    extension: Extension
    category: InstructionCategory
    uops: int = 1
    latency: int = 1
    width_bits: int = 64

    # The derived attributes below are computed once per spec and kept
    # in the instance ``__dict__`` (search evaluates them ~10^5 times a
    # run).  Equality and hashing use the fields only; pickling does
    # too, via ``__getstate__``, so a populated cache never changes a
    # spec's identity or its pickled bytes.

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def name(self) -> str:
        """Unique variant name, e.g. ``"ADD r64,r64"``."""
        if self.operand_form is OperandForm.NONE:
            return self.mnemonic
        return f"{self.mnemonic} {self.operand_form.value}"

    @cached_property
    def reads_memory(self) -> bool:
        """Whether the variant performs a memory load."""
        return (
            self.operand_form in MEMORY_READ_FORMS
            or self.iclass in (InstructionClass.LOAD, InstructionClass.POP,
                               InstructionClass.RET, InstructionClass.STRING)
        )

    @cached_property
    def writes_memory(self) -> bool:
        """Whether the variant performs a memory store."""
        return (
            self.operand_form in MEMORY_WRITE_FORMS
            or self.iclass in (InstructionClass.STORE, InstructionClass.PUSH,
                               InstructionClass.CALL, InstructionClass.STRING)
        )


@dataclass(frozen=True)
class Instruction:
    """A placed instance of a variant inside a program.

    ``address`` is the (simulated) code address, ``mem_operand`` the data
    address touched by memory variants, and ``taken`` resolves
    conditional branches.
    """

    spec: InstructionSpec
    address: int = 0
    mem_operand: int = 0
    taken: bool = False
    target: int = 0


@dataclass
class Program:
    """A straight-line sequence of placed instructions."""

    instructions: list[Instruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)
