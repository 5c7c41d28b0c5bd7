"""Tests for the machine-readable ISA catalog."""

import pickle
from dataclasses import fields

import pytest

from repro.isa import (
    Extension,
    InstructionCategory,
    InstructionClass,
    InstructionSpec,
    OperandForm,
    build_catalog,
)
from repro.isa.catalog import DEFAULT_CATALOG_SIZE


class TestCatalogGeneration:
    def test_default_size_matches_paper_scale(self, isa_catalog):
        assert len(isa_catalog) == DEFAULT_CATALOG_SIZE == 14015

    def test_deterministic(self, isa_catalog):
        again = build_catalog()
        assert [v.name for v in again] == [v.name for v in isa_catalog]

    def test_unique_names(self, isa_catalog):
        names = [v.name for v in isa_catalog]
        assert len(names) == len(set(names))

    def test_custom_size(self):
        small = build_catalog(target_size=500)
        assert len(small) == 500

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            build_catalog(target_size=0)

    def test_contains_paper_relevant_instructions(self, isa_catalog):
        for name in ("CLFLUSH m8", "CPUID", "RDPMC", "PUSH r64", "POP r64",
                     "ADD r64,r64", "MOV r64,m64"):
            assert isa_catalog.get(name).name == name

    def test_lookup_unknown_raises(self, isa_catalog):
        with pytest.raises(KeyError, match="NOT_AN_INSTR"):
            isa_catalog.get("NOT_AN_INSTR")

    def test_every_extension_present(self, isa_catalog):
        extensions = {v.extension for v in isa_catalog}
        for ext in (Extension.BASE, Extension.SSE2, Extension.AVX2,
                    Extension.AVX512, Extension.X87_FPU, Extension.AES):
            assert ext in extensions

    def test_by_extension_and_category(self, isa_catalog):
        simd = isa_catalog.by_category(InstructionCategory.SIMD)
        assert simd and all(
            v.category is InstructionCategory.SIMD for v in simd)
        avx = isa_catalog.by_extension(Extension.AVX)
        assert avx and all(v.extension is Extension.AVX for v in avx)


class TestInstructionSpec:
    def test_memory_semantics(self, isa_catalog):
        load = isa_catalog.get("MOV r64,m64")
        store = isa_catalog.get("MOV m64,r64")
        assert load.reads_memory and not load.writes_memory
        assert store.writes_memory and not store.reads_memory

    def test_name_includes_operand_form(self, isa_catalog):
        spec = isa_catalog.get("ADD r64,r64")
        assert spec.operand_form is OperandForm.R64_R64

    def test_cached_attributes_leave_identity_unchanged(self, isa_catalog):
        """``name``/``reads_memory``/``writes_memory`` are computed once
        and cached on the instance; equality, hashing and the pickled
        bytes must not depend on whether the cache is populated."""
        names = ("ADD r64,r64", "MOV r64,m64", "MOV m64,r64", "CPUID",
                 "CLFLUSH m8")
        for name in names:
            spec = isa_catalog.get(name)
            fresh = InstructionSpec(*(getattr(spec, f.name)
                                      for f in fields(InstructionSpec)))
            cold_bytes = pickle.dumps(fresh)
            assert (spec.name, spec.reads_memory, spec.writes_memory) \
                == (fresh.name, fresh.reads_memory, fresh.writes_memory)
            assert "name" in vars(spec) and "reads_memory" in vars(fresh)
            assert spec == fresh and hash(spec) == hash(fresh)
            assert hash(fresh) == hash(tuple(getattr(fresh, f.name)
                                             for f in fields(fresh)))
            assert pickle.dumps(fresh) == cold_bytes
            assert pickle.dumps(spec) == cold_bytes
            restored = pickle.loads(cold_bytes)
            assert restored == spec and hash(restored) == hash(spec)
            assert set(vars(restored)) == {f.name for f in fields(spec)}
            assert restored.name == name

    def test_class_semantics(self, isa_catalog):
        assert isa_catalog.get("CPUID").iclass is InstructionClass.SERIALIZE
        assert isa_catalog.get("CLFLUSH m8").iclass is InstructionClass.CLFLUSH
        assert isa_catalog.get("RDPMC").iclass is InstructionClass.RDPMC
