"""Property tests for the seeded mutation operators.

Two invariants carry the coverage search's reproducibility and safety
story: *determinism* — the same derived RNG stream produces the same
mutant, in this process or any other — and *legality* — every mutant
is built exclusively from post-cleanup legal instructions and keeps
the :class:`Gadget` shape invariants (non-empty trigger, sequence
lengths within the cap), so mutants satisfy ``repro.isa.legality`` by
construction.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fuzzer.campaign import default_cleanup
from repro.core.fuzzer.grammar import Gadget
from repro.isa.catalog import shared_catalog
from repro.isa.legality import MICROARCH_PROFILES, LegalityTester
from repro.search.engine import mutation_stream
from repro.search.mutators import COLD_POOL_BIAS, GadgetMutator

MICROARCH = "amd-epyc-7252"
MAX_LEN = 3

LEGAL = default_cleanup(MICROARCH).legal
MUTATOR = GadgetMutator(LEGAL, max_sequence_length=MAX_LEN)


def names(gadget: Gadget) -> tuple:
    return (tuple(s.name for s in gadget.reset),
            tuple(s.name for s in gadget.trigger))


@st.composite
def parent_gadgets(draw):
    index = st.integers(min_value=0, max_value=len(LEGAL) - 1)
    reset = draw(st.lists(index, max_size=MAX_LEN))
    trigger = draw(st.lists(index, min_size=1, max_size=MAX_LEN))
    return Gadget(reset=tuple(LEGAL[i] for i in reset),
                  trigger=tuple(LEGAL[i] for i in trigger))


mutation_labels = st.tuples(
    st.integers(min_value=0, max_value=2 ** 31 - 1),  # entropy
    st.integers(min_value=0, max_value=500),          # round
    st.integers(min_value=0, max_value=63),           # child
)


def _mutate_names_in_subprocess(parent_names, labels, cold):
    """Worker-side re-derivation: rebuild everything from plain data."""
    legal = default_cleanup(MICROARCH).legal
    by_name = {spec.name: spec for spec in legal}
    mutator = GadgetMutator(legal, max_sequence_length=MAX_LEN)
    parent = Gadget(
        reset=tuple(by_name[n] for n in parent_names[0]),
        trigger=tuple(by_name[n] for n in parent_names[1]))
    entropy, round_index, child = labels
    stream = mutation_stream(entropy, round_index, parent_names[1][0],
                             child)
    cold_specs = tuple(by_name[n] for n in cold)
    reset, trigger = names(mutator.mutate(parent, stream,
                                          cold=cold_specs))
    return (tuple(reset), tuple(trigger))


class TestDeterminism:
    @given(parent=parent_gadgets(), labels=mutation_labels)
    @settings(max_examples=150, deadline=None)
    def test_same_stream_same_mutant(self, parent, labels):
        entropy, round_index, child = labels
        digest = parent.trigger[0].name
        first = MUTATOR.mutate(
            parent, mutation_stream(entropy, round_index, digest, child))
        second = MUTATOR.mutate(
            parent, mutation_stream(entropy, round_index, digest, child))
        assert names(first) == names(second)

    @given(parent=parent_gadgets(), labels=mutation_labels)
    @settings(max_examples=50, deadline=None)
    def test_sibling_streams_are_independent(self, parent, labels):
        # A different child index must not perturb this child's draw.
        entropy, round_index, child = labels
        digest = parent.trigger[0].name
        alone = MUTATOR.mutate(
            parent, mutation_stream(entropy, round_index, digest, child))
        sibling_first = MUTATOR.mutate(
            parent, mutation_stream(entropy, round_index, digest,
                                    child + 1))
        again = MUTATOR.mutate(
            parent, mutation_stream(entropy, round_index, digest, child))
        assert names(alone) == names(again)
        del sibling_first

    def test_identical_mutants_across_processes(self):
        cold = tuple(sorted(spec.name for spec in LEGAL[:5]))
        cases = []
        for child in range(8):
            parent = Gadget(reset=(LEGAL[child],),
                            trigger=(LEGAL[2 * child + 1], LEGAL[40 + child]))
            cases.append((names(parent), (11, 3, child), cold))
        local = [_mutate_names_in_subprocess(*case) for case in cases]
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = list(pool.map(_mutate_names_in_subprocess,
                                   *zip(*cases)))
        assert local == remote


class TestSubstitute:
    def test_draws_match_the_filtered_list(self):
        """``_substitute`` picks what indexing the filtered extension
        list (every same-extension variant but the current one) with the
        same draw picked, for every extension and both pool ends."""
        by_extension: dict = {}
        for spec in LEGAL:
            by_extension.setdefault(spec.extension, []).append(spec)
        cases = [spec for pool in by_extension.values()
                 for spec in (pool[0], pool[len(pool) // 2], pool[-1])]
        for case, current in enumerate(cases):
            group = [spec for spec in by_extension[current.extension]
                     if spec.name != current.name]
            for seed in range(8):
                trigger = [current]
                MUTATOR._substitute([], trigger, np.random.default_rng(
                    (case, seed)), ())
                rng = np.random.default_rng((case, seed))
                rng.integers(1)  # the position draw
                assert trigger == [group[int(rng.integers(len(group)))]]


class TestLegality:
    @classmethod
    def setup_class(cls):
        cls.tester = LegalityTester(shared_catalog(),
                                    MICROARCH_PROFILES[MICROARCH])
        cls.legal_names = {spec.name for spec in LEGAL}

    @given(parent=parent_gadgets(), labels=mutation_labels)
    @settings(max_examples=150, deadline=None)
    def test_mutants_are_legal_and_well_formed(self, parent, labels):
        entropy, round_index, child = labels
        stream = mutation_stream(entropy, round_index,
                                 parent.trigger[0].name, child)
        cold = LEGAL[:3] if entropy % 2 else ()
        mutant = MUTATOR.mutate(parent, stream, cold=cold)
        assert 1 <= len(mutant.trigger) <= MAX_LEN
        assert len(mutant.reset) <= MAX_LEN
        for spec in mutant.reset + mutant.trigger:
            assert spec.name in self.legal_names
            assert self.tester.is_legal(spec)

    @given(labels=mutation_labels)
    @settings(max_examples=30, deadline=None)
    def test_cold_pool_draws_stay_legal(self, labels):
        entropy, round_index, child = labels
        parent = Gadget(reset=(), trigger=(LEGAL[0],))
        stream = mutation_stream(entropy, round_index, LEGAL[0].name,
                                 child)
        cold = tuple(LEGAL[-10:])
        mutant = MUTATOR.mutate(parent, stream, cold=cold)
        for spec in mutant.reset + mutant.trigger:
            assert self.tester.is_legal(spec)
        assert 0.0 < COLD_POOL_BIAS < 1.0
