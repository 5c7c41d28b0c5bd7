"""Seeded mutation operators over gadget reset/trigger sequences.

Every operator draws exclusively from the RNG it is handed — typically
a ``derive_stream`` leaf keyed on (entropy, round, parent digest, child
index) — so the same stream produces the same mutant in any process.
Operators draw replacement instructions only from the post-cleanup
legal list, so mutants satisfy ``repro.isa.legality`` by construction,
and every fallback path preserves the :class:`Gadget` invariants
(non-empty trigger, sequence lengths within the configured cap).
"""

from __future__ import annotations

from repro.core.fuzzer.grammar import Gadget
from repro.isa.spec import InstructionSpec

#: Operator names in draw order.  ``havoc`` stacks 2-4 of the others.
MUTATION_OPERATORS = ("swap", "insert", "delete", "substitute", "splice",
                      "duplicate", "havoc")

#: Probability that a replacement draw comes from the cold pool (the
#: instructions the search has not yet tried) when one is supplied.
COLD_POOL_BIAS = 0.5


class GadgetMutator:
    """Applies seeded mutation operators to gadgets.

    Parameters
    ----------
    legal:
        The post-cleanup legal instruction variants (the only source of
        replacement instructions).
    max_sequence_length:
        Upper bound on reset and trigger lengths after mutation.
    """

    def __init__(self, legal, max_sequence_length: int = 3) -> None:
        self.legal = tuple(legal)
        if not self.legal:
            raise ValueError("mutator needs a non-empty legal list")
        if max_sequence_length < 1:
            raise ValueError("max_sequence_length must be >= 1")
        self.max_sequence_length = max_sequence_length
        by_extension: dict = {}
        #: Each variant's position in its extension's pool.
        self._position: dict[str, int] = {}
        for spec in self.legal:
            pool = by_extension.setdefault(spec.extension, [])
            self._position[spec.name] = len(pool)
            pool.append(spec)
        self._by_extension = {ext: tuple(specs)
                              for ext, specs in by_extension.items()}

    # -- instruction draws ---------------------------------------------

    def _pick_spec(self, rng, cold) -> InstructionSpec:
        """One replacement instruction, biased toward the cold pool."""
        if cold and float(rng.random()) < COLD_POOL_BIAS:
            return cold[int(rng.integers(len(cold)))]
        return self.legal[int(rng.integers(len(self.legal)))]

    # -- operators -----------------------------------------------------

    def _swap(self, reset: list, trigger: list, rng, cold) -> None:
        """Replace one instruction at a uniformly chosen position."""
        total = len(reset) + len(trigger)
        index = int(rng.integers(total))
        spec = self._pick_spec(rng, cold)
        if index < len(reset):
            reset[index] = spec
        else:
            trigger[index - len(reset)] = spec

    def _insert(self, reset: list, trigger: list, rng, cold) -> None:
        cap = self.max_sequence_length
        sides = [seq for seq in (reset, trigger) if len(seq) < cap]
        if not sides:
            self._swap(reset, trigger, rng, cold)
            return
        side = sides[int(rng.integers(len(sides)))]
        position = int(rng.integers(len(side) + 1))
        side.insert(position, self._pick_spec(rng, cold))

    def _delete(self, reset: list, trigger: list, rng, cold) -> None:
        # Any reset slot may go; the trigger must keep one instruction.
        deletable = len(reset) + max(0, len(trigger) - 1)
        if deletable == 0:
            self._swap(reset, trigger, rng, cold)
            return
        index = int(rng.integers(deletable))
        if index < len(reset):
            del reset[index]
        else:
            del trigger[index - len(reset)]

    def _substitute(self, reset: list, trigger: list, rng, cold) -> None:
        """Extension-preserving substitution at a chosen position."""
        total = len(reset) + len(trigger)
        index = int(rng.integers(total))
        side, offset = ((reset, index) if index < len(reset)
                        else (trigger, index - len(reset)))
        current = side[offset]
        # A uniform draw from the extension's pool without ``current``
        # (a legal variant: names are unique), made without building
        # that list: draw over one fewer and step over its position.
        pool = self._by_extension[current.extension]
        if len(pool) == 1:
            self._swap(reset, trigger, rng, cold)
            return
        pick = int(rng.integers(len(pool) - 1))
        if pick >= self._position[current.name]:
            pick += 1
        side[offset] = pool[pick]

    def _splice(self, reset: list, trigger: list, rng, cold) -> None:
        """Exchange reset and trigger roles, or split a long trigger."""
        if reset:
            reset[:], trigger[:] = list(trigger), list(reset)
        elif len(trigger) > 1:
            cut = 1 + int(rng.integers(len(trigger) - 1))
            reset[:], trigger[:] = trigger[:cut], trigger[cut:]
        else:
            self._swap(reset, trigger, rng, cold)

    def _duplicate(self, reset: list, trigger: list, rng, cold) -> None:
        """Duplicate one instruction in place — response amplification.

        A trigger whose response sits just under the screening
        threshold (a scheduler near-miss) roughly doubles its delta
        when the instruction executes twice per iteration.
        """
        total = len(reset) + len(trigger)
        index = int(rng.integers(total))
        side, offset = ((reset, index) if index < len(reset)
                        else (trigger, index - len(reset)))
        if len(side) >= self.max_sequence_length:
            self._swap(reset, trigger, rng, cold)
            return
        side.insert(offset, side[offset])

    # -- entry point ---------------------------------------------------

    def mutate(self, gadget: Gadget, rng, cold=()) -> Gadget:
        """One mutated gadget, fully determined by ``rng`` draws.

        ``cold`` optionally supplies instruction specs the search has
        not evaluated yet; replacement draws prefer it with probability
        :data:`COLD_POOL_BIAS`.
        """
        reset = list(gadget.reset)
        trigger = list(gadget.trigger)
        operators = (self._swap, self._insert, self._delete,
                     self._substitute, self._splice, self._duplicate)
        choice = int(rng.integers(len(MUTATION_OPERATORS)))
        if MUTATION_OPERATORS[choice] == "havoc":
            stack = 2 + int(rng.integers(3))
            for _ in range(stack):
                operators[int(rng.integers(len(operators)))](
                    reset, trigger, rng, cold)
        else:
            operators[choice](reset, trigger, rng, cold)
        return Gadget(reset=tuple(reset), trigger=tuple(trigger))
