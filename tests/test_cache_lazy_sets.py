"""Cache sets are allocated on first fill, not at construction."""

import tracemalloc

from repro.cpu.caches import Cache
from repro.vm.guest import GuestVM


def _fill(cache: Cache, lines: int) -> None:
    for i in range(lines):
        cache.access(i * cache.line_size, write=bool(i % 3))


class TestLazySets:
    def test_fresh_guest_is_small(self):
        # Four vCPUs x (64 + 1024 + 4096) sets used to be allocated up
        # front: ~2.8 MiB per guest before it ran a single instruction.
        # The first guest also builds per-process tables (the event
        # catalog), so it is not the one measured.
        GuestVM("warm", num_vcpus=1, rng=0)
        tracemalloc.start()
        try:
            guest = GuestVM("lazy", num_vcpus=4, rng=0)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(guest.vcpus) == 4
        assert allocated < 256 * 1024

    def test_untouched_set_contains_and_flush(self):
        cache = Cache(4096, ways=2)
        _fill(cache, 4)  # sets 0-3 of 32
        before = (cache.occupancy, cache.resident_lines())
        untouched = 20 * cache.line_size
        assert cache.contains(untouched) is False
        assert cache.flush(untouched) is False
        assert (cache.occupancy, cache.resident_lines()) == before
        assert cache.stats.flushes == 0

    def test_reset_after_fills(self):
        cache = Cache(4096, ways=2)
        _fill(cache, 80)
        assert cache.occupancy == 64
        cache.reset()
        assert cache.occupancy == 0
        assert cache.resident_lines() == ()
        assert cache.stats.accesses == 0
        # Refilling after a reset behaves like a fresh cache.
        fresh = Cache(4096, ways=2)
        _fill(cache, 80)
        _fill(fresh, 80)
        assert cache.resident_lines() == fresh.resident_lines()
        assert cache.stats == fresh.stats

    def test_flush_all_after_fills(self):
        cache = Cache(4096, ways=2)
        _fill(cache, 40)
        resident = cache.occupancy
        cache.flush_all()
        assert cache.occupancy == 0
        assert cache.resident_lines() == ()
        assert cache.stats.flushes == resident
        assert cache.access(0) is False
