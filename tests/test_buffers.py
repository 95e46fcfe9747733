"""Tests for boundary-buffer cache bookkeeping."""

import pytest

from repro.comm.buffers import BufferCache, BufferKey, CacheStats
from repro.mesh.logical_location import LogicalLocation


def make_keys(n):
    return {
        BufferKey(
            sender=LogicalLocation(0, i, 0, 0),
            receiver=LogicalLocation(0, (i + 1) % n, 0, 0),
            offset=(1, 0, 0),
        ): 128
        for i in range(n)
    }


class TestInitialize:
    def test_counts_reported(self):
        cache = BufferCache()
        stats = cache.initialize(make_keys(10))
        assert stats.keys_sorted == 10
        assert stats.keys_shuffled == 10
        assert len(cache) == 10

    def test_shuffle_is_seeded(self):
        keys = make_keys(20)
        a = BufferCache(seed=1)
        a.initialize(keys)
        b = BufferCache(seed=1)
        b.initialize(keys)
        assert a.order == b.order
        c = BufferCache(seed=2)
        c.initialize(keys)
        assert a.order != c.order

    def test_order_contains_every_key(self):
        keys = make_keys(12)
        cache = BufferCache()
        cache.initialize(keys)
        assert set(cache.order) == set(keys)

    def test_sort_key_is_total_order(self):
        keys = sorted(make_keys(8), key=BufferCache._sort_key)
        assert len(set(BufferCache._sort_key(k) for k in keys)) == 8


class TestCountsMode:
    def test_counts_only_path(self):
        cache = BufferCache()
        stats = cache.initialize_counts(5000)
        assert stats.keys_sorted == 5000
        assert cache.order == []

    def test_rebuild_views_accounting(self):
        cache = BufferCache()
        cache.initialize(make_keys(4))
        stats = cache.rebuild_views()
        assert stats.views_rebuilt == 4
        assert stats.h2d_copies == 4
        assert stats.metadata_bytes == 4 * BufferCache.METADATA_BYTES_PER_BUFFER


class TestLifecycle:
    def test_mark_stale(self):
        cache = BufferCache()
        cache.initialize(make_keys(6))
        n = cache.mark_stale()
        assert n == 6
        assert all(cache.stale.values())

    def test_total_buffer_bytes(self):
        cache = BufferCache()
        cache.initialize(make_keys(3))
        assert cache.total_buffer_bytes() == 3 * 128
