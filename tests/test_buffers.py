"""Tests for boundary-buffer cache accounting."""

from repro.comm.buffers import METADATA_BYTES_PER_BUFFER, cache_stats


class TestInitialize:
    def test_counts_reported(self):
        stats = cache_stats(10)
        assert stats.keys_sorted == 10
        assert stats.keys_shuffled == 10


class TestCountsMode:
    def test_counts_only_path(self):
        stats = cache_stats(5000)
        assert stats.keys_sorted == 5000

    def test_rebuild_views_accounting(self):
        stats = cache_stats(4)
        assert stats.views_rebuilt == 4
        assert stats.h2d_copies == 4
        assert stats.metadata_bytes == 4 * METADATA_BYTES_PER_BUFFER
