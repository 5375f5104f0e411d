"""End-to-end checks of the performance layer against real drivers.

Experiment reruns under an active trace cache must reload bit-identical
traces rather than re-simulating, and the executor archives every run it
computes exactly once.
"""

from repro.experiments.table2 import run_table2
from repro.perf import cache_enabled


def _table2_tuples(result):
    return [
        (c.n_senders, c.bandwidth_mbps, c.friendliness_robust_aimd,
         c.friendliness_pcc)
        for c in result.cells
    ]


class TestCachedExperiments:
    def test_table2_rerun_hits_cache_and_matches(self, tmp_path):
        kwargs = dict(senders=(2,), bandwidths_mbps=(20, 30), steps=300)
        cold_result = None
        with cache_enabled(tmp_path) as cache:
            cold_result = run_table2(**kwargs)
            cold_stats = (cache.hits, cache.misses)
            warm_result = run_table2(**kwargs)
            warm_stats = (cache.hits, cache.misses)
        assert cold_stats[0] == 0  # nothing cached yet
        assert cold_stats[1] > 0
        # The warm rerun resolved every simulation from the cache: no new
        # misses, and one unified-store hit per simulation. Each cold
        # simulation misses once: the executor reads each key once.
        assert warm_stats[1] == cold_stats[1]
        assert warm_stats[0] == cold_stats[1]
        assert _table2_tuples(cold_result) == _table2_tuples(warm_result)

    def test_cached_matches_uncached_exactly(self, tmp_path):
        kwargs = dict(senders=(2,), bandwidths_mbps=(20,), steps=300)
        uncached = run_table2(**kwargs)
        with cache_enabled(tmp_path):
            run_table2(**kwargs)  # populate
            cached = run_table2(**kwargs)  # replay
        assert _table2_tuples(uncached) == _table2_tuples(cached)

    def test_computed_runs_are_archived_once(self, tmp_path):
        kwargs = dict(senders=(2, 3), bandwidths_mbps=(20,), steps=300)
        with cache_enabled(tmp_path) as cache:
            cold = run_table2(**kwargs)  # the per-job lane computes
            # The executor archived every (cell, protocol) run exactly once.
            assert cache.stats()["entries"] == 4
            assert len(cache.read_index()) == 4
            warm = run_table2(**kwargs)  # replays from disk
            assert cache.hits == 4
        uncached = run_table2(**kwargs)
        assert _table2_tuples(uncached) == _table2_tuples(warm)
        assert _table2_tuples(uncached) == _table2_tuples(cold)
