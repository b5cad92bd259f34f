"""ParallelRunner: ordering, determinism, fallbacks, and sweep identity."""

import pytest

from repro.experiments.sweep import SweepItem, evaluate_sweep_item
from repro.pipeline import RunContext, run_in_memory
from repro.runtime import ParallelRunner, available_cpus, fork_available
from repro.runtime.parallel import _run_chunk


def _square(x):
    return x * x


def _flaky(x):
    if x == 3:
        raise ValueError("boom")
    return x


class TestParallelRunnerMechanics:
    def test_serial_map(self):
        assert ParallelRunner(max_workers=1).map(_square, [3, -1, 0]) == [9, 1, 0]

    def test_empty_items(self):
        assert ParallelRunner(max_workers=4).map(_square, []) == []

    def test_parallel_map_preserves_order(self):
        runner = ParallelRunner(max_workers=4, chunk_size=2)
        items = list(range(17))
        assert runner.map(_square, items) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(40))
        serial = ParallelRunner(max_workers=1).map(_square, items)
        parallel = ParallelRunner(max_workers=4).map(_square, items)
        assert serial == parallel

    def test_unpicklable_function_falls_back_in_process(self):
        runner = ParallelRunner(max_workers=4)
        doubled = runner.map(lambda x: 2 * x, [1, 2, 3])
        assert doubled == [2, 4, 6]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            ParallelRunner(max_workers=1).map(_flaky, [1, 2, 3])
        if fork_available():
            with pytest.raises(ValueError, match="boom"):
                ParallelRunner(max_workers=2, chunk_size=1).map(_flaky, [1, 2, 3])

    def test_chunking_covers_every_item_exactly_once(self):
        runner = ParallelRunner(max_workers=3, chunk_size=4)
        chunks = runner._chunks(list(range(10)))
        flattened = [x for chunk in chunks for x in chunk]
        assert flattened == list(range(10))
        assert all(len(chunk) <= 4 for chunk in chunks)

    def test_run_chunk_helper(self):
        assert _run_chunk(_square, [2, 5]) == [4, 25]

    def test_chunks_sized_from_effective_workers(self, monkeypatch):
        # Regression: on an affinity-restricted host (2 usable cpus under
        # max_workers=16) auto-chunking must target the 2-process pool
        # map() actually builds, not 16 * 4 = 64 slivers.
        import repro.runtime.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 2)
        runner = ParallelRunner(max_workers=16)
        work = list(range(64))
        chunks = runner._chunks(work, min(runner.max_workers, 2))
        assert len(chunks) == 8  # 64 items / (2 workers * 4)
        assert [x for chunk in chunks for x in chunk] == work
        # The default path (workers=None) recomputes the same cap itself.
        assert len(runner._chunks(work)) == 8

    def test_chunks_default_matches_map_computation(self, monkeypatch):
        # Unrestricted hosts keep the old sizing: max_workers binds.
        import repro.runtime.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 64)
        runner = ParallelRunner(max_workers=4)
        chunks = runner._chunks(list(range(32)))
        assert len(chunks) == 16  # 32 items / (4 workers * 4) = size 2

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1


class TestMinWorkThreshold:
    """Tiny sweeps skip the pool; results stay identical either way."""

    def test_default_threshold_enabled(self):
        assert ParallelRunner().serial_threshold_seconds == 0.5

    def test_cheap_items_fall_back_to_serial(self, monkeypatch):
        # Sub-millisecond items never amortise a pool; if the pool were
        # still consulted this would explode via the patched executor.
        import repro.runtime.parallel as parallel_module

        def _boom(*args, **kwargs):
            raise AssertionError("pool must not start for tiny work")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _boom)
        runner = ParallelRunner(max_workers=4)
        items = list(range(50))
        assert runner.map(_square, items) == [x * x for x in items]

    def test_zero_threshold_forces_pool_with_identical_results(self):
        items = list(range(30))
        eager = ParallelRunner(max_workers=4, serial_threshold_seconds=0.0)
        assert eager.map(_square, items) == [x * x for x in items]

    def test_threshold_fallback_preserves_order(self):
        runner = ParallelRunner(max_workers=4, serial_threshold_seconds=60.0)
        items = list(range(23))
        assert runner.map(_square, items) == [x * x for x in items]

    def test_single_cpu_stays_in_process(self, monkeypatch):
        # On a one-core box the pool can only add cost, whatever the
        # projected work; the runner must not even probe the first item
        # through the pool path.
        import repro.runtime.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 1)

        def _boom(*args, **kwargs):
            raise AssertionError("pool must not start on a single-core box")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", _boom)
        runner = ParallelRunner(max_workers=8, serial_threshold_seconds=0.0)
        items = list(range(40))
        assert runner.map(_square, items) == [x * x for x in items]


class TestSweepDeterminism:
    # Deterministic OPT/OR bounds: record identity must not depend on wall
    # clock (see repro.experiments.sweep's module docstring).
    PARAMS = dict(
        instances_per_size=8,
        base_seed=9,
        opt_budget=30.0,
        or_budget=10.0,
        opt_node_budget=300,
        or_node_budget=200,
    )

    def sweep(self, switch_counts, ctx=None):
        params = dict(self.PARAMS, switch_counts=switch_counts)
        return run_in_memory("sweep", params, ctx=ctx).records

    def test_parallel_records_identical_to_serial(self):
        serial = self.sweep((10, 12))
        parallel = self.sweep((10, 12), ctx=RunContext(workers=4))
        assert serial == parallel

    def test_rerun_is_reproducible(self):
        assert self.sweep((10,)) == self.sweep((10,))

    def test_item_evaluation_matches_inline_sweep(self):
        records = self.sweep((10,))
        item = SweepItem(
            switch_count=10,
            seed=records[0].seed,
            schemes=("chronus", "or", "opt"),
            opt_budget=30.0,
            or_budget=10.0,
            opt_node_budget=300,
            or_node_budget=200,
        )
        assert evaluate_sweep_item(item) == records[0]
