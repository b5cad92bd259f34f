"""ordered_map: ordering, determinism, fallbacks, and sweep identity."""

import os
import pickle

import pytest

import repro.runtime.parallel as parallel_module
from repro.experiments.sweep import sweep_evaluate
from repro.pipeline import RunContext, get_scenario, run_in_memory
from repro.runtime import available_cpus, fork_available, ordered_map


def _square(x):
    return x * x


def _flaky(x):
    if x == 3:
        raise ValueError("boom")
    return x


class _Unpicklable:
    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        raise pickle.PicklingError("stays in its process")


def run(fn, items, workers):
    return list(ordered_map(fn, items, workers))


@pytest.mark.usefixtures("two_cpus")
class TestParallelRunnerMechanics:
    def test_serial_map(self):
        assert run(_square, [3, -1, 0], workers=1) == [9, 1, 0]

    def test_empty_items(self):
        assert run(_square, [], workers=4) == []

    def test_parallel_map_preserves_order(self):
        items = list(range(17))
        assert run(_square, items, workers=4) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(40))
        assert run(_square, items, workers=1) == run(_square, items, workers=4)

    @pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
    def test_unpicklable_function_runs_in_the_pool(self):
        # The work function reaches the workers through fork, not pickle.
        pids = run(lambda x: os.getpid(), [1, 2, 3], workers=2)
        assert os.getpid() not in pids

    def test_unpicklable_result_falls_back_in_process(self):
        results = run(_Unpicklable, [1, 2, 3], workers=2)
        assert [result.value for result in results] == [1, 2, 3]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            run(_flaky, [1, 2, 3], workers=1)
        if fork_available():
            with pytest.raises(ValueError, match="boom"):
                run(_flaky, [1, 2, 3], workers=2)

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1

    def test_single_cpu_stays_in_process(self, monkeypatch):
        # On a one-core box the pool can only add cost, whatever the
        # work; the map must not start one.
        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 1)

        def _boom(*args, **kwargs):
            raise AssertionError("pool must not start on a single-core box")

        monkeypatch.setattr(parallel_module, "_fork_pool", _boom)
        items = list(range(40))
        assert run(_square, items, workers=8) == [x * x for x in items]


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
        params = get_scenario("sweep").params_with(dict(self.PARAMS, switch_counts=(10,)))
        item = {"key": records[0]["key"], "switch_count": 10, "seed": records[0]["seed"]}
        assert sweep_evaluate(item, params) == records[0]
