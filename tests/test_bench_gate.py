"""Unit tests for the bench script's regression gates."""

import importlib.util
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_script", REPO_ROOT / "scripts" / "bench.py"
)
bench = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_script", bench)
_spec.loader.exec_module(bench)


def record(seconds, cpus=4, quick=False, profile=False, sizes=None):
    greedy = sizes if sizes is not None else {"4000": seconds}
    entry = {"cpus": cpus, "quick": quick, "greedy": dict(greedy)}
    if profile:
        entry["profile"] = {"spans": {}, "counters": {}}
    return entry


class TestGreedyRegressionGate:
    def test_no_history_skips(self):
        assert bench.greedy_regression(record(1.0), []) is None

    def test_within_limit_passes(self):
        history = [record(1.0), record(1.2)]
        assert bench.greedy_regression(record(1.29), history) is None

    def test_regression_fails(self):
        history = [record(1.0)]
        message = bench.greedy_regression(record(1.5), history)
        assert message is not None
        assert "greedy[4000]" in message

    def test_best_prior_is_the_baseline(self):
        # 1.5s is over 1.3x the best (1.0s) even though a worse prior exists.
        history = [record(2.0), record(1.0)]
        assert bench.greedy_regression(record(1.5), history) is not None

    def test_other_machine_class_skipped(self):
        history = [record(1.0, cpus=32)]
        assert bench.greedy_regression(record(9.9, cpus=4), history) is None

    def test_quick_records_ignored(self):
        history = [record(0.1, quick=True)]
        assert bench.greedy_regression(record(9.9), history) is None

    def test_profiled_records_ignored_both_sides(self):
        history = [record(1.0)]
        assert bench.greedy_regression(record(9.9, profile=True), history) is None
        assert bench.greedy_regression(record(1.0), [record(0.1, profile=True)]) is None

    def test_quick_current_record_skips(self):
        current = {"cpus": 4, "quick": True, "greedy": {"200": 0.05}}
        assert bench.greedy_regression(current, [record(1.0)]) is None


class TestMultiSizeGate:
    """Every measured size gates independently against its own priors."""

    def test_regression_at_a_large_size_fails(self):
        history = [record(None, sizes={"4000": 1.0, "50000": 8.0})]
        current = record(None, sizes={"4000": 1.0, "50000": 20.0})
        message = bench.greedy_regression(current, history)
        assert message is not None
        assert "greedy[50000]" in message
        assert "greedy[4000]" not in message

    def test_new_size_without_priors_skipped(self):
        # Adding a bench size must never fail its own first run.
        history = [record(None, sizes={"4000": 1.0})]
        current = record(None, sizes={"4000": 1.1, "100000": 99.0})
        assert bench.greedy_regression(current, history) is None

    def test_multiple_failures_all_reported(self):
        history = [record(None, sizes={"400": 0.1, "4000": 1.0})]
        current = record(None, sizes={"400": 0.5, "4000": 5.0})
        message = bench.greedy_regression(current, history)
        assert message is not None
        assert "greedy[400]" in message
        assert "greedy[4000]" in message
        assert ";" in message

    def test_sizes_gate_against_their_own_best(self):
        history = [
            record(None, sizes={"4000": 1.0, "50000": 10.0}),
            record(None, sizes={"4000": 2.0, "50000": 8.0}),
        ]
        # Each current size is within 1.3x of that size's best prior.
        current = record(None, sizes={"4000": 1.2, "50000": 10.0})
        assert bench.greedy_regression(current, history) is None

    def test_non_numeric_size_entries_skipped(self):
        history = [record(None, sizes={"4000": 1.0})]
        current = record(None, sizes={"4000": "skipped"})
        assert bench.greedy_regression(current, history) is None


def opt_record(nodes_per_sec, engine="array", cpus=1, switches=30, instances=8,
               quick=False, profile=False, omit_engine=False):
    opt = {
        "switches": switches,
        "instances": instances,
        "nodes_per_sec": nodes_per_sec,
        "explored": 1000,
        "elapsed": 1.0,
        "proven": 4,
    }
    if not omit_engine:
        opt["engine"] = engine
    entry = {"cpus": cpus, "quick": quick, "opt": opt}
    if profile:
        entry["profile"] = {"spans": {}, "counters": {}}
    return entry


class TestOptRegressionGate:
    def test_no_history_skips(self):
        assert bench.opt_regression(opt_record(2000.0), []) is None

    def test_within_limit_passes(self):
        history = [opt_record(2000.0)]
        assert bench.opt_regression(opt_record(1600.0), history) is None

    def test_regression_fails(self):
        history = [opt_record(2000.0)]
        message = bench.opt_regression(opt_record(1000.0), history)
        assert message is not None
        assert "opt[array]" in message

    def test_best_prior_is_the_baseline(self):
        history = [opt_record(500.0), opt_record(2000.0)]
        assert bench.opt_regression(opt_record(1000.0), history) is not None

    def test_other_engine_not_comparable(self):
        # A new engine's first record must not be gated against the old
        # engine's throughput (node granularities differ).
        history = [opt_record(2000.0, engine="reference")]
        assert bench.opt_regression(opt_record(100.0, engine="array"), history) is None

    def test_bounded_search_nodes_not_comparable(self):
        # The loop-freedom bound changed what an OPT node is: the harness
        # labels its row apart from the unbounded search's "array" records.
        engine = bench.perf_harness.OPT_ENGINE
        assert engine != "array"
        history = [opt_record(3000.0, engine="array")]
        assert bench.opt_regression(opt_record(100.0, engine=engine), history) is None

    def test_legacy_records_count_as_reference(self):
        history = [opt_record(172.0, omit_engine=True)]
        message = bench.opt_regression(opt_record(100.0, engine="reference"), history)
        assert message is not None
        assert bench.opt_regression(opt_record(100.0, engine="array"), history) is None

    def test_other_machine_class_skipped(self):
        history = [opt_record(2000.0, cpus=32)]
        assert bench.opt_regression(opt_record(100.0, cpus=1), history) is None

    def test_other_workload_skipped(self):
        history = [opt_record(2000.0, switches=20)]
        assert bench.opt_regression(opt_record(100.0, switches=30), history) is None

    def test_quick_and_profiled_records_skipped(self):
        history = [opt_record(2000.0)]
        assert bench.opt_regression(opt_record(100.0, quick=True), history) is None
        assert bench.opt_regression(opt_record(100.0, profile=True), history) is None
        assert bench.opt_regression(
            opt_record(100.0), [opt_record(9000.0, quick=True)]
        ) is None


def service_record(updates_per_sec, cpus=4, cells=2, pods=6, requests=80,
                   conformant=True, deterministic=True, quick=False,
                   profile=False):
    entry = {
        "cpus": cpus,
        "quick": quick,
        "service": {
            "cells": cells,
            "pods": pods,
            "requests": requests,
            "served": requests,
            "updates_per_sec": updates_per_sec,
            "latency_p50": 3.5,
            "latency_p95": 6.2,
            "conformant": conformant,
            "deterministic": deterministic,
        },
    }
    if profile:
        entry["profile"] = {"spans": {}, "counters": {}}
    return entry


class TestServiceRegressionGate:
    def test_no_history_skips_throughput(self):
        assert bench.service_regression(service_record(50.0), []) is None

    def test_missing_service_block_skips(self):
        assert bench.service_regression({"cpus": 4}, []) is None

    def test_within_limit_passes(self):
        history = [service_record(50.0)]
        assert bench.service_regression(service_record(40.0), history) is None

    def test_throughput_regression_fails(self):
        history = [service_record(50.0)]
        message = bench.service_regression(service_record(30.0), history)
        assert message is not None
        assert "upd/s" in message

    def test_best_prior_is_the_baseline(self):
        history = [service_record(10.0), service_record(50.0)]
        assert bench.service_regression(service_record(30.0), history) is not None

    def test_nondeterminism_fails_without_history(self):
        message = bench.service_regression(
            service_record(50.0, deterministic=False), []
        )
        assert message is not None
        assert "deterministic" in message

    def test_nonconformance_fails_without_history(self):
        message = bench.service_regression(
            service_record(50.0, conformant=False), []
        )
        assert message is not None
        assert "conformant" in message

    def test_hard_invariants_fail_even_on_quick_records(self):
        assert bench.service_regression(
            service_record(50.0, quick=True, deterministic=False), []
        ) is not None

    def test_other_machine_class_skipped(self):
        history = [service_record(50.0, cpus=32)]
        assert bench.service_regression(
            service_record(1.0, cpus=4), history
        ) is None

    def test_other_workload_shape_skipped(self):
        history = [service_record(50.0, pods=16)]
        assert bench.service_regression(
            service_record(1.0, pods=6), history
        ) is None

    def test_quick_and_profiled_records_skip_throughput(self):
        history = [service_record(50.0)]
        assert bench.service_regression(
            service_record(1.0, quick=True), history
        ) is None
        assert bench.service_regression(
            service_record(1.0, profile=True), history
        ) is None
        assert bench.service_regression(
            service_record(30.0), [service_record(900.0, quick=True)]
        ) is None


def verify_record(service_seconds, mixed_seconds=0.001, cpus=1, pods=32,
                  switches=30, ok=True, quick=False, profile=False):
    entry = {
        "cpus": cpus,
        "quick": quick,
        "verify": {
            "service": {
                "pods": pods, "pod_size": 12, "calls": 200,
                "seconds_per_verify": service_seconds, "ok": ok,
            },
            "mixed": {
                "switches": switches, "calls": 200,
                "seconds_per_verify": mixed_seconds, "ok": True,
            },
        },
    }
    if profile:
        entry["profile"] = {"spans": {}, "counters": {}}
    return entry


class TestVerifyRegressionGate:
    def test_no_history_and_missing_block_skip(self):
        assert bench.verify_regression(verify_record(0.0004), []) is None
        assert bench.verify_regression({"cpus": 1}, [verify_record(0.0004)]) is None
        # Records that predate the block are not comparable, not an error.
        assert bench.verify_regression(verify_record(9.0), [{"cpus": 1}]) is None

    def test_within_limit_passes(self):
        history = [verify_record(0.0004)]
        assert bench.verify_regression(verify_record(0.0005), history) is None

    def test_each_row_gates_against_its_own_best(self):
        history = [verify_record(0.0004, 0.002), verify_record(0.0008, 0.001)]
        message = bench.verify_regression(verify_record(0.0006, 0.0012), history)
        assert message is not None
        assert "verify[service]" in message
        assert "verify[mixed]" not in message

    def test_other_shape_and_machine_class_skipped(self):
        assert bench.verify_regression(
            verify_record(9.0), [verify_record(0.0004, pods=4)]
        ) is None
        assert bench.verify_regression(
            verify_record(9.0, mixed_seconds=9.0), [verify_record(0.0004, cpus=32)]
        ) is None

    def test_quick_and_profiled_records_skip_timing(self):
        history = [verify_record(0.0004)]
        assert bench.verify_regression(verify_record(9.0, quick=True), history) is None
        assert bench.verify_regression(verify_record(9.0, profile=True), history) is None
        assert bench.verify_regression(
            verify_record(0.0004), [verify_record(0.00001, quick=True)]
        ) is None

    def test_refuted_plan_fails_even_on_quick_records(self):
        message = bench.verify_regression(verify_record(0.0004, ok=False, quick=True), [])
        assert message is not None
        assert "verify[service]" in message


def dense_record(seconds, cpus=2, plans=200, same=True, quick=False, profile=False):
    entry = {
        "cpus": cpus,
        "quick": quick,
        "greedy_dense": {"switches": 16, "plans": plans, "seconds_per_plan": seconds},
        "tracker_grid": {"same_schedules": same},
    }
    if profile:
        entry["profile"] = {"spans": {}, "counters": {}}
    return entry


class TestGreedyDenseGate:
    def test_no_history_and_missing_block_skip(self):
        assert bench.greedy_dense_regression(dense_record(0.002), []) is None
        assert bench.greedy_dense_regression({"cpus": 2}, [dense_record(0.002)]) is None
        assert bench.greedy_dense_regression(dense_record(9.0), [{"cpus": 2}]) is None

    def test_gates_against_the_best_comparable_prior(self):
        history = [dense_record(0.004), dense_record(0.002)]
        assert bench.greedy_dense_regression(dense_record(0.0025), history) is None
        message = bench.greedy_dense_regression(dense_record(0.003), history)
        assert message is not None
        assert "greedy_dense" in message

    def test_other_shape_and_machine_class_skipped(self):
        assert bench.greedy_dense_regression(
            dense_record(9.0), [dense_record(0.002, plans=50)]
        ) is None
        assert bench.greedy_dense_regression(
            dense_record(9.0), [dense_record(0.002, cpus=32)]
        ) is None

    def test_quick_and_profiled_records_skip_timing(self):
        history = [dense_record(0.002)]
        assert bench.greedy_dense_regression(dense_record(9.0, quick=True), history) is None
        assert bench.greedy_dense_regression(dense_record(9.0, profile=True), history) is None
        assert bench.greedy_dense_regression(
            dense_record(0.002), [dense_record(0.00001, quick=True)]
        ) is None

    def test_trackers_disagreeing_fails_even_on_quick_records(self):
        message = bench.greedy_dense_regression(
            dense_record(0.002, same=False, quick=True), []
        )
        assert message is not None
        assert "tracker_grid" in message


def grid_record(ms, cpus=2, plans=4, quick=False, profile=False):
    entry = {
        "quick": quick,
        "cpus": cpus,
        "tracker_grid": {
            "segmented[400]": {"hops": 800, "plans": 20, "array_ms": 8.6, "dict_ms": 68.9},
            "segmented[10000x16]": {
                "hops": 20000, "plans": plans, "segments": 16, "array_ms": ms,
            },
            "same_schedules": True,
        },
    }
    if profile:
        entry["profile"] = {}
    return entry


class TestTrackerGridGate:
    """The long-path cells (array tracker only) are gated per cell at 1.3x."""

    def test_no_history_and_missing_block_skip(self):
        assert bench.tracker_grid_regression(grid_record(100.0), []) is None
        assert bench.tracker_grid_regression({"cpus": 2}, [grid_record(100.0)]) is None
        assert bench.tracker_grid_regression(grid_record(900.0), [{"cpus": 2}]) is None

    def test_gates_against_the_best_comparable_prior(self):
        history = [grid_record(140.0), grid_record(100.0)]
        assert bench.tracker_grid_regression(grid_record(125.0), history) is None
        message = bench.tracker_grid_regression(grid_record(135.0), history)
        assert message is not None
        assert "segmented[10000x16]" in message

    def test_short_cells_are_not_gated(self):
        current = grid_record(100.0)
        current["tracker_grid"]["segmented[400]"]["array_ms"] = 500.0
        assert bench.tracker_grid_regression(current, [grid_record(100.0)]) is None

    def test_other_shape_machine_class_quick_and_profiled_skipped(self):
        assert bench.tracker_grid_regression(
            grid_record(900.0), [grid_record(100.0, plans=2)]
        ) is None
        assert bench.tracker_grid_regression(
            grid_record(900.0), [grid_record(100.0, cpus=32)]
        ) is None
        history = [grid_record(100.0)]
        assert bench.tracker_grid_regression(grid_record(900.0, quick=True), history) is None
        assert bench.tracker_grid_regression(grid_record(900.0, profile=True), history) is None
        assert bench.tracker_grid_regression(
            grid_record(100.0), [grid_record(1.0, quick=True)]
        ) is None


class TestFastRowsGetAStableMinimum:
    """``--quick`` gates greedy[400], a ~13 ms row, against full records."""

    def test_fast_row_is_a_best_of_ten(self, capsys):
        calls = []
        bench.perf_harness._best_of(2, calls.append, None)
        assert len(calls) == bench.perf_harness.FAST_ROW_REPEATS >= 10

    def test_slow_row_keeps_its_repeats(self, capsys):
        calls = []

        def slow(_):
            calls.append(None)
            time.sleep(bench.perf_harness.FAST_ROW_SECONDS * 1.2)

        _, best = bench.perf_harness._best_of(2, slow, None)
        assert len(calls) == 2
        assert best >= bench.perf_harness.FAST_ROW_SECONDS
