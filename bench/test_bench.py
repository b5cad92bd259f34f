"""Unit tests of the benchmark's own arithmetic and contracts.

Run with ``python -m pytest bench/test_bench.py`` (not part of the tier-1
``testpaths``).  The workloads themselves are exercised by
``python bench/run.py --quick``.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from layers import per_layer_values  # noqa: E402
from timing import CAL_REF_MS, Calibrator, aggregate_passes, tail_quantile, throughput  # noqa: E402
from tracing import Patches, Recorder, Span, layer_table, self_times, traced_program  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_units_aggregate_by_minimum_and_keep_median():
    passes = [[1.0, 4.0], [0.5, 6.0], [0.75, 5.0]]  # pass-major
    stats = aggregate_passes(passes)
    assert [unit["min"] for unit in stats] == [0.5, 4.0]
    assert [unit["median"] for unit in stats] == [0.75, 5.0]
    assert stats[0]["q1"] <= stats[0]["median"] <= stats[0]["q3"]
    assert throughput(9.0, stats) == pytest.approx(9.0 / 4.5)
    assert throughput(9.0, stats, key="median") == pytest.approx(9.0 / 5.75)


def test_a_single_pass_aggregates_to_itself():
    assert aggregate_passes([[2.0]]) == [{"min": 2.0, "median": 2.0, "q1": 2.0, "q3": 2.0}]


def test_passes_must_time_the_same_units():
    with pytest.raises(ValueError):
        aggregate_passes([[1.0, 2.0], [1.0]])


@pytest.mark.parametrize(
    "count, expected",
    [(5, None), (19, None), (20, 0.5), (99, 0.5), (100, 0.9), (200, 0.95),
     (999, 0.95), (1000, 0.99), (10_000, 0.999)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert tail_quantile(count) == expected


def test_units_are_scaled_by_the_kernel_samples_around_them():
    calibrator = Calibrator()
    nominal = CAL_REF_MS * 1e-3
    # Kernel samples at t=0 (nominal speed), t=10 (twice as slow), t=20 (nominal).
    calibrator.samples = [(0.0, nominal), (10.0, 10.0 + 2 * nominal), (20.0, 20.0 + nominal)]
    assert calibrator.scale_at(1.0, 2.0) == pytest.approx(1 / 1.5)  # between #0 and #1
    assert calibrator.scale_at(11.0, 2.0) == pytest.approx(1 / 1.5)  # between #1 and #2
    assert calibrator.scale_at(1.0, 15.0) == pytest.approx(1.0)  # spans #1: uses #0 and #2
    assert calibrator.scale_at(25.0, 1.0) == pytest.approx(1.0)  # nothing after: #2 alone
    calibrator.samples = []
    with pytest.raises(ValueError):
        calibrator.scale_at(0.0, 1.0)


def test_calibration_kernel_samples_itself_at_most_every_interval():
    calibrator = Calibrator(every=3600.0)
    assert calibrator.maybe_sample() > 0  # the first call always samples
    assert calibrator.maybe_sample() == 0.0
    assert len(calibrator.samples) == 1
    assert calibrator.summary()["cal_ms_p50"] > 0


def _span(identity, name, parent, start, end):
    return Span(id=identity, name=name, parent=parent, unit="u", start=start, end=end)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "child", 0, 1.0, 4.0),
        _span(2, "child", 0, 3.0, 6.0),  # overlaps its sibling: covered once
        _span(3, "grandchild", 1, 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    table = layer_table(spans)
    assert table["child"] == {"self_s": pytest.approx(5.0), "calls": 2}
    # Without overlap, self times sum to the root's duration.
    tidy = [spans[0], spans[1], _span(2, "child", 0, 4.0, 6.0), spans[3]]
    assert sum(self_times(tidy).values()) == pytest.approx(10.0)


def test_recorder_nests_spans_and_names_their_unit():
    recorder = Recorder()
    recorder.unit = "cell-0"
    with recorder.span("outer"):
        doubled = recorder.wrap("inner", lambda x: 2 * x)(21)
    assert doubled == 42
    outer, inner = recorder.spans
    assert (inner.parent, inner.unit, outer.parent) == (outer.id, "cell-0", None)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_benchmark_json_names_units_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) < 64 * 1024


def test_workload_classes_match_the_declared_workloads():
    from workloads import WORKLOADS

    assert list(WORKLOADS) == [entry["name"] for entry in SPEC["workloads"]]


def test_per_layer_values_cover_exactly_the_declared_metrics():
    values = per_layer_values([], {}, 0.0, 0, 0.0, {"cal_ms_p50": 30.0, "cal_spread": 0.0})
    block = run.metric_block(SPEC["per_layer"], values)
    assert list(block) == [entry["name"] for entry in SPEC["per_layer"]]
    with pytest.raises(SystemExit):
        run.metric_block(SPEC["per_layer"], dict(values, surprise=1.0))


def test_patches_restore_own_and_inherited_attributes():
    class Base:
        def method(self):
            return "base"

    class Derived(Base):
        pass

    thing = Derived()
    with Patches() as patches:
        patches.set(thing, "method", lambda: "instance")
        patches.set(Derived, "method", lambda self: "class")
        assert thing.method() == "instance"
    assert "method" not in vars(thing) and "method" not in vars(Derived)
    assert thing.method() == "base"


def test_traced_pass_leaves_the_original_callables_bound():
    import repro.pipeline.runner as runner
    import repro.service.service as service
    import repro.updates.optimal as optimal
    from repro.pipeline.store import RunHandle
    from repro.service.admission import AdmissionController
    from repro.service.service import ServiceConfig, run_cell
    from repro.simulator.engine import Simulator
    from repro.updates.registry import Planner, available_schemes, get_planner

    def bound():
        return (
            service.perform_resilient_update, service.build_workload,
            service.UpdateService.__init__, Simulator.run, AdmissionController.offer,
            AdmissionController.release, optimal.optimal_schedule, runner.evaluate_task,
            RunHandle.append, Planner.plan, Planner.verify,
        )

    before = bound()
    config = ServiceConfig(pods=4, pod_size=6, requests=12, mean_interarrival=1.0, seed=3)
    plain = run_cell(config).to_record()
    recorder = Recorder()
    with traced_program(recorder):
        assert service.perform_resilient_update is not before[0]
        traced = run_cell(config).to_record()
    assert bound() == before
    for scheme in available_schemes():
        assert not {"plan", "measure", "verify"} & set(vars(get_planner(scheme)))
    assert traced == plain  # observing the service does not change what it does
    names = {recorded.name for recorded in recorder.spans}
    assert {"updates.chronus.plan", "validate.verifier.verify", "simulator.engine.run",
            "service.admission.offer", "service.admission.release", "service.build",
            "controller.resilient.dispatch"} <= names


def test_worse_by_follows_the_metric_direction():
    assert run.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert run.worse_by(100.0, 90.0, "lower") == pytest.approx(-0.10)
    assert run.worse_by(0.0, 0.0, "lower") == 0.0


def test_compare_flags_pairs_outside_their_bound(tmp_path, capsys):
    def document(ops, steps):
        metrics = {
            "ops_per_s": {"value": ops, "unit": "1/s"},
            "update_steps_mean": {"value": steps, "unit": "steps"},
            "peak_rss_mb": {"value": 100.0, "unit": "MB"},
            "setup_s": {"value": 1.0, "unit": "s"},
        }
        layer = {e["name"]: {"value": 0.0, "unit": e["unit"]} for e in SPEC["per_layer"]}
        return {
            "seed": 1, "quick": False,
            "workloads": {"plan-dense": {
                "end_to_end": {"failed": 0, "metrics": metrics},
                "per_layer": {"failed": 0, "metrics": layer},
            }},
        }

    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(document(100.0, 9.0)))
    b.write_text(json.dumps(document(95.0, 9.0)))
    c.write_text(json.dumps(document(100.0, 9.5)))  # an exact metric moved
    assert run.compare_main(str(a), str(b), SPEC) == 0
    assert run.compare_main(str(a), str(c), SPEC) == 1
    assert "OUTSIDE" in capsys.readouterr().out
