"""Per-layer metrics of one traced pass, keyed by the BENCHMARK.json names.

Layers are module names of ``src/repro``; ``_s`` is self time (a span's
duration minus what its child spans cover).  A layer that does no work
on a workload reports 0, which is itself the prediction for that pairing.
"""

from __future__ import annotations

from typing import Dict, Sequence

from tracing import Span, layer_table, sum_attr

SCHEMES = ("chronus", "or", "opt", "tp", "aug")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_values(
    spans: Sequence[Span],
    detail: Dict[str, float],
    build_seconds: float,
    builds: int,
    trace_overhead_share: float,
    calibration: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric value for one workload.

    ``detail`` carries the counts the program itself reports (admission
    batches, queue depth, served intents); ``build_seconds``/``builds``
    are instance builds done in set-up, before the traced pass.  Seconds
    are wall seconds of the traced pass, not scaled to the nominal machine.
    """
    table = layer_table(spans)

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return float(table.get(name, {}).get("calls", 0))

    traced_total = sum(recorded.duration for recorded in spans if recorded.parent is None)
    values: Dict[str, float] = {
        "core.instance.build_s": self_s("core.instance.build") + build_seconds,
        "core.instance.builds": calls("core.instance.build") + builds,
    }

    for scheme in SCHEMES:
        name = f"updates.{scheme}.plan"
        values[f"updates.{scheme}.plan_s"] = self_s(name)
        values[f"updates.{scheme}.plans"] = calls(name)
        values[f"updates.{scheme}.feasible_share"] = _ratio(
            sum_attr(spans, name, "feasible"), calls(name)
        )

    chronus = "updates.chronus.plan"
    rounds = sum_attr(spans, chronus, "makespan")
    values["core.greedy.rounds"] = rounds
    values["core.greedy.s_per_round"] = _ratio(self_s(chronus), rounds)
    values["core.greedy.switches_per_s"] = _ratio(
        sum_attr(spans, chronus, "switches"), self_s(chronus)
    )

    opt = "updates.opt.plan"
    nodes = sum_attr(spans, opt, "nodes")
    values["core.search.nodes"] = nodes
    values["core.search.nodes_per_s"] = _ratio(nodes, sum_attr(spans, opt, "search_s"))
    values["core.search.proven_share"] = _ratio(sum_attr(spans, opt, "proven"), calls(opt))

    values["analysis.metrics.measure_s"] = self_s("analysis.metrics.measure")
    values["analysis.metrics.measures"] = calls("analysis.metrics.measure")
    verify = "validate.verifier.verify"
    values["validate.verifier.verify_s"] = self_s(verify)
    values["validate.verifier.verifies"] = calls(verify)
    values["validate.verifier.s_per_verify"] = _ratio(self_s(verify), calls(verify))

    values["service.admission.offer_s"] = self_s("service.admission.offer")
    values["service.admission.release_s"] = self_s("service.admission.release")
    values["service.admission.offers"] = calls("service.admission.offer")
    for key in ("batches", "merged_batches", "rejected", "queue_depth_max", "queue_depth_mean"):
        values[f"service.admission.{key}"] = detail.get(key, 0.0)
    values["service.completed_share"] = _ratio(
        detail.get("completed", 0.0), detail.get("requests", 0.0)
    )
    values["service.build_s"] = self_s("service.build")
    # run_cell is the unit itself, so the loop's own time is the unit
    # span's self time on service workloads (zero elsewhere: see below).
    cells = calls("service.build") > 0
    values["service.loop_self_s"] = self_s("bench.unit") if cells else 0.0
    values["service.latency_p50_vs"] = detail.get("latency_p50_vs", 0.0)
    values["service.latency_tail_vs"] = detail.get("latency_tail_vs", 0.0)
    values["service.latency_tail_q"] = detail.get("latency_tail_q", 0.0)
    values["service.latency_samples"] = detail.get("latency_samples", 0.0)

    values["controller.resilient.dispatch_s"] = self_s("controller.resilient.dispatch")
    values["controller.resilient.updates"] = calls("controller.resilient.dispatch")
    values["controller.resilient.aborted"] = detail.get("aborted", 0.0)

    run = "simulator.engine.run"
    events = sum_attr(spans, run, "events")
    values["simulator.engine.run_s"] = self_s(run)
    values["simulator.engine.events"] = events
    values["simulator.engine.events_per_s"] = _ratio(events, self_s(run))

    values["pipeline.store.append_s"] = self_s("pipeline.store.append")
    values["pipeline.store.appends"] = calls("pipeline.store.append")
    values["pipeline.runner.overhead_s"] = self_s("pipeline.runner.run") + self_s(
        "pipeline.runner.item"
    )

    values["quality.makespan_total"] = detail.get("makespan_total", 0.0)
    values["quality.congestion_free_share"] = detail.get("congestion_free_share", 0.0)

    # Time inside a unit that no layer span covers is the bench's own glue
    # (on service workloads it is the service loop, reported above).
    glue = 0.0 if cells else self_s("bench.unit")
    values["bench.unattributed_share"] = _ratio(glue, traced_total)
    values["bench.trace_overhead_share"] = trace_overhead_share
    values["bench.cal_ms_p50"] = calibration["cal_ms_p50"]
    values["bench.cal_spread"] = calibration["cal_spread"]
    return values
