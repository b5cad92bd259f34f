"""The ``service`` scenario: sustained update streams against one plane.

Beyond the paper's one-shot experiments: each item is one *cell* -- a
seeded multi-tenant workload replayed through the full
:mod:`repro.service` loop (admission, merging, greedy planning,
verification, resilient timed execution on a shared DES data plane) on
the deterministic virtual-time runtime.  Records carry per-request
outcomes and virtual-time latency/throughput/queue metrics, so two runs
of the same seed are byte-identical; wall-clock updates/sec lives in the
bench harness, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.experiments.sweep import sweep_seed
from repro.service.metrics import latency_summary


def service_items(params: Mapping[str, object]) -> List[Dict[str, object]]:
    """One item per cell; seeds follow the ``sweep_seed`` contract."""
    base_seed = int(params["base_seed"])  # type: ignore[arg-type]
    pods = int(params["pods"])  # type: ignore[arg-type]
    return [
        {
            "key": f"cell{index}",
            "index": index,
            "seed": sweep_seed(base_seed, pods, index),
        }
        for index in range(int(params["cells"]))  # type: ignore[arg-type]
    ]


def service_evaluate(
    item: Mapping[str, object], params: Mapping[str, object]
) -> Dict[str, object]:
    """Run one full service cell and flatten it into a record."""
    from repro.service.service import ServiceConfig, run_cell

    config = ServiceConfig(
        pods=int(params["pods"]),  # type: ignore[arg-type]
        pod_size=int(params["pod_size"]),  # type: ignore[arg-type]
        requests=int(params["requests"]),  # type: ignore[arg-type]
        mean_interarrival=float(params["mean_interarrival"]),  # type: ignore[arg-type]
        seed=int(item["seed"]),  # type: ignore[arg-type]
        demand=float(params["demand"]),  # type: ignore[arg-type]
        capacity=float(params["capacity"]),  # type: ignore[arg-type]
        share_links=bool(params["share_links"]),
        planners=int(params["planners"]),  # type: ignore[arg-type]
        plan_ticks=int(params["plan_ticks"]),  # type: ignore[arg-type]
        max_queue=int(params["max_queue"]),  # type: ignore[arg-type]
    )
    report = run_cell(config)
    record = report.to_record()
    record["key"] = item["key"]
    return record


@dataclass
class ServiceResult:
    """Aggregated service records: per-cell rows plus pooled percentiles."""

    records: Sequence[Mapping[str, object]]

    def render(self) -> str:
        from repro.analysis.timeseries import render_table

        rows: List[List[object]] = []
        pooled: List[float] = []
        total = completed = rejected = aborted = 0
        conformant = True
        for record in self.records:
            summary: Mapping[str, object] = record["summary"]  # type: ignore[assignment]
            latency: Mapping[str, object] = summary["latency"]  # type: ignore[assignment]
            total += int(summary["requests"])  # type: ignore[arg-type]
            completed += int(summary["completed"])  # type: ignore[arg-type]
            rejected += int(summary["rejected"])  # type: ignore[arg-type]
            aborted += int(summary["aborted"])  # type: ignore[arg-type]
            conformant = conformant and bool(summary["conformant_all"])
            pooled.extend(
                request["latency"]  # type: ignore[misc]
                for request in record["requests"]  # type: ignore[union-attr]
                if request["latency"] is not None
                and request["status"] in ("completed", "superseded", "noop")
            )
            rows.append(
                [
                    record["key"],
                    summary["requests"],
                    summary["completed"],
                    summary["merged_batches"],
                    summary["virtual_updates_per_sec"],
                    latency["p50"],
                    latency["p95"],
                    summary["queue"]["max"],  # type: ignore[index]
                    "yes" if summary["conformant_all"] else "NO",
                ]
            )
        table = render_table(
            [
                "cell",
                "reqs",
                "done",
                "merged",
                "upd/s (virt)",
                "p50",
                "p95",
                "q.max",
                "conformant",
            ],
            rows,
            title="Update service -- sustained request streams",
        )
        overall = latency_summary(pooled)
        footer = (
            f"overall: {total} requests, {completed} completed, "
            f"{rejected} rejected, {aborted} aborted; latency p50={overall['p50']} "
            f"p95={overall['p95']} p99={overall['p99']} (virtual s); "
            f"conformant={'yes' if conformant else 'NO'}"
        )
        return f"{table}\n{footer}"


def _scenario_aggregate(records, params) -> ServiceResult:
    return ServiceResult(records=list(records))


def _register_scenario():
    from repro.pipeline.scenario import Scenario, register

    return register(
        Scenario(
            name="service",
            title="Long-running update service over a shared live plane",
            paper="beyond the paper (Timed-SDN controller loop)",
            description=(
                "Cells of sustained multi-tenant update streams through "
                "admission, batch merging, greedy planning, verification "
                "and resilient timed execution; records carry per-request "
                "outcomes plus virtual-time latency/throughput/queue "
                "metrics and are byte-identical across runs of one seed."
            ),
            defaults={
                "cells": 2,
                "pods": 6,
                "pod_size": 7,
                "requests": 40,
                "mean_interarrival": 2.0,
                "demand": 1.0,
                "capacity": 2.0,
                "share_links": True,
                "planners": 2,
                "plan_ticks": 1,
                "max_queue": 32,
                "base_seed": 0,
            },
            items=service_items,
            evaluate=service_evaluate,
            aggregate=_scenario_aggregate,
            paper_params={
                "cells": 4,
                "pods": 16,
                "pod_size": 9,
                "requests": 200,
                "mean_interarrival": 1.0,
            },
        )
    )


SCENARIO = _register_scenario()
