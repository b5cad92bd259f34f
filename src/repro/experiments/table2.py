"""Table II: flow tables at the source and destination switches.

The paper's prototype matches on the destination IP prefix, uses the input
port to distinguish host traffic, and (for two-phase updates) VLAN tags as
version numbers.  This experiment builds the emulation data plane, installs
the configuration exactly as the prototype does, and renders the resulting
source and destination flow tables in Table II's layout -- before the
update, during a two-phase transition (both versions resident), and after.

Pipeline scenario ``table2``: a single record carrying the four rendered
rule tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.controller.executor import shadow_rules
from repro.core.instance import random_instance
from repro.pipeline.context import WorkerContext
from repro.pipeline.scenario import Scenario, register
from repro.simulator import Simulator, build_dataplane
from repro.simulator.dataplane import install_config
from repro.simulator.flowtable import FlowRule, Match
from repro.simulator.switch import HOST_PORT


@dataclass
class Table2Result:
    source_rows: List[str]
    destination_rows: List[str]
    source_rows_two_phase: List[str]
    destination_rows_two_phase: List[str]

    def render(self) -> str:
        lines = ["Table II -- flow tables at source switch R1 and destination switch R12"]
        lines.append("\nFlow table at source switch (steady state)")
        lines.extend(self.source_rows)
        lines.append("\nFlow table at destination switch (steady state)")
        lines.extend(self.destination_rows)
        lines.append("\nFlow table at source switch (two-phase transition: both versions)")
        lines.extend(self.source_rows_two_phase)
        lines.append("\nFlow table at destination switch (two-phase transition)")
        lines.extend(self.destination_rows_two_phase)
        return "\n".join(lines)


def _build_tables(switch_count: int, seed: int) -> Dict[str, List[str]]:
    """Build the emulation tables for a ``switch_count``-switch topology."""
    instance = random_instance(switch_count, seed=seed, capacity=5.0, demand=5.0)
    sim = Simulator()
    plane = build_dataplane(sim, instance.network, delay_scale=0.01)
    install_config(plane, instance)

    source = plane.switch(instance.source)
    destination = plane.switch(instance.destination)

    # Host-facing ingress rule at the source (InPort = host port).
    source.table.add(
        FlowRule(
            name="host-in",
            match=Match(in_port=HOST_PORT, src_prefix="h1", dst_prefix=str(instance.destination)),
            out_port=plane.port_of(instance.source, instance.old_next_hop(instance.source)),
            priority=2,
        )
    )
    steady_source = source.table.render()
    steady_destination = destination.table.render()

    # Two-phase transition: versioned copies resident alongside.
    for node, rule in shadow_rules(plane, instance):
        plane.switch(node).table.add(rule)
    return {
        "source_rows": steady_source,
        "destination_rows": steady_destination,
        "source_rows_two_phase": source.table.render(),
        "destination_rows_two_phase": destination.table.render(),
    }


def _items(params: Mapping) -> List[Dict[str, object]]:
    return [{"key": "tables"}]


def _evaluate(item: Mapping, params: Mapping, ctx: WorkerContext) -> Dict[str, object]:
    tables = _build_tables(int(params["switch_count"]), int(params["seed"]))
    return {"key": item["key"], **tables}


def _aggregate(records: Sequence[Mapping], params: Mapping) -> Table2Result:
    (record,) = records
    return Table2Result(
        source_rows=list(record["source_rows"]),
        destination_rows=list(record["destination_rows"]),
        source_rows_two_phase=list(record["source_rows_two_phase"]),
        destination_rows_two_phase=list(record["destination_rows_two_phase"]),
    )


SCENARIO = register(
    Scenario(
        name="table2",
        title="Flow tables at the source and destination switches",
        paper="Table II",
        description=(
            "Builds the emulation data plane as the prototype does and "
            "records the rendered source/destination tables, steady state "
            "and mid two-phase transition."
        ),
        defaults={"switch_count": 12, "seed": 12},
        items=_items,
        evaluate=_evaluate,
        aggregate=_aggregate,
    )
)
