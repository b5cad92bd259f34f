"""Figs. 1, 2 and 5: the motivating example, fully regenerated.

Reproduces the paper's Section II narrative as text:

* Fig. 1(a): the six-switch topology with old and new routing;
* Fig. 2(a): updating everything at once creates three forwarding loops;
* Fig. 2(b): updating {v1, v2} then the rest congests link (v4, v3);
* Fig. 1(e)-(h): the consistent timed sequence, step by step in the
  time-extended network;
* Alg. 1: the tree algorithm's feasibility verdict on the same instance
  (identical delays, Theorem 2) and its witness, judged by the verifier;
* Fig. 5: Algorithm 3's dependency relation sets per time step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.analysis.illustrate import render_dependency_evolution, render_flow_timeline
from repro.core.instance import motivating_example
from repro.core.schedule import UpdateSchedule
from repro.core.tree import check_update_feasibility
from repro.pipeline.scenario import Scenario, register
from repro.validate.verifier import verify_schedule


def run_walkthrough() -> str:
    instance = motivating_example()
    parts = []

    parts.append("Fig. 1(a) -- topology and routing")
    parts.append(f"  old (solid):  {' -> '.join(instance.old_path)}")
    parts.append(f"  new (dashed): {' -> '.join(instance.new_path)}  (+ drain rule v5 -> v2)")
    parts.append("")

    all_at_once = UpdateSchedule({v: 0 for v in instance.switches_to_update})
    verdict = verify_schedule(instance, all_at_once)
    loops = ", ".join(f"revisit of {event.node} (emission {event.emission})" for event in verdict.loops)
    parts.append("Fig. 2(a) -- all switches updated at t0:")
    parts.append(f"  {len(verdict.loops)} forwarding loops: {loops}")
    parts.append("")

    fig2b = UpdateSchedule({"v1": 0, "v2": 0, "v3": 1, "v4": 1, "v5": 1})
    verdict = verify_schedule(instance, fig2b)
    congested = sorted(
        (t, violation.link, violation.capacity)
        for violation in verdict.congestion
        for t in range(violation.start, violation.end + 1)
    )
    for t, (src, dst), capacity in congested:
        parts.append(
            "Fig. 2(b) -- {v1,v2}@t0 then {v3,v4,v5}@t1: link "
            f"{src}->{dst} carries {verdict.loads[(src, dst)][t]:g} > "
            f"{capacity:g} at t{t}"
        )
    parts.append("")

    paper_schedule = UpdateSchedule({"v2": 0, "v3": 1, "v1": 2, "v4": 2, "v5": 3})
    parts.append("Fig. 1(e)-(h) -- the paper's timed sequence, step by step:")
    parts.append(render_flow_timeline(instance, paper_schedule, t_start=-2, t_end=8))
    parts.append("")

    tree = check_update_feasibility(instance)
    witness = [f"{node}@{when}" for when, nodes in tree.schedule.rounds() for node in nodes]
    parts.append("Alg. 1 -- the tree algorithm on identical delays (Theorem 2):")
    parts.append(f"  feasible: {tree.feasible} ({tree.reason})")
    parts.append(
        f"  witness: {', '.join(witness)}"
        f" (makespan {tree.schedule.makespan};"
        f" the paper's sequence above: makespan {paper_schedule.makespan})"
    )
    verdict = verify_schedule(instance, tree.schedule)
    parts.append(f"  verify_schedule: {'ok' if verdict.ok else verdict.describe()}")
    parts.append("")

    parts.append("Fig. 5 -- dependency relation sets along the greedy run:")
    parts.append(render_dependency_evolution(instance))
    return "\n".join(parts)


@dataclass
class WalkthroughResult:
    """The regenerated Section II narrative."""

    text: str

    def render(self) -> str:
        return self.text


def _items(params: Mapping) -> List[Dict[str, object]]:
    return [{"key": "narrative"}]


def _evaluate(item: Mapping, params: Mapping) -> Dict[str, object]:
    return {"key": item["key"], "text": run_walkthrough()}


def _aggregate(records: Sequence[Mapping], params: Mapping) -> WalkthroughResult:
    (record,) = records
    return WalkthroughResult(text=str(record["text"]))


SCENARIO = register(
    Scenario(
        name="walkthrough",
        title="The Section II motivating example, fully regenerated",
        paper="Figs. 1/2/5",
        description=(
            "One record holding the rendered narrative: topology, the two "
            "inconsistent naive updates, the paper's timed sequence and "
            "Algorithm 3's dependency sets."
        ),
        defaults={},
        items=_items,
        evaluate=_evaluate,
        aggregate=_aggregate,
    )
)
