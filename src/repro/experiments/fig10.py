"""Fig. 10: scheduler running time vs. network size.

Paper: sizes 1K..6K; OR and OPT stay under 600 s up to ~2K switches but
blow past the 600-second cutoff beyond 4K (orders of magnitude slower),
while Chronus stays below 600 s even at 6K.  The *shape* -- Chronus
polynomial, OR/OPT exponential-with-cutoff -- is what matters; both the
sizes and the cutoff scale down proportionally here so the harness runs in
minutes (pass the paper's values to reproduce the original axes).  On
these local reroutes OPT's loop-freedom bound usually proves Chronus'
schedule optimal at the root, so here only OR keeps the cutoff
(EXPERIMENTS.md, faithfulness note 5).

The workload is the locally-rerouted (segmented reversal) distribution:
at the paper's 1K-6K scale a full random permutation would make every
scheduler's output linear in ``n``, contradicting the paper's
~15-time-unit updates (Fig. 11).  With ``--workers N`` each measurement
still runs single-threaded inside its worker, but concurrent workers
contend for cores -- use parallel timing for the shape of the curves,
serial for publishable absolute numbers.

Pipeline scenarios ``fig10`` (all three schedulers) and ``fig10-greedy``
(Chronus alone at the paper's 1K-6K sizes): one record per (size, run)
timing measurement; the cutoff aggregation reads records only.  Timing
records are wall-clock measurements, so re-running never reproduces them
byte-for-byte -- resume, however, preserves completed records verbatim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.timeseries import render_table
from repro.core.instance import segmented_instance
from repro.pipeline.context import WorkerContext
from repro.pipeline.scenario import Scenario, register
from repro.updates.registry import DEFAULT_SCHEMES, get_planner, planners_for


#: The legacy record columns (``*_elapsed`` / ``*_proven``) are always
#: emitted for this trio so stored runs resume cleanly; additional
#: registered schemes add their own columns when selected.
SCHEMES = DEFAULT_SCHEMES


@dataclass(frozen=True)
class _TimingItem:
    """One (size, run) scheduler-timing measurement."""

    switch_count: int
    seed: int
    segments: int
    cutoff: float
    schemes: Sequence[str] = SCHEMES


def _record_schemes(selected: Sequence[str]) -> List[str]:
    """Scheme column order: the legacy trio first, then extra selections."""
    return list(dict.fromkeys((*SCHEMES, *selected)))


def _time_one(item: _TimingItem) -> Dict[str, object]:
    """Worker: time the selected schedulers on one instance.

    Every run of a size is always measured (the serial loop short-circuits
    once a scheme blows the cutoff, but the aggregation below reproduces
    that outcome from the per-run proofs, so the reported numbers match).
    Deselected schemes report zero elapsed and a failed proof.  Every
    planner receives the cutoff as its ``time_budget``: exact searches
    take it as an anytime budget and their plan reports the solver's own
    elapsed/proven pair, heuristics ignore it and are wall-clocked.
    """
    instance = segmented_instance(
        item.switch_count, seed=item.seed, segments=item.segments
    )
    fields: Dict[str, object] = {}
    for name in _record_schemes(item.schemes):
        planner = get_planner(name)
        if name in item.schemes:
            started = time.monotonic()
            plan = planner.plan(instance, time_budget=item.cutoff)
            wall = time.monotonic() - started
            elapsed = plan.elapsed if planner.exact else wall
            proven = plan.proven
        else:
            elapsed, proven = 0.0, False
        fields[f"{name}_elapsed"] = elapsed
        if planner.exact:
            fields[f"{name}_proven"] = proven
    return fields


@dataclass
class Fig10Result:
    switch_counts: List[int]
    seconds: Dict[str, List[Optional[float]]]  # None = exceeded the cutoff
    cutoff: float

    def render(self) -> str:
        schemes = list(self.seconds)
        rows = []
        for index, count in enumerate(self.switch_counts):
            row: List[object] = [count]
            for scheme in schemes:
                value = self.seconds[scheme][index]
                row.append(f">{self.cutoff:.0f} (cutoff)" if value is None else f"{value:.3f}")
            rows.append(row)
        return render_table(
            ["switches"] + [f"{scheme} (s)" for scheme in schemes],
            rows,
            title=f"Fig. 10 -- scheduler running time (cutoff {self.cutoff:.0f} s)",
        )


def _segments_for(count: int) -> int:
    """Rerouted regions grow with the fabric: one detour on small networks,
    several on large ones (keeps OR's completing-then-cutoff shape of the
    paper's figure)."""
    return max(1, min(6, count // 250))


def _items(params: Mapping) -> List[Dict[str, object]]:
    planners_for(params["schemes"])  # fail fast on unregistered names
    base_seed = int(params["base_seed"])
    return [
        {
            "key": f"n{count}-r{run}",
            "switch_count": int(count),
            "run": run,
            "seed": base_seed * 31 + int(count) + run,
            "segments": _segments_for(int(count)),
        }
        for count in params["switch_counts"]
        for run in range(int(params["runs_per_size"]))
    ]


def _evaluate(item: Mapping, params: Mapping, ctx: WorkerContext) -> Dict[str, object]:
    fields = _time_one(
        _TimingItem(
            switch_count=int(item["switch_count"]),
            seed=int(item["seed"]),
            segments=int(item["segments"]),
            cutoff=float(params["cutoff"]),
            schemes=tuple(params["schemes"]),
        )
    )
    return {
        "key": item["key"],
        "switch_count": item["switch_count"],
        "run": item["run"],
        "seed": item["seed"],
        **fields,
    }


def _aggregate(records: Sequence[Mapping], params: Mapping) -> Fig10Result:
    schemes = tuple(params["schemes"])
    counts = [int(count) for count in params["switch_counts"]]
    seconds: Dict[str, List[Optional[float]]] = {
        scheme: [] for scheme in _record_schemes(schemes) if scheme in schemes
    }
    for count in counts:
        per_size = [r for r in records if int(r["switch_count"]) == count]
        runs = max(1, len(per_size))
        for scheme in seconds:
            if get_planner(scheme).exact:
                # Anytime search: the mean counts only when every run
                # finished with a proof within the cutoff.
                value: Optional[float] = None
                if per_size and all(r[f"{scheme}_proven"] for r in per_size):
                    value = sum(float(r[f"{scheme}_elapsed"]) for r in per_size) / runs
                seconds[scheme].append(value)
            else:
                total = sum(float(r[f"{scheme}_elapsed"]) for r in per_size)
                seconds[scheme].append(total / runs)
    return Fig10Result(
        switch_counts=counts, seconds=seconds, cutoff=float(params["cutoff"])
    )


_FIG10_DESCRIPTION = (
    "One timing record per (size, run); the exact solvers' anytime budgets "
    "receive the cutoff, and budget exhaustion without a proof renders as "
    "'>cutoff', matching the paper's >600 s treatment."
)

SCENARIO = register(
    Scenario(
        name="fig10",
        title="Scheduler running time vs. network size",
        paper="Fig. 10",
        description=_FIG10_DESCRIPTION,
        defaults={
            "switch_counts": (100, 250, 500, 1000, 2000, 4000),
            "cutoff": 5.0,
            "base_seed": 4,
            "runs_per_size": 1,
            "schemes": SCHEMES,
        },
        items=_items,
        evaluate=_evaluate,
        aggregate=_aggregate,
        paper_params={
            "switch_counts": (1000, 2000, 3000, 4000, 5000, 6000),
            "cutoff": 600.0,
            "runs_per_size": 3,
        },
    )
)

GREEDY_SCENARIO = register(
    Scenario(
        name="fig10-greedy",
        title="Fig. 10's Chronus curve alone (affordable at the paper's sizes)",
        paper="Fig. 10",
        description=(
            "The Chronus scheduler only -- minutes instead of hours at the "
            "paper's 1K-6K sizes; " + _FIG10_DESCRIPTION
        ),
        defaults={
            "switch_counts": (100, 250, 500, 1000, 2000, 4000),
            "cutoff": 5.0,
            "base_seed": 4,
            "runs_per_size": 1,
            "schemes": ("chronus",),
        },
        items=_items,
        evaluate=_evaluate,
        aggregate=_aggregate,
        paper_params={
            "switch_counts": (1000, 2000, 3000, 4000, 5000, 6000),
            "cutoff": 600.0,
            "runs_per_size": 3,
        },
    )
)
