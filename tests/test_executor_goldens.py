"""Golden replay for the one execution path.

Plans used to reach the wire two ways: the plain ``perform_timed_update`` /
``perform_round_update`` (Fig. 6, the differential gate, the examples)
beside the acknowledged executors of :mod:`repro.controller.resilient` (the
service, the faults ablation), plus three hand-rolled two-phase flips.
Before the plain stack was deleted, what it did with faults off was frozen
into ``tests/data/executor_goldens.json`` at the revision that file records
(its ``generator`` key holds the script).  These tests hold the surviving
path -- :func:`~repro.controller.resilient.execute_plan` and the two
``perform_resilient_*`` executors -- to every frozen entry:

* ``traces`` -- the executors' own ``(planned, applied, late,
  finished_at)``; replayed by ``tests/test_resilient.py::TestFaultFreeParity``;
* ``differential`` -- the ``DiffReport`` of every plan of the validation
  gate's 50-instance x 5-scheme corpus at install skew 0 and 1;
* ``faults_quick`` -- the records of ``scripts/faults.py --quick``;
* ``fig6`` -- series and peak of the three schemes x 5 seeds.

Everything replays byte for byte except the Fig. 6 entries in
``FIG6_MOVED``, each listed with its cause.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments.faults_ablation import DEFAULT_SEVERITIES
from repro.experiments.sweep import mixed_instance
from repro.pipeline import run_in_memory
from repro.updates.registry import available_schemes, get_planner
from repro.validate.differential import differential_replay

GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "executor_goldens.json").read_text()
)

#: Fig. 6 entries the fold moved.  Peak, series length and every sample
#: before the update are still held; the cause of the rest:
_FLIP_NOW_SCHEDULED = (
    "the hand-rolled flip was an unscheduled FlowMod applying an install "
    "latency after update_at + 3 s; the two-phase executor pre-programs it "
    "(Time4), so the old->new handover lands exactly on update_at + 3 s"
)
FIG6_MOVED = {
    "fig6-s3-chronus": (
        "step t0 now fires at update_at for every scheme (Chronus used to "
        "fire 0.5 s later than OR's first round was sent), so the one "
        "counter sample straddling the first flip reads 5.0 instead of 2.5"
    ),
    "fig6-s0-tp": _FLIP_NOW_SCHEDULED,
    "fig6-s1-tp": _FLIP_NOW_SCHEDULED,
    "fig6-s2-tp": _FLIP_NOW_SCHEDULED,
    "fig6-s4-tp": _FLIP_NOW_SCHEDULED,
}
FIG6_UPDATE_AT = 5.0


def _by(section, key):
    return sorted({entry[key] for entry in GOLDENS[section]})


# --- differential: the gate's corpus -----------------------------------

@pytest.mark.parametrize("scheme", _by("differential", "scheme"))
def test_differential_reports_replay(scheme):
    assert scheme in available_schemes()
    entries = [e for e in GOLDENS["differential"] if e["scheme"] == scheme]
    assert len(entries) == 100
    plans = {}
    for entry in entries:
        if entry["index"] not in plans:
            instance = mixed_instance(8, entry["seed"])
            plans[entry["index"]] = get_planner(scheme).plan(
                instance, node_budget=GOLDENS["node_budget"]
            )
        report = differential_replay(
            plans[entry["index"]], seed=entry["seed"],
            install_skew=entry["install_skew"],
        )
        got = {
            "executor": report.executor,
            "realized": [[n, t] for n, t in report.realized.times.items()],
            "realized_start": report.realized.start_time,
            "verdict_ok": report.verdict.ok,
            "report_ok": report.ok,
            "mismatches": len(report.mismatches),
            "excesses": len(report.excesses),
            "timing_errors": len(report.timing_errors),
            "measured_drop_volume": report.measured_drop_volume,
        }
        assert got == {key: entry[key] for key in got}, entry["id"]


# --- faults --quick ------------------------------------------------------

def test_faults_quick_records_replay():
    result = run_in_memory(
        "faults", {"severities": tuple(DEFAULT_SEVERITIES), "instances_per_point": 2}
    )
    assert [asdict(record) for record in result.records] == GOLDENS["faults_quick"]


# --- Fig. 6 ------------------------------------------------------------

@pytest.mark.parametrize("seed", _by("fig6", "seed"))
def test_fig6_records_replay(seed):
    result = run_in_memory("fig6", {"seed": seed})
    for entry in (e for e in GOLDENS["fig6"] if e["seed"] == seed):
        scheme = entry["scheme"]
        series = [[t, m] for t, m in result.series[scheme]]
        assert result.peaks[scheme] == entry["peak"], entry["id"]
        if entry["id"] not in FIG6_MOVED:
            assert series == entry["series"], entry["id"]
            continue
        assert series != entry["series"], f"{entry['id']} no longer moves; unlist it"
        assert len(series) == len(entry["series"]), entry["id"]
        before = [s for s in series if s[0] < FIG6_UPDATE_AT]
        assert before == [s for s in entry["series"] if s[0] < FIG6_UPDATE_AT]


def test_fig6_moved_list_names_real_entries():
    assert set(FIG6_MOVED) <= {entry["id"] for entry in GOLDENS["fig6"]}
