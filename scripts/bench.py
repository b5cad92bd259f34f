#!/usr/bin/env python3
"""Perf-trajectory entry point: run the harness, append to BENCH_sweep.json.

Usage::

    python scripts/bench.py            # full sizes (minutes)
    python scripts/bench.py --quick    # small sizes (CI smoke / make bench)
    python scripts/bench.py --no-write # measure only, leave the JSON alone
    python scripts/bench.py --profile  # attach the aggregate timers + counters

Exit status is non-zero when a measured invariant fails:

* parallel and serial sweep records differ (determinism is a hard
  guarantee, checked on any machine), or
* on a machine with 2+ usable cores, the parallel sweep is more than
  1.2x slower than the serial sweep (the pool must never cost more than
  it gives; single-core boxes skip this gate because a process pool
  cannot beat serial there), or
* the ``gate`` scenario (the plan-conformance verifier) disagrees with
  any planner on the seeded sweep (recorded as ``verifier_agrees``; skip
  with ``--no-verify``), or
* greedy regresses past 1.3x the best prior full-size record from the
  same machine class at *any* measured size -- 400 up to 100000
  switches (same ``cpus`` count; runs on other machine classes are not
  comparable and skip the gate; sizes without a comparable prior are
  skipped individually), or
* the ``tracker_grid`` block found an instance the two trackers
  schedule differently (``same_schedules``; hard failure on any
  machine), or ``greedy_dense`` seconds per plan exceed 1.3x the best
  prior full-size record from the same machine class on the same shape,
  or a long-path ``tracker_grid`` cell (array tracker, 10 000 switches x
  4 / 16 / 32 segments) exceeds 1.3x its best comparable prior, or
* OPT node throughput drops under 1/1.3x the best prior full-size
  record from the same machine class measuring the *same engine* on the
  same workload (engines count nodes at different granularities, so a
  new engine's first record starts its own baseline), or
* the update-service bench is non-deterministic or non-conformant (hard
  failures on any machine), or its wall-clock updates/sec drops under
  1/1.3x the best prior full-size record from the same machine class on
  the same workload (equal cell/pod/request shape), or
* a ``verify`` row refutes its fixed-seed Chronus plan (hard failure on
  any machine), or its seconds per ``verify_schedule`` call exceed 1.3x
  the best prior full-size record from the same machine class on the
  same shape.

Full records also carry a ``memory`` column: peak RSS per greedy bench
stage, measured in a forked child per size (see
``benchmarks.perf_harness.bench_greedy_memory``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks import perf_harness  # noqa: E402  (path setup above)
from repro.pipeline import run_in_memory  # noqa: E402
from repro.pipeline.cli import script_parser  # noqa: E402
from repro.trace import TraceSession, aggregate, render_report  # noqa: E402

SLOWDOWN_LIMIT = 1.2
GREEDY_GATE_LIMIT = 1.3
OPT_GATE_LIMIT = 1.3
SERVICE_GATE_LIMIT = 1.3
VERIFY_GATE_LIMIT = 1.3
VERIFY_SHAPE_KEYS = ("pods", "pod_size", "switches")
DENSE_SHAPE_KEYS = ("switches", "plans")
GRID_SHAPE_KEYS = ("hops", "plans", "segments")


def _comparable(record, history, block):
    """``block`` of each prior record whose timings compare with ``record``'s.

    That is: full-size, unprofiled, same machine class (equal ``cpus``).
    """
    return [
        entry[block]
        for entry in history
        if isinstance(entry, dict)
        and not entry.get("quick")
        and "profile" not in entry
        and entry.get("cpus") == record.get("cpus")
        and isinstance(entry.get(block), dict)
    ]


def greedy_regression(record, history):
    """Failure message when any greedy size regressed vs. priors, else None.

    Every size in the current record is gated against the best prior
    measurement of that same size; sizes no prior record measured are
    skipped individually (so adding a new bench size never fails its
    first run).  Only prior full-size records from the same machine class
    (equal ``cpus``) are comparable; quick records measure different
    sizes and other machine classes have different clocks, so both are
    skipped.  Profiled records are skipped on both sides -- the enabled
    timers and counters inflate the tracker hot path, so their timings are not
    comparable to plain runs.  A quick *current* record is gated at the
    sizes it shares with full records (400): that row is ~13 ms, which
    is why the harness takes rows under 50 ms as a best-of-10
    (``perf_harness.FAST_ROW_REPEATS``).
    """
    if "profile" in record:
        return None
    greedy = record.get("greedy") or {}
    comparable = _comparable(record, history, "greedy")
    failures = []
    for size, current in sorted(greedy.items(), key=lambda item: int(item[0])):
        if not isinstance(current, (int, float)):
            continue
        prior = [
            entry[size]
            for entry in comparable
            if isinstance(entry.get(size), (int, float))
        ]
        if not prior:
            continue
        best = min(prior)
        if best > 0 and current > GREEDY_GATE_LIMIT * best:
            failures.append(
                f"greedy[{size}] took {current:.3f}s, over "
                f"{GREEDY_GATE_LIMIT}x the best prior record {best:.3f}s "
                f"(machine class cpus={record.get('cpus')})"
            )
    return "; ".join(failures) if failures else None


def greedy_dense_regression(record, history):
    """Failure message for the short-path greedy rows, else None.

    One hard invariant fails on any machine: ``tracker_grid`` plans every
    batch on both trackers, and the results must be equal
    (``same_schedules``).  ``greedy_dense.seconds_per_plan`` is gated
    against the best prior full-size record from the same machine class
    (equal ``cpus``) measuring the same shape (equal ``switches`` /
    ``plans``); quick and profiled records are skipped on both sides.
    """
    if (record.get("tracker_grid") or {}).get("same_schedules") is False:
        return "tracker_grid: the dict and array trackers scheduled an instance differently"
    dense = record.get("greedy_dense")
    if "profile" in record or record.get("quick") or not isinstance(dense, dict):
        return None
    current = dense.get("seconds_per_plan")
    prior = [
        other["seconds_per_plan"]
        for other in _comparable(record, history, "greedy_dense")
        if all(other.get(key) == dense.get(key) for key in DENSE_SHAPE_KEYS)
        and isinstance(other.get("seconds_per_plan"), (int, float))
    ]
    if not prior or not isinstance(current, (int, float)):
        return None
    best = min(prior)
    if best > 0 and current > GREEDY_GATE_LIMIT * best:
        return (
            f"greedy_dense took {current * 1e3:.3f} ms/plan, over "
            f"{GREEDY_GATE_LIMIT}x the best prior record {best * 1e3:.3f} ms "
            f"(machine class cpus={record.get('cpus')})"
        )
    return None


def tracker_grid_regression(record, history):
    """Failure message when a long-path ``tracker_grid`` cell regressed, else None.

    The cells planned on the array tracker alone (rows with ``segments``:
    10 000 switches x 4 / 16 / 32 segments) are gated, each against the
    best prior full-size record from the same machine class measuring the
    same shape (equal ``hops`` / ``plans`` / ``segments``); quick and
    profiled records are skipped on both sides.  The short cells stay
    ungated: they exist to show which tracker wins where, in milliseconds.
    """
    grid = record.get("tracker_grid")
    if "profile" in record or record.get("quick") or not isinstance(grid, dict):
        return None
    comparable = _comparable(record, history, "tracker_grid")
    failures = []
    for name, row in sorted(grid.items()):
        if not isinstance(row, dict) or "segments" not in row:
            continue
        prior = [
            other[name]["array_ms"]
            for other in comparable
            if isinstance(other.get(name), dict)
            and all(other[name].get(key) == row.get(key) for key in GRID_SHAPE_KEYS)
            and isinstance(other[name].get("array_ms"), (int, float))
        ]
        current = row.get("array_ms")
        if not prior or not isinstance(current, (int, float)):
            continue
        best = min(prior)
        if best > 0 and current > GREEDY_GATE_LIMIT * best:
            failures.append(
                f"tracker_grid {name} took {current:.3f} ms/plan, over "
                f"{GREEDY_GATE_LIMIT}x the best prior record {best:.3f} ms "
                f"(machine class cpus={record.get('cpus')})"
            )
    return "; ".join(failures) if failures else None


def opt_regression(record, history):
    """Failure message when OPT node throughput regressed, else None.

    Gates ``opt.nodes_per_sec`` against the best prior full-size record
    from the same machine class (equal ``cpus``) measuring the *same
    engine* on the *same workload* (equal ``switches`` and
    ``instances``).  The engines count explored nodes at different
    granularities (DESIGN.md §13), so cross-engine throughput is not
    comparable and a new engine's first record never fails its own gate.
    Prior records without an ``engine`` field predate the engine split
    and measured the reference engine.
    """
    if "profile" in record or record.get("quick"):
        return None
    opt = record.get("opt")
    if not isinstance(opt, dict):
        return None
    current = opt.get("nodes_per_sec")
    if not isinstance(current, (int, float)):
        return None
    engine = opt.get("engine", "reference")
    prior = []
    for other in _comparable(record, history, "opt"):
        if other.get("engine", "reference") != engine:
            continue
        if (
            other.get("switches") != opt.get("switches")
            or other.get("instances") != opt.get("instances")
        ):
            continue
        best = other.get("nodes_per_sec")
        if isinstance(best, (int, float)):
            prior.append(best)
    if not prior:
        return None
    best = max(prior)
    if best > 0 and current * OPT_GATE_LIMIT < best:
        return (
            f"opt[{engine}] throughput {current:.1f} nodes/s is under "
            f"1/{OPT_GATE_LIMIT}x the best prior record {best:.1f} nodes/s "
            f"(machine class cpus={record.get('cpus')})"
        )
    return None


def service_regression(record, history):
    """Failure message when the service bench regressed, else None.

    Two hard invariants fail on any machine: the lockstep re-run must be
    byte-identical (``deterministic``) and every planned update must
    verify conformant (``conformant``).  Wall-clock ``updates_per_sec``
    is gated like OPT throughput: against the best prior full-size
    record from the same machine class (equal ``cpus``) measuring the
    same workload shape (equal ``cells``/``pods``/``requests``); quick
    and profiled records are skipped on both sides.
    """
    service = record.get("service")
    if not isinstance(service, dict):
        return None
    failures = []
    if service.get("deterministic") is False:
        failures.append("service bench is not lockstep-deterministic")
    if service.get("conformant") is False:
        failures.append("service bench produced a non-conformant plan")
    current = service.get("updates_per_sec")
    if (
        not failures
        and "profile" not in record
        and not record.get("quick")
        and isinstance(current, (int, float))
    ):
        prior = []
        for other in _comparable(record, history, "service"):
            if any(
                other.get(key) != service.get(key)
                for key in ("cells", "pods", "requests")
            ):
                continue
            best = other.get("updates_per_sec")
            if isinstance(best, (int, float)):
                prior.append(best)
        if prior:
            best = max(prior)
            if best > 0 and current * SERVICE_GATE_LIMIT < best:
                failures.append(
                    f"service throughput {current:.1f} upd/s is under "
                    f"1/{SERVICE_GATE_LIMIT}x the best prior record "
                    f"{best:.1f} upd/s (machine class cpus={record.get('cpus')})"
                )
    return "; ".join(failures) if failures else None


def verify_regression(record, history):
    """Failure message when a ``verify`` row regressed, else None.

    One hard invariant fails on any machine: the fixed-seed Chronus plans
    the rows judge are consistent, so ``ok`` must stay true.  Each row's
    ``seconds_per_verify`` (``service``, ``mixed``) is gated against the
    best prior full-size record from the same machine class (equal
    ``cpus``) measuring the same shape (equal ``pods`` / ``pod_size`` /
    ``switches``); quick and profiled records are skipped on both sides,
    rows without a comparable prior individually.
    """
    rows = record.get("verify")
    if not isinstance(rows, dict):
        return None
    failures = []
    timed = "profile" not in record and not record.get("quick")
    for name, row in sorted(rows.items()):
        if not isinstance(row, dict):
            continue
        if row.get("ok") is False:
            failures.append(f"verify[{name}] refuted a fixed-seed Chronus plan")
            continue
        current = row.get("seconds_per_verify")
        if not timed or not isinstance(current, (int, float)):
            continue
        prior = []
        for block in _comparable(record, history, "verify"):
            other = block.get(name)
            if not isinstance(other, dict):
                continue
            if any(other.get(key) != row.get(key) for key in VERIFY_SHAPE_KEYS):
                continue
            seconds = other.get("seconds_per_verify")
            if isinstance(seconds, (int, float)):
                prior.append(seconds)
        if not prior:
            continue
        best = min(prior)
        if best > 0 and current > VERIFY_GATE_LIMIT * best:
            failures.append(
                f"verify[{name}] took {current * 1e3:.3f} ms/verify, over "
                f"{VERIFY_GATE_LIMIT}x the best prior record {best * 1e3:.3f} ms "
                f"(machine class cpus={record.get('cpus')})"
            )
    return "; ".join(failures) if failures else None


def main(argv=None) -> int:
    parser = script_parser(__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes for smoke runs")
    parser.add_argument(
        "--workers", type=int, default=4, help="pool size for the sweep benchmark"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="do not append to BENCH_sweep.json"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record the harness in memory and attach its aggregate view to the record",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the plan-conformance verifier sweep",
    )
    args = parser.parse_args(argv)

    if args.profile:
        with TraceSession(scenario="bench", run_id="profile") as session:
            record = perf_harness.collect(quick=args.quick, workers=args.workers)
        record["profile"] = aggregate(session.tape)
        print(render_report(record["profile"]))
    else:
        record = perf_harness.collect(quick=args.quick, workers=args.workers)

    if not args.no_verify:
        gate = run_in_memory("gate", {"instances_per_size": 8 if args.quick else 50})
        record["verifier_agrees"] = gate.ok
        print(f"[bench] verifier_agrees={gate.ok}")

    record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if args.no_write:
        history = perf_harness.load_history()
    else:
        history = perf_harness.append_record(record)[:-1]
        print(
            f"appended record #{len(history) + 1} to {perf_harness.BENCH_FILE.name} "
            f"(cpus={record['cpus']})"
        )

    failures = []
    sweep = record["sweep"]
    if not sweep["identical_records"]:
        failures.append("parallel sweep records differ from serial records")
    cpus = record["cpus"]
    if cpus >= 2 and sweep["serial_seconds"] > 0:
        slowdown = sweep["parallel_seconds"] / sweep["serial_seconds"]
        if slowdown > SLOWDOWN_LIMIT:
            failures.append(
                f"parallel sweep {slowdown:.2f}x slower than serial on "
                f"{cpus} cores (limit {SLOWDOWN_LIMIT}x)"
            )
    if record.get("verifier_agrees") is False:
        failures.append("plan-conformance verifier disagreed with a planner")
    regression = greedy_regression(record, history)
    if regression:
        failures.append(regression)
    dense_failure = greedy_dense_regression(record, history)
    if dense_failure:
        failures.append(dense_failure)
    grid_failure = tracker_grid_regression(record, history)
    if grid_failure:
        failures.append(grid_failure)
    opt_failure = opt_regression(record, history)
    if opt_failure:
        failures.append(opt_failure)
    service_failure = service_regression(record, history)
    if service_failure:
        failures.append(service_failure)
    verify_failure = verify_regression(record, history)
    if verify_failure:
        failures.append(verify_failure)
    for failure in failures:
        print(f"BENCH GATE FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
