"""The repo benchmark: one command, five seeded workloads, named metrics.

Contract mode (what the driver runs; prints one JSON object last)::

    python3 bench/run.py --workload plan-dense --seed 7 --seconds 10 --trace 0

Suite mode (every workload: three untraced runs, their medians, then one
traced run; human-readable)::

    python3 bench/run.py --seed 42 --out bench/out/result.json
    python3 bench/run.py --quick
    python3 bench/run.py --compare A.json B.json

Each workload runs in fresh subprocesses of this script, one at a time,
single-threaded.  Set-up (interpreter start, imports, input generation,
one warm-up unit) is repeated in 3 to 5 fresh processes and reported as
their median; the first of them goes on to measure.  See
bench/README.md for the metric definitions and the noise policy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Set-up is sampled in 3 to 5 fresh processes: cheap set-ups get more
#: samples, because one 0.4 s hiccup is half of a 0.8 s set-up.
SETUP_PROBES = (3, 5)
SETUP_PROBE_BUDGET_S = 5.0
#: Suite mode repeats every untraced run and reports medians.
SUITE_REPEATS = 3
CHILD_TIMEOUT = 170  # the contract allows a run 180 s
RESULT_TAG = "BENCH-RESULT "
#: Child payload keys echoed on stderr in contract mode.
DIAGNOSTICS = ("passes", "pass_totals_s", "identical", "calibration", "wall_ops_per_s")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def metric_block(spec_entries, values: Dict[str, float]) -> Dict[str, dict]:
    """``values`` laid out as the contract asks, in BENCHMARK.json order."""
    names = [entry["name"] for entry in spec_entries]
    unknown = sorted(set(values) - set(names))
    missing = sorted(set(names) - set(values))
    if unknown or missing:
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: unknown {unknown}, missing {missing}"
        )
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in spec_entries
    }


# -- the measuring subprocess ------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Set up one workload; unless ``--setup-only``, measure it too."""
    sys.path.insert(0, str(SRC_DIR))
    from timing import Calibrator, aggregate_passes, throughput
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    workload.build()
    if not args.quick:  # a smoke run pays lazy set-up inside its only pass
        workload.warm_up()
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(RESULT_TAG + json.dumps({"setup_s": setup_s}))
        return 0

    calibrator = Calibrator()

    def nominal(result) -> List[float]:
        return [
            seconds * calibrator.scale_at(started, seconds)
            for started, seconds in zip(result.started, result.times)
        ]

    passes: List[List[float]] = []
    scaled: List[List[float]] = []  # the same, in seconds of the nominal machine
    errors: List[str] = []
    reference: Optional[list] = None
    identical = True
    began = time.perf_counter()
    while True:
        result = workload.run_pass(None, calibrator)
        calibrator.sample()  # so the last unit has a sample after it too
        passes.append(result.times)
        scaled.append(nominal(result))
        errors += result.errors
        if reference is None:
            reference = result.outputs
        elif result.outputs != reference:
            identical = False
        # A quick run times one pass and a traced run two (its traced pass is
        # compared with their minima); otherwise passes repeat while another
        # one still fits into --seconds.
        if args.quick or (args.trace and len(passes) == 2):
            break
        if not args.trace and time.perf_counter() - began + sum(result.times) > args.seconds:
            break
    # Units are aggregated by the median of their calibration-scaled times:
    # contention only adds wall time, but the scaling errs both ways, and a
    # minimum of scaled times reads higher the noisier the box is.
    stats = aggregate_passes(scaled)
    payload: Dict[str, object] = {
        "setup_s": setup_s,
        "identical": identical,
        "passes": len(passes),
        "pass_totals_s": [round(sum(row), 6) for row in passes],
        "units": [
            dict(id=unit_id, **{k: round(v, 6) for k, v in stat.items()})
            for unit_id, stat in zip(workload.unit_ids, stats)
        ],
    }
    if not args.trace:
        verdict = workload.judge()
        payload["calibration"] = calibrator.summary()
        payload["wall_ops_per_s"] = throughput(verdict.ops, aggregate_passes(passes))
        payload["values"] = {
            "ops_per_s": throughput(verdict.ops, stats, key="median"),
            "update_steps_mean": verdict.update_steps_mean,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        from layers import per_layer_values
        from tracing import Recorder, traced_program

        recorder = Recorder()
        with traced_program(recorder):
            traced = workload.run_pass(recorder, calibrator)
        calibrator.sample()
        verdict = workload.judge()  # of the traced pass, traced-only units included
        shared = len(stats)  # units both passes ran
        if traced.outputs[:shared] != reference:
            payload["identical"] = False
        errors += traced.errors
        overhead = (
            sum(nominal(traced)[:shared])
            / sum(unit["median"] for unit in stats)
            - 1.0
        )
        payload["values"] = per_layer_values(
            recorder.spans,
            verdict.detail,
            workload.build_seconds,
            workload.builds,
            overhead,
            calibrator.summary(),
        )
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(OUT_DIR / f"trace-{args.workload}.jsonl")
    payload.update(
        attempted=verdict.attempted,
        failed=verdict.failed,
        problems=(verdict.problems + errors)[:20],
        detail=verdict.detail,
    )
    print(RESULT_TAG + json.dumps(payload))
    return 0


def spawn_child(workload: str, seed: int, seconds: float, trace: int, quick: bool,
                setup_only: bool) -> dict:
    """Run one child to completion and return the payload it printed."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.time()),
    ]
    if quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    # Set and dict order follows the string hash seed; pinning it takes one
    # source of run-to-run timing difference away (outputs never depend on it).
    env = dict(os.environ, PYTHONHASHSEED="0")
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=str(ROOT), env=env
    )
    for line in reversed(completed.stdout.splitlines()):
        if line.startswith(RESULT_TAG):
            return json.loads(line[len(RESULT_TAG):])
    raise SystemExit(
        f"{workload}: child exited {completed.returncode} without a result\n"
        f"{completed.stderr[-2000:]}"
    )


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int,
                 quick: bool = False) -> dict:
    """One contract run: the result object plus diagnostics under ``extra``."""
    measured = spawn_child(workload, seed, seconds, trace, quick, setup_only=False)
    setups = [measured["setup_s"]]
    fewest, most = SETUP_PROBES
    while not (trace or quick) and (
        len(setups) < fewest or (len(setups) < most and sum(setups) < SETUP_PROBE_BUDGET_S)
    ):
        probe = spawn_child(workload, seed, seconds, trace, quick, setup_only=True)
        setups.append(probe["setup_s"])
    values = dict(measured["values"])
    if trace:
        metrics = metric_block(spec["per_layer"], values)
    else:
        values["setup_s"] = statistics.median(setups)
        metrics = metric_block(spec["end_to_end"], values)
    correct = measured["failed"] == 0 and measured["identical"]
    return {
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
        "extra": dict(
            {key: measured.get(key) for key in DIAGNOSTICS + ("problems", "units", "detail")},
            setup_samples_s=setups,
        ),
    }


# -- suite mode ----------------------------------------------------------------


def environment() -> dict:
    import numpy

    sys.path.insert(0, str(SRC_DIR))
    from repro.pipeline.store import git_revision

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(ROOT),
    }


def median_run(runs: List[dict]) -> dict:
    """One result whose metrics are the medians over ``runs`` of one seed.

    A single run on this box can sit inside a noisy minute; the suite's
    numbers are meant to be compared, so they are medians.
    """
    merged = dict(runs[0])
    merged["correct"] = all(run["correct"] for run in runs)
    merged["failed"] = max(run["failed"] for run in runs)
    merged["metrics"] = {
        name: {
            "value": statistics.median(run["metrics"][name]["value"] for run in runs),
            "unit": metric["unit"],
        }
        for name, metric in runs[0]["metrics"].items()
    }
    merged["runs"] = [
        {name: metric["value"] for name, metric in run["metrics"].items()} for run in runs
    ]
    return merged


def print_metrics(title: str, result: dict) -> None:
    print(f"  [{title}] correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"    {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in result["extra"]["problems"]:
        print(f"    ! {problem}")


def suite_main(args: argparse.Namespace, spec: dict) -> int:
    names = args.workload or [entry["name"] for entry in spec["workloads"]]
    document = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": bool(args.quick),
        "environment": environment(),
        "workloads": {},
    }
    ok = True
    repeats = 1 if args.quick else SUITE_REPEATS
    for name in names:
        print(f"{name}")
        runs = [
            run_workload(spec, name, args.seed, args.seconds, 0, args.quick)
            for _ in range(repeats)
        ]
        untraced = median_run(runs)
        print_metrics(f"end to end, median of {repeats} run(s)", untraced)
        traced = run_workload(spec, name, args.seed, args.seconds, 1, args.quick)
        print_metrics("per layer, traced pass", traced)
        ok = ok and all(run["correct"] for run in runs) and traced["correct"]
        document["workloads"][name] = {"end_to_end": untraced, "per_layer": traced}
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    if args.quick:
        print("quick run: smoke numbers only, never a baseline")
    return 0 if ok else 1


# -- compare -------------------------------------------------------------------

#: Seed-determined numbers: equal seeds must reproduce them exactly.
EXACT_END_TO_END = ("update_steps_mean",)
EXACT_PER_LAYER = (
    "core.greedy.rounds", "core.search.nodes", "simulator.engine.events",
    "quality.makespan_total", "quality.congestion_free_share",
    "service.latency_p50_vs", "service.latency_tail_vs", "service.completed_share",
)


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def compared_rows(spec: dict, block_a: dict, block_b: dict, same_seed: bool):
    """``(metric, a, b, better, bound)`` for one workload of two suite results."""
    for section, entries in (("end_to_end", spec["end_to_end"]), ("per_layer", spec["per_layer"])):
        values_a = block_a[section]["metrics"]
        values_b = block_b[section]["metrics"]
        for entry in entries:
            name = entry["name"]
            exact = name in EXACT_END_TO_END + EXACT_PER_LAYER
            if section == "per_layer" and not exact:
                continue  # per-layer times carry no bound
            if exact and not same_seed:
                continue
            a, b = values_a[name]["value"], values_b[name]["value"]
            if section == "per_layer" and a == b == 0:
                continue  # the layer does no work on this workload
            yield name, a, b, entry["better"], 0.0 if exact else entry["bound"]
    failed_a, failed_b = block_a["end_to_end"]["failed"], block_b["end_to_end"]["failed"]
    yield "failed", float(failed_a), float(failed_b), "lower", 0.0


def compare_main(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as handle_a, open(path_b) as handle_b:
        doc_a, doc_b = json.load(handle_a), json.load(handle_b)
    if doc_a.get("quick") or doc_b.get("quick"):
        print("refusing to compare: a quick result is never a baseline")
        return 2
    same_seed = doc_a["seed"] == doc_b["seed"]
    outside = 0
    print(f"{'workload':16s} {'metric':34s} {'A':>14s} {'B':>14s} {'worse by':>9s} {'bound':>6s}")
    for name in doc_a["workloads"]:
        if name not in doc_b["workloads"]:
            continue
        rows = compared_rows(spec, doc_a["workloads"][name], doc_b["workloads"][name], same_seed)
        for metric, a, b, better, bound in rows:
            delta = worse_by(a, b, better)
            flag = ""
            if delta > bound + 1e-12:
                outside += 1
                flag = "  OUTSIDE"
            print(f"{name:16s} {metric:34s} {a:14.6g} {b:14.6g} {delta:+9.3%} {bound:6.2f}{flag}")
    print(f"{outside} pair(s) outside their bound")
    return 1 if outside else 0


# -- entry point -----------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (contract mode: exactly one)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: 0 = end-to-end metrics, 1 = traced per-layer pass")
    parser.add_argument("--quick", action="store_true",
                        help="one unit per workload, one pass; never a baseline")
    parser.add_argument("--out", help="suite mode: write the full result JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir():
        print(f"no program to measure: {SRC_DIR / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    known = [entry["name"] for entry in spec["workloads"]]
    for name in args.workload or []:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(known)}")

    if args.compare:
        return compare_main(args.compare[0], args.compare[1], spec)
    if args.child:
        args.workload = args.workload[0]
        return child_main(args)
    if args.trace is None:
        return suite_main(args, spec)

    if not args.workload or len(args.workload) != 1:
        parser.error("contract mode takes exactly one --workload")
    result = run_workload(spec, args.workload[0], args.seed, args.seconds, args.trace, args.quick)
    extra = result.pop("extra")
    for problem in extra["problems"]:
        print(f"! {problem}", file=sys.stderr)
    diagnostics = {key: extra[key] for key in DIAGNOSTICS + ("setup_samples_s",)}
    print(f"# {json.dumps(diagnostics)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
