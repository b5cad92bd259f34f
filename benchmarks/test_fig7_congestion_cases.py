"""Benchmark: regenerate Fig. 7 (percentage of congestion-free instances).

Paper result: at 60 switches, >65% of instances are congestion-free under
Chronus and OPT against ~15% for OR; Chronus tracks OPT closely.
"""

from repro.pipeline import run_in_memory


def test_fig7_congestion_cases(benchmark, once):
    result = once(
        benchmark,
        run_in_memory,
        "fig7",
        {
            "switch_counts": (10, 20, 30, 40, 50, 60),
            "instances_per_size": 10,
            "opt_budget": 0.5,
        },
        label="fig7",
    )
    print()
    print(result.render())
    for index in range(len(result.switch_counts)):
        chronus = result.percentages["chronus"][index]
        opt = result.percentages["opt"][index]
        order = result.percentages["or"][index]
        assert chronus >= order
        assert abs(opt - chronus) <= 35.0  # Chronus stays close to OPT
    # The gap widens with scale: at the largest size Chronus clearly wins.
    assert result.percentages["chronus"][-1] >= result.percentages["or"][-1] + 20.0
