"""Benchmark: regenerate Fig. 11 (CDF of the update time at 400 switches).

Paper result: most Chronus updates finish within ~15 time units and OPT
within ~13 -- Chronus is near-optimal.
"""

from repro.pipeline import run_in_memory


def test_fig11_update_time_cdf(benchmark, once):
    result = once(
        benchmark,
        run_in_memory,
        "fig11",
        {"switch_count": 400, "instances": 15, "opt_budget": 1.0},
        label="fig11",
    )
    print()
    print(result.render())
    assert len(result.chronus_times) == 15
    # OPT never loses, Chronus stays within a couple of steps of it.
    for chronus, opt in zip(result.chronus_times, result.opt_times):
        assert opt <= chronus
        assert chronus - opt <= 4
    # The paper's scale: updates complete within ~15 time units.
    assert max(result.chronus_times) <= 20
