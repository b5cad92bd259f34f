"""Benchmark: regenerate Fig. 10 (scheduler running time vs. network size).

Paper result (at 600 s cutoff, 1K-6K switches): OR and OPT complete only at
the small end and blow past the cutoff beyond it, while Chronus stays under
the cutoff even at 6K.  Sizes and cutoff scale down proportionally here.
"""

from repro.pipeline import run_in_memory


def test_fig10_running_time(benchmark, once):
    result = once(
        benchmark,
        run_in_memory,
        "fig10",
        {"switch_counts": (100, 250, 500, 1000, 2000, 4000), "cutoff": 3.0},
        label="fig10",
    )
    print()
    print(result.render())
    # Chronus completes everywhere.
    assert all(value is not None for value in result.seconds["chronus"])
    # The exact solvers complete at the small end...
    assert result.seconds["or"][0] is not None
    assert result.seconds["opt"][0] is not None
    # ...and hit the cutoff at the large end.
    assert result.seconds["or"][-1] is None
    assert result.seconds["opt"][-1] is None
