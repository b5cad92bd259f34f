"""Benchmark: regenerate Fig. 8 (congested time-extended links).

Paper result: Chronus reduces the number of congested links of the
time-extended network by ~70% relative to OR, more at larger sizes.
"""

from repro.pipeline import run_in_memory


def test_fig8_congested_links(benchmark, once):
    result = once(
        benchmark,
        run_in_memory,
        "fig8",
        {"switch_counts": (10, 20, 30, 40, 50, 60), "instances_per_size": 10},
        label="fig8",
    )
    print()
    print(result.render())
    total_chronus = sum(result.congested["chronus"])
    total_or = sum(result.congested["or"])
    assert total_or > 0
    assert total_chronus <= 0.4 * total_or  # at least a 60% reduction overall
