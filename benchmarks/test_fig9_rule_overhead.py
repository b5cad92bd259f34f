"""Benchmark: regenerate Fig. 9 (forwarding-rule operations, Chronus vs TP).

Paper result: ~596 (TP) vs ~190 (Chronus) rule operations at 300 switches;
Chronus saves over 60% on average, and TP grows far faster with size.
"""

from repro.pipeline import run_in_memory


def test_fig9_rule_overhead(benchmark, once):
    result = once(
        benchmark,
        run_in_memory,
        "fig9",
        {"switch_counts": (100, 200, 300, 400, 500, 600), "instances_per_size": 15},
        label="fig9",
    )
    print()
    print(result.render())
    box = result.chronus_boxes[300]
    assert 150 <= box.mean <= 230      # paper: ~190
    assert 540 <= result.tp_means[300] <= 660  # paper: ~596
    for count in result.switch_counts:
        saving = 1 - result.chronus_boxes[count].mean / result.tp_means[count]
        assert saving > 0.6
