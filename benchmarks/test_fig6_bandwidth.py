"""Benchmark: regenerate Fig. 6 (bandwidth consumption during an update).

Paper result: OR's asynchronous rounds push the hottest 5 Mbps link to
~6 Mbps (beyond capacity), while Chronus and TP stay in the normal range.
"""

from repro.pipeline import run_in_memory


def test_fig6_bandwidth_consumption(benchmark, once):
    result = once(benchmark, run_in_memory, "fig6", {"duration": 30.0}, label="fig6")
    print()
    print(result.render())
    assert result.peaks["chronus"] <= result.capacity + 1e-6
    assert result.peaks["tp"] <= result.capacity + 1e-6
    assert result.peaks["or"] > result.capacity + 1e-6
