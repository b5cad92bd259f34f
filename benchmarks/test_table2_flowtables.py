"""Benchmark: regenerate Table II (flow tables at source and destination)."""

from repro.pipeline import run_in_memory


def test_table2_flow_tables(benchmark, once):
    result = once(
        benchmark,
        run_in_memory,
        "table2",
        {"switch_count": 12, "seed": 12},
        label="table2",
    )
    print()
    print(result.render())
    # Sanity: the transition tables carry the extra versioned rules.
    assert len(result.source_rows_two_phase) > len(result.source_rows)
    assert len(result.destination_rows_two_phase) > len(result.destination_rows)
