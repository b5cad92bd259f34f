"""Freeze-first pins of what the sweep-backed scenarios store and render.

One sweep item's life (build, plan per scheme, measure, verify, store)
ends in a ``records.jsonl`` line and, after aggregation, a rendered table.
The digests below were taken before the sweep item path was reduced to
one evaluation and one record shape; any change to how the item is
evaluated, stored or read back for Figs. 7 and 8 must leave them
unmoved.  ``sweep`` runs at ``sweep-paper``'s overrides, shrunk to one
size and ten items; ``fig7`` / ``fig8`` on tiny grids; the gate row is
the report of ``run gate --set instances_per_size=8`` (plans checked,
disagreements).
Wall budgets are sized never to bind, so only the node budgets do and
the records do not depend on machine load.  ``PYTHONPATH=src:. python
tests/test_record_pins.py`` prints a tree's digests in the table's
layout; re-freeze only from a tree whose records are known to be the
reference.
"""

import hashlib

import pytest

from repro.pipeline.context import RunContext
from repro.pipeline.runner import run_in_memory, run_to_store
from repro.pipeline.store import ArtifactStore

SLACK = {"opt_budget": 600.0, "or_budget": 600.0}

RUNS = {
    "sweep": {
        **SLACK,
        "switch_counts": (8,),
        "instances_per_size": 10,
        "base_seed": 42,
        "schemes": ("chronus", "or", "opt", "tp", "aug"),
        "opt_node_budget": 60,
        "or_node_budget": 60,
        "aug_epsilon": 1.0,
        "verify": True,
    },
    "fig7": {
        **SLACK,
        "switch_counts": (10, 30),
        "instances_per_size": 4,
        "opt_node_budget": 200,
        "or_node_budget": 200,
    },
    "fig8": {
        **SLACK,
        "switch_counts": (10, 30),
        "instances_per_size": 4,
        "opt_node_budget": 200,
        "or_node_budget": 200,
    },
}

# (records.jsonl, rendered table) per scenario.
PINS = {
    "fig7": (
        "fa05c6cea00b7c0409060316db67c510124488e8240e80cf0b1841817d8ea482",
        "03eb1308f4d2c34d5b721782be79076b0824e4a8e2f855a9efcbdd1454b8cbda",
    ),
    "fig8": (
        "35d1404db38261b064d9d5d76a6fbf63573ed8c68918ebbdb213a96a4ce3e440",
        "18b7b1eac124c4803a3100eeba409f81ddba381c16bb07c0b91217d91d6be872",
    ),
    "sweep": (
        "3d1846a2909d7dab0f2c13d2bf60b93b83b732f2a625e8984a416518806e024a",
        "7797a220afa6b1d70a6a6d88dc461cbc015c5e09dc3e9b185fc45a9db706eb53",
    ),
}

# ``run gate --set instances_per_size=8``: 8 instances x every scheme at 8
# switches.
GATE_QUICK = "0e9a95ee85975d8e3e1ade0f8583262d6c0c041638e66229c6626705bb2cc1cc"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stored_digests(name, root):
    stored = run_to_store(name, RUNS[name], RunContext(), ArtifactStore(root))
    records = (stored.handle.directory / "records.jsonl").read_bytes()
    return sha(records), sha(stored.aggregate().render().encode("utf-8"))


def gate_digest():
    report = run_in_memory("gate", {"instances_per_size": 8})
    return sha(report.render().encode("utf-8"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stored_records_and_table_are_pinned(name, tmp_path):
    assert stored_digests(name, tmp_path) == PINS[name]


def test_quick_gate_report_is_pinned():
    assert gate_digest() == GATE_QUICK


if __name__ == "__main__":
    import tempfile

    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as root:
            records, table = stored_digests(name, root)
        print(f'    "{name}": (\n        "{records}",\n        "{table}",\n    ),')
    print(f'GATE_QUICK = "{gate_digest()}"')
