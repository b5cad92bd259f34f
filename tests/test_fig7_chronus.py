"""Fig. 7's Chronus column, and the two readings of Alg. 2 beside it.

EXPERIMENTS.md (Fig. 7, faithfulness note) reports three variants of the
greedy on the figure's grid -- ``mixed_instance(n, sweep_seed(1, n, i))``
for n = 10 ... 60 and i < 20, the ``fig7`` scenario's defaults -- counting
a plan as congestion-free when it says it is feasible and the verifier
agrees:

* ``exact``: what the ``chronus`` planner runs, whose round falls back to
  probing every pending switch when every chain head is refused;
* ``heads only``: the same without that fallback, each round drawn from
  Alg. 3's chain heads as Alg. 2 is written (``_FALLBACK_PROBE_LIMIT``
  below zero);
* ``paper``: decisions from Alg. 3's chains and Alg. 4's walk alone
  (``mode="paper"``).

The counts are seed-determined.  The fallback is not monotone: at 60
switches it makes fewer plans congestion-free than heads only.
"""

from unittest import mock

import pytest

from repro.core import greedy
from repro.experiments.sweep import mixed_instance, sweep_seed
from repro.validate import verify_schedule

SIZES = (10, 20, 30, 40, 50, 60)
INSTANCES = 20
EXPECTED = {
    "exact": (20, 18, 16, 17, 9, 13),
    "heads only": (4, 9, 8, 9, 8, 16),
    "paper": (2, 6, 3, 4, 1, 2),
}


def congestion_free(size, **options):
    """How many of the size's instances get a feasible plan the verifier
    holds clean."""
    count = 0
    for index in range(INSTANCES):
        instance = mixed_instance(size, sweep_seed(1, size, index))
        result = greedy.greedy_schedule(instance, **options)
        count += result.feasible and verify_schedule(instance, result.schedule).ok
    return count


@pytest.mark.parametrize("variant", sorted(EXPECTED))
def test_chronus_column(variant):
    options = {"mode": greedy.PAPER} if variant == "paper" else {}
    limit = -1 if variant == "heads only" else greedy._FALLBACK_PROBE_LIMIT
    with mock.patch.object(greedy, "_FALLBACK_PROBE_LIMIT", limit):
        counts = tuple(congestion_free(size, **options) for size in SIZES)
    assert counts == EXPECTED[variant]
