"""Golden pins for the exact searches (OPT and OR).

``optimal_schedule`` and ``minimize_rounds`` used to carry a second,
selectable ``"reference"`` search each.  Before those were deleted, the
values the two engines agreed on -- feasibility verdict, optimal
makespan / round count, ``proven`` and ``width_cut`` -- were frozen into
``tests/data/engine_goldens.json`` at the revision that file records,
over hundreds of seeded instances plus the Amiri-style adversarial
families (path reversals and tight-capacity segmented reroutes) that
stress rescue pairs and transient loops.  These tests hold the one
remaining search core to those values and add the independent judges:
every OPT schedule passes ``verify_schedule``, a proven optimum never
exceeds the Chronus makespan, every OR partition passes
``round_is_loop_free`` round by round, and tiny instances are checked
against the brute-force ``exhaustive_schedule``.
"""

import hashlib
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tracker as tracker_module
from repro.core.greedy import greedy_schedule
from repro.core.instance import (
    nested_reversal_instance,
    random_instance,
    reversal_instance,
    segmented_instance,
)
from repro.core.optimal import optimal_schedule, exhaustive_schedule
from repro.experiments.sweep import mixed_instance, sweep_seed
from repro.updates.order_replacement import minimize_rounds
from repro.validate.verifier import verify_schedule
from tests.test_greedy_engines import _random, _segmented
from tests.test_rounds import round_is_loop_free


def _assert_opt_golden(instance, golden, label, **kwargs):
    result = optimal_schedule(instance, **kwargs)
    assert result.feasible == golden["feasible"], f"{label}: feasibility diverged"
    assert result.makespan == golden["makespan"], f"{label}: makespan diverged"
    assert result.proven == golden["proven"], f"{label}: proven diverged"
    assert result.width_cut == golden["width_cut"], f"{label}: width_cut diverged"
    if result.schedule is not None:
        assert verify_schedule(instance, result.schedule).ok, label
        if result.proven:
            chronus = greedy_schedule(instance)
            assert not chronus.feasible or result.makespan <= chronus.makespan, label
    return result


def _assert_or_golden(instance, golden, label, **kwargs):
    result = minimize_rounds(instance, **kwargs)
    assert result.round_count == golden["round_count"], label
    assert result.proven == golden["proven"], label
    assert result.width_cut == golden["width_cut"], label
    updated = set()
    for round_nodes in result.rounds:
        assert round_is_loop_free(instance, updated, round_nodes), label
        updated.update(round_nodes)
    assert updated == set(instance.switches_to_update), label
    return result


class TestOptAgainstExhaustive:
    """The search against the brute-force oracle on tiny instances."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_exhaustive(self, seed):
        instance = random_instance(4 + seed % 3, seed=9000 + seed)
        result = optimal_schedule(instance)
        oracle = exhaustive_schedule(instance, max_makespan=8)
        if oracle is None:
            # No valid assignment within the oracle's makespan bound.
            assert result.schedule is None or result.makespan > 8
        else:
            assert result.schedule is not None
            assert result.makespan == oracle.makespan


class TestGreedyOnTheHardFamily:
    """Amiri et al. ("Being Greedy is Hard"): with identical link delays the
    nested reversals are easy, and greedy's makespan is OPT's."""

    @settings(max_examples=24, deadline=None)
    @given(
        count=st.integers(6, 12),
        depth=st.integers(0, 2),
        seed=st.integers(0, 10_000),
    )
    def test_identical_delays_greedy_is_optimal(self, count, depth, seed):
        instance = nested_reversal_instance(count, depth, 1, seed, capacity=2.0, max_delay=1)
        greedy = greedy_schedule(instance)
        opt = optimal_schedule(instance, node_budget=20_000)
        assert opt.proven and greedy.feasible
        assert greedy.makespan == opt.makespan


class TestOptEnginesAgree:
    """Unbudgeted golden values: feasibility, makespan and proven."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_instances(self, seed, engine_goldens):
        instance = random_instance(4 + seed % 6, seed=1700 + seed, max_delay=3)
        _assert_opt_golden(
            instance, engine_goldens["opt"]["random"][str(seed)], f"random seed={seed}"
        )

    @pytest.mark.parametrize("count", range(3, 10))
    def test_reversal_instances(self, count, engine_goldens):
        # Full path reversal: the hardest rescue-pair workload (every
        # singleton update loops until a partner cuts the cycle).
        _assert_opt_golden(
            reversal_instance(count),
            engine_goldens["opt"]["reversal"][str(count)],
            f"reversal count={count}",
        )

    @pytest.mark.parametrize("count", range(3, 9))
    def test_tight_capacity_reversals(self, count, engine_goldens):
        # Capacity exactly one demand: any transient overlap congests, so
        # feasibility hinges on exact drain timing.
        instance = reversal_instance(count, demand=1.0, capacity=1.0)
        _assert_opt_golden(
            instance,
            engine_goldens["opt"]["tight_reversal"][str(count)],
            f"tight reversal count={count}",
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_segmented_instances(self, seed, engine_goldens):
        instance = segmented_instance(
            10, seed=400 + seed, segments=2, max_segment_length=4
        )
        golden = engine_goldens["opt"]["segmented"][str(seed)]
        _assert_opt_golden(instance, golden, f"segmented seed={seed}")


class TestOrEnginesAgree:
    """Round minimisation: golden round count and proven."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_instances(self, seed, engine_goldens):
        instance = random_instance(4 + seed % 6, seed=3100 + seed, max_delay=3)
        _assert_or_golden(
            instance, engine_goldens["or"]["random"][str(seed)], f"seed={seed}"
        )

    @pytest.mark.parametrize("count", range(3, 10))
    def test_reversal_instances(self, count, engine_goldens):
        _assert_or_golden(
            reversal_instance(count),
            engine_goldens["or"]["reversal"][str(count)],
            f"reversal count={count}",
        )


class TestNodeBudgets:
    """Budgeted runs: determinism, and no proven-power regression."""

    def test_node_budget_deterministic(self):
        instance = random_instance(14, seed=77)
        results = [optimal_schedule(instance, node_budget=400) for _ in range(2)]
        first, second = results
        assert first.explored == second.explored
        assert first.proven == second.proven
        assert first.makespan == second.makespan
        times_a = None if first.schedule is None else first.schedule.as_dict()
        times_b = None if second.schedule is None else second.schedule.as_dict()
        assert times_a == times_b

    def test_proven_at_least_reference_under_equal_budgets(self, engine_goldens):
        # Aggregate proving power at a fixed deterministic budget: the
        # search must prove at least as many instances as the pinned
        # entries say, with equal optima wherever both prove.  The frozen
        # reference proofs the search reached only past its budget are
        # re-pinned under ``moved`` (cause ``budget``).
        frozen = engine_goldens["opt_node_budget"]
        budget = frozen["node_budget"]
        proven = 0
        for seed in range(20):
            instance = random_instance(12 + seed % 3, seed=500 + seed * 13)
            result = optimal_schedule(instance, node_budget=budget)
            reference = frozen["reference"][str(seed)]
            assert result.explored <= budget, f"seed={seed}"
            proven += result.proven
            if reference["proven"] and result.proven:
                assert result.makespan == reference["makespan"], f"seed={seed}"
                assert result.feasible == reference["feasible"], f"seed={seed}"
        assert proven >= frozen["reference_proven"]

    def test_explored_respects_the_node_budget(self):
        result = optimal_schedule(mixed_instance(12, 0), node_budget=60)
        assert not result.proven
        assert result.explored <= 60  # 641 while the budget was checked on DFS entry only

    def test_or_node_budget_deterministic(self):
        instance = random_instance(12, seed=99)
        first = minimize_rounds(instance, node_budget=200)
        second = minimize_rounds(instance, node_budget=200)
        assert first.explored == second.explored
        assert first.rounds == second.rounds
        assert first.proven == second.proven


class TestWidthCut:
    """Truncated candidate sets must forfeit the optimality claim."""

    def test_opt_width_cut_forfeits_proven(self, engine_goldens):
        # 10 pending switches, width 2: a truncated candidate set forfeits
        # the claim.  Here the loop-freedom bound proves the incumbent
        # optimal (after 10 nodes) before any set is truncated, so the
        # golden is proven and uncut (``moved``, cause ``bound``).
        result = _assert_opt_golden(
            random_instance(10, seed=11),
            engine_goldens["opt"]["width_cut_10"]["11"],
            "width 2, seed=11",
            max_branch_width=2,
        )
        if result.width_cut:
            assert not result.proven

    def test_opt_width_cut_engines_agree(self, engine_goldens):
        hit = 0
        for seed in range(12):
            result = _assert_opt_golden(
                random_instance(9, seed=6000 + seed),
                engine_goldens["opt"]["width_cut"][str(seed)],
                f"seed={seed}",
                max_branch_width=2,
            )
            hit += result.width_cut
        assert hit > 0, "no instance exercised the truncation path"

    def test_or_width_cut_forfeits_proven(self, engine_goldens):
        hit = 0
        for seed in range(12):
            result = _assert_or_golden(
                random_instance(8, seed=7000 + seed),
                engine_goldens["or"]["width_cut"][str(seed)],
                f"seed={seed}",
                max_branch_width=1,
            )
            if result.width_cut:
                assert not result.proven
                hit += 1
        assert hit > 0, "no instance exercised the truncation path"

    def test_untruncated_run_reports_no_cut(self):
        instance = random_instance(5, seed=3)
        result = optimal_schedule(instance)
        assert not result.width_cut
        assert result.proven


def _entry_at(goldens, path):
    for part in path.split("/"):
        goldens = goldens[part]
    return goldens


def test_moved_entries_have_their_cause(engine_goldens):
    """Every re-pinned golden differs from its frozen value only as its cause allows."""
    moved = engine_goldens["moved"]
    budgeted = engine_goldens["opt_node_budget"]
    for path, entry in moved["entries"].items():
        assert entry["cause"] in moved["causes"], path
        now, frozen = _entry_at(engine_goldens, path), entry["frozen"]
        assert now != frozen, path
        if not isinstance(frozen, dict):  # a count of the entries below
            assert now == sum(golden["proven"] for golden in budgeted["reference"].values())
            continue
        assert now["makespan"] == frozen["makespan"], path
        if entry["cause"] == "budget":
            # The proof took more nodes than the budget allows; nothing else moves.
            assert entry["explored_at_revision"] > budgeted["node_budget"], path
            assert frozen["proven"] and not now["proven"], path
            assert now["feasible"] == (True if frozen["feasible"] else None), path
        else:
            # The bound proves the incumbent before any candidate set is cut.
            assert (frozen["proven"], frozen["width_cut"]) == (False, True), path
            assert (now["proven"], now["width_cut"]) == (True, False), path
            assert now["feasible"] == frozen["feasible"], path


# sha256 of every search below, as two digests: ``result`` over (makespan,
# sorted schedule), frozen at commit 2d36b4b (the parent of the PR that made
# a refused include cost a split instead of a clone + split + check +
# commit), and ``work`` over (explored, proven).  ``engine_goldens.json``
# stores no ``explored``; ``work`` does, so a change to the cost of a search
# node cannot quietly become a change to the number or order of nodes.
# ``work`` is re-frozen only by cause, held row by row to the rows of
# ``engine_goldens.json``'s ``node_accounting`` block (:func:`_assert_work_moved_by_cause`).
# The dict and the array search state give the same bytes and must keep
# doing so.
NODE_ACCOUNTING_DIGESTS = {
    "sweep": {
        "result": "35b0c86dbba3493f1b8f4aa7f8b24731466d7daff010a288e4567b0db3fd2a92",
        "work": "3147d583285ada82af6fb6ac0a86df72217a340a0b88816d6e2ae7a7e6027f8a",
    },
    "goldens": {
        "result": "ca7d2d62509f626bfefba1faabfa263b1d7479b150fd320408c4a58ba104d15b",
        "work": "038c8c7ff17b213aeb12121ac5736930d667d16ec061644af5643340cffc9a04",
    },
}


def _accounting_row(result):
    schedule = None
    if result.schedule is not None:
        schedule = sorted(result.schedule.as_dict().items())
    return [result.explored, result.proven, result.makespan, schedule]


def _digest(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True, default=str).encode()).hexdigest()


def _sweep_corpus(_goldens):
    """The ``sweep-paper`` shape: 200 mixed instances under 60 nodes."""
    for count in (8, 9):
        for index in range(100):
            instance = mixed_instance(count, sweep_seed(7, count, index))
            yield 60, optimal_schedule(instance, time_budget=600, node_budget=60)


def _goldens_corpus(goldens):
    """Every ``opt`` / ``opt_node_budget`` instance of this file."""
    for seed in range(60):
        yield None, optimal_schedule(
            random_instance(4 + seed % 6, seed=1700 + seed, max_delay=3)
        )
    for count in range(3, 10):
        yield None, optimal_schedule(reversal_instance(count))
    for count in range(3, 9):
        yield None, optimal_schedule(reversal_instance(count, demand=1.0, capacity=1.0))
    for seed in range(12):
        yield None, optimal_schedule(
            segmented_instance(10, seed=400 + seed, segments=2, max_segment_length=4)
        )
    yield None, optimal_schedule(random_instance(10, seed=11), max_branch_width=2)
    for seed in range(12):
        yield None, optimal_schedule(random_instance(9, seed=6000 + seed), max_branch_width=2)
    budget = goldens["opt_node_budget"]["node_budget"]
    for seed in range(20):
        instance = random_instance(12 + seed % 3, seed=500 + seed * 13)
        yield budget, optimal_schedule(instance, node_budget=budget)


def _assert_work_moved_by_cause(name, budgets, work, frozen):
    """Each ``(explored, proven)`` row against the row frozen in the fixture.

    ``frozen`` holds ``explored`` per search, ``+`` when proven.  A row may
    move two ways: a search that explored past its node budget now stops at
    it (and may lose its proof); any other search explores no more than it
    did and loses no proof.
    """
    frozen = [(int(cell.rstrip("+")), cell.endswith("+")) for cell in frozen.split()]
    assert len(frozen) == len(work), name
    for index, (budget, (explored, proven), (was_explored, was_proven)) in enumerate(
        zip(budgets, work, frozen)
    ):
        label = f"{name}[{index}]"
        if budget is not None:
            assert explored <= budget, label
            if was_explored > budget:
                continue
        assert explored <= was_explored, label
        assert proven or not was_proven, label


class TestNodeAccountingPinned:
    """``explored``, ``proven``, makespan and schedule of OPT, as two digests."""

    @pytest.mark.parametrize("state", ["dict", "array"])
    @pytest.mark.parametrize(
        "corpus", [_sweep_corpus, _goldens_corpus], ids=["sweep", "goldens"]
    )
    def test_digest(self, corpus, state, engine_goldens, monkeypatch):
        threshold = 0 if state == "array" else sys.maxsize
        monkeypatch.setattr(tracker_module, "ARRAY_TRACKER_MIN_HOPS", threshold)
        budgets, rows = zip(*corpus(engine_goldens))
        rows = [_accounting_row(result) for result in rows]
        name = corpus.__name__.strip("_").split("_")[0]
        pinned = NODE_ACCOUNTING_DIGESTS[name]
        label = f"{name} on the {state} state"
        assert _digest([row[2:] for row in rows]) == pinned["result"], label
        work = [row[:2] for row in rows]
        frozen = engine_goldens["node_accounting"][name]
        _assert_work_moved_by_cause(name, budgets, work, frozen)
        assert _digest(work) == pinned["work"], label


class TestSuppliedIncumbent:
    """``incumbent=`` is the seed greedy handed over, not a different search.

    A sweep item gives OPT the greedy result Chronus planned a moment
    earlier (``SharedEvaluation.greedy``); the search must come out field
    for field as if it had run that greedy itself -- on the greedy pin
    corpus of ``engine_goldens.json`` (140 random, 60 segmented, 10
    reversals; the three paper-mode pins re-use instances of the other
    families), under a node budget so the 40-switch instances stay cheap
    and ``explored`` is a function of the instance alone.
    """

    @pytest.mark.parametrize(
        "family, keys",
        [("random", range(140)), ("segmented", range(60)), ("reversal", range(4, 14))],
    )
    def test_equals_the_seeded_search(self, family, keys):
        build = {"random": _random, "segmented": _segmented, "reversal": reversal_instance}
        reused = 0
        for key in keys:
            instance = build[family](key)
            seed = greedy_schedule(instance)
            own = optimal_schedule(instance, node_budget=60)
            given = optimal_schedule(instance, node_budget=60, incumbent=seed)
            assert _accounting_row(given) == _accounting_row(own), f"{family} {key}"
            assert given.width_cut == own.width_cut, f"{family} {key}"
            if given.schedule is not None:
                # Insertion order too: it is the item's sharing key.
                assert list(given.schedule.items()) == list(own.schedule.items())
                reused += list(given.schedule.items()) == list(seed.schedule.items())
        assert reused, f"OPT never returned the incumbent on the {family} family"

    def test_supplied_incumbent_skips_the_seed_timer(self):
        from repro.trace import TraceSession, aggregate

        instance = _random(5)
        seed = greedy_schedule(instance)
        with TraceSession(scenario="test", run_id="incumbent") as session:
            optimal_schedule(instance, incumbent=seed)
        given = set(aggregate(session.tape)["spans"])
        with TraceSession(scenario="test", run_id="seeded") as session:
            optimal_schedule(instance)
        own = set(aggregate(session.tape)["spans"])
        assert "opt.search" in given and not any(p.startswith("opt.seed") for p in given)
        assert "opt.seed.greedy" in own
