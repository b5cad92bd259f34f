"""Regression: per-switch FIFO delivery on the control channel.

Each controller<->switch connection is a TCP stream, so messages to one
switch must be delivered in send order.  The channel used to sample every
latency independently, letting a barrier request overtake its round's
FlowMod under a wide-variance delay model -- the unacknowledged round
executor of the time then advanced to the next round (or declared the
update finished) while the overtaken FlowMod was still in flight.  The
acknowledged executor checks the apply behind every barrier reply, so
against a keyless channel the same pinned seeds now surface as a *resend*
(a reply with its FlowMod still in flight reads as a failed install) and
must stay retry-free under the real FIFO-keyed one.
"""

import random

import pytest

from repro.controller import (
    ConstantDelayModel,
    ControlChannel,
    Controller,
    perform_resilient_update,
)
from repro.controller.channel import DelayModel
from repro.core.greedy import greedy_schedule
from repro.core.instance import motivating_example
from repro.simulator import Simulator, build_dataplane
from repro.simulator.dataplane import install_config
from tests.test_resilient import UniformDelayModel

#: Wide latency spread so a late send can sample a shorter delay than an
#: earlier one; the inter-round sleep is 0.5 s, well below the spread.
WIDE_DELAY = (0.001, 2.0)
TIME_UNIT = 0.5

#: Seeds found by scanning 0..59 against the pre-fix (keyless) channel:
#: under the unacknowledged executor the first two finished a round while
#: its FlowMod was still in flight, the last two applied a later round's
#: update before an earlier round's.
MISSING_AT_FINISH_SEEDS = (1, 50)
INVERTED_ROUND_SEEDS = (22, 26)

#: FlowMod, barrier and reply each take at most 2 s (plus the 10 ms
#: install), so an acknowledgement is never this late: no timer fires.
RETRY_TIMEOUT = 10.0


class KeylessChannel(ControlChannel):
    """The pre-fix behaviour: every latency independent, no FIFO streams."""

    def send(self, deliver, key=None):
        return super().send(deliver, key=None)


class ScriptedDelay(DelayModel):
    """Returns a scripted latency sequence (ignores the rng)."""

    def __init__(self, values):
        self.values = list(values)

    def sample(self, rng):
        return self.values.pop(0)


def run_rounds(seed, channel_cls):
    """One round-by-round update under wide latency variance.

    Returns ``(schedule, snapshot, trace)`` where ``snapshot`` is the
    applied map at the instant the executor declared the update finished.
    """
    instance = motivating_example()
    sim = Simulator()
    plane = build_dataplane(sim, instance.network, delay_scale=1.0)
    install_config(plane, instance)
    channel = channel_cls(
        sim,
        network_delay=UniformDelayModel(*WIDE_DELAY),
        install_delay=ConstantDelayModel(0.01),
        rng=random.Random(seed),
    )
    controller = Controller(sim, channel)
    for switch in plane.switches.values():
        controller.manage(switch)

    schedule = greedy_schedule(instance).schedule
    snapshots = []
    trace = perform_resilient_update(
        controller, plane, instance, schedule,
        strategy="rounds", time_unit=TIME_UNIT, retry_timeout=RETRY_TIMEOUT,
        on_finish=lambda trace: snapshots.append(dict(trace.applied)),
    )
    sim.run(until=200.0)
    assert snapshots, "round executor never finished"
    assert not trace.aborted
    return schedule, snapshots[0], trace


def round_violations(schedule, snapshot):
    """FIFO symptoms visible in one finish-time snapshot."""
    problems = []
    for node in schedule.times:
        if node not in snapshot:
            problems.append(f"{node} missing at finish")
    rounds = schedule.rounds()
    for (_, earlier), (_, later) in zip(rounds, rounds[1:]):
        if not all(n in snapshot for n in (*earlier, *later)):
            continue
        if max(snapshot[n] for n in earlier) >= min(snapshot[n] for n in later):
            problems.append("rounds inverted")
    return problems


class TestChannelFifoUnit:
    def test_same_key_never_overtakes(self):
        sim = Simulator()
        channel = ControlChannel(
            sim, network_delay=ScriptedDelay([1.0, 0.1]), rng=random.Random(0)
        )
        order = []
        channel.send(lambda: order.append("first"), key=("to", "v1"))
        channel.send(lambda: order.append("second"), key=("to", "v1"))
        sim.run(until=5.0)
        assert order == ["first", "second"]

    def test_second_message_held_to_stream_front(self):
        sim = Simulator()
        channel = ControlChannel(
            sim, network_delay=ScriptedDelay([1.0, 0.1]), rng=random.Random(0)
        )
        times = {}
        channel.send(lambda: times.setdefault("a", sim.now), key=("to", "v1"))
        delay = channel.send(lambda: times.setdefault("b", sim.now), key=("to", "v1"))
        sim.run(until=5.0)
        # The 0.1 s sample is stretched to the stream front at t=1.0.
        assert delay == pytest.approx(1.0)
        assert times["b"] == pytest.approx(times["a"])

    def test_distinct_keys_stay_independent(self):
        sim = Simulator()
        channel = ControlChannel(
            sim, network_delay=ScriptedDelay([1.0, 0.1]), rng=random.Random(0)
        )
        order = []
        channel.send(lambda: order.append("v1"), key=("to", "v1"))
        channel.send(lambda: order.append("v2"), key=("to", "v2"))
        sim.run(until=5.0)
        assert order == ["v2", "v1"]

    def test_keyless_send_keeps_independent_latencies(self):
        sim = Simulator()
        channel = ControlChannel(
            sim, network_delay=ScriptedDelay([1.0, 0.1]), rng=random.Random(0)
        )
        order = []
        channel.send(lambda: order.append("first"))
        channel.send(lambda: order.append("second"))
        sim.run(until=5.0)
        assert order == ["second", "first"]


class TestStreamFloorPruning:
    """Regression: ``_last_delivery`` must not grow without bound.

    A long-running service sends on thousands of short-lived streams;
    before the fix every stream key lived in ``_last_delivery`` forever.
    Entries whose floor is in the simulator's past can never constrain a
    future arrival, so sends prune them -- and pruning must not change
    any delivery time.
    """

    def test_past_floors_are_pruned_as_clock_advances(self):
        sim = Simulator()
        channel = ControlChannel(
            sim, network_delay=ConstantDelayModel(0.5), rng=random.Random(0)
        )
        for i in range(100):
            channel.send(lambda: None, key=("to", f"v{i}"))
        assert len(channel._last_delivery) == 100
        sim.run(until=10.0)  # every floor (0.5) is now in the past
        channel.send(lambda: None, key=("to", "fresh"))
        assert set(channel._last_delivery) == {("to", "fresh")}

    def test_live_floors_survive_pruning(self):
        sim = Simulator()
        channel = ControlChannel(
            sim, network_delay=ScriptedDelay([5.0, 0.5, 0.5]), rng=random.Random(0)
        )
        channel.send(lambda: None, key=("to", "slow"))  # floor at t=5.0
        sim.run(until=1.0)
        channel.send(lambda: None, key=("to", "quick"))  # floor at t=1.5
        assert ("to", "slow") in channel._last_delivery
        sim.run(until=2.0)  # quick's floor passes, slow's does not
        channel.send(lambda: None, key=("to", "other"))
        assert ("to", "slow") in channel._last_delivery
        assert ("to", "quick") not in channel._last_delivery

    def test_pruning_preserves_fifo_semantics(self):
        """A stream pruned and reused behaves like a fresh connection."""
        sim = Simulator()
        channel = ControlChannel(
            sim, network_delay=ScriptedDelay([2.0, 0.1]), rng=random.Random(0)
        )
        times = {}
        channel.send(lambda: times.setdefault("a", sim.now), key=("to", "v1"))
        sim.run(until=10.0)
        # The old floor (t=2.0) is long past: the reused key must get its
        # sampled latency, not be dragged behind the dead stream.
        delay = channel.send(lambda: times.setdefault("b", sim.now), key=("to", "v1"))
        sim.run(until=20.0)
        assert delay == pytest.approx(0.1)
        assert times["b"] == pytest.approx(10.1)

    def test_reset_clears_all_floors(self):
        sim = Simulator()
        channel = ControlChannel(
            sim, network_delay=ScriptedDelay([3.0, 0.2]), rng=random.Random(0)
        )
        channel.send(lambda: None, key=("to", "v1"))
        assert channel._last_delivery
        channel.reset()
        assert channel._last_delivery == {}
        # Post-reset the stream is a fresh connection even though the old
        # floor (t=3.0) has not passed yet.
        delay = channel.send(lambda: None, key=("to", "v1"))
        assert delay == pytest.approx(0.2)


class TestRoundUpdateRegression:
    """The executor-level symptom the FIFO streams exist to prevent."""

    @pytest.mark.parametrize("seed", MISSING_AT_FINISH_SEEDS + INVERTED_ROUND_SEEDS)
    def test_fifo_channel_keeps_rounds_consistent(self, seed):
        schedule, snapshot, trace = run_rounds(seed, ControlChannel)
        assert round_violations(schedule, snapshot) == []
        assert trace.total_retries == 0

    @pytest.mark.parametrize("seed", MISSING_AT_FINISH_SEEDS + INVERTED_ROUND_SEEDS)
    def test_keyless_barrier_overtake_is_caught(self, seed):
        """The reply arrives with the FlowMod still in flight.  No timer
        can fire (``RETRY_TIMEOUT``), so the resend proves the overtake --
        and it is what keeps the rounds consistent regardless."""
        schedule, snapshot, trace = run_rounds(seed, KeylessChannel)
        assert trace.total_retries >= 1
        assert round_violations(schedule, snapshot) == []
