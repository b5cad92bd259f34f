"""The asynchronous controller-to-switch channel.

Rule updates "traverse an asynchronous network and may arrive out-of-order"
*across switches*; each individual controller<->switch connection is a TCP
stream, so messages to (and from) one switch are delivered in the order
they were sent -- the in-order semantics OpenFlow barriers rely on.
Moreover, switches take wildly varying times to *apply* a FlowMod once it
arrives (Dionysus measured medians around 50 ms with tails beyond a
second).  The channel composes a per-message network latency with a
per-switch rule-installation latency, both drawn from pluggable delay
models, and enforces per-connection FIFO delivery: a message sampling a
short latency still arrives no earlier than the previously sent message on
the same connection.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional

from repro.simulator.engine import Simulator


class DelayModel:
    """Interface: draw one latency in seconds."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDelayModel(DelayModel):
    """Always ``value`` seconds."""

    value: float = 0.001

    def sample(self, rng: random.Random) -> float:
        return self.value


@dataclass(frozen=True)
class DionysusDelayModel(DelayModel):
    """Log-normal rule-installation latency fit to the Dionysus data.

    The paper simulates per-round switch asynchrony with "a random number
    from the data of [9]" (Jin et al., SIGCOMM'14), whose measurements show
    a ~50 ms median with a long tail reaching past one second.  A log-normal
    with ``median`` and ``sigma`` reproduces that shape; samples are capped
    to keep single outliers from dominating short experiments.
    """

    median: float = 0.050
    sigma: float = 1.0
    cap: float = 2.0

    def sample(self, rng: random.Random) -> float:
        value = self.median * math.exp(self.sigma * rng.gauss(0.0, 1.0))
        return min(value, self.cap)


@dataclass(frozen=True)
class StepDelayModel(DelayModel):
    """Latency of 0..``max_steps`` whole time steps of ``time_unit`` seconds.

    Keeps realised update times on the analytic integer grid, so a schedule
    can be read back exactly from an execution trace (the differential
    replay and the faults ablation both rely on this) while still
    exercising asynchronous within-round skew.
    """

    time_unit: float
    max_steps: int

    def sample(self, rng: random.Random) -> float:
        if self.max_steps <= 0:
            return 0.0
        return rng.randint(0, self.max_steps) * self.time_unit


class ControlChannel:
    """Delivers control messages with network + installation latency.

    Args:
        sim: The simulator.
        network_delay: Latency of the control network per message.
        install_delay: Per-FlowMod switch processing latency.
        rng: Random source (deterministic experiments pass a seeded one).
    """

    def __init__(
        self,
        sim: Simulator,
        network_delay: Optional[DelayModel] = None,
        install_delay: Optional[DelayModel] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._sim = sim
        self.network_delay = network_delay or ConstantDelayModel(0.001)
        self.install_delay = install_delay or DionysusDelayModel()
        self._rng = rng if rng is not None else random.Random()
        self._last_delivery: Dict[Hashable, float] = {}
        self._pruned_at: Optional[float] = None  # instant of the last prune

    def send(self, deliver: Callable[[], None], key: Optional[Hashable] = None) -> float:
        """Deliver a message after network latency; returns the delay until delivery.

        Args:
            deliver: Called when the message arrives.
            key: FIFO stream identity (one per TCP connection direction,
                e.g. ``("to", switch)``).  Messages sharing a key never
                overtake each other: each is delivered at
                ``max(sampled arrival, last delivery on that stream)``.
                ``None`` keeps the legacy independent-latency behaviour.
        """
        latency = self.network_delay.sample(self._rng)
        arrival = self._sim.now + latency
        if key is not None:
            self._prune()
            arrival = max(arrival, self._last_delivery.get(key, arrival))
            self._last_delivery[key] = arrival
        self._sim.schedule_at(arrival, deliver)
        return arrival - self._sim.now

    def _prune(self) -> None:
        """Forget streams whose FIFO floor lies in the simulator's past.

        A floor at or before ``now`` can never constrain a future message
        (every sampled arrival is already ``>= now``), so dropping those
        entries is behaviour-preserving.  Without this, a long-running
        service leaks one entry per stream ever used -- and a stream key
        reused after a quiet spell would be ordered behind traffic that
        drained ages ago.  Since a kept stale floor only costs memory, one
        scan per simulated instant is enough.
        """
        now = self._sim.now
        if now == self._pruned_at:
            return
        self._pruned_at = now
        stale = [key for key, floor in self._last_delivery.items() if floor <= now]
        for key in stale:
            del self._last_delivery[key]

    def reset(self) -> None:
        """Drop all per-stream FIFO floors (e.g. on a topology change).

        Pending deliveries already handed to the simulator are not
        recalled; only the ordering floors for *future* sends are
        cleared, as if every stream were a fresh connection.
        """
        self._last_delivery.clear()
        self._pruned_at = None

    def draw_install_latency(self) -> float:
        """One switch-side rule-installation latency."""
        return self.install_delay.sample(self._rng)
