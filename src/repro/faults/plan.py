"""Deterministic fault plans for the control plane.

Chronus's guarantees are proved over a perfect control network, but the
Time4 substrate it leans on only promises *bounded* inaccuracy (Mizrahi &
Moses, "Time4: Time for SDN"): clock sync has an error bound, switches have
latency tails, and the control channel is a real network.  A
:class:`FaultPlan` makes every one of those degradations injectable and --
crucially -- deterministic from a seed, so a run that violates consistency
reproduces bit-for-bit.

Fault axes (all off by default):

* **Message loss / duplication** -- control messages (both directions)
  vanish or are delivered twice; see :class:`repro.faults.FaultyChannel`.
* **Apply failure** -- a switch processes a FlowMod but the install fails
  (OpenFlow's ``OFPT_ERROR`` path): no table change, barriers proceed.
* **Crash-stop** -- a switch agent dies at a drawn instant and never
  processes another message (barriers go unanswered forever).
* **Stragglers** -- a subset of switches multiply their rule-installation
  latency, modelling the heavy tail beyond the Dionysus data.
* **Clock drift** -- per-switch clock offsets beyond the advertised sync
  bound, directly skewing Time4 scheduled execution.

Per-switch fates (crashed? straggler? drift offset?) hash the switch *name*
into the seed, so they do not depend on wiring order; message-level draws
consume a dedicated stream in send order, which the simulator makes
deterministic.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

#: Stream separators so the per-purpose RNGs never share a sequence.
_MESSAGE_STREAM = 0x6D65_7373
_SWITCH_STREAM = 0x7357_6974


@dataclass(frozen=True)
class FaultSpec:
    """The knobs of one fault model (all probabilities per message/switch).

    Attributes:
        drop_rate: Probability a control message is lost in transit.
        duplicate_rate: Probability a delivered message arrives twice.
        apply_failure_rate: Probability one FlowMod install fails on the
            switch (the message still counts as processed).
        crash_rate: Probability a switch crash-stops during the run.
        crash_window: True-time interval the crash instant is drawn from.
        straggler_rate: Probability a switch is a straggler.
        straggler_factor: Installation-latency multiplier of stragglers.
        drift_rate: Probability a switch's clock drifts beyond the sync
            bound.
        drift_bound: Magnitude bound (seconds) of the extra offset.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    apply_failure_rate: float = 0.0
    crash_rate: float = 0.0
    crash_window: Tuple[float, float] = (0.0, 30.0)
    straggler_rate: float = 0.0
    straggler_factor: float = 8.0
    drift_rate: float = 0.0
    drift_bound: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "drop_rate",
            "duplicate_rate",
            "apply_failure_rate",
            "crash_rate",
            "straggler_rate",
            "drift_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.crash_window[0] > self.crash_window[1]:
            raise ValueError("crash_window must be a (lo, hi) interval")

    def scaled(self, severity: float) -> "FaultSpec":
        """The same fault mix with every probability scaled by ``severity``.

        Magnitudes (straggler factor, drift bound, crash window) are left
        alone -- severity moves *how often* faults fire, not their size --
        and scaled probabilities are clamped to 1.
        """
        if severity < 0:
            raise ValueError("severity must be non-negative")

        def clamp(p: float) -> float:
            return min(1.0, p * severity)

        return replace(
            self,
            drop_rate=clamp(self.drop_rate),
            duplicate_rate=clamp(self.duplicate_rate),
            apply_failure_rate=clamp(self.apply_failure_rate),
            crash_rate=clamp(self.crash_rate),
            straggler_rate=clamp(self.straggler_rate),
            drift_rate=clamp(self.drift_rate),
        )


def severity_spec(
    severity: float,
    crash_window: Tuple[float, float] = (0.0, 30.0),
    drift_bound: float = 0.0,
) -> FaultSpec:
    """The canonical ablation axis: one scalar degrading every channel.

    At severity 1 roughly one in five messages is lost, one in ten
    duplicated, one in ten installs fails, and one in twenty switches
    straggles; crash-stop stays rarer (one in forty) because a single crash
    usually ends the run.  ``severity 0`` is the perfect network.
    """
    base = FaultSpec(
        drop_rate=0.20,
        duplicate_rate=0.10,
        apply_failure_rate=0.10,
        crash_rate=0.025,
        crash_window=crash_window,
        straggler_rate=0.05,
        straggler_factor=8.0,
        drift_rate=0.25 if drift_bound > 0 else 0.0,
        drift_bound=drift_bound,
    )
    return base.scaled(severity)


@dataclass
class FaultStats:
    """What the plan actually did to one run."""

    dropped: int = 0
    duplicated: int = 0
    apply_failures: int = 0
    crashed: List[str] = field(default_factory=list)
    stragglers: List[str] = field(default_factory=list)
    drifted: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"dropped={self.dropped} duplicated={self.duplicated} "
            f"apply_failures={self.apply_failures} "
            f"crashed={sorted(self.crashed)} stragglers={sorted(self.stragglers)} "
            f"drifted={sorted(self.drifted)}"
        )


class SwitchFaultState:
    """One switch's drawn fate plus its live fault draws.

    Duck-typed against :class:`repro.controller.controller.ManagedSwitch`'s
    ``faults`` hook: the switch asks ``crashed(now)`` before processing any
    message, ``apply_fails()`` at each install, and ``stretch_install``
    around each drawn latency.
    """

    def __init__(self, name: str, spec: FaultSpec, seed: int, stats: FaultStats) -> None:
        self.name = name
        self.spec = spec
        self._stats = stats
        rng = random.Random(seed)
        self.crashed_at: Optional[float] = None
        if rng.random() < spec.crash_rate:
            self.crashed_at = rng.uniform(*spec.crash_window)
            stats.crashed.append(name)
        self.install_factor = 1.0
        if rng.random() < spec.straggler_rate:
            self.install_factor = spec.straggler_factor
            stats.stragglers.append(name)
        self.drift = 0.0
        if rng.random() < spec.drift_rate and spec.drift_bound > 0:
            magnitude = rng.uniform(0.25, 1.0) * spec.drift_bound
            self.drift = magnitude if rng.random() < 0.5 else -magnitude
            stats.drifted.append(name)
        self._apply_rng = random.Random(seed ^ 0x5A5A5A5A)

    def crashed(self, now: float) -> bool:
        return self.crashed_at is not None and now >= self.crashed_at

    def apply_fails(self) -> bool:
        if self.spec.apply_failure_rate <= 0.0:
            return False
        failed = self._apply_rng.random() < self.spec.apply_failure_rate
        if failed:
            self._stats.apply_failures += 1
        return failed

    def stretch_install(self, latency: float) -> float:
        return latency * self.install_factor


class FaultPlan:
    """All fault state of one run, derived from ``(spec, seed)`` alone.

    Usage::

        plan = FaultPlan(severity_spec(0.5), seed=7)
        channel = FaultyChannel(sim, plan, ...)
        controller = Controller(sim, channel, clocks)
        ...controller.manage(every switch)...
        plan.wire(controller)   # attach per-switch fates + drifted clocks
    """

    def __init__(self, spec: FaultSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self.stats = FaultStats()
        self._message_rng = random.Random(seed ^ _MESSAGE_STREAM)
        self._states: Dict[str, SwitchFaultState] = {}

    # ------------------------------------------------------------------
    # channel-level draws (consumed by FaultyChannel, in send order)
    # ------------------------------------------------------------------
    def drop_message(self) -> bool:
        if self.spec.drop_rate <= 0.0:
            return False
        dropped = self._message_rng.random() < self.spec.drop_rate
        if dropped:
            self.stats.dropped += 1
        return dropped

    def duplicate_message(self) -> bool:
        if self.spec.duplicate_rate <= 0.0:
            return False
        duplicated = self._message_rng.random() < self.spec.duplicate_rate
        if duplicated:
            self.stats.duplicated += 1
        return duplicated

    # ------------------------------------------------------------------
    # switch-level fates
    # ------------------------------------------------------------------
    def switch_state(self, name: str) -> SwitchFaultState:
        """The (memoised) fault state of one switch, stable in ``name``."""
        state = self._states.get(name)
        if state is None:
            per_switch = self.seed ^ _SWITCH_STREAM ^ zlib.crc32(name.encode())
            state = SwitchFaultState(name, self.spec, per_switch, self.stats)
            self._states[name] = state
        return state

    def wire(self, controller) -> None:
        """Attach fault state (and clock drift) to every managed switch."""
        from repro.controller.clock import SwitchClock

        for name in controller.switch_names:
            managed = controller.managed(name)
            state = self.switch_state(name)
            managed.faults = state
            if state.drift:
                managed.clock = SwitchClock(offset=managed.clock.offset + state.drift)
