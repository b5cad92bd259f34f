"""The planner registry: every update scheme behind one first-class seam.

Historically the four schemes (``chronus``/``or``/``tp``/``opt``) were
dispatched by literal-string if-chains duplicated across the sweep, the
figure scenarios, the faults ablation, the validation gate, serialization
and the update service -- adding a fifth scheme meant editing ~15 files.
This module replaces all of that with a process-global, exact-name
registry of :class:`Planner` entries:

* :meth:`Planner.plan` is the only way to obtain a plan and its return
  value, :class:`UpdatePlan`, the only plan type (wrapped in a trace span
  carrying the scheme name);
* capability flags (``two_phase``, ``exact``, ``supports_budget``,
  ``claims_consistency``) and the ``executor`` strategy replace every
  name comparison downstream -- the verify adapter picks
  ``verify_schedule`` vs ``verify_two_phase`` from ``two_phase``, the
  gate's install skew and the differential replay pick their execution
  strategy from ``executor``, Fig. 10 decides proven-gated aggregation
  from ``exact``, the gate and the plan document decide whether a plan
  asserts transient consistency from ``claims_consistency``;
* ``sweep_order`` pins the registry loop to the legacy if-chain order
  (chronus -> opt -> or), which keeps the shared per-instance RNG stream
  -- and therefore every pinned record -- byte-identical.

Planners register themselves at import time from their own
``repro.updates`` modules (:func:`register_planner`); lookups are by
**exact** name and unknown names raise :class:`UnknownSchemeError`
listing the registered planners.  Adding a scheme is one new module with
one class: subclass :class:`Planner`, implement ``_plan``, call
``register_planner`` -- every sweep, scenario, gate and serializer picks
it up.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.greedy import GreedyResult, greedy_schedule
from repro.core.instance import UpdateInstance
from repro.core.schedule import UpdateSchedule
from repro.network.graph import Node
from repro.trace.recorder import NULL_SPAN, recorder
from repro.updates.base import RuleAccounting, rule_accounting

#: Execution strategies: the values of ``Planner.executor``, dispatched on
#: by :func:`repro.controller.resilient.execute_plan` and nowhere else.
TIMED = "timed"
ROUNDS = "rounds"
TWO_PHASE = "two-phase"

#: The sweep's default scheme set -- the trio every figure aggregates.
DEFAULT_SCHEMES = ("chronus", "or", "opt")


class UnknownSchemeError(ValueError):
    """An unregistered scheme name, with the registered names attached."""

    def __init__(self, name: str, valid: Sequence[str]):
        self.name = name
        self.valid = list(valid)
        super().__init__(
            f"unknown scheme {name!r}; registered planners: "
            f"{', '.join(self.valid)}"
        )


class DuplicateSchemeError(ValueError):
    """A second, different planner class claimed an already-taken name."""


@dataclass(frozen=True)
class UpdatePlan:
    """A planner's complete answer for one update instance.

    Attributes:
        scheme: The planner's registry name.
        schedule: The switch update times the scheme is *measured* on.  For
            round-executed schemes these are the realised asynchronous
            times of one execution (see ``nominal``).
        feasible: ``False`` means the outcome counts as a congestion case
            regardless of measured metrics (OPT's best-effort fallback,
            Chronus stalling, AUG congesting the true capacities within
            its headroom).  Planners that make no consistency claim
            (``Planner.claims_consistency`` is false: OR) report ``True``
            and are judged by their metrics alone.
        notes: Free-form diagnostic remarks.
        instance: The instance the plan was computed for (lets downstream
            consumers verify, replay or account the plan without
            re-threading it); ``None`` on a parsed document.
        nominal: Round-executed schemes only: the round partition as a
            schedule, one time step per round -- what the controller is
            handed and the barriers stretch into ``schedule``.
        proven: Exact searches: the search ran to completion, so the plan
            is the optimum (or infeasibility is proven).  Heuristics are
            always "proven".
        elapsed: Exact searches: the solver's own wall-clock seconds --
            without the incumbent's greedy run when the plan took it from
            a ``shared`` evaluation (a plain ``plan(instance)`` runs and
            counts its own seed, which is what Fig. 10 times).
        recorded_rounds: Rounds that are not the time-grouping of the
            dispatched schedule (two-phase: the install phase, then the
            ingress flip), or the ones a parsed document stated.
        recorded_rules: The rule accounting a parsed document stated (a
            document has no instance to derive it from).
    """

    scheme: str
    schedule: UpdateSchedule
    feasible: bool = True
    notes: str = ""
    instance: Optional[UpdateInstance] = field(default=None, compare=False, repr=False)
    nominal: Optional[UpdateSchedule] = None
    proven: bool = True
    elapsed: float = field(default=0.0, compare=False)
    recorded_rounds: Optional[Sequence[Tuple[int, Tuple[Node, ...]]]] = None
    recorded_rules: Optional[RuleAccounting] = None

    @property
    def planner(self) -> Optional["Planner"]:
        """The registered planner of ``scheme`` (``None`` if unregistered)."""
        return find_planner(self.scheme)

    @property
    def dispatched(self) -> UpdateSchedule:
        """The schedule the controller is handed: ``nominal`` for
        round-executed schemes, ``schedule`` itself otherwise.  This is what
        the gate verifies, the replays execute and the document stores."""
        return self.schedule if self.nominal is None else self.nominal

    @property
    def claims_consistency(self) -> bool:
        """Does the plan assert a congestion- and loop-free transition?"""
        planner = self.planner
        return self.feasible and (planner is None or planner.claims_consistency)

    @property
    def rounds(self) -> Sequence[Tuple[int, Tuple[Node, ...]]]:
        """Controller interaction rounds ``(time, switches)``."""
        if self.recorded_rounds is not None:
            return self.recorded_rounds
        return self.dispatched.rounds()

    @property
    def rules(self) -> RuleAccounting:
        """Rule-operation accounting, derived from the instance on read."""
        if self.recorded_rules is not None:
            return self.recorded_rules
        if self.instance is None:
            raise ValueError("a plan without its instance has no rule accounting")
        planner = self.planner
        return rule_accounting(self.instance, planner is not None and planner.two_phase)

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def makespan(self) -> int:
        return self.schedule.makespan


@dataclass(frozen=True)
class SchemeMetrics:
    """Metrics surface for planners measured outside the interval tracker.

    Mirrors the attributes of
    :class:`repro.analysis.metrics.ScheduleMetrics` that the sweep and
    the conformance check read, so two-phase plans (judged by the exact
    overtaking-span formula, not the tracker) flow through the same
    registry loop.
    """

    makespan: int
    congested_timed_links: int
    blackhole_events: int
    congestion_free: bool
    loop_free: bool


class Planner(abc.ABC):
    """One registered update scheme: planning, measurement, verification.

    Class attributes (the capability surface downstream code dispatches
    on -- never compare scheme names):

    Attributes:
        name: Exact registry name.
        title: One-line human description (docs, ``available_schemes``).
        sweep_order: Position in the shared sweep's registry loop.  The
            legacy if-chain evaluated chronus -> opt -> or in fixed code
            order while sharing one RNG; preserving that order preserves
            the RNG stream and keeps pinned records byte-identical.
        two_phase: Plans describe versioned rule installs plus an ingress
            flip; verified by ``verify_two_phase`` and measured by the
            overtaking-span formula instead of the interval tracker.
        exact: The planner is an anytime exact search -- it reports a
            ``proven`` flag and Fig. 10 aggregates it cutoff-gated.
        supports_budget: Accepts ``time_budget=`` / ``node_budget=``.
        claims_consistency: A feasible plan of this scheme asserts a
            congestion- and loop-free transition, which the gate holds it
            to.  False for capacity-oblivious schemes (OR): their plans
            are judged by measured metrics alone and their documents say
            ``"feasible": false``.
        executor: Execution strategy (``"timed"``/``"rounds"``/
            ``"two-phase"``) for the differential replay, the gate's
            install skew and the fault-injection runner.
    """

    name: str = "abstract"
    title: str = ""
    sweep_order: int = 99
    two_phase: bool = False
    exact: bool = False
    supports_budget: bool = False
    claims_consistency: bool = True
    executor: str = TIMED

    # -- planning ------------------------------------------------------

    def plan(self, instance: UpdateInstance, **options) -> UpdatePlan:
        """Plan ``instance``, wrapped in a trace span tagged with the scheme.

        Keyword options (``rng``, ``background``, ``time_budget``,
        ``node_budget``, ``shared``, ...) are forwarded to the
        scheme's :meth:`_plan`; each planner consumes what it supports
        and ignores the rest.  ``shared`` is the caller's
        :class:`SharedEvaluation` of this very instance: a planner may
        take an answer from it instead of computing it, never a different
        answer.
        """
        with recorder.span("plan", {"scheme": self.name}) as span:
            result = self._plan(instance, **options)
            span.set(feasible=result.feasible, makespan=result.schedule.makespan)
        return result

    @abc.abstractmethod
    def _plan(
        self,
        instance: UpdateInstance,
        *,
        rng: Optional[random.Random] = None,
        background=None,
        t0: int = 0,
        **options,
    ) -> UpdatePlan:
        """Scheme-specific planning (no tracing concerns)."""

    def sweep_options(self, params: Mapping[str, object]) -> Dict[str, object]:
        """Extract this planner's knobs from a flat sweep-parameter mapping.

        Convention: sweep parameters are prefixed with the scheme name
        (``opt_budget``, ``or_skew``, ``aug_epsilon``); each planner owns
        its prefix, so the sweep itself never names a scheme.
        """
        return {}

    # -- measurement and verification ----------------------------------

    def measure(self, instance: UpdateInstance, result: UpdatePlan):
        """Consistency metrics of ``result`` on the *true* instance."""
        from repro.analysis.metrics import evaluate_schedule

        return evaluate_schedule(instance, result.schedule)

    def verify(self, instance: UpdateInstance, schedule: UpdateSchedule, *, background=None):
        """Independent verdict under the scheme's own semantics.

        The registry-wide verify adapter: two-phase planners override
        this to route through ``verify_two_phase``; everything else means
        exactly what ``verify_schedule`` checks.
        """
        from repro.validate.verifier import verify_schedule

        return verify_schedule(instance, schedule, background=background)

    def conformance(self, instance: UpdateInstance, result: UpdatePlan, metrics) -> bool:
        """Does the independent verifier reproduce the measured numbers?

        Compares the quantities the figures aggregate: congestion
        freedom, the congested time-extended link count, and loop/drop
        freedom.  (Loop and black-hole *event counts* are representation
        dependent, so only their emptiness is comparable.)
        """
        verdict = self.verify(instance, result.schedule)
        return (
            verdict.congestion_free == metrics.congestion_free
            and verdict.congested_timed_links == metrics.congested_timed_links
            and verdict.loop_free == metrics.loop_free
            and verdict.drop_free == (metrics.blackhole_events == 0)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


# -- what one sweep item shares ----------------------------------------


class SharedEvaluation:
    """One instance's answers, each computed once (DESIGN.md §15.1).

    The sweep evaluates every scheme on the same instance; three of the
    questions it asks are pure functions of ``(instance, schedule)`` that
    several schemes ask identically -- the default greedy schedule
    (Chronus' plan *is* OPT's incumbent), a schedule's metrics and its
    conformance verdict (OPT mostly returns the incumbent unchanged).
    This object answers each once.  Its owner creates it for one
    evaluation of one instance and drops it afterwards
    (:func:`repro.experiments.sweep.run_instance`); nothing is kept on the
    instance, a planner or a module, so a plain ``planner.plan(instance)``
    does all of its own work every time.

    Metrics and verdicts are keyed by the schedule *and* by the planner's
    ``measure`` / ``verify`` / ``conformance`` implementations: two-phase
    plans are judged by their own formulas and never take a tracker
    answer.  The schedule key keeps the insertion order of ``times`` --
    exactly what the replay and the verifier read.
    """

    __slots__ = ("instance", "_greedy", "_metrics", "_agrees")

    def __init__(self, instance: UpdateInstance) -> None:
        self.instance = instance
        self._greedy: Dict[int, GreedyResult] = {}
        self._metrics: Dict[tuple, object] = {}
        self._agrees: Dict[tuple, bool] = {}

    def greedy(self, t0: int = 0, timer: Optional[str] = None) -> GreedyResult:
        """``greedy_schedule(instance, t0=t0)``, run by whoever asks first.

        ``timer`` names the aggregate the run is timed under when this call
        is the one that runs it (OPT's ``opt.seed``).
        """
        result = self._greedy.get(t0)
        if result is not None:
            recorder.count("sweep.incumbent.reused")
            return result
        with recorder.timer(timer) if timer else NULL_SPAN:
            result = self._greedy[t0] = greedy_schedule(self.instance, t0=t0)
        return result

    def metrics(self, planner: "Planner", result: UpdatePlan):
        """``planner.measure(instance, result)``, once per distinct schedule."""
        key = (type(planner).measure, *_schedule_key(result.schedule))
        metrics = self._metrics.get(key)
        if metrics is not None:
            recorder.count("sweep.judged.reused")
            return metrics
        recorder.count("sweep.judged.fresh")
        with recorder.timer("analysis.metrics.measure") as timed:
            timed.set(scheme=planner.name)
            metrics = self._metrics[key] = planner.measure(self.instance, result)
        return metrics

    def agrees(self, planner: "Planner", result: UpdatePlan, metrics) -> bool:
        """``planner.conformance(instance, result, metrics)`` for ``metrics``
        from :meth:`metrics`, once per distinct schedule."""
        kind = type(planner)
        key = (
            kind.measure,
            kind.verify,
            kind.conformance,
            *_schedule_key(result.schedule),
        )
        agrees = self._agrees.get(key)
        if agrees is None:
            with recorder.timer("validate.verifier.verify") as timed:
                timed.set(scheme=planner.name)
                agrees = self._agrees[key] = planner.conformance(
                    self.instance, result, metrics
                )
        return agrees


def _schedule_key(schedule: UpdateSchedule) -> tuple:
    """What a replay or a verifier reads of a schedule, hashable: ``t0`` and
    the update times in insertion order (``rounds()`` keeps it)."""
    return schedule.t0, tuple(schedule.times.items())


# -- the process-global registry ---------------------------------------

_REGISTRY: Dict[str, Planner] = {}
_LOADED = False


def register_planner(planner: Planner) -> Planner:
    """Register a planner under its exact name.

    Re-registering the *same* planner class (module reload) is allowed;
    a different class claiming a taken name raises
    :class:`DuplicateSchemeError` -- name collisions between schemes are
    always bugs.
    """
    existing = _REGISTRY.get(planner.name)
    if existing is not None and type(existing).__qualname__ != type(planner).__qualname__:
        raise DuplicateSchemeError(
            f"scheme {planner.name!r} is already registered by "
            f"{type(existing).__name__}; pick a distinct name"
        )
    _REGISTRY[planner.name] = planner
    return planner


def _ensure_loaded() -> None:
    """Populate the registry by importing the planner modules."""
    global _LOADED
    if not _LOADED:
        _LOADED = True
        import repro.updates  # noqa: F401  (registration side effect)


def available_schemes() -> Tuple[str, ...]:
    """Every registered scheme name, sorted."""
    _ensure_loaded()
    return tuple(sorted(_REGISTRY))


def get_planner(name: str) -> Planner:
    """Exact-name lookup; unknown names list the registered planners."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSchemeError(name, sorted(_REGISTRY)) from None


def find_planner(name: str) -> Optional[Planner]:
    """Like :func:`get_planner` but ``None`` for unknown names."""
    _ensure_loaded()
    return _REGISTRY.get(name)


def planners_for(schemes: Sequence[str]) -> List[Planner]:
    """Resolve a scheme-name sequence, preserving the caller's order.

    Raises:
        UnknownSchemeError: on the first unregistered name -- the
            fail-fast every scenario and the CLI validate with.
    """
    return [get_planner(name) for name in schemes]


def sweep_planners(schemes: Sequence[str]) -> List[Planner]:
    """Resolve scheme names in the sweep's evaluation order.

    Sorted by ``sweep_order`` so the registry loop consumes the shared
    per-instance RNG exactly as the legacy if-chain did, regardless of
    the order the caller listed the schemes in.
    """
    return sorted(planners_for(schemes), key=lambda p: (p.sweep_order, p.name))
