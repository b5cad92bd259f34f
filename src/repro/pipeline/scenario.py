"""Declarative scenarios and the exact-name registry.

A :class:`Scenario` is the whole of one experiment, stated declaratively:

* ``defaults`` -- the parameter grid (network sizes, instance counts,
  budgets, seeds) at laptop scale;
* ``items(params)`` -- the deterministic expansion of that grid into
  self-contained work items, each carrying a unique ``"key"``;
* ``evaluate(item, params, ctx)`` -- one item to one JSON-serialisable
  record (runs inside pool workers, so it must be a module-level
  function and derive all randomness from the item's seed);
* ``aggregate(records, params)`` -- records to a result object whose
  ``render()`` is the printed figure/table.  Aggregation never computes:
  it only reads records, so a stored run can be re-reported at will.

Scenarios register themselves at import time (each experiment module
calls :func:`register` on its own scenario); the registry is therefore
populated by importing the experiment modules, which the first
:func:`get_scenario` does.  Lookup is by **exact** name -- a typo
raises :class:`UnknownScenarioError` listing every valid name rather
than silently fuzzy-matching several experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

Items = Callable[[Mapping], Sequence[Mapping]]
Evaluate = Callable[[Mapping, Mapping, object], Mapping]
Aggregate = Callable[[Sequence[Mapping], Mapping], object]
Enough = Callable[[Sequence[Mapping], Mapping], bool]


class UnknownScenarioError(KeyError):
    """An unregistered scenario name, with the valid names attached."""

    def __init__(self, name: str, valid: Sequence[str]):
        self.name = name
        self.valid = list(valid)
        super().__init__(
            f"unknown scenario {name!r}; choose from: {', '.join(self.valid)}"
        )

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


@dataclass(frozen=True)
class Scenario:
    """One registered experiment (figure, table or ablation).

    Attributes:
        name: Exact registry name (``"fig7"``, ``"faults"``, ...).
        title: One-line human description.
        paper: The paper artifact it reproduces (``"Fig. 7"``), or what
            it extends (``"beyond the paper"``).
        description: What the records contain and how they aggregate.
        defaults: Laptop-scale parameters; every run starts from these.
        items: Grid expansion; every item is a JSON-serialisable mapping
            with a unique ``"key"`` string.
        evaluate: Item -> record (JSON-serialisable mapping); the record
            inherits the item's ``"key"`` if it does not set one.
        aggregate: Records -> result object with a ``render()`` method.
        paper_params: Overrides that restore the paper's original scale
            (``python -m repro.experiments run <name> --paper``).
        enough: Optional early-stop predicate over the records emitted so
            far; when it returns True the run completes without
            evaluating the remaining items (used by sample-until-N
            scenarios such as Fig. 11).  Checked in item order, so
            serial, parallel and resumed runs stop at the same record.
    """

    name: str
    title: str
    paper: str
    description: str
    defaults: Mapping[str, object]
    items: Items
    evaluate: Evaluate
    aggregate: Aggregate
    paper_params: Optional[Mapping[str, object]] = None
    enough: Optional[Enough] = None

    def params_with(
        self,
        overrides: Optional[Mapping[str, object]] = None,
        paper: bool = False,
    ) -> Dict[str, object]:
        """Materialise the run parameters: defaults < paper preset < overrides."""
        params: Dict[str, object] = dict(self.defaults)
        if paper:
            if self.paper_params is None:
                raise ValueError(
                    f"scenario {self.name!r} has no paper-scale preset"
                )
            params.update(self.paper_params)
        if overrides:
            unknown = set(overrides) - set(params)
            if unknown:
                raise ValueError(
                    f"unknown parameter(s) {sorted(unknown)} for scenario "
                    f"{self.name!r}; valid: {sorted(params)}"
                )
            params.update(overrides)
        return params


_REGISTRY: Dict[str, Scenario] = {}
_LOADED = False


def register(scenario: Scenario) -> Scenario:
    """Register (or re-register, e.g. on module reload) a scenario."""
    _REGISTRY[scenario.name] = scenario
    return scenario


def _ensure_loaded() -> None:
    """Populate the registry by importing the experiment modules, once."""
    global _LOADED
    if not _LOADED:
        from repro.experiments import load_all

        load_all()
        _LOADED = True


def scenario_names() -> List[str]:
    """Every registered scenario name, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def all_scenarios() -> List[Scenario]:
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_scenario(name: str) -> Scenario:
    """Exact-name lookup; unknown names list the valid ones."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name, sorted(_REGISTRY)) from None
