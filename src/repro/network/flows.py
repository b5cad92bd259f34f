"""Flow model.

A *dynamic flow* (Definition 1 in the paper, after Ford & Fulkerson) is a
constant-rate flow whose per-link utilisation varies over time as rules
change and in-flight traffic drains.  The static part -- who talks to whom
and at what rate -- is captured here; the temporal behaviour lives in
:mod:`repro.core.intervals` and :mod:`repro.validate.verifier`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.graph import Node


@dataclass(frozen=True)
class Flow:
    """A constant-rate traffic aggregate between two switches.

    Attributes:
        name: Identifier used in flow tables and reports.
        source: Ingress switch (``v+`` in the paper).
        destination: Egress switch (``v-`` in the paper).
        demand: Rate ``d`` in capacity units per time step; positive.
    """

    name: str
    source: Node
    destination: Node
    demand: float = 1.0

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ValueError("flow source and destination must differ")
        if self.demand <= 0:
            raise ValueError(f"flow demand must be positive, got {self.demand}")
