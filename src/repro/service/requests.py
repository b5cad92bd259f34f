"""Update requests and their lifecycle state.

A request is an *intent* -- "move tenant ``p3``'s flow onto its detour
path" -- not a concrete :class:`~repro.core.instance.UpdateInstance`.
The service rebases the intent against the tenant's live rule state at
planning time, so a rejected or superseded earlier request can never
corrupt a later one.

Lifecycle::

    pending -> admitted  -> planning -> executing -> completed | aborted
            -> queued    -> (admitted on release) | superseded
            -> rejected
    planning -> noop          (target already installed)

Terminal statuses: ``completed``, ``superseded``, ``noop``,
``rejected``, ``aborted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.trace.recorder import NULL_SPAN

#: Terminal request statuses.
TERMINAL = frozenset({"completed", "superseded", "noop", "rejected", "aborted"})


@dataclass(frozen=True)
class UpdateRequest:
    """One immutable tenant intent in the arrival stream."""

    id: int
    tenant: str
    arrival: float
    target: str  # "a" | "b" -- which of the tenant's two paths to install


@dataclass
class RequestState:
    """Mutable per-request bookkeeping owned by the service."""

    request: UpdateRequest
    status: str = "pending"
    admitted_at: Optional[float] = None
    planned_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    batch: Optional[int] = None
    makespan: Optional[float] = None
    switches: Optional[int] = None
    conformant: Optional[bool] = None
    #: The request's ``service.request`` span, submit to terminal status
    #: (the shared no-op while tracing is off).
    span: object = field(default=NULL_SPAN, repr=False, compare=False)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL

    @property
    def latency(self) -> Optional[float]:
        """Arrival-to-terminal virtual latency (None until terminal)."""
        if self.finished_at is None:
            return None
        return round(self.finished_at - self.request.arrival, 9)

    def to_record(self) -> Dict[str, object]:
        """A canonical, deterministic dict for pipeline records."""
        return {
            "id": self.request.id,
            "tenant": self.request.tenant,
            "target": self.request.target,
            "arrival": round(self.request.arrival, 6),
            "status": self.status,
            "batch": self.batch,
            "latency": self.latency,
            "makespan": self.makespan,
            "switches": self.switches,
            "conformant": self.conformant,
        }
