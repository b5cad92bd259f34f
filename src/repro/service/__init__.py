"""``repro.service``: the long-running Timed-SDN update service.

Chronus' batch entry points plan one update at a time; a real
controller is a *service* -- requests arrive continuously against one
shared live topology.  This package provides that loop: a deterministic
virtual-time asyncio runtime (:mod:`repro.service.vclock`), a
footprint-based admission controller with FIFO queueing and batch
merging (:mod:`repro.service.admission`), a multi-tenant workload
generator (:mod:`repro.service.workload`) and the service itself
(:mod:`repro.service.service`), which plans with the incremental greedy
engine, verifies with :mod:`repro.validate` and executes through the
resilient timed executor on a shared DES data plane.

The registered pipeline scenario lives in
:mod:`repro.experiments.service`; run it with::

    python -m repro.experiments run service

Every name below loads its module on first use (:mod:`repro.lazy`), so a
process that reads only :mod:`repro.service.metrics` -- the sweep does,
through the registered scenarios -- never imports asyncio.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "admission": ("AdmissionController", "Batch"),
        "requests": ("RequestState", "TERMINAL", "UpdateRequest"),
        "service": ("CellReport", "ServiceConfig", "UpdateService", "run_cell"),
        "vclock": ("VirtualTimeLoop", "run_virtual"),
        "workload": ("PodSpec", "ServiceWorkload", "build_workload"),
    },
)
