"""Multi-tenant service workloads: a shared topology plus a request stream.

The topology is a set of *pods* -- one tenant flow each -- living in one
shared :class:`~repro.network.graph.Network`.  Each pod has two
alternative paths between its endpoints (the chain ``path_a`` and a
seeded detour ``path_b``, mirroring
:func:`repro.network.topology.two_path_topology`), and every update
request is an intent to move the pod's flow onto one of them.

Pods are pairwise link-disjoint *except* for deliberate crossover edges:
pods ``2k`` and ``2k+1`` both route their detour through the shared
directed edge ``x{k}a -> x{k}b`` (provisioned at double capacity), so
concurrent detour updates of paired tenants genuinely conflict on a
link -- the case the admission controller and batch merging exist for.

Node names are namespaced (``p3s5``), so destination-prefix rule
matching on the shared data plane can never alias across tenants.

Each pod also carries its *footprint network*: the switches and links of
``path_a`` and ``path_b`` with the shared network's capacities and delays.
Every rule a tenant ever holds routes over one of those links, so an
intent is planned and verified on that network alone (DESIGN.md 14.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.network.graph import Network
from repro.service.requests import UpdateRequest

LinkKey = Tuple[str, str]


@dataclass(frozen=True)
class PodSpec:
    """One tenant: its two paths and the links any update can touch.

    ``network`` is the footprint as a :class:`Network` of its own (the
    shared network's capacities and delays), the one the tenant's intents
    are planned and verified on.
    """

    name: str
    source: str
    destination: str
    path_a: Tuple[str, ...]
    path_b: Tuple[str, ...]
    demand: float
    footprint: FrozenSet[LinkKey]
    network: Network = field(compare=False, repr=False)

    def path(self, target: str) -> Tuple[str, ...]:
        if target == "a":
            return self.path_a
        if target == "b":
            return self.path_b
        raise ValueError(f"unknown target {target!r}")


@dataclass
class ServiceWorkload:
    """A shared network, its pods, and the deterministic request stream."""

    network: Network
    pods: List[PodSpec]
    requests: List[UpdateRequest]

    @cached_property
    def pod_by_name(self) -> Dict[str, PodSpec]:
        """Pods by tenant name (``pods`` is fixed once the workload is built)."""
        return {pod.name: pod for pod in self.pods}


def _links_of(path: Sequence[str]) -> List[LinkKey]:
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


def build_workload(
    pods: int,
    pod_size: int,
    requests: int,
    mean_interarrival: float,
    seed: int,
    demand: float = 1.0,
    capacity: float = 2.0,
    delay: int = 1,
    share_links: bool = True,
) -> ServiceWorkload:
    """Build the shared topology and a seeded Poisson request stream.

    Args:
        pods: Number of tenants (each one flow, two paths).
        pod_size: Switches on each pod's chain path (``>= 4``).
        requests: Length of the request stream.
        mean_interarrival: Mean of the exponential inter-arrival gap
            (virtual seconds).
        seed: Master seed; every derived draw is a function of it.
        demand: Per-flow rate.
        capacity: Per-link capacity for private links; crossover edges
            get ``2 * capacity`` so paired tenants fit together.  Keep
            ``capacity >= 2 * demand``: a detour can share middle links
            with the chain, and during a move the flow's old and new
            traffic transiently coexist there -- with a single
            traffic-affecting switch no schedule can avoid that overlap,
            so tighter capacities make such intents genuinely
            infeasible (the service then aborts them, which is handled
            but not the default regime).
        delay: Integer link delay steps.
        share_links: Route paired pods' detours over a shared edge so
            cross-tenant conflicts actually occur.
    """
    if pod_size < 4:
        raise ValueError("pod_size must be >= 4 (need detour middle nodes)")
    rng = random.Random(seed)
    network = Network()
    pod_specs: List[PodSpec] = []

    if share_links:
        for k in range((pods + 1) // 2):
            head, tail = f"x{k}a", f"x{k}b"
            network.add_switch(head)
            network.add_switch(tail)
            network.add_link(head, tail, capacity=2.0 * capacity, delay=delay)

    for index in range(pods):
        chain = tuple(f"p{index}s{j}" for j in range(1, pod_size + 1))
        for node in chain:
            network.add_switch(node)
        for src, dst in _links_of(chain):
            network.add_link(src, dst, capacity=capacity, delay=delay)

        middle = list(chain[1:-1])
        crossover: Tuple[str, ...] = ()
        if share_links:
            k = index // 2
            crossover = (f"x{k}a", f"x{k}b")
        path_b: Tuple[str, ...] = chain
        for _ in range(16):
            keep = max(1, len(middle) // 2)
            detour_mid = rng.sample(middle, keep)
            candidate = (chain[0],) + crossover + tuple(detour_mid) + (chain[-1],)
            if candidate != chain:
                path_b = candidate
                break
        if path_b == chain:  # pragma: no cover - 16 identical draws
            raise RuntimeError("could not derive a distinct detour path")
        for src, dst in _links_of(path_b):
            if not network.has_link(src, dst):
                network.add_link(src, dst, capacity=capacity, delay=delay)

        footprint = frozenset(_links_of(chain)) | frozenset(_links_of(path_b))
        pod_network = Network()
        for src, dst in _links_of(chain) + _links_of(path_b):
            if not pod_network.has_link(src, dst):
                pod_network.add_link(
                    src, dst,
                    capacity=network.capacity(src, dst),
                    delay=network.delay(src, dst),
                )
        pod_specs.append(
            PodSpec(
                name=f"p{index}",
                source=chain[0],
                destination=chain[-1],
                path_a=chain,
                path_b=path_b,
                demand=demand,
                footprint=footprint,
                network=pod_network,
            )
        )

    # Seeded Poisson arrivals; per-tenant intents alternate away from the
    # initially-installed path "a".  A rejected request does not flip the
    # live state, so the follow-up intent legitimately plans to a noop.
    toggle = {pod.name: "b" for pod in pod_specs}
    stream: List[UpdateRequest] = []
    now = 0.0
    for rid in range(requests):
        now += rng.expovariate(1.0 / mean_interarrival)
        pod = pod_specs[rng.randrange(len(pod_specs))]
        target = toggle[pod.name]
        toggle[pod.name] = "a" if target == "b" else "b"
        stream.append(
            UpdateRequest(id=rid, tenant=pod.name, arrival=round(now, 6), target=target)
        )

    return ServiceWorkload(network=network, pods=pod_specs, requests=stream)
