"""Golden replay for the fluid data plane, event by event.

``tests/data/des_goldens.json`` was written by this file's ``__main__`` at
the revision it records, *before* the simulator learned to re-forward only
the output stream a rate change touches (tuple heap, cached forwarding
decisions, allocation-free stream contexts).  Per world it holds a digest
of every link's ``(time, rate)`` breakpoint timeline and ``byte_counter()``,
of every switch's ``delivered`` / ``blackholed`` / ``dropped_volume()`` /
``delivered_volume()``, and the events ``Simulator.run`` reported in total.
The simulator must reproduce all of it byte for byte:

* ``service-steady`` / ``service-burst`` -- the two bench-shaped cells of
  ``tests/test_service.py::TestServiceRecordsPinned`` (their record digest
  rides along);
* ``fig6-s<seed>-<scheme>`` -- Fig. 6's testbed, three schemes x two seeds
  (two-phase tags exercise ``with_tag`` / ``set_tag``);
* ``merge`` -- a hand-built plane whose inputs merge into one output
  stream with order-sensitive float sums: an input stopped and restarted
  (``_in_rates`` order changes), a rule deleted and re-added, a rule
  pointing at an unattached port, tags rewritten so differently tagged
  inputs merge, and a table mutated without ``on_table_changed`` before
  the next arrival.

Regenerate (only ever at a revision whose simulator is the reference)::

    PYTHONPATH=src python tests/test_des_goldens.py > tests/data/des_goldens.json
"""

import hashlib
import json
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.experiments import fig6
from repro.experiments.sweep import sweep_seed
from repro.network.graph import Network
from repro.service.service import ServiceConfig, UpdateService
from repro.service.vclock import run_virtual
from repro.service.workload import build_workload
from repro.simulator import FlowRule, Match, PacketContext, Simulator, build_dataplane
from repro.simulator.switch import HOST_PORT

GOLDENS_PATH = Path(__file__).parent / "data" / "des_goldens.json"

# bench/workloads.py CONFIGs, seeded the way the bench seeds its first cell
# (the same two cells tests/test_service.py pins by record digest).
SERVICE_CELLS = {
    "service-steady": dict(
        pods=16, pod_size=8, requests=64, mean_interarrival=2.0, max_queue=64, planners=4
    ),
    "service-burst": dict(
        pods=32, pod_size=12, requests=100, mean_interarrival=0.25, max_queue=1024, planners=4
    ),
}
FIG6_SEEDS = (3, 0)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


@contextmanager
def counted_runs():
    """Total of every ``Simulator.run`` return value inside the block."""
    total = [0]
    original = Simulator.run

    def run(self, *args, **kwargs):
        processed = original(self, *args, **kwargs)
        total[0] += processed
        return processed

    Simulator.run = run
    try:
        yield total
    finally:
        Simulator.run = original


def fingerprint(plane, events: int) -> dict:
    links = {
        link.name: {
            "timeline": [[s.time, s.rate] for s in link.utilization_timeline()],
            "bytes": link.byte_counter(),
        }
        for link in plane.links.values()
    }
    switches = {
        str(name): [
            switch.delivered,
            switch.blackholed,
            switch.dropped_volume(),
            switch.delivered_volume(),
        ]
        for name, switch in plane.switches.items()
    }
    return {
        "events": events,
        "breakpoints": sum(len(entry["timeline"]) for entry in links.values()),
        "links": digest(links),
        "switches": digest(switches),
    }


# --- worlds ------------------------------------------------------------

def service_world(name: str) -> dict:
    shape = SERVICE_CELLS[name]
    config = ServiceConfig(seed=sweep_seed(42, shape["pods"], 0), **shape)
    workload = build_workload(
        pods=config.pods, pod_size=config.pod_size, requests=config.requests,
        mean_interarrival=config.mean_interarrival, seed=config.seed,
        demand=config.demand, capacity=config.capacity, delay=config.delay,
        share_links=config.share_links,
    )

    async def main():
        service = UpdateService(workload, config)
        return service, await service.run()

    with counted_runs() as total:
        service, report = run_virtual(main())
    world = fingerprint(service._plane, total[0])
    world["record"] = digest(report.to_record())
    return world


def fig6_world(scheme: str, seed: int) -> dict:
    params = dict(fig6.SCENARIO.defaults, seed=seed)
    with counted_runs() as total:
        _monitor, testbed, _trace = fig6._run_scheme(
            scheme, fig6._instance(params), seed,
            float(params["duration"]), float(params["update_at"]),
            float(params["delay_scale"]),
        )
    return fingerprint(testbed.plane, total[0])


def merge_world() -> dict:
    network = Network()
    for node in "abmn":
        network.add_switch(node)
    network.add_link("a", "m", capacity=10.0, delay=1)
    network.add_link("b", "m", capacity=10.0, delay=2)
    network.add_link("m", "n", capacity=10.0, delay=1)
    sim = Simulator()
    plane = build_dataplane(sim, network, delay_scale=0.5)
    a, b, m, n = (plane.switch(node) for node in "abmn")
    toward_n = plane.port_of("m", "n")

    def rule(switch, name, out_port, match=(), **fields):
        switch.table.add(
            FlowRule(name, Match(dst_prefix="d", **dict(match)), out_port, **fields)
        )
        switch.on_table_changed()

    def host(src, tag=None):
        return PacketContext(HOST_PORT, src, "d", tag)

    with counted_runs() as total:
        rule(a, "fwd", plane.port_of("a", "m"))
        rule(b, "fwd", plane.port_of("b", "m"))
        rule(m, "fwd", toward_n)
        rule(n, "fwd", HOST_PORT)
        # Three inputs of m merge into the one output stream (h1, d): its
        # rate is a float sum in arrival order, host first.
        m.inject(host("h1"), 0.3)
        a.inject(host("h1"), 0.1)
        b.inject(host("h1"), 0.7)
        a.inject(host("h2"), 1.7)  # a second stream sharing every port
        sim.run(until=3.0)
        m.inject(host("h1"), 0.0)  # stop ...
        sim.run(until=4.5)
        m.inject(host("h1"), 0.3)  # ... and restart: now summed last
        sim.run(until=6.0)
        m.table.delete("fwd")  # everything black-holes at m
        m.on_table_changed()
        sim.run(until=7.25)
        rule(m, "fwd", toward_n)
        sim.run(until=8.5)
        rule(m, "h2", 99, match={"src_prefix": "h2"}, priority=5)  # unattached port
        sim.run(until=10.0)
        m.table.modify("h2", out_port=toward_n, set_tag=7)
        m.on_table_changed()
        m.table.modify("fwd", set_tag=7)  # tagged and untagged h1 inputs merge
        m.on_table_changed()
        sim.run(until=10.5)
        b.inject(host("h1", tag=1), 0.4)
        sim.run(until=12.0)
        b.inject(host("h1"), 0.25)  # a plain rate change, order kept
        m.table.modify("h2", out_port=99)  # takes effect at m's next arrival
        sim.run(until=14.0)
        a.inject(host("h1"), 0.0)  # h2 keeps black-holing at m to the end
        sim.run(until=20.0)
    rates = {s.rate for s in plane.link("m", "n").utilization_timeline()}
    assert 0.3 + 0.1 + 0.7 + 1.7 in rates and 0.1 + 0.7 + 0.3 + 1.7 in rates
    assert (0.3 + 0.1) + 0.7 != (0.1 + 0.7) + 0.3, "the merge must be order-sensitive"
    return fingerprint(plane, total[0])


WORLDS = {name: (service_world, (name,)) for name in SERVICE_CELLS}
WORLDS.update(
    (f"fig6-s{seed}-{scheme}", (fig6_world, (scheme, seed)))
    for seed in FIG6_SEEDS
    for scheme in fig6.SCHEMES
)
WORLDS["merge"] = (merge_world, ())


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_world_replays_byte_for_byte(name):
    goldens = json.loads(GOLDENS_PATH.read_text())["worlds"]
    build, args = WORLDS[name]
    assert build(*args) == goldens[name]


def test_every_frozen_world_is_replayed():
    assert sorted(json.loads(GOLDENS_PATH.read_text())["worlds"]) == sorted(WORLDS)


if __name__ == "__main__":
    revision = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    json.dump(
        {
            "revision": revision,
            "note": (
                "written by tests/test_des_goldens.py at this revision, before "
                "the delta re-forwarding simulator; see that file's docstring"
            ),
            "python": sys.version.split()[0],
            "worlds": {name: build(*args) for name, (build, args) in sorted(WORLDS.items())},
        },
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
