"""Freeze-first pins of what an instance build and its encoding produce.

The generators, the instance and its id-space encodings
(:class:`~repro.core.rounds.UnionGraphIds`,
:class:`~repro.core.intervals_array.InstanceArrays`) are built in bulk
passes; every later answer (schedules, reports, goldens) starts from them,
so they must come out byte for byte as the per-hop builds did.  The
digests below were taken from those per-hop builds.  An instance digest
covers switch order, link order, per-link delay and capacity (in both
maps' key order) and both configs in their dict order; an encoding digest
covers every column with its container type and ``array`` typecode, and
the instance tables the first plan reads.  ``PYTHONPATH=src:. python
tests/test_build_pins.py`` prints a tree's digests in the tables' layout;
re-freeze only from a build whose output is known to be the reference.
"""

import hashlib
import json
import random
from array import array

import pytest

from repro.core.instance import (
    instance_from_paths,
    motivating_example,
    nested_reversal_instance,
    random_instance,
    reversal_instance,
    segmented_instance,
)
from repro.core.intervals_array import InstanceArrays
from repro.core.rounds import UnionGraphIds
from repro.experiments.sweep import mixed_instance
from repro.network.graph import Network
from repro.network.topology import waxman_topology
from tests.test_network_topology import (
    emulation_topology,
    fat_tree_topology,
    linear_topology,
    ring_topology,
)


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def network_record(network):
    delays = network.delay_map()
    capacities = network.capacity_map()
    assert list(capacities) == list(delays)
    links = [[src, dst, delay, capacities[src, dst]] for (src, dst), delay in delays.items()]
    return [network.switches, links]


def instance_record(instance):
    flow = instance.flow
    return [
        network_record(instance.network),
        [flow.name, flow.source, flow.destination, flow.demand],
        list(instance.old_config.items()),
        list(instance.new_config.items()),
    ]


def column(value):
    """A column with its container: ``array`` typecode, bytes as hex."""
    if isinstance(value, array):
        return ["array", value.typecode, value.tolist()]
    if isinstance(value, (bytes, bytearray)):
        return [type(value).__name__, value.hex()]
    if isinstance(value, dict):
        return ["dict", [[column(k), column(v)] for k, v in value.items()]]
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, [column(item) for item in value]]
    return value


GRAPH_COLUMNS = ("names", "id_of", "n", "next_old", "next_new", "starts")


def encoding_record(instance):
    graph = UnionGraphIds(instance)
    object.__setattr__(instance, "_union_ids", graph)
    tables = [
        instance.old_path,
        instance.new_path,
        instance.old_path_index,
        instance.old_path_offsets,
        {node: instance.old_predecessor(node) for node in instance.old_path[1:]},
        instance.switches_to_update,
    ]
    arrays = InstanceArrays(instance)
    return [
        [column(getattr(graph, name)) for name in GRAPH_COLUMNS],
        [column(table) for table in tables],
        [column(getattr(arrays, name)) for name in InstanceArrays.__slots__],
    ]


INSTANCES = {
    **{f"segmented[10000] seed {seed}": (lambda seed=seed: segmented_instance(10_000, seed=seed))
       for seed in (0, 1, 7, 42)},
    "segmented[3000] x16, capacity 2.0": lambda: segmented_instance(
        3000, seed=5, segments=16, capacity=2.0),
    "mixed[8] x40": lambda: [mixed_instance(8, seed) for seed in range(40)],
    "mixed[9] x40": lambda: [mixed_instance(9, seed) for seed in range(40)],
    "mixed[60] x10": lambda: [mixed_instance(60, seed) for seed in range(10)],
    "random[16] capacity 2.0 x40": lambda: [
        random_instance(16, seed=seed, capacity=2.0) for seed in range(40)],
    "random[40] max_delay 3, detour 0.5 x10": lambda: [
        random_instance(40, seed=seed, max_delay=3, detour_fraction=0.5) for seed in range(10)],
    "reversal[12]": lambda: reversal_instance(12),
    "reversal[300] capacity 2.0": lambda: reversal_instance(300, capacity=2.0),
    "nested reversal x6": lambda: [
        nested_reversal_instance(count, depth, 3, seed=seed)
        for count, depth, seed in ((9, 1, 0), (30, 2, 1), (60, 3, 2), (120, 2, 3),
                                   (200, 4, 4), (24, 0, 5))],
    "motivating example": motivating_example,
}

NETWORKS = {
    "linear[50] delay 3": lambda: linear_topology(50, capacity=2.0, delay=3)[0],
    "ring[30]": lambda: ring_topology(30),
    "ring[30] one-way": lambda: ring_topology(30, bidirectional=False),
    "fat-tree k=4": lambda: fat_tree_topology(4),
    "waxman[25]": lambda: waxman_topology(25, rng=random.Random(3)),
    "emulation x10": lambda: [
        emulation_topology(rng=random.Random(seed)) for seed in range(10)],
}

def _detour_world(seed):
    """A 300-hop instance whose switch ids do not follow the old path, with
    mixed capacities and delays and links no rule uses."""
    rng = random.Random(seed)
    old = [f"c{i}" for i in range(300)]
    new = [old[0], *rng.sample(old[1:-1], 120), old[-1]]
    network = Network()
    for node in rng.sample(old + ["x0", "x1"], 302):
        network.add_switch(node)
    for path in (old, new, rng.sample(old + ["x0", "x1"], 40)):
        for link in zip(path, path[1:]):
            if not network.has_link(*link):
                network.add_link(*link, capacity=rng.choice((1.0, 2.0, 3.0)), delay=rng.randint(1, 3))
    return instance_from_paths(network, old, new)


ENCODINGS = {
    **{f"segmented[10000] seed {seed}": (lambda seed=seed: segmented_instance(10_000, seed=seed))
       for seed in (0, 1)},
    "segmented[10000] x16": lambda: segmented_instance(10_000, seed=3, segments=16),
    "random[300] capacity 2.0": lambda: random_instance(300, seed=4, capacity=2.0),
    "nested reversal[200] depth 4": lambda: nested_reversal_instance(200, 4, 3, seed=4),
    "motivating example": motivating_example,
    "detour world": lambda: _detour_world(11),
}


def _many(built):
    return built if isinstance(built, list) else [built]


def instance_digest(name):
    return digest([instance_record(instance) for instance in _many(INSTANCES[name]())])


def network_digest(name):
    built = _many(NETWORKS[name]())
    return digest([
        [network_record(item.network), item.old_path, item.new_path]
        if hasattr(item, "old_path") else network_record(item)
        for item in built
    ])


def encoding_digest(name):
    return digest(encoding_record(ENCODINGS[name]()))


FROZEN_INSTANCES = {
    'mixed[60] x10': '69e81d377be9e2618f2721212191b8d606eb92ee3ed950e3ffe7d4101c040faf',
    'mixed[8] x40': '3243d94608247970b702ccc40e5ccbe00f84d6338f6cc4af1dd5a523c80011fd',
    'mixed[9] x40': '3a94b9d86435bbe7d4309a44a66c1180e597d8ec0fd322bfec5c2ca6a40ceb3e',
    'motivating example': 'fafd347e16c8bbe97f726f1f37eed8bd3f13f2b24b301a61554152736d0ec6de',
    'nested reversal x6': '166f33aab69c10e9b275cdca76ccb6f791c67f38c983473d705654f171a25de0',
    'random[16] capacity 2.0 x40': 'b45803f9fc0b64bd9b3849ef8ef483258c5eb00a0afb439599df76585fc8702d',
    'random[40] max_delay 3, detour 0.5 x10': 'c9afd6cd1523f0c8cd4ddd733228fa2ffea66d39095c1ea2a0ec6d045789a957',
    'reversal[12]': '37390c107780a0c43181318fe328a0342615e090d7cd7f4b111e944f917d6e73',
    'reversal[300] capacity 2.0': '4d9daf256a7d5693c87d062ff8fff80bcfe0b95872fc34a795c14644f1bac850',
    'segmented[10000] seed 0': '6589b40f94ed42b8aadce52f9f6e4af51b0c924954f2498640d6c3c30469f6e8',
    'segmented[10000] seed 1': '66e062f474c29b74f05f28f7c0fda5ccc756efed122ff7b31a707863ddf54e06',
    'segmented[10000] seed 42': 'a07c2d5613d14478d451cffd4345ac28d4506f4741034f659c84aca603967924',
    'segmented[10000] seed 7': 'e931b8e0e7dcc9fb2bfa80b22db846f68815e6d88ab3bc4daef46cbf391bab5a',
    'segmented[3000] x16, capacity 2.0': '421722226907c7f070c371aba9f818528336410e6055b591a36cf38ebe7f81d1',
}

FROZEN_NETWORKS = {
    'emulation x10': 'f96ee864c3ab46ab0f4523364086b7ae629f86fd288d5443bd49774a13890fdc',
    'fat-tree k=4': '6532fd67b9adafe072c69e817758f0e6ff7387e8947b0e614ed7c456037234c5',
    'linear[50] delay 3': 'd7a653dfba4722c2c321b1ac8437d9e225665d8da1e408e48df7c159eb247de9',
    'ring[30]': '2e181d38d8f999ad0d38e53222b4ce8acf7079d355a06fa79a7d6169b29552e7',
    'ring[30] one-way': 'ea7d6c6ae6d8de70df502b5fdbff4936f0d666529f5d73b8e14ebd1825a54b5c',
    'waxman[25]': '2f99ec257a0c91aef3a526ca939b6f8106c4ae89d663818a304055678c6a94e9',
}

FROZEN_ENCODINGS = {
    'detour world': 'eda84b58e0add6b7dc42ae81e31b579149dc606e6e3935a810ecd047985f1936',
    'motivating example': '89a3414fe136c51c8c7786620b3278415963ec28e9f9303dce56f33e816d5395',
    'nested reversal[200] depth 4': '4305a59b944f3eb604d0b5d373d1600d30d9e5c357dc746c32d9a6535c2cae9d',
    'random[300] capacity 2.0': 'ae4566cf105616adbd33c12a976ed387dcf4a545a460b3528f999103be401fa5',
    'segmented[10000] seed 0': '07b9c66882ee0706a1a77e7ba28f751274f29c1b923bdcec8ece83363ad40b83',
    'segmented[10000] seed 1': 'c5e16aff9038b5faedf5730d00977bda8c52ba7b7d983917ea6966aa2c3c3e6e',
    'segmented[10000] x16': '9c6dc906df2975b397a79e0416fb8a112b48ed2546eedbaf71b55ee5ef8adb55',
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_instance_build_is_pinned(name):
    assert instance_digest(name) == FROZEN_INSTANCES[name]


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_topology_build_is_pinned(name):
    assert network_digest(name) == FROZEN_NETWORKS[name]


@pytest.mark.parametrize("name", sorted(ENCODINGS))
def test_encoding_is_pinned(name):
    assert encoding_digest(name) == FROZEN_ENCODINGS[name]


if __name__ == "__main__":
    # Print the digests of this tree, in the frozen tables' layout.
    for table, names, fn in (("FROZEN_INSTANCES", INSTANCES, instance_digest),
                             ("FROZEN_NETWORKS", NETWORKS, network_digest),
                             ("FROZEN_ENCODINGS", ENCODINGS, encoding_digest)):
        print(f"{table} = {{")
        for name in sorted(names):
            print(f"    {name!r}: {fn(name)!r},")
        print("}\n")
