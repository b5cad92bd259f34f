"""Struct-of-arrays flow tracking: the long-trajectory numpy hot path.

:class:`repro.core.intervals.IntervalTracker` keeps each flow class as a
tuple-of-tuples Python object and answers congestion probes by walking
per-link position dicts.  That representation is exact but pays a Python
-level cost proportional to trajectory *length* for every class created --
and trajectories are O(n) while classes are few (a greedy run at n=4000
creates ~80 classes over ~4000-hop paths).  This module stores the same
state column-wise:

* **Per instance** (computed once, shared by every tracker and clone):
  switch ids, sorted int64 link keys (``src_id * n + dst_id``) with
  parallel delay/capacity columns, the old/new next-hop tables as flat
  int lists, the old path as id / link / offset columns, and the chain
  skeleton below.
* **Per class** (:class:`ArrayFlowClass`): scalar emission bounds, the
  trajectory as a short list of *runs* (an old-path slice or a single
  switch, each with its base position and base offset) and the positions,
  ids and offsets of its decisive links -- O(junctions), never O(path).
  Splitting shares structurally: a trim reuses its parent's tables
  outright, a deflected piece takes the parent's runs up to the hit and
  adds the runs it routes; the full-length columns exist only as an
  on-demand view (:meth:`ArrayFlowClass.view`) no probe builds.
* **Per probe**: one batched decision pass over the decisive links the
  round touches -- a ``bincount`` total-load test and a lexsort
  adjacent-overlap test -- instead of a Python sweep per link.  Only chains
  whose decisive link fails the vectorised prefilter fall back to the exact
  event sweep (:func:`repro.core.intervals._sweep_link`), on the interval
  list in the dict tracker's exact order so reported spans are bitwise
  identical.

**Chains.**  On a long path almost every switch is a *chain interior*: it
forwards to the same next hop in ``old_config`` and ``new_config``, has
exactly one predecessor in ``old_config`` + ``new_config`` and is neither
source nor destination; every other switch is a *junction*.  Whatever the
update state, a flow class that crosses one link of a chain crosses all of
it, in order and with the same relative timing: classes start at the source
(a junction), an interior always has a rule (no black hole ends there), and
the first switch a route reaches twice is a junction (an interior is entered
from its one predecessor, which was then reached twice before it).  Three
things follow, and the tracker is built on them:

1. routing walks *runs* -- a junction's interior successor brings the
   old-path slice up to the next junction in one step
   (:meth:`ArrayIntervalTracker._deflect`), and a switch is found in a class
   through the class's junctions (:meth:`ArrayIntervalTracker._hits`);
2. a link whose source is interior, whose capacity equals its predecessor
   link's, and which like that predecessor carries no background load is
   **not decisive**: it sees the predecessor's intervals shifted by one
   constant, in the same contribution order, against an equal capacity, so
   its congestion decision *is* the predecessor's.  Probes and
   :meth:`ArrayIntervalTracker.congestion_spans` gather and prefilter
   decisive links only;
3. when a decisive link does need the exact sweep, the non-decisive links
   after it report the same spans moved by their constant, so one sweep
   serves the chain (:meth:`ArrayIntervalTracker._sweep_chain`).

Both layouts are production code: every probe here pays a fixed numpy call
overhead, so on short trajectories the dict tracker is the faster of the
two and :func:`repro.core.tracker.make_tracker` builds that one instead.
``tests/test_array_tracker.py`` drives both in lockstep and compares
every report byte-for-byte -- except a refused ``probe_and_commit``, whose
report is a witness (a prefix of the ``preview_round`` report, which *is*
byte-equal): the dict tracker's congestion witness ends with a link, this
one's with a chain.

numpy is a hard dependency (``pyproject.toml``); importing this module
without it fails with a plain ``ImportError``.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.instance import UpdateInstance
from repro.core.intervals import (
    BLACKHOLE,
    DELIVERED,
    LOOPED,
    CongestionSpan,
    LinkKey,
    RoundReport,
    _EPS,
    _NEG_CLAMP,
    _POS_CLAMP,
    _sweep_link,
)
from repro.network.graph import Node
from repro.trace.recorder import recorder

_CACHE_ATTR = "_soa_arrays"


class InstanceArrays:
    """Immutable id-space encoding of one :class:`UpdateInstance`.

    Built once per instance (cached on the instance object, like its
    ``cached_property`` fields) and shared by every tracker and clone.
    Also owns the routing scratch buffer: a byte mask over the switch ids,
    zeroed again after every use, so probing rounds allocates nothing
    proportional to the network.
    """

    __slots__ = (
        "names",
        "id_of",
        "n_nodes",
        "link_keys",
        "capacity",
        "delay",
        "link_delay",
        "link_name",
        "demand",
        "dest",
        "next_old",
        "next_new",
        "max_hops",
        "old_path_ids",
        "old_path_lids",
        "old_path_offsets",
        "path_ids",
        "path_offsets",
        "old_pos",
        "interior",
        "junctions",
        "old_rule_lid",
        "new_rule_lid",
        "decisive",
        "path_dec",
        "_suffix_mark",
    )

    def __init__(self, instance: UpdateInstance) -> None:
        network = instance.network
        names = network.switches
        self.names: List[Node] = names
        n = len(names)
        self.id_of: Dict[Node, int] = dict(zip(names, range(n)))
        self.n_nodes = n
        id_of = self.id_of

        # The network's two maps share one key order, the links' insertion order.
        delays = network.delay_map()
        pairs = list(delays)
        ends = _ids(id_of, itertools.chain.from_iterable(pairs), 2 * len(pairs))
        keys = ends[0::2] * n + ends[1::2]
        order = np.argsort(keys, kind="stable")
        self.link_keys = keys[order]
        self.capacity = np.fromiter(
            network.capacity_map().values(), dtype=np.float64, count=len(pairs)
        )[order]
        # ``link_delay`` / ``path_ids`` / ``path_offsets`` are what the
        # routing loop indexes one scalar at a time: compact int arrays,
        # which index like lists (to Python ints) at an eighth of a list's
        # footprint.  ``delay`` / ``old_path_ids`` / ``old_path_offsets``
        # are numpy views of the same buffers for the vectorised readers.
        self.link_delay, self.delay = _twin(
            "q", np.fromiter(delays.values(), dtype=np.int64, count=len(pairs))[order]
        )
        self.link_name: List[LinkKey] = [pairs[i] for i in order.tolist()]

        self.demand = float(instance.demand)
        self.dest = id_of[instance.destination]
        old_path, new_path = instance.old_path, instance.new_path
        old_ids = _ids(id_of, old_path, len(old_path))
        next_old = _next_hops(id_of, instance.old_config, old_path, old_ids, n)
        next_new = _next_hops(
            id_of, instance.new_config, new_path, _ids(id_of, new_path, len(new_path)), n
        )
        self.next_old = next_old.tolist()
        self.next_new = next_new.tolist()
        self.max_hops = n + 1
        self.path_ids, self.old_path_ids = _twin("i", old_ids.astype(np.int32))
        self.old_path_lids = self.encode_links(self.old_path_ids)
        self.path_offsets, self.old_path_offsets = _twin(
            "q",
            np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(self.delay[self.old_path_lids]))
            ),
        )
        self._suffix_mark = bytearray(n)
        self._build_chains(next_old, next_new, id_of[instance.source])

    def _build_chains(self, next_old, next_new, source: int) -> None:
        """The chain skeleton (module docstring, "Chains"), vectorised.

        Only old-path switches are taken as interiors, so every chain is a
        contiguous slice of the old path and a *run* -- the nodes from a
        junction's successor to the next junction inclusive -- is the
        old-path slice from its first node to the next entry of
        ``junctions`` (the junctions' old-path positions, ascending).
        ``decisive`` holds the instance's share of the flag (interior
        source, capacity equal to the link before); trackers with
        background load add theirs.
        """
        n = self.n_nodes
        path = self.old_path_ids
        has_old = next_old >= 0
        predecessors = np.bincount(next_old[has_old], minlength=n)
        rerouted = (next_new >= 0) & (next_new != next_old)
        predecessors += np.bincount(next_new[rerouted], minlength=n)
        interior = np.zeros(n, dtype=bool)
        interior[path] = True
        interior &= has_old & (next_old == next_new) & (predecessors == 1)
        interior[source] = False
        interior[self.dest] = False
        self.interior = interior.tobytes()

        old_pos = np.full(n, -1, dtype=np.int64)
        old_pos[path] = np.arange(path.size, dtype=np.int64)
        # Scalar-indexed in the routing loop, like ``path_ids``.
        self.old_pos = array("q", old_pos.tobytes())
        self.junctions = array(
            "q", (~interior[path]).nonzero()[0].astype(np.int64).tobytes()
        )

        lids = self.old_path_lids
        decisive = np.ones(self.link_keys.size, dtype=bool)
        same_capacity = self.capacity[lids[1:]] == self.capacity[lids[:-1]]
        decisive[lids[1:][interior[path[1:-1]] & same_capacity]] = False
        self.decisive = decisive
        self.path_dec = self.decisive_path(decisive)

        self.old_rule_lid = self._rule_lids(next_old)
        self.new_rule_lid = self._rule_lids(next_new)

    def decisive_path(self, decisive) -> Tuple[List[int], List[int], List[int]]:
        """The old-path links flagged in ``decisive``, in path order.

        ``(old-path positions, link ids, departure offsets)`` as parallel
        lists: the one table a routed run bisects for its decisive entries
        (O(junctions) long, whatever the path), and the decisive tables of
        the initial class.
        """
        at = decisive[self.old_path_lids].nonzero()[0]
        return (
            at.tolist(),
            self.old_path_lids[at].tolist(),
            self.old_path_offsets[at].tolist(),
        )

    def _rule_lids(self, next_hop) -> array:
        """Per switch, the link id its rule forwards over (-1 without a rule)."""
        lids = np.full(self.n_nodes, -1, dtype=np.int64)
        sources = np.flatnonzero(next_hop >= 0)
        lids[sources] = self._link_ids(
            sources * self.n_nodes + next_hop[sources],
            "a forwarding rule crosses a non-existent link",
        )
        return array("q", lids.tobytes())

    def _link_ids(self, keys, what: str) -> "np.ndarray":
        """Link ids of the int64 ``keys``; ``KeyError(what)`` when one is absent."""
        pos = np.searchsorted(self.link_keys, keys)
        if keys.size:
            clipped = np.minimum(pos, self.link_keys.size - 1)
            if not bool(np.all(self.link_keys[clipped] == keys)):
                raise KeyError(what)
        return pos.astype(np.int64, copy=False)

    def encode_links(self, node_ids) -> "np.ndarray":
        """Link ids of the trajectory ``node_ids`` (vectorised lookup).

        Raises:
            KeyError: if any consecutive pair is not a network link (the
                dict tracker would raise the same from its delay map).
        """
        ids = node_ids.astype(np.int64, copy=False)
        return self._link_ids(
            ids[:-1] * self.n_nodes + ids[1:], "trajectory crosses a non-existent link"
        )

    def lid_of(self, src: Node, dst: Node) -> Optional[int]:
        """Link id of ``src -> dst``, or ``None`` when absent."""
        sid = self.id_of.get(src)
        did = self.id_of.get(dst)
        if sid is None or did is None:
            return None
        key = sid * self.n_nodes + did
        pos = int(np.searchsorted(self.link_keys, key))
        if pos >= self.link_keys.size or int(self.link_keys[pos]) != key:
            return None
        return pos


def _ids(id_of: Dict[Node, int], nodes, count: int) -> "np.ndarray":
    """The int64 ids of the ``count`` switches ``nodes`` yields."""
    return np.fromiter(map(id_of.__getitem__, nodes), dtype=np.int64, count=count)


def _next_hops(id_of: Dict[Node, int], config, path, path_ids, n: int) -> "np.ndarray":
    """Per switch id, the id its rule in ``config`` forwards to (-1 without one).

    ``path`` (ids ``path_ids``) is the route traced through ``config``, so
    its rules are its consecutive ids; only rules off it are looked up.
    """
    table = np.full(n, -1, dtype=np.int64)
    table[path_ids[:-1]] = path_ids[1:]
    if len(config) >= len(path):
        off = config.keys() - set(path)
        table[_ids(id_of, off, len(off))] = _ids(id_of, map(config.__getitem__, off), len(off))
    return table


def _twin(typecode: str, values: "np.ndarray") -> Tuple[array, "np.ndarray"]:
    """``values`` as a compact int array and a numpy view of its buffer."""
    flat = array(typecode, values.tobytes())
    return flat, np.frombuffer(flat, dtype=values.dtype)


def instance_arrays(instance: UpdateInstance) -> InstanceArrays:
    """The cached :class:`InstanceArrays` of ``instance``."""
    cached = getattr(instance, _CACHE_ATTR, None)
    if cached is None:
        cached = InstanceArrays(instance)
        object.__setattr__(instance, _CACHE_ATTR, cached)
    return cached


class TrajectoryView(NamedTuple):
    """A class's trajectory at full length (:meth:`ArrayFlowClass.view`)."""

    nodes: "np.ndarray"  # switch ids, int32
    lids: "np.ndarray"  # link ids, one fewer
    offsets: "np.ndarray"  # cumulative delay at every switch


class ArrayFlowClass:
    """One flow class in run-length form (see module docstring).

    Mirrors :class:`repro.core.intervals.FlowClass` in what it says, not in
    how: the trajectory of ``length`` switches is a short list of *runs*.
    Run ``i`` covers trajectory positions ``run_pos[i]`` up to the next
    run's (``length`` for the last).  ``run_start[i] >= 0`` is the old-path
    position of its first switch -- the run is that old-path slice -- and a
    negative entry ``~switch id`` is a single switch off the old path;
    ``run_off[i]`` is the cumulative delay at its first switch.  Beside the
    runs sit the tables a probe reads: the positions (``dec_pos``,
    ascending), ids (``dec_lids``) and departure offsets (``dec_offsets``)
    of the class's decisive links, and the switch and offset the trajectory
    ends on.  Nothing here is as long as the path; :meth:`view` builds the
    full-length columns for the few readers that want them.

    Instances are immutable by convention.  A trim shares every table of
    its parent, a deflected piece takes the parent's runs up to the hit by
    one slice of the run lists (a cut inside a run needs no new entry: a
    run's length is read off its successor), which is what makes ``clone``
    plus ``probe_and_commit`` O(touched state).
    """

    __slots__ = (
        "arrays",
        "lo",
        "hi",
        "length",
        "run_pos",
        "run_start",
        "run_off",
        "dec_pos",
        "dec_lids",
        "dec_offsets",
        "last_node",
        "last_offset",
        "outcome",
        "loop_node",
        "fresh_from",
        "_lazy",
    )

    def __init__(
        self,
        arrays: InstanceArrays,
        lo: Optional[int],
        hi: Optional[int],
        length: int,
        runs: Tuple[List[int], List[int], List[int]],
        decisive,
        last: Tuple[int, int],
        outcome: str = DELIVERED,
        loop_node: Optional[int] = None,
        fresh_from: int = 0,
        lazy: Optional[dict] = None,
    ) -> None:
        self.arrays = arrays
        self.lo = lo
        self.hi = hi
        self.length = length
        self.run_pos, self.run_start, self.run_off = runs
        self.dec_pos, self.dec_lids, self.dec_offsets = decisive
        self.last_node, self.last_offset = last
        self.outcome = outcome
        self.loop_node = loop_node
        self.fresh_from = fresh_from
        # Lookup tables over the decisive links and the full-length view,
        # built on first use; shared with trims so whichever relative
        # builds one first serves both.
        self._lazy = {} if lazy is None else lazy

    def trimmed(self, lo: Optional[int], hi: Optional[int]) -> "ArrayFlowClass":
        """The same trajectory emitted over ``[lo, hi]``, every table shared."""
        return ArrayFlowClass(
            self.arrays,
            lo,
            hi,
            self.length,
            (self.run_pos, self.run_start, self.run_off),
            (self.dec_pos, self.dec_lids, self.dec_offsets),
            (self.last_node, self.last_offset),
            self.outcome,
            self.loop_node,
            fresh_from=self.length,
            lazy=self._lazy,
        )

    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def node_at(self, position: int) -> int:
        """The switch id at trajectory ``position``."""
        run = bisect_right(self.run_pos, position) - 1
        start = self.run_start[run]
        if start < 0:
            return ~start
        return self.arrays.path_ids[start + position - self.run_pos[run]]

    def offset_at(self, position: int) -> int:
        """The cumulative delay at trajectory ``position``."""
        run = bisect_right(self.run_pos, position) - 1
        start = self.run_start[run]
        offset = self.run_off[run]
        within = position - self.run_pos[run]
        if within:
            path = self.arrays.path_offsets
            offset += path[start + within] - path[start]
        return offset

    def view(self) -> TrajectoryView:
        """The full-length columns, materialised from the runs.

        O(path) to build and to hold (cached, shared with trims): for the
        exact search's signature and rescuer questions and for tests,
        never for a probe -- ``tracker.array.materialised`` counts the
        builds and stays 0 on the greedy and replay paths.
        """
        view = self._lazy.get("view")
        if view is None:
            if recorder.enabled:
                recorder.count("tracker.array.materialised")
            arrays = self.arrays
            node_parts = []
            offset_parts = []
            ends = self.run_pos[1:] + [self.length]
            for pos, start, offset, end in zip(
                self.run_pos, self.run_start, self.run_off, ends
            ):
                if start < 0:
                    node_parts.append(np.array([~start], dtype=np.int32))
                    offset_parts.append(np.array([offset], dtype=np.int64))
                else:
                    stop = start + end - pos
                    node_parts.append(arrays.old_path_ids[start:stop])
                    offset_parts.append(
                        arrays.old_path_offsets[start:stop]
                        + (offset - arrays.path_offsets[start])
                    )
            nodes = np.concatenate(node_parts)
            view = self._lazy["view"] = TrajectoryView(
                nodes, arrays.encode_links(nodes), np.concatenate(offset_parts)
            )
        return view

    def sorted_decisive(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Decisive ``(link ids sorted, positions, offsets)`` -- lazy, shared with trims."""
        table = self._lazy.get("sorted")
        if table is None:
            order = np.argsort(self.dec_lids, kind="stable")
            table = self._lazy["sorted"] = (
                self.dec_lids[order],
                self.dec_pos[order],
                self.dec_offsets[order],
            )
        return table

    def junction_positions(self) -> Dict[int, int]:
        """``switch id -> position`` of every decisive link's source.

        Every junction the trajectory leaves is among them (a link out of
        a junction is always decisive) -- lazy, shared with trims.
        """
        table = self._lazy.get("junctions")
        if table is None:
            arrays = self.arrays
            sources = arrays.link_keys[self.dec_lids] // arrays.n_nodes
            table = self._lazy["junctions"] = dict(
                zip(sources.tolist(), self.dec_pos.tolist())
            )
        return table

    def chain_at(self, position: int) -> Tuple[List[int], List[int]]:
        """The link at ``position`` and the non-decisive links after it.

        Returns their ids and, per link, its departure offset relative to
        the first -- the constant by which its intervals trail that link's.
        A non-decisive link leaves a chain interior, so whatever follows
        the decisive link heading the chain is consecutive old-path links
        and both columns are slices of the instance's.
        """
        arrays = self.arrays
        following = int(self.dec_pos.searchsorted(position, side="right"))
        stop = (
            int(self.dec_pos[following])
            if following < self.dec_pos.size
            else self.length - 1
        )
        head = following - 1
        head_lid = int(self.dec_lids[head])
        behind = position - int(self.dec_pos[head])
        count = stop - position
        if count == 1 and not behind:
            return [head_lid], [0]
        # The head then enters an interior: it is the old-path link before it.
        entered = int(arrays.link_keys[head_lid]) % arrays.n_nodes
        first = arrays.old_pos[entered] - 1 + behind
        offsets = arrays.old_path_offsets[first : first + count]
        return (
            arrays.old_path_lids[first : first + count].tolist(),
            (offsets - offsets[0]).tolist(),
        )


class _Batch:
    """Columns of one batched decision: a row per departure interval.

    Rows are appended in the dict tracker's per-link contribution order
    (committed classes ascending id, background, fresh suffixes, piece
    prefixes), so the rows of one touched link, read back in order, are the
    interval list the dict tracker would hand ``_sweep_link``.
    """

    __slots__ = ("demand", "ti", "lo", "hi", "load")

    def __init__(self, demand: float) -> None:
        self.demand = demand
        self.ti: List["np.ndarray"] = []
        self.lo: List["np.ndarray"] = []
        self.hi: List["np.ndarray"] = []
        self.load: List["np.ndarray"] = []

    def add_class(self, cls: ArrayFlowClass, offsets, ti) -> None:
        """``cls``'s load departing ``offsets`` after emission, on touched links ``ti``."""
        self.ti.append(ti)
        self.lo.append(
            np.full(ti.shape, _NEG_CLAMP, dtype=np.int64) if cls.lo is None else cls.lo + offsets
        )
        self.hi.append(
            np.full(ti.shape, _POS_CLAMP, dtype=np.int64) if cls.hi is None else cls.hi + offsets
        )
        self.load.append(np.full(ti.shape, self.demand))

    def add_background(self, ti: int, triples) -> None:
        for lo, hi, load in triples:
            self.ti.append(np.array([ti], dtype=np.int64))
            self.lo.append(np.array([_NEG_CLAMP if lo is None else lo], dtype=np.int64))
            self.hi.append(np.array([_POS_CLAMP if hi is None else hi], dtype=np.int64))
            self.load.append(np.array([load]))

    def columns(self):
        """``(touched index, lo, hi, load)``, one entry per row."""
        return tuple(
            np.concatenate(parts) for parts in (self.ti, self.lo, self.hi, self.load)
        )


class ArrayIntervalTracker:
    """Drop-in :class:`IntervalTracker` replacement on the array layout.

    Same public surface (``clone`` / ``preview_round`` / ``apply_round`` /
    ``probe_and_commit`` / ``congestion_spans`` / ...), same reports down
    to the byte (same verdict and a witness of the same report where a
    probe is refused); only the representation differs.
    """

    def __init__(
        self,
        instance: UpdateInstance,
        t0: int = 0,
        background: Optional[
            Dict[LinkKey, List[Tuple[Optional[int], Optional[int], float]]]
        ] = None,
    ) -> None:
        self.instance = instance
        self.t0 = t0
        self.background = background or {}
        self.arrays = instance_arrays(instance)
        arrays = self.arrays

        self._applied: Dict[Node, int] = {}
        self._last_time: Optional[int] = None
        self._classes: Dict[int, ArrayFlowClass] = {}
        self._alive: Set[int] = set()
        self._next_id = 0
        # Ids of the applied switches: they forward by ``next_new``, every
        # other switch by ``next_old``.  A probe adds its round's ids for
        # the split and takes them out again, so neither a tracker nor a
        # clone holds a table as long as the network.
        self._moved: Set[int] = set()
        self._spans_cache: Optional[Tuple[CongestionSpan, ...]] = None

        self._bg_by_lid: Dict[int, List[Tuple[Optional[int], Optional[int], float]]] = {}
        for (src, dst), triples in self.background.items():
            lid = arrays.lid_of(src, dst)
            if lid is None:
                raise KeyError(f"background load on non-existent link {src!r} -> {dst!r}")
            self._bg_by_lid[lid] = [tuple(triple) for triple in triples]
        # Background breaks a chain twice: the loaded link sees load its
        # predecessor does not, and the link after it sees less than it.
        self._decisive = arrays.decisive
        self._path_dec = arrays.path_dec
        if self._bg_by_lid:
            self._decisive = arrays.decisive.copy()
            for lid in self._bg_by_lid:
                self._decisive[lid] = True
                after = arrays.new_rule_lid[int(arrays.link_keys[lid]) % arrays.n_nodes]
                if after >= 0:
                    self._decisive[after] = True
            self._path_dec = arrays.decisive_path(self._decisive)

        # The initial class: the old path as one run.
        self._add_class(
            ArrayFlowClass(
                arrays,
                None,
                None,
                arrays.old_path_ids.size,
                ([0], [0], [0]),
                tuple(np.array(column, dtype=np.int64) for column in self._path_dec),
                (arrays.path_ids[-1], arrays.path_offsets[-1]),
            )
        )

    def clone(self) -> "ArrayIntervalTracker":
        """An independent copy in O(classes + applied switches), not O(network).

        Class objects (and through them every run list and decisive table)
        are shared structurally; only the small per-tracker dicts, the alive
        set and the set of applied switches are copied.
        """
        other = object.__new__(ArrayIntervalTracker)
        other.instance = self.instance
        other.t0 = self.t0
        other.background = self.background
        other.arrays = self.arrays
        other._applied = dict(self._applied)
        other._last_time = self._last_time
        other._classes = dict(self._classes)
        other._alive = set(self._alive)
        other._next_id = self._next_id
        other._moved = set(self._moved)
        other._spans_cache = self._spans_cache
        other._bg_by_lid = self._bg_by_lid
        other._decisive = self._decisive
        other._path_dec = self._path_dec
        return other

    # ------------------------------------------------------------------
    # state accessors (API parity with IntervalTracker)
    # ------------------------------------------------------------------
    @property
    def applied(self) -> Dict[Node, int]:
        return dict(self._applied)

    @property
    def loops(self) -> List[Tuple[int, Node]]:
        names = self.arrays.names
        events: List[Tuple[int, Node]] = []
        for cid in sorted(self._alive):
            cls = self._classes[cid]
            if cls.outcome == LOOPED and not cls.is_empty():
                events.append(
                    (cls.lo if cls.lo is not None else cls.hi, names[cls.loop_node])
                )
        return events

    @property
    def blackholes(self) -> List[Tuple[int, Node]]:
        names = self.arrays.names
        events: List[Tuple[int, Node]] = []
        for cid in sorted(self._alive):
            cls = self._classes[cid]
            if cls.outcome == BLACKHOLE and not cls.is_empty():
                events.append(
                    (cls.lo if cls.lo is not None else cls.hi, names[cls.last_node])
                )
        return events

    @property
    def classes(self) -> List[ArrayFlowClass]:
        return [self._classes[cid] for cid in sorted(self._alive)]

    def load_at(self, src: Node, dst: Node, time: int) -> float:
        demand = self.arrays.demand
        total = 0.0
        for lo, hi in self.link_departure_spans(src, dst):
            if (lo is None or lo <= time) and (hi is None or time <= hi):
                total += demand
        return total

    def link_departure_spans(
        self, src: Node, dst: Node
    ) -> List[Tuple[Optional[int], Optional[int]]]:
        return [
            (
                None if cls.lo is None else cls.lo + offset,
                None if cls.hi is None else cls.hi + offset,
            )
            for cls, offset in self.crossings(src, dst)
        ]

    def crossings(self, src: Node, dst: Node) -> List[Tuple[ArrayFlowClass, int]]:
        """Every alive class crossing ``src -> dst`` with its departure offset there."""
        lid = self.arrays.lid_of(src, dst)
        if lid is None:
            return []
        head = self._chain_head(lid)
        found = []
        for cls in self.classes:
            offset = self._offset_behind(cls, *head)
            if offset is not None:
                found.append((cls, offset))
        return found

    def _chain_head(self, lid: int) -> Tuple[int, int, int]:
        """``(decisive link heading lid's chain, hops behind it, delay behind it)``.

        A decisive link heads its own chain.  Any other is an old-path link
        out of a chain interior, and whatever class crosses it reached it
        over the old-path links before it, back to the nearest decisive
        one -- so the class's decisive tables answer for it (a trajectory
        leaves no switch twice, hence crosses a link at most once).
        """
        if self._decisive[lid]:
            return lid, 0, 0
        arrays = self.arrays
        positions, lids, offsets = self._path_dec
        at = arrays.old_pos[int(arrays.link_keys[lid]) // arrays.n_nodes]
        head = bisect_right(positions, at) - 1
        return (
            lids[head],
            at - positions[head],
            arrays.path_offsets[at] - offsets[head],
        )

    @staticmethod
    def _offset_behind(
        cls: ArrayFlowClass, head: int, rank: int, shift: int
    ) -> Optional[int]:
        """``cls``'s departure offset ``rank`` links behind decisive link ``head``.

        ``None`` when the trajectory does not cross ``head`` or ends before
        that link (only a hop-guarded route ends inside a chain).
        """
        sorted_lids, positions, offsets = cls.sorted_decisive()
        slot = int(sorted_lids.searchsorted(head))
        if (
            slot == sorted_lids.size
            or int(sorted_lids[slot]) != head
            or int(positions[slot]) + rank >= cls.length - 1
        ):
            return None
        return int(offsets[slot]) + shift

    def crosses(self, cls: ArrayFlowClass, src: Node, dst: Node) -> bool:
        """Whether ``cls``'s trajectory traverses the link ``src -> dst``."""
        lid = self.arrays.lid_of(src, dst)
        return (
            lid is not None
            and self._offset_behind(cls, *self._chain_head(lid)) is not None
        )

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def preview_round(self, nodes: Sequence[Node], time: int) -> RoundReport:
        with recorder.timer("tracker.preview"):
            _trims, _deflected, _removed, report = self._probe(nodes, time)
            return report

    def apply_round(self, nodes: Sequence[Node], time: int) -> RoundReport:
        with recorder.timer("tracker.apply"):
            trims, deflected, removed, report = self._probe(nodes, time)
            self._commit(nodes, time, trims, deflected, removed)
            return report

    def probe_and_commit(self, nodes: Sequence[Node], time: int) -> RoundReport:
        """:meth:`IntervalTracker.probe_and_commit`: a refusal is a witness."""
        with recorder.timer("tracker.probe"):
            trims, deflected, removed, report = self._probe(nodes, time, witness=True)
            if report.ok:
                self._commit(nodes, time, trims, deflected, removed)
            elif recorder.enabled:
                recorder.count(
                    "tracker.probe.refused.congestion"
                    if report.congestion
                    else "tracker.probe.refused.split"
                )
            return report

    def _probe(self, nodes: Sequence[Node], time: int, witness: bool = False):
        """Split and check one round; ``(trims, deflected, removed, report)``.

        With ``witness`` a violation ends the work: the split stops at the
        first class that loops or black-holes and no congestion pass follows
        it; the congestion pass stops at the first chain that is over
        capacity (the batched prefilter decides all links in one pass either
        way, so only the exact sweeps are saved).
        """
        self._check_round_args(nodes, time)
        with recorder.timer("split"):
            pieces, trims, deflected, removed, report = self._split(nodes, time, witness)
        if not (witness and (report.loops or report.blackholes)):
            with recorder.timer("check"):
                self._check_new_congestion(pieces, removed, report, witness)
        return trims, deflected, removed, report

    # ------------------------------------------------------------------
    # global checks
    # ------------------------------------------------------------------
    def congestion_spans(self) -> List[CongestionSpan]:
        """All capacity violations of the committed state (cached).

        One vectorised prefilter over every loaded *decisive* link; only
        chains whose decisive link the prefilter cannot clear run the exact
        event sweep, once per chain.  The result is cached until the next
        commit.
        """
        cached = self._spans_cache
        if cached is not None:
            return list(cached)
        arrays = self.arrays
        classes = [cls for cls in self.classes if cls.length > 1]
        lid_parts = [cls.dec_lids for cls in classes]
        bg_lids = sorted(self._bg_by_lid)
        if bg_lids:
            lid_parts.append(np.array(bg_lids, dtype=np.int64))
        if not lid_parts:
            self._spans_cache = ()
            return []
        touched = np.unique(np.concatenate(lid_parts))
        batch = _Batch(arrays.demand)
        for cls in classes:
            batch.add_class(cls, cls.dec_offsets, touched.searchsorted(cls.dec_lids))
        for lid in bg_lids:
            batch.add_background(int(touched.searchsorted(lid)), self._bg_by_lid[lid])
        columns = batch.columns()
        needs_exact = self._prefilter(touched.size, arrays.capacity[touched], *columns)
        spans: List[CongestionSpan] = []
        if needs_exact is not None:
            for flagged in needs_exact.nonzero()[0].tolist():
                lid = int(touched[flagged])
                # Whichever class crosses the link crosses its whole chain.
                chain = [lid], [0]
                for cls in classes:
                    at = (cls.dec_lids == lid).nonzero()[0]
                    if at.size:
                        chain = cls.chain_at(int(cls.dec_pos[at[0]]))
                        break
                self._sweep_chain(*chain, flagged, columns, spans)
        spans.sort(key=lambda span: (span.start, span.link))
        self._spans_cache = tuple(spans)
        return spans

    def congested_timed_link_count(self) -> int:
        return sum(span.timed_link_count for span in self.congestion_spans())

    def finite_drain_horizon(self) -> Optional[int]:
        horizon: Optional[int] = None
        for cid in sorted(self._alive):
            cls = self._classes[cid]
            if cls.hi is None:
                continue
            last = cls.hi + cls.last_offset
            horizon = last if horizon is None else max(horizon, last)
        return horizon

    @property
    def ok(self) -> bool:
        return not (self.loops or self.blackholes or self.congestion_spans())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_round_args(self, nodes: Sequence[Node], time: int) -> None:
        if not nodes:
            raise ValueError("an update round needs at least one switch")
        if self._last_time is not None and time < self._last_time:
            raise ValueError(
                f"rounds must be applied chronologically ({time} < {self._last_time})"
            )
        for node in nodes:
            if node in self._applied:
                raise ValueError(f"switch {node!r} was already updated")
            if node == self.instance.destination:
                raise ValueError("the destination switch is never updated")

    def _split(self, nodes: Sequence[Node], time: int, witness: bool = False):
        """Columnar port of :meth:`IntervalTracker._split`.

        Class iteration order (ascending id), threshold arithmetic and the
        emission-axis partition match the dict tracker exactly; only the
        hit scan (each class's junction index) and the routing (flat next-hop
        tables, walked run by run) differ mechanically.  ``pieces`` pairs
        every replacement piece -- trims and deflections, in split order --
        with its parent, the shape :mod:`repro.core.search` reads from
        either tracker.
        """
        report = RoundReport(time=time, nodes=tuple(nodes))
        arrays = self.arrays
        id_of = arrays.id_of
        round_ids = [id_of[node] for node in nodes]
        moved = self._moved
        added = [i for i in round_ids if i not in moved]
        moved.update(added)
        try:
            pieces: List[Tuple[ArrayFlowClass, ArrayFlowClass]] = []
            trims: List[Tuple[int, ArrayFlowClass]] = []
            deflected: List[ArrayFlowClass] = []
            removed: Set[int] = set()
            for cid in sorted(self._alive):
                cls = self._classes[cid]
                hits = self._hits(cls, round_ids)
                if not hits:
                    continue
                split = self._split_class(cls, hits, time, report)
                if witness and (report.loops or report.blackholes):
                    break
                if split is None:
                    continue
                trim, fresh = split
                removed.add(cid)
                if trim is not None:
                    trims.append((cid, trim))
                    pieces.append((trim, cls))
                for piece in fresh:
                    deflected.append(piece)
                    pieces.append((piece, cls))
        finally:
            moved.difference_update(added)
        return pieces, trims, deflected, removed, report

    def _hits(self, cls: ArrayFlowClass, round_ids: List[int]) -> List[int]:
        """Ascending positions at which ``cls`` can deflect on the round.

        A junction is found through the class's junction index; an interior
        switch (a round may name one although its rule stays) sits a fixed
        number of hops after the junction its chain leaves, if the class
        took that exit.  The final position of a looped trajectory is where
        the unit was killed (the revisit) and deflects nothing, so only a
        black-holed trajectory can be hit on its last switch, which no link
        leaves.
        """
        arrays = self.arrays
        where = cls.junction_positions()
        hits: Set[int] = set()
        for node in round_ids:
            position = where.get(node)
            if position is None and arrays.interior[node]:
                at = arrays.old_pos[node]
                exit_at = arrays.junctions[bisect_right(arrays.junctions, at) - 1]
                position = where.get(arrays.path_ids[exit_at])
                if position is not None:
                    position += at - exit_at
                    if position >= cls.length or cls.node_at(position) != node:
                        position = None
            if position is not None:
                hits.add(position)
        if cls.outcome == BLACKHOLE and cls.last_node in round_ids:
            hits.add(cls.length - 1)
        return sorted(hits)

    def _split_class(
        self, cls: ArrayFlowClass, hits: List[int], time: int, report: RoundReport
    ):
        thresholds = [(time - cls.offset_at(i), i) for i in hits]
        relevant = [
            (threshold, i)
            for threshold, i in thresholds
            if cls.hi is None or threshold <= cls.hi
        ]
        if not relevant:
            return None

        trim: Optional[ArrayFlowClass] = None
        deflected: List[ArrayFlowClass] = []

        lowest_threshold = min(threshold for threshold, _ in relevant)
        keep_hi = lowest_threshold - 1
        if cls.lo is None or cls.lo <= keep_hi:
            trim = cls.trimmed(cls.lo, keep_hi if cls.hi is None else min(cls.hi, keep_hi))

        relevant.sort(key=lambda item: item[1])
        previous_threshold: Optional[int] = None
        names = self.arrays.names
        for threshold, index in relevant:
            lo = threshold
            hi = None if previous_threshold is None else previous_threshold - 1
            previous_threshold = threshold
            lo = lo if cls.lo is None else max(lo, cls.lo)
            if cls.hi is not None:
                hi = cls.hi if hi is None else min(hi, cls.hi)
            if hi is not None and lo > hi:
                continue
            with recorder.timer("deflect"):
                piece = self._deflect(cls, index, lo, hi)
            deflected.append(piece)
            if piece.outcome == LOOPED:
                report.loops.append((lo, names[piece.loop_node]))
            elif piece.outcome == BLACKHOLE:
                report.blackholes.append((lo, names[piece.last_node]))
        return trim, deflected

    def _deflect(
        self, cls: ArrayFlowClass, index: int, lo: Optional[int], hi: Optional[int]
    ) -> ArrayFlowClass:
        """Route a deflected piece from trajectory position ``index``.

        :func:`repro.core.intervals._route_from`, walked run by run: an
        interior successor brings its whole run as one old-path slice, and
        only the junction a run ends on is tested for a revisit.  That is
        exact because the first switch a route reaches twice is always a
        junction: an interior switch is entered from its one predecessor,
        which was then reached twice before it.  The suffix side of the
        test is a byte mask over the junctions, the prefix side the
        parent's junction index -- no O(prefix) ``set`` per deflection.

        The piece is built at run length too.  Its runs are the parent's up
        to ``index`` (one slice of three short lists) plus one entry per
        run routed here.  Its decisive entries are the parent's before
        ``index`` plus, per routed run, the link entering it (out of a
        junction, so decisive; only a route that starts on an interior asks
        the flag) and the decisive old-path links inside it, which two
        bisects cut out of the tracker's sorted ``_path_dec`` table -- no
        pass over the suffix, whose offsets are the run's base offset plus
        a difference of two old-path offsets.
        """
        arrays = self.arrays
        moved = self._moved
        dest = arrays.dest
        interior = arrays.interior
        next_old, old_rule_lid = arrays.next_old, arrays.old_rule_lid
        next_new, new_rule_lid = arrays.next_new, arrays.new_rule_lid
        old_pos = arrays.old_pos
        junctions = arrays.junctions
        link_delay = arrays.link_delay
        path_ids = arrays.path_ids
        path_offsets = arrays.path_offsets
        path_dec, path_dec_lids, path_dec_offsets = self._path_dec
        shared = bisect_right(cls.run_pos, index)
        run_pos = cls.run_pos[:shared]
        run_start = cls.run_start[:shared]
        run_off = cls.run_off[:shared]
        # Int arrays, not lists: numpy reads their buffers without a copy.
        dec_pos = array("q")
        dec_lids = array("q")
        dec_offsets = array("q")
        origin = current = cls.node_at(index)
        position = index
        offset = cls.offset_at(index)
        in_prefix = cls.junction_positions()
        mark = arrays._suffix_mark
        marked: List[int] = []
        budget = arrays.max_hops
        outcome = LOOPED
        loop_node: Optional[int] = None
        while budget:
            if current == dest:
                outcome = DELIVERED
                break
            if current in moved:
                nxt = next_new[current]
                lid = new_rule_lid[current]
            else:
                nxt = next_old[current]
                lid = old_rule_lid[current]
            if nxt < 0:
                outcome = BLACKHOLE
                break
            if not interior[current] or self._decisive[lid]:
                dec_pos.append(position)
                dec_lids.append(lid)
                dec_offsets.append(offset)
            position += 1
            run_pos.append(position)
            if interior[nxt]:
                start = old_pos[nxt]
                stop = min(junctions[bisect_left(junctions, start)], start + budget - 1)
                # An interior is entered over the old-path link before it.
                base = path_offsets[start]
                offset += base - path_offsets[start - 1]
                run_start.append(start)
                run_off.append(offset)
                first = bisect_left(path_dec, start)
                last = bisect_left(path_dec, stop, first)
                if first != last:
                    dec_pos.extend(at + (position - start) for at in path_dec[first:last])
                    dec_lids.extend(path_dec_lids[first:last])
                    dec_offsets.extend(
                        off + (offset - base) for off in path_dec_offsets[first:last]
                    )
                position += stop - start
                offset += path_offsets[stop] - base
                current = path_ids[stop]
                budget -= stop + 1 - start
            else:
                offset += link_delay[lid]
                at = old_pos[nxt]
                run_start.append(at if at >= 0 else ~nxt)
                run_off.append(offset)
                current = nxt
                budget -= 1
            if mark[current] or current == origin or in_prefix.get(current, index) < index:
                loop_node = current
                break
            mark[current] = 1
            marked.append(current)
        else:
            loop_node = current  # hop guard: treat as a loop
        for node in marked:
            mark[node] = 0
        if recorder.enabled:
            recorder.count("tracker.array.deflections")
            recorder.count("tracker.array.deflect_runs", len(run_pos) - shared)
            recorder.count("tracker.array.shared_runs", shared)

        keep = int(cls.dec_pos.searchsorted(index))
        return ArrayFlowClass(
            arrays,
            lo,
            hi,
            position + 1,
            (run_pos, run_start, run_off),
            tuple(
                np.concatenate((kept[:keep], np.frombuffer(routed, dtype=np.int64)))
                for kept, routed in (
                    (cls.dec_pos, dec_pos),
                    (cls.dec_lids, dec_lids),
                    (cls.dec_offsets, dec_offsets),
                )
            ),
            (current, offset),
            outcome,
            loop_node,
            fresh_from=index,
        )

    @staticmethod
    def _class_positions_on(cls: ArrayFlowClass, anchors, behind):
        """``(positions, offsets, touched index per hit)`` of ``cls`` on touched links.

        Touched link ``i`` lies ``behind[0][i]`` hops and ``behind[1][i]``
        delay after the decisive link ``anchors[i]`` of its chain (``behind
        is None``: every touched link is its own anchor), and a class that
        crosses the anchor crosses the chain, so the class's sorted decisive
        table answers for both.  A trajectory crosses a link at most once
        (it never leaves a switch twice), so hits come back one per link in
        ascending touched order -- the dict tracker's iteration order.
        """
        sorted_lids, positions, offsets = cls.sorted_decisive()
        if not sorted_lids.size:
            return None, None, None
        slot = np.minimum(sorted_lids.searchsorted(anchors), sorted_lids.size - 1)
        ti = (sorted_lids[slot] == anchors).nonzero()[0]
        if not ti.size:
            return None, None, None
        at = slot[ti]
        if behind is None:
            return positions[at], offsets[at], ti
        ranks, shifts = behind
        return positions[at] + ranks[ti], offsets[at] + shifts[ti], ti

    def _check_new_congestion(
        self,
        pieces: List[Tuple[ArrayFlowClass, ArrayFlowClass]],
        removed: Set[int],
        report: RoundReport,
        witness: bool = False,
    ) -> None:
        """Batched port of :meth:`IntervalTracker._check_new_congestion`.

        Same contributions (committed classes, background, fresh suffixes,
        piece prefixes) and the same per-link decision as the dict tracker
        -- but gathered only for the *decisive* links on the fresh suffixes
        and taken for all of them in one vectorised pass.  A non-decisive
        fresh link carries its predecessor's intervals shifted by one
        constant, in the same order, against the same capacity, so its
        decision is its predecessor's (module docstring, "Chains"); the
        first fresh link of every piece is decided whatever its flag,
        because the piece's own load reaches it as fresh load and its
        predecessor as prefix load.  When the prefilter cannot prove a
        decisive link clean its chain runs the exact sweep, on the interval
        list in the dict tracker's order and in the dict tracker's
        first-touch order, so span output is bitwise identical.
        """
        arrays = self.arrays
        lid_parts: List["np.ndarray"] = []
        # First fresh links that are not decisive by flag: lid -> the
        # decisive link heading its chain, hops and delay between them.
        forced: Dict[int, Tuple[int, int, int]] = {}
        for piece, _parent in pieces:
            start = piece.fresh_from
            if start >= piece.length - 1:
                continue
            dec_pos = piece.dec_pos
            first = int(dec_pos.searchsorted(start))
            lid_parts.append(piece.dec_lids[first:])
            if first == dec_pos.size or int(dec_pos[first]) != start:
                # The piece starts on a chain interior: its first link is
                # that switch's (unchanged) rule.
                lid = arrays.old_rule_lid[piece.node_at(start)]
                forced[lid] = self._chain_head(lid)
        if not lid_parts:
            return
        if forced:
            lid_parts.append(np.array(list(forced), dtype=np.int64))
        touched = np.unique(np.concatenate(lid_parts))
        T = touched.size
        cap_t = arrays.capacity[touched]
        anchors, behind = touched, None
        if forced:
            anchors = touched.copy()
            behind = ranks, shifts = np.zeros((2, T), dtype=np.int64)
            for lid, (anchor, rank, shift) in forced.items():
                at = int(touched.searchsorted(lid))
                anchors[at] = anchor
                ranks[at] = rank
                shifts[at] = shift

        batch = _Batch(arrays.demand)
        # Committed classes (ascending id, split parents excluded).
        other_counts = np.zeros(T, dtype=np.int64)
        for cid in sorted(self._alive):
            if cid in removed:
                continue
            cls = self._classes[cid]
            positions, offsets, ti = self._class_positions_on(cls, anchors, behind)
            if positions is not None:
                batch.add_class(cls, offsets, ti)
                other_counts[ti] += 1
        # Background load.
        if self._bg_by_lid:
            for ti_scalar, lid in enumerate(touched.tolist()):
                triples = self._bg_by_lid.get(lid)
                if triples:
                    batch.add_background(ti_scalar, triples)
                    other_counts[ti_scalar] += len(triples)
        # Fresh suffixes, then piece prefixes on touched links, each in
        # piece order.  The dict tracker appends prefix contributions into
        # the same per-link "fresh" lists as the suffixes, so they count
        # towards its multiply shortcut rather than as committed load.
        fresh_hits = []
        prefix_hits = []
        for piece, _parent in pieces:
            positions, offsets, ti = self._class_positions_on(piece, anchors, behind)
            if positions is None:
                continue
            fresh = positions >= piece.fresh_from
            if fresh.all():
                fresh_hits.append((piece, positions, offsets, ti))
            elif not fresh.any():
                prefix_hits.append((piece, positions, offsets, ti))
            else:
                fresh_hits.append((piece, positions[fresh], offsets[fresh], ti[fresh]))
                prefix_hits.append((piece, positions[~fresh], offsets[~fresh], ti[~fresh]))
        fresh_counts = np.zeros(T, dtype=np.int64)
        for piece, _positions, offsets, ti in fresh_hits + prefix_hits:
            batch.add_class(piece, offsets, ti)
            fresh_counts[ti] += 1

        columns = batch.columns()
        if recorder.enabled:
            recorder.count("tracker.array.batched_links", T)
            recorder.count("tracker.array.batched_intervals", int(columns[0].size))
        needs_exact = self._prefilter(
            T,
            cap_t,
            *columns,
            fresh_only_counts=np.where(other_counts == 0, fresh_counts, 0),
        )
        if needs_exact is None:
            return
        # Exact sweeps, chain by chain in the dict tracker's first-touch
        # order: a link's rank there is its index in the concatenation of
        # all fresh suffixes, which the first piece that carries it fresh
        # fixes -- and a chain's links are consecutive in that piece.
        chains = []
        for flagged in needs_exact.nonzero()[0].tolist():
            before = 0
            for piece, positions, _offsets, ti in fresh_hits:
                at = (ti == flagged).nonzero()[0]
                if at.size:
                    position = int(positions[at[0]])
                    chain, shifts = piece.chain_at(position)
                    # Another piece's forced first link is decided apart.
                    for cut in range(1, len(chain)):
                        if chain[cut] in forced:
                            del chain[cut:], shifts[cut:]
                            break
                    chains.append((before + position, chain, shifts, flagged))
                    break
                before += piece.length - 1
        chains.sort(key=lambda item: item[0])
        for _rank, chain, shifts, flagged in chains:
            self._sweep_chain(chain, shifts, flagged, columns, report.congestion)
            if witness and report.congestion:
                return

    def _sweep_chain(self, chain, shifts, flagged: int, columns, spans) -> None:
        """Exact spans of every link in ``chain``, appended to ``spans``.

        The chain's first link is touched link ``flagged``; its rows of the
        batch ``columns`` are its interval list in the dict tracker's exact
        order (committed classes ascending id, background, then fresh
        suffixes and prefixes in piece order), so the event sweep's float
        accumulation sequence -- and thus its spans -- is reproduced
        exactly.  One sweep serves the chain: link ``i`` carries the first
        link's intervals ``shifts[i]`` later, in the same order, against the
        same capacity, so its spans are the first link's moved by that much
        -- and only then clipped at ``t0``, which does not move.
        """
        arrays = self.arrays
        if recorder.enabled:
            recorder.count("tracker.array.exact_sweeps")
            if len(chain) > 1:
                recorder.count("tracker.array.chains_expanded")
        ti_all, lo_all, hi_all, load_all = columns
        rows = (ti_all == flagged).nonzero()[0]
        intervals = [
            (None if lo == _NEG_CLAMP else lo, None if hi == _POS_CLAMP else hi, load)
            for lo, hi, load in zip(
                lo_all[rows].tolist(), hi_all[rows].tolist(), load_all[rows].tolist()
            )
        ]
        unclipped = _sweep_link(
            arrays.link_name[chain[0]],
            float(arrays.capacity[chain[0]]),
            intervals,
            _NEG_CLAMP,
        )
        if not unclipped:
            return
        if all(lo is None and hi is None for lo, hi, _ in intervals):
            # Nothing finite to be relative to: the sweep then stands its
            # infinities at fixed coordinates, the same on every link.
            shifts = [0] * len(chain)
        t0 = self.t0
        for lid, shift in zip(chain, shifts):
            link = arrays.link_name[lid]
            for span in unclipped:
                start = max(span.start + shift, t0)
                end = span.end + shift
                if end >= start:
                    spans.append(
                        CongestionSpan(link, start, end, span.load, span.capacity)
                    )

    def _prefilter(
        self,
        T: int,
        cap_t,
        ti_all,
        lo_all,
        hi_all,
        load_all,
        fresh_only_counts=None,
    ):
        """Vectorised per-link congestion decision.

        Returns ``None`` when every link is provably clean, else a bool
        array over the touched links marking those that need the exact
        sweep.  Mirrors the dict tracker's fast exits: total load within
        capacity, and lo-sorted pairwise-disjoint intervals none of which
        exceeds capacity on its own.  ``fresh_only_counts`` reproduces the
        dict tracker's pre-sweep multiply shortcut (``count * demand``)
        on links carrying nothing but fresh load, so boundary-exact float
        behaviour matches even for irrational demands.
        """
        totals = np.bincount(ti_all, weights=load_all, minlength=T)
        over = totals > cap_t + _EPS
        if fresh_only_counts is not None:
            fresh_only = fresh_only_counts > 0
            if bool(fresh_only.any()):
                over = over & (
                    ~fresh_only
                    | (fresh_only_counts * self.arrays.demand > cap_t + _EPS)
                )
        if not bool(over.any()):
            return None
        sel = over[ti_all]
        ti_s = ti_all[sel]
        lo_s = lo_all[sel]
        hi_s = hi_all[sel]
        load_s = load_all[sel]
        nonempty = lo_s <= hi_s
        ti_s = ti_s[nonempty]
        lo_s = lo_s[nonempty]
        hi_s = hi_s[nonempty]
        load_s = load_s[nonempty]
        fail = np.zeros(T, dtype=bool)
        oversized = load_s > cap_t[ti_s] + _EPS
        fail[ti_s[oversized]] = True
        if ti_s.size > 1:
            order = np.lexsort((lo_s, ti_s))
            tj = ti_s[order]
            lo_j = lo_s[order]
            hi_j = hi_s[order]
            overlap = (tj[1:] == tj[:-1]) & (lo_j[1:] <= hi_j[:-1])
            fail[tj[1:][overlap]] = True
        return fail if bool(fail.any()) else None

    def _commit(
        self,
        nodes: Sequence[Node],
        time: int,
        trims: List[Tuple[int, ArrayFlowClass]],
        deflected: List[ArrayFlowClass],
        removed: Set[int],
    ) -> None:
        classes = self._classes
        trimmed = set()
        for cid, trim in trims:
            classes[cid] = trim
            trimmed.add(cid)
        for cid in removed:
            if cid not in trimmed:
                self._alive.discard(cid)
        for piece in deflected:
            self._add_class(piece)
        arrays = self.arrays
        for node in nodes:
            self._applied[node] = time
            self._moved.add(arrays.id_of[node])
        self._last_time = time
        self._spans_cache = None

    def _add_class(self, cls: ArrayFlowClass) -> int:
        cid = self._next_id
        self._next_id += 1
        self._classes[cid] = cls
        self._alive.add(cid)
        return cid
