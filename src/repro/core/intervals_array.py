"""Struct-of-arrays flow tracking: the long-trajectory hot path.

:class:`repro.core.intervals.IntervalTracker` keeps each flow class as a
tuple-of-tuples Python object and answers congestion probes by walking
per-link position dicts.  That representation is exact but pays a Python
-level cost proportional to trajectory *length* for every class created --
and trajectories are O(n) while classes are few (a greedy run at n=4000
creates ~80 classes over ~4000-hop paths).  This module stores the same
state column-wise:

* **Per instance** (computed once, shared by every tracker):
  the switch ids and old/new next-hop tables of
  :func:`repro.core.rounds.union_graph_ids`, sorted link keys
  (``src_id * n + dst_id``) with parallel delay/capacity columns, the old
  path as id / link / offset columns, and the chain skeleton below.
* **Per class** (:class:`ArrayFlowClass`): scalar emission bounds, the
  trajectory as a short list of *runs* (an old-path slice or a single
  switch, each with its base position and base offset) and the positions,
  ids and offsets of its decisive links as ``array('q')`` columns --
  O(junctions), never O(path).  Splitting shares structurally: a trim
  reuses its parent's tables outright, a deflected piece takes the
  parent's runs up to the hit, walks its detour and, where that rejoins
  the parent's route past the round's last hit on it, copies the
  parent's tail instead of walking it; the full-length switch ids exist
  only as an on-demand view (:meth:`ArrayFlowClass.view`) no probe builds.
  Each class also answers, through one lazy dict
  (:meth:`ArrayFlowClass.decisive_offsets`), when its load leaves over
  any decisive link it crosses; a deflected piece takes its parent's dict
  up to the hit.
* **Per probe**: the decisive links the round's fresh suffixes touch, each
  decided in plain Python from those dicts the way the dict tracker
  decides a link -- a total-load test and a disjointness test
  (:func:`_needs_sweep`).  Only chains whose decisive link fails both fall
  back to the exact event sweep (:func:`repro.core.intervals._overloads`),
  on the interval list in the dict tracker's exact order so reported spans
  are bitwise identical.

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
   through the link out of it in the class's decisive dict
   (:meth:`ArrayIntervalTracker._hits`);
2. a link whose source is interior, whose capacity equals its predecessor
   link's, and which like that predecessor carries no background load is
   **not decisive**: it sees the predecessor's intervals shifted by one
   constant, in the same contribution order, against an equal capacity, so
   its congestion decision *is* the predecessor's.  Class lookups, probes
   and :meth:`ArrayIntervalTracker.congestion_spans` hold and decide
   decisive links only;
3. when a decisive link does need the exact sweep, the non-decisive links
   after it report the same spans moved by their constant, so one sweep
   serves the chain (:meth:`ArrayIntervalTracker._sweep_chain`).

Both layouts are production code: every deflection here pays a fixed
cost for its run and decisive tables and every class for its lookup
dicts, so on short trajectories the dict tracker is the faster of the two
and :func:`repro.core.tracker.make_tracker` builds that one instead.
``tests/test_array_tracker.py`` drives both in lockstep and compares
every report byte-for-byte -- except a refused ``probe_and_commit``, whose
report is a witness (a prefix of the full report, which *is* byte-equal):
the dict tracker's congestion witness ends with a link, this one's with a
chain.

Everything here is plain Python over ``array`` columns, lists, bytes and
dicts: one representation per column, and no third-party import.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import add, eq, gt, le, ne
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
    _RoundTracker,
    _note_outcome,
    _open_end,
    _overloads,
    _partition,
)
from repro.core.rounds import union_graph_ids
from repro.network.graph import Node
from repro.trace.recorder import recorder

_CACHE_ATTR = "_soa_arrays"


class InstanceArrays:
    """Immutable id-space encoding of one :class:`UpdateInstance`.

    Built once per instance (cached on the instance object, like its
    ``cached_property`` fields) and shared by every tracker.
    Switch ids and next-hop tables are the instance's
    :class:`~repro.core.rounds.UnionGraphIds`, shared, not copied.  Also
    owns the routing scratch buffer: a byte mask over the switch ids,
    zeroed again after every use, so probing rounds allocates nothing
    proportional to the network.
    """

    __slots__ = (
        "names",
        "id_of",
        "n_nodes",
        "link_key",
        "link_capacity",
        "link_delay",
        "link_name",
        "demand",
        "dest",
        "next_old",
        "next_new",
        "max_hops",
        "path_ids",
        "path_lids",
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
        graph = union_graph_ids(instance)
        names = self.names = graph.names
        id_of = self.id_of = graph.id_of
        next_old = self.next_old = graph.next_old
        next_new = self.next_new = graph.next_new
        n = self.n_nodes = graph.n

        # Every column is built by whole-column passes (``map`` / ``zip``
        # / ``compress``) into a list, then copied into its compact array:
        # an array indexes like a list (to Python numbers) at an eighth of
        # its footprint, for the routing loop and the congestion check.
        # Link ids ascend with ``src_id * n + dst_id``; the network's two
        # maps share one key order, the links' insertion order, and each
        # link column is that order permuted by one sort of the keys.
        network = instance.network
        delays = network.delay_map()
        keys = [id_of[src] * n + id_of[dst] for src, dst in delays]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        keys.sort()
        self.link_key = array("q", keys)
        self.link_name = tuple(map(list(delays).__getitem__, order))
        self.link_delay = array("q", list(map(list(delays.values()).__getitem__, order)))
        capacity = list(map(list(network.capacity_map().values()).__getitem__, order))
        self.link_capacity = array("d", capacity)

        # A rule's link id is its key's rank: one lookup per switch for the
        # old rules (``src * n - 1`` of a switch without one may be a real
        # key, so those are reset), and the new rules are the old ones
        # except at the switches whose next hop changes.
        lid_of = dict(zip(keys, range(len(keys))))
        rule_keys = map(add, range(0, n * n, n), next_old)
        old_rule_lid = list(map(lid_of.get, rule_keys, repeat(-1)))
        for node in compress(range(n), map(eq, next_old, repeat(-1))):
            old_rule_lid[node] = -1
        changed = list(compress(range(n), map(ne, next_old, next_new)))
        new_rule_lid = old_rule_lid.copy()
        for node in changed:
            hop = next_new[node]
            new_rule_lid[node] = lid_of[node * n + hop] if hop >= 0 else -1
        self.old_rule_lid = array("q", old_rule_lid)
        self.new_rule_lid = array("q", new_rule_lid)

        self.demand = float(instance.demand)
        self.dest = id_of[instance.destination]
        self.max_hops = n + 1
        path = list(map(id_of.__getitem__, instance.old_path))
        self.path_ids = array("i", path)
        # Every old-path hop is an old rule; offsets are the instance's.
        lids = list(map(old_rule_lid.__getitem__, path[:-1]))
        self.path_lids = array("q", lids)
        self.path_offsets = array("q", list(instance.old_path_offsets.values()))
        self._suffix_mark = bytearray(n)
        self._build_chains(instance, changed, lids, capacity)

    def _build_chains(self, instance: UpdateInstance, changed, lids, capacity) -> None:
        """The chain skeleton (module docstring, "Chains").

        Only old-path switches are taken as interiors, so every chain is a
        contiguous slice of the old path and a *run* -- the nodes from a
        junction's successor to the next junction inclusive -- is the
        old-path slice from its first node to the next entry of
        ``junctions`` (the junctions' old-path positions, ascending).
        ``decisive`` holds the instance's share of the flag (interior
        source, capacity equal to the link before), one byte per link id;
        trackers with background load add theirs to a copy.

        Built from the exceptions, which are few on a long path: a switch
        past the source on the old path is interior unless its rule
        changes, a second old rule or a changed new rule leads into it, or
        it is the destination (which has no rule).
        """
        next_old, next_new = self.next_old, self.next_new
        old_pos = list(map(instance.old_path_index.get, self.names, repeat(-1)))
        targets = sorted(compress(next_old, map(ne, next_old, repeat(-1))))
        exceptions = {
            self.dest,
            *changed,
            *compress(targets[1:], map(eq, targets[1:], targets)),
            *map(next_new.__getitem__, changed),
        }
        exceptions.discard(-1)
        interior = bytearray(map(gt, old_pos, repeat(0)))
        for node in exceptions:
            interior[node] = 0
        self.interior = bytes(interior)

        # Scalar-indexed in the routing loop, like ``path_ids``.
        self.old_pos = array("q", old_pos)
        junctions = sorted({0, *map(old_pos.__getitem__, exceptions)} - {-1})
        self.junctions = array("q", junctions)

        # A path link out of an interior switch with the capacity of the
        # link before is not decisive: every link between two consecutive
        # breaks (junctions, capacity changes) after the first.
        path_capacity = list(map(capacity.__getitem__, lids))
        steps = compress(range(1, len(lids)), map(ne, path_capacity[1:], path_capacity))
        breaks = sorted({*junctions, *steps})
        decisive = bytearray(b"\x01") * len(capacity)
        for start, stop in zip(breaks, breaks[1:]):
            for lid in lids[start + 1 : stop]:
                decisive[lid] = 0
        self.decisive = decisive
        self.path_dec = self._path_table(breaks[:-1])

    def decisive_path(self, decisive) -> Tuple[List[int], List[int], List[int]]:
        """The old-path links flagged in ``decisive`` (a byte per link id).

        ``(old-path positions, link ids, departure offsets)`` as parallel
        lists, in path order: the one table a routed run bisects for its
        decisive entries (O(junctions) long, whatever the path), and the
        decisive tables of the initial class.
        """
        flags = map(list(decisive).__getitem__, self.path_lids)
        return self._path_table(list(compress(range(len(self.path_lids)), flags)))

    def _path_table(self, at: List[int]) -> Tuple[List[int], List[int], List[int]]:
        """:meth:`decisive_path` of the old-path positions ``at``."""
        lids, offsets = self.path_lids, self.path_offsets
        return at, list(map(lids.__getitem__, at)), list(map(offsets.__getitem__, at))

    def lid_of(self, src: Node, dst: Node) -> Optional[int]:
        """Link id of ``src -> dst``, or ``None`` when absent."""
        sid = self.id_of.get(src)
        did = self.id_of.get(dst)
        if sid is None or did is None:
            return None
        key = sid * self.n_nodes + did
        pos = bisect_left(self.link_key, key)
        if pos == len(self.link_key) or self.link_key[pos] != key:
            return None
        return pos


def instance_arrays(instance: UpdateInstance) -> InstanceArrays:
    """The cached :class:`InstanceArrays` of ``instance``."""
    cached = getattr(instance, _CACHE_ATTR, None)
    if cached is None:
        cached = InstanceArrays(instance)
        object.__setattr__(instance, _CACHE_ATTR, cached)
    return cached


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
    ascending), ids (``dec_lids``) and departure offsets (``dec_offsets``,
    ascending) of the class's decisive links as int arrays (``array('q')``:
    bisected and sliced in plain Python), and the
    switch and offset the trajectory ends on.  Nothing here is as long as
    the path; :meth:`view` builds the full-length switch ids for the few
    readers that want them.  A piece's
    fresh suffix starts at position ``fresh_from``, at departure offset
    ``fresh_offset`` (``_POS_CLAMP`` for a trim, which has none) and at
    entry ``fresh_dec`` of the decisive tables.

    Instances are immutable by convention.  A trim shares every table of
    its parent, a deflected piece takes the parent's runs up to the hit by
    one slice of the run lists (a cut inside a run needs no new entry: a
    run's length is read off its successor) and, where its route rejoins
    the parent's, the parent's entries after the junction it rejoins at
    (:meth:`ArrayIntervalTracker._deflect`), which is what makes a commit
    O(touched state).
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
        "fresh_offset",
        "fresh_dec",
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
        fresh: Tuple[int, int, int] = (0, 0, 0),
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
        self.fresh_from, self.fresh_offset, self.fresh_dec = fresh
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
            fresh=(self.length, _POS_CLAMP, len(self.dec_lids)),
            lazy=self._lazy,
        )

    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def loop_switch(self) -> Node:
        """The revisited switch of a ``"looped"`` trajectory."""
        return self.arrays.names[self.loop_node]

    def last_switch(self) -> Node:
        """The switch the trajectory ends on."""
        return self.arrays.names[self.last_node]

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

    def view(self) -> array:
        """The trajectory's switch ids at full length, from the runs.

        O(path) to build and to hold (cached, shared with trims): for the
        exact search's signature and rescuer questions and for tests,
        never for a probe -- ``tracker.array.materialised`` counts the
        builds and stays 0 on the greedy and replay paths.  A position's
        cumulative delay is :meth:`offset_at`'s.
        """
        view = self._lazy.get("view")
        if view is None:
            if recorder.enabled:
                recorder.count("tracker.array.materialised")
            path_ids = self.arrays.path_ids
            view = array("i")
            ends = self.run_pos[1:] + [self.length]
            for pos, start, end in zip(self.run_pos, self.run_start, ends):
                if start < 0:
                    view.append(~start)
                else:
                    view += path_ids[start : start + end - pos]
            self._lazy["view"] = view
        return view

    def switch_names(self) -> List[Node]:
        """The trajectory's switches, source first (off :meth:`view`)."""
        names = self.arrays.names
        return [names[i] for i in self.view()]

    def trajectory_key(self) -> bytes:
        """A hashable value equal between classes of equal trajectory."""
        return self.view().tobytes()

    def decisive_offsets(self) -> Dict[int, int]:
        """``link id -> departure offset`` of every decisive link it crosses.

        The one question a congestion check asks a class -- when, if at
        all, does its load leave over this decisive link -- as one dict
        lookup (a trajectory crosses a link at most once).  Link delays are
        positive, so along one trajectory offsets order links as positions
        do.  Lazy, shared with trims; kept in trajectory order, so a
        deflected piece whose parent has its table takes that table's first
        entries (its prefix) and adds the links it routed.
        """
        table = self._lazy.get("offsets")
        if table is None:
            parent = self._lazy.pop("base", None)
            if parent is None:
                table = dict(zip(self.dec_lids, self.dec_offsets))
            else:
                keep = self.fresh_dec
                table = dict(itertools.islice(parent.items(), keep))
                table.update(
                    zip(
                        itertools.islice(self.dec_lids, keep, None),
                        itertools.islice(self.dec_offsets, keep, None),
                    )
                )
            self._lazy["offsets"] = table
        return table

    def position_of(self, lid: int) -> int:
        """The trajectory position of decisive link ``lid``, which it crosses."""
        return self.position_leaving(self.decisive_offsets()[lid])

    def position_leaving(self, offset: int) -> int:
        """The position of the decisive link the class leaves at ``offset``.

        Departure offsets ascend with positions: one bisect.
        """
        return self.dec_pos[bisect_left(self.dec_offsets, offset)]

    def leaves(self, node: int) -> Optional[int]:
        """The offset at which the trajectory leaves switch ``node`` over a
        decisive link, ``None`` if it does not.

        A trajectory leaves a switch by one of the switch's two rules, so
        this is a lookup of their links in :meth:`decisive_offsets`; every
        junction it leaves is found (a link out of a junction is decisive).
        """
        arrays = self.arrays
        table = self.decisive_offsets()
        offset = table.get(arrays.old_rule_lid[node])
        if offset is None:
            offset = table.get(arrays.new_rule_lid[node])
        return offset

    def chain_at(self, position: int) -> Tuple[List[int], List[int]]:
        """The link at ``position`` and the non-decisive links after it.

        Returns their ids and, per link, its departure offset relative to
        the first -- the constant by which its intervals trail that link's.
        A non-decisive link leaves a chain interior, so whatever follows
        the decisive link heading the chain is consecutive old-path links
        and both columns are slices of the instance's.
        """
        arrays = self.arrays
        dec_pos = self.dec_pos
        following = bisect_right(dec_pos, position)
        stop = dec_pos[following] if following < len(dec_pos) else self.length - 1
        head = following - 1
        head_lid = self.dec_lids[head]
        behind = position - dec_pos[head]
        count = stop - position
        if count == 1 and not behind:
            return [head_lid], [0]
        # The head then enters an interior: it is the old-path link before it.
        entered = arrays.link_key[head_lid] % arrays.n_nodes
        first = arrays.old_pos[entered] - 1 + behind
        base = arrays.path_offsets[first]
        return (
            arrays.path_lids[first : first + count].tolist(),
            [offset - base for offset in arrays.path_offsets[first : first + count]],
        )


class ArrayIntervalTracker(_RoundTracker):
    """Drop-in :class:`IntervalTracker` replacement on the array layout.

    Same public surface and round protocol (:class:`repro.core.intervals.
    _RoundTracker`), same reports down to the byte (same verdict and a
    witness of the same report where a probe is refused); only the
    representation differs.
    """

    def __init__(
        self,
        instance: UpdateInstance,
        t0: int = 0,
        background: Optional[
            Dict[LinkKey, List[Tuple[Optional[int], Optional[int], float]]]
        ] = None,
    ) -> None:
        super().__init__(instance, t0, background)
        self.arrays = instance_arrays(instance)
        arrays = self.arrays
        # Ids of the applied switches: they forward by ``next_new``, every
        # other switch by ``next_old``.  A probe adds its round's ids for
        # the split and takes them out again, and an undo takes out its
        # commit's, so no tracker holds a table as long as the network.
        self._moved: Set[int] = set()
        self._spans_cache: Optional[Tuple[CongestionSpan, ...]] = None

        # Background rows per link id, open bounds clamped (``_needs_sweep``).
        self._bg_by_lid: Dict[int, List[Tuple[int, int, float]]] = {
            arrays.lid_of(src, dst): [
                (
                    _NEG_CLAMP if lo is None else int(lo),
                    _POS_CLAMP if hi is None else int(hi),
                    float(load),
                )
                for lo, hi, load in triples
            ]
            for (src, dst), triples in self.background.items()
        }
        # Background breaks a chain twice: the loaded link sees load its
        # predecessor does not, and the link after it sees less than it.
        # One byte per link id, read one link at a time by the routing loop.
        self._decisive = arrays.decisive
        self._path_dec = arrays.path_dec
        if self._bg_by_lid:
            self._decisive = arrays.decisive.copy()
            for lid in self._bg_by_lid:
                self._decisive[lid] = True
                after = arrays.new_rule_lid[arrays.link_key[lid] % arrays.n_nodes]
                if after >= 0:
                    self._decisive[after] = True
            self._path_dec = arrays.decisive_path(self._decisive)

        # The initial class: the old path as one run.
        self._add_class(
            ArrayFlowClass(
                arrays,
                None,
                None,
                len(arrays.path_ids),
                ([0], [0], [0]),
                tuple(array("q", column) for column in self._path_dec),
                (arrays.path_ids[-1], arrays.path_offsets[-1]),
            )
        )

    def crossings(self, src: Node, dst: Node) -> List[Tuple[ArrayFlowClass, int]]:
        """Every alive class crossing ``src -> dst`` with its departure offset there."""
        lid = self.arrays.lid_of(src, dst)
        if lid is None:
            return []
        head = self._chain_head(lid)
        found = []
        for cls in self.classes:
            offset = self._behind(cls, *head)
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
        at = arrays.old_pos[arrays.link_key[lid] // arrays.n_nodes]
        head = bisect_right(positions, at) - 1
        return (
            lids[head],
            at - positions[head],
            arrays.path_offsets[at] - offsets[head],
        )

    @staticmethod
    def _behind(cls: ArrayFlowClass, head: int, _rank: int, shift: int) -> Optional[int]:
        """``cls``'s departure offset on the link ``shift`` delay behind ``head``.

        ``head`` is a decisive link and the link lies on its chain
        (:meth:`_chain_head`).  The class crosses that link when it crosses
        ``head`` and leaves the link before its last switch -- only a
        hop-guarded route ends inside a chain -- and departs ``shift`` after
        it departs over ``head``; ``None`` otherwise.
        """
        offset = cls.decisive_offsets().get(head)
        if offset is None or offset + shift >= cls.last_offset:
            return None
        return offset + shift

    def crosses(self, cls: ArrayFlowClass, src: Node, dst: Node) -> bool:
        """Whether ``cls``'s trajectory traverses the link ``src -> dst``."""
        lid = self.arrays.lid_of(src, dst)
        return lid is not None and self._behind(cls, *self._chain_head(lid)) is not None

    # ------------------------------------------------------------------
    # global checks
    # ------------------------------------------------------------------
    def congestion_spans(self) -> List[CongestionSpan]:
        """All capacity violations of the committed state (cached).

        One pass over the alive classes' decisive links gathers every loaded
        decisive link's rows (classes ascending id, then background), and
        each link is decided as a probe decides it (:func:`_needs_sweep`);
        only a chain whose decisive link is not cleared runs the exact
        event sweep, once per chain.  The result is cached until the next
        commit.
        """
        cached = self._spans_cache
        if cached is not None:
            return list(cached)
        classes = self.classes
        rows_of: Dict[int, Tuple[List[int], List[int]]] = {}
        # The first class on each link: it crosses the link's whole chain.
        first: Dict[int, ArrayFlowClass] = {}
        for cls in classes:
            lo, hi = cls.lo, cls.hi
            for lid, offset in cls.decisive_offsets().items():
                rows = rows_of.get(lid)
                if rows is None:
                    rows = rows_of[lid] = ([], [])
                    first[lid] = cls
                rows[0].append(_NEG_CLAMP if lo is None else lo + offset)
                rows[1].append(_POS_CLAMP if hi is None else hi + offset)
        background = self._bg_by_lid
        for lid in background:
            rows_of.setdefault(lid, ([], []))
        demand = self.arrays.demand
        capacities = self.arrays.link_capacity
        ragged = any(cls.is_empty() for cls in classes)
        spans: List[CongestionSpan] = []
        for lid, (los, his) in rows_of.items():
            triples = background.get(lid, ())
            rows = los, his, len(los), triples
            if not _needs_sweep(*rows, demand, capacities[lid] + _EPS, ragged):
                continue
            cls = first.get(lid)
            if cls is None:
                chain = [lid], [0]
            else:
                chain = cls.chain_at(cls.position_of(lid))
            self._sweep_chain(*chain, _intervals(*rows, demand), spans)
        spans.sort(key=lambda span: (span.start, span.link))
        self._spans_cache = tuple(spans)
        return spans

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _split(self, nodes: Sequence[Node], time: int, witness: bool = False):
        """Columnar port of :meth:`IntervalTracker._split`.

        Class iteration order (ascending id) matches the dict tracker's and
        the emission-axis partition is the one both share
        (:func:`repro.core.intervals._partition`); only the hit scan (each
        class's decisive dict) and the routing (flat next-hop tables, walked
        run by run) differ.  ``pieces`` pairs
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

    def _hits(self, cls: ArrayFlowClass, round_ids: List[int]) -> List[Tuple[int, int]]:
        """Ascending ``(position, offset)`` at which ``cls`` can deflect on the round.

        A junction is found by :meth:`ArrayFlowClass.leaves`, which gives
        the offset, and the position is one bisect of the ascending offsets
        away.  An interior switch (a round may name one although its rule
        stays) sits a fixed number of hops after the junction its chain
        leaves, if the class took that exit.  The final position of a looped
        trajectory is where the unit was killed (the revisit) and deflects
        nothing, so only a black-holed trajectory can be hit on its last
        switch, which no link leaves.
        """
        arrays = self.arrays
        hits: Set[Tuple[int, int]] = set()
        for node in round_ids:
            offset = cls.leaves(node)
            if offset is not None:
                hits.add((cls.position_leaving(offset), offset))
            elif arrays.interior[node]:
                at = arrays.old_pos[node]
                exit_at = arrays.junctions[bisect_right(arrays.junctions, at) - 1]
                offset = cls.leaves(arrays.path_ids[exit_at])
                if offset is not None:
                    position = cls.position_leaving(offset) + at - exit_at
                    if position < cls.length and cls.node_at(position) == node:
                        hits.add((position, cls.offset_at(position)))
        if cls.outcome == BLACKHOLE and cls.last_node in round_ids:
            hits.add((cls.length - 1, cls.last_offset))
        return sorted(hits)

    def _split_class(
        self,
        cls: ArrayFlowClass,
        hits: List[Tuple[int, int]],
        time: int,
        report: RoundReport,
    ) -> Optional[Tuple[Optional[ArrayFlowClass], List[ArrayFlowClass]]]:
        """:func:`repro.core.intervals._split_class` on the hits
        :meth:`_hits` found: the same partition, pieces routed by
        :meth:`_deflect`."""
        offsets = dict(hits)  # ascending positions, as ``hits``
        partition = _partition(list(offsets), offsets, time, cls.lo, cls.hi)
        if partition is None:
            return None
        keep, spans = partition
        trim = None if keep is None else cls.trimmed(*keep)
        # Past its last hit a delivered class's route is the one every
        # switch forwards on now (:meth:`_deflect`, "Tails"); a piece that
        # rejoins it there takes the rest.
        rejoin_after = hits[-1][1] if cls.outcome == DELIVERED else cls.last_offset
        deflected: List[ArrayFlowClass] = []
        for index, lo, hi in spans:
            with recorder.timer("deflect"):
                piece = self._deflect(cls, index, lo, hi, rejoin_after)
            deflected.append(piece)
            _note_outcome(report, lo, piece)
        return trim, deflected

    def _deflect(
        self,
        cls: ArrayFlowClass,
        index: int,
        lo: Optional[int],
        hi: Optional[int],
        rejoin_after: int,
    ) -> ArrayFlowClass:
        """Route a deflected piece from trajectory position ``index``.

        :func:`repro.core.intervals._deflect`, walked run by run: an
        interior successor brings its whole run as one old-path slice, and
        only the junction a run ends on is tested for a revisit.  That is
        exact because the first switch a route reaches twice is always a
        junction: an interior switch is entered from its one predecessor,
        which was then reached twice before it.  The suffix side of the
        test is a byte mask over the junctions, the prefix side a lookup of
        the junction's two rule links in the parent's decisive dict (as
        :meth:`_hits` finds a switch) -- no O(prefix) ``set`` per
        deflection.

        The piece is built at run length too.  Its runs are the parent's up
        to ``index`` (one slice of three short lists) plus one entry per
        run routed here.  Its decisive entries are the parent's before
        ``index`` plus, per routed run, the link entering it (out of a
        junction, so decisive; only a route that starts on an interior asks
        the flag) and the decisive old-path links inside it, which two
        bisects cut out of the tracker's sorted ``_path_dec`` table -- no
        pass over the suffix, whose offsets are the run's base offset plus
        a difference of two old-path offsets.

        **Tails.**  When the walk reaches a junction the parent leaves at
        an offset past ``rejoin_after`` (position ``q``), the rest of the
        route is the parent's from ``q`` on, and the piece copies it -- the
        parent's run and decisive entries after ``q``, positions and
        offsets moved by one constant each -- instead of walking it.  The
        walk would have found exactly that, because three things hold
        there:

        1. the parent was delivered (``rejoin_after`` is its last offset
           otherwise, which no departure passes), so its route from ``q``
           ends at the destination;
        2. no switch past ``q`` forwards differently now than when the
           parent was routed.  A switch the round moves is a hit, and
           ``rejoin_after`` is the parent's last hit's offset.  A switch an earlier
           round moved at time ``t'`` and the parent kept lies where all
           of the parent's load had passed by ``t'``: ``hi + off(p) < t'``.
           This split is relevant, ``t - off(index) <= hi``, and rounds
           come in time order, ``t' <= t``; so ``off(p) < off(index)``
           and every such switch lies before the hit;
        3. no switch the piece walked lies past ``q`` on the parent.  By
           (2) a walk from such a switch follows the parent's route, and
           this one went on to the junction at ``q``: the parent would
           cross that junction twice.

        So (1) and (2) are tested and (3) follows from them.
        """
        arrays = self.arrays
        moved = self._moved
        decisive = self._decisive
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
        keep = bisect_left(cls.dec_pos, index)
        dec_pos = cls.dec_pos[:keep]
        dec_lids = cls.dec_lids[:keep]
        dec_offsets = cls.dec_offsets[:keep]
        # ``node_at`` and ``offset_at`` of the hit, off the run it cuts.
        start = run_start[-1]
        offset = run_off[-1]
        if start < 0:
            origin = ~start
        else:
            at = start + index - run_pos[-1]
            origin = path_ids[at]
            offset += path_offsets[at] - path_offsets[start]
        current, position, begin = origin, index, offset
        parent_table = cls.decisive_offsets()
        leaves = parent_table.get
        mark = arrays._suffix_mark
        marked: List[int] = []
        budget = arrays.max_hops
        outcome = LOOPED
        loop_node: Optional[int] = None
        rejoin: Optional[int] = None
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
            if not interior[current] or decisive[lid]:
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
                    dec_pos.extend([at + (position - start) for at in path_dec[first:last]])
                    dec_lids.extend(path_dec_lids[first:last])
                    dec_offsets.extend(
                        [off + (offset - base) for off in path_dec_offsets[first:last]]
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
            if mark[current] or current == origin:
                loop_node = current
                break
            # ``cls.leaves(current)``, inline: where the parent leaves this
            # junction, if it does.
            left = leaves(old_rule_lid[current])
            if left is None:
                left = leaves(new_rule_lid[current])
            if left is not None:
                if left > rejoin_after:
                    rejoin = left
                    break
                if left < begin:  # on the prefix
                    loop_node = current
                    break
            mark[current] = 1
            marked.append(current)
        else:
            loop_node = current  # hop guard: treat as a loop
        for node in marked:
            mark[node] = 0
        walked = len(run_pos) - shared
        if rejoin is not None:
            # The parent's entry for the link out of the junction, which the
            # piece leaves ``offset`` into its route.
            entry = bisect_left(cls.dec_offsets, rejoin)
            joined = cls.dec_pos[entry]  # ``cls.position_leaving(rejoin)``
            shift = position - joined
            delta = offset - rejoin
            parent_pos, parent_start, parent_off = cls.run_pos, cls.run_start, cls.run_off
            run = bisect_right(parent_pos, joined + 1) - 1
            if parent_pos[run] <= joined:
                # The junction is inside one of the parent's old-path runs:
                # the piece's next run starts one switch after it.
                start = parent_start[run] + joined + 1 - parent_pos[run]
                run_pos.append(position + 1)
                run_start.append(start)
                run_off.append(offset + path_offsets[start] - path_offsets[start - 1])
                run += 1
            run_pos += [at + shift for at in parent_pos[run:]]
            run_start += parent_start[run:]
            run_off += [off + delta for off in parent_off[run:]]
            dec_pos.extend([at + shift for at in cls.dec_pos[entry:]])
            dec_lids += cls.dec_lids[entry:]
            dec_offsets.extend([off + delta for off in cls.dec_offsets[entry:]])
            outcome = DELIVERED
            current = cls.last_node
            position = cls.length - 1 + shift
            offset = cls.last_offset + delta
        if recorder.enabled:
            recorder.count("tracker.array.deflections")
            recorder.count("tracker.array.deflect_runs", len(run_pos) - shared)
            recorder.count("tracker.array.shared_runs", shared)
            if rejoin is not None:
                recorder.count("tracker.array.tail_runs", len(run_pos) - shared - walked)

        return ArrayFlowClass(
            arrays,
            lo,
            hi,
            position + 1,
            (run_pos, run_start, run_off),
            (dec_pos, dec_lids, dec_offsets),
            (current, offset),
            outcome,
            loop_node,
            fresh=(index, begin, keep),
            lazy={"base": parent_table},
        )

    def _check_new_congestion(
        self,
        pieces: List[Tuple[ArrayFlowClass, ArrayFlowClass]],
        removed: Set[int],
        report: RoundReport,
        witness: bool = False,
    ) -> None:
        """:meth:`IntervalTracker._check_new_congestion` over decisive links.

        Same contributions (committed classes, background, fresh suffixes,
        piece prefixes) and the same per-link decision as the dict tracker
        -- but only for the *decisive* links on the fresh suffixes.  A
        non-decisive fresh link carries its predecessor's intervals shifted
        by one constant, in the same order, against the same capacity, so
        its decision is its predecessor's (module docstring, "Chains"); the
        first fresh link of every piece is decided whatever its flag,
        because the piece's own load reaches it as fresh load and its
        predecessor as prefix load.

        Each touched link's rows are gathered in plain Python, in the dict
        tracker's order, from the classes' :meth:`ArrayFlowClass.
        decisive_offsets`: the committed classes (ascending id, split
        parents left out), background, then each piece's load -- fresh where
        it leaves at or after the piece's fresh suffix begins, prefix before
        -- fresh rows first, each kind in piece order.  A link is clean when
        nothing else loads it and its fresh count times the demand fits, or
        when :func:`_needs_sweep` clears it.  Any other link has its chain
        run the exact sweep, in the dict tracker's first-touch order (the
        first piece carrying the link fresh, then the link's place there),
        so span output is bitwise identical.
        """
        arrays = self.arrays
        demand = arrays.demand
        # Each piece's bounds and table, and where its fresh suffix begins
        # as a departure offset: a link it leaves before that is on its
        # prefix, which it shares with its parent.
        tables = []
        # The decisive links on the fresh suffixes, and the first fresh
        # links that are not decisive by flag: lid -> the decisive link
        # heading its chain, hops and delay between them.
        touched: Set[int] = set()
        forced: Dict[int, Tuple[int, int, int]] = {}
        for piece, _parent in pieces:
            offsets = piece.decisive_offsets()
            begin = piece.fresh_offset
            tables.append((piece.lo, piece.hi, offsets, begin))
            start = piece.fresh_from
            if start >= piece.length - 1:
                continue
            touched.update(itertools.islice(offsets, piece.fresh_dec, None))
            fresh = itertools.islice(offsets.values(), piece.fresh_dec, None)
            if next(fresh, None) != begin:
                # The piece starts on a chain interior: its first link is
                # that switch's (unchanged) rule.
                lid = arrays.old_rule_lid[piece.node_at(start)]
                forced[lid] = self._chain_head(lid)
        touched.update(forced)

        classes = self._classes
        committed = []
        for cid in sorted(self._alive):
            if cid not in removed:
                cls = classes[cid]
                committed.append((cls.lo, cls.hi, cls.decisive_offsets()))
        # A class that emits nothing loads nothing: rows are sifted for it
        # only if one is present.
        ragged = any(
            lo is not None and hi is not None and lo > hi
            for lo, hi, *_table in itertools.chain(committed, tables)
        )
        background = self._bg_by_lid
        capacities = arrays.link_capacity
        neg, pos = _NEG_CLAMP, _POS_CLAMP
        flagged = []
        for lid in touched:
            head, _rank, shift = forced[lid] if lid in forced else (lid, 0, 0)
            los: List[int] = []
            his: List[int] = []
            add_lo, add_hi = los.append, his.append
            for lo, hi, offsets in committed:
                if head in offsets:
                    offset = offsets[head] + shift
                    add_lo(neg if lo is None else lo + offset)
                    add_hi(pos if hi is None else hi + offset)
            before = len(los)
            triples = background.get(lid, ())
            prefix_los: List[int] = []
            prefix_his: List[int] = []
            for lo, hi, offsets, begin in tables:
                if head in offsets:
                    offset = offsets[head] + shift
                    if offset >= begin:
                        add_lo(neg if lo is None else lo + offset)
                        add_hi(pos if hi is None else hi + offset)
                    else:
                        prefix_los.append(neg if lo is None else lo + offset)
                        prefix_his.append(pos if hi is None else hi + offset)
            los += prefix_los
            his += prefix_his
            limit = capacities[lid] + _EPS
            if not (before or triples) and len(los) * demand <= limit:
                continue  # combined fresh load cannot exceed capacity
            if _needs_sweep(los, his, before, triples, demand, limit, ragged):
                flagged.append((lid, (los, his, before, triples)))
        if recorder.enabled:
            recorder.count("tracker.array.links_decided", len(touched))
            recorder.count(
                "tracker.array.entries_read",
                len(touched) * (len(committed) + len(tables)),
            )
        if not flagged:
            return
        # Exact sweeps, chain by chain in the dict tracker's first-touch
        # order: the first piece that carries the link fresh, then the
        # link's place there -- and a chain's links are consecutive in that
        # piece.
        chains = []
        for lid, rows in flagged:
            head = forced[lid] if lid in forced else (lid, 0, 0)
            for order, (piece, _parent) in enumerate(pieces):
                offset = self._behind(piece, *head)
                if offset is None or offset < tables[order][3]:
                    continue
                chain, shifts = piece.chain_at(piece.position_of(head[0]) + head[1])
                # Another piece's forced first link is decided apart.
                for cut in range(1, len(chain)):
                    if chain[cut] in forced:
                        del chain[cut:], shifts[cut:]
                        break
                intervals = _intervals(*rows, demand)
                chains.append(((order, offset), chain, shifts, intervals))
                break
        chains.sort(key=lambda item: item[0])
        for _rank, *sweep in chains:
            self._sweep_chain(*sweep, report.congestion)
            if witness and report.congestion:
                return

    def _sweep_chain(self, chain, shifts, intervals, spans) -> None:
        """Exact spans of every link in ``chain``, appended to ``spans``.

        ``intervals`` is the chain's first link's interval list in the dict
        tracker's exact order (committed classes ascending id, background,
        then fresh suffixes and prefixes in piece order), so the event
        sweep's float accumulation sequence -- and thus its spans -- is
        reproduced exactly.  One sweep serves the
        chain: link ``i`` carries the first link's intervals ``shifts[i]``
        later, in the same order, against the same capacity, so its
        overloads are the first link's moved by that much.  Each link then
        places an open end the way :func:`repro.core.intervals._sweep_link`
        does for its own (shifted) coordinates, and clips at ``t0``, which
        does not move.
        """
        arrays = self.arrays
        if recorder.enabled:
            recorder.count("tracker.array.exact_sweeps")
            if len(chain) > 1:
                recorder.count("tracker.array.chains_expanded")
        capacity = arrays.link_capacity[chain[0]]
        segments = _overloads(intervals, capacity)
        if not segments:
            return
        t0 = self.t0
        for lid, shift in zip(chain, shifts):
            link = arrays.link_name[lid]
            for start, end, peak in segments:
                if end == _POS_CLAMP:
                    end = _open_end(intervals, t0 - shift)
                start = max(start + shift, t0)
                end += shift
                if end >= start:
                    spans.append(CongestionSpan(link, start, end, peak, capacity))

    def _after_commit(self, nodes: Sequence[Node], added) -> None:
        """The committed switches forward by ``next_new`` from now on; the
        cached spans are stale."""
        id_of = self.arrays.id_of
        self._moved.update(id_of[node] for node in nodes)
        self._spans_cache = None

    def _fork_caches(self) -> Optional[Tuple[CongestionSpan, ...]]:
        return self._spans_cache  # an immutable tuple

    def _restore_caches(self, nodes: Sequence[Node], added, caches) -> None:
        """The switches go back to ``next_old``."""
        id_of = self.arrays.id_of
        self._moved.difference_update(id_of[node] for node in nodes)
        self._spans_cache = caches


def _needs_sweep(
    los: List[int],
    his: List[int],
    before: int,
    triples: List[Tuple[int, int, float]],
    demand: float,
    limit: float,
    ragged: bool,
) -> bool:
    """Whether only the exact event sweep can clear a link's rows.

    Class rows depart over ``los[i]`` to ``his[i]`` (open bounds clamped)
    with ``demand`` each; the background rows ``triples`` come after the
    first ``before`` of them (committed classes) and before the rest.  No
    sweep is needed when the rows that depart at all are pairwise disjoint
    and none exceeds ``limit`` on its own -- no two loads ever add up -- or
    when the total load, summed in row order as the sweep sums it, is
    within ``limit``.  Disjointness is read off the two bound columns
    sorted apart: the rows are disjoint exactly when every first departure
    but the smallest comes after the preceding last one.  ``ragged`` says a
    class row may depart not at all (``lo > hi``).
    """
    firsts, lasts = los, his
    heaviest = demand
    if ragged or triples:
        kept = [(lo, hi) for lo, hi in zip(los, his) if lo <= hi]
        if not kept:
            heaviest = 0.0
        for lo, hi, load in triples:
            if lo <= hi:
                kept.append((lo, hi))
                heaviest = max(heaviest, load)
        firsts = [lo for lo, _hi in kept]
        lasts = [hi for _lo, hi in kept]
    if heaviest <= limit and (
        len(firsts) < 2
        or not any(map(le, itertools.islice(sorted(firsts), 1, None), sorted(lasts)))
    ):
        return False
    total = 0.0
    for _row in range(before):
        total += demand
    for _lo, _hi, load in triples:
        total += load
    for _row in range(len(los) - before):
        total += demand
    return total > limit


def _intervals(
    los: List[int],
    his: List[int],
    before: int,
    triples: List[Tuple[int, int, float]],
    demand: float,
) -> List[Tuple[Optional[int], Optional[int], float]]:
    """A link's rows (:func:`_needs_sweep`) as the event sweep's interval
    list, in row order, open bounds ``None`` again."""
    rows = [(lo, hi, demand) for lo, hi in zip(los, his)]
    rows[before:before] = triples
    return [
        (None if lo == _NEG_CLAMP else lo, None if hi == _POS_CLAMP else hi, load)
        for lo, hi, load in rows
    ]
