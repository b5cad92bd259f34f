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
  parallel delay/capacity columns, and the old/new next-hop tables as flat
  int lists.  Trajectories become int arrays; "which link is hop i" is a
  vectorised ``searchsorted``.
* **Per class** (:class:`ArrayFlowClass`): node-id, link-id and offset
  arrays plus scalar emission bounds.  Splitting shares the parent's
  arrays structurally -- a trim reuses them outright (COW at the array
  level) and a deflected piece concatenates a parent prefix *view* with
  its freshly routed suffix; nothing is deep-copied.
* **Per probe**: one batched decision pass over every link the round
  touches -- a ``bincount`` total-load test and a lexsort adjacent-overlap
  test -- instead of a Python sweep per link.  Only links that fail the
  vectorised prefilter fall back to the exact event sweep
  (:func:`repro.core.intervals._sweep_link`), with the interval list
  rebuilt in the dict tracker's exact order so reported spans are
  bitwise identical.

Both layouts are production code: every probe here pays a fixed numpy call
overhead, so on short trajectories the dict tracker is the faster of the
two and :func:`repro.core.tracker.make_tracker` builds that one instead.
``tests/test_array_tracker.py`` drives both in lockstep and compares
every report byte-for-byte.

numpy is a hard dependency (``pyproject.toml``); importing this module
without it fails with a plain ``ImportError``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

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
from repro.perf import perf

_CACHE_ATTR = "_soa_arrays"


class InstanceArrays:
    """Immutable id-space encoding of one :class:`UpdateInstance`.

    Built once per instance (cached on the instance object, like its
    ``cached_property`` fields) and shared by every tracker and clone.
    Also owns the routing scratch buffers: a byte mask and a bool mask
    over the switch ids, zeroed again after every use, so probing rounds
    allocates nothing proportional to the network.
    """

    __slots__ = (
        "names",
        "id_of",
        "n_nodes",
        "link_keys",
        "capacity",
        "delay",
        "link_name",
        "demand",
        "dest",
        "next_old",
        "next_new",
        "max_hops",
        "old_path_ids",
        "_suffix_mark",
        "_node_mark",
    )

    def __init__(self, instance: UpdateInstance) -> None:
        network = instance.network
        names = network.switches
        self.names: List[Node] = names
        self.id_of: Dict[Node, int] = {name: i for i, name in enumerate(names)}
        n = len(names)
        self.n_nodes = n
        id_of = self.id_of

        links = network.links
        keys = np.fromiter(
            (id_of[link.src] * n + id_of[link.dst] for link in links),
            dtype=np.int64,
            count=len(links),
        )
        order = np.argsort(keys, kind="stable")
        self.link_keys = keys[order]
        self.capacity = np.array([link.capacity for link in links], dtype=np.float64)[order]
        self.delay = np.array([link.delay for link in links], dtype=np.int64)[order]
        self.link_name: List[LinkKey] = [links[i].endpoints for i in order]

        self.demand = float(instance.demand)
        self.dest = id_of[instance.destination]
        next_old = [-1] * n
        for src, dst in instance.old_config.items():
            next_old[id_of[src]] = id_of[dst]
        next_new = [-1] * n
        for src, dst in instance.new_config.items():
            next_new[id_of[src]] = id_of[dst]
        self.next_old = next_old
        self.next_new = next_new
        self.max_hops = n + 1
        self.old_path_ids = np.array(
            [id_of[node] for node in instance.old_path], dtype=np.int32
        )
        self._suffix_mark = bytearray(n)
        self._node_mark = np.zeros(n, dtype=bool)

    def encode_links(self, node_ids) -> "np.ndarray":
        """Link ids of the trajectory ``node_ids`` (vectorised lookup).

        Raises:
            KeyError: if any consecutive pair is not a network link (the
                dict tracker would raise the same from its delay map).
        """
        ids = node_ids.astype(np.int64, copy=False)
        keys = ids[:-1] * self.n_nodes + ids[1:]
        pos = np.searchsorted(self.link_keys, keys)
        if keys.size:
            clipped = np.minimum(pos, self.link_keys.size - 1)
            if not bool(np.all(self.link_keys[clipped] == keys)):
                raise KeyError("trajectory crosses a non-existent link")
        return pos.astype(np.int64, copy=False)

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


def instance_arrays(instance: UpdateInstance) -> InstanceArrays:
    """The cached :class:`InstanceArrays` of ``instance``."""
    cached = getattr(instance, _CACHE_ATTR, None)
    if cached is None:
        cached = InstanceArrays(instance)
        object.__setattr__(instance, _CACHE_ATTR, cached)
    return cached


class ArrayFlowClass:
    """One flow class in columnar form (see module docstring).

    Mirrors :class:`repro.core.intervals.FlowClass` field for field, with
    node names replaced by ids and tuples by numpy arrays.  Instances are
    immutable by convention; splits share the parent's arrays (trims
    outright, deflections as prefix views), which is what makes ``clone``
    plus ``probe_and_commit`` O(touched state).
    """

    __slots__ = (
        "lo",
        "hi",
        "nodes",
        "lids",
        "offsets",
        "outcome",
        "loop_node",
        "fresh_from",
        "_sorted_holder",
    )

    def __init__(
        self,
        lo: Optional[int],
        hi: Optional[int],
        nodes,
        lids,
        offsets,
        outcome: str = DELIVERED,
        loop_node: Optional[int] = None,
        fresh_from: int = 0,
        sorted_holder: Optional[list] = None,
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.nodes = nodes
        self.lids = lids
        self.offsets = offsets
        self.outcome = outcome
        self.loop_node = loop_node
        self.fresh_from = fresh_from
        # One-element list holding (sorted_lids, order); shared with trims
        # so whichever relative computes the sort first serves both.
        self._sorted_holder = [] if sorted_holder is None else sorted_holder

    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def sorted_lids(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(sorted link ids, positions)`` -- lazy, shared with trims."""
        holder = self._sorted_holder
        if not holder:
            order = np.argsort(self.lids, kind="stable")
            holder.append((self.lids[order], order))
        return holder[0]


def _flat_ranges(starts, counts):
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` segments."""
    nz = counts > 0
    starts = starts[nz]
    counts = counts[nz]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1])
    idx = np.arange(total, dtype=np.int64)
    within = idx - np.repeat(ends - counts, counts)
    return np.repeat(starts.astype(np.int64), counts) + within


class ArrayIntervalTracker:
    """Drop-in :class:`IntervalTracker` replacement on the array layout.

    Same public surface (``clone`` / ``preview_round`` / ``apply_round`` /
    ``probe_and_commit`` / ``congestion_spans`` / ...), same reports down
    to the byte; only the representation differs.
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
        # Committed next-hop table: old config with the new rule substituted
        # for every applied switch (-1 = no rule).  Probes override the
        # round's entries in place and restore them, so routing is plain
        # list indexing with no per-hop dict lookups.
        self._cfg: List[int] = list(arrays.next_old)
        self._spans_cache: Optional[Tuple[CongestionSpan, ...]] = None

        self._bg_by_lid: Dict[int, List[Tuple[Optional[int], Optional[int], float]]] = {}
        for (src, dst), triples in self.background.items():
            lid = arrays.lid_of(src, dst)
            if lid is None:
                raise KeyError(f"background load on non-existent link {src!r} -> {dst!r}")
            self._bg_by_lid[lid] = [tuple(triple) for triple in triples]

        ids = arrays.old_path_ids
        lids = arrays.encode_links(ids)
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(arrays.delay[lids]))
        )
        self._add_class(ArrayFlowClass(None, None, ids, lids, offsets))

    def clone(self) -> "ArrayIntervalTracker":
        """An independent copy in O(classes + switches), not O(trajectory).

        Class objects (and through them every trajectory array) are shared
        structurally; only the small per-tracker dicts, the alive set and
        the flat config table are copied.
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
        other._cfg = list(self._cfg)
        other._spans_cache = self._spans_cache
        other._bg_by_lid = self._bg_by_lid
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
                    (cls.lo if cls.lo is not None else cls.hi, names[int(cls.nodes[-1])])
                )
        return events

    @property
    def classes(self) -> List[ArrayFlowClass]:
        return [self._classes[cid] for cid in sorted(self._alive)]

    def load_at(self, src: Node, dst: Node, time: int) -> float:
        lid = self.arrays.lid_of(src, dst)
        if lid is None:
            return 0.0
        demand = self.arrays.demand
        total = 0.0
        for cid in sorted(self._alive):
            cls = self._classes[cid]
            for pos in np.flatnonzero(cls.lids == lid).tolist():
                offset = int(cls.offsets[pos])
                lo = None if cls.lo is None else cls.lo + offset
                hi = None if cls.hi is None else cls.hi + offset
                if (lo is None or lo <= time) and (hi is None or time <= hi):
                    total += demand
        return total

    def link_departure_spans(
        self, src: Node, dst: Node
    ) -> List[Tuple[Optional[int], Optional[int]]]:
        lid = self.arrays.lid_of(src, dst)
        if lid is None:
            return []
        spans: List[Tuple[Optional[int], Optional[int]]] = []
        for cid in sorted(self._alive):
            cls = self._classes[cid]
            for pos in np.flatnonzero(cls.lids == lid).tolist():
                offset = int(cls.offsets[pos])
                spans.append(
                    (
                        None if cls.lo is None else cls.lo + offset,
                        None if cls.hi is None else cls.hi + offset,
                    )
                )
        return spans

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def preview_round(self, nodes: Sequence[Node], time: int) -> RoundReport:
        with perf.span("tracker.preview"):
            self._check_round_args(nodes, time)
            pieces, _trims, _deflected, removed, report = self._split(nodes, time)
            self._check_new_congestion(pieces, removed, report)
            return report

    def apply_round(self, nodes: Sequence[Node], time: int) -> RoundReport:
        with perf.span("tracker.apply"):
            self._check_round_args(nodes, time)
            pieces, trims, deflected, removed, report = self._split(nodes, time)
            self._check_new_congestion(pieces, removed, report)
            self._commit(nodes, time, trims, deflected, removed)
            return report

    def probe_and_commit(self, nodes: Sequence[Node], time: int) -> RoundReport:
        with perf.span("tracker.probe"):
            self._check_round_args(nodes, time)
            pieces, trims, deflected, removed, report = self._split(nodes, time)
            self._check_new_congestion(pieces, removed, report)
            if report.ok:
                self._commit(nodes, time, trims, deflected, removed)
            return report

    # ------------------------------------------------------------------
    # global checks
    # ------------------------------------------------------------------
    def congestion_spans(self) -> List[CongestionSpan]:
        """All capacity violations of the committed state (cached).

        One vectorised prefilter over every loaded link; only links the
        prefilter cannot clear run the exact event sweep.  The result is
        cached until the next commit.
        """
        cached = self._spans_cache
        if cached is not None:
            return list(cached)
        arrays = self.arrays
        demand = arrays.demand
        ti_parts: List["np.ndarray"] = []
        lo_parts: List["np.ndarray"] = []
        hi_parts: List["np.ndarray"] = []
        load_parts: List["np.ndarray"] = []
        lid_parts: List["np.ndarray"] = []
        for cid in sorted(self._alive):
            cls = self._classes[cid]
            if cls.lids.size:
                lid_parts.append(cls.lids)
        bg_lids = sorted(self._bg_by_lid)
        if bg_lids:
            lid_parts.append(np.array(bg_lids, dtype=np.int64))
        if not lid_parts:
            self._spans_cache = ()
            return []
        touched = np.unique(np.concatenate(lid_parts))
        T = touched.size
        for cid in sorted(self._alive):
            cls = self._classes[cid]
            if not cls.lids.size:
                continue
            ti = np.searchsorted(touched, cls.lids)
            ti_parts.append(ti)
            lo_parts.append(self._bound_array(cls.lo, cls.offsets[:-1], _NEG_CLAMP))
            hi_parts.append(self._bound_array(cls.hi, cls.offsets[:-1], _POS_CLAMP))
            load_parts.append(np.full(cls.lids.size, demand))
        for lid in bg_lids:
            for lo, hi, load in self._bg_by_lid[lid]:
                ti_parts.append(np.array([np.searchsorted(touched, lid)], dtype=np.int64))
                lo_parts.append(np.array([_NEG_CLAMP if lo is None else lo], dtype=np.int64))
                hi_parts.append(np.array([_POS_CLAMP if hi is None else hi], dtype=np.int64))
                load_parts.append(np.array([load]))
        needs_exact = self._prefilter(
            T,
            arrays.capacity[touched],
            np.concatenate(ti_parts),
            np.concatenate(lo_parts),
            np.concatenate(hi_parts),
            np.concatenate(load_parts),
        )
        spans: List[CongestionSpan] = []
        if needs_exact is not None:
            for ti in np.flatnonzero(needs_exact).tolist():
                lid = int(touched[ti])
                link = arrays.link_name[lid]
                intervals = self._exact_link_intervals(lid, (), set())
                spans.extend(
                    _sweep_link(link, float(arrays.capacity[lid]), intervals, self.t0)
                )
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
            last = cls.hi + int(cls.offsets[-1])
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

    def _split(self, nodes: Sequence[Node], time: int):
        """Columnar port of :meth:`IntervalTracker._split`.

        Class iteration order (ascending id), threshold arithmetic and the
        emission-axis partition match the dict tracker exactly; only the
        hit scan (vectorised compare) and the routing (flat config table)
        differ mechanically.
        """
        report = RoundReport(time=time, nodes=tuple(nodes))
        arrays = self.arrays
        id_of = arrays.id_of
        round_ids = [id_of[node] for node in nodes]
        cfg = self._cfg
        saved = [(i, cfg[i]) for i in round_ids]
        for i in round_ids:
            cfg[i] = arrays.next_new[i]
        try:
            pieces: List[Tuple[ArrayFlowClass, ArrayFlowClass]] = []
            trims: List[Tuple[int, ArrayFlowClass]] = []
            deflected: List[ArrayFlowClass] = []
            removed: Set[int] = set()
            if len(round_ids) == 1:
                target = round_ids[0]
                round_arr = None
            else:
                target = None
                round_arr = np.array(round_ids, dtype=np.int32)
            for cid in sorted(self._alive):
                cls = self._classes[cid]
                if target is not None:
                    hits_idx = np.flatnonzero(cls.nodes == target)
                else:
                    hits_idx = np.flatnonzero(np.isin(cls.nodes, round_arr))
                if hits_idx.size == 0:
                    continue
                split = self._split_class(cls, hits_idx, time, report)
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
            for i, value in saved:
                cfg[i] = value
        return pieces, trims, deflected, removed, report

    def _split_class(self, cls: ArrayFlowClass, hits_idx, time: int, report: RoundReport):
        hits = hits_idx.tolist()
        if cls.outcome == LOOPED and hits and hits[-1] == len(cls.nodes) - 1:
            hits.pop()
        if not hits:
            return None
        offsets = cls.offsets
        thresholds = [(time - int(offsets[i]), i) for i in hits]
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
            trim = ArrayFlowClass(
                cls.lo,
                keep_hi if cls.hi is None else min(cls.hi, keep_hi),
                cls.nodes,
                cls.lids,
                cls.offsets,
                cls.outcome,
                cls.loop_node,
                fresh_from=len(cls.nodes),
                sorted_holder=cls._sorted_holder,
            )

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
            piece = self._deflect(cls, index, lo, hi)
            deflected.append(piece)
            if piece.outcome == LOOPED:
                report.loops.append((lo, names[piece.loop_node]))
            elif piece.outcome == BLACKHOLE:
                report.blackholes.append((lo, names[int(piece.nodes[-1])]))
        return trim, deflected

    def _deflect(
        self, cls: ArrayFlowClass, index: int, lo: Optional[int], hi: Optional[int]
    ) -> ArrayFlowClass:
        """Route a deflected piece from trajectory position ``index``.

        Two-phase equivalent of :func:`repro.core.intervals._route_from`:
        a Python hop loop detects suffix-internal revisits with a byte
        mask, then one vectorised pass finds the earliest prefix revisit
        -- which always precedes whatever phase one stopped on, so
        truncating there reproduces the dict semantics without an
        O(prefix) ``set`` build per deflection.
        """
        arrays = self.arrays
        cfg = self._cfg
        dest = arrays.dest
        prefix_nodes = cls.nodes[: index + 1]
        current = int(prefix_nodes[-1])
        mark = arrays._suffix_mark
        appended: List[int] = []
        outcome = None
        loop_node: Optional[int] = None
        for _ in range(arrays.max_hops):
            if current == dest:
                outcome = DELIVERED
                break
            nxt = cfg[current]
            if nxt < 0:
                outcome = BLACKHOLE
                break
            appended.append(nxt)
            if mark[nxt]:
                outcome = LOOPED
                loop_node = nxt
                break
            mark[nxt] = 1
            current = nxt
        else:
            outcome = LOOPED
            loop_node = current
        for node in appended:
            mark[node] = 0

        suffix = np.array(appended, dtype=np.int32)
        if suffix.size:
            node_mark = arrays._node_mark
            node_mark[prefix_nodes] = True
            hit_mask = node_mark[suffix]
            node_mark[prefix_nodes] = False
            if hit_mask.any():
                first = int(np.argmax(hit_mask))
                suffix = suffix[: first + 1]
                outcome = LOOPED
                loop_node = int(suffix[-1])

        if suffix.size:
            walk = np.concatenate((prefix_nodes[-1:], suffix))
            suffix_lids = arrays.encode_links(walk)
            suffix_offsets = int(cls.offsets[index]) + np.cumsum(arrays.delay[suffix_lids])
            nodes = np.concatenate((prefix_nodes, suffix))
            lids = np.concatenate((cls.lids[:index], suffix_lids))
            offsets = np.concatenate((cls.offsets[: index + 1], suffix_offsets))
        else:
            nodes = prefix_nodes
            lids = cls.lids[:index]
            offsets = cls.offsets[: index + 1]
        return ArrayFlowClass(
            lo, hi, nodes, lids, offsets, outcome, loop_node, fresh_from=index
        )

    @staticmethod
    def _bound_array(bound: Optional[int], offsets, clamp: int):
        if bound is None:
            return np.full(offsets.shape, clamp, dtype=np.int64)
        return bound + offsets

    def _class_positions_on(self, cls: ArrayFlowClass, touched):
        """``(positions, touched-index per position)`` of ``cls`` on ``touched``.

        ``touched`` is a sorted link-id array; positions come back in
        ascending touched order, ascending trajectory position within one
        link -- the dict tracker's iteration order.
        """
        sorted_lids, order = cls.sorted_lids()
        left = np.searchsorted(sorted_lids, touched, side="left")
        right = np.searchsorted(sorted_lids, touched, side="right")
        counts = right - left
        if not int(counts.sum()):
            return None, None
        flat = _flat_ranges(left, counts)
        positions = order[flat]
        ti = np.repeat(np.arange(touched.size, dtype=np.int64), counts)
        return positions, ti

    def _check_new_congestion(
        self,
        pieces: List[Tuple[ArrayFlowClass, ArrayFlowClass]],
        removed: Set[int],
        report: RoundReport,
    ) -> None:
        """Batched port of :meth:`IntervalTracker._check_new_congestion`.

        Same link set (links on fresh suffixes), same contributions
        (committed classes, background, fresh suffixes, piece prefixes)
        and the same per-link decision -- but taken for *all* touched
        links in one vectorised pass.  Only links the prefilter cannot
        prove clean run the exact sweep, on an interval list rebuilt in
        the dict tracker's order, so span output is bitwise identical.
        """
        arrays = self.arrays
        demand = arrays.demand
        fresh_lid_parts: List["np.ndarray"] = []
        fresh_lo_parts: List["np.ndarray"] = []
        fresh_hi_parts: List["np.ndarray"] = []
        for piece, _parent in pieces:
            start = piece.fresh_from
            if start >= piece.lids.size:
                continue
            part = piece.lids[start:]
            offs = piece.offsets[start : piece.lids.size]
            fresh_lid_parts.append(part)
            fresh_lo_parts.append(self._bound_array(piece.lo, offs, _NEG_CLAMP))
            fresh_hi_parts.append(self._bound_array(piece.hi, offs, _POS_CLAMP))
        if not fresh_lid_parts:
            return
        all_fresh_lids = np.concatenate(fresh_lid_parts)
        touched, first_seen = np.unique(all_fresh_lids, return_index=True)
        T = touched.size
        cap_t = arrays.capacity[touched]

        ti_parts: List["np.ndarray"] = []
        lo_parts: List["np.ndarray"] = []
        hi_parts: List["np.ndarray"] = []
        load_parts: List["np.ndarray"] = []
        other_counts = np.zeros(T, dtype=np.int64)

        # Committed classes (ascending id, split parents excluded).
        for cid in sorted(self._alive):
            if cid in removed:
                continue
            cls = self._classes[cid]
            if not cls.lids.size:
                continue
            positions, ti = self._class_positions_on(cls, touched)
            if positions is None:
                continue
            offs = cls.offsets[positions]
            ti_parts.append(ti)
            lo_parts.append(self._bound_array(cls.lo, offs, _NEG_CLAMP))
            hi_parts.append(self._bound_array(cls.hi, offs, _POS_CLAMP))
            load_parts.append(np.full(ti.size, demand))
            other_counts += np.bincount(ti, minlength=T)
        # Background load.
        if self._bg_by_lid:
            for ti_scalar, lid in enumerate(touched.tolist()):
                for lo, hi, load in self._bg_by_lid.get(lid, ()):
                    ti_parts.append(np.array([ti_scalar], dtype=np.int64))
                    lo_parts.append(
                        np.array([_NEG_CLAMP if lo is None else lo], dtype=np.int64)
                    )
                    hi_parts.append(
                        np.array([_POS_CLAMP if hi is None else hi], dtype=np.int64)
                    )
                    load_parts.append(np.array([load]))
                    other_counts[ti_scalar] += 1
        # Fresh suffixes (piece order).
        ti_fresh = np.searchsorted(touched, all_fresh_lids)
        ti_parts.append(ti_fresh)
        lo_parts.append(np.concatenate(fresh_lo_parts))
        hi_parts.append(np.concatenate(fresh_hi_parts))
        load_parts.append(np.full(ti_fresh.size, demand))
        # The dict tracker appends prefix contributions into the same
        # per-link "fresh" lists as the suffixes, so they count towards its
        # multiply shortcut rather than as committed load.
        fresh_counts = np.bincount(ti_fresh, minlength=T)
        # Piece prefixes on touched links (piece order).
        for piece, parent in pieces:
            fresh_from = piece.fresh_from
            if fresh_from == 0:
                continue
            positions, ti = self._class_positions_on(parent, touched)
            if positions is None:
                continue
            in_prefix = positions < fresh_from
            if not bool(in_prefix.any()):
                continue
            positions = positions[in_prefix]
            ti = ti[in_prefix]
            offs = parent.offsets[positions]
            ti_parts.append(ti)
            lo_parts.append(self._bound_array(piece.lo, offs, _NEG_CLAMP))
            hi_parts.append(self._bound_array(piece.hi, offs, _POS_CLAMP))
            load_parts.append(np.full(ti.size, demand))
            fresh_counts = fresh_counts + np.bincount(ti, minlength=T)

        ti_all = np.concatenate(ti_parts)
        lo_all = np.concatenate(lo_parts)
        hi_all = np.concatenate(hi_parts)
        load_all = np.concatenate(load_parts)
        if perf.enabled:
            perf.count("tracker.array.batched_links", T)
            perf.count("tracker.array.batched_intervals", int(ti_all.size))
        needs_exact = self._prefilter(
            T,
            cap_t,
            ti_all,
            lo_all,
            hi_all,
            load_all,
            fresh_only_counts=np.where(other_counts == 0, fresh_counts, 0),
        )
        if needs_exact is None or not bool(needs_exact.any()):
            return
        # Exact sweeps, reported in the dict tracker's first-touch order.
        exact_order = np.argsort(first_seen[needs_exact], kind="stable")
        exact_tis = np.flatnonzero(needs_exact)[exact_order]
        for ti_scalar in exact_tis.tolist():
            lid = int(touched[ti_scalar])
            link = arrays.link_name[lid]
            intervals = self._exact_link_intervals(lid, pieces, removed)
            if perf.enabled:
                perf.count("tracker.array.exact_sweeps")
            report.congestion.extend(
                _sweep_link(link, float(arrays.capacity[lid]), intervals, self.t0)
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

    def _exact_link_intervals(
        self,
        lid: int,
        pieces: Sequence[Tuple[ArrayFlowClass, ArrayFlowClass]],
        removed: Set[int],
    ) -> List[Tuple[Optional[int], Optional[int], float]]:
        """Interval list for one link in the dict tracker's exact order.

        Committed classes ascending id (positions ascending), background,
        then fresh suffixes and prefixes in piece order -- the order the
        dict tracker feeds ``_sweep_link``, so the event sweep's float
        accumulation sequence (and thus its spans) is reproduced exactly.
        """
        demand = self.arrays.demand
        out: List[Tuple[Optional[int], Optional[int], float]] = []
        for cid in sorted(self._alive):
            if cid in removed:
                continue
            cls = self._classes[cid]
            for pos in np.flatnonzero(cls.lids == lid).tolist():
                offset = int(cls.offsets[pos])
                out.append(
                    (
                        None if cls.lo is None else cls.lo + offset,
                        None if cls.hi is None else cls.hi + offset,
                        demand,
                    )
                )
        out.extend(self._bg_by_lid.get(lid, ()))
        for piece, _parent in pieces:
            start = piece.fresh_from
            for pos in np.flatnonzero(piece.lids[start:] == lid).tolist():
                offset = int(piece.offsets[start + pos])
                out.append(
                    (
                        None if piece.lo is None else piece.lo + offset,
                        None if piece.hi is None else piece.hi + offset,
                        demand,
                    )
                )
        for piece, parent in pieces:
            fresh_from = piece.fresh_from
            if fresh_from == 0:
                continue
            for pos in np.flatnonzero(parent.lids[:fresh_from] == lid).tolist():
                offset = int(parent.offsets[pos])
                out.append(
                    (
                        None if piece.lo is None else piece.lo + offset,
                        None if piece.hi is None else piece.hi + offset,
                        demand,
                    )
                )
        return out

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
            node_id = arrays.id_of[node]
            self._cfg[node_id] = arrays.next_new[node_id]
        self._last_time = time
        self._spans_cache = None

    def _add_class(self, cls: ArrayFlowClass) -> int:
        cid = self._next_id
        self._next_id += 1
        self._classes[cid] = cls
        self._alive.add(cid)
        return cid
