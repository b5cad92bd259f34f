"""Scalable exact dynamic-flow tracking via emission intervals.

The verifier in :mod:`repro.validate.verifier` follows emitted units of
flow hop by hop.  This module exploits that the source
emits at a *constant* rate: all units emitted within a contiguous time
interval that experience the same sequence of forwarding rules follow the
same trajectory, merely time-shifted.  Such a group is a :class:`FlowClass`;
an update round splits the affected classes at the deflection thresholds
``T - offset(v)`` and appends freshly routed suffixes.  Per-link loads then
become short lists of departure-time intervals, so congestion checking is a
sweep over a handful of intervals instead of a unit-by-unit replay.

This dict layout is the flow state of the greedy scheduler, the OPT search
and every congestion metric on short trajectories;
:func:`repro.core.tracker.make_tracker` switches to the array layout
(:mod:`repro.core.intervals_array`, same reports byte for byte) where paths
are long.  What both layouts share is written here once: the round
protocol (:class:`_RoundTracker`), the emission-axis partition
(:func:`_partition`), the report types and the event sweep.  Tests
cross-validate the trackers against the verifier on thousands of random
instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.instance import UpdateInstance
from repro.network.graph import Node
from repro.trace.recorder import recorder

LinkKey = Tuple[Node, Node]

# One committed load contribution on a link.  Background load is stored
# resolved as ``(None, lo, hi, load)``; class load is stored as
# ``(cid, offset, load)`` and resolved against the class's *current*
# emission bounds at read time -- narrowing a class in place (a trim
# commit) then never has to patch the memo.
_Entry = Tuple  # (None, lo, hi, load) | (cid, offset, load)

_EPS = 1e-9

# Infinity stand-ins for the event sweep (``_overloads``); far outside any
# reachable departure time, so order relative to finite coordinates (which
# is all the sweep uses) is preserved.
_NEG_CLAMP = -(1 << 60)
_POS_CLAMP = 1 << 60
_coordinate = itemgetter(0)

DELIVERED = "delivered"
BLACKHOLE = "blackhole"
LOOPED = "looped"


class FlowClass:
    """A maximal group of emissions sharing one space-time trajectory.

    A plain ``__slots__`` class rather than a dataclass: the tracker builds
    one per split piece on every probe, so construction cost is on the hot
    path.  Instances are never mutated after construction (trims and
    deflections build new ones); equality, hashing and ``repr`` cover the
    seven public fields, as a frozen dataclass's would.

    Attributes:
        lo: First emission time of the group (``None`` means minus infinity:
            traffic that has been flowing since before the update began).
        hi: Last emission time, inclusive (``None`` means plus infinity: the
            group keeps emitting until a later update splits it).
        nodes: The trajectory's switch sequence, starting at the source.
        offsets: Departure-time offset of each trajectory switch relative to
            the emission time (``offsets[0] == 0``).
        outcome: ``"delivered"`` when the trajectory reaches the destination,
            ``"blackhole"`` when it ends at a switch without a rule,
            ``"looped"`` when it revisits a switch (the trajectory is then
            truncated at the revisited switch).
        loop_node: The revisited switch for ``"looped"`` trajectories.
        fresh_from: First trajectory index whose links carry a load pattern
            that did not exist before this class was created (0 for the
            initial class; the deflection point for split pieces; the full
            length for trimmed pieces, whose loads are a subset of their
            parent's).  Incremental congestion checks only sweep fresh
            links.
        links: The ids (:class:`_LinkTable`) of the links ``nodes[i] ->
            nodes[i + 1]``; derived from ``nodes``, so not compared.
    """

    __slots__ = (
        "lo",
        "hi",
        "nodes",
        "offsets",
        "outcome",
        "loop_node",
        "fresh_from",
        "links",
        "_link_positions",
        "_node_positions",
    )

    def __init__(
        self,
        lo: Optional[int],
        hi: Optional[int],
        nodes: Tuple[Node, ...],
        offsets: Tuple[int, ...],
        outcome: str = DELIVERED,
        loop_node: Optional[Node] = None,
        fresh_from: int = 0,
        links: Tuple[int, ...] = (),
        _link_positions: Optional[Dict[int, List[int]]] = None,
        _node_positions: Optional[Dict[Node, List[int]]] = None,
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.nodes = nodes
        self.offsets = offsets
        self.outcome = outcome
        self.loop_node = loop_node
        self.fresh_from = fresh_from
        self.links = links
        self._link_positions = _link_positions
        self._node_positions = _node_positions

    def _fields(self) -> tuple:
        return (
            self.lo,
            self.hi,
            self.nodes,
            self.offsets,
            self.outcome,
            self.loop_node,
            self.fresh_from,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"FlowClass(lo={self.lo!r}, hi={self.hi!r}, nodes={self.nodes!r}, "
            f"offsets={self.offsets!r}, outcome={self.outcome!r}, "
            f"loop_node={self.loop_node!r}, fresh_from={self.fresh_from!r})"
        )

    def is_empty(self) -> bool:
        """Whether the emission interval contains no integer time."""
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    @property
    def last_offset(self) -> int:
        """The cumulative delay at the trajectory's last switch."""
        return self.offsets[-1]

    def loop_switch(self) -> Optional[Node]:
        """The revisited switch of a ``"looped"`` trajectory."""
        return self.loop_node

    def last_switch(self) -> Node:
        """The switch the trajectory ends on."""
        return self.nodes[-1]

    def offset_at(self, position: int) -> int:
        """The cumulative delay at trajectory ``position``."""
        return self.offsets[position]

    def switch_names(self) -> Tuple[Node, ...]:
        """The trajectory's switches, source first."""
        return self.nodes

    def trajectory_key(self) -> Tuple[Node, ...]:
        """A hashable value equal between classes of equal trajectory."""
        return self.nodes

    def link_positions(self) -> Dict[int, List[int]]:
        """``link id -> trajectory indices``, ascending (cached; trajectories
        are immutable)."""
        cached = self._link_positions
        if cached is None:
            cached = {}
            for i, link in enumerate(self.links):
                cached.setdefault(link, []).append(i)
            self._link_positions = cached
        return cached

    def node_positions(self) -> Dict[Node, List[int]]:
        """``switch -> trajectory indices``, ascending (cached like
        :meth:`link_positions`)."""
        cached = self._node_positions
        if cached is None:
            cached = {}
            for i, node in enumerate(self.nodes):
                cached.setdefault(node, []).append(i)
            self._node_positions = cached
        return cached


@dataclass(frozen=True)
class CongestionSpan:
    """Link ``link`` is over capacity for all departures in ``[start, end]``."""

    link: LinkKey
    start: int
    end: int
    load: float
    capacity: float

    @property
    def timed_link_count(self) -> int:
        """Number of congested time-extended links this span covers."""
        return self.end - self.start + 1


class RoundReport:
    """What applying one update round does.

    A ``__slots__`` class (one is built per probe) with a dataclass's
    equality and ``repr``; defining ``__eq__`` alone leaves it unhashable,
    as a mutable dataclass is.

    Attributes:
        time: The round's time point.
        nodes: Switches updated in the round.
        loops: ``(emission, node)`` pairs for new forwarding loops.
        blackholes: ``(emission, node)`` pairs for new black holes.
        congestion: New capacity violations caused by the round.
    """

    __slots__ = ("time", "nodes", "loops", "blackholes", "congestion")

    def __init__(
        self,
        time: int,
        nodes: Tuple[Node, ...],
        loops: Optional[List[Tuple[int, Node]]] = None,
        blackholes: Optional[List[Tuple[int, Node]]] = None,
        congestion: Optional[List[CongestionSpan]] = None,
    ) -> None:
        self.time = time
        self.nodes = nodes
        self.loops = [] if loops is None else loops
        self.blackholes = [] if blackholes is None else blackholes
        self.congestion = [] if congestion is None else congestion

    def _fields(self) -> tuple:
        return (self.time, self.nodes, self.loops, self.blackholes, self.congestion)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            f"RoundReport(time={self.time!r}, nodes={self.nodes!r}, "
            f"loops={self.loops!r}, blackholes={self.blackholes!r}, "
            f"congestion={self.congestion!r})"
        )

    @property
    def ok(self) -> bool:
        return not (self.loops or self.blackholes or self.congestion)


class _RoundTracker:
    """The layout-free half of an exact interval tracker.

    Both layouts judge a round by one rule (Alg. 2 over Defs. 1-3): a unit
    emitted at ``e`` deflects at the first switch of its trajectory that it
    reaches at or after that switch's update time.  Everything around that
    rule is written here once -- the round API with its witness contract,
    the argument checks, the commit bookkeeping and the state accessors --
    and :func:`_partition` is the rule's arithmetic.  A layout
    (:class:`IntervalTracker`, :class:`repro.core.intervals_array.
    ArrayIntervalTracker`) keeps only its representation:

    * how it builds its state (``__init__`` after this one's);
    * ``_split(nodes, time, witness)``, its hit scan and deflection walk,
      returning ``(pieces, trims, deflected, removed, report)``: every
      replacement piece paired with its parent, the narrowed in-place
      replacements by parent id, the freshly routed pieces, the split
      parents' ids and the round's report;
    * ``_check_new_congestion(pieces, removed, report, witness)``,
      ``congestion_spans()`` and ``crossings`` / ``crosses``;
    * ``_after_commit`` / ``_fork_caches`` / ``_restore_caches``: its side
      of :meth:`_commit` and :meth:`_undo` (caches, indexes);
    * per class, the switch a looped or black-holed piece ends on
      (``loop_switch()`` / ``last_switch()``) and ``last_offset``.
    """

    def __init__(
        self,
        instance: UpdateInstance,
        t0: int = 0,
        background: Optional[Dict[LinkKey, List[Tuple[Optional[int], Optional[int], float]]]] = None,
    ) -> None:
        """Args:
            instance: The update instance whose flow is tracked.
            t0: Current time step.
            background: Static load from *other* flows per link, as
                ``(first departure, last departure, demand)`` triples
                (``None`` bounds are open); included in every capacity
                check.  This is how the update service plans around the
                flows already on its network.  A link the network lacks
                is a ``KeyError``.
        """
        self.instance = instance
        self.t0 = t0
        self.background = background or {}
        for src, dst in self.background:
            if not instance.network.has_link(src, dst):
                raise KeyError(f"background load on non-existent link {src!r} -> {dst!r}")
        self._applied: Dict[Node, int] = {}
        self._last_time: Optional[int] = None
        self._classes: Dict[int, object] = {}
        self._alive: Set[int] = set()
        self._next_id = 0

    # ------------------------------------------------------------------
    # state accessors
    # ------------------------------------------------------------------
    @property
    def applied(self) -> Dict[Node, int]:
        """Committed ``switch -> update time`` assignments."""
        return dict(self._applied)

    @property
    def loops(self) -> List[Tuple[int, Node]]:
        """Forwarding loops of the *final* flow state.

        Derived from the live classes rather than recorded eagerly: a round
        may send units towards a switch they already crossed, yet a later
        round can deflect them again before they arrive -- only trajectories
        that remain looped once all rounds are applied violate Definition 2.
        """
        events: List[Tuple[int, Node]] = []
        for cls in self.classes:
            if cls.outcome == LOOPED and not cls.is_empty():
                events.append((cls.lo if cls.lo is not None else cls.hi, cls.loop_switch()))
        return events

    @property
    def blackholes(self) -> List[Tuple[int, Node]]:
        """Dropped-traffic events of the final flow state (see ``loops``)."""
        events: List[Tuple[int, Node]] = []
        for cls in self.classes:
            if cls.outcome == BLACKHOLE and not cls.is_empty():
                events.append((cls.lo if cls.lo is not None else cls.hi, cls.last_switch()))
        return events

    @property
    def classes(self) -> list:
        """All live flow classes, ascending id."""
        return [self._classes[cid] for cid in sorted(self._alive)]

    def finite_drain_horizon(self) -> Optional[int]:
        """Last departure time of any finite flow class, or ``None``.

        While a scheduler makes no progress, only the draining of finite
        classes can unblock it; once this horizon passes with no progress
        the remaining blockers are never-ending streams (schedulers use this
        as their stall fix-point).
        """
        horizon: Optional[int] = None
        for cls in self.classes:
            if cls.hi is None:
                continue
            last = cls.hi + cls.last_offset
            horizon = last if horizon is None else max(horizon, last)
        return horizon

    @property
    def ok(self) -> bool:
        """No loops, black holes or congestion so far."""
        return not (self.loops or self.blackholes or self.congestion_spans())

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def apply_round(self, nodes: Sequence[Node], time: int) -> RoundReport:
        """Commit updating ``nodes`` at ``time`` and report new violations."""
        with recorder.timer("tracker.apply"):
            self._check_round_args(nodes, time)
            pieces, trims, deflected, removed, report = self._split(nodes, time)
            self._check_new_congestion(pieces, removed, report)
            self._commit(nodes, time, trims, deflected, removed)
            return report

    def commit_round(self, nodes: Sequence[Node], time: int) -> None:
        """Commit updating ``nodes`` at ``time`` without checking it.

        The state ``apply_round`` leaves (same classes, same ids), without
        the congestion pass and without a report: for a replay that reads
        only the final state (``loops`` / ``blackholes`` /
        ``congestion_spans()``), never a round's report.  The dict layout's
        per-link entry memos are then built by the final check, which lists
        a link's background load after all of its class load (a memo built
        mid-way lists later pieces after the background).  The sum order
        can only differ there, so the spans are ``apply_round``'s without
        background and with dyadic background loads.
        """
        self._check_round_args(nodes, time)
        _pieces, trims, deflected, removed, _report = self._split(nodes, time)
        self._commit(nodes, time, trims, deflected, removed)

    def probe_and_commit(self, nodes: Sequence[Node], time: int) -> RoundReport:
        """Apply ``nodes`` at ``time`` only when doing so violates nothing.

        A clean probe is one split + one sweep and commits the pieces it
        computed; its report and the state it leaves are ``apply_round``'s.
        A refused probe leaves the tracker untouched and costs what it
        takes to refuse it -- its report is a *witness*, not the full list
        of violations: the split stops at the first class that loops or
        black-holes (no congestion pass follows), the congestion pass at
        the first over-capacity link (the array layout: chain).  The
        contract, against the full report ``apply_round(n, t)`` would give
        on the same state: the same ``.ok``, and each of ``loops`` /
        ``blackholes`` / ``congestion`` a prefix of its list (non-empty
        for at least one of them when refused).  This is the per-candidate
        step of greedy and of Algorithm 1: probing candidates one at a time
        into the live tracker, which accumulates the accepted ones.
        """
        with recorder.timer("tracker.probe"):
            self._check_round_args(nodes, time)
            with recorder.timer("split"):
                pieces, trims, deflected, removed, report = self._split(
                    nodes, time, witness=True
                )
            if report.loops or report.blackholes:
                if recorder.enabled:
                    recorder.count("tracker.probe.refused.split")
                return report
            with recorder.timer("check"):
                self._check_new_congestion(pieces, removed, report, witness=True)
            if not report.congestion:
                self._commit(nodes, time, trims, deflected, removed)
            elif recorder.enabled:
                recorder.count("tracker.probe.refused.congestion")
            return report

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

    def _commit(
        self,
        nodes: Sequence[Node],
        time: int,
        trims: List[Tuple[int, object]],
        deflected: list,
        removed: Set[int],
        undoable: bool = False,
    ) -> Optional[tuple]:
        """Adopt a computed split as the new committed state.

        Trimmed parents keep their class id: the trim has the parent's
        exact trajectory, only narrower emission bounds, so replacing the
        class object in place leaves every per-link structure keyed by id
        valid.  Only parents whose every emission deflected die, and only
        the deflected pieces (fresh routes) are registered as new classes.

        An ``undoable`` commit (the OPT search's, DESIGN.md 7.2) returns
        what it replaces for :meth:`_undo`: the switches, the old
        ``_last_time`` and ``_next_id``, the trimmed parents, the ids it
        kills and the layout's set-aside caches.  Other commits fork none.
        """
        classes = self._classes
        trimmed = {cid for cid, _trim in trims}
        killed = [cid for cid in removed if cid not in trimmed]
        record = None
        if undoable:
            replaced = [(cid, classes[cid]) for cid in trimmed]
            record = nodes, self._last_time, self._next_id, replaced, killed, self._fork_caches()
        classes.update(trims)
        self._alive.difference_update(killed)
        added = [(self._add_class(piece), piece) for piece in deflected]
        for node in nodes:
            self._applied[node] = time
        self._last_time = time
        self._after_commit(nodes, added)
        return record

    def _undo(self, record: tuple) -> None:
        """Take back the undoable commit that returned ``record``; every
        commit made since must have been taken back first.  The ids it
        added are the top of the id range."""
        nodes, last_time, next_id, replaced, killed, caches = record
        classes = self._classes
        added = [classes.pop(cid) for cid in range(next_id, self._next_id)]
        self._alive.difference_update(range(next_id, self._next_id))
        self._next_id = next_id
        classes.update(replaced)
        self._alive.update(killed)
        for node in nodes:
            del self._applied[node]
        self._last_time = last_time
        self._restore_caches(nodes, added, caches)

    def _add_class(self, cls) -> int:
        cid = self._next_id
        self._next_id += 1
        self._classes[cid] = cls
        self._alive.add(cid)
        return cid


class IntervalTracker(_RoundTracker):
    """Exact, incremental dynamic-flow state during a timed update.

    Typical use -- drive a schedule round by round::

        tracker = IntervalTracker(instance, t0=0)
        for time, nodes in schedule.rounds():
            report = tracker.apply_round(nodes, time)
        spans = tracker.congestion_spans()

    ``probe_and_commit`` commits a round only when it violates nothing,
    which is what greedy and Algorithm 1 build on; the OPT search commits
    undoably and backtracks by :meth:`_undo`.  The round protocol is
    :class:`_RoundTracker`'s; this class holds the dict layout: tuple
    trajectories, ``key -> class ids`` link and node indexes, and per-link
    congestion memos, every per-link structure keyed by the link's id in
    the tracker's :class:`_LinkTable`.
    """

    def __init__(
        self,
        instance: UpdateInstance,
        t0: int = 0,
        background: Optional[Dict[LinkKey, List[Tuple[Optional[int], Optional[int], float]]]] = None,
    ) -> None:
        super().__init__(instance, t0, background)
        self._links = _LinkTable(instance, self.background)
        # ``key -> class ids``, ascending; stale ids are filtered on read.
        self._link_index: Dict[int, List[int]] = {}
        self._node_index: Dict[Node, List[int]] = {}
        # Congestion-check memoisation, valid between commits: candidate
        # -round probes (greedy's, Algorithm 1's and OPT's) hit the same
        # links repeatedly while the committed load is unchanged, so the
        # committed interval list and its sweep result are cached per link
        # and brought up to each commit (:meth:`_after_commit`).
        self._entry_memo: Dict[int, Tuple[_Entry, ...]] = {}
        self._span_memo: Dict[int, Tuple[CongestionSpan, ...]] = {}
        # Commits mark the span memo dirty instead of invalidating touched
        # links one by one; the (rare) global congestion check clears it.
        self._spans_dirty = False

        self._add_class(_make_class(instance, self._links))

    def crossings(self, src: Node, dst: Node) -> List[Tuple[FlowClass, int]]:
        """Every alive class crossing ``src -> dst`` with its departure offset there."""
        link = self._links.ids.get((src, dst))
        found = []
        for cid in self._link_index.get(link, ()):  # ascending ids; stale ones skipped
            if cid in self._alive:
                cls = self._classes[cid]
                for index in cls.link_positions()[link]:
                    found.append((cls, cls.offsets[index]))
        return found

    def crosses(self, cls: FlowClass, src: Node, dst: Node) -> bool:
        """Whether ``cls``'s trajectory traverses the link ``src -> dst``."""
        return self._links.ids.get((src, dst)) in cls.link_positions()

    def _after_commit(self, nodes: Sequence[Node], added: List[Tuple[int, FlowClass]]) -> None:
        """Offset-based memo entries of trimmed parents stay valid; the span
        memo is flagged dirty and the fresh pieces' entries appended."""
        self._spans_dirty = True
        if added:
            self._update_memos(added)

    def _fork_caches(self) -> tuple:
        """The memos go on as shallow copies (of immutable tuples)."""
        caches = self._entry_memo, self._span_memo, self._spans_dirty
        self._entry_memo = dict(self._entry_memo)
        self._span_memo = dict(self._span_memo)
        return caches

    def _restore_caches(self, nodes: Sequence[Node], added: List[FlowClass], caches) -> None:
        """Pop the added ids off the index tails; the memos come back."""
        for cls in added:
            _pop_tails(self._link_index, cls.link_positions())
            _pop_tails(self._node_index, cls.nodes)
        self._entry_memo, self._span_memo, self._spans_dirty = caches

    def _add_class(self, cls: FlowClass) -> int:
        cid = super()._add_class(cls)
        _append_all(self._link_index, cls.link_positions(), cid)
        _append_all(self._node_index, cls.nodes, cid)
        return cid

    def _update_memos(self, added: List[Tuple[int, FlowClass]]) -> None:
        """Append the fresh pieces' entries to the touched links' memos.

        A commit changes committed loads three ways, two of which need no
        memo work at all: trims resolve live (the ``(cid, offset, load)``
        entries pick up the narrowed bounds from the replaced class
        object), and dead parents' entries are left behind for readers to
        filter against ``_alive`` (dropping them here would rebuild one
        tuple per parent link per commit over thousands-of-links shared
        -path trajectories).  Only the deflected pieces' loads are genuinely
        new, and their entries are appended where a memo already exists.
        Spans cannot be patched; commits flag them dirty wholesale and the
        global check rebuilds on demand.
        """
        entry_memo = self._entry_memo
        demand = self.instance.demand
        for cid, piece in added:
            offsets = piece.offsets
            for link, indices in piece.link_positions().items():
                memo = entry_memo.get(link)
                if memo is not None:
                    if len(indices) == 1:
                        entry_memo[link] = memo + ((cid, offsets[indices[0]], demand),)
                    else:
                        entry_memo[link] = memo + tuple(
                            (cid, offsets[i], demand) for i in indices
                        )

    # ------------------------------------------------------------------
    # global checks
    # ------------------------------------------------------------------
    def congestion_spans(self) -> List[CongestionSpan]:
        """All capacity violations of the current flow state.

        Per-link results are memoised between commits, so repeated global
        checks on an unchanged tracker cost a handful of dict lookups.
        """
        if self._spans_dirty:
            self._span_memo.clear()
            self._spans_dirty = False
        spans: List[CongestionSpan] = []
        for link in set(self._link_index).union(self._links.background):
            spans.extend(self._committed_spans(link))
        spans.sort(key=lambda span: (span.start, span.link))
        return spans

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _split(
        self, nodes: Sequence[Node], time: int, witness: bool = False
    ) -> Tuple[
        List[Tuple[FlowClass, FlowClass]],
        List[Tuple[int, FlowClass]],
        List[FlowClass],
        Set[int],
        RoundReport,
    ]:
        """Compute the class splits caused by updating ``nodes`` at ``time``.

        Returns ``(pieces, trims, deflected, removed, report)``:
        ``pieces`` pairs every replacement piece with its parent for the
        congestion check, ``trims`` maps parent ids to their narrowed
        in-place replacements, ``deflected`` holds the freshly routed
        pieces to register as new classes, and ``removed`` is the check's
        exclusion set (every split parent -- its old bounds must not be
        double-counted against the pieces).  With ``witness`` the split
        stops at the first class that reports a loop or black hole: the
        report then refuses the round and nothing else of the result may be
        used.  Deflected units follow :func:`_round_rules`, a view of the
        mixed configuration, not a per-probe copy of it.  A traced split
        counts itself, the alive classes it saw and the class splits it made
        and left untouched (``tracker.splits`` / ``tracker.split.*``).
        """
        report = RoundReport(time=time, nodes=tuple(nodes))
        round_set = set(nodes)
        rule_of = _round_rules(self._links, self._applied, round_set)

        pieces: List[Tuple[FlowClass, FlowClass]] = []
        trims: List[Tuple[int, FlowClass]] = []
        deflected: List[FlowClass] = []
        removed: Set[int] = set()
        # Only classes whose trajectory touches a round switch can split.
        # One switch's index entry is ascending already; a repeated id (a
        # revisit, or another round switch) sits next to its first.
        index = self._node_index
        single = nodes[0] if len(round_set) == 1 else None
        candidates = index.get(single, ()) if single is not None else sorted(
            chain.from_iterable(index.get(node, ()) for node in round_set)
        )
        alive = self._alive
        classes = self._classes
        instance = self.instance
        class_splits = untouched = 0
        previous = None
        for cid in candidates:
            if cid == previous or cid not in alive:
                continue
            previous = cid
            cls = classes[cid]
            class_splits += 1
            if single is not None and _drained(cls, single, time):
                untouched += 1
                continue
            split = _split_class(instance, cls, round_set, time, rule_of, report)
            if witness and (report.loops or report.blackholes):
                break
            if split is None:
                untouched += 1
                continue
            trim, fresh = split
            removed.add(cid)
            if trim is not None:
                trims.append((cid, trim))
                pieces.append((trim, cls))
            for piece in fresh:
                deflected.append(piece)
                pieces.append((piece, cls))
        if recorder.enabled:
            recorder.count("tracker.splits")
            recorder.count("tracker.split.alive", len(alive))
            recorder.count("tracker.split.classes", class_splits)
            recorder.count("tracker.split.untouched", untouched)
        return pieces, trims, deflected, removed, report

    def _check_new_congestion(
        self,
        pieces: List[Tuple[FlowClass, FlowClass]],
        removed: Set[int],
        report: RoundReport,
        witness: bool = False,
    ) -> None:
        """Sweep only the links whose load pattern the round changed.

        Split pieces partition their parent's emission interval, so loads on
        shared prefix links are unchanged; only links on the freshly routed
        suffixes (``fresh_from`` onward) can newly congest.  The fresh
        departure intervals are collected per link in one pass over the
        suffixes; prefix contributions on those same links (a link that is
        fresh for one piece may carry another piece's unchanged prefix load)
        are then looked up in each parent's cached position index instead of
        building a position index per piece -- parents are committed classes
        whose index is built once and reused across every probe.  Links
        whose combined committed + fresh load cannot exceed capacity are
        skipped without a sweep.  With ``witness`` the pass returns at the
        first link found over capacity.
        """
        demand = self.instance.demand
        extras: Dict[int, List[Tuple[Optional[int], Optional[int], float]]] = {}
        for piece, _parent in pieces:
            links = piece.links
            offsets = piece.offsets
            lo0, hi0 = piece.lo, piece.hi
            for i in range(piece.fresh_from, len(links)):
                lo = None if lo0 is None else lo0 + offsets[i]
                hi = None if hi0 is None else hi0 + offsets[i]
                extras.setdefault(links[i], []).append((lo, hi, demand))
        if not extras:
            return
        # Prefix positions (< fresh_from) match the parent's trajectory
        # index for index, so the parent's cached link positions answer
        # "where does this piece load a touched link" without scanning the
        # piece's (possibly very long) trajectory.
        for piece, parent in pieces:
            parent_positions = parent.link_positions()
            fresh_from = piece.fresh_from
            offsets = piece.offsets
            lo0, hi0 = piece.lo, piece.hi
            for link, fresh_list in extras.items():
                for i in parent_positions.get(link, ()):
                    if i >= fresh_from:
                        break  # ascending; the rest are fresh (already added)
                    lo = None if lo0 is None else lo0 + offsets[i]
                    hi = None if hi0 is None else hi0 + offsets[i]
                    fresh_list.append((lo, hi, demand))
        capacities = self._links.capacity
        entry_memo = self._entry_memo
        classes = self._classes
        alive = self._alive
        profiling = recorder.enabled
        for link, fresh in extras.items():
            capacity = capacities[link]
            committed = entry_memo.get(link)
            if committed is None:
                committed = self._committed_entries(link)  # counts the miss
            elif profiling:
                recorder.count("tracker.entry_memo.hit")
            if not committed and len(fresh) * demand <= capacity + _EPS:
                if profiling:
                    recorder.count("tracker.links_skipped")
                continue  # combined fresh load cannot exceed capacity
            # ``_sweep_link``'s first test, decided before its input is
            # built: the live committed loads, then the fresh ones, summed
            # in the order the sweep sums them (same float rounding).
            intervals, total = _resolve_live(committed, alive, removed, classes)
            for item in fresh:
                total += item[2]
            if profiling:
                recorder.count("tracker.sweeps")
                recorder.count("tracker.sweep_intervals", len(intervals) + len(fresh))
            if total <= capacity + _EPS:
                continue
            intervals.extend(fresh)
            report.congestion.extend(
                _sweep_link(self._links.keys[link], capacity, intervals, self.t0)
            )
            if witness and report.congestion:
                return

    def _committed_entries(self, link: int) -> Tuple[_Entry, ...]:
        """The committed load contributions on link id ``link`` (memoised).

        Candidate-round probes assemble their interval lists from this
        cache instead of re-walking the index and every class's link
        positions.  Commits patch the cache in place by appending the new
        pieces' entries; entries of since-removed classes are left behind,
        so READERS MUST FILTER on ``cid in self._alive`` (``None`` cids are
        background load and always live) and resolve class entries'
        ``(cid, offset, load)`` against the class's current bounds.
        """
        memo = self._entry_memo.get(link)
        if recorder.enabled:
            recorder.count(
                "tracker.entry_memo.hit" if memo is not None else "tracker.entry_memo.miss"
            )
        if memo is not None:
            return memo
        demand = self.instance.demand
        alive = self._alive
        entries: List[_Entry] = []
        for cid in self._link_index.get(link, ()):  # stale ids filtered below
            if cid not in alive:
                continue
            cls = self._classes[cid]
            offsets = cls.offsets
            for index in cls.link_positions().get(link, ()):
                entries.append((cid, offsets[index], demand))
        for lo, hi, load in self._links.background.get(link, ()):
            entries.append((None, lo, hi, load))
        frozen = tuple(entries)
        self._entry_memo[link] = frozen
        return frozen

    def _committed_spans(self, link: int) -> Tuple[CongestionSpan, ...]:
        """Congestion spans of the committed state on link id ``link`` (memoised)."""
        memo = self._span_memo.get(link)
        if memo is not None:
            return memo
        intervals, total = _resolve_live(
            self._committed_entries(link), self._alive, (), self._classes
        )
        capacity = self._links.capacity[link]
        if total <= capacity + _EPS:
            spans: Tuple[CongestionSpan, ...] = ()
        else:
            spans = tuple(_sweep_link(self._links.keys[link], capacity, intervals, self.t0))
        self._span_memo[link] = spans
        return spans


# ----------------------------------------------------------------------
# pure helpers
# ----------------------------------------------------------------------
def _append_all(index: Dict, keys, cid: int) -> None:
    """Append ``cid`` under every key of ``keys`` (once per occurrence)."""
    get = index.get
    for key in keys:
        ids = get(key)
        if ids is None:
            index[key] = [cid]
        else:
            ids.append(cid)


def _pop_tails(index: Dict, keys) -> None:
    """Take back :func:`_append_all` of ``keys``: one id off the tail per
    occurrence, and a key whose list this empties goes."""
    for key in keys:
        ids = index[key]
        ids.pop()
        if not ids:
            del index[key]


def _resolve_live(
    entries: Tuple[_Entry, ...], alive: Set[int], removed, classes: Dict[int, FlowClass]
) -> Tuple[List[Tuple[Optional[int], Optional[int], float]], float]:
    """``(lo, hi, load)`` departure intervals of the entries of live
    classes not in ``removed`` (background load is always live), class
    entries resolved against their class's current emission bounds, and
    their total load summed in entry order."""
    intervals = []
    total = 0.0
    for entry in entries:
        cid = entry[0]
        if cid is None:
            intervals.append(entry[1:])
            total += entry[3]
        elif cid in alive and cid not in removed:
            cls = classes[cid]
            offset = entry[1]
            load = entry[2]
            lo0 = cls.lo
            hi0 = cls.hi
            intervals.append(
                (
                    None if lo0 is None else lo0 + offset,
                    None if hi0 is None else hi0 + offset,
                    load,
                )
            )
            total += load
    return intervals, total


# A forwarding rule as the dict layout reads it: ``(next hop, link id, delay)``.
_Rule = Tuple[Node, int, int]


class _LinkTable:
    """The links a dict-layout tracker can load, numbered once per tracker
    (no instance caches it).

    Trajectories follow only old or new rules, so those are numbered, then
    the background's other links.  ``old_rules`` / ``new_rules`` map a
    switch to its rule; ``capacity`` and ``background`` are by id; ``ids``
    and ``keys`` translate between ids and ``(src, dst)`` names.
    """

    __slots__ = ("ids", "keys", "capacity", "old_rules", "new_rules", "background")

    def __init__(self, instance: UpdateInstance, background: Mapping[LinkKey, list]) -> None:
        old, new = instance.old_config.items(), instance.new_config.items()
        self.keys = keys = list(dict.fromkeys([*old, *new, *background]))
        self.ids = ids = dict(zip(keys, range(len(keys))))
        delays = instance.network.delay_map()
        self.old_rules = {node: (nxt, ids[node, nxt], delays[node, nxt]) for node, nxt in old}
        self.new_rules = {node: (nxt, ids[node, nxt], delays[node, nxt]) for node, nxt in new}
        self.background = {ids[key]: load for key, load in background.items()}
        self.capacity = list(map(instance.network.capacity_map().__getitem__, keys))


def _round_rules(
    links: _LinkTable, applied: Mapping[Node, int], round_set: Set[Node]
) -> Callable[[Node], Optional[_Rule]]:
    """``switch -> rule`` of the mixed configuration a round's deflected
    units follow: the rules of what ``instance.config_at(applied + round,
    time)`` would build, without copying either table per probe.  Rounds
    are chronological, so every switch already applied -- and every switch
    of this round -- is on its new rule at ``time`` (``None`` when the new
    configuration has no rule there); every other switch is on its old one.
    """
    old, new = links.old_rules.get, links.new_rules.get

    def rule_of(node: Node) -> Optional[_Rule]:
        return new(node) if node in applied or node in round_set else old(node)

    return rule_of


def _make_class(instance: UpdateInstance, links: _LinkTable) -> FlowClass:
    """The initial class: every emission, on the old path (its rules
    walked from the source)."""
    source = FlowClass(None, None, (instance.source,), (0,))
    return _deflect(instance, links.old_rules.get, source, 0, None, None)


def _deflect(
    instance: UpdateInstance,
    rule_of: Callable[[Node], Optional[_Rule]],
    parent: FlowClass,
    index: int,
    lo: Optional[int],
    hi: Optional[int],
) -> FlowClass:
    """The piece of ``parent`` emitted in ``[lo, hi]`` that deflects at
    trajectory position ``index``.

    One walk: the piece keeps ``parent``'s first ``index + 1`` switches and
    their offsets, then follows the rules ``rule_of`` gives from
    ``parent.nodes[index]``, extending nodes, links and offsets together.
    The route ends delivered at the destination, black-holed at a switch
    without a rule, or looped right after its first revisit (also when the
    hop guard trips); the piece's links from ``index`` on are fresh.
    """
    nodes = list(parent.nodes[: index + 1])
    offsets = list(parent.offsets[: index + 1])
    links = list(parent.links[:index])
    visited = set(nodes)
    destination = instance.destination
    current = nodes[-1]
    acc = offsets[-1]
    outcome = LOOPED
    loop_node = None
    for _ in range(len(instance.network) + 1):
        if current == destination:
            outcome = DELIVERED
            break
        rule = rule_of(current)
        if rule is None:
            outcome = BLACKHOLE
            break
        nxt, link, delay = rule
        acc += delay
        nodes.append(nxt)
        links.append(link)
        offsets.append(acc)
        if nxt in visited:
            loop_node = nxt
            break
        visited.add(nxt)
        current = nxt
    else:
        loop_node = current  # hop guard: treat as a loop
    return FlowClass(
        lo, hi, tuple(nodes), tuple(offsets), outcome, loop_node, index, tuple(links)
    )


def _split_class(
    instance: UpdateInstance,
    cls: FlowClass,
    round_set: Set[Node],
    time: int,
    rule_of: Callable[[Node], Optional[_Rule]],
    report: RoundReport,
) -> Optional[Tuple[Optional[FlowClass], List[FlowClass]]]:
    """Split ``cls`` at this round's deflection thresholds.

    Returns ``None`` when the class is unaffected, otherwise
    ``(trim, deflected)``: the trimmed copy keeping the original trajectory
    (``None`` when every emission deflects) plus the freshly routed pieces.
    Loop and black-hole events for non-empty deflected pieces are appended
    to ``report``.
    """
    positions = cls.node_positions()
    hits: List[int] = []
    for node in round_set:
        found = positions.get(node)
        if found is not None:
            hits += found
    if not hits:
        return None
    hits.sort()
    if cls.outcome == LOOPED and hits[-1] == len(cls.nodes) - 1:
        # The final position of a looped trajectory is where the unit was
        # killed (the revisit); it cannot be re-routed from there.  Earlier
        # occurrences may still deflect units before the loop forms.
        hits.pop()
    offsets = cls.offsets
    partition = _partition(hits, offsets, time, cls.lo, cls.hi)
    if partition is None:
        return None
    keep, spans = partition
    trim: Optional[FlowClass] = None
    if keep is not None:
        trim = FlowClass(
            keep[0],
            keep[1],
            cls.nodes,
            offsets,
            cls.outcome,
            cls.loop_node,
            len(cls.nodes),  # trimmed: no new load anywhere
            cls.links,
            # Identical trajectory: share the parent's position caches
            # instead of rebuilding full-trajectory dicts per trim.
            cls._link_positions,
            positions,
        )
    deflected: List[FlowClass] = []
    for index, lo, hi in spans:
        piece = _deflect(instance, rule_of, cls, index, lo, hi)
        deflected.append(piece)
        _note_outcome(report, lo, piece)
    return trim, deflected


def _drained(cls: FlowClass, node: Node, time: int) -> bool:
    """Whether ``_split_class`` leaves ``cls`` untouched by ``node`` alone
    at ``time``: offsets grow along a trajectory, so ``_partition`` drops
    every hit when the last one ``node`` can deflect at (a looped
    trajectory's final revisit deflects nothing) departs before ``time``."""
    positions = cls.node_positions()[node]
    last = positions[-1]
    if last == len(cls.nodes) - 1 and cls.outcome == LOOPED:
        if len(positions) == 1:
            return True
        last = positions[-2]
    hi = cls.hi
    return hi is not None and hi + cls.offsets[last] < time


def _partition(
    hits: List[int],
    offsets: Mapping[int, int],
    time: int,
    lo: Optional[int],
    hi: Optional[int],
) -> Optional[Tuple[Optional[Tuple[Optional[int], int]], List[Tuple[int, int, Optional[int]]]]]:
    """Partition a class's emissions ``[lo, hi]`` by where a round deflects them.

    ``hits`` are the ascending trajectory positions at which the round's
    switches sit on the class's trajectory, and ``offsets[p]`` is the
    departure offset at position ``p``.  A unit emitted at ``e`` leaves
    position ``p`` at ``e + offsets[p]``, so it reaches a hit's switch after
    the update when ``e >= time - offsets[p]``, the hit's threshold, and
    deflects at its *first* hit whose threshold it meets.  Offsets grow
    along the trajectory, so in position order the thresholds never
    increase: the pieces cover the emission axis from the top down, and a
    hit whose threshold lies past ``hi`` deflects nothing.

    Returns ``None`` when no emission deflects, otherwise ``(keep,
    pieces)``: the bounds of the emissions below every threshold (the last
    hit's), which keep the trajectory (``None`` when there are none), and
    per hit that deflects any emission, in ascending position order,
    ``(position, first emission, last emission)``.
    """
    if hi is not None:
        hits = [position for position in hits if time - offsets[position] <= hi]
    if not hits:
        return None
    keep_hi = time - offsets[hits[-1]] - 1
    keep = None
    if lo is None or lo <= keep_hi:
        keep = (lo, keep_hi if hi is None else min(hi, keep_hi))
    pieces = []
    previous_threshold: Optional[int] = None  # threshold of the previous (smaller) position
    for position in hits:
        threshold = time - offsets[position]
        piece_lo = threshold if lo is None else max(threshold, lo)
        piece_hi = None if previous_threshold is None else previous_threshold - 1
        previous_threshold = threshold
        if hi is not None:
            piece_hi = hi if piece_hi is None else min(piece_hi, hi)
        if piece_hi is not None and piece_lo > piece_hi:
            continue
        pieces.append((position, piece_lo, piece_hi))
    return keep, pieces


def _note_outcome(report: RoundReport, lo: Optional[int], piece) -> None:
    """Add a deflected piece emitted from ``lo`` on to ``report`` if it
    loops or black-holes."""
    if piece.outcome == LOOPED:
        report.loops.append((lo, piece.loop_switch()))
    elif piece.outcome == BLACKHOLE:
        report.blackholes.append((lo, piece.last_switch()))


def _sweep_link(
    link: LinkKey,
    capacity: float,
    intervals: List[Tuple[Optional[int], Optional[int], float]],
    t0: int,
) -> List[CongestionSpan]:
    """Find over-capacity departure-time segments on one link.

    Each ``(lo, hi, demand)`` interval contributes ``demand`` load over the
    departure times ``[lo, hi]``.  The sweep runs on sentinel clamps
    (:func:`_overloads`); only a span that touches one is given a reported
    bound: minus infinity is ``t0`` (spans start no earlier, so an overload
    that always held starts there), plus infinity just past the finite
    coordinates *and* ``t0`` (:func:`_open_end`) -- so an overload that
    never ends is reported even when every finite coordinate lies before
    ``t0``.
    """
    spans: List[CongestionSpan] = []
    for start, end, peak in _overloads(intervals, capacity):
        if end == _POS_CLAMP:
            end = _open_end(intervals, t0)
        if start < t0:
            start = t0
        if end >= start:
            spans.append(
                CongestionSpan(link=link, start=start, end=end, load=peak, capacity=capacity)
            )
    return spans


def _open_end(intervals: List[Tuple[Optional[int], Optional[int], float]], t0: int) -> int:
    """Where an overload open to plus infinity is reported to end: one past
    the last finite coordinate of ``intervals`` or ``t0``, whichever is later
    (the load is constant from there on)."""
    last = t0
    for lo, hi, _demand in intervals:
        if lo is not None and lo > last:
            last = lo
        if hi is not None and hi > last:
            last = hi
    return last + 1


def _overloads(
    intervals: List[Tuple[Optional[int], Optional[int], float]], capacity: float
) -> List[Tuple[int, int, float]]:
    """Over-capacity segments ``(start, end, peak load)`` of ``intervals``.

    One event sweep on the sentinel clamps: an open bound stands at
    ``_NEG_CLAMP`` / ``_POS_CLAMP``, far outside any reachable departure
    time.  Replacing the sentinels by the precise clamps of
    :func:`_sweep_link` is monotone and injective on the event coordinates
    (both lie outside every finite one), so every event keeps its place in
    the stable sort and every load is the same float; only a segment's
    open end differs, and it reads ``_NEG_CLAMP`` (a segment open to minus
    infinity starts there) or ``_POS_CLAMP`` (open to plus infinity) for the
    caller to place.
    """
    if not intervals:
        return []
    # Fast exit: total load fitting the capacity clears any overlap pattern.
    total = 0.0
    for _lo, _hi, demand in intervals:
        total += demand
    limit = capacity + _EPS
    if total <= limit:
        return []
    events: List[Tuple[int, float]] = []  # (coordinate, +/- demand)
    for lo, hi, demand in intervals:
        if lo is None:
            lo = _NEG_CLAMP
        if hi is None:
            hi = _POS_CLAMP
        if lo > hi:
            continue
        events.append((lo, demand))
        events.append((hi + 1, -demand))
    if not events:
        return []
    events.sort(key=_coordinate)  # stable: equal coordinates keep their order
    segments: List[Tuple[int, int, float]] = []
    load = 0.0
    segment_start: Optional[int] = None
    peak = 0.0
    last = len(events) - 1
    for index, (coord, delta) in enumerate(events):
        load += delta
        if index < last and events[index + 1][0] == coord:
            continue  # the load at ``coord`` counts every event there
        if load > limit:
            if segment_start is None:
                segment_start = coord
                peak = load
            elif load > peak:
                peak = load
        elif segment_start is not None:
            segments.append((segment_start, coord - 1, peak))
            segment_start = None
    return segments
