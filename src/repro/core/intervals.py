"""Scalable exact dynamic-flow tracking via emission intervals.

The unit tracer in :mod:`repro.core.trace` follows every emitted unit of
flow individually, which is quadratic.  This module exploits that the source
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
are long.  Tests cross-validate it against the unit tracer on thousands of
random instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.cow import CowIndex
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

# Infinity stand-ins for the sweep's disjointness fast path; far outside any
# reachable departure time, so order relative to finite coordinates (which
# is all that test uses) is preserved.
_NEG_CLAMP = -(1 << 60)
_POS_CLAMP = 1 << 60

DELIVERED = "delivered"
BLACKHOLE = "blackhole"
LOOPED = "looped"


@dataclass(frozen=True)
class FlowClass:
    """A maximal group of emissions sharing one space-time trajectory.

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
    """

    lo: Optional[int]
    hi: Optional[int]
    nodes: Tuple[Node, ...]
    offsets: Tuple[int, ...]
    outcome: str = DELIVERED
    loop_node: Optional[Node] = None
    fresh_from: int = 0
    _link_positions: Optional[Dict[LinkKey, List[int]]] = field(
        default=None, compare=False, repr=False
    )

    def is_empty(self) -> bool:
        """Whether the emission interval contains no integer time."""
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def departure_interval(self, index: int) -> Tuple[Optional[int], Optional[int]]:
        """Departure-time interval at trajectory position ``index``."""
        offset = self.offsets[index]
        lo = None if self.lo is None else self.lo + offset
        hi = None if self.hi is None else self.hi + offset
        return lo, hi

    def links(self):
        """Iterate ``(index, (src, dst))`` over the trajectory's links."""
        for i in range(len(self.nodes) - 1):
            yield i, (self.nodes[i], self.nodes[i + 1])

    def link_positions(self) -> Dict[LinkKey, List[int]]:
        """``link -> trajectory indices`` (cached; trajectories are immutable)."""
        cached = self._link_positions
        if cached is None:
            cached = {}
            nodes = self.nodes
            for i in range(len(nodes) - 1):
                cached.setdefault((nodes[i], nodes[i + 1]), []).append(i)
            object.__setattr__(self, "_link_positions", cached)
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


@dataclass
class RoundReport:
    """What applying (or previewing) one update round would do.

    Attributes:
        time: The round's time point.
        nodes: Switches updated in the round.
        loops: ``(emission, node)`` pairs for new forwarding loops.
        blackholes: ``(emission, node)`` pairs for new black holes.
        congestion: New capacity violations caused by the round.
    """

    time: int
    nodes: Tuple[Node, ...]
    loops: List[Tuple[int, Node]] = field(default_factory=list)
    blackholes: List[Tuple[int, Node]] = field(default_factory=list)
    congestion: List[CongestionSpan] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.loops or self.blackholes or self.congestion)


class IntervalTracker:
    """Exact, incremental dynamic-flow state during a timed update.

    Typical use -- drive a schedule round by round::

        tracker = IntervalTracker(instance, t0=0)
        for time, nodes in schedule.rounds():
            report = tracker.apply_round(nodes, time)
        spans = tracker.congestion_spans()

    ``preview_round`` answers "would updating these switches now violate
    anything?" without committing, which is what the greedy scheduler and
    the OPT search branch on.
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
                check.  This is how multi-flow scheduling composes.  A
                link the network lacks is a ``KeyError``.
        """
        self.instance = instance
        self.t0 = t0
        self.background = background or {}
        for src, dst in self.background:
            if not instance.network.has_link(src, dst):
                raise KeyError(f"background load on non-existent link {src!r} -> {dst!r}")
        self._applied: Dict[Node, int] = {}
        self._last_time: Optional[int] = None
        self._classes: Dict[int, FlowClass] = {}
        self._alive: Set[int] = set()
        self._link_index: CowIndex[LinkKey, int] = CowIndex()
        self._node_index: CowIndex[Node, int] = CowIndex()
        self._next_id = 0
        # Congestion-check memoisation, valid between commits: candidate
        # -round probes (greedy's and OPT's ``preview_round`` calls) hit
        # the same links repeatedly while the committed load is unchanged,
        # so the committed interval list and its sweep result are cached
        # per link and invalidated wholesale by ``apply_round``.
        self._entry_memo: Dict[LinkKey, Tuple[_Entry, ...]] = {}
        self._span_memo: Dict[LinkKey, Tuple[CongestionSpan, ...]] = {}
        # Commits mark the span memo dirty instead of invalidating touched
        # links one by one; the (rare) global congestion check clears it.
        self._spans_dirty = False

        initial = _make_class(instance, None, None, instance.old_path)
        self._add_class(initial)

    def clone(self) -> "IntervalTracker":
        """An independent copy in O(touched state), not O(whole state).

        Flow classes are immutable and shared outright; the link and node
        indexes are copy-on-write (:class:`repro.core.cow.CowIndex`), so
        only their head-pointer dicts are copied -- every per-key id
        sequence is structurally shared with this tracker.  The congestion
        memos carry over as shallow dict copies of immutable tuples: each
        copy appends its own commits' entries to its own dict, and readers
        filter the entries against their own ``_alive`` set.
        """
        other = object.__new__(IntervalTracker)
        other.instance = self.instance
        other.t0 = self.t0
        other.background = self.background
        other._applied = dict(self._applied)
        other._last_time = self._last_time
        other._classes = dict(self._classes)
        other._alive = set(self._alive)
        other._link_index = self._link_index.snapshot()
        other._node_index = self._node_index.snapshot()
        other._next_id = self._next_id
        other._entry_memo = dict(self._entry_memo)
        other._span_memo = dict(self._span_memo)
        other._spans_dirty = self._spans_dirty
        return other

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
        for cid in sorted(self._alive):
            cls = self._classes[cid]
            if cls.outcome == LOOPED and not cls.is_empty():
                events.append((cls.lo if cls.lo is not None else cls.hi, cls.loop_node))
        return events

    @property
    def blackholes(self) -> List[Tuple[int, Node]]:
        """Dropped-traffic events of the final flow state (see ``loops``)."""
        events: List[Tuple[int, Node]] = []
        for cid in sorted(self._alive):
            cls = self._classes[cid]
            if cls.outcome == BLACKHOLE and not cls.is_empty():
                events.append((cls.lo if cls.lo is not None else cls.hi, cls.nodes[-1]))
        return events

    @property
    def classes(self) -> List[FlowClass]:
        """All live flow classes."""
        return [self._classes[cid] for cid in sorted(self._alive)]

    def load_at(self, src: Node, dst: Node, time: int) -> float:
        """Total flow departing over ``src -> dst`` at ``time``."""
        total = 0.0
        for cid in self._link_index.get((src, dst), ()):  # stale ids filtered below
            if cid not in self._alive:
                continue
            cls = self._classes[cid]
            for index in cls.link_positions().get((src, dst), ()):
                lo, hi = cls.departure_interval(index)
                if (lo is None or lo <= time) and (hi is None or time <= hi):
                    total += self.instance.demand
        return total

    def link_departure_spans(self, src: Node, dst: Node) -> List[Tuple[Optional[int], Optional[int]]]:
        """Departure intervals of all live classes on ``src -> dst``."""
        spans: List[Tuple[Optional[int], Optional[int]]] = []
        for cid in self._link_index.get((src, dst), ()):  # keep insertion order
            if cid not in self._alive:
                continue
            cls = self._classes[cid]
            for index in cls.link_positions().get((src, dst), ()):
                spans.append(cls.departure_interval(index))
        return spans

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def preview_round(self, nodes: Sequence[Node], time: int) -> RoundReport:
        """Report the violations updating ``nodes`` at ``time`` would cause.

        Does not modify the tracker.
        """
        with recorder.timer("tracker.preview"):
            self._check_round_args(nodes, time)
            pieces, _trims, _deflected, removed, report = self._split(nodes, time)
            self._check_new_congestion(pieces, removed, report)
            return report

    def apply_round(self, nodes: Sequence[Node], time: int) -> RoundReport:
        """Commit updating ``nodes`` at ``time`` and report new violations."""
        with recorder.timer("tracker.apply"):
            self._check_round_args(nodes, time)
            pieces, trims, deflected, removed, report = self._split(nodes, time)
            self._check_new_congestion(pieces, removed, report)
            self._commit(nodes, time, trims, deflected, removed)
            return report

    def probe_and_commit(self, nodes: Sequence[Node], time: int) -> RoundReport:
        """Apply ``nodes`` at ``time`` only when doing so violates nothing.

        A clean probe is one split + one sweep and commits the already
        -computed pieces instead of re-splitting (what ``preview_round``
        followed by ``apply_round`` would do); its report and the state it
        leaves are ``apply_round``'s.  A refused probe leaves the tracker
        untouched and costs what it takes to refuse it -- its report is a
        *witness*, not the full list of violations: the split stops at the
        first class that loops or black-holes (no congestion pass follows),
        the congestion pass at the first over-capacity link.  The contract:
        ``probe_and_commit(n, t).ok == preview_round(n, t).ok``, and each of
        ``loops`` / ``blackholes`` / ``congestion`` is a prefix of the list
        ``preview_round(n, t)`` reports (non-empty for at least one of them
        when refused).  This is the greedy engine's per-candidate step:
        probing heads one at a time against a scratch clone that accumulates
        the accepted ones.
        """
        with recorder.timer("tracker.probe"):
            self._check_round_args(nodes, time)
            pieces, trims, deflected, removed, report = self._split(
                nodes, time, witness=True
            )
            if report.loops or report.blackholes:
                if recorder.enabled:
                    recorder.count("tracker.probe.refused.split")
                return report
            self._check_new_congestion(pieces, removed, report, witness=True)
            if not report.congestion:
                self._commit(nodes, time, trims, deflected, removed)
            elif recorder.enabled:
                recorder.count("tracker.probe.refused.congestion")
            return report

    def _commit(
        self,
        nodes: Sequence[Node],
        time: int,
        trims: List[Tuple[int, FlowClass]],
        deflected: List[FlowClass],
        removed: Set[int],
    ) -> None:
        """Adopt a computed split as the new committed state.

        Trimmed parents keep their class id: the trim has the parent's
        exact trajectory, only narrower emission bounds, so replacing the
        class object in place leaves the link/node indexes and the
        offset-based memo entries valid with zero per-link work.  Only
        parents whose every emission deflected die, and only the deflected
        pieces (fresh routes) are registered as new classes.
        """
        classes = self._classes
        trimmed = set()
        for cid, trim in trims:
            classes[cid] = trim
            trimmed.add(cid)
        for cid in removed:
            if cid not in trimmed:
                self._alive.discard(cid)
        added = [(self._add_class(piece), piece) for piece in deflected]
        for node in nodes:
            self._applied[node] = time
        self._last_time = time
        self._spans_dirty = True
        if added:
            self._update_memos(added)

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
        links = set(self._link_index) | set(self.background)
        for link in sorted(links):
            spans.extend(self._committed_spans(link))
        spans.sort(key=lambda span: (span.start, span.link))
        return spans

    def congested_timed_link_count(self) -> int:
        """Number of congested links of the time-extended network (Fig. 8)."""
        return sum(span.timed_link_count for span in self.congestion_spans())

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
            last = cls.hi + cls.offsets[-1]
            horizon = last if horizon is None else max(horizon, last)
        return horizon

    @property
    def ok(self) -> bool:
        """No loops, black holes or congestion so far."""
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
        used.
        """
        report = RoundReport(time=time, nodes=tuple(nodes))
        round_set = set(nodes)
        applied_after = dict(self._applied)
        for node in nodes:
            applied_after[node] = time
        config = self.instance.config_at(applied_after, time)

        pieces: List[Tuple[FlowClass, FlowClass]] = []
        trims: List[Tuple[int, FlowClass]] = []
        deflected: List[FlowClass] = []
        removed: Set[int] = set()
        # Only classes whose trajectory touches a round switch can split.
        candidates: Set[int] = set()
        for node in round_set:
            candidates.update(self._node_index.get(node, ()))
        for cid in sorted(candidates):
            if cid not in self._alive:
                continue
            cls = self._classes[cid]
            split = _split_class(self.instance, cls, round_set, time, config, report)
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
        extras: Dict[LinkKey, List[Tuple[Optional[int], Optional[int], float]]] = {}
        for piece, _parent in pieces:
            nodes = piece.nodes
            offsets = piece.offsets
            lo0, hi0 = piece.lo, piece.hi
            for i in range(piece.fresh_from, len(nodes) - 1):
                lo = None if lo0 is None else lo0 + offsets[i]
                hi = None if hi0 is None else hi0 + offsets[i]
                extras.setdefault((nodes[i], nodes[i + 1]), []).append(
                    (lo, hi, demand)
                )
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
        capacities = self.instance.network.capacity_map()
        classes = self._classes
        alive = self._alive
        profiling = recorder.enabled
        for link, fresh in extras.items():
            capacity = capacities[link]
            committed = self._committed_entries(link)
            if not committed and len(fresh) * demand <= capacity + _EPS:
                if profiling:
                    recorder.count("tracker.links_skipped")
                continue  # combined fresh load cannot exceed capacity
            intervals = []
            for entry in committed:
                cid = entry[0]
                if cid is None:
                    intervals.append(entry[1:])
                elif cid in alive and cid not in removed:
                    cls = classes[cid]
                    offset = entry[1]
                    lo0 = cls.lo
                    hi0 = cls.hi
                    intervals.append(
                        (
                            None if lo0 is None else lo0 + offset,
                            None if hi0 is None else hi0 + offset,
                            entry[2],
                        )
                    )
            intervals.extend(fresh)
            if profiling:
                recorder.count("tracker.sweeps")
                recorder.count("tracker.sweep_intervals", len(intervals))
            report.congestion.extend(
                _sweep_link(link, capacity, intervals, self.t0)
            )
            if witness and report.congestion:
                return

    def _committed_entries(self, link: LinkKey) -> Tuple[_Entry, ...]:
        """The committed load contributions on ``link`` (memoised).

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
        for lo, hi, load in self.background.get(link, ()):
            entries.append((None, lo, hi, load))
        frozen = tuple(entries)
        self._entry_memo[link] = frozen
        return frozen

    def _committed_spans(self, link: LinkKey) -> Tuple[CongestionSpan, ...]:
        """Congestion spans of the committed state on ``link`` (memoised)."""
        memo = self._span_memo.get(link)
        if memo is not None:
            return memo
        alive = self._alive
        classes = self._classes
        intervals = []
        for entry in self._committed_entries(link):
            cid = entry[0]
            if cid is None:
                intervals.append(entry[1:])
            elif cid in alive:
                cls = classes[cid]
                offset = entry[1]
                lo0 = cls.lo
                hi0 = cls.hi
                intervals.append(
                    (
                        None if lo0 is None else lo0 + offset,
                        None if hi0 is None else hi0 + offset,
                        entry[2],
                    )
                )
        capacity = self.instance.network.capacity_map()[link]
        spans = tuple(_sweep_link(link, capacity, intervals, self.t0))
        self._span_memo[link] = spans
        return spans

    def _add_class(self, cls: FlowClass) -> int:
        cid = self._next_id
        self._next_id += 1
        self._classes[cid] = cls
        self._alive.add(cid)
        self._link_index.add_all(cls.link_positions(), cid)
        self._node_index.add_all(cls.nodes, cid)
        return cid


# ----------------------------------------------------------------------
# pure helpers
# ----------------------------------------------------------------------
def _make_class(
    instance: UpdateInstance,
    lo: Optional[int],
    hi: Optional[int],
    nodes: Sequence[Node],
    outcome: str = DELIVERED,
    loop_node: Optional[Node] = None,
    fresh_from: int = 0,
) -> FlowClass:
    delays = instance.network.delay_map()
    offsets = [0]
    acc = 0
    for src, dst in zip(nodes, nodes[1:]):
        acc += delays[(src, dst)]
        offsets.append(acc)
    return FlowClass(
        lo=lo,
        hi=hi,
        nodes=tuple(nodes),
        offsets=tuple(offsets),
        outcome=outcome,
        loop_node=loop_node,
        fresh_from=fresh_from,
    )


def _route_from(
    instance: UpdateInstance,
    config: Mapping[Node, Node],
    prefix: Sequence[Node],
) -> Tuple[List[Node], str, Optional[Node]]:
    """Extend ``prefix`` by following ``config`` from its last switch.

    Returns the full node sequence (prefix included), the outcome, and the
    revisited switch for looped routes.  Looped routes are truncated right
    after the first revisit.
    """
    nodes = list(prefix)
    visited = set(prefix)
    current = nodes[-1]
    destination = instance.destination
    max_hops = len(instance.network) + 1
    for _ in range(max_hops):
        if current == destination:
            return nodes, DELIVERED, None
        nxt = config.get(current)
        if nxt is None:
            return nodes, BLACKHOLE, None
        nodes.append(nxt)
        if nxt in visited:
            return nodes, LOOPED, nxt
        visited.add(nxt)
        current = nxt
    return nodes, LOOPED, current  # hop guard: treat as a loop


def _split_class(
    instance: UpdateInstance,
    cls: FlowClass,
    round_set: Set[Node],
    time: int,
    config: Mapping[Node, Node],
    report: RoundReport,
) -> Optional[Tuple[Optional[FlowClass], List[FlowClass]]]:
    """Split ``cls`` at this round's deflection thresholds.

    Returns ``None`` when the class is unaffected, otherwise
    ``(trim, deflected)``: the trimmed copy keeping the original trajectory
    (``None`` when every emission deflects) plus the freshly routed pieces.
    Loop and black-hole events for non-empty deflected pieces are appended
    to ``report``.
    """
    hits = [i for i, node in enumerate(cls.nodes) if node in round_set]
    if cls.outcome == LOOPED and hits and hits[-1] == len(cls.nodes) - 1:
        # The final position of a looped trajectory is where the unit was
        # killed (the revisit); it cannot be re-routed from there.  Earlier
        # occurrences may still deflect units before the loop forms.
        hits.pop()
    if not hits:
        return None

    # Deflection threshold per hit: emissions >= time - offset reach the
    # switch after its update.  Offsets grow strictly along the trajectory,
    # so thresholds strictly decrease with the index.
    thresholds = [(time - cls.offsets[i], i) for i in hits]

    relevant = [
        (threshold, i)
        for threshold, i in thresholds
        if cls.hi is None or threshold <= cls.hi
    ]
    if not relevant:
        return None

    trim: Optional[FlowClass] = None
    deflected: List[FlowClass] = []

    # Emissions below every threshold keep the original trajectory.
    lowest_threshold = min(threshold for threshold, _ in relevant)
    keep_hi = lowest_threshold - 1
    if cls.lo is None or cls.lo <= keep_hi:
        trim = FlowClass(
            lo=cls.lo,
            hi=keep_hi if cls.hi is None else min(cls.hi, keep_hi),
            nodes=cls.nodes,
            offsets=cls.offsets,
            outcome=cls.outcome,
            loop_node=cls.loop_node,
            fresh_from=len(cls.nodes),  # trimmed: no new load anywhere
            # Identical trajectory: share the parent's position cache
            # instead of rebuilding a full-trajectory dict per trim.
            _link_positions=cls._link_positions,
        )

    # A unit deflects at its *first* trajectory switch whose threshold it
    # meets.  Thresholds decrease with the index, so sorting hits by index
    # gives the emission-axis partition from the top down.
    relevant.sort(key=lambda item: item[1])  # ascending index
    previous_threshold: Optional[int] = None  # threshold of the previous (smaller) index
    for threshold, index in relevant:
        lo = threshold
        hi = None if previous_threshold is None else previous_threshold - 1
        previous_threshold = threshold
        lo = lo if cls.lo is None else max(lo, cls.lo)
        if cls.hi is not None:
            hi = cls.hi if hi is None else min(hi, cls.hi)
        if hi is not None and lo > hi:
            continue
        prefix = cls.nodes[: index + 1]
        nodes, outcome, loop_node = _route_from(instance, config, prefix)
        piece = _make_class(
            instance, lo, hi, nodes, outcome, loop_node, fresh_from=index
        )
        deflected.append(piece)
        if outcome == LOOPED:
            report.loops.append((lo, loop_node))
        elif outcome == BLACKHOLE:
            report.blackholes.append((lo, nodes[-1]))
    return trim, deflected


def _sweep_link(
    link: LinkKey,
    capacity: float,
    intervals: List[Tuple[Optional[int], Optional[int], float]],
    t0: int,
) -> List[CongestionSpan]:
    """Find over-capacity departure-time segments on one link.

    Each ``(lo, hi, demand)`` interval contributes ``demand`` load over the
    departure times ``[lo, hi]``; infinities are clamped just outside the
    finite coordinates, which preserves all finite overlaps (at most one
    minus-infinite and one plus-infinite interval can exist per link
    lineage, and two opposite-open intervals overlap on a finite segment).
    """
    if not intervals:
        return []
    # Fast exit: total load fitting the capacity clears any overlap pattern.
    total = 0.0
    for _lo, _hi, demand in intervals:
        total += demand
    if total <= capacity + _EPS:
        return []
    # Sentinel clamps for the disjointness test: any clamp lying outside
    # every finite coordinate yields the same verdict, so the precise
    # min/max pass over the coordinates is deferred to the slow path.
    clamped = sorted(
        (_NEG_CLAMP if lo is None else lo, _POS_CLAMP if hi is None else hi, demand)
        for lo, hi, demand in intervals
    )
    # Fast exit covering the overwhelming share of probe sweeps (a clean
    # link the round routed new load over): the intervals are pairwise
    # disjoint and none exceeds the capacity on its own, so no departure
    # time stacks two of them.  One pass over the lo-sorted list decides
    # it; only links that fail fall through to the full event sweep.
    disjoint = True
    reach: Optional[int] = None
    for lo, hi, demand in clamped:
        if lo > hi:
            continue
        if demand > capacity + _EPS or (reach is not None and lo <= reach):
            disjoint = False
            break
        reach = hi if reach is None else max(reach, hi)
    if disjoint:
        return []
    # Slow path: re-clamp just outside the finite coordinates so reported
    # span bounds stay exact.
    finite = [x for lo, hi, _ in intervals for x in (lo, hi) if x is not None]
    neg = (min(finite) if finite else 0) - 1
    pos = (max(finite) if finite else 0) + 1
    events: List[Tuple[int, float]] = []  # (coordinate, +/- demand)
    for lo, hi, demand in intervals:
        lo = neg if lo is None else lo
        hi = pos if hi is None else hi
        if lo > hi:
            continue
        events.append((lo, demand))
        events.append((hi + 1, -demand))
    if not events:
        return []
    events.sort(key=lambda item: item[0])
    spans: List[CongestionSpan] = []
    load = 0.0
    segment_start: Optional[int] = None
    peak = 0.0
    index = 0
    while index < len(events):
        coord = events[index][0]
        while index < len(events) and events[index][0] == coord:
            load += events[index][1]
            index += 1
        over = load > capacity + _EPS
        if over and segment_start is None:
            segment_start = coord
            peak = load
        elif segment_start is not None:
            if over:
                peak = max(peak, load)
            else:
                end = coord - 1
                start = max(segment_start, t0)
                if end >= start:
                    spans.append(
                        CongestionSpan(
                            link=link,
                            start=start,
                            end=end,
                            load=peak,
                            capacity=capacity,
                        )
                    )
                segment_start = None
    return spans
