"""Shared branch-and-bound core for the OPT and OR searches.

:func:`repro.core.optimal.optimal_schedule` and
:func:`repro.updates.order_replacement.minimize_rounds` both search here.
OPT's search space is the schedules whose every round is clean (no loop,
black hole or congestion with every later switch on its old rule);
its proven makespan is the minimum over those, which the ILP of
:mod:`repro.core.mutp` can beat.
The per-node cost, not the node count, bounds what an exact search can
prove inside a budget, so the design keeps every node cheap; the
feasibility / makespan / round-count / ``proven`` values it must
reproduce are frozen in ``tests/data/engine_goldens.json``
(``tests/test_search_engines.py``).

* **One live search state.**  The whole DFS walks one interval tracker,
  built by :func:`repro.core.tracker.make_tracker`, which alone picks its
  layout: a branch commits onto it undoably and takes the commit back
  (``_undo``) when its subtree returns.  Every call the search makes is
  on the surface both layouts share: the split / check / commit / undo
  internals (``_split`` / ``_check_new_congestion`` / ``_commit`` /
  ``_undo``), the classes on a link (``crossings`` / ``crosses``) and, per
  class, its switch names, its delay at a position and its trajectory
  key (``switch_names`` / ``offset_at`` / ``trajectory_key``).
* **Probe chains instead of per-subset probes.**  Probing every
  candidate subset from scratch splits ``|S|`` switches per probe.
  Here subsets are enumerated as an include/exclude DFS over the
  candidate list: each *include* edge applies one switch on top of its
  parent's state, so a subset costs one single-switch split amortised
  instead of ``|S|`` -- and the edge is decided on the parent (both
  ``_split`` and ``_check_new_congestion`` are read-only), so only a kept
  include pays for a commit and its undo.  Transient
  violations are carried as *debt* (a rescue partner later in the chain
  may clear them); a leaf with debt runs one global cleanliness check,
  which over a violation-free parent state is exactly the joint round's
  verdict.  Debt that no remaining candidate
  can repair (nobody left on the violating trajectories) prunes the
  whole include subtree.
* **Targeted pairwise rescue.**  A singleton-unsafe switch can only be
  rescued by a partner that changes some contribution to its violation:
  a pending switch on the trajectory of a class crossing a violated
  link, on a split parent, or on a deflected piece.  The candidate pass
  therefore probes only that partner superset instead of every pending
  switch -- same rescued set as the full O(n^2) pair scan, O(n) fewer
  pair probes.
* **Transposition/dominance memo.**  Keyed by (applied set, live-class
  signature); an entry ``(t', last')`` dominates a node at ``(t, last)``
  when ``t' <= t`` and ``last' <= last``: the identical flow state was
  already explored no later and with no worse a makespan floor, under an
  incumbent no better than the current one, so nothing new can be found.
  The signature (emission bounds + trajectory bytes of every non-empty
  live class) makes the key exact -- equal keys mean equal search
  states -- which keeps the memo value-sound rather than heuristic.
* **Drain-horizon lower bound.**  Waiting is branched only while it can
  still pay: never past the finite-drain fix point when nothing is
  applicable, and never when the earliest remaining completion
  (``t + 2 - t0``, every pending update at ``t + 1`` or later) already
  meets the incumbent makespan.
* **Loop-freedom lower bound.**  A pending switch ``v`` on the old path
  whose new next hop ``v'`` lies upstream of it (a *backward edge*,
  Amiri et al.) cannot update before
  ``E(v) = min(time(p) - off(p)) + off(v)``, the minimum over the updated
  old-path switches ``p`` upstream of ``v``, with ``off`` the old-path
  offsets and ``time(p)`` the committed time or, for a pending ``p``, its
  own earliest time (``t``, or ``max(t, E(p))`` on a backward edge).
  Proof: the initial class emits on ``(-inf, inf)`` along the old path.
  If every upstream ``p`` has ``time(p) - off(p) > t - off(v)``, the unit
  emitted at ``t - off(v)`` reaches ``v`` at ``t`` still on the old path;
  updated at ``t``, ``v`` sends it to ``v'``, already on its way, so the
  split reports a non-empty looping piece
  ``[t - off(v), min(time(p) - off(p)) - 1]``.  A ``p`` updated in the same
  round has threshold ``t - off(p) > t - off(v)`` and rescues nothing.
  The walk looks only upstream, so one pass in old-path order with a
  running prefix minimum gives every ``E(v)``, O(pending) per node.  A
  DFS node whose ``max(t, max E) - t0 + 1`` meets the incumbent makespan
  is pruned; one that meets it at the root proves the incumbent optimal
  there.

The OR search shares the same shape with a much simpler state: the
id-space union-graph oracle of :mod:`repro.core.rounds` (flat old/new
next-hop tables, byte masks; a maximal safe set costs one full check plus
one reachability walk per candidate) instead of per-check dict graph
builds, no per-subset safety recheck for subsets of the greedy maximal
safe set (safe sets are downward closed, so the recheck is always true),
and a sound ``updated-set -> fewest rounds`` memo that prunes revisits.
Node budgets are deterministic in both searches: explored-node accounting
and branch order are pure functions of the instance.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.instance import UpdateInstance
from repro.core.intervals import _EPS, DELIVERED
from repro.core.rounds import greedy_loop_free_rounds, union_graph_ids
from repro.core.tracker import make_tracker
from repro.network.graph import Node
from repro.trace.recorder import recorder

_NEG_LAST = -(1 << 60)
_NEVER = 1 << 60


def _class_is_empty(cls) -> bool:
    return cls.lo is not None and cls.hi is not None and cls.lo > cls.hi


def _signature(tracker) -> Tuple:
    """Exact value identity of the live flow state.

    Two trackers over the same instance with equal signatures and equal
    applied sets route and congest identically forever: the signature
    captures every non-empty class's emission bounds and full trajectory,
    and the routing table is a function of the applied set.  Empty classes
    are skipped -- they contribute no load, no loops and no drain
    horizon... almost: the drain horizon scans them too, so they are kept
    distinct via the horizon field.
    """
    parts = []
    for cls in tracker.classes:
        if _class_is_empty(cls):
            continue
        parts.append(
            (
                cls.lo is not None,
                cls.lo if cls.lo is not None else 0,
                cls.hi is not None,
                cls.hi if cls.hi is not None else 0,
                cls.trajectory_key(),
            )
        )
    parts.sort()
    return (tuple(parts), tracker.finite_drain_horizon())


class _ChainCache:
    """Per-tracker-state facts reused along a waiting chain.

    A waiting branch recurses on the *same* tracker with ``t + 1``; along
    that chain the flow state (trajectories, emission windows, routing
    table) is frozen, so facts that depend only on routes survive from
    step to step:

    * ``relieved`` -- for each pending switch ``p``, the links on the
      old-route continuations strictly *beyond* ``p`` of the committed
      classes crossing it: the only committed load ``p``'s application
      can ever remove.  Used to refute rescue pairs without probing.
    * ``perm_partners`` -- a switch whose singleton application deflects
      an *infinite* class into a loop or black hole fails at every later
      step too (the same non-empty piece exists with the same
      trajectory); its rescue-partner superset is frozen at first
      failure and the per-step singleton probe is skipped.
    * ``pair_dead`` / ``perm_dead`` -- pair probes whose failure is
      permanent (infinite looping/black-holed piece, or steady-state
      congestion by infinite emission windows alone) are dead for the
      rest of the chain; a ``perm_partners`` switch with no live
      partners left costs nothing from then on.
    * ``retry_sing`` / ``retry_pair`` -- a probe that failed on a
      *finite* looping/black-holed piece provably keeps failing until
      that piece drains (``t > parent.hi + offset``, the exact moment
      the deflection threshold passes the parent's last emission); the
      probe is skipped until then.  A loop also pins the rescuer set to
      the piece/parent nodes -- fixing the loop requires re-routing the
      deflected unit, so a rescuer must sit on its trajectory -- which
      keeps the partner superset frozen at first failure valid for the
      whole retry window.
    """

    __slots__ = (
        "relieved",
        "perm_partners",
        "pair_dead",
        "perm_dead",
        "retry_sing",
        "retry_pair",
    )

    def __init__(self) -> None:
        self.relieved: Optional[Dict[Node, Set]] = None
        self.perm_partners: Dict[Node, List[Node]] = {}
        self.pair_dead: Set[Tuple[Node, Node]] = set()
        self.perm_dead: Set[Node] = set()
        # node -> (first step worth re-probing, frozen partner superset)
        self.retry_sing: Dict[Node, Tuple[int, List[Node]]] = {}
        # (node, partner) -> first step worth re-probing
        self.retry_pair: Dict[Tuple[Node, Node], int] = {}


class OptimalSearch:
    """The OPT branch and bound (see module docstring).

    Finds the minimum makespan over schedules whose every round is clean.
    A DFS that branches over candidate subsets at each step plus a
    waiting branch, with probe-chain subset expansion, the targeted
    candidate pass, the dominance memo, the drain-horizon bound and the
    loop-freedom bound.  ``explored`` counts DFS nodes and committed
    probe-chain states, and never exceeds ``node_budget``.
    """

    def __init__(
        self,
        instance: UpdateInstance,
        t0: int,
        time_budget: Optional[float],
        max_branch_width: int,
        max_horizon: int,
        node_budget: Optional[int],
    ) -> None:
        self.instance = instance
        self.t0 = t0
        self.time_budget = time_budget
        self.max_branch_width = max_branch_width
        self.max_horizon = max_horizon
        self.node_budget = node_budget
        self.started = time.monotonic()
        self.explored = 0
        self.timed_out = False
        self.horizon_cut = False
        self.width_cut = False
        self.best_times: Optional[Dict[Node, int]] = None
        self.best_makespan = max_horizon + 2
        self._demand = instance.demand
        self._leaf_ticks = 0
        # The loop-freedom bound's walk (:meth:`_loop_bound`): every updated
        # old-path switch in old-path order, with its offset and whether its
        # new next hop lies upstream of it (a backward edge).
        index = instance.old_path_index
        offsets = instance.old_path_offsets
        self._bound_walk: List[Tuple[Node, int, bool]] = []
        for node in instance.switches_to_update:
            if node in index:
                hop = index.get(instance.new_next_hop(node))
                backward = hop is not None and hop < index[node]
                self._bound_walk.append((node, offsets[node], backward))
        # (applied set, state signature) -> Pareto-minimal (t, last) entries.
        self._memo: Dict[Tuple[FrozenSet[Node], Tuple], List[Tuple[int, int]]] = {}

    # -- budgets -------------------------------------------------------
    def _out_of_time(self) -> bool:
        if self.timed_out:
            return True
        if (
            self.time_budget is not None
            and time.monotonic() - self.started > self.time_budget
        ):
            self.timed_out = True
        return self.timed_out

    def _tick(self) -> bool:
        """Periodic wall-clock check inside subset expansion."""
        self._leaf_ticks += 1
        if self._leaf_ticks % 64 == 0 and self.time_budget is not None:
            return self._out_of_time()
        return self.timed_out

    def _spend(self) -> bool:
        """Count one explored state, or stop the search if the budget is spent.

        Called before every counted state -- DFS entry, kept include, full
        round application -- so ``explored <= node_budget`` always holds.
        """
        if self.node_budget is not None and self.explored >= self.node_budget:
            self.timed_out = True
            return False
        self.explored += 1
        return True

    # -- entry point ---------------------------------------------------
    def run(self, seed_times: Optional[Dict[Node, int]], seed_makespan: Optional[int]):
        if seed_times is not None and seed_makespan is not None:
            self.best_times = dict(seed_times)
            self.best_makespan = seed_makespan
        root = make_tracker(self.instance, t0=self.t0)
        pending = tuple(self.instance.switches_to_update)
        self._dfs(root, pending, self.t0, None)
        return self.best_times, self.best_makespan

    # -- the DFS -------------------------------------------------------
    def _dfs(
        self,
        tracker,
        pending: Tuple[Node, ...],
        t: int,
        last_update: Optional[int],
        chain: Optional[_ChainCache] = None,
    ) -> None:
        if chain is None:
            chain = _ChainCache()
        if self.timed_out or self._out_of_time() or not self._spend():
            return
        t0 = self.t0
        if not pending:
            makespan = 0 if last_update is None else last_update - t0 + 1
            if makespan < self.best_makespan:
                self.best_makespan = makespan
                self.best_times = dict(tracker.applied)
            return
        if t - t0 + 1 >= self.best_makespan:
            return
        if self._loop_bound(tracker._applied, t) - t0 + 1 >= self.best_makespan:
            if recorder.enabled:
                recorder.count("search.bound.pruned")
            return
        if t - t0 > self.max_horizon:
            self.horizon_cut = True
            return

        last_key = _NEG_LAST if last_update is None else last_update
        memo_key = (frozenset(pending), _signature(tracker))
        entries = self._memo.get(memo_key)
        if entries is not None and any(
            te <= t and le <= last_key for te, le in entries
        ):
            return

        candidates = self._candidates(tracker, pending, t, chain)
        if self.timed_out:
            return

        applied_any = False
        if candidates:
            # When even an immediate next-step completion cannot beat the
            # incumbent (t + 2 - t0 >= best), only a round covering *all*
            # pending switches is worth expanding.
            if t + 2 - t0 >= self.best_makespan:
                if len(candidates) == len(pending):
                    applied_any = self._expand_full(tracker, pending, t)
            else:
                applied_any = self._expand_subsets(tracker, pending, candidates, t)
        if not self.timed_out:
            # Waiting branch, bounded: completions through it update at
            # t + 1 or later (makespan >= t + 2 - t0), and when nothing is
            # applicable waiting only helps while finite classes drain.
            if t + 2 - t0 < self.best_makespan:
                if applied_any:
                    self._dfs(tracker, pending, t + 1, last_update, chain)
                else:
                    horizon = tracker.finite_drain_horizon()
                    if horizon is not None and t <= horizon:
                        self._dfs(tracker, pending, t + 1, last_update, chain)
        if not self.timed_out:
            self._memo_record(memo_key, t, last_key)

    def _loop_bound(self, applied: Dict[Node, int], t: int) -> int:
        """A lower bound on the last update time of any loop-free completion.

        ``applied`` is the committed part and every other switch is pending
        at ``t`` or later.  A pending backward-edge switch ``v`` cannot
        update before ``E(v) = min(time(p) - off(p)) + off(v)`` over the
        updated switches ``p`` upstream of it (module docstring); a pending
        ``p``'s time is its own earliest one.  One pass in old-path order
        with a running prefix minimum gives every ``E(v)``; no updated
        switch upstream gives ``_NEVER``.
        """
        latest = t
        upstream = _NEVER  # min of time(p) - off(p) over the switches passed
        for node, offset, backward in self._bound_walk:
            when = applied.get(node)
            if when is None:
                when = t
                if backward:
                    earliest = upstream + offset
                    if earliest > when:
                        when = earliest
                        if when > latest:
                            latest = when
            if when - offset < upstream:
                upstream = when - offset
        return latest

    def _memo_record(self, memo_key, t: int, last_key: int) -> None:
        entries = self._memo.get(memo_key)
        if entries is None:
            self._memo[memo_key] = [(t, last_key)]
            return
        kept = [(te, le) for te, le in entries if not (t <= te and last_key <= le)]
        kept.append((t, last_key))
        self._memo[memo_key] = kept

    # -- candidate pass ------------------------------------------------
    def _candidates(
        self, tracker, pending: Tuple[Node, ...], t: int, chain: _ChainCache
    ) -> List[Node]:
        """Switches worth branching on at step ``t``.

        Round safety is not monotone: a switch that is unsafe alone can
        be safe when updated *together* with a partner whose update
        drains the conflicting traffic.  Pending sets up to
        ``max_branch_width`` are therefore branched in full; larger ones
        take every individually-safe switch (in pending order), then
        every unsafe switch some pending partner rescues (in pending
        order).  The pair scan only probes partners that could possibly
        rescue (see :meth:`_partner_superset`); everything refuted
        without a probe is refuted by a route/load argument, not a
        heuristic, so the result equals the full pairwise scan's.
        """
        if len(pending) <= self.max_branch_width:
            return list(pending)
        if chain.relieved is None:
            chain.relieved = self._relieved_links(tracker, pending)
        pending_set = set(pending)
        safe: List[Node] = []
        unsafe: List[Tuple[Node, List[Node]]] = []
        for index, node in enumerate(pending):
            if index % 32 == 0 and self._out_of_time():
                return safe
            if node in chain.perm_dead:
                continue
            cached = chain.perm_partners.get(node)
            if cached is None:
                held = chain.retry_sing.get(node)
                if held is not None:
                    retry_t, frozen = held
                    if t < retry_t:
                        cached = frozen
                    else:
                        del chain.retry_sing[node]
            if cached is not None:
                partners = [
                    p
                    for p in cached
                    if p in pending_set and (node, p) not in chain.pair_dead
                ]
                if not partners and node in chain.perm_partners:
                    chain.perm_dead.add(node)
                elif partners:
                    unsafe.append((node, partners))
                continue
            pieces, report = self._probe_split(tracker, [node], t)
            if report.ok:
                safe.append(node)
                continue
            partners = self._partner_superset(pending, node, pieces, report, chain.relieved)
            if self._permanent_failure(tracker, pieces, report):
                chain.perm_partners[node] = partners
                if not partners:
                    chain.perm_dead.add(node)
            else:
                retry_t = self._failure_retry_time(pieces)
                if retry_t is not None and retry_t > t + 1:
                    chain.retry_sing[node] = (retry_t, partners)
            if partners:
                unsafe.append((node, partners))
        rescued: List[Node] = []
        for node, partners in unsafe:
            if self._out_of_time():
                break
            for partner in partners:
                key = (node, partner)
                if key in chain.pair_dead:
                    continue
                held_t = chain.retry_pair.get(key)
                if held_t is not None:
                    if t < held_t:
                        continue
                    del chain.retry_pair[key]
                pieces, report = self._probe_split(tracker, [node, partner], t)
                if report.ok:
                    rescued.append(node)
                    break
                if self._permanent_failure(tracker, pieces, report):
                    chain.pair_dead.add(key)
                else:
                    retry_t = self._failure_retry_time(pieces)
                    if retry_t is not None and retry_t > t + 1:
                        chain.retry_pair[key] = retry_t
        candidates = safe + rescued
        if len(candidates) > self.max_branch_width:
            candidates = candidates[: self.max_branch_width]
            self.width_cut = True
        return candidates

    @staticmethod
    def _probe_split(tracker, nodes: List[Node], t: int):
        """``(pieces, full report)`` of the round ``nodes`` at ``t``, uncommitted."""
        pieces, _trims, _deflected, removed, report = tracker._split(nodes, t)
        tracker._check_new_congestion(pieces, removed, report)
        return pieces, report

    def _permanent_failure(self, tracker, pieces, report) -> bool:
        """Does this failed probe stay failed for the rest of the chain?

        Two sufficient conditions, both route-based and therefore
        time-invariant on a frozen tracker:

        * an *infinite* piece loops or black-holes -- the piece exists at
          every later application time (its parent emits forever, so the
          post-cut window is never empty) with the same trajectory;
        * steady-state congestion -- on some link the probe reported
          violated, counting only *infinite* emission windows (committed
          classes crossing it, minus split parents, plus the probe's
          infinite pieces), the load exceeds the capacity.  Finite
          classes drain but infinite ones do not: at any later
          application time the same infinite contributors overlap beyond
          every finite horizon, so the violation recurs at every step
          (and is reported, because committed state is congestion-free,
          so the overload always involves a fresh piece the probe's
          congestion check covers).

        Only the links in ``report.congestion`` need the steady test: a
        steady overload shows up as a (clamped-)unbounded violation of
        this very probe, so its link is always among the reported spans.
        """
        for piece, _parent in pieces:
            if piece.outcome != DELIVERED and piece.hi is None and not piece.is_empty():
                return True
        if not report.congestion:
            return False
        demand = self._demand
        infinite_pieces = [p for p, _ in pieces if p.hi is None and not p.is_empty()]
        parents: Dict[int, object] = {}
        for _piece, parent in pieces:
            if parent.hi is None:
                parents[id(parent)] = parent
        if not infinite_pieces:
            return False
        for span in report.congestion:
            link = span.link
            count = 0
            for cls, _offset in tracker.crossings(*link):
                if cls.hi is None and not _class_is_empty(cls):
                    count += 1
            for parent in parents.values():
                if tracker.crosses(parent, *link):
                    count -= 1
            for piece in infinite_pieces:
                if tracker.crosses(piece, *link):
                    count += 1
            if count * demand > span.capacity + _EPS:
                return True
        return False

    def _failure_retry_time(self, pieces) -> Optional[int]:
        """First step at which this probe's loop/black-hole failure can clear.

        A deflected piece at hit index ``i`` exists exactly while the
        deflection threshold ``t - offsets[i]`` has not passed the
        parent's last emission, i.e. while ``t <= parent.hi + offsets[i]``
        (:func:`repro.core.intervals._split_class`: the piece's upper
        bound is fixed at ``parent.hi`` while its lower bound tracks the
        threshold).  A looping or black-holed piece therefore keeps the
        probe failing -- with the *same* trajectory, so the same loop
        report -- up to and including that step.  Returns ``None`` when
        the failure is congestion-only (no drain argument applies).
        """
        retry: Optional[int] = None
        for piece, parent in pieces:
            if piece.outcome == DELIVERED or piece.is_empty():
                continue
            if parent.hi is None:
                continue  # permanent; handled by _permanent_failure
            clear = int(parent.hi) + parent.offset_at(piece.fresh_from) + 1
            if retry is None or clear > retry:
                retry = clear
        return retry

    def _relieved_links(self, tracker, pending: Tuple[Node, ...]) -> Dict[Node, Set]:
        """``p -> links whose committed load p's application can reduce``.

        Applying ``p`` deflects the late emissions of every committed
        class crossing it, removing that class's contribution to the
        old-route links strictly beyond ``p`` -- and nothing else.  Any
        congestion rescue of another switch therefore needs the partner
        either on this map for a violated link, or on the violating
        pieces/parents themselves (handled separately).
        """
        pending_set = set(pending)
        relieved: Dict[Node, Set] = {}
        for cls in tracker.classes:
            if _class_is_empty(cls):
                continue
            names = cls.switch_names()
            suffix: List = []
            for i in range(len(names) - 2, -1, -1):
                suffix.append((names[i], names[i + 1]))
                node = names[i]
                if node in pending_set:
                    bucket = relieved.get(node)
                    if bucket is None:
                        bucket = relieved[node] = set()
                    bucket.update(suffix)
        return relieved

    @staticmethod
    def _partner_superset(
        pending: Tuple[Node, ...],
        node: Node,
        pieces,
        report,
        relieved: Dict[Node, Set],
    ) -> List[Node]:
        """Pending switches that could rescue ``node``, in pending order.

        A partner changes the singleton outcome only by altering some
        contribution to it:

        * re-routing or re-partitioning the violating pieces -- partner
          on a piece's trajectory (including its fresh suffix) or on the
          split parent;
        * removing committed load from a violated link -- partner whose
          :meth:`_relieved_links` entry hits a violated link (load can
          only be *removed* from the old-route continuation beyond the
          partner; added load never fixes congestion).

        The union is a complete rescuer superset for congestion, loop
        and black-hole failures alike, so probing only these partners
        yields exactly the full pairwise scan's rescued set.
        """
        near: Set[Node] = set()
        for piece, parent in pieces:
            near.update(piece.switch_names())
            near.update(parent.switch_names())
        violated = {span.link for span in report.congestion}
        out: List[Node] = []
        for p in pending:
            if p == node:
                continue
            if p in near:
                out.append(p)
                continue
            if violated:
                links = relieved.get(p)
                if links is not None and not violated.isdisjoint(links):
                    out.append(p)
        return out

    # -- expansion -----------------------------------------------------
    @staticmethod
    def _state_clean(tracker) -> bool:
        return not (tracker.loops or tracker.blackholes or tracker.congestion_spans())

    @staticmethod
    def _on_pieces(pieces, rest: Set[Node]) -> bool:
        """Does a switch in ``rest`` sit on a split piece or its parent?"""
        for piece, parent in pieces:
            if not rest.isdisjoint(piece.switch_names()):
                return True
            if not rest.isdisjoint(parent.switch_names()):
                return True
        return False

    @staticmethod
    def _on_congested_links(tracker, report, rest: Set[Node]) -> bool:
        """Does a switch in ``rest`` sit on a class loading a violated link?"""
        seen_links = set()
        for span in report.congestion:
            if span.link in seen_links:
                continue
            seen_links.add(span.link)
            for cls, _offset in tracker.crossings(*span.link):
                if not rest.isdisjoint(cls.switch_names()):
                    return True
        return False

    def _decide_include(self, tracker, node: Node, t: int, rest: Set[Node]):
        """Decide one include edge on the state it leaves, without touching it.

        Returns ``None`` when applying ``node`` violates something no switch
        in ``rest`` (the candidates still to be decided) can clear, else
        ``(clean, split)`` with ``split`` the arguments ``_commit`` adopts.
        A later include can only remove a violation by touching
        the violating pieces, their parents, or a class loading a violated
        link (the completeness argument of :meth:`_partner_superset`); the
        first two are known after the split, so a loop or black hole with a
        possible rescuer there is carried as debt without a congestion pass.
        Every class the commit would add or kill is in ``pieces``, so the
        third question has the same answer before the commit as after it.
        """
        pieces, trims, deflected, removed, report = tracker._split([node], t)
        swept = report.ok  # a clean split is a clean round only once swept
        if swept:
            tracker._check_new_congestion(pieces, removed, report)
        keep = report.ok
        if not keep and rest:
            keep = self._on_pieces(pieces, rest)
            if not keep:
                if not swept:
                    tracker._check_new_congestion(pieces, removed, report)
                keep = self._on_congested_links(tracker, report, rest)
        if recorder.enabled:
            recorder.count("search.include.kept" if keep else "search.include.pruned")
        return (report.ok, (trims, deflected, removed)) if keep else None

    def _expand_subsets(
        self, tracker, pending: Tuple[Node, ...], candidates: List[Node], t: int
    ) -> bool:
        """Include/exclude DFS over ``candidates`` (include first).

        Visits every non-empty subset exactly once, as a chain of
        single-switch applies; include-first ordering reaches the full
        candidate set first: larger rounds reach complete schedules, and
        hence strong incumbents, sooner.  An include is decided on its
        parent's state (:meth:`_decide_include`); only a kept one is
        committed, and undone once its subtree returns, so every branch
        leaves ``tracker`` as it found it.
        """
        applied_any = False
        k = len(candidates)
        rests = [set(candidates[i + 1 :]) for i in range(k)]
        chosen: List[Node] = []
        t0 = self.t0

        def descend(i: int, debt: bool) -> None:
            nonlocal applied_any
            if self.timed_out or self._tick():
                return
            if i == k:
                if not chosen:
                    return
                if debt and not self._state_clean(tracker):
                    return
                applied_any = True
                chosen_set = set(chosen)
                remaining = tuple(n for n in pending if n not in chosen_set)
                if remaining and t + 2 - t0 >= self.best_makespan:
                    return
                self._dfs(tracker, remaining, t + 1, t)
                return
            node = candidates[i]
            # Include branch first (larger subsets first).
            decision = self._decide_include(tracker, node, t, rests[i])
            if decision is not None:
                # Each committed probe-chain state is an expanded node of
                # the (binary include/exclude) search tree.
                if not self._spend():
                    return
                clean, split = decision
                record = tracker._commit([node], t, *split, undoable=True)
                chosen.append(node)
                descend(i + 1, debt or not clean)
                chosen.pop()
                tracker._undo(record)
            if self.timed_out:
                return
            descend(i + 1, debt)

        descend(0, False)
        return applied_any

    def _expand_full(self, tracker, pending: Tuple[Node, ...], t: int) -> bool:
        """Probe only the all-pending round (the full_only fast path); its
        commits are undone on the way out."""
        records = []
        try:
            debt = False
            for index, node in enumerate(pending):
                if not self._spend():
                    return False
                decision = self._decide_include(tracker, node, t, set(pending[index + 1 :]))
                if decision is None:
                    return False
                clean, split = decision
                debt = debt or not clean
                records.append(tracker._commit([node], t, *split, undoable=True))
            if debt and not self._state_clean(tracker):
                return False
            self._dfs(tracker, (), t + 1, t)
            return True
        finally:
            for record in reversed(records):
                tracker._undo(record)


# ----------------------------------------------------------------------
# OR: round minimisation on the id-space union graph
# ----------------------------------------------------------------------

def run_round_search(
    instance: UpdateInstance,
    time_budget: Optional[float],
    max_branch_width: int,
    node_budget: Optional[int],
):
    """The round-minimisation branch and bound.

    Greedy incumbent, greedy maximal safe set per node, subsets largest
    first, on the id-space safety oracle; no per-subset safety recheck
    (safe sets are downward closed, so every subset of the maximal set
    passes), and a sound ``frozenset(updated) -> fewest rounds`` memo (a
    revisit with at least as many rounds used can never improve the
    incumbent, because the earlier visit already explored the identical
    subtree at an offset no worse).

    Returns ``(rounds, explored, timed_out, width_cut, elapsed)``.
    """
    started = time.monotonic()
    deadline = None if time_budget is None else started + time_budget
    pending_all = tuple(instance.switches_to_update)
    greedy = greedy_loop_free_rounds(instance, list(pending_all), deadline=deadline)
    best: List[List[Node]] = greedy
    best_count = len(greedy)
    explored = 0
    timed_out = deadline is not None and time.monotonic() > deadline
    width_cut = False

    graph = union_graph_ids(instance)
    id_of = graph.id_of
    names = graph.names
    pending_ids = tuple(id_of[node] for node in pending_all)
    updated_mask = bytearray(graph.n)
    memo: Dict[FrozenSet[int], int] = {}
    stack: List[Tuple[int, ...]] = []

    def dfs(updated_ids: FrozenSet[int], pending: Tuple[int, ...], used_rounds: int) -> None:
        nonlocal best, best_count, explored, timed_out, width_cut
        if timed_out:
            return
        if time_budget is not None and time.monotonic() - started > time_budget:
            timed_out = True
            return
        if node_budget is not None and explored >= node_budget:
            timed_out = True
            return
        explored += 1
        if not pending:
            if used_rounds < best_count:
                best_count = used_rounds
                best = [[names[i] for i in r] for r in stack]
            return
        if used_rounds + 1 >= best_count:
            return
        seen = memo.get(updated_ids)
        if seen is not None and seen <= used_rounds:
            return
        memo[updated_ids] = used_rounds

        # Greedy maximal safe set, in pending order.
        maximal = graph.maximal_safe_round(updated_mask, pending, deadline)
        if maximal is None:
            timed_out = True
            return
        if not maximal:
            return  # dead end (possible only with exotic drain rules)
        if len(maximal) > max_branch_width:
            maximal = maximal[:max_branch_width]
            width_cut = True

        for size in range(len(maximal), 0, -1):
            for subset in itertools.combinations(maximal, size):
                # Subsets of a safe set are safe: no recheck needed.
                stack.append(subset)
                for node in subset:
                    updated_mask[node] = 1
                dfs(
                    updated_ids | frozenset(subset),
                    tuple(n for n in pending if n not in subset),
                    used_rounds + 1,
                )
                for node in subset:
                    updated_mask[node] = 0
                stack.pop()
                if timed_out:
                    return

    dfs(frozenset(), pending_ids, 0)
    return best, explored, timed_out, width_cut, time.monotonic() - started
