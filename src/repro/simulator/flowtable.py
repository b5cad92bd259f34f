"""OpenFlow-style match-action flow tables.

Reproduces the rule structure of Table II: rules match on input port,
source/destination prefixes and a version tag (the paper uses VLAN IDs for
two-phase updates), and act by outputting on a port, optionally re-stamping
the tag.  Priorities break ties the OpenFlow way (highest wins; insertion
order among equals).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

ANY = "*"


@dataclass(frozen=True)
class Match:
    """Rule match fields; ``None``/``"*"`` are wildcards.

    Attributes:
        in_port: Input port number.
        src_prefix: Source prefix string (exact-match semantics; the paper
            notes wildcard rules are increasingly replaced by exact match).
        dst_prefix: Destination prefix string.
        tag: Version tag (VLAN ID) for two-phase updates.
    """

    in_port: Optional[int] = None
    src_prefix: str = ANY
    dst_prefix: str = ANY
    tag: Optional[int] = None

    def covers(self, context: "PacketContext") -> bool:
        """Whether this match admits ``context``."""
        if self.in_port is not None and self.in_port != context.in_port:
            return False
        if self.src_prefix != ANY and self.src_prefix != context.src_prefix:
            return False
        if self.dst_prefix != ANY and self.dst_prefix != context.dst_prefix:
            return False
        if self.tag is not None and self.tag != context.tag:
            return False
        return True


@dataclass(frozen=True)
class PacketContext:
    """The header fields a switch matches on (fluid traffic descriptor)."""

    in_port: int
    src_prefix: str
    dst_prefix: str
    tag: Optional[int] = None

    def with_tag(self, tag: Optional[int]) -> "PacketContext":
        if tag == self.tag:
            return self
        return PacketContext(self.in_port, self.src_prefix, self.dst_prefix, tag)

    def with_in_port(self, in_port: int) -> "PacketContext":
        if in_port == self.in_port:
            return self
        return PacketContext(in_port, self.src_prefix, self.dst_prefix, self.tag)


@dataclass(frozen=True)
class FlowRule:
    """A match-action rule.

    Attributes:
        name: Identifier (unique within a table) used for modify/delete.
        match: Match fields.
        out_port: Output port; ``None`` drops.
        set_tag: When not ``None``, stamp this tag before output (two-phase
            ingress stamping).
        priority: Higher wins.
    """

    name: str
    match: Match
    out_port: Optional[int]
    set_tag: Optional[int] = None
    priority: int = 0


class FlowTable:
    """A switch's rule set with OpenFlow lookup semantics.

    Attributes:
        version: Bumped by every mutation, so a reader can tell whether a
            lookup result it kept is still current.
    """

    def __init__(self) -> None:
        self._rules: Dict[str, FlowRule] = {}
        self._order: List[str] = []
        self.version = 0

    # ------------------------------------------------------------------
    # mutation (the three FlowMod flavours)
    # ------------------------------------------------------------------
    def add(self, rule: FlowRule) -> None:
        """Install a rule; names must be unique."""
        if rule.name in self._rules:
            raise ValueError(f"duplicate rule {rule.name!r}")
        self._rules[rule.name] = rule
        self._order.append(rule.name)
        self.version += 1

    def modify(self, name: str, out_port: Optional[int] = None, set_tag: Optional[int] = None) -> FlowRule:
        """Rewrite a rule's action in place (Chronus' only operation)."""
        if name not in self._rules:
            raise KeyError(f"no rule {name!r}")
        old = self._rules[name]
        new = replace(old, out_port=out_port if out_port is not None else old.out_port, set_tag=set_tag)
        self._rules[name] = new
        self.version += 1
        return new

    def delete(self, name: str) -> None:
        """Remove a rule."""
        if name not in self._rules:
            raise KeyError(f"no rule {name!r}")
        del self._rules[name]
        self._order.remove(name)
        self.version += 1

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup(self, context: PacketContext) -> Optional[FlowRule]:
        """Highest-priority matching rule, or ``None`` (table miss)."""
        best: Optional[FlowRule] = None
        best_key: Tuple[int, int] = (-1, -1)
        for index, name in enumerate(self._order):
            rule = self._rules[name]
            if not rule.match.covers(context):
                continue
            key = (rule.priority, -index)  # priority first, then earliest
            if best is None or key > best_key:
                best = rule
                best_key = key
        return best

    @property
    def occupancy(self) -> int:
        """Number of resident rules (the flow-table-space metric)."""
        return len(self._rules)

    @property
    def rules(self) -> List[FlowRule]:
        return [self._rules[name] for name in self._order]

    def __contains__(self, name: str) -> bool:
        return name in self._rules

    def render(self) -> List[str]:
        """Human-readable rows in Table II's column layout."""
        rows = ["InPort  SrcPfx  DstPfx  Tag   Action"]
        for rule in self.rules:
            match = rule.match
            action = "Drop" if rule.out_port is None else f"Output:{rule.out_port}"
            if rule.set_tag is not None:
                action = f"SetTag:{rule.set_tag}," + action
            rows.append(
                "{:<7} {:<7} {:<7} {:<5} {}".format(
                    match.in_port if match.in_port is not None else ANY,
                    match.src_prefix,
                    match.dst_prefix,
                    match.tag if match.tag is not None else ANY,
                    action,
                )
            )
        return rows
