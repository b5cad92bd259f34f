"""Rule accounting: what an update costs in flow-table operations.

Fig. 9 of the paper compares "the number of rules" of Chronus against
two-phase updates: what is counted are the *rule operations* the controller
issues during the transition (installs, modifies, deletes) -- Chronus only
modifies the action of existing rules, while two-phase updates install a
complete second (version-tagged) rule set and later remove the old one.
:class:`RuleAccounting` captures both that operation count and the peak
number of rules resident in flow tables (the "flow table space headroom"
argument of the introduction).  The footprint depends on the instance and
on one bit of the scheme -- in-place replacement or versioned installs --
so :func:`rule_accounting` is the only place it is written out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instance import UpdateInstance


@dataclass(frozen=True)
class RuleAccounting:
    """Rule footprint of one update plan.

    Attributes:
        installs: New rules written during the transition.
        modifies: Existing rules whose action is rewritten in place.
        deletes: Rules removed after the transition.
        baseline_rules: Rules present before the update begins.
        peak_rules: Maximum rules resident in flow tables at any moment.
    """

    installs: int
    modifies: int
    deletes: int
    baseline_rules: int
    peak_rules: int

    @property
    def operations(self) -> int:
        """Total rule operations -- the quantity plotted in Fig. 9."""
        return self.installs + self.modifies + self.deletes


def rule_accounting(instance: UpdateInstance, two_phase: bool = False) -> RuleAccounting:
    """The rule footprint of updating ``instance``.

    In-place schemes (Chronus, OPT, OR, AUG) rewrite one rule per switch
    to update -- an install where the switch sits on the new path only, a
    modification otherwise -- and delete nothing.  Two-phase updates
    install a versioned copy on every switch holding a rule in either
    configuration plus the ingress stamping rule, and remove every old
    rule after the flip, so tables peak at twice their steady size.
    """
    baseline = len(instance.old_config)  # one rule per old-config switch
    if two_phase:
        installs = len(instance.old_config.keys() | instance.new_config.keys()) + 1
        return RuleAccounting(
            installs=installs,
            modifies=0,
            deletes=baseline,
            baseline_rules=baseline,
            peak_rules=baseline + installs,
        )
    to_update = instance.switches_to_update
    installs = sum(1 for node in to_update if instance.old_next_hop(node) is None)
    return RuleAccounting(
        installs=installs,
        modifies=len(to_update) - installs,
        deletes=0,
        baseline_rules=baseline,
        peak_rules=baseline + installs,
    )
