"""Reward function with shaping (Sec. IV-B3).

The sparse objective signal is ±10 for completed/dropped flows.  Because a
randomly initialised policy almost never completes a flow, three *small*
shaped signals guide early training:

- ``+1/n_s`` whenever a flow traverses a component instance,
- ``-d_l/D_G`` whenever a flow is sent over link ``l``,
- ``-1/D_G`` whenever an already fully processed flow is kept at a node.

Each shaped signal has unit weight — a whole chain's bonuses sum to
``n_s · 1/n_s = 1`` — and a unit weight stays below half of either
terminal reward, so shaping remains a weak signal that cannot distort the
learned behaviour (e.g. half-processing two flows never beats completing
one; ``tests/core/test_rewards.py`` pins the inequality).  All five
magnitudes are the paper's and fixed; the one switch is whether the three
shaped signals are paid at all (the reward-shaping ablation).
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.invariants import InvariantViolation
from repro.sim.simulator import Outcome, OutcomeKind
from repro.topology.network import Network

__all__ = ["SUCCESS_REWARD", "DROP_PENALTY", "RewardFunction"]

#: A flow completed within its deadline.
SUCCESS_REWARD = 10.0
#: A flow dropped, for any reason.
DROP_PENALTY = -10.0

_FLOW_SUCCESS = OutcomeKind.FLOW_SUCCESS
_FLOW_DROP = OutcomeKind.FLOW_DROP
_INSTANCE_TRAVERSED = OutcomeKind.INSTANCE_TRAVERSED
_LINK_TRAVERSED = OutcomeKind.LINK_TRAVERSED
_FLOW_KEPT = OutcomeKind.FLOW_KEPT


class RewardFunction:
    """Maps simulator outcomes to scalar rewards for one network.

    Args:
        network: Supplies the diameter ``D_G`` that normalises the link and
            keep penalties.
        shaping: Pay the three shaped signals (the paper does); ``False``
            leaves only the terminal ±10.
    """

    def __init__(self, network: Network, shaping: bool) -> None:
        self.shaping = shaping
        self.diameter = max(network.diameter, 1e-12)

    def outcome_reward(self, outcome: Outcome) -> float:
        """Reward contribution of a single semantic outcome."""
        if outcome.kind is OutcomeKind.FLOW_SUCCESS:
            return SUCCESS_REWARD
        if outcome.kind is OutcomeKind.FLOW_DROP:
            return DROP_PENALTY
        if not self.shaping:
            return 0.0
        if outcome.kind is OutcomeKind.INSTANCE_TRAVERSED:
            if outcome.chain_length is None:
                raise InvariantViolation(
                    "INSTANCE_TRAVERSED outcome lacks its chain length",
                    flow_id=outcome.flow_id,
                )
            return 1.0 / outcome.chain_length
        if outcome.kind is OutcomeKind.LINK_TRAVERSED:
            if outcome.link_delay is None:
                raise InvariantViolation(
                    "LINK_TRAVERSED outcome lacks its link delay",
                    flow_id=outcome.flow_id,
                )
            return -outcome.link_delay / self.diameter
        if outcome.kind is OutcomeKind.FLOW_KEPT:
            return -1.0 / self.diameter
        raise ValueError(f"unhandled outcome kind {outcome.kind}")  # pragma: no cover

    def total(self, outcomes: Iterable[Outcome]) -> float:
        """Summed reward of a batch of outcomes (one env step's worth).

        Adds the terms of :meth:`outcome_reward` in order, in one loop:
        the environment calls this once per decision.  A malformed
        outcome is handed to :meth:`outcome_reward`, which raises.
        """
        shaping = self.shaping
        diameter = self.diameter
        total = 0.0
        for outcome in outcomes:
            kind = outcome.kind
            if kind is _FLOW_SUCCESS:
                total += SUCCESS_REWARD
            elif kind is _FLOW_DROP:
                total += DROP_PENALTY
            elif not shaping:
                continue
            elif kind is _INSTANCE_TRAVERSED and outcome.chain_length is not None:
                total += 1.0 / outcome.chain_length
            elif kind is _LINK_TRAVERSED and outcome.link_delay is not None:
                total += -outcome.link_delay / diameter
            elif kind is _FLOW_KEPT:
                total += -1.0 / diameter
            else:
                total += self.outcome_reward(outcome)
        return total
