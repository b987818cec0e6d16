"""Reward function with shaping (Sec. IV-B3).

The sparse objective signal is ±10 for completed/dropped flows.  Because a
randomly initialised policy almost never completes a flow, three *small*
shaped signals guide early training:

- ``+1/n_s`` whenever a flow traverses a component instance,
- ``-d_l/D_G`` whenever a flow is sent over link ``l``,
- ``-1/D_G`` whenever an already fully processed flow is kept at a node.

The shaping magnitudes must stay well below the terminal rewards or they
distort the learned behaviour (e.g. half-processing two flows must never
beat completing one); :meth:`RewardConfig.validate_shaping` checks this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.invariants import InvariantViolation
from repro.sim.simulator import Outcome, OutcomeKind
from repro.topology.network import Network

__all__ = ["RewardConfig", "RewardFunction"]

_FLOW_SUCCESS = OutcomeKind.FLOW_SUCCESS
_FLOW_DROP = OutcomeKind.FLOW_DROP
_INSTANCE_TRAVERSED = OutcomeKind.INSTANCE_TRAVERSED
_LINK_TRAVERSED = OutcomeKind.LINK_TRAVERSED
_FLOW_KEPT = OutcomeKind.FLOW_KEPT


@dataclass(frozen=True)
class RewardConfig:
    """Reward magnitudes; paper defaults.

    Attributes:
        success_reward: Flow completed within its deadline (+10).
        drop_penalty: Flow dropped for any reason (-10).
        enable_shaping: Master switch for the three auxiliary signals —
            the reward-shaping ablation turns this off.
        instance_bonus_scale: Multiplier on the ``+1/n_s`` per-instance
            bonus.
        link_penalty_scale: Multiplier on the ``-d_l/D_G`` link penalty.
        keep_penalty_scale: Multiplier on the ``-1/D_G`` keep penalty.
    """

    success_reward: float = 10.0
    drop_penalty: float = -10.0
    enable_shaping: bool = True
    instance_bonus_scale: float = 1.0
    link_penalty_scale: float = 1.0
    keep_penalty_scale: float = 1.0

    def validate_shaping(self, min_chain_length: int = 1) -> None:
        """Raise when an auxiliary reward could rival the terminal rewards.

        The guard formalises the paper's warning: processing a whole chain
        of shaped bonuses (``n_s * (1/n_s) = 1``, scaled) must stay well
        below the +10 completion reward.
        """
        if not self.enable_shaping:
            return
        if self.instance_bonus_scale * 1.0 >= 0.5 * self.success_reward:
            raise ValueError(
                "instance bonus is too strong relative to the success reward; "
                "shaping must stay a weak signal (Sec. IV-B3)"
            )
        if self.link_penalty_scale >= 0.5 * abs(self.drop_penalty):
            raise ValueError(
                "link penalty is too strong relative to the drop penalty"
            )
        if self.keep_penalty_scale >= 0.5 * abs(self.drop_penalty):
            raise ValueError(
                "keep penalty is too strong relative to the drop penalty; "
                "shaping must stay a weak signal (Sec. IV-B3)"
            )


class RewardFunction:
    """Maps simulator outcomes to scalar rewards for one network.

    Args:
        network: Supplies the diameter ``D_G`` that normalises the link and
            keep penalties.
        config: Reward magnitudes.
    """

    def __init__(self, network: Network, config: RewardConfig = RewardConfig()) -> None:
        config.validate_shaping()
        self.config = config
        self.diameter = max(network.diameter, 1e-12)

    def outcome_reward(self, outcome: Outcome) -> float:
        """Reward contribution of a single semantic outcome."""
        cfg = self.config
        if outcome.kind is OutcomeKind.FLOW_SUCCESS:
            return cfg.success_reward
        if outcome.kind is OutcomeKind.FLOW_DROP:
            return cfg.drop_penalty
        if not cfg.enable_shaping:
            return 0.0
        if outcome.kind is OutcomeKind.INSTANCE_TRAVERSED:
            if outcome.chain_length is None:
                raise InvariantViolation(
                    "INSTANCE_TRAVERSED outcome lacks its chain length",
                    flow_id=outcome.flow_id,
                )
            return cfg.instance_bonus_scale / outcome.chain_length
        if outcome.kind is OutcomeKind.LINK_TRAVERSED:
            if outcome.link_delay is None:
                raise InvariantViolation(
                    "LINK_TRAVERSED outcome lacks its link delay",
                    flow_id=outcome.flow_id,
                )
            return -cfg.link_penalty_scale * outcome.link_delay / self.diameter
        if outcome.kind is OutcomeKind.FLOW_KEPT:
            return -cfg.keep_penalty_scale / self.diameter
        raise ValueError(f"unhandled outcome kind {outcome.kind}")  # pragma: no cover

    def total(self, outcomes: Iterable[Outcome]) -> float:
        """Summed reward of a batch of outcomes (one env step's worth).

        Adds the terms of :meth:`outcome_reward` in order, in one loop:
        the environment calls this once per decision.  A malformed
        outcome is handed to :meth:`outcome_reward`, which raises.
        """
        cfg = self.config
        shaping = cfg.enable_shaping
        diameter = self.diameter
        total = 0.0
        for outcome in outcomes:
            kind = outcome.kind
            if kind is _FLOW_SUCCESS:
                total += cfg.success_reward
            elif kind is _FLOW_DROP:
                total += cfg.drop_penalty
            elif not shaping:
                continue
            elif kind is _INSTANCE_TRAVERSED and outcome.chain_length is not None:
                total += cfg.instance_bonus_scale / outcome.chain_length
            elif kind is _LINK_TRAVERSED and outcome.link_delay is not None:
                total += -cfg.link_penalty_scale * outcome.link_delay / diameter
            elif kind is _FLOW_KEPT:
                total += -cfg.keep_penalty_scale / diameter
            else:
                total += self.outcome_reward(outcome)
        return total
