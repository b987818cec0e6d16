"""Tests for the shaped reward function (Sec. IV-B3)."""

import numpy as np
import pytest

from repro.analysis.invariants import InvariantViolation
from repro.core.rewards import DROP_PENALTY, SUCCESS_REWARD, RewardFunction
from repro.sim.simulator import Outcome, OutcomeKind

from tests.topology.networks import line_network


def outcome(kind, **kwargs):
    return Outcome(kind=kind, time=0.0, flow_id=1, **kwargs)


@pytest.fixture
def reward_fn():
    # line-4 diameter = 3 link delays of 1.0 each.
    return RewardFunction(line_network(4), shaping=True)


class TestPaperValues:
    def test_success_is_plus_ten(self, reward_fn):
        assert reward_fn.outcome_reward(outcome(OutcomeKind.FLOW_SUCCESS)) == 10.0

    def test_drop_is_minus_ten(self, reward_fn):
        assert reward_fn.outcome_reward(
            outcome(OutcomeKind.FLOW_DROP, drop_reason="x")
        ) == -10.0

    def test_instance_bonus_scales_with_chain_length(self, reward_fn):
        assert reward_fn.outcome_reward(
            outcome(OutcomeKind.INSTANCE_TRAVERSED, chain_length=4)
        ) == pytest.approx(0.25)
        assert reward_fn.outcome_reward(
            outcome(OutcomeKind.INSTANCE_TRAVERSED, chain_length=1)
        ) == pytest.approx(1.0)

    def test_link_penalty_is_delay_over_diameter(self, reward_fn):
        assert reward_fn.outcome_reward(
            outcome(OutcomeKind.LINK_TRAVERSED, link_delay=1.5)
        ) == pytest.approx(-1.5 / 3.0)

    def test_keep_penalty_is_one_over_diameter(self, reward_fn):
        assert reward_fn.outcome_reward(
            outcome(OutcomeKind.FLOW_KEPT)
        ) == pytest.approx(-1.0 / 3.0)

    def test_total_sums_outcomes(self, reward_fn):
        outcomes = [
            outcome(OutcomeKind.INSTANCE_TRAVERSED, chain_length=2),
            outcome(OutcomeKind.LINK_TRAVERSED, link_delay=3.0),
            outcome(OutcomeKind.FLOW_SUCCESS),
        ]
        assert reward_fn.total(outcomes) == pytest.approx(0.5 - 1.0 + 10.0)


class TestShapingToggle:
    def test_shaping_off_keeps_terminal_rewards(self):
        fn = RewardFunction(line_network(4), shaping=False)
        assert fn.outcome_reward(outcome(OutcomeKind.FLOW_SUCCESS)) == 10.0
        assert fn.outcome_reward(
            outcome(OutcomeKind.FLOW_DROP, drop_reason="x")
        ) == -10.0
        for kind, kwargs in (
            (OutcomeKind.INSTANCE_TRAVERSED, {"chain_length": 2}),
            (OutcomeKind.LINK_TRAVERSED, {"link_delay": 1.0}),
            (OutcomeKind.FLOW_KEPT, {}),
        ):
            assert fn.outcome_reward(outcome(kind, **kwargs)) == 0.0


class TestShapingIsWeak:
    """Sec. IV-B3: each shaped signal has unit weight, which stays below
    half of either terminal reward, so shaping cannot rival completing or
    dropping a flow."""

    @pytest.mark.parametrize("chain_length", [1, 2, 3, 7])
    def test_a_whole_chain_of_bonuses_stays_below_half_the_success_reward(
        self, reward_fn, chain_length
    ):
        chain = [
            outcome(OutcomeKind.INSTANCE_TRAVERSED, chain_length=chain_length)
        ] * chain_length
        assert reward_fn.total(chain) == pytest.approx(1.0)
        assert reward_fn.total(chain) < 0.5 * SUCCESS_REWARD

    def test_link_and_keep_penalties_stay_below_half_the_drop_penalty(self):
        # D_G = 1: a link as long as the diameter, and the keep penalty
        # at its unit weight.
        fn = RewardFunction(line_network(2, link_delay=1.0), shaping=True)
        longest_link = outcome(OutcomeKind.LINK_TRAVERSED, link_delay=1.0)
        assert fn.outcome_reward(longest_link) == -1.0
        assert fn.outcome_reward(outcome(OutcomeKind.FLOW_KEPT)) == -1.0
        assert 1.0 < 0.5 * abs(DROP_PENALTY)

    def test_terminal_rewards_are_the_papers(self):
        assert (SUCCESS_REWARD, DROP_PENALTY) == (10.0, -10.0)


class TestTotalIsTheInOrderSum:
    """``total`` carries its own loop (one call per env step); the
    per-outcome method is its reference."""

    @pytest.mark.parametrize("shaping", [True, False])
    def test_bitwise_equal_to_summing_outcome_reward(self, shaping):
        fn = RewardFunction(line_network(5, link_delay=0.7), shaping=shaping)
        rng = np.random.default_rng(0)
        makers = [
            lambda: outcome(OutcomeKind.FLOW_SUCCESS),
            lambda: outcome(OutcomeKind.FLOW_DROP, drop_reason="x"),
            lambda: outcome(OutcomeKind.INSTANCE_TRAVERSED,
                            chain_length=int(rng.integers(1, 8))),
            lambda: outcome(OutcomeKind.LINK_TRAVERSED,
                            link_delay=float(rng.uniform(0.0, 9.0))),
            lambda: outcome(OutcomeKind.FLOW_KEPT),
        ]
        for _ in range(300):
            batch = [
                makers[int(rng.integers(len(makers)))]()
                for _ in range(int(rng.integers(0, 7)))
            ]
            expected = 0.0
            for item in batch:
                expected += fn.outcome_reward(item)
            assert repr(fn.total(batch)) == repr(expected)

    def test_accepts_any_iterable_and_empty_is_zero(self, reward_fn):
        assert reward_fn.total(iter([])) == 0.0
        assert reward_fn.total(
            o for o in [outcome(OutcomeKind.FLOW_SUCCESS)]
        ) == 10.0

    @pytest.mark.parametrize(
        "kind", [OutcomeKind.INSTANCE_TRAVERSED, OutcomeKind.LINK_TRAVERSED]
    )
    def test_malformed_outcome_raises_like_outcome_reward(self, reward_fn, kind):
        with pytest.raises(InvariantViolation, match="lacks"):
            reward_fn.total([outcome(OutcomeKind.FLOW_SUCCESS), outcome(kind)])
