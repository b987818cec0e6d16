"""The certified float32 argmax answers exactly the float64 argmax.

``MLPInference.certified_argmax`` returns the float32 argmax only when
the per-action bound δ of :func:`~repro.nn.mlp.logit_error_bound`
separates it from every other action.  The hardest inputs for that
claim are observations where the float64 argmax switches: there the top
two logits tie, and float32 rounding alone can pick the other action.
The probes below bisect towards those points; with the real δ the
certified answer must never differ from float64 there, and with δ = 0
(the unchecked float32 argmax) it must, or the probe has no teeth.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.nn.mlp as mlp_module
from repro.nn.mlp import (
    MLP,
    TANH_ERROR_F32,
    TANH_ERROR_F64,
    MLPInference,
    logit_error_bound,
)
from repro.rl.policy import ActorCriticPolicy

FIXTURES = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "fixtures"


def _exact(mlp: MLP):
    workspace = MLPInference(mlp)
    return lambda x: int(workspace.forward(x[None])[0].argmax())


def _switching_probes(mlp: MLP, seed: int, pairs: int, steps: int = 44):
    """Observations on the bisection path to points where the float64
    argmax of ``mlp`` switches, between random in-domain endpoints."""
    exact = _exact(mlp)
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(pairs):
        x0, x1 = rng.uniform(-1.0, 1.0, (2, mlp.in_dim))
        a0 = exact(x0)
        if exact(x1) == a0:
            continue
        lo, hi = 0.0, 1.0
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            x = np.clip(x0 + mid * (x1 - x0), -1.0, 1.0)
            probes.append(x)
            if exact(x) == a0:
                lo = mid
            else:
                hi = mid
    return probes


def _disagreements(mlp: MLP, probes) -> tuple:
    """(certified answers != float64 argmax, certified answers)."""
    exact = _exact(mlp)
    workspace = MLPInference(mlp, np.float32)
    wrong = certified = 0
    for x in probes:
        action = workspace.certified_argmax(x)
        if action >= 0:
            certified += 1
            wrong += action != exact(x)
    return wrong, certified


@pytest.fixture(scope="module", params=["abilene_acktr.npz", "interroute_acktr.npz"])
def fixture_probes(request):
    actor = ActorCriticPolicy.load(FIXTURES / request.param).actor
    return actor, _switching_probes(actor, seed=0, pairs=150)


class TestNearTieProbes:
    def test_certified_path_never_disagrees_at_switching_points(self, fixture_probes):
        actor, probes = fixture_probes
        assert len(probes) > 2000
        wrong, certified = _disagreements(actor, probes)
        assert wrong == 0
        # The first bisection steps are far from the switch and certify;
        # the rest sit within δ of the tie and fall back.
        assert certified > len(probes) // 10

    def test_without_the_bound_the_probe_finds_disagreements(
        self, fixture_probes, monkeypatch
    ):
        actor, probes = fixture_probes
        monkeypatch.setattr(
            mlp_module, "logit_error_bound", lambda mlp: np.zeros(mlp.out_dim)
        )
        wrong, _ = _disagreements(actor, probes)
        assert wrong > 200  # 847 on Abilene, 956 on Interroute


@st.composite
def tanh_mlps(draw):
    in_dim = draw(st.integers(1, 24))
    hidden = draw(st.lists(st.integers(1, 64), min_size=0, max_size=3))
    out_dim = draw(st.integers(2, 8))
    scale = draw(st.sampled_from([0.05, 0.3, 1.0, 3.0, 10.0]))
    seed = draw(st.integers(0, 2**16))
    mlp = MLP(in_dim, hidden, out_dim, out_gain=1.0, rng=seed)
    for w in mlp.parameters:
        w *= scale
    return mlp, seed


class TestGeneratedNetworks:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tanh_mlps())
    def test_certified_answers_are_float64_answers(self, case):
        mlp, seed = case
        rng = np.random.default_rng(seed)
        edges = rng.choice([-1.0, 0.0, 1.0], size=(20, mlp.in_dim))
        probes = list(edges) + _switching_probes(mlp, seed, pairs=12, steps=40)
        wrong, _ = _disagreements(mlp, probes)
        assert wrong == 0

    def test_bound_is_finite_for_tanh_and_infinite_otherwise(self):
        """Every network is tanh; the one "otherwise" left is weights large
        enough for a float32 sum to overflow."""
        tanh = MLP(5, (7, 7), 3, rng=0)
        assert np.isfinite(logit_error_bound(tanh)).all()
        assert (logit_error_bound(tanh) > 0).all()
        for w in tanh.parameters:
            w *= 1e35
        assert np.isinf(logit_error_bound(tanh)).all()
        # No hidden layer: one GEMM, no activation to bound.
        assert np.isfinite(logit_error_bound(MLP(5, (), 3, rng=0))).all()

    def test_weights_a_float32_sum_could_overflow_get_no_bound(self):
        mlp = MLP(4, (3,), 2, rng=0)
        for w in mlp.parameters:
            w *= 1e35
        assert np.isinf(logit_error_bound(mlp)).all()
        workspace = MLPInference(mlp, np.float32)
        assert workspace.certified_argmax(np.zeros(4)) == -1


class TestDomain:
    def _workspace(self):
        mlp = MLP(6, (16,), 4, out_gain=1.0, rng=2)
        return mlp, MLPInference(mlp, np.float32)

    @pytest.mark.parametrize("bad", [1.0 + 1e-12, -1.5, np.nan, np.inf, -np.inf])
    def test_a_row_outside_the_domain_falls_back(self, bad):
        mlp, workspace = self._workspace()
        x = np.full(6, 0.25)
        x[3] = bad
        assert workspace.certified_argmax(x) == -1
        assert workspace.fallbacks == 1
        # Through a frozen policy's act_single the float64 forward answers
        # instead.
        policy = ActorCriticPolicy(6, 4, hidden=(16,), rng=2)
        policy.actor = mlp
        policy.freeze()
        if np.isfinite(bad):
            assert policy.act_single(x) == _exact(mlp)(x)
            assert policy.certified_workspace.fallbacks == 1

    def test_domain_edges_are_inside(self):
        mlp, workspace = self._workspace()
        exact = _exact(mlp)
        for x in (np.ones(6), -np.ones(6), np.zeros(6)):
            action = workspace.certified_argmax(x)
            assert action in (-1, exact(x))
        assert workspace.fallbacks < 3

    def test_both_row_shapes_decide_alike(self):
        mlp, workspace = self._workspace()
        x = np.linspace(-1.0, 1.0, 6)
        assert workspace.certified_argmax(x) == workspace.certified_argmax(x[None])

    def test_float64_workspace_has_no_bound_and_refuses(self):
        mlp = MLP(3, (4,), 2, rng=0)
        workspace = MLPInference(mlp)
        assert workspace.logit_bound is None
        with pytest.raises(ValueError, match="float32"):
            workspace.certified_argmax(np.zeros(3))


class TestTanhAllowance:
    """The bound adds TANH_ERROR_F32 + TANH_ERROR_F64 between layers; this
    grid pins that numpy's tanh stays inside both allowances, in the
    contiguous and the strided ``out=`` layouts the forward writes."""

    def _grid(self):
        rng = np.random.default_rng(0)
        # Random float32 bit patterns up to |x| = 32, both signs, plus a
        # dense linear grid and the subnormal / saturation edges.
        bits = rng.integers(0, 0x42000000, size=1 << 21, dtype=np.uint32)
        x = bits.view(np.float32)
        dense = np.linspace(-12.0, 12.0, 1 << 20, dtype=np.float32)
        edges = np.array(
            [0.0, 1e-45, 1e-38, 1e-8, 0.5, 1.0, 9.0, 9.01, 10.0, 88.7, 3e38],
            dtype=np.float32,
        )
        return np.concatenate([x, -x, dense, edges, -edges])

    def test_float32_tanh_error_is_within_its_allowance(self):
        x = self._grid()
        reference = np.tanh(x.astype(np.longdouble))
        for layout in ("contiguous", "strided"):
            if layout == "contiguous":
                y = np.tanh(x)
            else:
                buf = np.empty((len(x), 2), dtype=np.float32)
                y = np.tanh(x, out=buf[:, 0])
            error = np.abs(y.astype(np.longdouble) - reference).max()
            assert error <= TANH_ERROR_F32 / 1.5, layout
            assert np.abs(y).max() <= 1.0

    def test_float64_tanh_error_is_within_its_allowance(self):
        x = self._grid().astype(np.float64)
        x = np.concatenate([x, np.random.default_rng(1).uniform(-20, 20, 1 << 20)])
        y = np.tanh(x)
        error = np.abs(y.astype(np.longdouble) - np.tanh(x.astype(np.longdouble)))
        assert error.max() <= TANH_ERROR_F64 / 1.5
        assert np.abs(y).max() <= 1.0
