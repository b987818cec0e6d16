"""Tests for the random baseline."""


from repro.baselines.random_policy import RandomPolicy

from tests.conftest import make_flow_specs, make_simple_catalog, make_simulator
from tests.topology.networks import star_network


class TestRandomPolicy:
    def test_reproducible_with_seed(self):
        net = star_network(4, node_capacity=5.0, link_capacity=5.0)
        catalog = make_simple_catalog()
        flows = make_flow_specs([float(t) for t in range(1, 20)],
                                ingress="v2", egress="v5")
        m1 = make_simulator(net, catalog, list(flows)).run(RandomPolicy(net, seed=7))
        m2 = make_simulator(net, catalog, list(flows)).run(RandomPolicy(net, seed=7))
        assert m1.success_ratio == m2.success_ratio
        assert m1.drop_reasons == m2.drop_reasons

    def test_full_space_includes_invalid_actions(self):
        """Sampling the padded space at a leaf produces dummy-neighbor
        drops (the penalty the DRL agents must learn to avoid)."""
        net = star_network(4, node_capacity=5.0, link_capacity=5.0)
        catalog = make_simple_catalog()
        flows = make_flow_specs([float(t) for t in range(1, 40)],
                                ingress="v2", egress="v5", deadline=20.0)
        sim = make_simulator(net, catalog, list(flows), horizon=100.0)
        metrics = sim.run(RandomPolicy(net, seed=0))
        assert metrics.drop_reasons.get("invalid_action", 0) > 0
