"""Calibration tests tying topology constants to the paper's regimes."""


from repro.eval.scenarios import build_network
from repro.services import video_streaming_service
from repro.topology.zoo import topology_layout


def abilene(ingress=("v1",)):
    """The Abilene backbone with egress v8 and unit capacities."""
    return topology_layout("Abilene").network(
        lambda name: 1.0, lambda u, v: 1.0, ingress, ("v8",)
    )


class TestFig7Calibration:
    """Fig. 7's qualitative story depends on the delay calibration:

    - deadline 20 must be infeasible from both base ingresses,
    - deadline 30 must be feasible,
    - SP end-to-end delay ~21 ms (paper's reported value).
    """

    def test_minimum_end_to_end_in_paper_band(self):
        net = abilene(ingress=["v1", "v2"])
        processing = sum(c.processing_delay for c in video_streaming_service().components)
        assert processing == 15.0
        for ingress in ("v1", "v2"):
            best = net.shortest_path_delay(ingress, "v8") + processing
            assert 20.0 < best < 30.0, (
                f"{ingress}: min e2e {best:.1f} outside the paper's regime"
            )

    def test_deadline_100_is_generous(self):
        """The base deadline (100) leaves ample slack for detours."""
        net = abilene()
        assert net.diameter + 15.0 < 100.0


class TestLoadCalibration:
    def test_network_capacity_covers_base_load(self):
        """Expected total compute (U[0,2] x 11 nodes ~ 11) comfortably
        exceeds the steady demand of the 2-ingress base load (~3.6
        concurrent resource units), so coordination quality - not raw
        capacity - decides the success ratio."""
        net = build_network(num_ingress=2, capacity_seed=0)
        total_capacity = sum(net.node(n).capacity for n in net.node_names)
        # Steady concurrent demand: 3 components x (5ms + 1) residence
        # per flow / 10ms inter-arrival per ingress x 2 ingresses.
        steady_demand = 3 * 6.0 / 10.0 * 2
        assert total_capacity > 1.5 * steady_demand

    def test_ingresses_have_links_with_capacity_for_unit_flows(self):
        net = build_network(num_ingress=5, capacity_seed=0)
        for ingress in net.ingress:
            assert any(
                net.link(ingress, nb).capacity >= 1.0
                for nb in net.neighbors(ingress)
            )
