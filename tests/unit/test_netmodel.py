"""The multi-link network extension (repro.netmodel)."""

import numpy as np
import pytest

from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.link import Link
from repro.netmodel import (
    NetworkFluidSimulator,
    Topology,
    dumbbell,
    parking_lot,
    single_link,
)
from repro.protocols.aimd import AIMD


class TestTopology:
    def test_add_link_and_flow(self, emulab_link):
        topo = Topology().add_link("a", emulab_link)
        index = topo.add_flow(["a"])
        assert index == 0
        assert topo.n_flows == 1

    def test_duplicate_link_name_rejected(self, emulab_link):
        topo = Topology().add_link("a", emulab_link)
        with pytest.raises(ValueError):
            topo.add_link("a", emulab_link)

    def test_unknown_link_in_path_rejected(self, emulab_link):
        topo = Topology().add_link("a", emulab_link)
        with pytest.raises(ValueError):
            topo.add_flow(["b"])

    def test_repeated_link_in_path_rejected(self, emulab_link):
        topo = Topology().add_link("a", emulab_link)
        with pytest.raises(ValueError):
            topo.add_flow(["a", "a"])

    def test_flows_through(self, emulab_link):
        topo = parking_lot(emulab_link, 3)
        # The long flow plus the hop-local short flow.
        assert topo.flows_through("hop-1") == [0, 2]

    def test_base_rtt_sums_path(self, emulab_link):
        topo = parking_lot(emulab_link, 3)
        assert topo.base_rtt_of(0) == pytest.approx(3 * emulab_link.base_rtt)
        assert topo.base_rtt_of(1) == pytest.approx(emulab_link.base_rtt)

    def test_validate_empty(self):
        with pytest.raises(ValueError):
            Topology().validate()

    def test_builders_validate(self, emulab_link):
        with pytest.raises(ValueError):
            single_link(emulab_link, 0)
        with pytest.raises(ValueError):
            dumbbell(emulab_link, emulab_link, 0)
        with pytest.raises(ValueError):
            parking_lot(emulab_link, 1)


class TestSingleLinkEquivalence:
    """On a single-link topology the network model IS the paper's model."""

    def test_windows_match_single_link_simulator(self, emulab_link):
        protocols = [AIMD(1, 0.5), AIMD(1, 0.5)]
        reference = FluidSimulator(
            emulab_link, protocols, SimulationConfig(initial_windows=[30.0, 1.0])
        ).run(800)
        network = NetworkFluidSimulator(
            single_link(emulab_link, 2), protocols,
            initial_windows=[30.0, 1.0],
        ).run(800)
        np.testing.assert_allclose(network.windows, reference.windows)

    def test_loss_matches(self, emulab_link):
        protocols = [AIMD(1, 0.5)] * 2
        reference = FluidSimulator(emulab_link, protocols).run(600)
        network = NetworkFluidSimulator(single_link(emulab_link, 2),
                                        protocols).run(600)
        np.testing.assert_allclose(
            network.flow_loss[:, 0], reference.observed_loss[:, 0]
        )

    def test_random_loss_rate_matches(self, emulab_link):
        protocols = [AIMD(1, 0.5)] * 2
        reference = FluidSimulator(
            emulab_link, protocols, SimulationConfig(random_loss_rate=0.01)
        ).run(600)
        network = NetworkFluidSimulator(
            single_link(emulab_link, 2), protocols, random_loss_rate=0.01
        ).run(600)
        np.testing.assert_allclose(network.flow_loss, reference.observed_loss)
        np.testing.assert_allclose(network.windows, reference.windows)


class TestNetworkDynamics:
    def test_parking_lot_long_flow_gets_less_goodput(self, emulab_link):
        # The canonical multi-link result: the flow crossing every hop
        # delivers less than the single-hop flows (longer RTT for the same
        # window, exposure to every bottleneck).
        topo = parking_lot(emulab_link, 3)
        sim = NetworkFluidSimulator(topo, [AIMD(1, 0.5)] * topo.n_flows)
        trace = sim.run(3000).tail(0.5)
        goodput = trace.mean_goodput()
        assert all(goodput[0] < g for g in goodput[1:])

    def test_desynchronized_hops_shrink_long_flow_window(self):
        # With hops of different capacity the loss events desynchronize;
        # the long flow backs off whenever *either* hop loses and ends up
        # with a smaller window than the short flows too.
        topo = Topology()
        topo.add_link("hop-0", Link.from_mbps(20, 42, 60))
        topo.add_link("hop-1", Link.from_mbps(33, 42, 100))
        topo.add_flow(["hop-0", "hop-1"])
        topo.add_flow(["hop-0"])
        topo.add_flow(["hop-1"])
        sim = NetworkFluidSimulator(topo, [AIMD(1, 0.5)] * 3)
        trace = sim.run(4000).tail(0.5)
        means = trace.mean_windows()
        assert means[0] < means[1]
        assert means[0] < means[2]

    def test_dumbbell_bottleneck_is_the_shared_link(self):
        fat_access = Link.from_mbps(100, 10, 50)
        thin_bottleneck = Link.from_mbps(20, 20, 50)
        topo = dumbbell(fat_access, thin_bottleneck, 3)
        sim = NetworkFluidSimulator(topo, [AIMD(1, 0.5)] * 3)
        trace = sim.run(2000).tail(0.5)
        capacities = np.array(
            [topo.links[name].capacity for name in trace.link_names]
        )
        utilization = trace.link_utilization(capacities)
        by_name = dict(zip(trace.link_names, utilization))
        assert by_name["bottleneck"] > 0.7
        for i in range(3):
            assert by_name[f"access-{i}"] < by_name["bottleneck"]

    def test_symmetric_short_flows_fair(self, emulab_link):
        topo = parking_lot(emulab_link, 2)
        sim = NetworkFluidSimulator(topo, [AIMD(1, 0.5)] * 3)
        trace = sim.run(3000).tail(0.5)
        means = trace.mean_windows()
        assert means[1] == pytest.approx(means[2], rel=0.15)

    def test_rtt_inflation_reported_per_flow(self, emulab_link):
        topo = parking_lot(emulab_link, 2)
        sim = NetworkFluidSimulator(topo, [AIMD(1, 0.5)] * 3)
        trace = sim.run(1000).tail(0.5)
        inflation = trace.flow_rtt_inflation()
        assert (inflation >= 1.0 - 1e-9).all()

    def test_protocol_count_validated(self, emulab_link):
        topo = single_link(emulab_link, 2)
        with pytest.raises(ValueError):
            NetworkFluidSimulator(topo, [AIMD(1, 0.5)])

    def test_initial_window_count_validated(self, emulab_link):
        topo = single_link(emulab_link, 2)
        with pytest.raises(ValueError):
            NetworkFluidSimulator(topo, [AIMD(1, 0.5)] * 2,
                                  initial_windows=[1.0])

    @pytest.mark.parametrize("rate", [-0.1, 1.1, float("nan")])
    def test_random_loss_rate_validated(self, emulab_link, rate):
        with pytest.raises(ValueError, match="random_loss_rate must be in"):
            NetworkFluidSimulator(single_link(emulab_link, 1), [AIMD(1, 0.5)],
                                  random_loss_rate=rate)

    def test_steps_validated(self, emulab_link):
        sim = NetworkFluidSimulator(single_link(emulab_link, 1), [AIMD(1, 0.5)])
        with pytest.raises(ValueError):
            sim.run(0)

    def test_deterministic(self, emulab_link):
        topo = parking_lot(emulab_link, 2)
        t1 = NetworkFluidSimulator(topo, [AIMD(1, 0.5)] * 3).run(500)
        t2 = NetworkFluidSimulator(topo, [AIMD(1, 0.5)] * 3).run(500)
        np.testing.assert_array_equal(t1.windows, t2.windows)


class TestNetworkTraceValidation:
    def test_shape_mismatch_rejected(self, emulab_link):
        sim = NetworkFluidSimulator(single_link(emulab_link, 1), [AIMD(1, 0.5)])
        trace = sim.run(10)
        from repro.netmodel.trace import NetworkTrace

        with pytest.raises(ValueError):
            NetworkTrace(
                windows=trace.windows,
                flow_loss=trace.flow_loss[:5],
                flow_rtts=trace.flow_rtts,
                link_load=trace.link_load,
                link_loss=trace.link_loss,
                link_names=trace.link_names,
                base_rtts=trace.base_rtts,
            )

    def test_tail_fraction_validated(self, emulab_link):
        sim = NetworkFluidSimulator(single_link(emulab_link, 1), [AIMD(1, 0.5)])
        trace = sim.run(10)
        with pytest.raises(ValueError):
            trace.tail(0.0)
