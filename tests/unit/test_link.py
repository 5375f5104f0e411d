"""The bottleneck link: Eq. (1) RTT and droptail loss (repro.model.link)."""

import math

import pytest

from repro.model.link import Link


class TestConstruction:
    def test_from_mbps_matches_paper_capacity(self, emulab_link):
        assert emulab_link.capacity == pytest.approx(70.0)
        assert emulab_link.base_rtt == pytest.approx(0.042)
        assert emulab_link.pipe_limit == pytest.approx(170.0)

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_bad_bandwidth_rejected(self, bad):
        with pytest.raises(ValueError):
            Link(bandwidth=bad, theta=0.021, buffer_size=100)

    def test_bad_theta_rejected(self):
        with pytest.raises(ValueError):
            Link(bandwidth=1000, theta=0.0, buffer_size=100)

    def test_negative_buffer_rejected(self):
        with pytest.raises(ValueError):
            Link(bandwidth=1000, theta=0.021, buffer_size=-1)

    def test_timeout_below_base_rtt_rejected(self):
        with pytest.raises(ValueError):
            Link(bandwidth=1000, theta=0.021, buffer_size=100, timeout_rtt=0.01)

    @pytest.mark.parametrize("field", ["bandwidth", "theta", "buffer_size", "timeout_rtt"])
    def test_nan_is_rejected_naming_the_field(self, field):
        fields = {"bandwidth": 1000.0, "theta": 0.021, "buffer_size": 100.0}
        fields[field] = math.nan
        with pytest.raises(ValueError, match=field):
            Link(**fields)

    def test_infinite_bandwidth_stays_legal(self):
        link = Link(bandwidth=math.inf, theta=0.021, buffer_size=100)
        assert link.capacity == math.inf

    def test_default_timeout_exceeds_full_buffer_rtt(self, emulab_link):
        assert emulab_link.timeout_rtt > emulab_link.full_buffer_rtt()

    def test_infinite_link_has_huge_capacity(self):
        link = Link.infinite()
        assert link.capacity > 1e10
        assert link.loss_rate(1e6) == 0.0


class TestRtt:
    """The paper's Eq. (1)."""

    def test_below_capacity_gives_base_rtt(self, emulab_link):
        assert emulab_link.rtt(0.0) == pytest.approx(emulab_link.base_rtt)
        assert emulab_link.rtt(69.9) == pytest.approx(emulab_link.base_rtt)

    def test_exact_capacity_gives_base_rtt(self, emulab_link):
        assert emulab_link.rtt(70.0) == pytest.approx(emulab_link.base_rtt)

    def test_queueing_delay_grows_linearly(self, emulab_link):
        # X = C + q queues q MSS, adding q / B seconds.
        q = 50.0
        expected = emulab_link.base_rtt + q / emulab_link.bandwidth
        assert emulab_link.rtt(70.0 + q) == pytest.approx(expected)

    def test_at_pipe_limit_returns_timeout(self, emulab_link):
        # X = C + tau is the boundary: Eq. (1) switches to Delta.
        assert emulab_link.rtt(emulab_link.pipe_limit) == pytest.approx(
            emulab_link.timeout_rtt
        )

    def test_beyond_pipe_limit_returns_timeout(self, emulab_link):
        assert emulab_link.rtt(1e6) == pytest.approx(emulab_link.timeout_rtt)

    def test_negative_window_rejected(self, emulab_link):
        with pytest.raises(ValueError):
            emulab_link.rtt(-1.0)


class TestLoss:
    def test_no_loss_within_pipe(self, emulab_link):
        assert emulab_link.loss_rate(0.0) == 0.0
        assert emulab_link.loss_rate(170.0) == 0.0

    def test_loss_is_excess_fraction(self, emulab_link):
        # X = 2 * (C + tau) drops half the traffic.
        assert emulab_link.loss_rate(340.0) == pytest.approx(0.5)

    def test_loss_monotone_in_window(self, emulab_link):
        losses = [emulab_link.loss_rate(x) for x in (171, 200, 300, 1000)]
        assert losses == sorted(losses)
        assert all(0 < loss < 1 for loss in losses)

    def test_loss_never_reaches_one(self, emulab_link):
        assert emulab_link.loss_rate(1e12) < 1.0

    def test_negative_window_rejected(self, emulab_link):
        with pytest.raises(ValueError):
            emulab_link.loss_rate(-0.1)


class TestQueueOccupancy:
    def test_empty_below_capacity(self, emulab_link):
        assert emulab_link.queue_occupancy(50.0) == 0.0

    def test_partial(self, emulab_link):
        assert emulab_link.queue_occupancy(120.0) == pytest.approx(50.0)

    def test_clamped_at_buffer(self, emulab_link):
        assert emulab_link.queue_occupancy(1e6) == pytest.approx(100.0)


class TestMisc:
    def test_with_bandwidth_changes_capacity(self, emulab_link):
        doubled = emulab_link.with_bandwidth(2 * emulab_link.bandwidth)
        assert doubled.capacity == pytest.approx(2 * emulab_link.capacity)
        assert doubled.buffer_size == emulab_link.buffer_size

    def test_describe_mentions_parameters(self, emulab_link):
        text = emulab_link.describe()
        assert "20.0 Mbps" in text
        assert "42.0 ms" in text

    def test_frozen(self, emulab_link):
        with pytest.raises(Exception):
            emulab_link.bandwidth = 1.0

    def test_full_buffer_rtt(self, emulab_link):
        expected = emulab_link.base_rtt + 100 / emulab_link.bandwidth
        assert emulab_link.full_buffer_rtt() == pytest.approx(expected)

    def test_describe_infinite(self):
        assert "infinite" in Link.infinite().describe()

    def test_timeout_is_finite(self, emulab_link):
        assert math.isfinite(emulab_link.timeout_rtt)


class TestRedMarking:
    """The RED ramp knobs: validation, ramp values, step-ECN coexistence."""

    def _red(self, min_th, max_th, **kwargs):
        return Link(bandwidth=1.0, theta=0.5, buffer_size=100.0,
                    red_min_threshold=min_th, red_max_threshold=max_th,
                    **kwargs)

    def test_requires_both_thresholds(self):
        with pytest.raises(ValueError, match="both"):
            Link(bandwidth=1.0, theta=0.5, buffer_size=100.0,
                 red_min_threshold=10.0)
        with pytest.raises(ValueError, match="both"):
            Link(bandwidth=1.0, theta=0.5, buffer_size=100.0,
                 red_max_threshold=10.0)

    def test_exclusive_with_step_ecn(self):
        with pytest.raises(ValueError, match="mutually"):
            Link(bandwidth=1.0, theta=0.5, buffer_size=100.0,
                 ecn_threshold=5.0, red_min_threshold=10.0,
                 red_max_threshold=20.0)

    def test_thresholds_must_be_ordered_and_within_buffer(self):
        with pytest.raises(ValueError, match="min_th <= max_th"):
            self._red(30.0, 10.0)
        with pytest.raises(ValueError, match="min_th <= max_th"):
            self._red(10.0, 200.0)
        with pytest.raises(ValueError, match="min_th <= max_th"):
            self._red(-1.0, 10.0)

    def test_max_mark_must_be_a_probability(self):
        with pytest.raises(ValueError, match="red_max_mark"):
            self._red(10.0, 30.0, red_max_mark=0.0)
        with pytest.raises(ValueError, match="red_max_mark"):
            self._red(10.0, 30.0, red_max_mark=1.5)

    def test_marking_enabled_property(self, emulab_link):
        assert not emulab_link.marking_enabled
        assert self._red(10.0, 30.0).marking_enabled
        ecn = Link(bandwidth=1.0, theta=0.5, buffer_size=100.0,
                   ecn_threshold=5.0)
        assert ecn.marking_enabled

    def test_no_marks_below_min_threshold(self):
        link = self._red(10.0, 30.0)
        # Queue = X - capacity; capacity = 1.0 * 1.0 = 1 MSS.
        assert link.mark_fraction(link.capacity + 10.0) == 0.0

    def test_ramp_value_matches_triangle_area(self):
        link = self._red(10.0, 30.0, red_max_mark=0.4)
        x = link.capacity + 20.0  # queue 20: halfway up the ramp
        # Integral of the ramp over slots [10, 20]: 0.4 * 10^2 / (2*20).
        expected = (0.4 * 10.0 * 10.0 / (2.0 * 20.0)) / x
        assert link.mark_fraction(x) == pytest.approx(expected)

    def test_queue_beyond_max_threshold_is_fully_marked(self):
        link = self._red(10.0, 30.0)
        x = link.capacity + 50.0  # queue 50: 20 over max_th
        full_ramp = 1.0 * 20.0 / 2.0  # triangle over [10, 30)
        expected = (full_ramp + 20.0) / x
        assert link.mark_fraction(x) == pytest.approx(expected)

    def test_gentle_mode_softens_the_cliff(self):
        classic = self._red(10.0, 30.0, red_max_mark=0.4)
        gentle = self._red(10.0, 30.0, red_max_mark=0.4, red_gentle=True)
        x = classic.capacity + 40.0  # queue 10 beyond max_th
        assert gentle.mark_fraction(x) < classic.mark_fraction(x)
        # Far beyond twice max_th both ramps saturate at certainty.
        deep = Link(bandwidth=1.0, theta=30.0, buffer_size=100.0,
                    red_min_threshold=2.0, red_max_threshold=4.0,
                    red_gentle=True)
        assert deep.mark_fraction(deep.pipe_limit) == pytest.approx(
            Link(bandwidth=1.0, theta=30.0, buffer_size=100.0,
                 red_min_threshold=2.0, red_max_threshold=4.0,
                 ).mark_fraction(deep.pipe_limit), rel=0.2)

    def test_monotone_in_window(self):
        link = self._red(10.0, 30.0, red_max_mark=0.7, red_gentle=True)
        xs = [link.capacity + q for q in range(0, 90, 5)]
        marked = [x * link.mark_fraction(x) for x in xs]
        assert marked == sorted(marked)
