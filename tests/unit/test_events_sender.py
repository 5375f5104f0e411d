"""Event schedules and sender state (repro.model.events, repro.model.sender)."""

import math

import pytest

from repro.model.events import EventSchedule, LinkChange, SenderStart
from repro.model.link import Link
from repro.model.sender import SenderState


class TestSenderStart:
    def test_fields(self):
        event = SenderStart(sender=1, step=10, window=5.0)
        assert (event.sender, event.step, event.window) == (1, 10, 5.0)

    @pytest.mark.parametrize("kwargs", [
        {"sender": -1, "step": 0},
        {"sender": 0, "step": -1},
        {"sender": 0, "step": 0, "window": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SenderStart(**kwargs)


class TestLinkChange:
    def test_negative_step_rejected(self, emulab_link):
        with pytest.raises(ValueError):
            LinkChange(step=-1, link=emulab_link)


class TestSchedule:
    def test_start_for_returns_last_registration(self):
        schedule = EventSchedule()
        schedule.add_sender_start(0, 10)
        schedule.add_sender_start(0, 20)
        assert schedule.start_for(0).step == 20

    def test_start_for_missing_sender(self):
        assert EventSchedule().start_for(3) is None

    def test_link_at_without_changes_returns_default(self, emulab_link):
        assert EventSchedule().link_at(5, emulab_link) is emulab_link

    def test_link_at_applies_latest_change(self, emulab_link):
        half = emulab_link.with_bandwidth(emulab_link.bandwidth / 2)
        quarter = emulab_link.with_bandwidth(emulab_link.bandwidth / 4)
        schedule = (
            EventSchedule()
            .add_link_change(10, half)
            .add_link_change(20, quarter)
        )
        assert schedule.link_at(5, emulab_link) is emulab_link
        assert schedule.link_at(15, emulab_link) is half
        assert schedule.link_at(25, emulab_link) is quarter

    def test_max_step(self, emulab_link):
        schedule = EventSchedule().add_sender_start(0, 7).add_link_change(
            12, emulab_link
        )
        assert schedule.max_step() == 12

    def test_max_step_empty(self):
        assert EventSchedule().max_step() == 0

    def test_chaining_returns_self(self):
        schedule = EventSchedule()
        assert schedule.add_sender_start(0, 1) is schedule


class TestSenderState:
    def test_active_respects_start_step(self):
        state = SenderState(index=0, window=1.0, start_step=5)
        assert not state.active(4)
        assert state.active(5)

    def test_initial_min_rtt_is_inf(self):
        assert math.isinf(SenderState(index=0, window=1.0).min_rtt)
