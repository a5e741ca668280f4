"""Tests of the fault schedule model: events, ordering, serialisation."""

import io
import json

import pytest

from repro.core.config import HiRiseConfig
from repro.faults import (
    CORRUPT_CLRG,
    EVENT_KINDS,
    FAIL_CHANNEL,
    SCHEDULE_FORMAT,
    FaultCursor,
    FaultEvent,
    FaultSchedule,
    corrupt_clrg,
    fail_channel,
    fail_input,
    repair_channel,
    repair_input,
)


class TestFaultEvent:
    def test_constructor_helpers_round_trip_their_fields(self):
        event = fail_channel(10, 0, 1, 1)
        assert event.cycle == 10
        assert event.kind == FAIL_CHANNEL
        assert event.channel == (0, 1, 1)
        event = corrupt_clrg(5, 3, 2, port=1)
        assert (event.output, event.value, event.port) == (3, 2, 1)

    def test_rejects_negative_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            fail_channel(-1, 0, 1, 0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0, "melt_switch")

    @pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
    def test_rejects_missing_payload(self, kind):
        with pytest.raises(ValueError, match="needs"):
            FaultEvent(0, kind)

    def test_rejects_diagonal_channel(self):
        with pytest.raises(ValueError, match="no L2LC to itself"):
            fail_channel(0, 2, 2, 0)

    def test_rejects_malformed_channel_triple(self):
        with pytest.raises(ValueError, match="triple"):
            FaultEvent(0, FAIL_CHANNEL, channel=(0, 1))

    def test_dict_round_trip(self):
        for event in (
            fail_channel(7, 1, 0, 1),
            repair_input(9, 4),
            corrupt_clrg(3, 2, 1, port=0),
        ):
            assert FaultEvent.from_dict(event.to_dict()) == event

    def test_to_dict_only_carries_used_fields(self):
        record = fail_input(4, 2).to_dict()
        assert record == {"cycle": 4, "kind": "fail_input", "port": 2}
        assert "value" in corrupt_clrg(1, 0, 0).to_dict()


class TestFaultSchedule:
    def test_sorts_by_cycle_stably(self):
        # Same-cycle events keep their scripted order (fail before
        # repair at cycle 50 must apply in that order).
        events = [
            repair_channel(50, 0, 1, 0),
            fail_channel(20, 0, 1, 0),
            fail_channel(50, 2, 1, 1),
        ]
        schedule = FaultSchedule(events)
        assert [e.cycle for e in schedule] == [20, 50, 50]
        assert schedule.events[1].kind == "repair_channel"

    def test_rejects_non_events(self):
        with pytest.raises(TypeError):
            FaultSchedule([{"cycle": 3}])

    def test_equality_and_hash(self):
        a = FaultSchedule([fail_channel(5, 0, 1, 0)])
        b = FaultSchedule([fail_channel(5, 0, 1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != FaultSchedule()

    def test_max_cycle_and_event_cycles(self):
        schedule = FaultSchedule([
            fail_channel(30, 0, 1, 0),
            repair_channel(80, 0, 1, 0),
            fail_input(30, 2),
        ])
        assert schedule.max_cycle == 80
        assert schedule.event_cycles() == [30, 80]
        assert FaultSchedule().max_cycle == -1

    def test_json_file_round_trip(self, tmp_path):
        schedule = FaultSchedule([
            fail_channel(10, 0, 1, 0),
            corrupt_clrg(20, 5, 2, port=3),
            repair_channel(60, 0, 1, 0),
        ])
        path = tmp_path / "schedule.json"
        schedule.dump(str(path))
        payload = json.loads(path.read_text())
        assert payload["format"] == SCHEDULE_FORMAT
        assert FaultSchedule.load(str(path)) == schedule

    def test_stream_round_trip(self):
        schedule = FaultSchedule([fail_input(3, 1)])
        buffer = io.StringIO()
        schedule.dump(buffer)
        buffer.seek(0)
        assert FaultSchedule.load(buffer) == schedule

    def test_load_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a"):
            FaultSchedule.load(io.StringIO('{"format": "other", "events": []}'))

    def test_load_rejects_missing_events(self):
        source = io.StringIO(json.dumps({"format": SCHEDULE_FORMAT}))
        with pytest.raises(ValueError, match="events"):
            FaultSchedule.load(source)

    def test_state_at_replays_events_inclusively(self):
        schedule = FaultSchedule([
            fail_channel(10, 0, 1, 0),
            fail_input(20, 3),
            repair_channel(30, 0, 1, 0),
            repair_input(40, 3),
        ])
        assert schedule.state_at(9) == (frozenset(), frozenset())
        failed, stuck = schedule.state_at(10)
        assert failed == {(0, 1, 0)} and stuck == frozenset()
        failed, stuck = schedule.state_at(25)
        assert failed == {(0, 1, 0)} and stuck == {3}
        assert schedule.state_at(40) == (frozenset(), frozenset())

    def test_state_at_honours_static_initial_failures(self):
        schedule = FaultSchedule([repair_channel(5, 1, 0, 1)])
        failed, _ = schedule.state_at(5, initial_failed={(1, 0, 1), (0, 1, 0)})
        assert failed == {(0, 1, 0)}


class TestRandomSchedules:
    def make_config(self):
        return HiRiseConfig(radix=16, layers=4, channel_multiplicity=2)

    def test_same_seed_same_schedule(self):
        config = self.make_config()
        kwargs = dict(
            horizon=500, faults=8, include_inputs=True, include_clrg=True
        )
        assert FaultSchedule.random(config, seed=3, **kwargs) == \
            FaultSchedule.random(config, seed=3, **kwargs)
        assert FaultSchedule.random(config, seed=3, **kwargs) != \
            FaultSchedule.random(config, seed=4, **kwargs)

    def test_events_respect_geometry_and_horizon(self):
        config = self.make_config()
        schedule = FaultSchedule.random(
            config, seed=11, horizon=200, faults=12,
            include_inputs=True, include_clrg=True,
        )
        for event in schedule:
            if event.channel is not None:
                src, dst, channel = event.channel
                assert 0 <= src < config.layers
                assert 0 <= dst < config.layers and src != dst
                assert 0 <= channel < config.channel_multiplicity
            if event.kind == CORRUPT_CLRG:
                assert 0 <= event.output < config.radix
            if event.kind in ("fail_input", "repair_input"):
                assert 0 <= event.port < config.radix
            # Onsets land inside [start, horizon); repairs may trail it.
            if event.kind.startswith("fail") or event.kind == CORRUPT_CLRG:
                assert 0 <= event.cycle < 200

    def test_permanent_fraction_one_never_repairs(self):
        schedule = FaultSchedule.random(
            self.make_config(), seed=5, horizon=100, faults=6,
            permanent_fraction=1.0,
        )
        assert all(event.kind == FAIL_CHANNEL for event in schedule)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            FaultSchedule.random(self.make_config(), seed=0, horizon=0)

    def test_one_layer_draws_no_channel_faults(self):
        """A one-layer switch has no L2LCs to fail; multi-layer draw
        streams are unchanged by that rule (pinned for one seed)."""
        kwargs = dict(
            seed=5, horizon=200, faults=4,
            include_inputs=True, include_clrg=True,
        )
        flat = HiRiseConfig(radix=16, layers=1, channel_multiplicity=1)
        schedule = FaultSchedule.random(flat, **kwargs)
        assert len(schedule) >= 4
        assert all(event.channel is None for event in schedule)
        with pytest.raises(ValueError, match="no channels"):
            FaultSchedule.random(flat, seed=5, horizon=200, faults=1)
        assert not FaultSchedule.random(flat, seed=5, horizon=200, faults=0)

        deep = FaultSchedule.random(self.make_config(), **kwargs)
        assert deep.to_records() == [
            {"cycle": 7, "kind": "fail_input", "port": 7},
            {"cycle": 28, "kind": "repair_input", "port": 7},
            {"cycle": 28, "kind": "fail_input", "port": 15},
            {"cycle": 77, "kind": "repair_input", "port": 15},
            {"cycle": 139, "kind": "fail_channel", "channel": [3, 0, 0]},
            {"cycle": 159, "kind": "fail_input", "port": 11},
            {"cycle": 167, "kind": "repair_channel", "channel": [3, 0, 0]},
            {"cycle": 227, "kind": "repair_input", "port": 11},
        ]


class TestFaultCursor:
    def test_take_returns_due_batches_in_order(self):
        schedule = FaultSchedule([
            fail_channel(5, 0, 1, 0),
            fail_input(5, 1),
            repair_channel(9, 0, 1, 0),
        ])
        cursor = FaultCursor(schedule)
        assert cursor.take(4) is None
        batch = cursor.take(5)
        assert [event.kind for event in batch] == ["fail_channel", "fail_input"]
        assert cursor.applied == 2 and cursor.remaining == 1
        assert cursor.take(8) is None
        assert [event.kind for event in cursor.take(9)] == ["repair_channel"]
        assert cursor.take(100) is None
        assert cursor.remaining == 0

    def test_catch_up_returns_whole_backlog(self):
        schedule = FaultSchedule([
            fail_channel(0, 0, 1, 0),
            fail_channel(3, 1, 0, 1),
            repair_channel(7, 0, 1, 0),
        ])
        cursor = FaultCursor(schedule)
        assert len(cursor.take(50)) == 3

    def test_cursors_are_independent_per_switch(self):
        schedule = FaultSchedule([fail_channel(2, 0, 1, 0)])
        first, second = FaultCursor(schedule), FaultCursor(schedule)
        assert first.take(2) is not None
        assert second.take(2) is not None
