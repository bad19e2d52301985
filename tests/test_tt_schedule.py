"""Unit tests for schedule parameter derivation (l_i, send_curr_round_i)."""

import random

import pytest

from repro.tt.schedule import (
    DynamicNodeSchedule,
    GlobalSchedule,
    StaticNodeSchedule,
    offset_for_exec_after,
    params_from_offset,
)
from repro.tt.timebase import TimeBase


@pytest.fixture
def tb() -> TimeBase:
    return TimeBase(n_slots=4, round_length=2.5e-3, tx_fraction=0.8)


class TestParamsFromOffset:
    def test_offset_before_first_delivery_gives_l0(self, tb):
        params = params_from_offset(tb, node_id=2, offset=0.0)
        assert params.l == 0
        assert params.round_shift == 0

    def test_l_counts_completed_deliveries(self, tb):
        s = tb.slot_length
        # Right after delivery of slot 2 (inside slot 2's gap).
        offset = (1 + 0.9) * s
        params = params_from_offset(tb, 3, offset)
        assert params.l == 2

    def test_offset_in_tx_window_does_not_count_pending_delivery(self, tb):
        s = tb.slot_length
        # Mid-transmission of slot 3: only slots 1-2 delivered.
        offset = (2 + 0.4) * s
        assert params_from_offset(tb, 1, offset).l == 2

    def test_footnote1_after_last_delivery(self, tb):
        s = tb.slot_length
        offset = (3 + 0.95) * s  # after slot 4's delivery
        params = params_from_offset(tb, 1, offset)
        assert params.round_shift == 1
        assert params.l == 0
        assert params.send_curr_round is True

    def test_send_curr_round_before_own_slot(self, tb):
        s = tb.slot_length
        # Node 3's slot starts at 2s; a job at 1.5s precedes it.
        params = params_from_offset(tb, 3, 1.5 * s)
        assert params.send_curr_round is True

    def test_send_curr_round_false_during_own_slot(self, tb):
        s = tb.slot_length
        params = params_from_offset(tb, 3, 2.4 * s)
        assert params.send_curr_round is False

    def test_node1_never_send_curr_without_footnote(self, tb):
        # Node 1's slot starts the round; no in-round offset precedes it.
        for frac in (0.0, 0.3, 1.7, 2.9):
            params = params_from_offset(tb, 1, frac * tb.slot_length)
            assert params.send_curr_round is False

    def test_offset_out_of_range(self, tb):
        with pytest.raises(ValueError):
            params_from_offset(tb, 1, -0.1)
        with pytest.raises(ValueError):
            params_from_offset(tb, 1, tb.round_length)

    def test_effective_round(self, tb):
        normal = params_from_offset(tb, 1, 0.0)
        assert normal.effective_round(7) == 7
        shifted = params_from_offset(tb, 1, (3 + 0.95) * tb.slot_length)
        assert shifted.effective_round(7) == 8


class TestOffsetForExecAfter:
    @pytest.mark.parametrize("exec_after", range(4))
    def test_roundtrip_l(self, tb, exec_after):
        offset = offset_for_exec_after(tb, exec_after)
        params = params_from_offset(tb, 1, offset)
        assert params.l == exec_after
        assert params.round_shift == 0

    def test_exec_after_n_is_footnote_case(self, tb):
        offset = offset_for_exec_after(tb, 4)
        params = params_from_offset(tb, 1, offset)
        assert params.round_shift == 1
        assert params.send_curr_round is True

    def test_out_of_range(self, tb):
        with pytest.raises(ValueError):
            offset_for_exec_after(tb, -1)
        with pytest.raises(ValueError):
            offset_for_exec_after(tb, 5)


class TestStaticNodeSchedule:
    def test_constant_across_rounds(self, tb):
        sched = StaticNodeSchedule(tb, 2, exec_after=1)
        assert sched.params(0) == sched.params(100)
        assert sched.is_static

    def test_requires_exactly_one_spec(self, tb):
        with pytest.raises(ValueError):
            StaticNodeSchedule(tb, 1)
        with pytest.raises(ValueError):
            StaticNodeSchedule(tb, 1, offset=0.0, exec_after=0)


class TestDynamicNodeSchedule:
    def test_memoised_per_round(self, tb):
        sched = DynamicNodeSchedule(tb, 2, random.Random(0))
        assert sched.params(5) is sched.params(5)
        assert not sched.is_static

    def test_never_enters_footnote_gap(self, tb):
        sched = DynamicNodeSchedule(tb, 1, random.Random(1))
        for k in range(500):
            assert sched.params(k).round_shift == 0

    def test_l_covers_full_range(self, tb):
        sched = DynamicNodeSchedule(tb, 1, random.Random(2))
        ls = {sched.params(k).l for k in range(500)}
        assert ls == {0, 1, 2, 3}

    def test_keeps_current_and_previous_round_only(self, tb):
        sched = DynamicNodeSchedule(tb, 2, random.Random(4))
        first = [sched.params(k) for k in range(6)]
        assert sched.params(5) is first[5]
        assert sched.params(4) is first[4]
        assert sorted(sched._cache) == [4, 5]
        # An evicted round raises instead of drawing again, which
        # would shift every later offset.
        with pytest.raises(LookupError, match="round 3"):
            sched.params(3)
        reference = DynamicNodeSchedule(tb, 2, random.Random(4))
        assert ([reference.params(k).offset for k in range(8)]
                == [p.offset for p in first]
                + [sched.params(k).offset for k in (6, 7)])

    def test_deterministic_for_seed(self, tb):
        a = DynamicNodeSchedule(tb, 3, random.Random(9))
        b = DynamicNodeSchedule(tb, 3, random.Random(9))
        assert [a.params(k).offset for k in range(20)] == \
               [b.params(k).offset for k in range(20)]


class TestGlobalSchedule:
    def test_default_schedules_are_static_l0(self, tb):
        gs = GlobalSchedule(tb)
        for node in range(1, 5):
            params = gs.node_schedule(node).params(0)
            assert params.l == 0

    def test_sender_of_slot_identity(self, tb):
        gs = GlobalSchedule(tb)
        assert [gs.sender_of_slot(s) for s in range(1, 5)] == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            gs.sender_of_slot(0)

    def test_all_send_curr_round_default_false(self, tb):
        # Default l=0 schedules: node 1 cannot send in the current round.
        assert GlobalSchedule(tb).all_send_curr_round() is False

    def test_all_send_curr_round_with_footnote_schedules(self, tb):
        gs = GlobalSchedule(tb)
        for node in range(1, 5):
            gs.set_node_schedule(node, StaticNodeSchedule(tb, node, exec_after=4))
        assert gs.all_send_curr_round() is True

    def test_all_send_curr_round_false_with_any_dynamic(self, tb):
        gs = GlobalSchedule(tb)
        for node in range(1, 5):
            gs.set_node_schedule(node, StaticNodeSchedule(tb, node, exec_after=4))
        gs.set_node_schedule(2, DynamicNodeSchedule(tb, 2, random.Random(0)))
        assert gs.all_send_curr_round() is False

    def test_node_validation(self, tb):
        gs = GlobalSchedule(tb)
        with pytest.raises(ValueError):
            gs.node_schedule(0)
        with pytest.raises(ValueError):
            gs.set_node_schedule(5, StaticNodeSchedule(tb, 1, exec_after=0))
