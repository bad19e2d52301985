"""Unit tests for the communication controller."""

import pytest

from repro.sim.trace import Trace
from repro.tt.controller import CommunicationController, SenderStatus


@pytest.fixture
def ctrl() -> CommunicationController:
    return CommunicationController(node_id=1, n_nodes=4, trace=Trace())


def test_initial_state_all_invalid(ctrl):
    assert ctrl.read_validity()[1:] == [0, 0, 0, 0]
    assert ctrl.read_interface()[1:] == [None] * 4


def test_valid_delivery_updates_value_and_bit(ctrl):
    ctrl.deliver(sender=2, round_index=0, slot=2, valid=True, payload="p")
    assert ctrl.read_validity()[2] == 1
    assert ctrl.read_interface()[2] == "p"


def test_invalid_delivery_keeps_stale_value(ctrl):
    # Sec. 3: the validity bit is cleared but the interface variable
    # keeps its previous (stale) content.
    ctrl.deliver(sender=2, round_index=0, slot=2, valid=True, payload="old")
    ctrl.deliver(sender=2, round_index=1, slot=2, valid=False, payload=None)
    assert ctrl.read_validity()[2] == 0
    assert ctrl.read_interface()[2] == "old"


def test_validity_updated_every_round(ctrl):
    ctrl.deliver(sender=3, round_index=0, slot=3, valid=False, payload=None)
    assert ctrl.read_validity()[3] == 0
    ctrl.deliver(sender=3, round_index=1, slot=3, valid=True, payload="x")
    assert ctrl.read_validity()[3] == 1


def test_collision_detector_tracks_own_slot(ctrl):
    ctrl.deliver(sender=1, round_index=4, slot=1, valid=True, payload="mine")
    ctrl.deliver(sender=1, round_index=5, slot=1, valid=False, payload=None)
    assert ctrl.collision_ok(4) is True
    assert ctrl.collision_ok(5) is False
    # Unknown rounds default to "not readable".
    assert ctrl.collision_ok(99) is False


def test_collision_results_kept_for_four_rounds(ctrl):
    for k in range(10):
        ctrl.deliver(sender=1, round_index=k, slot=1, valid=k % 2 == 0,
                     payload=None)
    assert sorted(ctrl._collision) == [6, 7, 8, 9]
    assert ctrl.collision_ok(6) is True
    assert ctrl.collision_ok(7) is False
    # Evicted rounds read like unknown ones.
    assert ctrl.collision_ok(4) is False


def test_other_senders_do_not_touch_collision(ctrl):
    ctrl.deliver(sender=2, round_index=4, slot=2, valid=True, payload="x")
    assert ctrl.collision_ok(4) is False


def test_ignored_sender_forced_invalid(ctrl):
    ctrl.set_sender_status(2, SenderStatus.IGNORED)
    ctrl.deliver(sender=2, round_index=0, slot=2, valid=True, payload="p")
    assert ctrl.read_validity()[2] == 0
    assert ctrl.read_interface()[2] is None


def test_observed_sender_still_delivers(ctrl):
    ctrl.set_sender_status(2, SenderStatus.OBSERVED)
    ctrl.deliver(sender=2, round_index=0, slot=2, valid=True, payload="p")
    assert ctrl.read_validity()[2] == 1
    assert ctrl.sender_status(2) is SenderStatus.OBSERVED


def test_reactivated_sender_delivers_again(ctrl):
    ctrl.set_sender_status(2, SenderStatus.IGNORED)
    ctrl.deliver(sender=2, round_index=0, slot=2, valid=True, payload="a")
    ctrl.set_sender_status(2, SenderStatus.ACTIVE)
    ctrl.deliver(sender=2, round_index=1, slot=2, valid=True, payload="b")
    assert ctrl.read_validity()[2] == 1
    assert ctrl.read_interface()[2] == "b"


def test_sender_status_validation(ctrl):
    with pytest.raises(ValueError):
        ctrl.set_sender_status(0, SenderStatus.IGNORED)
    with pytest.raises(ValueError):
        ctrl.set_sender_status(5, SenderStatus.IGNORED)


def test_out_buffer_roundtrip(ctrl):
    assert ctrl.build_payload() is None
    ctrl.write_interface((1, 0, 1, 1))
    assert ctrl.build_payload() == {"diag": (1, 0, 1, 1)}


def test_channel_multiplexing(ctrl):
    ctrl.write_interface((1, 1, 1, 1))            # diagnostic middleware
    ctrl.write_interface({"speed": 88}, channel="app")  # application job
    payload = ctrl.build_payload()
    assert payload == {"diag": (1, 1, 1, 1), "app": {"speed": 88}}
    # Receivers extract per channel.
    ctrl.deliver(sender=2, round_index=0, slot=2, valid=True,
                 payload=payload)
    assert ctrl.read_interface(channel="diag")[2] == (1, 1, 1, 1)
    assert ctrl.read_interface(channel="app")[2] == {"speed": 88}
    assert ctrl.read_interface(channel="missing")[2] is None


def test_channel_of_tolerates_forged_payloads(ctrl):
    # A malicious fault can replace the whole frame payload; channel
    # extraction hands the garbage through for the consumer to reject.
    assert ctrl.channel_of("garbage", "diag") == "garbage"
    assert ctrl.channel_of({"diag": 1}, "diag") == 1


def test_transmission_toggle(ctrl):
    assert ctrl.tx_enabled
    ctrl.disable_transmission()
    assert not ctrl.tx_enabled
    ctrl.enable_transmission()
    assert ctrl.tx_enabled


def test_delivery_listener_invoked_with_masked_payload(ctrl):
    seen = []
    ctrl.add_delivery_listener(
        lambda **kw: seen.append((kw["sender"], kw["valid"], kw["payload"])))
    ctrl.deliver(sender=2, round_index=0, slot=2, valid=True, payload="p")
    ctrl.deliver(sender=3, round_index=0, slot=3, valid=False, payload="junk")
    assert seen == [(2, True, "p"), (3, False, None)]


def test_listener_sees_ignored_sender_as_invalid(ctrl):
    seen = []
    ctrl.add_delivery_listener(lambda **kw: seen.append(kw["valid"]))
    ctrl.set_sender_status(2, SenderStatus.IGNORED)
    ctrl.deliver(sender=2, round_index=0, slot=2, valid=True, payload="p")
    assert seen == [False]


def test_snapshots_are_copies(ctrl):
    ctrl.deliver(sender=2, round_index=0, slot=2, valid=True, payload="p")
    snap = ctrl.read_validity()
    snap[2] = 0
    assert ctrl.read_validity()[2] == 1
