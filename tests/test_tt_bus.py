"""Unit tests for the broadcast bus (injection composition, channels)."""

import pytest

from repro.faults.injector import InjectionLayer
from repro.faults.scenarios import ChannelBurst, SenderFault
from repro.sim.engine import Engine
from repro.sim.trace import Trace
from repro.tt.bus import Bus
from repro.tt.controller import CommunicationController
from repro.tt.frames import Frame
from repro.tt.timebase import TimeBase


def build_bus(n_nodes=4, n_channels=1):
    engine = Engine()
    tb = TimeBase(n_nodes, 2.5e-3)
    trace = Trace()
    injection = InjectionLayer()
    bus = Bus(engine, tb, injection, trace, n_channels=n_channels)
    controllers = {}
    for i in range(1, n_nodes + 1):
        controllers[i] = CommunicationController(i, n_nodes, trace)
        bus.attach(i, controllers[i])
    return engine, tb, injection, bus, controllers, trace


def drive_slot(engine, bus, round_index, slot, frame):
    """Drive one slot through the engine: the transmission at the slot
    start, then the bus's delivery hand-off (:meth:`Bus.deliver`) at the
    end of the transmission window."""
    tb = bus.timebase

    def round_events(k):
        if k != round_index:
            return (), ()
        return ((tb.slot_start(k, slot), tb.delivery_time(k, slot)),
                (lambda k: bus.transmit(k, slot, frame),
                 lambda k: bus.deliver(k, slot)))

    engine.start(tb.round_length, round_events)
    engine.run(until=tb.delivery_time(round_index, slot))


def run_slot(engine, bus, round_index, slot, payload="data"):
    frame = Frame(sender=slot, round_index=round_index, payload=payload)
    drive_slot(engine, bus, round_index, slot, frame)


def test_clean_transmission_reaches_everyone():
    engine, tb, injection, bus, ctrls, trace = build_bus()
    run_slot(engine, bus, 0, 2)
    for i, ctrl in ctrls.items():
        assert ctrl.read_validity()[2] == 1
        assert ctrl.read_interface()[2] == "data"


def test_sender_receives_own_frame_as_collision_check():
    engine, tb, injection, bus, ctrls, trace = build_bus()
    run_slot(engine, bus, 3, 2)
    assert ctrls[2].collision_ok(3) is True


def test_silent_sender_invalid_everywhere():
    engine, tb, injection, bus, ctrls, trace = build_bus()
    drive_slot(engine, bus, 0, 3, None)
    for ctrl in ctrls.values():
        assert ctrl.read_validity()[3] == 0
    assert ctrls[3].collision_ok(0) is False
    rec = trace.first("tx", slot=3)
    assert rec.data["sent"] is False
    assert rec.data["fault_class"] == "symmetric_benign"


def test_benign_fault_detected_by_all():
    engine, tb, injection, bus, ctrls, trace = build_bus()
    injection.add(SenderFault(2, kind="benign"))
    run_slot(engine, bus, 0, 2)
    for ctrl in ctrls.values():
        assert ctrl.read_validity()[2] == 0
    assert ctrls[2].collision_ok(0) is False
    assert trace.first("tx", slot=2).data["fault_class"] == "symmetric_benign"


def test_asymmetric_fault_affects_only_subset():
    engine, tb, injection, bus, ctrls, trace = build_bus()
    injection.add(SenderFault(2, kind="asymmetric", detectable_by=[3]))
    run_slot(engine, bus, 0, 2)
    assert ctrls[3].read_validity()[2] == 0
    for i in (1, 2, 4):
        assert ctrls[i].read_validity()[2] == 1
    # Sender's collision detector passes: the frame was on the bus.
    assert ctrls[2].collision_ok(0) is True
    assert trace.first("tx", slot=2).data["fault_class"] == "asymmetric"


def test_malicious_fault_delivers_forged_payload_as_valid():
    engine, tb, injection, bus, ctrls, trace = build_bus()
    injection.add(SenderFault(2, kind="malicious", payload="forged"))
    run_slot(engine, bus, 0, 2, payload="real")
    for ctrl in ctrls.values():
        assert ctrl.read_validity()[2] == 1
        assert ctrl.read_interface()[2] == "forged"
    assert trace.first("tx", slot=2).data["fault_class"] == "symmetric_malicious"


def test_replicated_bus_masks_single_channel_fault():
    engine, tb, injection, bus, ctrls, trace = build_bus(n_channels=2)
    # Channel 0 disturbed for the whole first round.
    injection.add(ChannelBurst(channel=0, start=0.0, duration=tb.round_length))
    run_slot(engine, bus, 0, 2)
    for ctrl in ctrls.values():
        assert ctrl.read_validity()[2] == 1  # channel 1 delivered


def test_replicated_bus_fails_when_all_channels_hit():
    engine, tb, injection, bus, ctrls, trace = build_bus(n_channels=2)
    injection.add(ChannelBurst(channel=0, start=0.0, duration=tb.round_length))
    injection.add(ChannelBurst(channel=1, start=0.0, duration=tb.round_length))
    run_slot(engine, bus, 0, 2)
    for ctrl in ctrls.values():
        assert ctrl.read_validity()[2] == 0


def test_malicious_channel_beats_correct_later_channel():
    # Documented composition rule: the receiver takes the first channel
    # passing local detection; a malicious frame passes.
    engine, tb, injection, bus, ctrls, trace = build_bus(n_channels=2)
    injection.add(SenderFault(2, kind="malicious", payload="forged",
                              cause="mal"))

    # Restrict the malicious effect to channel 0 by wrapping directives.
    class Channel0Only:
        def __init__(self, inner):
            self.inner = inner

        def directives(self, ctx):
            if ctx.channel == 0:
                yield from self.inner.directives(ctx)

    injection._scenarios[0] = Channel0Only(injection._scenarios[0])
    run_slot(engine, bus, 0, 2, payload="real")
    for ctrl in ctrls.values():
        assert ctrl.read_interface()[2] == "forged"


def test_detectable_dominates_malicious_composition():
    engine, tb, injection, bus, ctrls, trace = build_bus()
    injection.add(SenderFault(2, kind="malicious", payload="forged"))
    injection.add(SenderFault(2, kind="benign"))
    run_slot(engine, bus, 0, 2, payload="real")
    for ctrl in ctrls.values():
        assert ctrl.read_validity()[2] == 0


def test_delivery_happens_at_tx_window_end():
    engine, tb, injection, bus, ctrls, trace = build_bus()
    times = []
    ctrls[1].add_delivery_listener(lambda **kw: times.append(kw["time"]))
    run_slot(engine, bus, 0, 2)
    assert times == [pytest.approx(tb.delivery_time(0, 2))]


def test_bus_requires_positive_channels():
    engine = Engine()
    tb = TimeBase(4, 2.5e-3)
    with pytest.raises(ValueError):
        Bus(engine, tb, InjectionLayer(), Trace(), n_channels=0)
