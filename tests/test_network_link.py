"""Unit tests for channels and links."""

import pytest

from repro.network.link import Channel, Link
from repro.network.packet import HEADER_BYTES, Packet, PacketType
from repro.sim.engine import PRIORITY_HIGH, SEQ, Simulator


class Collector:
    """A PacketSink recording (time, packet)."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive_packet(self, packet):
        self.received.append((self.sim.now, packet))


def make_packet(payload_bytes=0, **kw):
    defaults = dict(
        ptype=PacketType.DATA, src_node=0, src_port=2, dst_node=1, dst_port=2,
        payload_bytes=payload_bytes,
    )
    defaults.update(kw)
    return Packet(**defaults)


class TestChannel:
    def test_delivery_after_serialization_plus_propagation(self, sim):
        sink = Collector(sim)
        # 160 MB/s = 160 bytes/us; header 16 B + 144 B payload = 1 us.
        ch = Channel(sim, bandwidth_mbps=160.0, propagation_us=0.5)
        ch.connect(sink)
        ch.send(make_packet(payload_bytes=144))
        sim.run()
        assert len(sink.received) == 1
        assert sink.received[0][0] == pytest.approx(1.0 + 0.5)

    def test_back_to_back_packets_serialize(self, sim):
        sink = Collector(sim)
        ch = Channel(sim, bandwidth_mbps=160.0, propagation_us=0.0)
        ch.connect(sink)
        p1 = make_packet(payload_bytes=144)  # 1 us on the wire
        p2 = make_packet(payload_bytes=144)
        ch.send(p1)
        ch.send(p2)
        sim.run()
        times = [t for t, _ in sink.received]
        assert times == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_fifo_order(self, sim):
        sink = Collector(sim)
        ch = Channel(sim, bandwidth_mbps=160.0, propagation_us=0.1)
        ch.connect(sink)
        packets = [make_packet() for _ in range(5)]
        for p in packets:
            ch.send(p)
        sim.run()
        assert [p.packet_id for _, p in sink.received] == [
            p.packet_id for p in packets
        ]

    def test_send_without_sink_raises(self, sim):
        ch = Channel(sim, bandwidth_mbps=160.0, propagation_us=0.1)
        with pytest.raises(RuntimeError, match="no sink"):
            ch.send(make_packet())

    def test_loss_filter_drops_but_occupies_wire(self, sim):
        sink = Collector(sim)
        ch = Channel(sim, bandwidth_mbps=160.0, propagation_us=0.0)
        ch.connect(sink)
        drop_first = {"dropped": False}

        def lose(packet):
            if not drop_first["dropped"]:
                drop_first["dropped"] = True
                return True
            return False

        ch.loss_filter = lose
        ch.send(make_packet(payload_bytes=144))
        ch.send(make_packet(payload_bytes=144))
        sim.run()
        assert ch.packets_dropped == 1
        assert len(sink.received) == 1
        # Second packet still waited behind the doomed first one.
        assert sink.received[0][0] == pytest.approx(2.0)

    def test_counters(self, sim):
        sink = Collector(sim)
        ch = Channel(sim, bandwidth_mbps=160.0, propagation_us=0.0)
        ch.connect(sink)
        ch.send(make_packet(payload_bytes=10))
        sim.run()
        assert ch.packets_sent == 1
        assert ch.bytes_sent == HEADER_BYTES + 10

    def test_invalid_params(self, sim):
        with pytest.raises(ValueError):
            Channel(sim, bandwidth_mbps=0.0, propagation_us=0.1)
        with pytest.raises(ValueError):
            Channel(sim, bandwidth_mbps=1.0, propagation_us=-1.0)


class TestLink:
    def test_full_duplex_directions_are_independent(self, sim):
        a, b = Collector(sim), Collector(sim)
        link = Link(sim, bandwidth_mbps=160.0, propagation_us=0.0, name="l")
        link.connect(a, b)
        # Saturate a->b; b->a must be unaffected.
        big = make_packet(payload_bytes=16000)  # ~100 us serialization
        small = make_packet(payload_bytes=0)
        link.a_to_b.send(big)
        link.b_to_a.send(small)
        sim.run()
        (tb, _), (ta, _) = b.received[0], a.received[0]
        assert ta < 1.0  # small message in the other direction is fast
        assert tb > 100.0


class EagerChannel(Channel):
    """The channel as written before the reserved transmit end: every
    transmission schedules its transmit-done event.  The reference: the
    lean channel must match its start times, delivery order and ``seq``
    use."""

    def send(self, packet):
        self._queue.append(packet)
        depth = self.queue_depth
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if not self._busy:
            self._start_next()

    @property
    def queue_depth(self):
        return len(self._queue) + (1 if self._busy else 0)

    def resume(self):
        if not self._paused:
            return
        self._paused = False
        if not self._busy:
            self._start_next()

    def _start_next(self):
        if self._paused or not self._queue:
            self._busy = False
            return
        self._busy = True
        packet = self._queue.popleft()
        ser = self.serialization_time(packet)
        self.busy_us += ser
        verdict = self._transmit_verdict(packet)
        if verdict is not None:
            self.packets_dropped += 1
        else:
            self.packets_sent += 1
            self.sim.schedule(ser + self.propagation_us, self._deliver, packet)
        self.sim.schedule(ser, self._tx_done)

    def _tx_done(self):
        self._busy = False
        self._start_next()


class Log:
    """A sink and probe log shared by one scenario: deliveries, probe
    firings and the queue depths they saw, all in execution order."""

    def __init__(self, sim):
        self.sim = sim
        self.rows = []

    def receive_packet(self, packet):
        self.rows.append(("rx", self.sim.now, packet.seqno))

    def probe(self, name, ch, send=None):
        """A callable logging ``ch.queue_depth``; with ``send`` it first
        sends packet ``send`` and schedules a probe at the instant that
        packet is delivered if it starts at once, which orders the probe
        against the delivery by ``seq``."""
        def fire():
            if send is not None:
                ch.send(pkt(send))
                self.sim.schedule(1.5, self.probe(f"{name}+1.5", ch))
            self.rows.append((name, self.sim.now, ch.queue_depth))
        return fire


def pkt(label):
    """A 160-byte packet: exactly 1 us on a 160 MB/s channel."""
    return make_packet(payload_bytes=144, seqno=label)


def replay(channel_cls, scenario):
    """Run ``scenario(sim, ch, log)`` on a fresh channel of the given
    class; return everything the two channel kinds must agree on."""
    sim = Simulator()
    ch = channel_cls(sim, bandwidth_mbps=160.0, propagation_us=0.5, name="c")
    log = Log(sim)
    ch.connect(log)
    scenario(sim, ch, log)
    marker = sim.schedule(0.0, lambda: None)  # the next free seq
    return {
        "rows": log.rows,
        "now": sim.now,
        "next_seq": marker[SEQ],
        "max_depth": ch.max_queue_depth,
        "counters": (ch.packets_sent, ch.packets_dropped, ch.busy_us),
    }, sim.events_executed


def assert_matches_eager(scenario):
    """The lean channel reproduces the eager one exactly and runs no
    more events; returns both event counts."""
    lean, lean_events = replay(Channel, scenario)
    eager, eager_events = replay(EagerChannel, scenario)
    assert lean == eager
    assert lean_events <= eager_events
    return lean_events, eager_events


class TestReservedTransmitEnd:
    """A transmission reserves the ``seq`` of its transmit-done event and
    schedules it only when a packet queues behind it or it was lost."""

    def test_idle_channel_delivery_is_one_event(self):
        def scenario(sim, ch, log):
            ch.send(pkt(1))
            sim.run()

        assert assert_matches_eager(scenario) == (1, 2)

    @pytest.mark.parametrize("order", ["before", "after", "both"])
    def test_send_at_the_reserved_end_instant(self, order):
        """Probes fire at exactly the end of packet 1's transmission,
        ordered before and/or after its reserved ``seq``."""

        def scenario(sim, ch, log):
            if order in ("before", "both"):
                sim.schedule(1.0, log.probe("before", ch, send=2))
            ch.send(pkt(1))
            if order in ("after", "both"):
                sim.schedule(1.0, log.probe("after", ch, send=3))
            sim.schedule(1.0, log.probe("depth", ch))
            sim.run()

        assert_matches_eager(scenario)

    def test_send_from_inside_an_earlier_same_time_event(self):
        """A same-instant event scheduled before the transmission started
        (a ``PRIORITY_HIGH`` one, too) sees the channel still busy."""

        def scenario(sim, ch, log):
            def start():
                ch.send(pkt(1))
                sim.schedule(1.0, log.probe("late", ch, send=3))

            sim.schedule(0.0, start)
            sim.schedule(1.0, log.probe("early", ch, send=2), priority=PRIORITY_HIGH)
            sim.run()

        assert_matches_eager(scenario)

    @pytest.mark.parametrize("until", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("first", ["outside", "inside"])
    def test_send_after_run_until(self, until, first):
        """``run(until=...)`` returns with every event at or before
        ``until`` run, whether or not one ran since the first send."""

        def scenario(sim, ch, log):
            if first == "outside":
                ch.send(pkt(1))
            else:
                sim.schedule(0.0, ch.send, pkt(1))
            sim.run(until=until)
            log.probe("outside", ch, send=2)()
            sim.run()

        assert_matches_eager(scenario)

    def test_sends_from_outside_run(self):
        def scenario(sim, ch, log):
            ch.send(pkt(1))
            ch.send(pkt(2))
            log.probe("outside", ch)()
            sim.run()
            log.probe("drained", ch, send=3)()
            sim.run()

        assert_matches_eager(scenario)

    @pytest.mark.parametrize("stopper", ["before", "after"])
    def test_send_after_stop(self, stopper):
        """``stop()`` at the end instant leaves later same-time events,
        possibly the transmit end itself, unrun."""

        def scenario(sim, ch, log):
            if stopper == "before":
                sim.schedule(1.0, sim.stop)
            ch.send(pkt(1))
            if stopper == "after":
                sim.schedule(1.0, sim.stop)
            sim.schedule(1.0, log.probe("pending", ch))
            sim.run()
            log.probe("stopped", ch, send=2)()
            sim.run()

        assert_matches_eager(scenario)

    @pytest.mark.parametrize("send_while_paused", [False, True])
    def test_paused_channel(self, send_while_paused):
        def scenario(sim, ch, log):
            ch.send(pkt(1))
            sim.schedule(0.5, ch.pause)
            if send_while_paused:
                sim.schedule(0.7, log.probe("paused", ch, send=2))
            sim.schedule(1.5, log.probe("idle", ch))
            sim.schedule(3.0, ch.resume)
            sim.schedule(3.0, log.probe("resumed", ch, send=3))
            sim.run()

        assert_matches_eager(scenario)

    def test_downed_channel(self):
        def scenario(sim, ch, log):
            ch.send(pkt(1))
            sim.schedule(0.5, ch.set_down)
            sim.schedule(0.7, log.probe("down", ch, send=2))
            sim.schedule(2.5, ch.set_up)
            sim.schedule(2.5, log.probe("up", ch, send=3))
            sim.run()

        assert_matches_eager(scenario)

    def test_run_ending_on_a_drop_keeps_its_final_time(self):
        """A lost packet still occupies the wire: the run ends at its
        transmit end, as with an always-scheduled end event."""

        def scenario(sim, ch, log):
            ch.loss_filter = lambda packet: packet.seqno == 2
            ch.send(pkt(1))
            sim.run()
            ch.send(pkt(2))
            sim.run()

        lean, _ = replay(Channel, scenario)
        assert lean["now"] == 2.5  # packet 2's transmit end, not 1.5
        assert assert_matches_eager(scenario) == (2, 3)
