"""Retransmit-timer lifecycle audit (reliability hardening).

The invariants under test: a timer exists exactly while its stream has
unacknowledged entries -- an emptied sent list cancels its timer, a
closed port cancels the barrier timer its entries kept alive, and ACK
loss never leaves a dangling timer firing forever after the stream
quiesced."""

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.core.barrier import make_plan
from repro.faults import AckLoss, FaultPlan, LinkFlap
from repro.gm.constants import BarrierReliability
from repro.gm.events import RecvEvent
from repro.nic.nic import NicParams
from repro.sim.primitives import Timeout

GROUP = [(0, 2), (1, 2)]


def build(plan=None, mode=BarrierReliability.SEPARATE, **nic_kw):
    nic_kw.setdefault("retransmit_timeout_us", 300.0)
    nic_kw.setdefault("barrier_retransmit_timeout_us", 200.0)
    cfg = ClusterConfig(
        num_nodes=2,
        nic_params=NicParams(barrier_reliability=mode, **nic_kw),
        fault_plan=plan,
    )
    return build_cluster(cfg)


def exchange(cluster, count=4):
    a = cluster.open_port(0, 2)
    b = cluster.open_port(1, 2)
    got = []

    def sender():
        for i in range(count):
            yield from a.send_with_callback(1, 2, payload=i)

    def receiver():
        for _ in range(count):
            yield from b.provide_receive_buffer()
        while len(got) < count:
            ev = yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
            got.append(ev.payload)

    cluster.spawn(sender())
    cluster.spawn(receiver())
    cluster.run(max_events=3_000_000)
    return got


def all_connections(cluster):
    return [
        conn
        for node in cluster.nodes
        for conn in node.nic.connections.values()
    ]


class TestRegularStreamTimer:
    def test_emptied_sent_list_cancels_timer(self):
        cluster = build()
        assert exchange(cluster) == [0, 1, 2, 3]
        for conn in all_connections(cluster):
            assert conn.sent_list == []
            assert conn.retransmit_timer is None

    def test_ack_loss_leaves_no_dangling_timer(self):
        """Every ACK of the initial exchange (and the first re-ACKs) is
        lost; recovery goes through timer retransmission + duplicate
        suppression.  Once the stream quiesces, no timer may survive --
        a dangling one would fire forever against an empty sent list."""
        plan = FaultPlan(seed=1, ack_loss=[AckLoss(count=6, nodes=[0])])
        cluster = build(plan)
        assert exchange(cluster) == [0, 1, 2, 3]
        retrans = sum(c.packets_retransmitted for c in all_connections(cluster))
        assert retrans >= 1  # the lossy path was actually exercised
        for conn in all_connections(cluster):
            assert conn.sent_list == []
            assert conn.retransmit_timer is None
            assert conn.barrier_unacked == []
            assert conn.barrier_retransmit_timer is None


class TestBarrierStreamTimer:
    def test_port_close_cancels_barrier_timer(self):
        """An initiator dying mid-barrier abandons its unacked barrier
        packets (Section 3.2) -- and must cancel the retransmit timer
        they kept alive, or it would keep firing (and eventually trip
        the give-up alarm) for a stream nobody owns anymore."""
        # Node 1 can't receive: the barrier packet is never ACKed.
        plan = FaultPlan(
            seed=1,
            flaps=[LinkFlap(node=1, down_at=0.0, up_at=None, direction="rx")],
        )
        cluster = build(plan, max_retransmits=8)
        a = cluster.open_port(0, 2)
        cluster.open_port(1, 2)
        nic0 = cluster.node(0).nic
        observed = {}

        def rank0_dies():
            barrier_plan = make_plan(GROUP, 0, "pe")
            yield from a.provide_barrier_buffer()
            yield from a.barrier_send_with_callback(barrier_plan)
            yield Timeout(500.0)  # a couple of retransmission cycles
            conn = nic0.connections[1]
            observed["unacked_before"] = len(conn.barrier_unacked)
            observed["timer_before"] = conn.barrier_retransmit_timer is not None
            observed["retransmits"] = conn.packets_retransmitted
            a.close()
            observed["unacked_after"] = len(conn.barrier_unacked)
            observed["timer_after"] = conn.barrier_retransmit_timer is not None

        cluster.spawn(rank0_dies())
        # With the timer cancelled on close, the run quiesces without the
        # give-up alarm; a dangling timer would retry into the dead link
        # eight more times and raise RetransmitLimitExceeded.
        cluster.run(max_events=3_000_000)
        assert observed["unacked_before"] >= 1
        assert observed["timer_before"] is True
        assert observed["retransmits"] >= 1
        assert observed["unacked_after"] == 0
        assert observed["timer_after"] is False
        assert nic0.alarms == []

    def test_barrier_completion_cancels_timer(self):
        """After a clean SEPARATE-mode barrier, no barrier timer remains."""
        from repro.cluster.runner import run_on_group
        from repro.core.barrier import barrier

        cluster = build()

        def program(ctx):
            yield from barrier(ctx.port, ctx.group, ctx.rank)

        run_on_group(cluster, program, max_events=3_000_000)
        for conn in all_connections(cluster):
            assert conn.barrier_unacked == []
            assert conn.barrier_retransmit_timer is None
