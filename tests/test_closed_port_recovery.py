"""Tests for Section 3.2: initialization/cleanup semantics.

The adopted design: barrier messages arriving for a *closed* port are
recorded; when the port opens, the NIC sends BARRIER_REJECT to each
recorded sender, and a sender whose initiating port is still open (same
generation) retransmits -- "this will require only one retransmission".
"""

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.core.barrier import barrier
from repro.core.collectives import allreduce, bcast, reduce
from repro.gm.constants import BarrierReliability
from repro.nic.nic import NicParams
from repro.sim.primitives import Timeout


def two_node_cluster(**nic_kw):
    cfg = ClusterConfig(
        num_nodes=2, nic_params=NicParams(**nic_kw) if nic_kw else NicParams()
    )
    return build_cluster(cfg)


GROUP = [(0, 2), (1, 2)]


class TestRecordAndReject:
    def test_barrier_with_late_opening_port_completes(self):
        """Rank 0 starts the barrier before rank 1's port even exists --
        'the first action of a program is to do a barrier in order to
        make sure all its peers have started'."""
        cluster = two_node_cluster()
        a = cluster.open_port(0, 2)
        done = []

        def rank0():
            yield from barrier(a, GROUP, 0)
            done.append(("rank0", cluster.now))

        def rank1_late():
            yield Timeout(300.0)  # port not open yet when 0's message lands
            b = cluster.open_port(1, 2)
            yield from barrier(b, GROUP, 1)
            done.append(("rank1", cluster.now))

        cluster.spawn(rank0())
        cluster.spawn(rank1_late())
        cluster.run(max_events=3_000_000)
        assert len(done) == 2
        nic1 = cluster.node(1).nic
        assert nic1.barrier_engine.rejects_sent >= 1
        assert cluster.node(0).nic.barrier_engine.resends >= 1

    def test_exactly_one_retransmission(self):
        cluster = two_node_cluster()
        a = cluster.open_port(0, 2)
        done = []

        def rank0():
            yield from barrier(a, GROUP, 0)
            done.append("rank0")

        def rank1_late():
            yield Timeout(500.0)
            b = cluster.open_port(1, 2)
            yield from barrier(b, GROUP, 1)
            done.append("rank1")

        cluster.spawn(rank0())
        cluster.spawn(rank1_late())
        cluster.run(max_events=3_000_000)
        assert cluster.node(0).nic.barrier_engine.resends == 1

    def test_closed_record_cleared_after_open(self):
        cluster = two_node_cluster()
        a = cluster.open_port(0, 2)

        def rank0():
            yield from barrier(a, GROUP, 0)

        def rank1_late():
            yield Timeout(300.0)
            b = cluster.open_port(1, 2)
            yield from barrier(b, GROUP, 1)

        cluster.spawn(rank0())
        cluster.spawn(rank1_late())
        cluster.run(max_events=3_000_000)
        assert cluster.node(1).nic.port(2).closed_barrier_record == set()

    def test_works_in_separate_reliability_mode(self):
        cluster = two_node_cluster(
            barrier_reliability=BarrierReliability.SEPARATE,
            barrier_retransmit_timeout_us=10_000.0,  # REJECT must do the work
        )
        a = cluster.open_port(0, 2)
        done = []

        def rank0():
            yield from barrier(a, GROUP, 0)
            done.append("rank0")

        def rank1_late():
            yield Timeout(300.0)
            b = cluster.open_port(1, 2)
            yield from barrier(b, GROUP, 1)
            done.append("rank1")

        cluster.spawn(rank0())
        cluster.spawn(rank1_late())
        cluster.run(max_events=3_000_000)
        assert len(done) == 2


class TestRejectResendsEveryOutstandingType:
    def test_two_message_types_outstanding_both_resent(self):
        """Regression: ``on_reject`` resent only the newest matching
        message.  Here node 0 has *two* live message types outstanding to
        the same closed peer -- a GB broadcast and a PE exchange -- and
        the peer's single REJECT (the record is per source endpoint) must
        trigger a resend of both, or the reopened peer's GB barrier
        stalls forever waiting for the dropped broadcast."""
        cluster = two_node_cluster()
        a = cluster.open_port(0, 2)
        done = []

        def rank1_dies_then_revives():
            # Old B sends its GB gather up, then dies before the bcast.
            from repro.core.barrier import make_plan

            b = cluster.node(1).driver.open_port(2)
            plan = make_plan(GROUP, 1, "gb", dimension=1)
            yield from b.provide_barrier_buffer()
            yield from b.barrier_send_with_callback(plan)
            yield Timeout(100.0)
            b.close()
            yield Timeout(500.0)  # both of A's messages land while closed
            # B' reuses the endpoint: one REJECT covers both recorded
            # arrivals.  Its GB needs the rebroadcast; its PE needs the
            # re-sent exchange message.
            b2 = cluster.node(1).driver.open_port(2)
            yield from barrier(b2, GROUP, 1, algorithm="gb", dimension=1)
            yield from barrier(b2, GROUP, 1, algorithm="pe")
            done.append("rank1")

        def rank0():
            # Root GB: consumes old B's recorded gather, completes, and
            # broadcasts into B's closed port (outstanding type #1).
            yield Timeout(400.0)
            yield from barrier(a, GROUP, 0, algorithm="gb", dimension=1)
            # PE: the exchange message also lands in the closed port
            # (outstanding type #2), then blocks awaiting B''s reply.
            yield from barrier(a, GROUP, 0, algorithm="pe")
            done.append("rank0")

        cluster.spawn(rank1_dies_then_revives())
        cluster.spawn(rank0())
        cluster.run(max_events=3_000_000)
        assert sorted(done) == ["rank0", "rank1"]
        assert cluster.node(1).nic.barrier_engine.rejects_sent == 1
        assert cluster.node(0).nic.barrier_engine.resends == 2


class TestCollectiveClosedPortRecovery:
    """NIC collectives share the barrier's closed-port path: an arrival
    for a closed port is recorded, REJECTed when the port opens, and the
    sender resends it once."""

    def _run(self, fn, late_rank, values, **kwargs):
        cluster = two_node_cluster()
        results = {}

        def rank_program(rank):
            if rank == late_rank:
                yield Timeout(300.0)  # the peer's message lands first
            port = cluster.open_port(*GROUP[rank])
            results[rank] = yield from fn(
                port, GROUP, rank, values[rank], **kwargs
            )

        for rank in range(2):
            cluster.spawn(rank_program(rank))
        cluster.run(max_events=3_000_000)
        return results, cluster

    def test_bcast_to_late_opening_child(self):
        results, cluster = self._run(bcast, 1, [7, None])
        assert results == {0: 7, 1: 7}
        assert cluster.node(1).nic.barrier_engine.rejects_sent == 1
        assert cluster.node(0).nic.barrier_engine.resends == 1

    @pytest.mark.parametrize("fn, expected", [
        (reduce, {0: 5, 1: None}),
        (allreduce, {0: 5, 1: 5}),
    ])
    def test_reduction_with_late_opening_root(self, fn, expected):
        results, cluster = self._run(fn, 0, [2, 3], op="sum")
        assert results == expected
        assert cluster.node(0).nic.barrier_engine.rejects_sent == 1
        assert cluster.node(1).nic.barrier_engine.resends == 1


class TestCloseClearsUnexpectedState:
    """Regression (close-path leak): a port close left the unexpected
    record bits -- and collective values -- that were recorded *for*
    that port on the peer connections, so a reused port could match a
    stale record from the previous owner."""

    def test_close_purges_records_for_that_port_only(self):
        cluster = two_node_cluster()
        nic1 = cluster.node(1).nic
        conn = nic1.connections[0]
        conn.unexpected.set(1, dst_port=2)
        conn.unexpected.set(3, dst_port=4)
        conn.coll_unexpected.set(5, dst_port=2, value=42)
        conn.coll_unexpected.set(6, dst_port=4, value=43)
        nic1.on_port_close(2)
        assert not conn.unexpected.is_set(1)  # purged with its port
        assert conn.unexpected.is_set(3)  # other port's record survives
        assert not conn.coll_unexpected.is_set(5)
        assert conn.coll_unexpected.take(6) == (None, 43)

    def test_bit_without_destination_is_conservatively_kept(self):
        cluster = two_node_cluster()
        nic1 = cluster.node(1).nic
        conn = nic1.connections[0]
        conn.unexpected.set(1)  # origin unknown (legacy callers)
        nic1.on_port_close(2)
        assert conn.unexpected.is_set(1)

    def test_reused_port_cannot_complete_on_stale_record(self):
        """End to end: old A's barrier message lands at B's *open* port
        before B is ready (unexpected record set), then both die.  New
        B' must not complete its barrier off the stale bit -- without the
        close-time purge B' exits before new A' even enters."""
        cluster = two_node_cluster()
        a = cluster.open_port(0, 2)
        b = cluster.open_port(1, 2)  # open from the start, never barriers
        enters = {}
        done = []

        def old_a_then_new_a():
            from repro.core.barrier import make_plan

            plan = make_plan(GROUP, 0, "pe")
            yield from a.provide_barrier_buffer()
            yield from a.barrier_send_with_callback(plan)
            yield Timeout(100.0)  # message recorded as unexpected at B
            a.close()  # old A dies
            yield Timeout(500.0)
            a2 = cluster.node(0).driver.open_port(2)
            enters["A'"] = cluster.now
            yield from barrier(a2, GROUP, 0)
            done.append(("A'", cluster.now))

        def old_b_then_new_b():
            yield Timeout(200.0)
            assert cluster.node(1).nic.connections[0].unexpected.is_set(2), (
                "test setup: old A's message should be recorded"
            )
            b.close()  # old B dies; the stale record must die with it
            assert not cluster.node(1).nic.connections[0].unexpected.is_set(2)
            yield Timeout(100.0)
            b2 = cluster.node(1).driver.open_port(2)
            enters["B'"] = cluster.now
            yield from barrier(b2, GROUP, 1)
            done.append(("B'", cluster.now))

        cluster.spawn(old_a_then_new_a())
        cluster.spawn(old_b_then_new_b())
        cluster.run(max_events=3_000_000)
        assert len(done) == 2
        exit_b = next(t for name, t in done if name == "B'")
        assert exit_b >= enters["A'"], (
            "B' completed the barrier using the dead process's message"
        )


class TestStaleSenderDoesNotResend:
    def test_resend_suppressed_when_initiator_closed(self):
        """Process A initiates a barrier with B, dies; B's port opens later
        and rejects.  A's NIC must not resend ('only if the endpoint that
        initiated the barrier has not closed since the message was
        sent')."""
        cluster = two_node_cluster()
        a = cluster.open_port(0, 2)

        def rank0_dies():
            from repro.core.barrier import make_plan

            plan = make_plan(GROUP, 0, "pe")
            yield from a.provide_barrier_buffer()
            yield from a.barrier_send_with_callback(plan)
            yield Timeout(100.0)
            a.close()  # A dies mid-barrier

        def rank1_late():
            yield Timeout(300.0)
            cluster.open_port(1, 2)  # triggers the REJECT
            yield Timeout(500.0)

        cluster.spawn(rank0_dies())
        cluster.spawn(rank1_late())
        cluster.run(max_events=3_000_000)
        assert cluster.node(1).nic.barrier_engine.rejects_sent == 1
        assert cluster.node(0).nic.barrier_engine.resends == 0

    def test_endpoint_reuse_does_not_leak_stale_message(self):
        """The Section 3.2 hazard: A barriers with B, B is dead; new
        processes A' and B' reuse the endpoints.  B''s barrier must not
        consume A's stale message as if it were A''s."""
        cluster = two_node_cluster()
        a = cluster.open_port(0, 2)
        done = []

        enters = {}

        def old_a_then_new_pair():
            from repro.core.barrier import make_plan

            # Old A initiates a barrier towards the (closed) old B.
            plan = make_plan(GROUP, 0, "pe")
            yield from a.provide_barrier_buffer()
            yield from a.barrier_send_with_callback(plan)
            yield Timeout(100.0)
            a.close()  # old A dies; its message is recorded at node 1
            yield Timeout(400.0)
            # New A' reuses the endpoint and runs a fresh barrier, well
            # after B' opened and the stale message was rejected.
            a2 = cluster.node(0).driver.open_port(2)
            enters["A'"] = cluster.now
            yield from barrier(a2, GROUP, 0)
            done.append(("A'", cluster.now))

        def new_b():
            yield Timeout(200.0)
            b2 = cluster.node(1).driver.open_port(2)
            enters["B'"] = cluster.now
            yield from barrier(b2, GROUP, 1)
            done.append(("B'", cluster.now))

        cluster.spawn(old_a_then_new_pair())
        cluster.spawn(new_b())
        cluster.run(max_events=3_000_000)
        # Both new processes complete; old A (closed) never resent its
        # stale message, so B' can only have been released by A''s own
        # message: the fundamental hazard -- B' completing before A'
        # even starts -- cannot occur.
        assert len(done) == 2
        exit_b = next(t for name, t in done if name == "B'")
        assert exit_b >= enters["A'"], (
            "B' completed the barrier using the dead process's message"
        )
