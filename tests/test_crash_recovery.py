"""Fail-stop recovery stack: crash plan entries, the NIC heartbeat
failure detector, typed PeerFailure aborts, shrink-and-resume, and the
clean-run bit-identity guarantee."""

import pytest

from repro.analysis.reliability_bench import run_reliability_scenario
from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group, spawn_group
from repro.core.barrier import barrier
from repro.core.collectives import allreduce
from repro.faults import (
    FaultPlan,
    LinkFlap,
    NicCrash,
    NodeCrash,
    PeerFailure,
)
from repro.faults.inject import (
    CRASH_DETECTOR_SLACK_US,
    CRASH_SUSPECT_AFTER_US,
)
from repro.faults.soak import (
    check_barrier_safety,
    combo_seed,
    run_soak_combo,
)
from repro.gm.constants import BarrierReliability
from repro.nic.detector import FailureDetector
from repro.nic.nic import NicParams, RetransmitLimitExceeded


class TestCrashPlans:
    def test_round_trip(self):
        plan = FaultPlan(
            seed=3,
            crashes=[NodeCrash(node=2, at_us=50.0, restart_at_us=200.0)],
            nic_crashes=[NicCrash(node=1, at_us=10.0)],
        )
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.crashes == plan.crashes
        assert again.nic_crashes == plan.nic_crashes
        assert plan.has_crashes and again.has_crashes

    def test_validation(self):
        with pytest.raises(ValueError, match="at_us"):
            NodeCrash(node=0, at_us=-1.0)
        with pytest.raises(ValueError, match="restart_at_us"):
            NodeCrash(node=0, at_us=5.0, restart_at_us=5.0)
        with pytest.raises(ValueError, match="at_us"):
            NicCrash(node=0, at_us=-0.1)

    def test_random_crashes_are_opt_in_and_deterministic(self):
        a = FaultPlan.random(9, 8, include_crashes=True)
        b = FaultPlan.random(9, 8, include_crashes=True)
        assert a.to_dict() == b.to_dict()
        assert len(a.crashes) == 1 and 0 <= a.crashes[0].node < 8
        base = FaultPlan.random(9, 8)
        assert not base.has_crashes
        # The crash draws from its own named stream: opting in leaves
        # every non-crash rule byte-identical.
        opted = a.to_dict()
        assert opted.pop("crashes")  # present, and the only difference
        assert opted == base.to_dict()


class TestFailureDetector:
    def test_nic_params_build_and_arm_a_detector(self):
        cluster = build_cluster(ClusterConfig(
            num_nodes=2, nic_params=NicParams(heartbeat_us=50.0),
        ))
        detector = cluster.nodes[0].nic.detector
        assert detector is not None and detector.armed
        assert detector.suspect_after == 400.0  # default 8 x heartbeat

    def test_without_heartbeat_there_is_no_detector(self):
        cluster = build_cluster(ClusterConfig(num_nodes=2))
        assert all(node.nic.detector is None for node in cluster.nodes)

    def test_idle_heartbeats_keep_peers_alive(self):
        """With nothing else running, the heartbeat mesh alone must keep
        every detector suspicion-free."""
        cluster = build_cluster(ClusterConfig(
            num_nodes=3, nic_params=NicParams(heartbeat_us=50.0),
        ))
        cluster.run(until=2_000.0)
        for node in cluster.nodes:
            assert node.nic.detector.heartbeats_sent > 0
            assert not node.nic.detector.suspects

    def test_parameter_validation(self):
        cluster = build_cluster(ClusterConfig(num_nodes=2))
        nic = cluster.nodes[0].nic
        with pytest.raises(ValueError, match="heartbeat_us"):
            FailureDetector(nic, 0.0, 100.0)
        with pytest.raises(ValueError, match="suspect_after"):
            FailureDetector(nic, 50.0, 50.0)


class TestShrinkAndResume:
    def test_sixteen_node_dissemination_acceptance(self):
        """The ISSUE's acceptance scenario: a 16-node dissemination
        barrier loses a node mid-round; every survivor aborts with a
        typed PeerFailure, the shrink converges on the same 15-member
        group, and the whole run is bit-identical across reruns."""
        kwargs = dict(
            family="crash",
            seed=42, label="nic-dissemination", algorithm="dissemination",
            phase="mid", crash_at_us=90.0, num_nodes=16,
        )
        row = run_soak_combo(**kwargs).row
        assert row.observed_failure
        assert row.shrunken_size == 15
        assert row.suspects_declared == 15  # every survivor's NIC agrees
        # Prompt detection: the run (abort + shrink + 2 fresh barriers)
        # ends ~1.6 ms after the crash, nowhere near a retransmit hang.
        assert row.final_time_us < 10_000.0
        assert run_soak_combo(**kwargs).row == row  # bit-identical rerun

    def test_detection_within_the_suspect_window(self):
        sample = run_reliability_scenario(
            seed=5, label="nic-dissemination", algorithm="dissemination",
            num_nodes=8,
        )
        assert sample["shrunken_size"] == 7
        assert len(sample["detect_us"]) == 7  # one per surviving NIC
        bound = CRASH_SUSPECT_AFTER_US + CRASH_DETECTOR_SLACK_US
        for detect in sample["detect_us"]:
            assert 0.0 < detect <= bound
        # Recovery (shrink + first fresh barrier) completes afterwards.
        for recover in sample["recover_us"]:
            assert recover > max(sample["detect_us"])

    def test_restarted_node_stays_excluded(self):
        """A NodeCrash with restart_at_us: the node comes back with
        fresh firmware but dead host programs -- survivors still shrink
        to everyone-but-the-victim and finish undisturbed."""
        from repro.mpi.communicator import Communicator

        victim = 1
        cluster = build_cluster(ClusterConfig(
            num_nodes=4,
            seed=9,
            nic_params=NicParams(
                retransmit_timeout_us=300.0,
                barrier_retransmit_timeout_us=200.0,
            ),
            fault_plan=FaultPlan(
                seed=9,
                crashes=[NodeCrash(node=victim, at_us=60.0,
                                   restart_at_us=800.0)],
            ),
        ))
        final_groups = {}

        def program(ctx):
            comm = Communicator(ctx.port, ctx.group, ctx.rank)
            old = comm.params
            comm.params = old.with_(nic_collectives=False)
            for _ in range(3):
                try:
                    yield from comm.barrier(algorithm="pe")
                except PeerFailure as failure:
                    ctx.port.acknowledge_failures(set(failure.suspects))
                    break
            yield from comm.shrink()
            yield from comm.barrier(algorithm="pe")
            final_groups[ctx.rank] = comm.group

        run_on_group(cluster, program, max_events=5_000_000)
        survivors = [r for r in range(4) if r != victim]
        assert sorted(final_groups) == survivors
        groups = {final_groups[r] for r in survivors}
        assert len(groups) == 1
        assert not any(ep[0] == victim for ep in groups.pop())
        assert not cluster.nodes[victim].nic.crashed  # it did restart


class TestAbortReclaimsCompletionBuffer:
    @pytest.mark.parametrize("operation", ["gb", "allreduce"])
    def test_suspected_peer_aborts_tree_operation(self, operation):
        """Regression: an aborted NIC collective kept its completion
        buffer (and its PeerFailureEvent carried no ctx), so the next
        completion on the port consumed a stale buffer.  Ranks 0 and 1
        start a GB barrier / allreduce; node 2 never joins and is
        suspected at t=200 us."""
        cluster = build_cluster(ClusterConfig(num_nodes=3))
        group = [(node, 2) for node in range(3)]
        ports = [cluster.open_port(node, 2) for node in (0, 1)]
        failures = {}

        def program(port, rank):
            try:
                if operation == "gb":
                    yield from barrier(
                        port, group, rank, algorithm="gb", dimension=2
                    )
                else:
                    yield from allreduce(
                        port, group, rank, value=rank, op="sum", dimension=2
                    )
            except PeerFailure as failure:
                failures[rank] = failure

        for rank, port in enumerate(ports):
            cluster.spawn(program(port, rank))
        for node in (0, 1):
            cluster.sim.schedule(200.0, cluster.node(node).nic.on_peer_suspected, 2)
        cluster.run(max_events=1_000_000)
        assert sorted(failures) == [0, 1]
        for rank, port in enumerate(ports):
            assert len(port.port.barrier_buffers) == 0
            assert failures[rank].suspects == {2}
            assert failures[rank].ctx is not None
            assert port.port.barrier_send_token is None
            assert port.port.coll_send_token is None
            assert port.port.send_tokens_free == port.port.send_tokens_total


class TestNicCrash:
    def test_host_survives_and_learns_of_its_own_nic(self):
        """A NicCrash kills only the LANai: the victim's host program
        gets a PeerFailure naming its *own* node, survivors see an
        ordinary fail-stop silence -- and nobody hangs."""
        victim = 2
        cluster = build_cluster(ClusterConfig(
            num_nodes=4,
            seed=6,
            nic_params=NicParams(
                retransmit_timeout_us=300.0,
                barrier_retransmit_timeout_us=200.0,
            ),
            fault_plan=FaultPlan(
                seed=6,
                nic_crashes=[NicCrash(node=victim, at_us=5.0)],
            ),
        ))
        suspects_by_rank = {}

        def program(ctx):
            try:
                for _ in range(3):
                    yield from barrier(ctx.port, ctx.group, ctx.rank)
            except PeerFailure as failure:
                suspects_by_rank[ctx.rank] = set(failure.suspects)

        run_on_group(cluster, program, max_events=5_000_000)
        assert sorted(suspects_by_rank) == [0, 1, 2, 3]
        for rank in range(4):
            assert suspects_by_rank[rank] == {victim}
        assert cluster.nodes[victim].nic.crashed
        assert any(p.alive is False for p in cluster.nodes[victim].programs) \
            or not cluster.nodes[victim].programs  # host was never killed


class TestCleanRunIdentity:
    def test_no_fault_plan_means_no_detector_and_determinism(self):
        """Without a fault plan no detector exists, no heartbeat ever
        goes on the wire, and repeated builds replay bit-identically."""

        def run_once():
            cluster = build_cluster(ClusterConfig(num_nodes=8, seed=3))
            assert all(
                node.nic.detector is None for node in cluster.nodes
            )

            def program(ctx):
                for _ in range(3):
                    yield from barrier(ctx.port, ctx.group, ctx.rank)

            run_on_group(cluster, program, max_events=5_000_000)
            return cluster.sim.events_executed, cluster.sim.now

        assert run_once() == run_once()


class TestAlarmDiagnostics:
    def test_alarm_always_carries_flight_records_and_peer(self):
        """Satellite bugfix: RetransmitLimitExceeded.flight_records is a
        list even without a tracer, and .peer names the unreachable
        node."""
        cluster = build_cluster(ClusterConfig(
            num_nodes=2,
            nic_params=NicParams(
                barrier_reliability=BarrierReliability.SEPARATE,
                retransmit_timeout_us=300.0,
                barrier_retransmit_timeout_us=200.0,
                max_retransmits=6,
            ),
            fault_plan=FaultPlan(
                seed=1,
                flaps=[LinkFlap(node=1, down_at=0.0, up_at=None,
                                direction="both")],
            ),
        ))

        def program(ctx):
            yield from barrier(ctx.port, ctx.group, ctx.rank)

        spawn_group(cluster, program)
        with pytest.raises(RetransmitLimitExceeded) as exc:
            cluster.run(max_events=5_000_000)
        assert isinstance(exc.value.flight_records, list)
        assert exc.value.peer == exc.value.remote_node
        assert exc.value.peer in (0, 1)


class TestPostShrinkSafety:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known defect: a survivor can leave a post-shrink barrier "
               "before the last survivor entered it (ROADMAP item 1)",
    )
    def test_no_rank_leaves_a_post_shrink_barrier_early(self):
        """Crash-soak combination 39 of seed 7 (victim 3): rank 0 leaves
        post-shrink barrier 0 at ~754 us while rank 2 is still inside
        ``shrink()`` and only enters that barrier at ~867 us.  Likely
        cause: stale messages from the barriers the crash aborted."""
        run = run_soak_combo(
            family="crash", seed=combo_seed(7, 39),
            label="nic-dissemination", algorithm="dissemination",
            phase="mid", crash_at_us=90.0, num_nodes=4,
        )
        first = run.row.repetitions
        post_shrink = {k: v for k, v in run.exits.items() if k >= first}
        assert post_shrink and all(post_shrink.values())
        check_barrier_safety("post-shrink", run.enters, post_shrink)
