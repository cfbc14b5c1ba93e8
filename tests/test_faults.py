"""Tests for the fault-injection subsystem (``repro.faults``): plan
round-trips, each injector mechanism, and the bit-identical guarantee
when injection is disabled."""

from types import SimpleNamespace

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier
from repro.faults import (
    AckLoss,
    FaultController,
    FaultPlan,
    LinkFlap,
    LossRule,
    NicPause,
    PortStall,
)
from repro.gm.constants import BarrierReliability
from repro.gm.events import RecvEvent
from repro.nic.nic import NicParams
from repro.sim.engine import Simulator
from repro.sim.primitives import Interrupted, Resource, Timeout
from repro.sim.process import Process


def faulted_cluster(plan, n=2, mode=BarrierReliability.SEPARATE, **nic_kw):
    nic_kw.setdefault("retransmit_timeout_us", 300.0)
    nic_kw.setdefault("barrier_retransmit_timeout_us", 200.0)
    cfg = ClusterConfig(
        num_nodes=n,
        nic_params=NicParams(barrier_reliability=mode, **nic_kw),
        fault_plan=plan,
    )
    return build_cluster(cfg)


def send_messages(cluster, count=4):
    """Send ``count`` payloads 0->1; returns the received list."""
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


class TestFaultPlan:
    def test_round_trip_through_dict(self):
        plan = FaultPlan.random(5, 8)
        d = plan.to_dict()
        assert FaultPlan.from_dict(d).to_dict() == d

    def test_generation_is_deterministic(self):
        assert (
            FaultPlan.random(5, 8).to_dict() == FaultPlan.random(5, 8).to_dict()
        )
        assert (
            FaultPlan.random(5, 8).to_dict() != FaultPlan.random(6, 8).to_dict()
        )

    def test_random_plans_are_recoverable_by_construction(self):
        for seed in range(20):
            plan = FaultPlan.random(seed, 8)
            for rule in plan.loss:
                assert rule.max_drops is not None
            for flap in plan.flaps:
                assert flap.up_at is not None
            for stall in plan.stalls:
                assert stall.duration_us > 0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seed": 1, "explosions": []})

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            LossRule(rate=1.5)
        with pytest.raises(ValueError):
            LossRule(direction="sideways")
        with pytest.raises(ValueError):
            LinkFlap(down_at=100.0, up_at=50.0)
        with pytest.raises(ValueError):
            AckLoss(count=0)
        with pytest.raises(ValueError):
            NicPause(duration_us=0)

    def test_ptype_groups(self):
        from repro.faults.plan import resolve_ptypes
        from repro.network.packet import PacketType

        assert resolve_ptypes(None) is None
        assert PacketType.DATA in resolve_ptypes("data")
        assert PacketType.BARRIER_ACK in resolve_ptypes("ack")
        assert resolve_ptypes(["data", "ack"]) == (
            resolve_ptypes("data") | resolve_ptypes("ack")
        )


class TestTargetedLoss:
    def test_targeted_drop_counted_and_recovered(self):
        plan = FaultPlan(
            seed=1,
            loss=[
                LossRule(
                    rate=1.0, nodes=[1], direction="rx",
                    ptypes="data", max_drops=1,
                )
            ],
        )
        cluster = faulted_cluster(plan)
        got = send_messages(cluster)
        assert got == [0, 1, 2, 3]  # go-back-N recovered, in order
        assert cluster.faults.drops == 1
        assert cluster.network.rx_channel(1).packets_dropped == 1

    def test_corruption_counted_separately(self):
        plan = FaultPlan(
            seed=1,
            loss=[
                LossRule(
                    rate=1.0, nodes=[1], direction="rx",
                    ptypes="data", max_drops=2, corrupt=True,
                )
            ],
        )
        cluster = faulted_cluster(plan)
        got = send_messages(cluster)
        assert got == [0, 1, 2, 3]
        assert cluster.faults.corruptions == 2
        assert cluster.faults.drops == 0
        ch = cluster.network.rx_channel(1)
        assert ch.packets_corrupted == 2
        assert ch.packets_dropped == 2  # corruption is a kind of drop

    def test_probabilistic_loss_is_seeded(self):
        def run(seed):
            plan = FaultPlan(
                seed=seed,
                loss=[LossRule(rate=0.3, direction="rx", max_drops=50)],
            )
            cluster = faulted_cluster(plan)
            send_messages(cluster, count=6)
            return cluster.faults.drops, cluster.sim.events_executed

        assert run(3) == run(3)  # same plan seed => same losses
        # Different seeds should diverge (with 30% loss over dozens of
        # packets, identical outcomes would be astonishing).
        assert run(3) != run(4)


class TestAckLossInjector:
    def test_ack_loss_covered_by_duplicate_suppression(self):
        # Enough budget to eat every ACK of the initial exchange AND the
        # re-ACKs of the first retransmission rounds, so recovery must go
        # through the timer -> retransmit -> duplicate-suppress -> re-ACK
        # path rather than a later cumulative ACK covering the hole.
        plan = FaultPlan(seed=1, ack_loss=[AckLoss(count=6, nodes=[0])])
        cluster = faulted_cluster(plan)
        got = send_messages(cluster)
        assert got == [0, 1, 2, 3]
        assert cluster.faults.drops == 6
        dups = sum(
            c.duplicates_dropped
            for node in cluster.nodes
            for c in node.nic.connections.values()
        )
        retrans = sum(
            c.packets_retransmitted
            for node in cluster.nodes
            for c in node.nic.connections.values()
        )
        # The lost ACKs force timer retransmission of delivered packets,
        # which the receiver must suppress as duplicates and re-ACK.
        assert retrans >= 1
        assert dups >= 1


class TestLinkFlap:
    def test_flap_loses_then_recovers(self):
        plan = FaultPlan(
            seed=1,
            flaps=[LinkFlap(node=1, down_at=0.0, up_at=400.0, direction="rx")],
        )
        cluster = faulted_cluster(plan)
        got = send_messages(cluster)
        assert got == [0, 1, 2, 3]
        ch = cluster.network.rx_channel(1)
        assert ch.packets_lost_down >= 1
        assert cluster.sim.now >= 400.0  # nothing landed before the link rose


class TestPortStall:
    def test_stall_delays_without_loss(self):
        def run(plan):
            cfg = ClusterConfig(
                num_nodes=4,
                nic_params=NicParams(
                    barrier_reliability=BarrierReliability.SEPARATE
                ),
                fault_plan=plan,
            )
            cluster = build_cluster(cfg)

            def program(ctx):
                yield from barrier(ctx.port, ctx.group, ctx.rank)

            run_on_group(cluster, program, max_events=3_000_000)
            return cluster

        baseline = run(None)
        stalled = run(
            FaultPlan(
                seed=1,
                stalls=[PortStall(switch=0, port=0, at_us=5.0, duration_us=150.0)],
            )
        )
        # Queued, not lost: no drops anywhere, but the barrier is late.
        assert all(
            cluster.network.rx_channel(i).packets_dropped == 0
            for cluster in (baseline, stalled)
            for i in range(4)
        )
        assert stalled.sim.now > baseline.sim.now

    def test_stall_on_unattached_port_is_loud(self):
        plan = FaultPlan(seed=1, stalls=[PortStall(switch=0, port=15)])
        with pytest.raises(ValueError, match="unattached port"):
            faulted_cluster(plan, n=2)


class TestNicPause:
    def test_pause_delays_the_barrier(self):
        def run(plan):
            cfg = ClusterConfig(
                num_nodes=2,
                nic_params=NicParams(
                    barrier_reliability=BarrierReliability.SEPARATE
                ),
                fault_plan=plan,
            )
            cluster = build_cluster(cfg)

            def program(ctx):
                yield from barrier(ctx.port, ctx.group, ctx.rank)

            run_on_group(cluster, program, max_events=3_000_000)
            return cluster.sim.now

        baseline = run(None)
        paused = run(
            FaultPlan(
                seed=1, pauses=[NicPause(node=1, at_us=2.0, duration_us=80.0)]
            )
        )
        assert paused >= baseline + 50.0


def _legacy_pause_nic(nic, at_us, duration_us):
    """``FaultController._pause_nic`` before it was one ``hold``:
    request, timeout, release in ``finally`` -- the reference."""
    if at_us > 0:
        yield Timeout(at_us)
    yield nic.cpu_resource.request()
    try:
        yield Timeout(duration_us)
    finally:
        nic.cpu_resource.release()


def _struck_pause(pause, action):
    """Firmware F charges the LANai 0-10 and G queues at 12 for 3 us; a
    pause queued at 5 for 20 us is granted at 10 and is interrupted or
    killed at 15, mid-hold.  Returns every release (instant, waiters
    left), G's completion and the end state."""
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="lanai")
    log = []
    release = cpu.release

    def logged_release():
        log.append(("release", sim.now, cpu.queued))
        release()

    cpu.release = logged_release

    def firmware(arrive, duration, tag):
        yield Timeout(arrive)
        yield cpu.hold(duration)
        log.append((tag, sim.now))

    def watcher(proc):
        try:
            yield proc
        except Interrupted:
            log.append(("pause interrupted", sim.now))

    Process(sim, firmware(0.0, 10.0, "F done"))
    Process(sim, firmware(12.0, 3.0, "G done"))
    paused = Process(sim, pause(SimpleNamespace(cpu_resource=cpu), 5.0, 20.0))
    Process(sim, watcher(paused))
    sim.schedule(15.0, getattr(paused, action))
    sim.run()
    log.append(("end", sim.now, cpu.in_use, cpu.queued, cpu.busy_us))
    return log


class TestNicPauseTeardown:
    @pytest.mark.parametrize("action", ["interrupt", "kill"])
    def test_struck_mid_hold_releases_the_lanai_like_request_timeout_release(
        self, action
    ):
        log = _struck_pause(FaultController._pause_nic, action)
        assert log == _struck_pause(_legacy_pause_nic, action)
        # The LANai goes back at the strike and G runs 15-18.
        assert ("release", 15.0, 1) in log and ("G done", 18.0) in log
        assert log[-1] == ("end", 18.0, 0, 0, 18.0)


class TestDisabledInjectionIsBitIdentical:
    @pytest.mark.parametrize(
        "mode",
        [
            BarrierReliability.UNRELIABLE,
            BarrierReliability.TOKEN_PER_DESTINATION,
            BarrierReliability.SEPARATE,
        ],
    )
    def test_empty_plan_and_no_plan_agree(self, mode):
        """The acceptance criterion: wiring the fault subsystem must not
        perturb an unfaulted simulation by a single event."""

        def run(plan):
            cfg = ClusterConfig(
                num_nodes=4,
                nic_params=NicParams(barrier_reliability=mode),
                fault_plan=plan,
            )
            cluster = build_cluster(cfg)

            def program(ctx):
                for _ in range(2):
                    yield from barrier(ctx.port, ctx.group, ctx.rank)

            run_on_group(cluster, program, max_events=3_000_000)
            return cluster.sim.now, cluster.sim.events_executed

        assert run(None) == run(FaultPlan(seed=99))

    def test_metrics_registration(self):
        plan = FaultPlan(
            seed=1,
            loss=[LossRule(rate=1.0, nodes=[1], ptypes="data", max_drops=1)],
        )
        cfg = ClusterConfig(
            num_nodes=2,
            nic_params=NicParams(
                barrier_reliability=BarrierReliability.SEPARATE,
                retransmit_timeout_us=300.0,
            ),
            fault_plan=plan,
            metrics=True,
        )
        cluster = build_cluster(cfg)
        send_messages(cluster)
        snapshot = dict(cluster.metrics.rows(skip_zero=False))
        assert snapshot["faults.drops"] == 1
        assert any(
            name.startswith("link.") and name.endswith(".dropped") and v
            for name, v in snapshot.items()
        )
