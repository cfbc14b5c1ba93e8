"""Integration tests: the NIC-based pairwise-exchange barrier."""

import pytest

from repro.analysis.calibration import LANAI_4_3_SYSTEM
from repro.analysis.experiments import measure_barrier
from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier
from tests.conftest import assert_barrier_safety, run_barriers


class TestCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_power_of_two_sizes_complete_safely(self, n):
        enters, exits, _ = run_barriers(num_nodes=n, nic_based=True, algorithm="pe")
        assert_barrier_safety(enters[0], exits[0])

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 11, 13])
    def test_non_power_of_two_sizes_complete_safely(self, n):
        enters, exits, _ = run_barriers(num_nodes=n, nic_based=True, algorithm="pe")
        assert_barrier_safety(enters[0], exits[0])

    def test_all_ranks_exit(self):
        enters, exits, _ = run_barriers(num_nodes=8, nic_based=True, algorithm="pe")
        assert len(exits[0]) == 8

    def test_single_rank_barrier_is_immediate_but_nonzero(self):
        enters, exits, _ = run_barriers(num_nodes=1, nic_based=True, algorithm="pe")
        # Still pays initiation + completion notification, but no wire time.
        assert 0 < exits[0][0] < 50.0


class TestSkew:
    def test_slow_rank_holds_everyone(self):
        skews = {3: 500.0}
        enters, exits, _ = run_barriers(
            num_nodes=8, nic_based=True, algorithm="pe", skews=skews
        )
        assert_barrier_safety(enters[0], exits[0])
        assert min(exits[0].values()) >= 500.0

    def test_every_rank_skewed_differently(self):
        skews = {r: 37.0 * r for r in range(8)}
        enters, exits, _ = run_barriers(
            num_nodes=8, nic_based=True, algorithm="pe", skews=skews
        )
        assert_barrier_safety(enters[0], exits[0])

    def test_unexpected_messages_recorded_not_lost(self):
        """With heavy skew, early messages hit NICs whose barrier hasn't
        been initiated -- the unexpected record must absorb them."""
        skews = {0: 800.0}  # rank 0 very late; everyone else sends early
        enters, exits, cluster = run_barriers(
            num_nodes=4, nic_based=True, algorithm="pe", skews=skews
        )
        assert_barrier_safety(enters[0], exits[0])
        engine = cluster.node(0).nic.barrier_engine
        assert engine.unexpected_recorded >= 1


class TestConsecutive:
    def test_many_consecutive_barriers(self):
        reps = 10
        enters, exits, _ = run_barriers(
            num_nodes=4, nic_based=True, algorithm="pe", repetitions=reps
        )
        for rep in range(reps):
            assert_barrier_safety(enters[rep], exits[rep])
        # Barriers are totally ordered: every rank's rep k exit precedes
        # its rep k+1 enter.
        for rep in range(reps - 1):
            for rank in range(4):
                assert exits[rep][rank] <= enters[rep + 1][rank]

    def test_consecutive_latency_is_stable(self):
        reps = 8
        enters, exits, _ = run_barriers(
            num_nodes=8, nic_based=True, algorithm="pe", repetitions=reps
        )
        lats = [
            max(exits[r].values()) - max(enters[r].values())
            for r in range(2, reps)
        ]
        assert max(lats) - min(lats) < 1.0  # steady state, no drift

    def test_worst_case_pairwise_storm(self):
        """Section 3.1's worst case: one slow process does consecutive
        two-process barriers with every other process; the fast peers all
        fire their messages at the slow NIC before it starts."""
        n = 6
        cluster = build_cluster(ClusterConfig(num_nodes=n))
        group_all = [(i, 2) for i in range(n)]

        def slow(ctx):
            from repro.sim.primitives import Timeout

            yield Timeout(400.0)  # everyone else initiates first
            for peer in range(1, n):
                pair = [(0, 2), (peer, 2)]
                yield from barrier(ctx.port, pair, 0, algorithm="pe")
            return ctx.now

        def fast(ctx):
            pair = [(0, 2), (ctx.rank, 2)]
            yield from barrier(ctx.port, pair, 1, algorithm="pe")
            return ctx.now

        ports = [cluster.open_port(i, 2) for i in range(n)]
        from repro.cluster.runner import RankContext

        procs = [
            cluster.spawn(
                slow(RankContext(cluster, ports[0], 0, tuple(group_all)))
            )
        ]
        for i in range(1, n):
            procs.append(
                cluster.spawn(
                    fast(RankContext(cluster, ports[i], i, tuple(group_all)))
                )
            )
        cluster.run(max_events=5_000_000)
        assert all(not p.alive for p in procs)
        # The slow node absorbed n-1 unexpected messages.
        assert cluster.node(0).nic.barrier_engine.unexpected_recorded == n - 1


class TestApiContract:
    def test_two_barriers_in_flight_on_one_port_rejected(self):
        cluster = build_cluster(ClusterConfig(num_nodes=2))
        a = cluster.open_port(0, 2)
        cluster.open_port(1, 2)
        group = [(0, 2), (1, 2)]

        def program():
            from repro.core.barrier import make_plan

            plan = make_plan(group, 0, "pe")
            yield from a.provide_barrier_buffer()
            yield from a.barrier_send_with_callback(plan)
            with pytest.raises(RuntimeError, match="already in flight"):
                yield from a.barrier_send_with_callback(plan)

        cluster.spawn(program())
        cluster.run(until=2000.0)

    def test_missing_barrier_buffer_is_an_error(self):
        cluster = build_cluster(ClusterConfig(num_nodes=2))
        ports = [cluster.open_port(i, 2) for i in range(2)]
        group = [(0, 2), (1, 2)]

        def program(rank):
            from repro.core.barrier import make_plan

            plan = make_plan(group, rank, "pe")
            # No provide_barrier_buffer: firmware must complain loudly.
            yield from ports[rank].barrier_send_with_callback(plan)

        for r in range(2):
            cluster.spawn(program(r))
        with pytest.raises(RuntimeError, match="barrier buffer"):
            cluster.run(max_events=1_000_000)

    def test_latency_grows_logarithmically(self):
        lat = {}
        for n in (2, 4, 8, 16):
            enters, exits, _ = run_barriers(num_nodes=n, nic_based=True, algorithm="pe")
            lat[n] = max(exits[0].values()) - max(enters[0].values())
        d1 = lat[4] - lat[2]
        d2 = lat[8] - lat[4]
        d3 = lat[16] - lat[8]
        # One extra exchange step per doubling, roughly constant cost.
        assert d1 == pytest.approx(d2, rel=0.2)
        assert d2 == pytest.approx(d3, rel=0.2)


class TestEndToEndSimulationCost:
    def test_nic_pe_16_at_quick_repetitions(self):
        """The NIC-PE(16) anchor holds at the --quick repetitions too."""
        latency = measure_barrier(
            LANAI_4_3_SYSTEM.cluster_config(16),
            nic_based=True, algorithm="pe", repetitions=3, warmup=1,
        ).mean_latency_us
        assert latency == pytest.approx(102.14, rel=0.10)

    def test_events_per_simulated_barrier(self):
        """Event footprint of one 16-node barrier: a few thousand events,
        not millions (a ballooning count means an accidental busy loop)."""
        with build_cluster(LANAI_4_3_SYSTEM.cluster_config(16)) as cluster:

            def program(ctx):
                yield from barrier(ctx.port, ctx.group, ctx.rank)

            run_on_group(cluster, program, max_events=5_000_000)
            assert cluster.sim.events_executed < 60_000
