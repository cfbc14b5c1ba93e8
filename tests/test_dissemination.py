"""Tests for the dissemination barrier (algorithmic extension)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import compile_dissemination
from repro.core.topology_calc import dissemination_plan
from tests.conftest import assert_barrier_safety, run_barriers


def rounds_of(n, rank):
    """Each round as {kind: peer} (one send and one recv per round)."""
    return [
        {op.kind: op.peer for op in ops}
        for ops in compile_dissemination(n, rank).rounds
    ]


class TestSchedule:
    def test_round_count_is_ceil_log2(self):
        for n in (2, 3, 4, 5, 8, 13, 16, 17):
            assert compile_dissemination(n, 0).num_rounds == math.ceil(math.log2(n))

    def test_single_rank_has_no_rounds(self):
        assert compile_dissemination(1, 0).rounds == ()

    def test_peers_are_power_of_two_offsets(self):
        for k, r in enumerate(rounds_of(13, 5)):
            assert r["send"] == (5 + 2**k) % 13
            assert r["recv"] == (5 - 2**k) % 13

    def test_send_recv_symmetry(self):
        """If rank a sends to b in round k, then b receives from a."""
        n = 11
        for rank in range(n):
            for k, r in enumerate(rounds_of(n, rank)):
                assert rounds_of(n, r["send"])[k]["recv"] == rank

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            compile_dissemination(0, 0)
        with pytest.raises(ValueError):
            compile_dissemination(4, 4)

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_full_information_mixing(self, n):
        """After all rounds, every rank has transitively heard from every
        other (the dissemination correctness invariant), executed as an
        asynchronous message-passing system."""
        programs = {
            r: [
                op
                for rnd in rounds_of(n, r)
                for op in (("send", rnd["send"]), ("recv", rnd["recv"]))
            ]
            for r in range(n)
        }
        pc = {r: 0 for r in range(n)}
        knowledge = {r: {r} for r in range(n)}
        channels: dict = {}
        progress = True
        while progress:
            progress = False
            for r in range(n):
                while pc[r] < len(programs[r]):
                    op, peer = programs[r][pc[r]]
                    if op == "send":
                        channels.setdefault((r, peer), []).append(
                            set(knowledge[r])
                        )
                        pc[r] += 1
                        progress = True
                    else:
                        queue = channels.get((peer, r), [])
                        if not queue:
                            break
                        knowledge[r] |= queue.pop(0)
                        pc[r] += 1
                        progress = True
        for r in range(n):
            assert pc[r] == len(programs[r]), f"rank {r} deadlocked"
            assert knowledge[r] == set(range(n))


class TestPlan:
    def test_plan_uses_pe_engine(self):
        plan = dissemination_plan([(i, 2) for i in range(5)], 0)
        assert plan.algorithm == "pe"
        # Each round is a send-only + recv-only step pair (peers differ
        # for n >= 3).
        assert all(s.send != s.recv for s in plan.steps)

    def test_two_rank_round_is_fused_exchange(self):
        plan = dissemination_plan([(0, 2), (1, 2)], 0)
        assert len(plan.steps) == 1
        assert plan.steps[0].send and plan.steps[0].recv


class TestEndToEnd:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 12, 16])
    def test_nic_dissemination_safe(self, n):
        enters, exits, _ = run_barriers(
            num_nodes=n, nic_based=True, algorithm="dissemination"
        )
        assert_barrier_safety(enters[0], exits[0])

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_host_dissemination_safe(self, n):
        enters, exits, _ = run_barriers(
            num_nodes=n, nic_based=False, algorithm="dissemination"
        )
        assert_barrier_safety(enters[0], exits[0])

    def test_consecutive(self):
        reps = 5
        enters, exits, _ = run_barriers(
            num_nodes=6, nic_based=True, algorithm="dissemination",
            repetitions=reps,
        )
        for rep in range(reps):
            assert_barrier_safety(enters[rep], exits[rep])

    def test_skew(self):
        enters, exits, _ = run_barriers(
            num_nodes=7, nic_based=True, algorithm="dissemination",
            skews={3: 400.0},
        )
        assert_barrier_safety(enters[0], exits[0])
        assert min(exits[0].values()) >= 400.0

    def test_beats_pe_at_awkward_sizes(self):
        """Dissemination needs ceil(log2 n) rounds where PE adds proxy
        exchanges -- at n just above a power of two it should win."""

        def lat(algorithm, n):
            enters, exits, _ = run_barriers(
                num_nodes=n, nic_based=True, algorithm=algorithm,
                repetitions=3,
            )
            return min(
                max(exits[r].values()) - max(enters[r].values())
                for r in (1, 2)
            )

        for n in (5, 6, 13):
            assert lat("dissemination", n) < lat("pe", n)
        # At n = 2^k both need the same k message rounds: no regression.
        assert lat("dissemination", 8) < lat("pe", 8) * 1.2
