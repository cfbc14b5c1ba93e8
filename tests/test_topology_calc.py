"""Unit + property tests for the barrier schedules and their lowering
to NIC plans (PE pairing, proxy steps, the d-ary heap tree)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Op, compile_recursive_doubling, compile_tree
from repro.core.topology_calc import gb_plan, pe_plan


def make_group(n, port=2):
    return [(i, port) for i in range(n)]


def messages(schedule):
    """The schedule's (kind, peer) messages in execution order: per
    round, its sends, then its receives."""
    return [
        (kind, op.peer)
        for ops in schedule.rounds
        for kind in ("send", "recv")
        for op in ops
        if op.kind == kind
    ]


def pe_rounds(n, rank):
    """Each PE round as a list of (kind, peer)."""
    return [
        [(op.kind, op.peer) for op in ops]
        for ops in compile_recursive_doubling(n, rank).rounds
    ]


def gb_tree(n, rank, dim):
    """(parent, children) ranks, read back from the lowered GB plan."""
    plan = gb_plan(make_group(n), rank, dim)
    parent = None if plan.parent is None else plan.parent[0]
    return parent, [c[0] for c in plan.children]


class TestPeSchedule:
    def test_power_of_two_is_pure_exchanges(self):
        for n in (2, 4, 8, 16, 32):
            for rank in range(n):
                rounds = pe_rounds(n, rank)
                assert len(rounds) == n.bit_length() - 1
                for (k1, p1), (k2, p2) in rounds:
                    assert (k1, k2) == ("send", "recv") and p1 == p2

    def test_xor_pairing(self):
        rounds = pe_rounds(8, 3)
        assert [r[0][1] for r in rounds] == [3 ^ 1, 3 ^ 2, 3 ^ 4]

    def test_pairing_is_symmetric(self):
        # If rank a exchanges with b in round k, b exchanges with a in k.
        for n in (2, 4, 5, 8, 13, 16):
            for rank in range(n):
                for k, ops in enumerate(pe_rounds(n, rank)):
                    for kind, peer in ops:
                        mirror = "recv" if kind == "send" else "send"
                        assert (mirror, rank) in pe_rounds(n, peer)[k]

    def test_single_rank_empty(self):
        assert compile_recursive_doubling(1, 0).rounds == ()

    def test_extra_rank_notify_release(self):
        # n=5: m=4, rank 4 is the extra; proxy is rank 0.  It notifies in
        # the pre-phase, sits out the two doubling rounds, and is
        # released in the post-phase.
        assert pe_rounds(5, 4) == [[("send", 0)], [], [], [("recv", 0)]]
        assert all(
            op.slot is None and op.tag == "pe"
            for ops in compile_recursive_doubling(5, 4).rounds
            for op in ops
        )

    def test_proxy_rank_absorbs_and_releases(self):
        rounds = pe_rounds(5, 0)
        assert rounds[0] == [("recv", 4)]
        assert rounds[-1] == [("send", 4)]
        assert rounds[1:-1] == [[("send", 1), ("recv", 1)], [("send", 2), ("recv", 2)]]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            compile_recursive_doubling(0, 0)
        with pytest.raises(ValueError):
            compile_recursive_doubling(4, 4)

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=64, deadline=None)
    def test_schedule_realizes_a_correct_barrier(self, n):
        """Execute the schedules as an asynchronous message-passing system:
        the barrier is correct iff every rank terminates (no deadlock) and
        finishes only after transitively hearing from all ranks."""
        programs = {
            r: messages(compile_recursive_doubling(n, r)) for r in range(n)
        }
        pc = {r: 0 for r in range(n)}
        knowledge = {r: {r} for r in range(n)}
        channels: dict = {}  # (src, dst) -> FIFO of knowledge snapshots
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
                    else:  # recv: blocks until a message is available
                        queue = channels.get((peer, r), [])
                        if not queue:
                            break
                        knowledge[r] |= queue.pop(0)
                        pc[r] += 1
                        progress = True
        for r in range(n):
            assert pc[r] == len(programs[r]), f"rank {r} deadlocked"
            assert knowledge[r] == set(range(n)), (
                f"rank {r} finished knowing only {sorted(knowledge[r])}"
            )


class TestPePlan:
    def test_steps_match_schedule_power_of_two(self):
        group = make_group(8)
        plan = pe_plan(group, 5)
        assert plan.algorithm == "pe"
        assert [s.peer for s in plan.steps] == [(5 ^ 1, 2), (5 ^ 2, 2), (5 ^ 4, 2)]
        assert all(s.send and s.recv for s in plan.steps)

    def test_extra_rank_fuses_notify_wait(self):
        group = make_group(5)
        plan = pe_plan(group, 4)
        assert len(plan.steps) == 1
        assert plan.steps[0].send and plan.steps[0].recv
        assert plan.steps[0].peer == (0, 2)

    def test_proxy_rank_has_recv_only_and_send_only(self):
        group = make_group(5)
        plan = pe_plan(group, 0)
        assert plan.steps[0].recv and not plan.steps[0].send
        assert plan.steps[-1].send and not plan.steps[-1].recv

    def test_duplicate_endpoints_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            pe_plan([(0, 2), (0, 2)], 0)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            pe_plan(make_group(4), 4)


class TestGbTree:
    def test_root_has_no_parent(self):
        parent, children = gb_tree(8, 0, 2)
        assert parent is None
        assert children == [1, 2]

    def test_heap_layout(self):
        parent, children = gb_tree(16, 3, 2)
        assert parent == 1
        assert children == [7, 8]
        # Rank 3 sits at depth 2 of a height-4 tree: its children's
        # gathers land in up round 4-2-1 = 1, it gathers up in round 2, is
        # released in down round 4+2-1 = 5 and releases its children in 6.
        rounds = compile_tree(16, 3, 2).rounds
        assert len(rounds) == 8
        assert rounds[1] == (
            Op("recv", peer=7, tag="gather"), Op("recv", peer=8, tag="gather"),
        )
        assert rounds[2] == (Op("send", peer=1, tag="gather"),)
        assert rounds[5] == (Op("recv", peer=1, tag="bcast"),)
        assert rounds[6] == (
            Op("send", peer=7, tag="bcast"), Op("send", peer=8, tag="bcast"),
        )
        assert rounds[0] == rounds[3] == rounds[4] == rounds[7] == ()

    def test_dimension_one_is_a_chain(self):
        for rank in range(1, 6):
            parent, children = gb_tree(6, rank, 1)
            assert parent == rank - 1
            assert children == ([rank + 1] if rank + 1 < 6 else [])

    def test_dimension_n_minus_one_is_a_star(self):
        n = 8
        parent, children = gb_tree(n, 0, n - 1)
        assert children == list(range(1, n))
        for rank in range(1, n):
            parent, children = gb_tree(n, rank, n - 1)
            assert parent == 0
            assert children == []

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            compile_tree(8, 0, 0)
        with pytest.raises(ValueError):
            compile_tree(8, 0, 8)

    def test_single_node(self):
        assert gb_tree(1, 0, 1) == (None, [])

    @given(
        st.integers(min_value=2, max_value=64),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_tree_invariants(self, n, data):
        """Every non-root has exactly one parent; parent/child relations
        are mutual; the tree is connected and spans all ranks."""
        dim = data.draw(st.integers(min_value=1, max_value=n - 1))
        parents = {}
        for rank in range(n):
            parent, children = gb_tree(n, rank, dim)
            for c in children:
                assert 0 <= c < n
                parents[c] = rank
            if parent is not None:
                # mutual: rank appears in parent's child list
                _, pc = gb_tree(n, parent, dim)
                assert rank in pc
        assert 0 not in parents
        assert set(parents) == set(range(1, n))
        # connected: walk every rank to the root
        for rank in range(1, n):
            seen = set()
            cur = rank
            while cur != 0:
                assert cur not in seen, "cycle detected"
                seen.add(cur)
                cur = parents[cur]

    @given(st.integers(min_value=2, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_height_matches_walk(self, n):
        """A one-phase tree schedule has one round per tree level: as
        many rounds as the deepest rank's walk to the root."""
        for dim in (1, 2, 3, n - 1):
            if dim > n - 1:
                continue
            steps, cur = 0, n - 1
            while cur != 0:
                cur, _ = gb_tree(n, cur, dim)
                steps += 1
            h = compile_tree(n, 0, dim, kind="reduce").num_rounds
            assert h == steps
            assert compile_tree(n, 0, dim).num_rounds == 2 * h
            # chain: n-1; star: 1
            if dim == 1:
                assert h == n - 1
            if dim == n - 1:
                assert h == 1


class TestGbPlan:
    def test_endpoints_mapped(self):
        group = [(10, 2), (11, 2), (12, 4), (13, 2)]
        plan = gb_plan(group, 1, 2)
        assert plan.parent == (10, 2)
        assert plan.children == ((13, 2),)

    def test_root_plan(self):
        plan = gb_plan(make_group(4), 0, 3)
        assert plan.is_root
        assert len(plan.children) == 3

    def test_single_member_group(self):
        plan = gb_plan([(0, 2)], 0, 1)
        assert plan.parent is None
        assert plan.children == ()
