"""Schedule-IR and compiler tests for :mod:`repro.core.schedule`.

The compilers' round-alignment contract (if rank p receives from q in
round r, q sends to p in its round r) is what the progress engine's
message matching relies on, so it is checked exhaustively here for all
four compilers and every group size up to 33 -- power-of-two and not,
every Ibcast root, every reduce operator shape, every tree dimension.
"""

import pytest

from repro.core.schedule import (
    COMPILERS,
    REDUCE_OPS,
    TREE_PHASES,
    Op,
    Schedule,
    compile_iallreduce,
    compile_ibarrier,
    compile_ibcast,
    compile_recursive_doubling,
    compile_tree,
    schedule_signature,
)

SIZES = list(range(1, 34))


def check_alignment(schedules):
    """Every send has a matching recv in the peer's same round, and
    vice versa."""
    for p, sched in enumerate(schedules):
        for r, ops in enumerate(sched.rounds):
            for op in ops:
                if op.kind == "send":
                    peer_round = schedules[op.peer].rounds[r]
                    assert any(
                        o.kind == "recv" and o.peer == p for o in peer_round
                    ), (p, r, op)
                elif op.kind == "recv":
                    peer_round = schedules[op.peer].rounds[r]
                    assert any(
                        o.kind == "send" and o.peer == p for o in peer_round
                    ), (p, r, op)


def run_locally(schedules, buffers):
    """Execute schedules in-process (round-synchronous semantics)."""
    rounds = max((s.num_rounds for s in schedules), default=0)
    for r in range(rounds):
        inbox = {}
        for p, sched in enumerate(schedules):
            for op in sched.rounds[r]:
                if op.kind == "send":
                    value = None if op.slot is None else buffers[p].get(op.slot)
                    inbox[(op.peer, p)] = value
        for p, sched in enumerate(schedules):
            for op in sched.rounds[r]:
                if op.kind == "recv" and op.slot is not None:
                    buffers[p][op.slot] = inbox[(p, op.peer)]
        for p, sched in enumerate(schedules):
            for op in sched.rounds[r]:
                if op.kind == "reduce":
                    buffers[p][op.dst] = REDUCE_OPS[op.op](
                        buffers[p][op.dst], buffers[p][op.src]
                    )
                elif op.kind == "copy":
                    buffers[p][op.dst] = buffers[p][op.src]


class TestOpValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            Op("jump", peer=1)

    def test_send_needs_peer(self):
        with pytest.raises(ValueError, match="needs a peer"):
            Op("send")

    def test_reduce_needs_known_operator(self):
        with pytest.raises(ValueError, match="unknown reduce operator"):
            Op("reduce", src="a", dst="b", op="xor")

    def test_copy_needs_slots(self):
        with pytest.raises(ValueError, match="needs src and dst"):
            Op("copy", src="a")

    def test_ops_are_immutable(self):
        op = Op("send", peer=1)
        with pytest.raises(Exception):
            op.peer = 2


class TestSignatures:
    def test_signature_covers_all_shape_inputs(self):
        a = schedule_signature("ibcast", 8, 3, root=2)
        assert a != schedule_signature("ibcast", 8, 3, root=1)
        assert a != schedule_signature("ibcast", 8, 2, root=2)
        assert a != schedule_signature("ibcast", 16, 3, root=2)
        assert a != schedule_signature("ibarrier", 8, 3)
        assert schedule_signature("iallreduce", 8, 3, op="sum") != (
            schedule_signature("iallreduce", 8, 3, op="max")
        )

    def test_compiled_schedules_carry_their_signature(self):
        for kind, compiler in COMPILERS.items():
            sched = compiler(8, 3)
            assert sched.kind == kind
            assert sched.signature[0] == kind
            assert sched.signature[1:3] == (8, 3)


class TestIbarrierCompiler:
    @pytest.mark.parametrize("n", SIZES)
    def test_alignment(self, n):
        check_alignment([compile_ibarrier(n, p) for p in range(n)])

    def test_round_count_is_ceil_log2(self):
        for n, expect in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3),
                          (9, 4), (16, 4), (17, 5)):
            assert compile_ibarrier(n, 0).num_rounds == expect, n

    def test_every_round_is_one_send_one_recv(self):
        for n in SIZES:
            if n == 1:
                continue
            for p in range(n):
                for ops in compile_ibarrier(n, p).rounds:
                    kinds = sorted(op.kind for op in ops)
                    assert kinds == ["recv", "send"]

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            compile_ibarrier(4, 4)
        with pytest.raises(ValueError):
            compile_ibarrier(0, 0)


class TestIbcastCompiler:
    @pytest.mark.parametrize("n", SIZES)
    def test_alignment_and_value_delivery_all_roots(self, n):
        for root in range(n):
            schedules = [compile_ibcast(n, p, root=root) for p in range(n)]
            check_alignment(schedules)
            buffers = [
                {"val": "payload" if p == root else None} for p in range(n)
            ]
            run_locally(schedules, buffers)
            assert all(b["val"] == "payload" for b in buffers), (n, root)

    def test_non_root_receives_exactly_once(self):
        for n in (2, 5, 8, 13):
            for p in range(n):
                sched = compile_ibcast(n, p, root=0)
                recvs = sched.num_recvs
                assert recvs == (0 if p == 0 else 1)

    def test_root_validation(self):
        with pytest.raises(ValueError, match="root"):
            compile_ibcast(4, 0, root=4)


class TestIallreduceCompiler:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("op", sorted(REDUCE_OPS))
    def test_alignment_and_result(self, n, op):
        schedules = [compile_iallreduce(n, p, op=op) for p in range(n)]
        check_alignment(schedules)
        values = [((p * 7) % 5) + 1 for p in range(n)]
        buffers = [{"acc": v} for v in values]
        run_locally(schedules, buffers)
        expect = values[0]
        for v in values[1:]:
            expect = REDUCE_OPS[op](expect, v)
        assert all(b["acc"] == expect for b in buffers), (n, op)

    def test_non_power_of_two_has_pre_post_phases(self):
        power = compile_iallreduce(8, 0)
        ragged = compile_iallreduce(9, 0)
        # 8 ranks: 3 doubling rounds; 9 ranks: pre + 3 doubling + post.
        assert power.num_rounds == 3
        assert ragged.num_rounds == 5

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown reduce operator"):
            compile_iallreduce(4, 0, op="xor")


class TestRecursiveDoublingBarrier:
    @pytest.mark.parametrize("n", SIZES)
    def test_alignment(self, n):
        schedules = [compile_recursive_doubling(n, p) for p in range(n)]
        check_alignment(schedules)
        assert all(s.result_slot is None for s in schedules)
        assert all(
            op.kind in ("send", "recv") and op.slot is None
            for s in schedules for ops in s.rounds for op in ops
        )


class TestTreeCompiler:
    @pytest.mark.parametrize("n", SIZES)
    def test_alignment_and_values_every_dimension(self, n):
        values = [((p * 7) % 5) + 1 for p in range(n)]
        for d in range(1, max(n, 2)):
            for kind in TREE_PHASES:
                schedules = [
                    compile_tree(n, p, d, kind=kind, op="max") for p in range(n)
                ]
                check_alignment(schedules)
                if kind == "barrier":
                    continue
                buffers = [
                    {"acc": v if kind != "bcast" or p == 0 else None}
                    for p, v in enumerate(values)
                ]
                run_locally(schedules, buffers)
                expect = values[0] if kind == "bcast" else max(values)
                reached = range(1) if kind == "reduce" else range(n)
                assert all(buffers[p]["acc"] == expect for p in reached), (n, d, kind)

    def test_default_dimension_is_binary(self):
        assert compile_tree(2, 0).signature == compile_tree(2, 0, 1).signature
        assert compile_tree(8, 0).signature == compile_tree(8, 0, 2).signature

    def test_reduce_result_only_at_root(self):
        assert compile_tree(5, 0, 2, kind="reduce").result_slot == "acc"
        assert compile_tree(5, 3, 2, kind="reduce").result_slot is None

    def test_unknown_operator_rejected_at_leaves_too(self):
        with pytest.raises(ValueError, match="unknown reduce operator"):
            compile_tree(4, 3, 2, kind="allreduce", op="avg")


class TestScheduleProperties:
    def test_counts(self):
        sched = Schedule(
            kind="ibarrier",
            signature=("ibarrier", 2, 0, None, None),
            rounds=((Op("send", peer=1), Op("recv", peer=1)),),
        )
        assert sched.num_rounds == 1
        assert sched.num_sends == 1
        assert sched.num_recvs == 1

    def test_schedules_are_immutable(self):
        sched = compile_ibarrier(4, 0)
        with pytest.raises(Exception):
            sched.rounds = ()
