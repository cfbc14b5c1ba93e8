"""Crash-soak regression tests: every barrier algorithm survives a
fail-stop node crash at every phase -- survivors terminate, agree on the
shrunken group, and reproduce bit-identically from the seed."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.faults.soak import (
    ALGORITHMS,
    SoakRow,
    check_fail_stop,
    run_crash_soak,
    run_soak_combo,
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: Post-shrink groups of a 4-node run whose victim is node 3.
SURVIVORS = ((0, 2), (1, 2), (2, 2))


class TestCrashSoakMatrix:
    def test_full_matrix_terminates_and_agrees(self):
        """Safety is asserted per combination inside the soak (survivors
        finish, hold one group, only ever exclude the victim); this
        checks the phase semantics across the whole matrix."""
        result = run_crash_soak(7, sizes=(4, 8))
        assert len(result.rows) == len(ALGORITHMS) * 3 * 2
        for row in result.rows:
            if row.phase in ("pre", "mid"):
                # The crash lands before/inside the barrier phase: the
                # group must have shrunk to everyone-but-the-victim.
                assert row.shrunken_size == row.num_nodes - 1
                assert row.suspects_declared >= row.num_nodes - 1
            else:
                # "post" lands after the drain: the run stays clean and
                # the shrink degenerates to full-group agreement.
                assert not row.observed_failure
                assert row.shrunken_size == row.num_nodes

    def test_sixteen_nodes_included_for_dissemination(self):
        row = run_soak_combo(
            family="crash",
            seed=42, label="nic-dissemination", algorithm="dissemination",
            phase="mid", crash_at_us=90.0, num_nodes=16,
        ).row
        assert row.observed_failure
        assert row.shrunken_size == 15


class TestCrashSoakDeterminism:
    def test_same_seed_same_signature(self):
        a = run_crash_soak(7, sizes=(4,))
        b = run_crash_soak(7, sizes=(4,))
        assert a.signature() == b.signature()

    def test_different_seeds_differ(self):
        a = run_crash_soak(7, sizes=(4,))
        b = run_crash_soak(8, sizes=(4,))
        assert a.signature() != b.signature()

    def test_row_round_trips(self):
        row = run_soak_combo(
            family="crash",
            seed=5, label="host-pe", algorithm="pe",
            phase="mid", crash_at_us=90.0, num_nodes=4,
        ).row
        assert SoakRow.from_dict(row.to_dict()) == row

    def test_table_renders_every_row(self):
        result = run_crash_soak(3, sizes=(4,), algorithms=(("host-pe", "pe"),))
        table = result.table()
        assert table.count("host-pe") == 3  # one line per phase
        assert "t_final_us" in table


class TestFailStopContract:
    @pytest.mark.parametrize("suspects, groups, message", [
        ({0: [3], 1: [3]}, {0: SURVIVORS, 1: SURVIVORS},
         "never finished"),
        ({0: [3], 1: [3], 2: [3]},
         {0: SURVIVORS, 1: SURVIVORS, 2: SURVIVORS[:2]}, "disagree"),
        ({0: [1], 1: [], 2: [1]},
         {r: ((0, 2), (2, 2), (3, 2)) for r in range(3)},
         "not 'everyone but"),
        ({0: [3], 1: [2, 3], 2: [3]}, {r: SURVIVORS for r in range(3)},
         "raised PeerFailure"),
    ])
    def test_violations_raise(self, suspects, groups, message):
        with pytest.raises(AssertionError, match=message):
            check_fail_stop("probe", 4, 3, suspects, groups)

    def test_check_survives_python_O(self):
        """``python -O`` strips ``assert`` statements; the contract check
        must raise there too."""
        code = textwrap.dedent("""
            assert False, "assertions are still on"
            from repro.faults.soak import check_fail_stop
            group = ((0, 2), (1, 2), (2, 2))
            try:
                check_fail_stop("probe", 4, 3, {0: [3], 1: [3], 2: [3]},
                                {0: group, 1: group, 2: group[:2]})
            except AssertionError as exc:
                print("raised:", exc)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env,
            capture_output=True, text=True, check=True,
        )
        assert "raised: probe: survivors disagree" in out.stdout
