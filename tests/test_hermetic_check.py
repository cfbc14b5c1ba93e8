"""The hermetic-session check of ``tests/conftest.py``, driven on a
temporary git repository: a tracked file counts as modified when its
bytes change, when it disappears, and when it is rewritten with the
bytes it already had."""

import os
import shutil
import subprocess

import pytest

from tests.conftest import changed_tracked_files, tracked_file_states

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")

#: An mtime long before any test run, so a rewrite always moves it.
PAST_NS = 10**18


@pytest.fixture
def repo(tmp_path):
    """A git repository with two tracked files and one untracked."""
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    (tmp_path / "BENCH.json").write_text('{"x": 1}\n')
    (tmp_path / "notes.txt").write_text("notes\n")
    (tmp_path / "scratch.txt").write_text("scratch\n")
    subprocess.run(["git", "add", "BENCH.json", "notes.txt"], cwd=tmp_path, check=True)
    for name in ("BENCH.json", "notes.txt"):
        os.utime(tmp_path / name, ns=(PAST_NS, PAST_NS))
    return tmp_path


class TestTrackedFileStates:
    def test_reads_tracked_files_only(self, repo):
        states = tracked_file_states(repo)
        assert sorted(states) == ["BENCH.json", "notes.txt"]
        digest, mtime_ns = states["BENCH.json"]
        assert len(digest) == 64 and mtime_ns == PAST_NS

    def test_reads_and_untracked_writes_pass(self, repo):
        before = tracked_file_states(repo)
        (repo / "BENCH.json").read_bytes()
        (repo / "scratch.txt").write_text("rewritten\n")
        assert changed_tracked_files(before, tracked_file_states(repo)) == []

    def test_identical_bytes_rewrite_is_caught(self, repo):
        before = tracked_file_states(repo)
        path = repo / "BENCH.json"
        path.write_bytes(path.read_bytes())
        after = tracked_file_states(repo)
        assert after["BENCH.json"][0] == before["BENCH.json"][0]
        assert changed_tracked_files(before, after) == ["BENCH.json"]

    def test_changed_and_deleted_files_are_caught(self, repo):
        before = tracked_file_states(repo)
        (repo / "BENCH.json").write_text('{"x": 2}\n')
        (repo / "notes.txt").unlink()
        after = tracked_file_states(repo)
        assert after["notes.txt"] is None
        assert changed_tracked_files(before, after) == ["BENCH.json", "notes.txt"]

    def test_outside_a_checkout_there_is_nothing_to_check(self, tmp_path):
        assert tracked_file_states(tmp_path) is None
