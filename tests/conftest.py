"""Shared test fixtures and helpers."""

from __future__ import annotations

import hashlib
import itertools
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import settings

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier as nic_barrier_op
from repro.core.host_barrier import host_barrier as host_barrier_op
from repro.sim.engine import Simulator
from repro.sim.primitives import Timeout


REPO_ROOT = Path(__file__).resolve().parents[1]

# Tier-1 is deterministic: every @given test draws the same examples on
# every run (a seed derived from the test) and replays nothing from an
# example database.  Each test's own @settings still sets its
# max_examples and deadline.  CI also explores with fresh random
# examples: ``pytest --hypothesis-profile=explore``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


def tracked_file_states(
    root: Path = REPO_ROOT,
) -> Optional[Dict[str, Optional[Tuple[str, int]]]]:
    """``(sha256, st_mtime_ns)`` of every git-tracked file under ``root``
    (None for a tracked file that is missing; None overall when ``root``
    is not a git checkout).  The mtime catches a file rewritten with
    identical bytes, which the digest alone cannot."""
    try:
        listing = subprocess.run(
            ["git", "ls-files", "-z"], cwd=root,
            capture_output=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    states: Dict[str, Optional[Tuple[str, int]]] = {}
    for name in listing.decode().split("\0"):
        if name:
            path = root / name
            states[name] = (
                (hashlib.sha256(path.read_bytes()).hexdigest(),
                 path.stat().st_mtime_ns)
                if path.is_file() else None
            )
    return states


def changed_tracked_files(
    before: Dict[str, Optional[Tuple[str, int]]],
    after: Optional[Dict[str, Optional[Tuple[str, int]]]],
) -> List[str]:
    """Tracked files whose content or mtime differs between two
    :func:`tracked_file_states` readings (or that stopped existing)."""
    after = after or {}
    return sorted(name for name in before if after.get(name) != before[name])


@pytest.fixture(scope="session", autouse=True)
def tracked_files_unchanged():
    """The suite is hermetic: fail the session if any tracked file was
    written, even with the bytes it had (tests write under ``tmp_path``
    only)."""
    before = tracked_file_states()
    yield
    if before is None:
        return
    changed = changed_tracked_files(before, tracked_file_states())
    assert not changed, f"the test session modified tracked files: {changed}"


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def restart_id_counters(monkeypatch) -> None:
    """Restart the five process-global id counters (packet, GM event,
    token, trace and span ids) at 1, so a run's records do not depend
    on what ran before it in the process."""
    import repro.gm.events as gm_events
    import repro.gm.tokens as gm_tokens
    import repro.network.packet as net_packet
    import repro.sim.tracing as tracing

    for module, name in ((net_packet, "_packet_ids"), (gm_events, "_event_ids"),
                         (gm_tokens, "_token_ids"), (tracing, "_trace_ids"),
                         (tracing, "_span_ids")):
        monkeypatch.setattr(module, name, itertools.count(1))


def run_barriers(
    *,
    num_nodes: int,
    nic_based: bool = True,
    algorithm: str = "pe",
    dimension: Optional[int] = None,
    repetitions: int = 1,
    skews: Optional[Dict[int, float]] = None,
    config: Optional[ClusterConfig] = None,
    group: Optional[Sequence[Tuple[int, int]]] = None,
    max_events: int = 5_000_000,
):
    """Run consecutive barriers; return (enter_times, exit_times) where
    each is ``times[rep][rank]``, plus the cluster for inspection."""
    cfg = config or ClusterConfig(num_nodes=num_nodes)
    cluster = build_cluster(cfg)
    enters: Dict[int, Dict[int, float]] = {r: {} for r in range(repetitions)}
    exits: Dict[int, Dict[int, float]] = {r: {} for r in range(repetitions)}

    def program(ctx):
        for rep in range(repetitions):
            if skews and rep == 0:
                delay = skews.get(ctx.rank, 0.0)
                if delay:
                    yield Timeout(delay)
            enters[rep][ctx.rank] = ctx.now
            if nic_based:
                yield from nic_barrier_op(
                    ctx.port, ctx.group, ctx.rank,
                    algorithm=algorithm, dimension=dimension,
                )
            else:
                yield from host_barrier_op(
                    ctx.port, ctx.group, ctx.rank,
                    algorithm=algorithm, dimension=dimension,
                )
            exits[rep][ctx.rank] = ctx.now

    run_on_group(cluster, program, group=group, max_events=max_events)
    return enters, exits, cluster


def assert_barrier_safety(enters: Dict[int, float], exits: Dict[int, float]) -> None:
    """The fundamental barrier property: nobody exits before everyone
    entered."""
    latest_enter = max(enters.values())
    earliest_exit = min(exits.values())
    assert earliest_exit >= latest_enter, (
        f"barrier unsafe: a rank exited at {earliest_exit:.3f} before the "
        f"last rank entered at {latest_enter:.3f}"
    )
