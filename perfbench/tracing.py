"""Per-layer wall-clock attribution for the benchmark.

Everything here wraps *public* entry points of ``repro`` from the
outside, for the length of one unit of work, and restores them after;
``src/`` is never edited.

Two sources of host time are combined:

* **Spans.**  :class:`SpanRecorder` keeps a stack of open spans.  A span
  is one call of a plain function (``build_cluster``, ``spawn_group``,
  ``run_campaign``, ``Simulator.run``, a fault injector) or one
  *resumption* of a generator-returning host entry point (``barrier()``,
  ``host_barrier()``, ``GmPort`` send/receive, ``Communicator.ibarrier``,
  ``Request.test``/``wait``).  A span's self time is its duration minus
  the durations of the spans opened inside it.
* **Dispatch.**  ``Simulator(profile=True)`` times every event callback
  by owner (:meth:`repro.sim.engine.Simulator.profile_stats`).  Its
  owner labeller is swapped for one that names the resumed process
  (``Process:nic3.sdma``, ``Process:rank5``) instead of lumping every
  resumption under ``_WaitHandle``, and that charges the spans closed
  during the callback to that owner, so an owner's self time is its
  dispatch time minus the span time inside it.

``sim.run`` time not spent in any callback is the engine's own loop
(``sim.dispatch_self_s``).
"""

from __future__ import annotations

import functools
import time
from importlib import import_module
from typing import Callable, Dict, List, Tuple

#: The span layer whose direct children are event callbacks.
RUN_LAYER = "sim.run"

#: Span layers whose total duration is the workload's set-up time.
SETUP_LAYERS = ("cluster.build", "cluster.spawn")


class SpanRecorder:
    """In-memory span stack with per-layer self and total time.

    ``keep`` bounds how many raw spans are retained for writing out
    (``(span_id, parent_id, layer, start, end)``); the per-layer sums are
    always exact.  ``clock`` reads seconds.
    """

    def __init__(self, keep: int = 0, clock: Callable[[], float] = time.perf_counter) -> None:
        self.keep = keep
        self.clock = clock
        self.spans: List[Tuple[int, int, str, float, float]] = []
        #: Spans opened since construction (ids are never reused).
        self.span_count = 0
        self.reset()

    def reset(self) -> None:
        """Forget all sums (kept spans stay: they are the run's record)."""
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Span time closed directly under ``sim.run`` since the last
        #: callback finished (drained by the owner labeller).
        self.in_callback_s = 0.0
        #: owner -> span time spent inside that owner's callbacks.
        self.owner_child_s: Dict[str, float] = {}

    def count(self, name: str) -> None:
        """Count one call of an entry point."""
        self.calls[name] = self.calls.get(name, 0) + 1

    def open(self, layer: str) -> None:
        """Open a span of ``layer`` under the innermost open span."""
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        span_id = self.span_count
        self.span_count = span_id + 1
        stack.append([layer, self.clock(), 0.0, span_id, parent])

    def close(self) -> None:
        """Close the innermost span and charge its time."""
        end = self.clock()
        layer, start, child_s, span_id, parent = self._stack.pop()
        duration = end - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child_s
        self.total_s[layer] = self.total_s.get(layer, 0.0) + duration
        if self._stack:
            top = self._stack[-1]
            top[2] += duration
            if top[0] == RUN_LAYER:
                self.in_callback_s += duration
        if span_id < self.keep:
            self.spans.append((span_id, parent, layer, start, end))

    def setup_s(self) -> float:
        """Cluster build plus port open and program spawn, summed."""
        return sum(self.total_s.get(layer, 0.0) for layer in SETUP_LAYERS)

    # -- wrappers ---------------------------------------------------------
    def wrap_call(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with each call timed as one span of ``layer``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    def wrap_generator(self, layer: str, fn: Callable, name: str = "") -> Callable:
        """Generator function ``fn`` with each resumption timed as a span
        of ``layer``; calls are counted under ``name`` (default: layer)."""
        name = name or layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return self._drive(layer, fn(*args, **kwargs))

        return wrapper

    def _drive(self, layer: str, gen):
        """Delegate to ``gen`` like ``yield from``, one span per step."""
        value, exc = None, None
        while True:
            self.open(layer)
            try:
                step = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                self.close()
                return stop.value
            except BaseException:
                self.close()
                raise
            self.close()
            try:
                value, exc = (yield step), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # delivered into ``gen`` next step
                value, exc = None, err

    def owner_labeller(self, original: Callable) -> Callable:
        """A replacement for the engine's callback-owner labeller.

        The profiler calls it once right after each callback returns, so
        the span time accumulated since the previous call belongs to this
        callback's owner.
        """
        from repro.sim.process import _WaitHandle

        def label(callback) -> str:
            target = getattr(callback, "__self__", None)
            if isinstance(target, _WaitHandle):
                owner = f"Process:{target.process.name}"
            else:
                owner = original(callback)
            child = self.in_callback_s
            if child:
                self.in_callback_s = 0.0
                self.owner_child_s[owner] = self.owner_child_s.get(owner, 0.0) + child
            return owner

        return label


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, target: object, attr: str, value: object) -> None:
        """Replace ``target.attr`` until :meth:`undo`."""
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def undo(self) -> None:
        """Restore every replaced attribute."""
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)


class ClusterLog:
    """The clusters a unit builds, folded into totals one at a time.

    Builds are sequential (each simulation ends before the next cluster
    is built), so only the newest cluster, ``last``, is kept alive:
    holding every cluster of a sweep would grow the heap and slow the
    garbage collector inside the very code being timed.
    """

    COUNTERS = (
        "events", "cancelled_pops", "timers_reclaimed", "lanai_busy_us",
        "dma_transfers", "retransmits", "acks", "duplicates_dropped",
        "future_dropped", "packets", "delivered", "drops",
    )

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Start a new unit."""
        self.last = None
        self.counters: Dict[str, float] = dict.fromkeys(self.COUNTERS, 0)
        #: owner -> [callbacks, wall seconds] (profiled clusters only).
        self.profile: Dict[str, list] = {}

    def retire(self) -> None:
        """Fold ``last`` into the totals and let it go."""
        cluster, self.last = self.last, None
        if cluster is None:
            return
        c = self.counters
        sim = cluster.sim
        c["events"] += sim.events_executed
        c["cancelled_pops"] += sim.cancelled_pops
        c["timers_reclaimed"] += sim.timers_reclaimed
        for owner, (events, wall) in sim.profile_stats().items():
            rec = self.profile.setdefault(owner, [0, 0.0])
            rec[0] += events
            rec[1] += wall
        for node_id, node in enumerate(cluster.nodes):
            nic = node.nic
            c["lanai_busy_us"] += nic.cpu_resource.busy_us
            c["dma_transfers"] += nic.sdma_engine.transfers + nic.rdma_engine.transfers
            for conn in nic.connections.values():
                c["retransmits"] += conn.packets_retransmitted
                c["acks"] += conn.packets_acked
                c["duplicates_dropped"] += conn.duplicates_dropped
                c["future_dropped"] += conn.future_dropped
            c["packets"] += cluster.network.tx_channel(node_id).packets_sent
            c["delivered"] += cluster.network.rx_channel(node_id).packets_sent
        if cluster.faults is not None:
            c["drops"] += cluster.faults.drops

    def useful_ratio(self) -> float:
        """Packets a NIC accepted (not lost on the wire, not a duplicate
        or out-of-window resend) per packet injected."""
        c = self.counters
        unique = c["delivered"] - c["duplicates_dropped"] - c["future_dropped"]
        return unique / c["packets"] if c["packets"] else 0.0


def install_setup_hooks(rec: SpanRecorder, patches: Patches, log: ClusterLog,
                        profile: bool = False) -> None:
    """Time cluster set-up and log every cluster built.

    ``build_cluster`` is replaced in each module that imported it by
    name; with ``profile`` every cluster is built with the engine's
    per-owner profiler on (simulated results are unaffected).
    """
    from repro.analysis import experiments, nbc_overlap
    from repro.cluster import builder, runner

    real_build = builder.build_cluster

    def build(config=None, **overrides):
        if profile:
            overrides["profile"] = True
        return real_build(config, **overrides)

    timed_build = rec.wrap_call("cluster.build", build)

    def build_cluster(config=None, **overrides):
        log.retire()
        log.last = timed_build(config, **overrides)
        return log.last

    for module in (builder, experiments, nbc_overlap):
        patches.set(module, "build_cluster", build_cluster)
    patches.set(runner, "spawn_group", rec.wrap_call("cluster.spawn", runner.spawn_group))
    patches.set(builder.Cluster, "open_port",
                rec.wrap_call("cluster.open_port", builder.Cluster.open_port))


def install_layer_hooks(rec: SpanRecorder, patches: Patches) -> None:
    """Span every layer boundary the traced run attributes time to."""
    from repro.analysis import experiments, figure5
    from repro.campaign import executor, spec
    from repro.faults.inject import ChannelInjector
    from repro.gm.api import GmPort
    from repro.mpi.communicator import Communicator
    from repro.mpi.nbc.engine import Request
    from repro.sim import engine

    patches.set(engine, "_callback_owner", rec.owner_labeller(engine._callback_owner))
    patches.set(engine.Simulator, "run", rec.wrap_call(RUN_LAYER, engine.Simulator.run))
    timed_campaign = rec.wrap_call("campaign", executor.run_campaign)
    patches.set(executor, "run_campaign", timed_campaign)
    patches.set(figure5, "run_campaign", timed_campaign)
    real_compile = spec.CampaignSpec.compile

    def compile_jobs(campaign):
        jobs = real_compile(campaign)
        rec.calls["campaign.jobs"] = rec.calls.get("campaign.jobs", 0) + len(jobs)
        return jobs

    patches.set(spec.CampaignSpec, "compile", rec.wrap_call("campaign.expand", compile_jobs))
    patches.set(ChannelInjector, "__call__", rec.wrap_call("faults", ChannelInjector.__call__))

    core_barrier = import_module("repro.core.barrier")
    nic_barrier = rec.wrap_generator("core.nic", core_barrier.barrier)
    patches.set(core_barrier, "barrier", nic_barrier)
    patches.set(experiments, "nic_barrier_op", nic_barrier)
    patches.set(experiments, "host_barrier_op",
                rec.wrap_generator("core.host", experiments.host_barrier_op))

    for method, name in (
        ("send_with_callback", "gm.send"),
        ("barrier_send_with_callback", "gm.send"),
        ("receive", "gm.receive"),
        ("try_receive", "gm.receive"),
        ("receive_where", "gm.receive_where"),
        ("provide_receive_buffer", "gm.buffer"),
        ("ensure_receive_buffers", "gm.buffer"),
        ("provide_barrier_buffer", "gm.buffer"),
    ):
        patches.set(GmPort, method, rec.wrap_generator("gm", getattr(GmPort, method), name))
    patches.set(Communicator, "ibarrier",
                rec.wrap_generator("mpi.nbc", Communicator.ibarrier, "mpi.nbc.start"))
    for method in ("test", "wait"):
        patches.set(Request, method,
                    rec.wrap_generator("mpi.nbc", getattr(Request, method), "mpi.nbc.progress"))


#: Layer of each non-process callback owner the workloads produce.
OWNER_LAYERS = {"Channel": "network", "Nic": "nic", "Store": "sim.primitives"}


def layer_of(owner: str) -> str:
    """The layer an event-callback owner belongs to (``other`` when the
    workloads are not known to produce it)."""
    kind, _, name = owner.partition(":")
    if kind == "Process":
        if name.startswith("rank"):
            return "host"
        if name.startswith("nic"):  # nicN.<MCP machine>
            return "nic.mcp." + name.partition(".")[2]
        return "other"
    return OWNER_LAYERS.get(kind, "other")


def attribute(rec: SpanRecorder, profile: Dict[str, list]) -> Dict[str, float]:
    """Per-layer self seconds of one traced unit.

    Span layers come from the recorder; dispatch time of each callback
    owner, less the spans inside it, goes to :func:`layer_of` its owner;
    ``sim.run`` time outside callbacks is the engine loop.
    """
    layers = {k: v for k, v in rec.self_s.items() if k != RUN_LAYER}
    dispatch_total = 0.0
    for owner, (_events, wall) in profile.items():
        dispatch_total += wall
        layer = layer_of(owner)
        layers[layer] = layers.get(layer, 0.0) + wall - rec.owner_child_s.get(owner, 0.0)
    layers["sim.dispatch"] = rec.total_s.get(RUN_LAYER, 0.0) - dispatch_total
    return layers


def dispatch_counts(profile: Dict[str, list]) -> Dict[str, int]:
    """Callback count per layer (``resumes`` of the MCP machines)."""
    counts: Dict[str, int] = {}
    for owner, (events, _wall) in profile.items():
        layer = layer_of(owner)
        counts[layer] = counts.get(layer, 0) + events
    return counts
