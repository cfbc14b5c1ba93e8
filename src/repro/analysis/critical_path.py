"""Barrier critical-path extraction from a causally traced run.

A traced barrier leaves a forest of spans: every host initiation is a
:class:`~repro.sim.tracing.TraceContext` root, every packet a child span
of whatever *caused* it (the initiating token, or the incoming message
that advanced the barrier state machine).  Because receivers adopt the
incoming packet's context as the cause of their next send, the last
rank's ``barrier.exit`` record sits at the end of one connected chain of
records reaching back -- across nodes, wires and switches -- to the
host-queue instant of the rank that started the slowest dependency
chain.  That chain *is* the barrier's critical path: the happens-before
sequence whose segment durations telescope to exactly the end-to-end
barrier latency.

:func:`extract_critical_path` reconstructs it by walking backward from
the final ``barrier.exit`` record: the predecessor of a record is the
previous record in the same span, else the latest record in the parent
span at or before it.  The result attributes every microsecond to a
segment (Host/Send/SDMA/Xmit/Network/Recv/RDMA/HRecv -- the Figure 2
decomposition), a location (trace category: ``host3``, ``nic0``,
``net``) and a hop, renders as a table, and feeds
``Tracer.to_chrome_trace(flow_steps=...)`` so Perfetto draws the causal
arrows between rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.tracing import TraceContext, TraceEvent

__all__ = [
    "CriticalPath",
    "PathStep",
    "extract_critical_path",
    "segment_of",
    "traced_barrier_run",
]

#: Figure-2 segment for each record label the chain can cross.  A
#: record's segment names the work that *ends* at it: the time since the
#: chain's previous record is attributed to this segment.
_SEGMENT_BY_LABEL: Dict[str, str] = {
    "barrier.queue": "Host",
    "barrier.initiate": "Send",
    "barrier.send": "SDMA",
    "barrier.local_deliver": "SDMA",
    "sdma.prepared": "SDMA",
    "sdma.retransmit": "SDMA",
    "sdma.dma": "SDMA",
    "rdma.dma": "RDMA",
    "send.xmit": "Xmit",
    "switch.route": "Network",
    "link.deliver": "Network",
    "recv.barrier_recv": "Recv",
    "recv.accepted": "Recv",
    "barrier.advance": "RDMA",
    "barrier.recorded": "RDMA",
    "barrier.complete": "RDMA",
    "rdma.delivered": "RDMA",
    "barrier.exit": "HRecv",
}


def segment_of(label: str) -> str:
    """The Figure-2 segment a record label belongs to."""
    seg = _SEGMENT_BY_LABEL.get(label)
    if seg is not None:
        return seg
    # Phase-span bookkeeping records (pe.begin, gb.gather.end, ...) are
    # firmware actions.
    return "NIC"


@dataclass(frozen=True)
class PathStep:
    """One record on the critical path.

    ``duration_us`` is the time since the *previous* step -- the cost of
    reaching this record -- so the step durations sum telescopically to
    the chain's end-to-end time.
    """

    event: TraceEvent
    segment: str
    duration_us: float

    @property
    def time(self) -> float:
        """Simulated time of the record."""
        return self.event.time

    @property
    def ctx(self) -> Optional[TraceContext]:
        """The record's trace context."""
        return self.event.payload.get("ctx")

    def to_dict(self) -> dict:
        """JSON-able form (campaign summary schema)."""
        ctx = self.ctx
        return {
            "time_us": self.event.time,
            "category": self.event.category,
            "label": self.event.label,
            "segment": self.segment,
            "duration_us": self.duration_us,
            "ctx": ctx.to_dict() if ctx is not None else None,
        }


@dataclass
class CriticalPath:
    """The extracted chain, oldest record first."""

    steps: List[PathStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    @property
    def start_us(self) -> float:
        """Time of the chain's first record."""
        return self.steps[0].time if self.steps else 0.0

    @property
    def end_us(self) -> float:
        """Time of the chain's last record."""
        return self.steps[-1].time if self.steps else 0.0

    @property
    def total_us(self) -> float:
        """End-to-end chain time; equals the sum of step durations."""
        return self.end_us - self.start_us

    @property
    def trace_id(self) -> Optional[int]:
        """The trace tree the chain lives in."""
        for step in self.steps:
            if step.ctx is not None:
                return step.ctx.trace_id
        return None

    @property
    def events(self) -> List[TraceEvent]:
        """The chain's raw records (``Tracer.to_chrome_trace`` flow
        steps)."""
        return [s.event for s in self.steps]

    def by_segment(self) -> Dict[str, float]:
        """Total attributed time per Figure-2 segment."""
        out: Dict[str, float] = {}
        for step in self.steps:
            out[step.segment] = out.get(step.segment, 0.0) + step.duration_us
        return out

    def by_category(self) -> Dict[str, float]:
        """Total attributed time per location (host/NIC/net row)."""
        out: Dict[str, float] = {}
        for step in self.steps:
            out[step.event.category] = (
                out.get(step.event.category, 0.0) + step.duration_us
            )
        return out

    def straggler_chain(self) -> List[str]:
        """The locations the chain visits, in order, deduplicated of
        immediate repeats -- "who waited on whom", host to host."""
        out: List[str] = []
        for step in self.steps:
            cat = step.event.category
            if cat != "net" and (not out or out[-1] != cat):
                out.append(cat)
        return out

    def render_table(self) -> str:
        """Per-hop attribution table (the ``--critical-path`` output)."""
        from repro.analysis.tables import format_table

        rows = []
        for step in self.steps:
            ctx = step.ctx
            rows.append(
                [
                    f"{step.time:.3f}",
                    f"+{step.duration_us:.3f}",
                    step.segment,
                    step.event.category,
                    step.event.label,
                    "" if ctx is None else f"{ctx.trace_id}:{ctx.span_id}",
                    "" if ctx is None or not ctx.hop else str(ctx.hop),
                ]
            )
        table = format_table(
            ["t_us", "dt_us", "segment", "where", "record", "span", "hop"],
            rows,
        )
        seg = self.by_segment()
        seg_line = "  ".join(
            f"{name}={seg[name]:.3f}" for name in sorted(seg, key=seg.get,
                                                         reverse=True)
        )
        chain = " -> ".join(self.straggler_chain())
        return (
            f"{table}\n"
            f"critical path: {self.total_us:.3f} us over {len(self.steps)}"
            f" records (trace {self.trace_id})\n"
            f"per segment: {seg_line}\n"
            f"straggler chain: {chain}"
        )

    def summary(self) -> dict:
        """JSON-able summary (aggregated into ``BENCH_campaign.json``)."""
        return {
            "total_us": self.total_us,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "records": len(self.steps),
            "trace_id": self.trace_id,
            "by_segment": self.by_segment(),
            "by_category": self.by_category(),
            "straggler_chain": self.straggler_chain(),
            "steps": [s.to_dict() for s in self.steps],
        }


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def _ctx_of(event: TraceEvent) -> Optional[TraceContext]:
    ctx = event.payload.get("ctx")
    return ctx if isinstance(ctx, TraceContext) else None


def extract_critical_path(
    events: Sequence[TraceEvent],
    end_label: str = "barrier.exit",
) -> CriticalPath:
    """Walk the happens-before chain back from the last ``end_label``
    record carrying a context.

    The predecessor of a record is the previous context-carrying record
    in the same span; when the span is exhausted, the latest record in
    the (transitive) parent span at or before the current time.  The
    walk ends at a root span's first record -- the host-queue instant of
    the chain-starting rank.  Raises ``ValueError`` when no suitable end
    record exists (tracing was off, or no barrier ran).
    """
    # Span index: span_id -> context-carrying records in time order.
    # ``events`` is already time-ordered (simulation order).
    by_span: Dict[int, List[Tuple[int, TraceEvent]]] = {}
    parents: Dict[int, Optional[int]] = {}
    for i, ev in enumerate(events):
        ctx = _ctx_of(ev)
        if ctx is None:
            continue
        by_span.setdefault(ctx.span_id, []).append((i, ev))
        # Last writer wins; parent ids never differ within a span.
        parents[ctx.span_id] = ctx.parent_span_id

    end: Optional[TraceEvent] = None
    for ev in reversed(events):
        if ev.label == end_label and _ctx_of(ev) is not None:
            end = ev
            break
    if end is None and end_label != "barrier.complete":
        return extract_critical_path(events, end_label="barrier.complete")
    if end is None:
        raise ValueError(
            f"no {end_label!r} record with a trace context found "
            "(was the run traced?)"
        )

    chain: List[TraceEvent] = [end]
    current = end
    seen: set = {id(end)}
    while True:
        ctx = _ctx_of(current)
        assert ctx is not None
        span = by_span[ctx.span_id]
        pos = next(
            i for i, (_, ev) in enumerate(span) if ev is current
        )
        pred: Optional[TraceEvent] = None
        if pos > 0:
            pred = span[pos - 1][1]
        else:
            # Climb parent spans for the latest record <= current time.
            parent = parents.get(ctx.span_id)
            while parent is not None and pred is None:
                for _, ev in reversed(by_span.get(parent, [])):
                    if ev.time <= current.time and id(ev) not in seen:
                        pred = ev
                        break
                parent = parents.get(parent)
        if pred is None or id(pred) in seen:
            break
        seen.add(id(pred))
        chain.append(pred)
        current = pred

    chain.reverse()
    steps: List[PathStep] = []
    prev_time = chain[0].time
    for ev in chain:
        steps.append(
            PathStep(
                event=ev,
                segment=segment_of(ev.label),
                duration_us=ev.time - prev_time,
            )
        )
        prev_time = ev.time
    return CriticalPath(steps=steps)


# ----------------------------------------------------------------------
# Traced single-barrier runner
# ----------------------------------------------------------------------
def traced_barrier_run(
    num_nodes: int,
    algorithm: str = "pe",
    dimension: Optional[int] = None,
    config: Optional[Any] = None,
    max_events: Optional[int] = 20_000_000,
):
    """Run ONE fault-free barrier with tracing on; return
    ``(cluster, critical_path, end_to_end_us)``.  The cluster comes back
    closed; its tracer and counters stay readable.

    ``end_to_end_us`` is the measured barrier latency -- last rank's
    ``barrier.exit`` minus first rank's ``barrier.queue`` -- and with
    zero entry skew it equals ``critical_path.total_us`` exactly (the
    chain starts at a queue record stamped at the common entry instant).
    """
    from repro.cluster.builder import ClusterConfig, build_cluster
    from repro.cluster.runner import default_group, run_on_group
    from repro.core.barrier import barrier as nic_barrier_op

    if config is None:
        config = ClusterConfig(num_nodes=num_nodes)
    config = config.with_(num_nodes=num_nodes, trace=True)

    def program(ctx):
        yield from nic_barrier_op(
            ctx.port, ctx.group, ctx.rank,
            algorithm=algorithm, dimension=dimension,
        )
        return ctx.now

    with build_cluster(config) as cluster:
        run_on_group(
            cluster, program, group=default_group(cluster),
            max_events=max_events,
        )
    events = cluster.tracer.events
    path = extract_critical_path(events)
    queues = [e.time for e in events if e.label == "barrier.queue"]
    exits = [e.time for e in events if e.label == "barrier.exit"]
    end_to_end = (max(exits) - min(queues)) if queues and exits else path.total_us
    return cluster, path, end_to_end
