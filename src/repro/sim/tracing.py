"""Structured tracing of simulation activity.

The tracer collects ``TraceEvent`` records (timestamp, category, label,
payload).  It powers three things:

* the per-phase latency decomposition used to validate the Figure 2 timing
  model (``Send``, ``SDMA``, ``Xmit``, ``Network``, ``Recv``, ``RDMA``,
  ``HRecv`` segments),
* **causal tracing**: records may carry a :class:`TraceContext` so one
  message's life -- host queue, SDMA prepare, wire, every switch hop,
  RDMA, host receive -- forms one linked span tree that
  :mod:`repro.analysis.critical_path` can walk, and
* debugging: a human-readable timeline of host/NIC/network events, plus
  an always-on :class:`FlightRecorder` ring holding the last K records
  even when full tracing is off.

Every trace site hands its record to :meth:`Tracer.emit` as one
``(time, category, label, payload)`` tuple, and the tracer alone
decides where it goes: setting :attr:`Tracer.enabled` rebinds ``emit``.
Tracing is off by default, and then ``emit`` *is* the flight ring's
``append`` (or, without a ring, a C-level discard), so an untraced
record calls no Python code at all.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.fileio import atomic_write_text
from repro.sim.engine import Simulator

# ----------------------------------------------------------------------
# Causal trace contexts (Dapper-style span propagation)
# ----------------------------------------------------------------------
_trace_ids = itertools.count(1)
_span_ids = itertools.count(1)
#: A bare instance, without ``__init__`` (``object.__new__``, in C).
_new_context = object.__new__


class TraceContext:
    """Causal identity carried on packets and send descriptors.

    ``trace_id`` names the tree (one per root operation, e.g. one rank's
    barrier initiation); ``span_id`` names this hop of work within it and
    ``parent_span_id`` links to the span that caused it.  ``hop`` counts
    switch traversals of the current wire crossing; ``attempt`` counts
    retransmissions of the same logical message.

    Contexts are immutable: propagation derives new ones with
    :meth:`child` (a caused follow-on span), :meth:`next_hop` (same span,
    one switch further) and :meth:`retry` (same span, retransmitted).
    Ids are allocated from process-global counters regardless of whether
    a tracer is enabled, and allocating them never touches the simulator
    -- so tracing on/off cannot perturb event order or timing.
    """

    __slots__ = ("trace_id", "span_id", "parent_span_id", "hop", "attempt")

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_span_id: Optional[int] = None,
        hop: int = 0,
        attempt: int = 0,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_span_id = parent_span_id
        self.hop = hop
        self.attempt = attempt

    # The derivations below fill a bare instance in place of calling
    # ``__init__``: one Python call per derived context, not two.
    @classmethod
    def root(cls) -> "TraceContext":
        """A fresh trace tree (a host-initiated operation)."""
        ctx = _new_context(cls)
        ctx.trace_id = next(_trace_ids)
        ctx.span_id = next(_span_ids)
        ctx.parent_span_id = None
        ctx.hop = ctx.attempt = 0
        return ctx

    def child(self) -> "TraceContext":
        """A new span caused by this one (e.g. the packet a token sends)."""
        ctx = _new_context(TraceContext)
        ctx.trace_id = self.trace_id
        ctx.span_id = next(_span_ids)
        ctx.parent_span_id = self.span_id
        ctx.hop = ctx.attempt = 0
        return ctx

    def next_hop(self) -> "TraceContext":
        """The same span one switch hop further along the wire."""
        ctx = _new_context(TraceContext)
        ctx.trace_id = self.trace_id
        ctx.span_id = self.span_id
        ctx.parent_span_id = self.parent_span_id
        ctx.hop = self.hop + 1
        ctx.attempt = self.attempt
        return ctx

    def retry(self) -> "TraceContext":
        """The same span retransmitted: attempt bumped, hops restarted."""
        ctx = _new_context(TraceContext)
        ctx.trace_id = self.trace_id
        ctx.span_id = self.span_id
        ctx.parent_span_id = self.parent_span_id
        ctx.hop = 0
        ctx.attempt = self.attempt + 1
        return ctx

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (the ``ctx`` schema of exported records)."""
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }
        if self.hop:
            out["hop"] = self.hop
        if self.attempt:
            out["attempt"] = self.attempt
        return out

    def __repr__(self) -> str:
        extra = ""
        if self.hop:
            extra += f" hop={self.hop}"
        if self.attempt:
            extra += f" attempt={self.attempt}"
        return (
            f"ctx({self.trace_id}:{self.span_id}"
            f"<-{self.parent_span_id}{extra})"
        )


def _json_value(value: Any) -> Any:
    """A JSON-native rendering of one payload value.

    Scalars pass through untouched (so Perfetto sees real numbers, not
    strings), trace contexts expand to their dict schema, and anything
    else falls back to ``str`` -- the same discipline ``to_jsonl`` gets
    from ``default=str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, TraceContext):
        return value.to_dict()
    return str(value)


@dataclass(frozen=True)
class TraceEvent:
    """A single trace record."""

    time: float
    category: str
    label: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.payload.items())
        return f"[{self.time:10.3f}us] {self.category:<10} {self.label} {extra}".rstrip()


def _format_record(time: float, category: str, label: str, payload: dict) -> str:
    extra = " ".join(f"{k}={v}" for k, v in payload.items())
    return f"[{time:10.3f}us] {category:<10} {label} {extra}".rstrip()


#: Default flight-recorder depth (records, not bytes).
FLIGHT_RECORDER_SIZE = 256

#: ``Tracer.emit`` with tracing off and no flight ring: keeps nothing,
#: and, like the ring's own ``append``, calls no Python code.
_discard = deque(maxlen=0).append


class FlightRecorder:
    """Always-on ring of the last K trace records (the black box).

    Every record a :class:`Tracer` emits lands here, traced or not, so
    a simulation that dies -- a
    ``RetransmitLimitExceeded`` alarm, an unhandled exception in a
    campaign job -- can ship its final moments back as data even when
    full tracing was off.  The ring stores plain ``(time, category,
    label, payload)`` tuples; nothing is formatted until a dump is
    actually requested.
    """

    def __init__(self, capacity: int = FLIGHT_RECORDER_SIZE) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self._ring: deque = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        """Maximum number of retained records."""
        return self._ring.maxlen  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self._ring)

    def append(
        self,
        time: float,
        category: str,
        label: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Retain one record, dropping the oldest at capacity.

        (:meth:`Tracer.emit` writes to the ring directly -- it is the
        simulator's hot path -- but external feeders go through here.)
        """
        self._ring.append((time, category, label, payload or {}))

    def clear(self) -> None:
        """Drop the retained records."""
        self._ring.clear()

    def snapshot(self) -> List[dict]:
        """The retained records as JSON-able dicts (oldest first).

        This is the form that crosses process boundaries: a failed
        campaign job attaches it to its result record.
        """
        return [
            {
                "time": t,
                "category": category,
                "label": label,
                "payload": {k: _json_value(v) for k, v in payload.items()},
            }
            for t, category, label, payload in self._ring
        ]

    def to_jsonl(self) -> str:
        """One JSON object per retained record, newline-separated."""
        return "\n".join(
            json.dumps(row, default=str, sort_keys=True)
            for row in self.snapshot()
        )

    def dump_text(self) -> str:
        """Human-readable timeline of the retained records."""
        return "\n".join(
            _format_record(t, category, label, payload)
            for t, category, label, payload in self._ring
        )

    def dump(self, path_prefix: Union[str, Path]) -> Tuple[Path, Path]:
        """Write ``<prefix>.jsonl`` + ``<prefix>.txt`` (atomically)."""
        return dump_flight_records(
            self.snapshot(), path_prefix, text=self.dump_text()
        )


def dump_flight_records(
    records: Sequence[dict],
    path_prefix: Union[str, Path],
    text: Optional[str] = None,
) -> Tuple[Path, Path]:
    """Write a flight-record snapshot as JSONL + human timeline.

    Works on live :class:`FlightRecorder` snapshots and on the plain
    lists a failed campaign job ships back in its result record.
    Returns the ``(jsonl_path, text_path)`` pair.
    """
    prefix = Path(path_prefix)
    jsonl = "\n".join(
        json.dumps(row, default=str, sort_keys=True) for row in records
    )
    if text is None:
        text = "\n".join(
            _format_record(
                row.get("time", 0.0),
                row.get("category", "?"),
                row.get("label", "?"),
                row.get("payload", {}),
            )
            for row in records
        )
    jsonl_path = atomic_write_text(
        prefix.with_suffix(".jsonl"), jsonl + "\n" if jsonl else ""
    )
    text_path = atomic_write_text(
        prefix.with_suffix(".txt"), text + "\n" if text else ""
    )
    return jsonl_path, text_path


class SpanList(list):
    """The :meth:`Tracer.spans` result: a plain span list that also
    carries the unmatched-record counts for that pairing."""

    unmatched_starts: int = 0
    unmatched_ends: int = 0


class Tracer:
    """Collects trace events for one simulation.

    Parameters
    ----------
    sim:
        Simulator whose clock stamps the records.
    enabled:
        If False, :meth:`emit` only feeds the flight ring (cheap).
    categories:
        If given, only these categories are recorded.
    flight_size:
        Depth of the always-on :class:`FlightRecorder` ring; 0 disables
        it entirely (benchmark baselines).

    ``enabled`` may be switched at any time: its setter rebinds
    :meth:`emit`, and the trace sites look ``emit`` up at every record.
    """

    def __init__(
        self,
        sim: Simulator,
        enabled: bool = False,
        categories: Optional[Iterable[str]] = None,
        flight_size: int = FLIGHT_RECORDER_SIZE,
    ) -> None:
        self.sim = sim
        self.categories = set(categories) if categories is not None else None
        self.events: List[TraceEvent] = []
        #: Optional live sink, e.g. ``print``, for interactive debugging.
        self.sink: Optional[Callable[[TraceEvent], None]] = None
        #: The always-on black box (None when flight_size == 0).
        self.flight: Optional[FlightRecorder] = (
            FlightRecorder(flight_size) if flight_size else None
        )
        self.enabled = enabled
        #: Unmatched span-record counts per (category, start, end) pairing,
        #: populated by :meth:`spans` (and therefore by the exports).
        self.unmatched_spans: Dict[Tuple[str, str, str], int] = {}
        if sim.probing:
            sim.probe("trace.unmatched_spans", self._unmatched_total,
                      "gauge", "trace", "spans")

    def _unmatched_total(self) -> int:
        return sum(self.unmatched_spans.values())

    @property
    def enabled(self) -> bool:
        """Whether records reach :attr:`events` and the sink."""
        return self._enabled

    @enabled.setter
    def enabled(self, on: bool) -> None:
        self._enabled = on = bool(on)
        if on:
            # The class's emit() -- the traced path -- shows through.
            # Bound at each lookup, it leaves no tracer -> method -> tracer
            # cycle behind.
            self.__dict__.pop("emit", None)
        else:
            self.emit = (
                self.flight._ring.append if self.flight is not None else _discard
            )

    def emit(self, record: Tuple[float, str, str, Dict[str, Any]]) -> None:
        """Route one ``(time, category, label, payload)`` record.

        This method is the traced path: the record goes onto the flight
        ring, and, when its category passes ``categories``, into
        :attr:`events` and to the sink.  With tracing off, the instance
        attribute ``emit`` shadows it with the ring's ``append`` (or a
        discard without a ring).  The payload dict is kept as it is, so
        a caller that builds a fresh dict per record hands it over
        without a copy.
        """
        flight = self.flight
        if flight is not None:
            flight._ring.append(record)
        if self.categories is not None and record[1] not in self.categories:
            return
        ev = TraceEvent(*record)
        self.events.append(ev)
        if self.sink is not None:
            self.sink(ev)

    def record(self, category: str, label: str, **payload: Any) -> None:
        """Record one event stamped with the simulator's clock (see
        :meth:`emit`)."""
        self.emit((self.sim.now, category, label, payload))

    # -- queries --------------------------------------------------------
    def filter(self, category: Optional[str] = None, label: Optional[str] = None) -> List[TraceEvent]:
        """Events matching the given category and/or label."""
        out = self.events
        if category is not None:
            out = [e for e in out if e.category == category]
        if label is not None:
            out = [e for e in out if e.label == label]
        return list(out)

    def spans(self, category: str, start_label: str, end_label: str) -> SpanList:
        """Pair up start/end records into ``(start, end, duration)`` spans.

        Records are matched FIFO per ``payload['key']`` when present.
        When one side is unkeyed the match falls back to FIFO across
        keys: a keyed end with no same-key start takes the oldest
        *unkeyed* start, and an unkeyed end with no unkeyed start takes
        the globally oldest pending start.  Leftover unmatched records
        are counted on the returned :class:`SpanList`
        (``unmatched_starts`` / ``unmatched_ends``), remembered in
        :attr:`unmatched_spans` and surfaced through the
        ``trace.unmatched_spans`` metric -- broken instrumentation shows
        up instead of silently vanishing.
        """
        pending: Dict[Any, List[TraceEvent]] = {}
        order: List[TraceEvent] = []  # all pending starts, arrival order
        out = SpanList()
        unmatched_ends = 0
        for ev in self.events:
            if ev.category != category:
                continue
            key = ev.payload.get("key")
            if ev.label == start_label:
                pending.setdefault(key, []).append(ev)
                order.append(ev)
            elif ev.label == end_label:
                starts = pending.get(key)
                start: Optional[TraceEvent] = None
                if starts:
                    start = starts.pop(0)
                elif key is not None and pending.get(None):
                    # Keyed end, unkeyed start side: unkeyed FIFO.
                    start = pending[None].pop(0)
                elif key is None and order:
                    # Unkeyed end: globally oldest pending start.
                    start = order[0]
                    pending[start.payload.get("key")].remove(start)
                if start is None:
                    unmatched_ends += 1
                    continue
                order.remove(start)
                out.append((start, ev, ev.time - start.time))
        out.unmatched_starts = len(order)
        out.unmatched_ends = unmatched_ends
        self.unmatched_spans[(category, start_label, end_label)] = (
            out.unmatched_starts + out.unmatched_ends
        )
        return out

    def clear(self) -> None:
        """Drop all recorded events (the flight ring included)."""
        self.events.clear()
        self.unmatched_spans.clear()
        if self.flight is not None:
            self.flight.clear()

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable timeline (for debugging and examples)."""
        evs = self.events if limit is None else self.events[:limit]
        return "\n".join(str(e) for e in evs)

    # -- exports --------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per event, newline-separated.

        The stable schema (``time``/``category``/``label``/``payload``)
        makes a run greppable and diffable; trace contexts expand to
        their dict schema and other non-JSON payload values (tuples,
        enums) are stringified rather than rejected.
        """
        return "\n".join(
            json.dumps(
                {
                    "time": ev.time,
                    "category": ev.category,
                    "label": ev.label,
                    "payload": {
                        k: _json_value(v) for k, v in ev.payload.items()
                    },
                },
                default=str,
                sort_keys=True,
            )
            for ev in self.events
        )

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Write :meth:`to_jsonl` to ``path`` atomically (see
        :func:`repro.fileio.atomic_write_text`), so a crashed run never
        leaves a truncated trace behind."""
        path = Path(path)
        text = self.to_jsonl()
        return atomic_write_text(path, text + "\n" if text else "")

    def to_chrome_trace(
        self,
        span_pairs: Optional[Sequence[Tuple[str, str, str]]] = None,
        flow_steps: Optional[Sequence[TraceEvent]] = None,
        counter_series: Optional[Sequence[Any]] = None,
    ) -> Dict[str, Any]:
        """The trace in Chrome ``trace_event`` JSON format.

        Load the written file in ``chrome://tracing`` or Perfetto to see
        the paper's Figure 2 decomposition laid out on a timeline: one
        "process" row per trace category (``nic3``, ``host1``, ...),
        instant markers for every record, and duration ("X") slices for
        matched span pairs.

        Parameters
        ----------
        span_pairs:
            ``(start_label, end_label, span_name)`` triples rendered as
            duration events, matched per category with the same FIFO /
            ``payload['key']`` discipline as :meth:`spans`.  Defaults to
            the barrier lifecycle plus every ``<stem>.begin`` /
            ``<stem>.end`` label pair present in the trace.
        flow_steps:
            An ordered chain of recorded events (e.g. a critical path
            from :mod:`repro.analysis.critical_path`) rendered as paired
            flow ("s"/"f") events, so Perfetto draws causal arrows
            between the rows the chain crosses.
        counter_series:
            Telemetry :class:`~repro.telemetry.series.TimeSeries`
            objects rendered as counter ("C") track charts.  A series
            whose component name starts with a trace category (e.g.
            ``nic3.cpu`` under the ``nic3`` row) lands on that process;
            everything else (switch ports, the engine) goes on a
            dedicated ``telemetry`` process row.

        Notes
        -----
        Timestamps are simulated microseconds, which is exactly the
        ``ts`` unit the trace_event format specifies -- no scaling.
        Payload values are emitted JSON-native (numbers stay numbers);
        only non-JSON values are stringified.
        """
        if span_pairs is None:
            span_pairs = [("barrier.initiate", "barrier.complete", "barrier")]
            stems = sorted(
                {
                    ev.label[: -len(".begin")]
                    for ev in self.events
                    if ev.label.endswith(".begin")
                }
            )
            span_pairs += [(f"{s}.begin", f"{s}.end", s) for s in stems]

        categories = sorted({ev.category for ev in self.events})
        pids = {cat: i + 1 for i, cat in enumerate(categories)}
        trace_events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pids[cat],
                "tid": 0,
                "args": {"name": cat},
            }
            for cat in categories
        ]
        for ev in self.events:
            trace_events.append(
                {
                    "name": ev.label,
                    "cat": ev.category,
                    "ph": "i",
                    "s": "t",
                    "ts": ev.time,
                    "pid": pids[ev.category],
                    "tid": 0,
                    "args": {
                        k: _json_value(v) for k, v in ev.payload.items()
                    },
                }
            )
        for start_label, end_label, span_name in span_pairs:
            for cat in categories:
                for start, end, dur in self.spans(cat, start_label, end_label):
                    trace_events.append(
                        {
                            "name": span_name,
                            "cat": cat,
                            "ph": "X",
                            "ts": start.time,
                            "dur": dur,
                            "pid": pids[cat],
                            "tid": 1,
                            "args": {
                                k: _json_value(v)
                                for k, v in start.payload.items()
                            },
                        }
                    )
        if flow_steps:
            trace_events.extend(flow_events(flow_steps, pids))
        if counter_series:
            from repro.telemetry.export import counter_events

            counter_pids = dict(pids)
            telemetry_pid = len(categories) + 1
            homeless = False
            for series in counter_series:
                comp = series.component
                root = comp.split(".", 1)[0]
                if comp not in counter_pids:
                    if root in pids:
                        counter_pids[comp] = pids[root]
                    else:
                        counter_pids[comp] = telemetry_pid
                        homeless = True
            if homeless:
                trace_events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": telemetry_pid,
                        "tid": 0,
                        "args": {"name": "telemetry"},
                    }
                )
            trace_events.extend(
                counter_events(counter_series, counter_pids, default_pid=telemetry_pid)
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(
        self,
        path: Union[str, Path],
        span_pairs: Optional[Sequence[Tuple[str, str, str]]] = None,
        flow_steps: Optional[Sequence[TraceEvent]] = None,
        counter_series: Optional[Sequence[Any]] = None,
    ) -> Path:
        """Write :meth:`to_chrome_trace` as JSON to ``path`` atomically."""
        path = Path(path)
        doc = self.to_chrome_trace(
            span_pairs, flow_steps=flow_steps, counter_series=counter_series
        )
        return atomic_write_text(path, json.dumps(doc))


def flow_events(
    steps: Sequence[TraceEvent], pids: Dict[str, int]
) -> List[Dict[str, Any]]:
    """Paired flow ("s"/"f") events along an ordered event chain.

    Each consecutive pair of chain events becomes one flow arrow: a
    start ("s") at the earlier record and a binding-enclosing finish
    ("f", ``bp: "e"``) at the later one, sharing an ``id``.  ``pids``
    maps trace categories to the process ids used by the instant/span
    events (the mapping :meth:`Tracer.to_chrome_trace` builds).
    """
    out: List[Dict[str, Any]] = []
    for i in range(len(steps) - 1):
        a, b = steps[i], steps[i + 1]
        if a.category not in pids or b.category not in pids:
            continue
        common = {"cat": "critical_path", "name": "critical_path", "id": i + 1}
        out.append(
            {
                **common,
                "ph": "s",
                "ts": a.time,
                "pid": pids[a.category],
                "tid": 0,
            }
        )
        out.append(
            {
                **common,
                "ph": "f",
                "bp": "e",
                "ts": b.time,
                "pid": pids[b.category],
                "tid": 0,
            }
        )
    return out
