"""Congestion hotspot attribution: join telemetry against barrier rounds.

The critical-path analyzer (PR 4) answers *which causal chain* bounded
one barrier; this module answers the complementary capacity question:
*which component was most contended while each round ran*.  It joins
the sampled time series from :mod:`repro.telemetry` against the round
spans recoverable from an ordinary traced barrier run:

- round ``k`` opens when the **first** NIC emits its ``k``-th
  ``barrier.send`` for that barrier sequence number, and closes when
  the first NIC emits its ``k+1``-th (the last round closes at the
  final ``barrier.complete``);
- the round's **straggler** is the NIC whose ``k``-th send came last —
  the rank the dissemination/PE exchange waited on;
- within each span, every telemetry component is scored by its worst
  contention signal (utilization near 1, queue depth, pause state) and
  the top scorer is the round's hotspot.

The contention score per component is ``max(util, queue/(queue+1),
paused)`` over the window means: a saturated link scores ~1 from
utilization, a deep queue asymptotically approaches 1, a paused port
scores 1 outright — so qualitatively different congestion signals rank
on one scale.  Queue depth breaks ties (a link at 100% with a backlog
beats a link at 100% that is merely streaming).

Entry points: :func:`barrier_round_spans`, :func:`attribute_hotspots`,
and :func:`run_telemetry_barrier` (build + run + analyze, the engine
behind ``report.py --telemetry N``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.telemetry import CONTENTION_SIGNALS, Telemetry, TimeSeries

__all__ = [
    "RoundSpan",
    "RoundHotspot",
    "HotspotReport",
    "barrier_round_spans",
    "attribute_hotspots",
    "run_telemetry_barrier",
]


@dataclass(frozen=True)
class RoundSpan:
    """One barrier round's time window."""

    round_index: int
    t0: float
    t1: float
    #: Trace category (``nic3``) whose send opened the round.
    leader: str
    #: Trace category whose send came last — who the round waited on.
    straggler: str

    @property
    def duration_us(self) -> float:
        """Span length in simulated microseconds."""
        return self.t1 - self.t0


@dataclass
class RoundHotspot:
    """The most-contended component during one round."""

    span: RoundSpan
    component: str
    score: float
    #: signal name -> window mean behind the score (util/queue/paused).
    evidence: Dict[str, float] = field(default_factory=dict)


@dataclass
class HotspotReport:
    """Per-round hotspots plus a duration-weighted overall ranking."""

    rounds: List[RoundHotspot]
    #: component -> sum(score * round duration), descending.
    ranking: List[Tuple[str, float]]
    barrier_seq: Optional[int] = None

    @property
    def top_component(self) -> Optional[str]:
        """Highest duration-weighted scorer (None without rounds)."""
        return self.ranking[0][0] if self.ranking else None

    def render_table(self) -> str:
        """Human-readable per-round table plus the overall ranking."""
        rows = []
        for rh in self.rounds:
            ev = " ".join(
                f"{k}={v:.2f}" for k, v in sorted(rh.evidence.items()) if v > 0
            ) or "-"
            rows.append(
                [
                    str(rh.span.round_index),
                    f"{rh.span.t0:.3f}",
                    f"{rh.span.duration_us:.3f}",
                    rh.span.straggler,
                    rh.component,
                    f"{rh.score:.3f}",
                    ev,
                ]
            )
        table = format_table(
            ["round", "t0_us", "dt_us", "straggler", "hotspot", "score", "evidence"],
            rows,
        )
        if self.ranking:
            top = ", ".join(f"{c} ({w:.1f})" for c, w in self.ranking[:3])
            table += f"\noverall hotspots (score x us): {top}\n"
        return table

    def summary(self) -> Dict[str, object]:
        """JSON-able form for bench artifacts."""
        return {
            "barrier_seq": self.barrier_seq,
            "top_component": self.top_component,
            "ranking": [
                {"component": c, "weight_us": w} for c, w in self.ranking
            ],
            "rounds": [
                {
                    "round": rh.span.round_index,
                    "t0_us": rh.span.t0,
                    "t1_us": rh.span.t1,
                    "leader": rh.span.leader,
                    "straggler": rh.span.straggler,
                    "hotspot": rh.component,
                    "score": rh.score,
                    "evidence": dict(rh.evidence),
                }
                for rh in self.rounds
            ],
        }


def barrier_round_spans(events, seq: Optional[int] = None) -> List[RoundSpan]:
    """Recover round windows from a traced run's ``barrier.send`` records.

    ``events`` is a tracer's record list (time-ordered).  ``seq``
    selects the barrier instance; default is the last sequence number
    seen (the measured iteration in a warmup+measure run).  Returns an
    empty list when the trace has no sends for that sequence.
    """
    sends: Dict[str, List[float]] = {}
    complete_at: float = 0.0
    last_seq: Optional[int] = None
    for ev in events:
        if ev.label == "barrier.send":
            last_seq = ev.payload.get("seq", last_seq)
    want = seq if seq is not None else last_seq
    if want is None:
        return []
    for ev in events:
        if ev.payload.get("seq") != want:
            continue
        if ev.label == "barrier.send":
            sends.setdefault(ev.category, []).append(ev.time)
        elif ev.label in ("barrier.complete", "barrier.exit"):
            complete_at = max(complete_at, ev.time)
    if not sends:
        return []
    num_rounds = max(len(times) for times in sends.values())
    spans: List[RoundSpan] = []
    prev_t1 = 0.0
    for k in range(num_rounds):
        kth = [(times[k], cat) for cat, times in sends.items() if len(times) > k]
        t0, leader = min(kth)
        _, straggler = max(kth)
        if k + 1 < num_rounds:
            nxt = [times[k + 1] for times in sends.values() if len(times) > k + 1]
            t1 = min(nxt)
        else:
            t1 = max(complete_at, t0)
        t0 = max(t0, prev_t1)  # clamp monotone against ragged send counts
        t1 = max(t1, t0)
        spans.append(
            RoundSpan(round_index=k, t0=t0, t1=t1, leader=leader, straggler=straggler)
        )
        prev_t1 = t1
    return spans


def _component_signals(
    series_list: Sequence[TimeSeries], t0: float, t1: float
) -> Dict[str, float]:
    """Window means of one component's contention signals."""
    signals: Dict[str, float] = {}
    for s in series_list:
        key = CONTENTION_SIGNALS.get(s.name.rsplit(".", 1)[-1])
        if key is None:
            continue
        stats = s.stats(t0, t1)
        if stats is None:
            # No sample landed inside a short round: carry the last
            # value observed before the window closed, if any.
            last = s.last_at_or_before(t1)
            if last is None:
                continue
            mean = last
        else:
            mean = stats["mean"]
        signals[key] = max(signals.get(key, 0.0), mean)
    return signals


def _score(signals: Dict[str, float]) -> float:
    util = min(signals.get("util", 0.0), 1.0)
    queue = max(signals.get("queue", 0.0), 0.0)
    paused = min(signals.get("paused", 0.0), 1.0)
    return max(util, queue / (queue + 1.0), paused)


def attribute_hotspots(
    telemetry: Telemetry,
    spans: Sequence[RoundSpan],
    *,
    barrier_seq: Optional[int] = None,
) -> HotspotReport:
    """Score every telemetry component inside each round span."""
    components = telemetry.components()
    rounds: List[RoundHotspot] = []
    totals: Dict[str, float] = {}
    for span in spans:
        best: Optional[RoundHotspot] = None
        best_key: Tuple[float, float, str] = (-1.0, -1.0, "")
        for comp, series_list in components.items():
            signals = _component_signals(series_list, span.t0, span.t1)
            if not signals:
                continue
            score = _score(signals)
            # Tie-break on raw queue depth, then (inverted) name so the
            # winner is deterministic across runs and dict orders.
            key = (score, signals.get("queue", 0.0), comp)
            if best is None or key > best_key:
                best = RoundHotspot(span=span, component=comp, score=score, evidence=signals)
                best_key = key
        if best is not None:
            rounds.append(best)
            totals[best.component] = (
                totals.get(best.component, 0.0) + best.score * span.duration_us
            )
    ranking = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return HotspotReport(rounds=rounds, ranking=ranking, barrier_seq=barrier_seq)


def run_telemetry_barrier(
    num_nodes: int,
    *,
    algorithm: str = "dissemination",
    sample_us: float = 2.0,
    repetitions: int = 1,
    config=None,
    max_events: int = 20_000_000,
):
    """Build a traced + sampled cluster, run barriers, attribute hotspots.

    Returns ``(cluster, report)``.  The cluster is closed; its
    ``cluster.telemetry`` series and tracer events stay readable, so
    callers can still export them or the Chrome trace.
    """
    from repro.cluster.builder import ClusterConfig, build_cluster
    from repro.cluster.runner import run_on_group
    from repro.core.barrier import barrier

    if config is None:
        config = ClusterConfig(num_nodes=num_nodes)
    config = config.with_(
        num_nodes=num_nodes,
        trace=True,
        telemetry=True,
        telemetry_sample_us=sample_us,
    )

    def program(ctx):
        for _ in range(repetitions):
            yield from barrier(ctx.port, ctx.group, ctx.rank, algorithm=algorithm)

    with build_cluster(config) as cluster:
        run_on_group(cluster, program, max_events=max_events)
    spans = barrier_round_spans(cluster.tracer.events)
    report = attribute_hotspots(cluster.telemetry, spans)
    return cluster, report
