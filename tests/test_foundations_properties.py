"""Property-based tests of the foundations against reference models:
the event heap against a sorted-list scheduler, and source routing
against networkx shortest paths."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import compute_route
from repro.network.topology import multi_switch_topology
from repro.sim.engine import PRIORITY_HIGH, WHEEL_GRANULE, Simulator


class TestEngineAgainstReference:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),  # delay
                st.integers(min_value=-1, max_value=1),     # priority
            ),
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_execution_order_matches_reference(self, entries):
        """The heap must fire callbacks in exactly (time, priority,
        insertion) order -- compare against an explicitly sorted list."""
        sim = Simulator()
        fired = []
        for i, (delay, priority) in enumerate(entries):
            sim.schedule(delay, fired.append, i, priority=priority)
        sim.run()
        expected = [
            i
            for i, _ in sorted(
                enumerate(entries),
                key=lambda item: (item[1][0], item[1][1], item[0]),
            )
        ]
        assert fired == expected

    @given(
        st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=40),
        st.sets(st.integers(min_value=0, max_value=39)),
        st.lists(
            st.tuples(
                # Past the clock's own wheel granule, so every timer parks.
                st.floats(min_value=WHEEL_GRANULE, max_value=3 * WHEEL_GRANULE),
                st.sampled_from(["keep", "parked", "flushed"]),
            ),
            max_size=20,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_cancellation_subset(self, delays, to_cancel, timers):
        """Cancelled events and timers never fire; all others fire
        exactly once.  A timer is cancelled while parked in the wheel
        (reclaimed there) or at its own instant, after its wheel bucket
        flushed onto the heap (a lazy cancelled pop).  A repeated
        cancel, and a cancel after execution, change nothing."""
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(d, fired.append, i) for i, d in enumerate(delays)
        ]
        cancelled = [h for i, h in enumerate(handles) if i in to_cancel]
        timer_handles = []
        for j, (delay, fate) in enumerate(timers):
            h = sim.schedule_timer(delay, fired.append, ("timer", j))
            timer_handles.append(h)
            if fate == "parked":
                cancelled.append(h)
            elif fate == "flushed":
                sim.schedule_at(delay, sim.cancel, h, priority=PRIORITY_HIGH)
        fates = [fate for _, fate in timers]
        parked, flushed = fates.count("parked"), fates.count("flushed")
        for h in cancelled:
            sim.cancel(h)
        expected = {i for i in range(len(delays)) if i not in to_cancel}
        expected |= {("timer", j) for j, fate in enumerate(fates) if fate == "keep"}
        # Flushed-fate timers stay live until their cancel event runs.
        pending = len(expected) + 2 * flushed
        assert (sim.pending_events, sim.timers_reclaimed) == (pending, parked)
        for h in cancelled:
            sim.cancel(h)
        assert (sim.pending_events, sim.timers_reclaimed) == (pending, parked)

        sim.run()
        assert set(fired) == expected
        assert len(fired) == len(expected)
        counters = (sim.events_executed, sim.cancelled_pops, sim.timers_reclaimed)
        dead = len([i for i in to_cancel if i < len(delays)])
        assert counters == (len(expected) + flushed, dead + flushed, parked)
        for h in handles + timer_handles:
            sim.cancel(h)
        assert sim.pending_events == 0
        assert (sim.events_executed, sim.cancelled_pops, sim.timers_reclaimed) == counters

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0),
                st.booleans(),  # a timer, parked past the clock's granule
            ),
            min_size=1,
            max_size=40,
        ),
        st.sets(st.integers(min_value=0, max_value=39)),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=39),
                st.integers(min_value=0, max_value=39),
            ),
            max_size=20,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_pending_events_inside_callbacks(self, entries, to_cancel, strikes):
        """``pending_events`` read inside a callback, with cancelled
        entries still on the heap, equals the reference model's count of
        entries neither run nor cancelled.  Some entries are cancelled
        before the run; a strike ``(i, j)`` makes entry ``i`` cancel
        entry ``j`` when it runs (a no-op if ``j`` already ran)."""
        sim = Simulator()
        live = set(range(len(entries)))
        readings = []
        struck = {}
        for i, j in strikes:
            if i < len(entries) and j < len(entries):
                struck.setdefault(i, []).append(j)

        def fire(i):
            live.discard(i)
            for j in struck.get(i, ()):
                sim.cancel(handles[j])
                live.discard(j)
            readings.append((sim.pending_events, len(live)))

        handles = [
            sim.schedule_timer(WHEEL_GRANULE + delay, fire, i) if timer
            else sim.schedule(delay, fire, i)
            for i, (delay, timer) in enumerate(entries)
        ]
        for i in to_cancel:
            if i < len(entries):
                sim.cancel(handles[i])
                live.discard(i)
        assert sim.pending_events == len(live)
        sim.run()
        assert [got for got, _ in readings] == [want for _, want in readings]
        assert sim.pending_events == 0 and not live

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_clock_is_monotone(self, delays):
        sim = Simulator()
        stamps = []

        def chain(remaining):
            stamps.append(sim.now)
            if remaining:
                sim.schedule(remaining[0], chain, remaining[1:])

        sim.schedule(delays[0], chain, delays[1:])
        sim.run()
        assert stamps == sorted(stamps)


class TestRoutingAgainstNetworkx:
    @given(st.integers(min_value=2, max_value=120), st.sampled_from([4, 8, 16]))
    @settings(max_examples=40, deadline=None)
    def test_routes_are_shortest_paths(self, n, radix):
        """Our BFS source routes must have the networkx-shortest hop count
        for every sampled NIC pair."""
        topo = multi_switch_topology(n, switch_radix=radix)
        graph = nx.Graph()
        for spec in topo.switches:
            graph.add_node(("sw", spec.switch_id))
        for t in topo.trunks:
            graph.add_edge(("sw", t.switch_a), ("sw", t.switch_b))
        for nic, (sw, _port) in topo.nic_attachments.items():
            graph.add_edge(("nic", nic), ("sw", sw))

        pairs = [(0, n - 1), (0, n // 2), (n // 2, n - 1)]
        for a, b in pairs:
            if a == b:
                continue
            route = compute_route(topo, a, b)
            nx_len = nx.shortest_path_length(
                graph, ("nic", a), ("nic", b)
            )
            # Route bytes = number of switches traversed; the nx path has
            # nic-sw edges at both ends, so switches = nx_len - 1.
            assert len(route) == nx_len - 1

    @given(st.integers(min_value=2, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_routes_terminate_at_destination(self, n):
        """Walking the route through the topology lands on the right NIC."""
        topo = multi_switch_topology(n, switch_radix=8)
        # Build lookup: (switch, port) -> what hangs there.
        port_map = {}
        for t in topo.trunks:
            port_map[(t.switch_a, t.port_a)] = ("sw", t.switch_b)
            port_map[(t.switch_b, t.port_b)] = ("sw", t.switch_a)
        for nic, (sw, port) in topo.nic_attachments.items():
            port_map[(sw, port)] = ("nic", nic)

        src, dst = 0, n - 1
        route = compute_route(topo, src, dst)
        where = ("sw", topo.nic_attachments[src][0])
        for hop in route:
            assert where[0] == "sw", "route byte consumed off-switch"
            where = port_map[(where[1], hop)]
        assert where == ("nic", dst)
