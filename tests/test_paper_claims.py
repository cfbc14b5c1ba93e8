"""The paper's results, pinned: every number EXPERIMENTS.md prints and
every claim it records.

The two Figure-5 sweeps (LANai 4.3 and 7.2) run once per session,
inline and storeless, at the repetitions the report uses.  Their 28
latency cells, GB tree dimensions and 11 improvement factors must equal
EXPERIMENTS.md at its printed precision, read by :func:`printed_figure5`;
the other printed tables and in-text numbers are pinned the same way.
The paper's anchors keep the tolerances the simulator is calibrated to,
and the qualitative findings (who wins at each size, growth with N,
NIC speed and host overhead, Equations 1-3, the extensions and
ablations) are asserted as the paper states them.
"""

import json
import math
import re

import pytest

from repro.analysis.calibration import (
    LANAI_4_3_SYSTEM,
    LANAI_7_2_SYSTEM,
    PAPER_ANCHORS,
)
from repro.analysis.experiments import measure_barrier
from repro.analysis.figure5 import BENCH_REPS, BENCH_WARMUP, VARIANTS, run_figure5
from repro.analysis.model import BarrierModel, derive_model_params
from repro.analysis.nbc_overlap import run_nbc_sweep, write_nbc_bench
from repro.analysis.utilization import utilization_comparison
from repro.cluster.builder import build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier
from repro.core.collectives import allreduce, bcast, reduce
from repro.core.host_barrier import host_allreduce, host_bcast, host_reduce
from repro.gm.constants import BarrierReliability
from repro.gm.events import RecvEvent
from repro.gm.onesided import OneSidedPort
from repro.mpi import Communicator, MpiParams
from repro.nic.lanai import LANAI_4_3, LANAI_7_2, LANAI_9_2
from repro.nic.nic import NicParams
from repro.sim.primitives import Timeout
from tests.conftest import REPO_ROOT

EXPERIMENTS = (REPO_ROOT / "EXPERIMENTS.md").read_text()


# -- reading EXPERIMENTS.md ---------------------------------------------------


def section(text, heading):
    """The body of the one ``## <heading>...`` section of ``text``."""
    found = [s for s in re.split(r"^## ", text, flags=re.M) if s.startswith(heading)]
    if len(found) != 1:
        raise ValueError(f"{len(found)} sections headed {heading!r}")
    return found[0]


def table(text, heading):
    """Body rows of the section's Markdown table, bold markers removed."""
    rows = [
        [cell.strip().replace("**", "") for cell in line.strip("| \n").split("|")]
        for line in section(text, heading).splitlines()
        if line.startswith("|")
    ]
    return rows[2:]


def number(text, heading, pattern):
    """The groups of ``pattern`` in the section's prose, line breaks read
    as spaces (the pattern must match)."""
    match = re.search(pattern, " ".join(section(text, heading).split()))
    if match is None:
        raise ValueError(f"{pattern!r} not found under {heading!r}")
    return match.groups()


_LATENCY = re.compile(r"(\d+\.\d\d)$")
_GB_LATENCY = re.compile(r"(\d+\.\d\d) \(d(\d+)\)$")


def printed_figure5(text):
    """Every Figure-5 number EXPERIMENTS.md prints.

    Returns ``(latencies, factors)``: ``latencies[panel, variant, n]`` is
    the printed latency and GB dimension (None for PE), and
    ``factors[panel, alg, n]`` the printed factor, as strings.  Raises
    ValueError unless it read exactly 28 latency and 11 factor cells.
    """
    latencies, factors = {}, {}
    for panel in "ac":
        for row in table(text, f"Figure 5({panel})"):
            for variant, cell in zip(VARIANTS, row[1:5]):
                if variant.endswith("gb"):
                    match = _GB_LATENCY.match(cell)
                    value = match and (match[1], int(match[2]))
                else:
                    match = _LATENCY.match(cell)
                    value = match and (match[1], None)
                if value:
                    latencies[panel, variant, int(row[0])] = value
    for panel, algs in (("b", ("pe", "gb")), ("d", ("pe",))):
        for row in table(text, f"Figure 5({panel})"):
            for alg, cell in zip(algs, row[1::2]):
                if _LATENCY.match(cell):
                    factors[panel, alg, int(row[0])] = cell
    if (len(latencies), len(factors)) != (28, 11):
        raise ValueError(
            f"read {len(latencies)} latency and {len(factors)} factor "
            f"cells from the Figure-5 tables, expected 28 and 11"
        )
    return latencies, factors


def latency_cells(panel, sweep):
    """The measured counterpart of one latency panel."""
    return {
        (panel, variant, n): (f"{m.mean_latency_us:.2f}", m.dimension)
        for variant in VARIANTS
        for n, m in sweep[variant].items()
    }


def factor(sweep, alg, n):
    """Equation 3 on a sweep: host-based over NIC-based latency."""
    return (
        sweep[f"host-{alg}"][n].mean_latency_us
        / sweep[f"nic-{alg}"][n].mean_latency_us
    )


def factor_cells(panel, sweep, algs):
    """The measured counterpart of one factor panel."""
    return {
        (panel, alg, n): f"{factor(sweep, alg, n):.2f}"
        for alg in algs
        for n in sweep["nic-pe"]
    }


def printed_panel(cells, panel):
    return {key: value for key, value in cells.items() if key[0] == panel}


def deviation(measured, lanai, n, variant):
    """Percent deviation of ``measured`` from the paper's anchor."""
    return 100.0 * (measured / PAPER_ANCHORS[lanai, n, variant].value - 1.0)


def as_printed(printed, percent):
    """``percent`` in the form of the printed deviation ``printed``: its
    decimals, an explicit sign, the minus as U+2212."""
    places = len(printed.partition(".")[2])
    return f"{percent:+.{places}f}".replace("-", "\u2212")


def printed_deviations(heading, pattern, *percents):
    """The percentages ``pattern`` reads under ``heading``, next to the
    measured ``percents`` rounded the same way."""
    printed = number(EXPERIMENTS, heading, pattern)
    return printed, tuple(map(as_printed, printed, percents))


@pytest.fixture(scope="module")
def printed():
    return printed_figure5(EXPERIMENTS)


@pytest.fixture(scope="session")
def fig5_lanai43_run():
    """The Figure 5(a)/(b) sweep and its campaign run: LANai 4.3,
    N in {2, 4, 8, 16}, GB at every dimension."""
    return run_figure5(LANAI_4_3_SYSTEM, repetitions=BENCH_REPS, warmup=BENCH_WARMUP)


@pytest.fixture(scope="session")
def fig5_lanai43(fig5_lanai43_run):
    return fig5_lanai43_run[0]


@pytest.fixture(scope="session")
def fig5_lanai72():
    """The Figure 5(c)/(d) sweep: LANai 7.2, N in {2, 4, 8}."""
    return run_figure5(LANAI_7_2_SYSTEM, repetitions=BENCH_REPS, warmup=BENCH_WARMUP)[0]


class TestExperimentsParser:
    def test_reads_every_figure5_cell(self, printed):
        latencies, factors = printed
        assert sum(dim is not None for _, dim in latencies.values()) == 14
        assert {key[0] for key in factors} == {"b", "d"}

    def test_a_missing_row_raises(self):
        row = "| 16 | 175.43 | **100.83** |"
        assert EXPERIMENTS.count(row) == 1
        text = "\n".join(
            line for line in EXPERIMENTS.splitlines() if not line.startswith(row)
        )
        with pytest.raises(ValueError, match="read 24 latency"):
            printed_figure5(text)

    def test_a_missing_cell_raises(self):
        text = EXPERIMENTS.replace("|  28.79 |", "| – |", 1)
        with pytest.raises(ValueError, match="read 27 latency and 11 factor"):
            printed_figure5(text)


# -- Figure 5 -----------------------------------------------------------------


class TestFig5aLatencyLanai43:
    def test_printed_cells(self, fig5_lanai43, printed):
        sweep = fig5_lanai43
        assert latency_cells("a", sweep) == printed_panel(printed[0], "a")

        def cell(variant, n):
            return f"{sweep[variant][n].mean_latency_us:.1f}"

        heading = "Figure 5(a)"
        assert number(EXPERIMENTS, heading, r"Host-PE\(16\) = (\S+) ") == (
            cell("host-pe", 16),
        )
        assert number(EXPERIMENTS, heading, r"\((\S+) vs (\S+) at N=2") == (
            cell("nic-gb", 2), cell("host-gb", 2),
        )
        assert number(EXPERIMENTS, heading, r"host-GB\(16\) measures (\S+) ") == (
            cell("host-gb", 16),
        )

    def test_printed_deviations(self, fig5_lanai43):
        def dev(variant):
            return deviation(
                fig5_lanai43[variant][16].mean_latency_us, "LANai 4.3", 16, variant
            )

        heading = "Figure 5(a)"
        printed, measured = printed_deviations(
            heading,
            r"NIC-PE\(16\) (\S+) % vs paper; NIC-GB\(16\) (\S+) %\. "
            r"Host-PE\(16\) = \S+ vs \S+ derived \((\S+) %\).*? "
            r"derived from the paper \((\S+) %\).*? same effect \((\S+) %\)",
            dev("nic-pe"), dev("nic-gb"), dev("host-pe"), dev("host-gb"),
            dev("nic-gb"),
        )
        assert printed == measured
        assert number(
            EXPERIMENTS, heading, r"vs (\S+) derived \(.*? vs ~(\S+) derived"
        ) == tuple(
            f"{PAPER_ANCHORS['LANai 4.3', 16, variant].value:.1f}"
            for variant in ("host-pe", "host-gb")
        )

    def test_nic_pe_16(self, fig5_lanai43):
        # The headline anchor (simulator calibrated within ~10%).
        assert fig5_lanai43["nic-pe"][16].mean_latency_us == pytest.approx(
            102.14, rel=0.10
        )

    def test_report_and_shape(self, fig5_lanai43):
        sweep = fig5_lanai43
        assert sweep["nic-gb"][16].mean_latency_us == pytest.approx(152.27, rel=0.15)
        for n in (2, 4, 8, 16):
            host_pe, nic_pe, host_gb, nic_gb = (
                sweep[v][n].mean_latency_us for v in VARIANTS
            )
            # "the NIC-based PE barrier performed better than all other
            # barriers"
            assert nic_pe < min(host_pe, host_gb, nic_gb)
            # "The NIC-based GB barrier performed worse for the two node
            # barrier than the host-based GB barrier", better above it.
            assert (nic_gb > host_gb) if n == 2 else (nic_gb < host_gb)
            # "The host-based PE barrier performed better than the
            # host-based GB barrier."
            assert host_pe < host_gb
        # Latencies grow with system size within every series.
        for variant in VARIANTS:
            series = [sweep[variant][n].mean_latency_us for n in (2, 4, 8, 16)]
            assert series == sorted(series)


class TestFig5bImprovementLanai43:
    def test_printed_cells(self, fig5_lanai43, printed):
        assert factor_cells("b", fig5_lanai43, ("pe", "gb")) == printed_panel(
            printed[1], "b"
        )

    def test_printed_deviations(self, fig5_lanai43):
        sweep = fig5_lanai43
        printed, measured = printed_deviations(
            "Figure 5(b)",
            r"PE factors (\S+) % \(16\) and (\S+) % \(8\).*? "
            r"GB\(16\) factor runs (\S+) % high",
            deviation(factor(sweep, "pe", 16), "LANai 4.3", 16, "factor-pe"),
            deviation(factor(sweep, "pe", 8), "LANai 4.3", 8, "factor-pe"),
            deviation(factor(sweep, "gb", 16), "LANai 4.3", 16, "factor-gb"),
        )
        assert printed == measured

    def test_factor_pe_16(self, fig5_lanai43):
        assert factor(fig5_lanai43, "pe", 16) == pytest.approx(1.78, rel=0.07)

    def test_report_and_shape(self, fig5_lanai43):
        sweep = fig5_lanai43
        assert factor(sweep, "pe", 8) == pytest.approx(1.66, rel=0.07)
        assert factor(sweep, "gb", 16) == pytest.approx(1.46, rel=0.15)
        # The PE improvement grows monotonically with N (Equation 3).
        pe_factors = [factor(sweep, "pe", n) for n in (2, 4, 8, 16)]
        assert pe_factors == sorted(pe_factors)
        # PE gains more from NIC offload than GB at 16 nodes (1.78 vs 1.46).
        assert factor(sweep, "pe", 16) > factor(sweep, "gb", 16)
        # GB's factor dips below 1 only at two nodes.
        assert factor(sweep, "gb", 2) < 1.0 < factor(sweep, "gb", 4)


class TestFig5cLatencyLanai72:
    def test_printed_cells(self, fig5_lanai72, printed):
        assert latency_cells("c", fig5_lanai72) == printed_panel(printed[0], "c")

    def test_printed_deviations(self, fig5_lanai72):
        printed, measured = printed_deviations(
            "Figure 5(c)", r"NIC-PE\(8\) (\S+) %, host-PE\(8\) (\S+) %",
            *(
                deviation(
                    fig5_lanai72[variant][8].mean_latency_us, "LANai 7.2", 8, variant
                )
                for variant in ("nic-pe", "host-pe")
            ),
        )
        assert printed == measured

    def test_nic_pe_8(self, fig5_lanai72):
        assert fig5_lanai72["nic-pe"][8].mean_latency_us == pytest.approx(
            49.25, rel=0.07
        )

    def test_report_and_shape(self, fig5_lanai72, fig5_lanai43):
        sweep = fig5_lanai72
        assert sweep["host-pe"][8].mean_latency_us == pytest.approx(90.24, rel=0.07)
        for n in (2, 4, 8):
            # "the faster NIC processor improved the performance of all
            # implementations"
            for variant in VARIANTS:
                assert (
                    sweep[variant][n].mean_latency_us
                    < fig5_lanai43[variant][n].mean_latency_us
                )
            # NIC-PE is the best barrier at every size.
            assert sweep["nic-pe"][n].mean_latency_us <= min(
                sweep[v][n].mean_latency_us for v in ("host-pe", "host-gb", "nic-gb")
            )


class TestFig5dImprovementLanai72:
    def test_printed_cells(self, fig5_lanai72, fig5_lanai43, printed):
        assert factor_cells("d", fig5_lanai72, ("pe",)) == printed_panel(
            printed[1], "d"
        )
        assert number(
            EXPERIMENTS, "Figure 5(d)",
            r"LANai 7\.2 \((\S+)\) than on LANai 4\.3 \((\S+)\)",
        ) == (
            f"{factor(fig5_lanai72, 'pe', 8):.2f}",
            f"{factor(fig5_lanai43, 'pe', 8):.2f}",
        )

    def test_printed_deviations(self, fig5_lanai72):
        printed, measured = printed_deviations(
            "Figure 5(d)", r"(\S+) % on the anchor",
            deviation(factor(fig5_lanai72, "pe", 8), "LANai 7.2", 8, "factor-pe"),
        )
        assert printed == measured

    def test_factor_pe_8(self, fig5_lanai72):
        assert factor(fig5_lanai72, "pe", 8) == pytest.approx(1.83, rel=0.07)

    def test_report_and_shape(self, fig5_lanai72, fig5_lanai43):
        # The faster NIC gives the larger 8-node PE improvement (paper:
        # 1.83 vs 1.66).
        assert factor(fig5_lanai72, "pe", 8) > factor(fig5_lanai43, "pe", 8)
        pe_factors = [factor(fig5_lanai72, "pe", n) for n in (2, 4, 8)]
        assert pe_factors == sorted(pe_factors)


# -- Figure 2 / Equations 1-3 and the Section 1 estimate ----------------------


def _model(system):
    return BarrierModel(
        derive_model_params(
            system.lanai_model, system.host_params,
            system.nic_params, system.net_params,
        )
    )


class TestFig2ModelValidation:
    @pytest.mark.parametrize(
        "system, sweep_fixture",
        [(LANAI_4_3_SYSTEM, "fig5_lanai43"), (LANAI_7_2_SYSTEM, "fig5_lanai72")],
        ids=["lanai43", "lanai72"],
    )
    def test_model_vs_simulation(self, system, sweep_fixture, request):
        """Equations 1 and 2 land within 25% of the simulated PE barriers."""
        sweep = request.getfixturevalue(sweep_fixture)
        model = _model(system)
        for n in system.sizes:
            assert model.t_host(n) == pytest.approx(
                sweep["host-pe"][n].mean_latency_us, rel=0.25
            )
            assert model.t_nic(n) == pytest.approx(
                sweep["nic-pe"][n].mean_latency_us, rel=0.25
            )

    def test_model_parameter_terms(self):
        p43 = _model(LANAI_4_3_SYSTEM).params
        p72 = _model(LANAI_7_2_SYSTEM).params
        # The NIC-resident terms shrink with the faster card; host terms
        # do not.
        assert p72.recv < p43.recv
        assert p72.hrecv == p43.hrecv

    def test_printed_terms(self, fig5_lanai43):
        model = _model(LANAI_4_3_SYSTEM)
        p = model.params
        terms = dict(
            re.findall(r"\b(Send|SDMA|Network|Recv|RDMA|HRecv) (\d+\.\d)\b",
                       section(EXPERIMENTS, "Figure 2"))
        )
        measured = {
            "Send": p.send, "SDMA": p.sdma, "Network": p.network,
            "Recv": p.recv, "RDMA": p.rdma, "HRecv": p.hrecv,
        }
        assert terms == {k: f"{v:.1f}" for k, v in measured.items()}
        assert number(
            EXPERIMENTS, "Figure 2", r"step of (\S+) µs against the "
            r"simulator's measured (\S+) µs"
        ) == (
            f"{model.t_host(2):.1f}",
            f"{fig5_lanai43['host-pe'][2].mean_latency_us:.1f}",
        )


def measure_one_way_latency(system) -> float:
    """Mean one-way host-to-host latency over a few unloaded pings."""
    with build_cluster(system.cluster_config(2)) as cluster:
        a = cluster.open_port(0, 2)
        b = cluster.open_port(1, 2)
        samples = []

        def sender():
            for _ in range(8):
                yield from a.send_with_callback(1, 2, payload=cluster.now)
                # Space the pings out so they do not queue behind each
                # other.
                yield Timeout(200.0)

        def receiver():
            for _ in range(8):
                yield from b.provide_receive_buffer()
            for _ in range(8):
                ev = yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
                samples.append(cluster.now - ev.payload)

        cluster.spawn(sender())
        cluster.spawn(receiver())
        cluster.run(max_events=2_000_000)
    # Skip the first (cold queues), average the rest.
    return sum(samples[1:]) / len(samples[1:])


class TestIntroEstimates:
    def test_barrier_cost_vs_step_count_estimate(self, fig5_lanai43):
        """Section 1: a 16-node barrier takes log2 N (PE) to 2 log2 N (GB)
        one-way message times."""
        steps = math.log2(16)
        one_way = measure_one_way_latency(LANAI_4_3_SYSTEM)
        low, high = steps * one_way, 2 * steps * one_way
        host_pe = fig5_lanai43["host-pe"][16].mean_latency_us
        host_gb = fig5_lanai43["host-gb"][16].mean_latency_us
        heading = "Section 1 — the 120"
        assert number(EXPERIMENTS, heading, r"latency: (\S+) µs") == (f"{one_way:.1f}",)
        assert number(EXPERIMENTS, heading, r"= (\S+) \(PE\) to .*? = (\S+) \(GB\)") == (
            f"{low:.1f}", f"{high:.1f}",
        )
        assert number(EXPERIMENTS, heading, r"host-PE = (\S+) .*? host-GB\(best\) = (\S+) ") == (
            f"{host_pe:.1f}", f"{host_gb:.1f}",
        )
        printed = number(EXPERIMENTS, heading, r"on the low bound, (\S+) %")
        assert printed == (as_printed(printed[0], 100.0 * (host_pe / low - 1.0)),)
        # PE lands on the low estimate (each PE step is one message time).
        assert host_pe == pytest.approx(low, rel=0.15)
        # GB lands inside the band: tree parallelism and pipelining beat
        # the naive 2 log2 N sequential-step bound.
        assert low < host_gb <= high * 1.15


# -- Section 6: the GB tree-dimension sweep ----------------------------------


def gb_by_dimension(run, n, nic_based):
    """Mean GB latency per tree dimension of one size of a Figure-5 run."""
    return {
        job.spec.params["dimension"]: job.value["mean_latency_us"]
        for job in run.results
        if job.spec.params["algorithm"] == "gb"
        and job.spec.params["nic_based"] == nic_based
        and job.spec.config["num_nodes"] == n
    }


class TestGbDimensionSweep:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_sweep(self, n, fig5_lanai43_run):
        sweep, run = fig5_lanai43_run
        nic = gb_by_dimension(run, n, nic_based=True)
        host = gb_by_dimension(run, n, nic_based=False)
        assert sorted(nic) == sorted(host) == list(range(1, n))
        best_nic = min(nic, key=nic.get)
        best_host = min(host, key=host.get)
        # Figure 5 reports GB at the swept optimum.
        assert sweep["nic-gb"][n].dimension == best_nic
        assert sweep["host-gb"][n].dimension == best_host
        # The chain (dim 1) is never optimal...
        assert best_nic != 1 and best_host != 1
        # ...and neither is the flat star at 16 nodes (serialized
        # receives at the root dominate).
        if n == 16:
            assert best_nic != n - 1 and best_host != n - 1
        # The sweep genuinely matters: worst/best gap is substantial.
        assert max(nic.values()) / min(nic.values()) > 1.3

    def test_optimal_dimension_shrinks_latency_vs_default(self, fig5_lanai43_run):
        """Using the swept optimum matches the Figure 5(a) GB series."""
        nic = gb_by_dimension(fig5_lanai43_run[1], 16, nic_based=True)
        assert min(nic.values()) == pytest.approx(152.27, rel=0.15)


# -- Section 2.2 / 8: host overhead, the MPI layer ----------------------------


class TestMpiOverheadSweep:
    def test_improvement_grows_with_host_overhead(self):
        system = LANAI_4_3_SYSTEM
        factors = []
        for extra in (0.0, 4.0, 8.0, 16.0):
            host_params = system.host_params.with_(extra_overhead_us=extra)
            cfg = system.cluster_config(16).with_(host_params=host_params)
            host, nic = (
                measure_barrier(
                    cfg, nic_based=nic_based, algorithm="pe",
                    repetitions=4, warmup=1,
                ).mean_latency_us
                for nic_based in (False, True)
            )
            eq3 = BarrierModel(
                derive_model_params(
                    system.lanai_model, host_params,
                    system.nic_params, system.net_params,
                )
            ).improvement(16)
            # The analytic model agrees on direction and rough magnitude.
            assert host / nic == pytest.approx(eq3, rel=0.20)
            factors.append(host / nic)
        # The factor of improvement increases monotonically with the
        # added layer's overhead -- Section 8's expectation for MPI.
        assert factors == sorted(factors)
        assert factors[-1] > factors[0] * 1.25
        assert number(EXPERIMENTS, "Section 2.2", r"e\.g\. (\S+) → (\S+) at \+16") == (
            f"{factors[0]:.2f}", f"{factors[-1]:.2f}",
        )


def mpi_barrier_latency(n, nic, reps=5, warmup=2):
    """Mean latency of consecutive MPI_Barrier calls through repro.mpi."""
    params = MpiParams(nic_collectives=nic)
    enters, exits = {}, {}

    def program(ctx):
        comm = Communicator(ctx.port, ctx.group, ctx.rank, params=params)
        for rep in range(warmup + reps):
            enters.setdefault(rep, []).append(ctx.now)
            yield from comm.barrier()
            exits.setdefault(rep, []).append(ctx.now)

    with build_cluster(LANAI_4_3_SYSTEM.cluster_config(n)) as cluster:
        run_on_group(cluster, program, max_events=20_000_000)
    lats = [max(exits[r]) - max(enters[r]) for r in range(warmup, warmup + reps)]
    return sum(lats) / len(lats)


class TestMpiLayer:
    def test_mpi_barrier_comparison(self, fig5_lanai43):
        """The layer raises the factor of improvement at every size."""
        printed = {
            int(n): (gm, mpi)
            for n, gm, mpi in table(EXPERIMENTS, "Section 8 — the MPI layer")
        }
        measured = {}
        for n in (4, 8, 16):
            gm = factor(fig5_lanai43, "pe", n)
            mpi = mpi_barrier_latency(n, nic=False) / mpi_barrier_latency(n, nic=True)
            assert mpi > gm, n
            measured[n] = (f"{gm:.2f}", f"{mpi:.2f}")
        assert measured == printed

    def test_mpi_allreduce_vs_gm(self):
        """The layer benefit extends to data collectives."""

        def latency(nic):
            params = MpiParams(nic_collectives=nic)
            done = []

            def program(ctx):
                comm = Communicator(ctx.port, ctx.group, ctx.rank, params=params)
                for _ in range(3):
                    yield from comm.allreduce(ctx.rank, op="sum")
                done.append(ctx.now)

            with build_cluster(LANAI_4_3_SYSTEM.cluster_config(8)) as cluster:
                run_on_group(cluster, program, max_events=20_000_000)
            return max(done)

        assert latency(True) < latency(False)


# -- Section 3.4: concurrent barriers -----------------------------------------


def run_k_groups(n_nodes, k_groups, reps=4):
    """Mean per-group latency of k simultaneous PE barrier groups, one
    port per group on every node."""
    lat_samples = []
    with build_cluster(LANAI_4_3_SYSTEM.cluster_config(n_nodes)) as cluster:

        def prog(port, rank, group):
            for _ in range(reps):
                start = cluster.now
                yield from barrier(port, group, rank)
                lat_samples.append(cluster.now - start)

        for pid in (2, 4, 5, 6, 7)[:k_groups]:
            group = tuple((i, pid) for i in range(n_nodes))
            for i in range(n_nodes):
                cluster.spawn(prog(cluster.open_port(i, pid), i, group))
        cluster.run(max_events=30_000_000)
    return sum(lat_samples) / len(lat_samples)


class TestConcurrentBarriers:
    def test_contention_scaling(self):
        lats = {k: run_k_groups(8, k) for k in (1, 2, 4)}
        # Contention grows with group count but stays sub-linear: the
        # per-port state keeps groups independent, only the NIC CPU is
        # shared.
        assert lats[1] < lats[2] < lats[4]
        assert lats[4] < 4 * lats[1]

    def test_local_optimization(self):
        """Barrier over 2 nodes x 2 ports: with the Section 3.4 local-flag
        optimization the intra-NIC messages stay off the wire."""

        def one(local_opt):
            cfg = LANAI_4_3_SYSTEM.cluster_config(2)
            if local_opt:
                cfg = cfg.with_(
                    nic_params=NicParams(local_barrier_optimization=True)
                )
            group = ((0, 2), (0, 4), (1, 2), (1, 4))
            exits = []
            with build_cluster(cfg) as cluster:

                def prog(port, rank):
                    yield from barrier(port, group, rank)
                    exits.append(cluster.now)

                for rank, (node, pid) in enumerate(group):
                    cluster.spawn(prog(cluster.open_port(node, pid), rank))
                cluster.run(max_events=5_000_000)
                wire = sum(
                    cluster.network.tx_channel(i).packets_sent for i in range(2)
                )
            return max(exits), wire

        (plain_lat, plain_wire), (opt_lat, opt_wire) = one(False), one(True)
        assert opt_wire < plain_wire
        assert opt_lat <= plain_lat * 1.02


# -- Sections 3.3 / 4.4: barrier reliability ----------------------------------


def run_with_loss(mode, loss_rate, n=8, reps=6, seed=123):
    """Mean PE barrier latency and retransmission count under uniform loss."""
    cfg = LANAI_4_3_SYSTEM.cluster_config(n).with_(
        nic_params=NicParams(
            barrier_reliability=mode,
            retransmit_timeout_us=400.0,
            barrier_retransmit_timeout_us=250.0,
        ),
        seed=seed,
    )
    lats = []
    with build_cluster(cfg) as cluster:
        if loss_rate > 0:
            rng = cluster.rng.stream("loss")
            for i in range(n):
                cluster.network.rx_channel(i).loss_filter = (
                    lambda pkt: rng.random() < loss_rate
                )

        def prog(port, rank, group):
            for _ in range(reps):
                start = cluster.now
                yield from barrier(port, group, rank)
                lats.append(cluster.now - start)

        group = tuple((i, 2) for i in range(n))
        for i in range(n):
            cluster.spawn(prog(cluster.open_port(i, 2), i, group))
        cluster.run(max_events=50_000_000)
        retrans = sum(
            c.packets_retransmitted
            for node in cluster.nodes
            for c in node.nic.connections.values()
        )
    return sum(lats) / len(lats), retrans


RELIABLE = (BarrierReliability.TOKEN_PER_DESTINATION, BarrierReliability.SEPARATE)


class TestReliabilityAblation:
    def test_lossless_overhead(self):
        """ACK traffic costs something when nothing is lost, but < 35%."""
        unreliable, _ = run_with_loss(BarrierReliability.UNRELIABLE, 0.0)
        for mode in RELIABLE:
            lat, retrans = run_with_loss(mode, 0.0)
            assert retrans == 0
            assert unreliable * 0.99 <= lat < unreliable * 1.35

    @pytest.mark.parametrize("loss_pct", [1, 3])
    def test_recovery_under_loss(self, loss_pct):
        """Both reliable modes complete every barrier (reaching the end of
        the run) and pay a penalty bounded by the retransmit timeouts."""
        lossless_sep, _ = run_with_loss(BarrierReliability.SEPARATE, 0.0)
        for mode in RELIABLE:
            mean, _ = run_with_loss(mode, loss_pct / 100.0)
            assert mean < lossless_sep * 30


# -- Section 8: scaling, NIC speed, the GB crossover --------------------------


def pe_factor(cfg, repetitions, warmup=1):
    """Host-PE over NIC-PE latency on ``cfg``."""
    host, nic = (
        measure_barrier(
            cfg, nic_based=nic_based, algorithm="pe",
            repetitions=repetitions, warmup=warmup,
        ).mean_latency_us
        for nic_based in (False, True)
    )
    return host / nic


class TestScalingExtrapolation:
    def test_factor_vs_system_size(self):
        """PE improvement up to 64 nodes (16-port switch tree above 16)."""
        factors = [
            pe_factor(LANAI_4_3_SYSTEM.cluster_config(n), repetitions=3)
            for n in (8, 16, 32, 64)
        ]
        assert factors == sorted(factors), "improvement must grow with size"
        assert factors[-1] > 1.9

    def test_factor_vs_nic_speed(self):
        """PE improvement at 16 nodes across the 33/66/132 MHz cards."""
        factors = [
            pe_factor(
                LANAI_4_3_SYSTEM.cluster_config(16).with_(lanai_model=model),
                repetitions=4,
            )
            for model in (LANAI_4_3, LANAI_7_2, LANAI_9_2)
        ]
        assert factors == sorted(factors), (
            "improvement must grow with NIC processor speed"
        )

    def test_nic_cpu_ablation_gb_crossover(self):
        """With an (effectively) infinite-speed NIC processor the 2-node
        NIC-GB vs host-GB inversion disappears: the inversion is NIC
        processing overhead, the paper's explanation."""
        fast = LANAI_4_3.with_clock(10_000.0, name="LANai-infinite")
        results = {}
        for label, model in (("33 MHz", LANAI_4_3), ("fast", fast)):
            cfg = LANAI_4_3_SYSTEM.cluster_config(2).with_(lanai_model=model)
            results[label] = [
                measure_barrier(
                    cfg, nic_based=nic_based, algorithm="gb", dimension=1,
                    repetitions=4, warmup=1,
                ).mean_latency_us
                for nic_based in (False, True)
            ]
        h33, n33 = results["33 MHz"]
        hf, nf = results["fast"]
        assert n33 > h33, "at 33 MHz the NIC-GB barrier loses at 2 nodes"
        assert nf < hf, "with a fast NIC processor the inversion disappears"


# -- Section 8: NIC-based data collectives ------------------------------------


def collective_latency(fn, n, reps=5, warmup=2, dimension=None, sync=False, **kwargs):
    """Mean steady-state latency of consecutive collectives (us).

    ``sync`` interposes an uncounted barrier between repetitions, needed
    by reduce and bcast, which (unlike allreduce) do not self-synchronize.
    """
    enters, exits = {}, {}

    def program(ctx):
        for rep in range(warmup + reps):
            if sync:
                yield from barrier(ctx.port, ctx.group, ctx.rank)
            enters.setdefault(rep, []).append(ctx.now)
            yield from fn(
                ctx.port, ctx.group, ctx.rank,
                value=ctx.rank + 1, dimension=dimension, **kwargs,
            )
            exits.setdefault(rep, []).append(ctx.now)

    with build_cluster(LANAI_4_3_SYSTEM.cluster_config(n)) as cluster:
        run_on_group(cluster, program, max_events=20_000_000)
    lats = [max(exits[r]) - max(enters[r]) for r in range(warmup, warmup + reps)]
    return sum(lats) / len(lats)


def best_dim_latency(fn, n, sync=False, **kwargs):
    """Collective latency minimized over tree dimensions 1..min(n, 8)-1."""
    return min(
        collective_latency(fn, n, reps=3, warmup=1, dimension=d, sync=sync, **kwargs)
        for d in range(1, min(n, 8))
    )


@pytest.fixture(scope="module")
def allreduce_latencies():
    """{n: (host, NIC)} allreduce latency at the best tree dimension."""
    return {
        n: (
            best_dim_latency(host_allreduce, n, op="sum"),
            best_dim_latency(allreduce, n, op="sum"),
        )
        for n in (4, 8, 16)
    }


@pytest.fixture(scope="module")
def bcast_latencies():
    """{n: (host, NIC)} broadcast latency at the best tree dimension."""
    return {
        n: (
            best_dim_latency(host_bcast, n, sync=True),
            best_dim_latency(bcast, n, sync=True),
        )
        for n in (4, 8, 16)
    }


class TestCollectivesExtension:
    def test_printed_table(self, allreduce_latencies, bcast_latencies):
        def cells(host, nic):
            return [f"{host:.1f}", f"{nic:.1f}", f"{host / nic:.2f}"]

        measured = [
            [str(n), *cells(*allreduce_latencies[n]), *cells(*bcast_latencies[n])]
            for n in (4, 8, 16)
        ]
        assert measured == table(EXPERIMENTS, "Section 8 — NIC-based data collectives")

    def test_allreduce_comparison(self, allreduce_latencies):
        # NIC offload wins and the win grows with N, like the barrier (an
        # allreduce is a GB barrier with data).
        factors = {n: host / nic for n, (host, nic) in allreduce_latencies.items()}
        assert all(f > 1.0 for f in factors.values())
        assert factors[16] > factors[4]

    def test_bcast_comparison(self, bcast_latencies):
        # Like the 2-node GB barrier, the NIC broadcast loses at small
        # sizes (GB-family firmware setup on a 33 MHz processor) and wins
        # as the tree deepens.
        factors = {n: host / nic for n, (host, nic) in bcast_latencies.items()}
        assert factors[4] < factors[8] < factors[16]
        assert factors[16] > 1.0

    def test_reduce_comparison(self):
        for n in (8, 16):
            host = best_dim_latency(host_reduce, n, sync=True, op="sum")
            nic = best_dim_latency(reduce, n, sync=True, op="sum")
            assert host / nic > 1.0, n

    def test_allreduce_tracks_gb_barrier_plus_combine(self):
        """An allreduce is the GB barrier carrying values: its latency sits
        slightly above NIC-GB at the same dimension."""
        gb = measure_barrier(
            LANAI_4_3_SYSTEM.cluster_config(8), nic_based=True,
            algorithm="gb", dimension=2, repetitions=4, warmup=1,
        ).mean_latency_us
        ar = collective_latency(allreduce, 8, dimension=2, op="sum")
        assert gb < ar < gb * 1.5
        assert number(
            EXPERIMENTS, "Section 8 — NIC-based data", r"sits ~(\d+) % above"
        ) == (f"{100 * (ar / gb - 1):.0f}",)


# -- Section 8: the Get/Put layer ---------------------------------------------


def _two_nodes(system):
    cluster = build_cluster(system.cluster_config(2))
    return cluster, cluster.open_port(0, 2), cluster.open_port(1, 2)


def _mean_after_first(samples):
    return sum(samples[1:]) / len(samples[1:])


def put_latency(system, size_bytes, samples=6):
    """Mean time from put initiation until the data is in remote memory."""
    cluster, a, b = _two_nodes(system)
    with cluster:
        region = OneSidedPort(b).expose_region(1 << 20)
        osa = OneSidedPort(a)
        lats = []

        def writer():
            for i in range(samples):
                start = cluster.now
                yield from osa.put(region.handle, i * 4096, start, size_bytes)
                # Wait until the value is visible remotely.
                while region.data.get(i * 4096) != start:
                    yield Timeout(0.5)
                lats.append(cluster.now - start)
                yield Timeout(100.0)

        cluster.spawn(writer())
        cluster.run(max_events=3_000_000)
    return _mean_after_first(lats)


def host_send_latency(system, size_bytes, samples=6):
    """Mean host-to-host one-way latency (send -> remote host consumed)."""
    cluster, a, b = _two_nodes(system)
    with cluster:
        lats = []

        def sender():
            for _ in range(samples):
                yield from a.send_with_callback(
                    1, 2, payload=cluster.now, size_bytes=size_bytes
                )
                yield Timeout(200.0)

        def receiver():
            yield from b.ensure_receive_buffers(2 * samples, size_bytes=65536)
            for _ in range(samples):
                ev = yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
                lats.append(cluster.now - ev.payload)

        cluster.spawn(sender())
        cluster.spawn(receiver())
        cluster.run(max_events=3_000_000)
    return _mean_after_first(lats)


def get_roundtrip_latency(system, size_bytes, samples=6):
    """Mean GET round trip (an RDMA read served by the remote NIC)."""
    cluster, a, b = _two_nodes(system)
    with cluster:
        region = OneSidedPort(b).expose_region(1 << 20)
        osa = OneSidedPort(a)
        lats = []

        def reader():
            for i in range(samples):
                start = cluster.now
                yield from osa.get_blocking(region.handle, i * 64, size_bytes)
                lats.append(cluster.now - start)
                yield Timeout(100.0)

        cluster.spawn(reader())
        cluster.run(max_events=3_000_000)
    return _mean_after_first(lats)


def host_echo_latency(system, size_bytes, samples=6):
    """Mean host-level ping/echo round trip (two host turnarounds)."""
    cluster, a, b = _two_nodes(system)
    with cluster:
        lats = []

        def pinger():
            yield from a.ensure_receive_buffers(2 * samples, size_bytes=65536)
            for _ in range(samples):
                start = cluster.now
                yield from a.send_with_callback(1, 2, payload="ping")
                yield from a.receive_where(lambda e: isinstance(e, RecvEvent))
                lats.append(cluster.now - start)
                yield Timeout(100.0)

        def echoer():
            yield from b.ensure_receive_buffers(2 * samples, size_bytes=65536)
            for _ in range(samples):
                yield from b.receive_where(lambda e: isinstance(e, RecvEvent))
                yield from b.send_with_callback(
                    0, 2, payload="pong", size_bytes=size_bytes
                )

        cluster.spawn(pinger())
        cluster.spawn(echoer())
        cluster.run(max_events=3_000_000)
    return _mean_after_first(lats)


def _printed_speedups(op):
    """The row of the Get/Put table for ``op``, as factor strings."""
    for row in table(EXPERIMENTS, "Section 8 — the Get/Put layer"):
        if row[0] == op:
            return [re.match(r"(\d+\.\d\d)×", cell)[1] for cell in row[1:] if "×" in cell]
    raise ValueError(f"no {op!r} row in the Get/Put table")


class TestOneSidedExtension:
    @pytest.mark.parametrize(
        "system", [LANAI_4_3_SYSTEM, LANAI_7_2_SYSTEM], ids=["lanai43", "lanai72"]
    )
    def test_put_vs_host_send(self, system):
        factors = [
            host_send_latency(system, size) / put_latency(system, size)
            for size in (8, 512, 4096)
        ]
        # The put skips the remote host turnaround at every size.
        assert all(f > 1.0 for f in factors)
        if system is LANAI_4_3_SYSTEM:
            assert [f"{f:.2f}" for f in factors] == _printed_speedups("PUT vs host send")

    def test_get_vs_host_echo(self):
        factors = [
            host_echo_latency(LANAI_4_3_SYSTEM, size)
            / get_roundtrip_latency(LANAI_4_3_SYSTEM, size)
            for size in (8, 1024)
        ]
        # A GET skips both remote-host crossings of the echo.
        assert all(f > 1.0 for f in factors)
        assert [f"{f:.2f}" for f in factors] == _printed_speedups("GET vs host echo")


# -- Section 1: host utilization and the fuzzy barrier ------------------------


def _utilization(work_us):
    return utilization_comparison(
        num_nodes=8, iterations=8, work_per_iteration_us=work_us,
        config=LANAI_4_3_SYSTEM.cluster_config(8),
    )


class TestHostUtilization:
    @pytest.mark.parametrize("work_us", [40.0, 80.0, 160.0])
    def test_utilization_ordering(self, work_us):
        results = _utilization(work_us)
        # NIC-based beats host-based on utilization, and the fuzzy
        # barrier beats both by overlapping.
        host, nic, fuzzy = (results[m].compute_fraction for m in ("host", "nic", "fuzzy"))
        assert host < nic < fuzzy
        # The fuzzy barrier also finishes soonest.
        assert results["fuzzy"].total_time_us <= results["nic"].total_time_us
        if work_us == 80.0:
            measured = [
                [f"{r.time_per_iteration_us:.1f}", f"{r.compute_fraction:.2f}"]
                for r in results.values()
            ]
            heading = "Section 1 — host-processor utilization"
            assert measured == [row[1:] for row in table(EXPERIMENTS, heading)]
            nic_iter = results["nic"].time_per_iteration_us
            hidden = nic_iter - results["fuzzy"].time_per_iteration_us
            assert number(EXPERIMENTS, heading, r"hides ~(\d+) %") == (
                f"{100 * hidden / (nic_iter - work_us):.0f}",
            )

    def test_overlap_recovers_most_of_the_barrier(self):
        """With enough work the fuzzy barrier hides most of the blocking
        NIC barrier's cost behind computation."""
        results = _utilization(120.0)
        nic_iter = results["nic"].time_per_iteration_us
        hidden = nic_iter - results["fuzzy"].time_per_iteration_us
        assert hidden > 0.5 * (nic_iter - 120.0)


# -- Algorithm ablation: PE vs dissemination ---------------------------------


def nic_latency(n, algorithm, reps=4):
    return measure_barrier(
        LANAI_4_3_SYSTEM.cluster_config(n), nic_based=True,
        algorithm=algorithm, repetitions=reps, warmup=1,
    ).mean_latency_us


class TestDisseminationAblation:
    def test_sweep(self):
        lat = {
            n: (nic_latency(n, "pe"), nic_latency(n, "dissemination"))
            for n in (2, 3, 4, 5, 6, 8, 9, 12, 13, 16)
        }
        # Powers of two: PE is at least as good (fused exchanges, same
        # round count).
        for n in (2, 4, 8, 16):
            pe, dis = lat[n]
            assert pe <= dis * 1.05
        # Just above a power of two dissemination wins (no proxy round
        # on the critical path).
        for n in (5, 6):
            pe, dis = lat[n]
            assert dis < pe
        assert number(EXPERIMENTS, "Algorithm ablation", r"N=6: (\S+) vs (\S+) µs") == (
            f"{lat[6][1]:.1f}", f"{lat[6][0]:.1f}",
        )

    def test_dissemination_latency_tracks_round_count(self):
        """Latency steps up when ceil(log2 N) does, and is flat between."""
        lats = {n: nic_latency(n, "dissemination", reps=3) for n in (5, 6, 7, 8, 9)}
        # 5..8 all need 3 rounds: near-identical latency.
        three = [lats[n] for n in (5, 6, 7, 8)]
        assert max(three) < min(three) * 1.1
        # 9 needs a 4th round: a visible step.
        assert lats[9] > lats[8] * 1.15


# -- Related work [2]: NIC-assisted multidestination messages -----------------


def fanout_latency(n, strategy, size_bytes=256):
    """Time until the LAST of n-1 destinations holds the payload."""
    done = {}
    with build_cluster(LANAI_4_3_SYSTEM.cluster_config(n)) as cluster:
        ports = [cluster.open_port(i, 2) for i in range(n)]
        if strategy == "tree":
            group = tuple((i, 2) for i in range(n))

            def member(i):
                yield from bcast(ports[i], group, i, value="m" if i == 0 else None,
                                 payload_bytes=size_bytes, dimension=2)
                done[i] = cluster.now

            for i in range(n):
                cluster.spawn(member(i))
        else:
            dests = [(i, 2) for i in range(1, n)]

            def sender():
                if strategy == "multicast":
                    yield from ports[0].multicast_send_with_callback(
                        dests, size_bytes=size_bytes, payload="m"
                    )
                else:
                    for node, port in dests:
                        yield from ports[0].send_with_callback(
                            node, port, size_bytes=size_bytes, payload="m"
                        )

            def receiver(i):
                yield from ports[i].provide_receive_buffer()
                yield from ports[i].receive_where(lambda e: isinstance(e, RecvEvent))
                done[i] = cluster.now

            cluster.spawn(sender())
            for i in range(1, n):
                cluster.spawn(receiver(i))
        cluster.run(max_events=10_000_000)
    return max(t for rank, t in done.items() if rank != 0)


class TestMulticastRelatedWork:
    def test_broadcast_strategies(self):
        data = {
            n: [fanout_latency(n, s) for s in ("looped", "multicast", "tree")]
            for n in (4, 8, 16)
        }
        for looped, multicast, _ in data.values():
            # The NIC-assisted flat multicast always beats host looping.
            assert multicast < looped
        # At larger fan-outs the tree overtakes the flat multicast (the
        # root's serial packet preparation becomes the bottleneck).
        assert data[16][2] < data[16][1]
        measured = [[str(n)] + [f"{v:.1f}" for v in row] for n, row in data.items()]
        assert measured == table(EXPERIMENTS, "Related work [2]")


# -- Section 1 via non-blocking collectives: Ibarrier overlap ----------------


NBC_NODES = 8
NBC_ITERATIONS = 8


class TestNbcOverlap:
    def test_overlap_sweep(self, tmp_path):
        measurements, result = run_nbc_sweep(
            LANAI_4_3_SYSTEM.cluster_config(NBC_NODES),
            compute_grid=(20.0, 60.0, 120.0),
            skew_grid=(0.0, 50.0),
            iterations=NBC_ITERATIONS,
        )
        path = write_nbc_bench(tmp_path / "BENCH_nbc.json", measurements, result)
        assert len(json.loads(path.read_text())["rows"]) == 6
        # The committed artifact is exactly this sweep's output.
        assert path.read_text() == (REPO_ROOT / "BENCH_nbc.json").read_text()
        for m in measurements:
            # Overlap strictly beats the blocking baseline (0% by
            # construction) and never hides more than the whole
            # communication.
            assert 0.0 < m.overlap_pct <= 100.0 + 1e-9, m
            # Warm cache: one compile for the whole cell, the rest hits.
            assert m.cache["compiles"] == 1, m.cache
            assert m.cache["hits"] == NBC_ITERATIONS - 1, m.cache
        # More compute to hide behind => at least as much overlap along
        # the zero-skew axis (slack for chunk quantization).
        zero_skew = sorted(
            (m for m in measurements if m.skew_max_us == 0.0),
            key=lambda m: m.compute_us,
        )
        for small, big in zip(zero_skew, zero_skew[1:]):
            assert big.overlap_pct >= small.overlap_pct * 0.9, (small, big)

    def test_overlap_survives_skew(self):
        """Entry skew shrinks but does not erase the overlap win."""
        measurements, _ = run_nbc_sweep(
            LANAI_4_3_SYSTEM.cluster_config(NBC_NODES),
            compute_grid=(60.0,),
            skew_grid=(0.0, 50.0, 100.0),
            iterations=6,
        )
        for m in measurements:
            assert m.overlap_pct > 0.0, m


# -- Entry-skew sensitivity ---------------------------------------------------


class TestSkewSensitivity:
    def test_latency_vs_entry_skew(self):
        """Latency from the LAST entry under uniform entry skew: early
        messages are absorbed, not serialized behind the late arrival."""
        cfg = LANAI_4_3_SYSTEM.cluster_config(8)

        def latency(nic_based, skew):
            return measure_barrier(
                cfg, nic_based=nic_based, algorithm="pe",
                repetitions=6, warmup=2, skew_max_us=skew,
            ).mean_latency_us

        nic0, host0 = latency(True, 0.0), latency(False, 0.0)
        for skew in (0.0, 25.0, 50.0, 100.0, 200.0):
            nic, host = latency(True, skew), latency(False, skew)
            assert nic < nic0 * 1.6
            assert host < host0 * 1.6
            # The NIC advantage survives skew.
            assert nic < host

    def test_record_absorbs_skew(self):
        """Under heavy skew the slowest rank's NIC holds recorded bits
        from the unexpected-message record when it finally initiates."""

        def program(ctx):
            if ctx.rank == 0:
                yield Timeout(500.0)
            yield from barrier(ctx.port, ctx.group, ctx.rank)

        with build_cluster(LANAI_4_3_SYSTEM.cluster_config(8)) as cluster:
            run_on_group(cluster, program, max_events=5_000_000)
            assert cluster.node(0).nic.barrier_engine.unexpected_recorded >= 1
