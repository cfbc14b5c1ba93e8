"""CampaignSpec semantics: dict round-trip, grid/point expansion, fault
seeding -- and the Figure-5/soak definitions that compile through it,
which must reproduce the historical serial harnesses exactly."""

import pytest

from repro.analysis.calibration import LANAI_7_2_SYSTEM
from repro.analysis.experiments import best_gb_dimension, measure_barrier
from repro.analysis.figure5 import (
    BENCH_REPS,
    BENCH_WARMUP,
    assemble_sweep,
    figure5_spec,
    run_figure5,
    run_measure_sweep,
    sweep_points,
)
from repro.campaign import CampaignSpec, JobSpec, run_campaign
from repro.cluster.builder import ClusterConfig
from repro.faults.soak import ALGORITHMS, soak_jobs


class TestSpecCompilation:
    def test_round_trips_through_dict(self):
        spec = CampaignSpec(
            name="rt",
            base_config={"num_nodes": 4},
            grid={"num_nodes": [2, 4], "nic_based": [False, True]},
            points=[{"algorithm": "gb", "dimension": 1}],
            repetitions=5,
            fault_seed=3,
        )
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec
        assert [j.cache_key() for j in again.compile()] == [
            j.cache_key() for j in spec.compile()
        ]

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown CampaignSpec"):
            CampaignSpec.from_dict({"name": "x", "gird": {}})

    def test_grid_expands_cartesian_product_plus_points(self):
        spec = CampaignSpec(
            base_config={"num_nodes": 2},
            grid={"num_nodes": [2, 4], "nic_based": [False, True]},
            points=[{"num_nodes": 8}],
        )
        jobs = spec.compile()
        assert len(jobs) == 5
        sizes = sorted(j.config["num_nodes"] for j in jobs)
        assert sizes == [2, 2, 4, 4, 8]

    def test_empty_spec_compiles_base_config_once(self):
        jobs = CampaignSpec(base_config={"num_nodes": 4}).compile()
        assert len(jobs) == 1
        assert jobs[0].config["num_nodes"] == 4
        assert jobs[0].params["nic_based"] is True

    def test_unknown_point_key_rejected(self):
        spec = CampaignSpec(points=[{"algoritm": "pe"}])
        with pytest.raises(ValueError, match="unknown point keys"):
            spec.compile()

    def test_config_field_point_key_accepted_for_measure(self):
        """A point key naming a ClusterConfig field sets the config,
        even one the measure harness does not consume."""
        (job,) = CampaignSpec(points=[{"telemetry_sample_us": 2.0}]).compile()
        assert job.config["telemetry_sample_us"] == 2.0

    def test_config_field_point_key_accepted_for_nbc(self):
        """``telemetry`` is a harness key of measure jobs only: on an
        nbc_overlap point it is the config field."""
        (job,) = CampaignSpec(
            kind="nbc_overlap", points=[{"telemetry": True}]
        ).compile()
        assert job.config["telemetry"] is True
        assert "telemetry" not in job.params

    def test_fault_seed_derives_per_size_plans(self):
        spec = CampaignSpec(
            base_config={"num_nodes": 4},
            grid={"num_nodes": [4, 8]},
            fault_seed=7,
        )
        j4, j8 = spec.compile()
        assert j4.config["fault_plan"]["seed"] == 7
        assert j8.config["fault_plan"]["seed"] == 7
        # plans are derived per num_nodes, so the rules differ
        assert j4.config["fault_plan"] != j8.config["fault_plan"]
        # an explicit plan wins over the derived one
        explicit = CampaignSpec(
            base_config={"num_nodes": 4, "fault_plan": {"seed": 99}},
            fault_seed=7,
        ).compile()[0]
        assert explicit.config["fault_plan"]["seed"] == 99

    def test_configs_are_fully_resolved(self):
        """Every compiled config bakes in the defaults, so two specs
        spelling the same config differently hash identically."""
        terse = CampaignSpec(base_config={"num_nodes": 4}).compile()[0]
        explicit = CampaignSpec(
            base_config={"num_nodes": 4, "seed": 0, "trace": False}
        ).compile()[0]
        assert terse.cache_key() == explicit.cache_key()
        assert "host_params" in terse.config  # defaults materialized

    def test_jobspec_round_trips_through_dict(self):
        job = CampaignSpec(base_config={"num_nodes": 2}).compile()[0]
        again = JobSpec.from_dict(job.to_dict())
        assert again == job
        assert again.cache_key() == job.cache_key()


class TestFigure5Definition:
    def test_sweep_points_cover_all_variants_and_dimensions(self):
        points = sweep_points((2, 4))
        # per size: host-pe + nic-pe; GB host+nic per dimension 1..n-1
        assert len(points) == (2 + 2 * 1) + (2 + 2 * 3)
        gb4 = [p for p in points
               if p["num_nodes"] == 4 and p["algorithm"] == "gb"]
        assert sorted(p["dimension"] for p in gb4) == [1, 1, 2, 2, 3, 3]

    def test_invalid_gb_dimensions_rejected(self):
        with pytest.raises(ValueError, match="no valid GB dimensions"):
            sweep_points((4,), gb_dimensions=[9])

    def test_report_and_benches_share_one_definition(self):
        """report.py and the tests/test_paper_claims.py fixtures both
        consume the figure5 module's constants and sweep."""
        from repro.analysis import report

        assert report.BENCH_REPS is BENCH_REPS
        assert report.VARIANTS == ("host-pe", "nic-pe", "host-gb", "nic-gb")
        spec = figure5_spec(LANAI_7_2_SYSTEM)
        assert spec.repetitions == BENCH_REPS
        assert spec.warmup == BENCH_WARMUP
        sizes = {j.config["num_nodes"] for j in spec.compile()}
        assert sizes == set(LANAI_7_2_SYSTEM.sizes)

    def test_campaign_sweep_matches_legacy_serial_harness(self):
        """Determinism proof at the API seam: the campaign-backed sweep
        reproduces direct measure_barrier / best_gb_dimension calls
        bit-for-bit, including the GB best-dimension tie-break."""
        cfg = LANAI_7_2_SYSTEM.cluster_config(4)
        sweep, _ = run_measure_sweep(cfg, sizes=(4,), repetitions=2, warmup=1)
        direct_pe = measure_barrier(
            cfg, nic_based=True, algorithm="pe", repetitions=2, warmup=1
        )
        assert sweep["nic-pe"][4].per_barrier_us == direct_pe.per_barrier_us
        direct_gb = best_gb_dimension(
            cfg, nic_based=True, repetitions=2, warmup=1
        )
        assert sweep["nic-gb"][4].dimension == direct_gb.dimension
        assert sweep["nic-gb"][4].per_barrier_us == direct_gb.per_barrier_us

    def test_parallel_figure5_bit_identical_and_cached(self, tmp_path):
        serial, _ = run_figure5(
            LANAI_7_2_SYSTEM, repetitions=1, warmup=0, sizes=(2,),
        )
        parallel, run1 = run_figure5(
            LANAI_7_2_SYSTEM, repetitions=1, warmup=0, sizes=(2,),
            jobs=2, cache_dir=tmp_path,
        )
        assert run1.simulated == len(run1.results) and run1.failed == 0
        for variant, by_n in serial.items():
            for n, m in by_n.items():
                assert parallel[variant][n].per_barrier_us == m.per_barrier_us
        _, run2 = run_figure5(
            LANAI_7_2_SYSTEM, repetitions=1, warmup=0, sizes=(2,),
            jobs=2, cache_dir=tmp_path,
        )
        assert run2.simulated == 0
        assert run2.cache_hits == len(run2.results)

    def test_assemble_filters_by_card(self, tmp_path):
        from repro.analysis.calibration import LANAI_4_3_SYSTEM

        jobs = (
            figure5_spec(LANAI_7_2_SYSTEM, repetitions=1, warmup=0,
                         sizes=(2,)).compile()
            + figure5_spec(LANAI_4_3_SYSTEM, repetitions=1, warmup=0,
                           sizes=(2,)).compile()
        )
        result = run_campaign(jobs, name="both-cards")
        sweep72 = assemble_sweep(result, lanai_name="LANai 7.2")
        sweep43 = assemble_sweep(result, lanai_name="LANai 4.3")
        assert sweep72["nic-pe"][2].lanai_name == "LANai 7.2"
        assert sweep43["nic-pe"][2].lanai_name == "LANai 4.3"
        assert (
            sweep72["nic-pe"][2].mean_latency_us
            != sweep43["nic-pe"][2].mean_latency_us
        )


class TestSoakDefinition:
    def test_soak_jobs_cover_every_combination(self):
        jobs = soak_jobs(11, num_nodes=4, repetitions=2)
        # host-gb/pe and nbc-ibarrier ride the regular stream once each;
        # the three NIC-based algorithms soak both reliability designs.
        assert len(jobs) == 9
        assert all(j.kind == "soak" for j in jobs)
        labels = {j.params["label"] for j in jobs}
        assert labels == {label for label, _ in ALGORITHMS}

    def test_combo_filter_and_distinct_seeds(self):
        jobs = soak_jobs(
            11, num_nodes=4, combos=[("nic-pe", "SEPARATE")]
        )
        assert len(jobs) == 1
        assert jobs[0].params["reliability"] == "SEPARATE"
        # per-combination seeds are split from the campaign seed
        all_jobs = soak_jobs(11, num_nodes=4)
        seeds = [j.params["seed"] for j in all_jobs]
        assert len(set(seeds)) == len(seeds)
        # the filtered job keeps the seed it has in the full sweep
        full_pe = next(
            j for j in all_jobs
            if j.params["label"] == "nic-pe"
            and j.params["reliability"] == "SEPARATE"
        )
        assert jobs[0].params["seed"] == full_pe.params["seed"]

    def test_soak_through_campaign_caches(self, tmp_path):
        from repro.faults.soak import run_chaos_soak

        a = run_chaos_soak(
            11, num_nodes=4, repetitions=1,
            combos=[("nic-pe", "SEPARATE"), ("host-pe", "SEPARATE")],
            cache_dir=tmp_path,
        )
        b = run_chaos_soak(
            11, num_nodes=4, repetitions=1,
            combos=[("nic-pe", "SEPARATE"), ("host-pe", "SEPARATE")],
            cache_dir=tmp_path,
        )
        assert a.signature() == b.signature()
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestTelemetryKnob:
    def test_spec_round_trips_and_compiles_telemetry(self):
        spec = CampaignSpec(
            name="tele",
            base_config={"num_nodes": 2},
            telemetry=True,
        )
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec
        jobs = again.compile()
        assert all(j.params["telemetry"] is True for j in jobs)

    def test_point_overrides_campaign_default(self):
        spec = CampaignSpec(
            base_config={"num_nodes": 2},
            points=[{"telemetry": True}, {}],
        )
        flags = [j.params["telemetry"] for j in spec.compile()]
        assert flags == [True, False]

    def test_telemetry_flag_changes_the_cache_key(self):
        base = CampaignSpec(base_config={"num_nodes": 2})
        tele = CampaignSpec(base_config={"num_nodes": 2}, telemetry=True)
        assert (
            base.compile()[0].cache_key() != tele.compile()[0].cache_key()
        )

    def test_config_knobs_round_trip(self):
        from repro.campaign import (
            cluster_config_from_dict,
            cluster_config_to_dict,
        )

        cfg = ClusterConfig(
            num_nodes=2, telemetry=True, telemetry_sample_us=3.5
        )
        back = cluster_config_from_dict(cluster_config_to_dict(cfg))
        assert back.telemetry is True
        assert back.telemetry_sample_us == 3.5


class TestCompiledJobsPinned:
    """Every compiled job dict and cache key is pinned, so a warm cache
    from earlier code keeps hitting after any change to compilation."""

    DIGEST = (
        "2f7b5851b732d8e8b87d46a9e25d8741d9f1c1cc3d6937e9e11c37f9f059d006"
    )

    def test_compiled_jobs_and_cache_keys_are_unchanged(self):
        import hashlib
        import json

        from repro.analysis.calibration import LANAI_4_3_SYSTEM
        from repro.analysis.nbc_overlap import overlap_sweep_spec

        jobs = (
            figure5_spec(LANAI_4_3_SYSTEM).compile()
            + figure5_spec(LANAI_7_2_SYSTEM).compile()
            + overlap_sweep_spec(ClusterConfig(num_nodes=8)).compile()
            + soak_jobs(7)
        )
        for kind in ("measure", "nbc_overlap"):
            jobs += CampaignSpec(
                name="faulty", kind=kind, base_config={"num_nodes": 4},
                fault_seed=5, critical_path=True, telemetry=True,
            ).compile()
        # Point values of the wrong type pin each key's cast.
        jobs += CampaignSpec(name="cast", points=[{
            "nic_based": 0, "algorithm": "gb", "dimension": 2,
            "repetitions": 2.0, "warmup": 1.0, "skew_max_us": 5,
            "max_events": None, "critical_path": 1, "telemetry": 0,
            "num_nodes": 4, "seed": 3,
        }]).compile()
        jobs += CampaignSpec(
            name="cast", kind="nbc_overlap", max_events=None, points=[{
                "iterations": 4.0, "compute_us": 30, "chunk_us": 2,
                "skew_max_us": 10, "num_nodes": 4,
            }],
        ).compile()
        assert len(jobs) == 107
        text = json.dumps([(j.to_dict(), j.cache_key()) for j in jobs])
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
