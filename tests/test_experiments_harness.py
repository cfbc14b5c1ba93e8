"""Tests for the measurement harness (the paper's methodology)."""

import pytest

from repro.analysis.calibration import (
    LANAI_4_3_SYSTEM,
    LANAI_7_2_SYSTEM,
    PAPER_ANCHORS,
)
from repro.analysis.experiments import best_gb_dimension, measure_barrier
from repro.analysis.figure5 import run_measure_sweep
from repro.cluster.builder import ClusterConfig


class TestMeasureBarrier:
    def test_basic_measurement(self):
        m = measure_barrier(
            ClusterConfig(num_nodes=4), nic_based=True, algorithm="pe",
            repetitions=4, warmup=1,
        )
        assert m.num_nodes == 4
        assert m.mean_latency_us > 0
        assert m.min_latency_us <= m.mean_latency_us <= m.max_latency_us
        assert len(m.per_barrier_us) == 4

    def test_measurement_is_deterministic(self):
        def go():
            return measure_barrier(
                ClusterConfig(num_nodes=4, seed=3), nic_based=True,
                algorithm="pe", repetitions=3, warmup=1,
            ).mean_latency_us

        assert go() == go()

    def test_skew_increases_latency_variance(self):
        calm = measure_barrier(
            ClusterConfig(num_nodes=4), nic_based=True, algorithm="pe",
            repetitions=5, warmup=1,
        )
        skewed = measure_barrier(
            ClusterConfig(num_nodes=4), nic_based=True, algorithm="pe",
            repetitions=5, warmup=1, skew_max_us=50.0,
        )
        spread = lambda m: m.max_latency_us - m.min_latency_us
        assert spread(skewed) > spread(calm)

    def test_warmup_excluded(self):
        m = measure_barrier(
            ClusterConfig(num_nodes=2), nic_based=True, algorithm="pe",
            repetitions=2, warmup=3,
        )
        assert len(m.per_barrier_us) == 2

    def test_label(self):
        m = measure_barrier(
            ClusterConfig(num_nodes=2), nic_based=False, algorithm="gb",
            dimension=1, repetitions=2, warmup=0,
        )
        assert m.label == "host-GB dim=1"


class TestGbDimensionSweep:
    def test_returns_minimum(self):
        cfg = ClusterConfig(num_nodes=8)
        best = best_gb_dimension(
            cfg, nic_based=True, repetitions=3, warmup=1
        )
        for dim in (1, 7):
            other = measure_barrier(
                cfg, nic_based=True, algorithm="gb", dimension=dim,
                repetitions=3, warmup=1,
            )
            assert best.mean_latency_us <= other.mean_latency_us + 1e-9

    def test_dimension_subset(self):
        best = best_gb_dimension(
            ClusterConfig(num_nodes=8), nic_based=True,
            repetitions=2, warmup=1, dimensions=[2, 3],
        )
        assert best.dimension in (2, 3)

    def test_too_small_group_rejected(self):
        with pytest.raises(ValueError):
            best_gb_dimension(ClusterConfig(num_nodes=1), nic_based=True)


class TestSweep:
    def test_full_sweep_structure(self):
        results, _ = run_measure_sweep(
            ClusterConfig(num_nodes=4), sizes=[2, 4],
            repetitions=2, warmup=1, gb_dimensions=[1, 2],
        )
        assert set(results) == {"host-pe", "nic-pe", "host-gb", "nic-gb"}
        for variant in results:
            assert set(results[variant]) == {2, 4}


class TestCalibrationBundles:
    def test_paper_anchor_lookup(self):
        a = LANAI_4_3_SYSTEM.anchor(16, "nic-pe")
        assert a is not None and a.value == pytest.approx(102.14)
        assert LANAI_4_3_SYSTEM.anchor(16, "nope") is None

    def test_cluster_config_roundtrip(self):
        cfg = LANAI_7_2_SYSTEM.cluster_config(8)
        assert cfg.num_nodes == 8
        assert cfg.lanai_model.clock_mhz == 66.0

    def test_anchors_well_formed(self):
        for (lanai, nodes, variant), anchor in PAPER_ANCHORS.items():
            assert anchor.value > 0
            assert anchor.kind in ("latency_us", "factor")
            assert nodes in (2, 4, 8, 16)
