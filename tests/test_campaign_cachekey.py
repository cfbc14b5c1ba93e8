"""Cache-key stability: the content hash must depend on *what* a job
computes and on nothing else -- not dict insertion order, not the
process computing it, not float formatting accidents -- and it must
change whenever the computation would (different configs, different
fault plans, bumped code version)."""

import os
import subprocess
import sys

import pytest

from repro.campaign import (
    CODE_VERSION,
    JobSpec,
    ResultStore,
    canonical_json,
    cluster_config_from_dict,
    cluster_config_to_dict,
    content_key,
)
from repro.cluster.builder import ClusterConfig
from repro.faults.plan import FaultPlan
from repro.gm.constants import BarrierReliability
from repro.host.cpu import HostParams
from repro.network.topology import multi_switch_topology
from repro.nic.lanai import LANAI_7_2
from repro.nic.nic import NicParams


def job_for(config: ClusterConfig, **params) -> JobSpec:
    base = {
        "nic_based": True, "algorithm": "pe", "dimension": None,
        "repetitions": 4, "warmup": 1, "skew_max_us": 0.0,
        "max_events": 1_000_000,
    }
    base.update(params)
    return JobSpec(
        kind="measure", config=cluster_config_to_dict(config), params=base
    )


class TestCanonicalForm:
    def test_key_ignores_dict_insertion_order(self):
        a = {"num_nodes": 4, "seed": 3, "trace": False}
        b = {"trace": False, "seed": 3, "num_nodes": 4}
        assert list(a) != list(b)  # genuinely different insertion order
        assert content_key(a) == content_key(b)
        assert canonical_json(a) == canonical_json(b)

    def test_key_ignores_nested_order_through_resolution(self):
        a = cluster_config_to_dict(
            cluster_config_from_dict(
                {"num_nodes": 4, "nic_params": {"ack_delay_us": 3.0,
                                               "tx_buffers": 8}}
            )
        )
        b = cluster_config_to_dict(
            cluster_config_from_dict(
                {"nic_params": {"tx_buffers": 8, "ack_delay_us": 3.0},
                 "num_nodes": 4}
            )
        )
        assert content_key(a) == content_key(b)

    def test_tag_is_not_part_of_the_key(self):
        cfg = ClusterConfig(num_nodes=2)
        a = job_for(cfg)
        b = job_for(cfg)
        b.tag = "a completely different label"
        assert a.cache_key() == b.cache_key()

    def test_key_is_stable_across_process_boundaries(self):
        """Same spec, fresh interpreter, adversarial PYTHONHASHSEED:
        identical key."""
        here = job_for(ClusterConfig(num_nodes=3, seed=7)).cache_key()
        code = (
            "from repro.campaign import JobSpec, cluster_config_to_dict\n"
            "from repro.cluster.builder import ClusterConfig\n"
            "job = JobSpec(kind='measure',"
            " config=cluster_config_to_dict(ClusterConfig(num_nodes=3, seed=7)),"
            " params={'nic_based': True, 'algorithm': 'pe', 'dimension': None,"
            " 'repetitions': 4, 'warmup': 1, 'skew_max_us': 0.0,"
            " 'max_events': 1000000})\n"
            "print(job.cache_key())\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"  # would perturb any set/hash leak
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        )
        assert out.stdout.strip() == here

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "value", [0.1, 0.1 + 0.2, 1.0 / 3.0, 1e-17, 12.000000000000002]
    )
    def test_floats_round_trip_exactly(self, value):
        cfg = ClusterConfig(
            num_nodes=2,
            host_params=HostParams(send_cost_us=value),
        )
        round_tripped = cluster_config_from_dict(cluster_config_to_dict(cfg))
        assert round_tripped.host_params.send_cost_us == value
        assert cluster_config_to_dict(round_tripped) == cluster_config_to_dict(cfg)
        assert (
            content_key(cluster_config_to_dict(round_tripped))
            == content_key(cluster_config_to_dict(cfg))
        )

    def test_full_config_round_trip(self):
        cfg = ClusterConfig(
            num_nodes=20,
            lanai_model=LANAI_7_2,
            nic_params=NicParams(
                barrier_reliability=BarrierReliability.SEPARATE,
                retransmit_timeout_us=321.5,
            ),
            topology=multi_switch_topology(20, switch_radix=16),
            seed=9,
            fault_plan=FaultPlan.random(5, 20),
        )
        back = cluster_config_from_dict(cluster_config_to_dict(cfg))
        assert back.lanai_model == cfg.lanai_model
        assert back.nic_params == cfg.nic_params
        assert back.topology == cfg.topology
        assert back.fault_plan.to_dict() == cfg.fault_plan.to_dict()
        assert cluster_config_to_dict(back) == cluster_config_to_dict(cfg)

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ClusterConfig"):
            cluster_config_from_dict({"num_nodes": 2, "warp_drive": True})


class TestKeyDiscrimination:
    def test_distinct_fault_plan_seeds_distinct_keys(self):
        a = job_for(ClusterConfig(num_nodes=4, fault_plan=FaultPlan.random(1, 4)))
        b = job_for(ClusterConfig(num_nodes=4, fault_plan=FaultPlan.random(2, 4)))
        assert a.cache_key() != b.cache_key()

    def test_distinct_nic_params_distinct_keys(self):
        a = job_for(ClusterConfig(num_nodes=4))
        b = job_for(
            ClusterConfig(num_nodes=4, nic_params=NicParams(ack_delay_us=11.0))
        )
        assert a.cache_key() != b.cache_key()

    def test_distinct_measure_params_distinct_keys(self):
        cfg = ClusterConfig(num_nodes=4)
        assert (
            job_for(cfg, algorithm="pe").cache_key()
            != job_for(cfg, algorithm="gb", dimension=1).cache_key()
        )
        assert (
            job_for(cfg, repetitions=4).cache_key()
            != job_for(cfg, repetitions=5).cache_key()
        )

    def test_code_version_salt_invalidates(self):
        job = job_for(ClusterConfig(num_nodes=2))
        assert job.cache_key() != job.cache_key(code_version=CODE_VERSION + ".1")

    def test_salt_bump_misses_the_store(self, tmp_path):
        """A store opened under a bumped code version never returns
        records written under the old one."""
        job = job_for(ClusterConfig(num_nodes=2))
        old = ResultStore(tmp_path)
        old.put(job, old.key_for(job), {"mean_latency_us": 1.0})
        assert old.get(old.key_for(job)) is not None
        bumped = ResultStore(tmp_path, code_version=CODE_VERSION + "-next")
        assert bumped.get(bumped.key_for(job)) is None
