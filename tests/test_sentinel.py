"""The bench regression sentinel (repro.analysis.sentinel): artifact
normalization, robust baselines, direction inference, and the CLI gate
over the repo's committed BENCH files."""

import copy
import json
from pathlib import Path

import pytest

from repro.analysis.sentinel import (
    check_entries,
    check_file,
    extract_entries,
    fit_baseline,
    main,
    metric_direction,
)

REPO = Path(__file__).resolve().parents[1]
BENCH_FILES = [
    REPO / "BENCH_engine.json",
    REPO / "BENCH_nbc.json",
    REPO / "BENCH_campaign.json",
]


def entry(label, **metrics):
    return {"label": label, "metrics": metrics}


class TestDirection:
    def test_known_suffixes(self):
        assert metric_direction("raw_dispatch_eps") == "higher"
        assert metric_direction("speedup") == "higher"
        assert metric_direction("overlap_pct") == "higher"
        assert metric_direction("totals.cache_hits") == "higher"
        assert metric_direction("barrier16_wall_s") == "lower"
        assert metric_direction("mean_latency_us") == "lower"
        assert metric_direction("elapsed_s") == "lower"
        assert metric_direction("totals.failed") == "lower"

    def test_unknown_names_flag_both_ways(self):
        assert metric_direction("temperature") == "both"

    def test_direction_reads_the_last_dotted_segment(self):
        assert metric_direction("c60s0.saved_us_per_iter") == "higher"
        assert metric_direction("pe16.mean_latency_us") == "lower"


class TestFitBaseline:
    def test_odd_history(self):
        median, mad = fit_baseline([1.0, 100.0, 3.0])
        assert median == 3.0
        assert mad == 2.0  # deviations 2, 0, 97 -> median 2

    def test_even_history(self):
        median, mad = fit_baseline([2.0, 4.0])
        assert median == 3.0
        assert mad == 1.0

    def test_single_value(self):
        assert fit_baseline([5.0]) == (5.0, 0.0)


class TestExtractEntries:
    def test_trajectory_style(self):
        style, entries = extract_entries({
            "trajectory": [
                {"stage": "a", "python": "3.11", "x_eps": 10.0},
                {"stage": "b", "x_eps": 12.0},
            ]
        })
        assert style == "trajectory"
        assert [e["label"] for e in entries] == ["a", "b"]
        assert entries[1]["metrics"] == {"x_eps": 12.0}

    def test_rows_style_keys_cells_and_drops_coordinates(self):
        style, entries = extract_entries({
            "benchmark": "nbc",
            "rows": [
                {"compute_us": 60, "skew_max_us": 0, "num_nodes": 16,
                 "overlap_pct": 80.0},
            ],
        })
        assert style == "rows"
        assert entries[0]["metrics"] == {"c60s0.overlap_pct": 80.0}

    def test_campaign_style(self):
        style, entries = extract_entries({
            "campaign": "paper",
            "totals": {"jobs": 4, "failed": 0, "cache_hits": 4,
                       "simulated": 0},
            "elapsed_s": 2.5,
            "jobs": [
                {"tag": "pe16", "result": {"mean_latency_us": 50.0}},
                {"tag": "broken", "result": None},
            ],
        })
        assert style == "campaign"
        metrics = entries[0]["metrics"]
        assert metrics["totals.jobs"] == 4
        assert metrics["elapsed_s"] == 2.5
        assert metrics["pe16.mean_latency_us"] == 50.0
        assert "broken.mean_latency_us" not in metrics
        # Cache state is not performance: warm reruns flip these freely.
        assert "totals.cache_hits" not in metrics
        assert "totals.simulated" not in metrics

    def test_flat_fallback_keeps_numerics_only(self):
        style, entries = extract_entries({"a": 1.0, "name": "x", "ok": True})
        assert style == "flat"
        assert entries[0]["metrics"] == {"a": 1.0}


class TestCheckEntries:
    def test_within_band_is_ok(self):
        checks = check_entries([
            entry("h1", wall_s=1.0), entry("h2", wall_s=1.02),
            entry("new", wall_s=1.1),
        ])
        assert [c.status for c in checks] == ["ok"]

    def test_lower_better_flags_increases_only(self):
        history = [entry(f"h{i}", wall_s=1.0) for i in range(3)]
        worse = check_entries(history + [entry("new", wall_s=1.3)])
        assert worse[0].status == "regression"
        assert worse[0].delta_pct == pytest.approx(30.0)
        better = check_entries(history + [entry("new", wall_s=0.7)])
        assert better[0].status == "improvement"

    def test_higher_better_flags_decreases_only(self):
        history = [entry(f"h{i}", x_eps=100.0) for i in range(3)]
        worse = check_entries(history + [entry("new", x_eps=70.0)])
        assert worse[0].status == "regression"
        better = check_entries(history + [entry("new", x_eps=130.0)])
        assert better[0].status == "improvement"

    def test_mad_widens_the_band_for_noisy_history(self):
        # Median 100, MAD 10 -> band = 5 * 10 = 50: a 130 reading is ok.
        noisy = [entry(f"h{i}", wall_s=v) for i, v in
                 enumerate((90.0, 100.0, 110.0))]
        checks = check_entries(noisy + [entry("new", wall_s=130.0)])
        assert checks[0].status == "ok"

    def test_no_history_never_fails(self):
        checks = check_entries([entry("only", wall_s=1.0, new_metric=3.0)])
        assert {c.status for c in checks} == {"no_history"}


class TestRealArtifacts:
    @pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
    def test_committed_bench_files_pass(self, path):
        report = check_file(str(path))
        assert not report.has_regressions, report.render_table()

    def test_cli_over_all_artifacts_exits_zero(self, capsys):
        rc = main(["--strict"] + [str(p) for p in BENCH_FILES])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no regressions" in out


#: A steady engine trajectory, recorded on one machine: the history the
#: synthetic slowdown is judged against.  A fixture, not the committed
#: ``BENCH_engine.json``, so appending a real stage -- faster, or from
#: another machine -- cannot widen the band until a 20% slowdown hides.
ENGINE_HISTORY = {
    "benchmark": "engine_speed",
    "trajectory": [
        {
            "stage": f"steady-{i}",
            "python": "3.11.7",
            "raw_dispatch_eps": eps,
            "producer_consumer_eps": 0.35 * eps,
            "timer_churn_eps": 0.2 * eps,
            "loaded_fabric_eps": 0.07 * eps,
            "barrier16_wall_s": wall,
            "barrier16_mean_latency_us": 100.828,
        }
        for i, (eps, wall) in enumerate(
            [(1_300_000.0, 0.050), (1_320_000.0, 0.049), (1_280_000.0, 0.051)]
        )
    ],
}


class TestSyntheticRegression:
    @staticmethod
    def degraded_engine_doc(wall_factor=1.2, eps_factor=0.8):
        doc = copy.deepcopy(ENGINE_HISTORY)
        stage = copy.deepcopy(doc["trajectory"][-1])
        stage["stage"] = "synthetic-regression"
        stage["barrier16_wall_s"] = round(
            stage["barrier16_wall_s"] * wall_factor, 6
        )
        stage["barrier16_mean_latency_us"] = round(
            stage["barrier16_mean_latency_us"] * wall_factor, 6
        )
        stage["raw_dispatch_eps"] = round(
            stage["raw_dispatch_eps"] * eps_factor, 3
        )
        doc["trajectory"].append(stage)
        return doc

    def test_twenty_percent_slowdown_is_flagged(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(self.degraded_engine_doc()))
        report = check_file(str(path))
        flagged = {c.metric for c in report.regressions}
        assert "barrier16_mean_latency_us" in flagged
        assert "barrier16_wall_s" in flagged

    def test_strict_gate_fails_and_default_reports(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(self.degraded_engine_doc()))
        assert main([str(path)]) == 0  # non-blocking report pass
        assert main(["--strict", str(path)]) == 1  # blocking gate
        assert "regression" in capsys.readouterr().out

    def test_json_summary_written(self, tmp_path):
        artifact = tmp_path / "BENCH_engine.json"
        artifact.write_text(json.dumps(self.degraded_engine_doc()))
        out = tmp_path / "sentinel.json"
        main([str(artifact), "--json", str(out)])
        doc = json.loads(out.read_text())
        assert doc[0]["path"] == str(artifact)
        assert "barrier16_wall_s" in doc[0]["regressions"]

    def test_baseline_supplies_history_for_single_entry_artifacts(
        self, tmp_path
    ):
        """A fresh campaign artifact alone has no history; judged against
        the committed one as --baseline, a big slowdown flags."""
        committed = json.loads((REPO / "BENCH_campaign.json").read_text())
        fresh = copy.deepcopy(committed)
        for job in fresh["jobs"]:
            result = job.get("result") or {}
            if isinstance(result.get("mean_latency_us"), (int, float)):
                result["mean_latency_us"] *= 1.5
        fresh_path = tmp_path / "BENCH_campaign.json"
        fresh_path.write_text(json.dumps(fresh))

        alone = check_file(str(fresh_path))
        assert not alone.has_regressions  # everything is no_history
        judged = check_file(
            str(fresh_path), baselines=[str(REPO / "BENCH_campaign.json")]
        )
        assert any(
            c.metric.endswith(".mean_latency_us") for c in judged.regressions
        )


def machine_stage(stage, machine, speed=1.0, wall_factor=1.0):
    """A steady engine stage on ``machine``; ``speed`` scales every
    wall-clock rate, ``wall_factor`` the barrier wall time on top."""
    base = ENGINE_HISTORY["trajectory"][1]
    return {
        **base,
        "stage": stage,
        "machine": machine,
        **{
            key: base[key] * speed
            for key in base
            if key.endswith("_eps")
        },
        "barrier16_wall_s": base["barrier16_wall_s"] / speed * wall_factor,
    }


class TestMachineKey:
    """A stage is judged only against stages from its own machine."""

    FAST, SLOW = "CPython-3.11.7-x86_64-8cpu", "CPython-3.11.7-x86_64-2cpu"

    def history(self):
        # Interleaved, as stages from two boxes land in one trajectory.
        # Pooled, the two machines' wall times span 0.048..0.100 s: a
        # band wide enough to hide a 20% slowdown on either of them.
        stages = []
        for i, jitter in enumerate((0.98, 1.0, 1.02)):
            stages.append(machine_stage(f"fast-{i}", self.FAST, 1.0 * jitter))
            stages.append(machine_stage(f"slow-{i}", self.SLOW, 0.5 * jitter))
        return stages

    def judge(self, tmp_path, newest):
        path = tmp_path / "BENCH_engine.json"
        doc = {"benchmark": "engine_speed",
               "trajectory": self.history() + [newest]}
        path.write_text(json.dumps(doc))
        return check_file(str(path))

    def test_extract_keeps_the_machine(self):
        _, entries = extract_entries({"trajectory": self.history()})
        assert [e["machine"] for e in entries[:2]] == [self.FAST, self.SLOW]
        assert "machine" not in entries[0]["metrics"]

    @pytest.mark.parametrize("machine,speed", [("FAST", 1.0), ("SLOW", 0.5)])
    def test_same_machine_slowdown_is_flagged(self, tmp_path, machine, speed):
        newest = machine_stage("new", getattr(self, machine), speed,
                               wall_factor=1.2)
        flagged = {c.metric for c in self.judge(tmp_path, newest).regressions}
        assert flagged == {"barrier16_wall_s"}

    def test_same_machine_steady_stage_is_ok(self, tmp_path):
        report = self.judge(tmp_path, machine_stage("new", self.SLOW, 0.5))
        assert not report.has_regressions
        assert {c.history for c in report.checks} == {3}

    def test_slower_machine_is_not_judged_against_faster_one(self, tmp_path):
        # Half the speed of every earlier stage, on a machine none of
        # them ran on: nothing to compare with, so nothing regresses.
        newest = machine_stage("new", "CPython-3.12.1-aarch64-2cpu", 0.25)
        report = self.judge(tmp_path, newest)
        assert not report.has_regressions
        assert {c.status for c in report.checks} == {"no_history"}

    def test_keyed_stage_is_not_judged_against_legacy_stages(self):
        legacy = [entry(f"h{i}", wall_s=1.0) for i in range(3)]
        keyed = dict(entry("new", wall_s=5.0), machine=self.SLOW)
        checks = check_entries(legacy + [keyed])
        assert [c.status for c in checks] == ["no_history"]
        # Unkeyed stages stay one group, judged as before.
        checks = check_entries(legacy + [entry("new", wall_s=5.0)])
        assert [c.status for c in checks] == ["regression"]
