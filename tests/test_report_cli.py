"""Tests for the report-regeneration CLI."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.report import (
    HEADERS,
    figure5_rows,
    generate_figure5,
    main,
    render_report,
)
from repro.analysis.calibration import LANAI_7_2_SYSTEM
from repro.analysis.figure5 import VARIANTS
from repro.campaign.serialize import CODE_VERSION


@pytest.fixture(scope="module")
def sweep72():
    return generate_figure5(LANAI_7_2_SYSTEM, repetitions=2, warmup=1)


class TestReportPieces:
    def test_rows_structure(self, sweep72):
        rows = figure5_rows(LANAI_7_2_SYSTEM, sweep72)
        assert len(rows) == len(LANAI_7_2_SYSTEM.sizes)
        for row in rows:
            assert len(row) == len(HEADERS)
            assert row[0] == "LANai 7.2"

    def test_anchor_column_filled_at_published_sizes(self, sweep72):
        rows = figure5_rows(LANAI_7_2_SYSTEM, sweep72)
        by_n = {row[1]: row for row in rows}
        assert by_n[8][-1] == pytest.approx(49.25)
        assert by_n[2][-1] == ""

    def test_render_report(self, sweep72):
        rows = figure5_rows(LANAI_7_2_SYSTEM, sweep72)
        text = render_report(rows)
        assert "Figure 5" in text
        assert "LANai 7.2" in text
        assert "102.14" in text  # anchors footer


class TestCliEndToEnd:
    def test_main_writes_outputs(self, tmp_path, capsys):
        rc = main(["--quick", "--system", "7.2", "--out", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Figure 5" in captured.out
        with open(tmp_path / "figure5.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == HEADERS
        assert len(rows) == 1 + len(LANAI_7_2_SYSTEM.sizes)
        assert (tmp_path / "report.md").read_text().startswith("# Regenerated")

    def test_json_tables(self, tmp_path):
        """``--json`` writes the paper-vs-measured tables: one row per
        size, every variant measured in the ResultStore payload schema,
        both factors, and the paper's anchors where it published one."""
        out = tmp_path / "tables" / "figure5.json"
        rc = main(["--quick", "--system", "7.2", "--out", str(tmp_path),
                   "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"code_version", "systems"}
        assert doc["code_version"] == CODE_VERSION
        [system] = doc["systems"]
        assert system["card"] == LANAI_7_2_SYSTEM.lanai_model.name
        assert system["name"] == LANAI_7_2_SYSTEM.name
        rows = system["rows"]
        assert [row["num_nodes"] for row in rows] == list(LANAI_7_2_SYSTEM.sizes)
        for row in rows:
            measured = row["measured"]
            assert set(measured) == set(VARIANTS) | {"factor-pe", "factor-gb"}
            for variant in VARIANTS:
                assert measured[variant]["num_nodes"] == row["num_nodes"]
                assert measured[variant]["mean_latency_us"] > 0
            assert measured["factor-pe"] == (
                measured["host-pe"]["mean_latency_us"]
                / measured["nic-pe"]["mean_latency_us"]
            )
            for variant, anchor in row["paper"].items():
                assert set(anchor) == {"description", "kind", "value"}
                assert anchor["value"] == LANAI_7_2_SYSTEM.anchor(
                    row["num_nodes"], variant
                ).value
        [eight] = [row for row in rows if row["num_nodes"] == 8]
        assert eight["paper"]["nic-pe"] == {
            "description": "NIC-based PE, 8 nodes",
            "kind": "latency_us",
            "value": 49.25,
        }

    def test_module_entrypoint(self, tmp_path):
        # Run outside the checkout: the CLI writes its outputs (and the
        # campaign store) relative to the working directory.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis.report",
             "--quick", "--system", "7.2"],
            capture_output=True, text=True, timeout=600,
            cwd=tmp_path, env=env,
        )
        assert result.returncode == 0
        assert "pe-factor" in result.stdout


class TestObservabilityFlagValidation:
    """The observability group: one mode per run, companions only with
    the mode they belong to, and clear parser errors otherwise."""

    @pytest.mark.parametrize("argv", [
        ["--observe", "4", "--critical-path", "4"],
        ["--observe", "4", "--telemetry", "4"],
        ["--telemetry", "4", "--faults", "1"],
        ["--critical-path", "4", "--telemetry", "4", "--observe", "4"],
    ])
    def test_modes_are_mutually_exclusive(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_trace_out_requires_a_mode(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--trace-out", str(tmp_path / "t.json")])
        assert "--trace-out needs a run" in capsys.readouterr().err

    def test_telemetry_out_requires_telemetry(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--observe", "4",
                  "--telemetry-out", str(tmp_path / "t.jsonl")])
        assert "requires --telemetry" in capsys.readouterr().err

    def test_algo_requires_a_compatible_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["--observe", "4", "--algo", "gb"])
        assert "--algo" in capsys.readouterr().err


class TestTelemetryMode:
    def test_prints_hotspots_and_writes_exports(self, tmp_path, capsys):
        import json

        jsonl = tmp_path / "telemetry.jsonl"
        trace = tmp_path / "trace.json"
        rc = main([
            "--telemetry", "4", "--sample-us", "2",
            "--telemetry-out", str(jsonl), "--trace-out", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hotspot" in out
        assert "telemetry:" in out

        lines = jsonl.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert {"name", "component", "t", "value"} <= set(first)

        doc = json.loads(trace.read_text())
        assert any(e["ph"] == "C" for e in doc["traceEvents"])
