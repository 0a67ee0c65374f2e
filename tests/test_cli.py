"""Subcommand behavior: artifacts, exit codes, determinism, cleanup."""

import csv
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from chainlens.classify import FLAG_NAMES, label_risky, prepare_features
from chainlens.cli import GENERATE_DEFAULTS, ArtifactWriter, main, run
from chainlens.config import ConfigError, RunConfig
from chainlens.dataset import load_csv
from chainlens.errors import ChainlensError

# Small planted panel: 20 coins over ~400 days keeps every stage under
# a second while still exercising disappearance, clusters, and holes.
SMALL_GENERATE = {
    "n_coins": 20,
    "disappeared_fraction": 0.4,
    "planted_clusters": 2,
    "snapshot_interval_days": 7,
    "missing_max_supply_rate": 0.1,
    "price_supply_coupling": 0.5,
    "horizon_days": 400,
}

PIPELINE = (
    "generate",
    "clean",
    "lifetimes",
    "correlate",
    "cluster",
    "classify",
    "flags",
    "report",
)


def write_config(path: Path, **extra) -> Path:
    doc = {"generate": SMALL_GENERATE, **extra}
    config = path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    return config


def run_stage(*argv) -> int:
    return main(list(argv))


def snapshot_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("pipeline")
    config = write_config(out)
    for stage in PIPELINE:
        rc = run_stage(stage, "--config", str(config), "--out", str(out), "--seed", "7")
        assert rc == 0, stage
    return out


class TestPipeline:
    def test_all_stages_write_their_artifacts(self, pipeline_dir):
        expected = [
            "dataset.csv",
            "dataset_summary.json",
            "features.csv",
            "cleaning_summary.json",
            "lifetimes.csv",
            "pareto.csv",
            "pareto.svg",
            "survival_summary.json",
            "correlations.csv",
            "correlation_report.json",
            "assignments.csv",
            "elbow.csv",
            "elbow.svg",
            "cluster_summary.json",
            "metrics.csv",
            "metrics.svg",
            "classify_summary.json",
            "models/knn.json",
            "models/random_forest.json",
            "flags.csv",
            "flags_summary.json",
            "report.html",
        ]
        for name in expected:
            assert (pipeline_dir / name).exists(), name

    def test_one_line_summary_per_stage(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = run_stage(
            "generate", "--config", str(config), "--out", str(tmp_path), "--seed", "1"
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("generate: 20 coins")
        assert out.count("\n") == 1

    def test_planted_disappearance_reaches_summary(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "survival_summary.json").read_text("utf-8"))
        assert doc["total"] == 20
        assert doc["disappeared_count"] == 8
        assert doc["disappeared_fraction"] == 0.4

    def test_rerun_is_byte_identical(self, pipeline_dir):
        before = snapshot_tree(pipeline_dir)
        config = pipeline_dir / "config.json"
        for stage in PIPELINE:
            rc = run_stage(
                "generate" if stage == "generate" else stage,
                "--config",
                str(config),
                "--out",
                str(pipeline_dir),
                "--seed",
                "7",
            )
            assert rc == 0, stage
        assert snapshot_tree(pipeline_dir) == before

    def test_different_seed_changes_dataset(self, pipeline_dir, tmp_path):
        config = write_config(tmp_path)
        rc = run_stage(
            "generate", "--config", str(config), "--out", str(tmp_path), "--seed", "8"
        )
        assert rc == 0
        assert (tmp_path / "dataset.csv").read_bytes() != (
            pipeline_dir / "dataset.csv"
        ).read_bytes()

    def test_clean_and_classify_share_one_feature_table(self, pipeline_dir):
        with (pipeline_dir / "features.csv").open(newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        table = label_risky(load_csv(pipeline_dir / "dataset.csv"))
        assert tuple(header[1:]) == table.feature_names
        assert tuple(row[0] for row in rows) == table.row_ids
        written = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.array_equal(written, table.X)

    def test_cleaning_summary_counts_match_prepare_features(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "cleaning_summary.json").read_text("utf-8"))
        _, (before, after_rule, after) = prepare_features(
            load_csv(pipeline_dir / "dataset.csv")
        )
        assert doc["missing_before"] == before
        assert doc["filled_by_supply_rule"] == (
            before["max_supply"] - after_rule["max_supply"]
        )
        assert doc["filled_by_column_mean"] == {
            name: after_rule[name] - after[name]
            for name in after
            if after_rule[name] != after[name]
        }
        assert doc["missing_after"] == after

    def test_report_composes_without_regenerating(self, pipeline_dir):
        page = (pipeline_dir / "report.html").read_text("utf-8")
        assert page.startswith("<!doctype html>")
        assert "<h2>Survival</h2>" in page
        assert "<h2>Correlations</h2>" in page
        assert "<h2>Clustering</h2>" in page
        assert "<h2>Classification</h2>" in page
        # figures ride along inline; nothing is fetched from elsewhere
        assert page.count("<svg") >= 3
        for marker in ("<img", "<script", "<link", "href=", "src="):
            assert marker not in page

    def test_flags_rows_use_known_flag_names(self, pipeline_dir):
        with (pipeline_dir / "flags.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["coin_key", "flags"]
        assert len(rows) == 1 + 20
        for _, joined in rows[1:]:
            for flag in joined.split():
                assert flag in FLAG_NAMES


class TestFormats:
    def test_csv_format_skips_json_and_svg(self, tmp_path):
        config = write_config(tmp_path)
        base = ["--config", str(config), "--out", str(tmp_path), "--seed", "2"]
        assert run_stage("generate", *base, "--format", "csv") == 0
        assert run_stage("lifetimes", *base, "--format", "csv") == 0
        assert (tmp_path / "lifetimes.csv").exists()
        assert not (tmp_path / "survival_summary.json").exists()
        assert not (tmp_path / "pareto.svg").exists()

    def test_json_format_adds_summaries_but_not_figures(self, tmp_path):
        config = write_config(tmp_path)
        base = ["--config", str(config), "--out", str(tmp_path), "--seed", "2"]
        assert run_stage("generate", *base, "--format", "json") == 0
        assert run_stage("lifetimes", *base, "--format", "json") == 0
        assert (tmp_path / "survival_summary.json").exists()
        assert not (tmp_path / "pareto.svg").exists()


class TestUsageErrors:
    def test_unknown_method_exits_2(self, tmp_path, capsys):
        rc = run_stage("correlate", "--out", str(tmp_path), "--method", "bogus")
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, tmp_path):
        assert run_stage("frobnicate", "--out", str(tmp_path)) == 2

    def test_bad_k_flag_exits_2(self, tmp_path):
        assert run_stage("cluster", "--out", str(tmp_path), "--k", "zero") == 2
        assert run_stage("cluster", "--out", str(tmp_path), "--k", "0") == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"sede": 3}', encoding="utf-8")
        rc = run_stage("lifetimes", "--config", str(config), "--out", str(tmp_path))
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "sede" in err["message"]

    def test_api_key_in_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"api": {"api_key": "shh"}}', encoding="utf-8")
        rc = run_stage("ingest", "--config", str(config), "--out", str(tmp_path))
        assert rc == 2
        assert "CHAINLENS_API_KEY" in json.loads(capsys.readouterr().err)["message"]

    def test_seed_inside_generate_block_exits_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"generate": {"seed": 3}}', encoding="utf-8")
        assert run_stage("generate", "--config", str(config)) == 2

    def test_ingest_without_source_exits_2(self, tmp_path, capsys):
        rc = run_stage("ingest", "--out", str(tmp_path))
        assert rc == 2
        assert "base_url" in json.loads(capsys.readouterr().err)["message"]

    def test_plot_without_input_exits_2(self, tmp_path):
        assert run_stage("plot", "--out", str(tmp_path)) == 2


class TestRuntimeErrors:
    def test_stage_without_dataset_exits_1(self, tmp_path, capsys):
        rc = run_stage("lifetimes", "--out", str(tmp_path))
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ChainlensError"
        assert "generate" in err["message"]

    def test_infeasible_generate_spec_exits_1(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            '{"generate": {"n_coins": 10, "disappeared_fraction": 0.39}}',
            encoding="utf-8",
        )
        rc = run_stage("generate", "--config", str(config), "--out", str(tmp_path))
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "InfeasibleSpecError"
        assert not (tmp_path / "dataset.csv").exists()

    def test_failed_stage_removes_partial_outputs(
        self, pipeline_dir, tmp_path, monkeypatch
    ):
        # force a crash after the per-classifier model files are written
        import chainlens.cli as cli_module

        def boom(named, path):
            raise ChainlensError("disk full")

        monkeypatch.setattr(cli_module, "save_metrics_csv", boom)
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        rc = run_stage("classify", "--out", str(tmp_path), "--seed", "7")
        assert rc == 1
        assert not (tmp_path / "models").exists() or not list(
            (tmp_path / "models").iterdir()
        )
        assert not (tmp_path / "metrics.csv").exists()

    def test_report_on_missing_artifacts_exits_1(self, pipeline_dir, tmp_path, capsys):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        rc = run_stage("report", "--out", str(tmp_path))
        assert rc == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert "survival_summary.json" in message
        assert not (tmp_path / "report.html").exists()
        # and nothing got regenerated behind the user's back
        assert not (tmp_path / "metrics.csv").exists()


class TestIngest:
    def test_ingest_csv_round_trips(self, pipeline_dir, tmp_path):
        rc = run_stage(
            "ingest",
            "--input",
            str(pipeline_dir / "dataset.csv"),
            "--out",
            str(tmp_path),
        )
        assert rc == 0
        assert (tmp_path / "dataset.csv").read_bytes() == (
            pipeline_dir / "dataset.csv"
        ).read_bytes()


class TestFlagsAndOverrides:
    def test_flag_overrides_config_file(self, pipeline_dir, tmp_path):
        config = write_config(tmp_path, seed=5)
        rc = run_stage(
            "generate", "--config", str(config), "--out", str(tmp_path), "--seed", "7"
        )
        assert rc == 0
        assert (tmp_path / "dataset.csv").read_bytes() == (
            pipeline_dir / "dataset.csv"
        ).read_bytes()

    def test_cutoff_flag_reclassifies_survivors(self, pipeline_dir, tmp_path):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        rc = run_stage(
            "lifetimes", "--out", str(tmp_path), "--cutoff", "2019-01-01"
        )
        assert rc == 0
        doc = json.loads((tmp_path / "survival_summary.json").read_text("utf-8"))
        baseline = json.loads(
            (pipeline_dir / "survival_summary.json").read_text("utf-8")
        )
        assert doc["cutoff"] == "2019-01-01"
        assert doc["disappeared_count"] > baseline["disappeared_count"]

    def test_fixed_k_skips_elbow_artifacts(self, pipeline_dir, tmp_path):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        rc = run_stage("cluster", "--out", str(tmp_path), "--k", "3", "--seed", "7")
        assert rc == 0
        assert (tmp_path / "assignments.csv").exists()
        assert not (tmp_path / "elbow.csv").exists()
        doc = json.loads((tmp_path / "cluster_summary.json").read_text("utf-8"))
        assert doc["k"] == 3
        assert doc["k_chosen_by"] == "flag"

    def test_classifier_flag_narrows_training(self, pipeline_dir, tmp_path):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        rc = run_stage(
            "classify", "--out", str(tmp_path), "--classifier", "knn", "--seed", "7"
        )
        assert rc == 0
        models = sorted(p.name for p in (tmp_path / "models").iterdir())
        assert models == ["knn.json"]
        with (tmp_path / "metrics.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows] == ["classifier", "knn"]


class TestClassifySummary:
    def test_summary_line_names_zero_division_classifiers(
        self, pipeline_dir, tmp_path, capsys, monkeypatch
    ):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        assert run_stage("classify", "--out", str(tmp_path), "--seed", "7") == 0
        assert "zero division" not in capsys.readouterr().out
        # all-zero predictions leave precision undefined for every kind
        monkeypatch.setattr(
            "chainlens.cli.predict", lambda trained, rows: np.zeros_like(rows.y)
        )
        assert run_stage("classify", "--out", str(tmp_path), "--seed", "7") == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        doc = json.loads((tmp_path / "classify_summary.json").read_text("utf-8"))
        assert all(m["zero_division_hit"] for m in doc["classifiers"].values())
        named = line.split("zero division: ")[1].split(" -> ")[0].split(", ")
        assert sorted(named) == sorted(doc["classifiers"])


class TestPlot:
    @pytest.mark.parametrize("artifact", ["pareto", "elbow", "metrics"])
    def test_replots_pipeline_artifacts(self, pipeline_dir, tmp_path, artifact):
        rc = run_stage(
            "plot",
            "--input",
            str(pipeline_dir / f"{artifact}.csv"),
            "--out",
            str(tmp_path),
        )
        assert rc == 0
        svg = (tmp_path / f"{artifact}.svg").read_text("utf-8")
        assert svg.lstrip().startswith("<svg")
        assert (tmp_path / f"{artifact}_plot.csv").exists()

    def test_unknown_artifact_kind_exits_1(self, pipeline_dir, tmp_path, capsys):
        rc = run_stage(
            "plot",
            "--input",
            str(pipeline_dir / "correlations.csv"),
            "--out",
            str(tmp_path),
        )
        assert rc == 1
        assert "correlations" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "correlations.svg").exists()


class TestProgrammaticRun:
    def test_run_returns_summary_line(self, pipeline_dir, tmp_path):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        line = run("lifetimes", RunConfig(out=str(tmp_path)))
        assert line.startswith("lifetimes: 20 coins")

    def test_run_rejects_unknown_command(self, tmp_path):
        with pytest.raises(ConfigError):
            run("mystery", RunConfig(out=str(tmp_path)))

    def test_artifact_writer_discard_is_idempotent(self, tmp_path):
        writer = ArtifactWriter(tmp_path)
        writer.write_text("a.txt", "x")
        writer.discard_written()
        writer.discard_written()
        assert not (tmp_path / "a.txt").exists()

    def test_generate_defaults_are_feasible(self, tmp_path):
        # the out-of-the-box demo spec must not trip integrality checks
        rc = run_stage("generate", "--out", str(tmp_path), "--format", "csv")
        assert rc == 0
        assert GENERATE_DEFAULTS["n_coins"] == 100


class TestConsoleScript:
    def test_entry_point_prints_help(self):
        binary = shutil.which("chainlens")
        if binary is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [binary, "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "lifetimes" in proc.stdout
