"""Subcommand behavior: artifacts, exit codes, determinism, cleanup."""

import csv
import datetime as dt
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from chainlens.classify import label_risky, prepare_features
import chainlens
import chainlens.cli as cli
from chainlens.cli import (
    COMMANDS, GENERATE_DEFAULTS, PROVIDERS, ArtifactWriter, main, run
)
from chainlens.config import FORMATS, ConfigError, RunConfig
from chainlens.dataset import CSV_HEADER, load_csv
from chainlens.errors import ApiError, ChainlensError, UndefinedCorrelationError
from chainlens.rules import CLASSIFIER_KINDS

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

# sha256 of every file the pipeline_dir run writes; an intended change
# to an artifact updates this file too
GOLDEN_DIGESTS = Path(__file__).parent / "fixtures" / "pipeline_sha256.json"

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

    def test_artifacts_match_golden_digests(self, pipeline_dir):
        digests = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in snapshot_tree(pipeline_dir).items()
            if name != "config.json"
        }
        assert digests == json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))

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
        ds = load_csv(pipeline_dir / "dataset.csv")
        table = label_risky(ds)
        assert tuple(header[1:]) == table.feature_names
        assert [row[0] for row in rows] == [
            f"{key}@{dt.date.fromordinal(day)}"
            for key, day in zip(ds.row_keys(table.rows), ds.days[table.rows].tolist())
        ]
        written = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.array_equal(written, table.X)

    def test_cleaning_summary_counts_match_prepare_features(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "cleaning_summary.json").read_text("utf-8"))
        _, _, (before, after_rule, after) = prepare_features(
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
        # the cluster summary's fields, its feature list among them
        assert "<td>features</td><td>[&quot;market_cap&quot;, &quot;volume_24h&quot;" in page
        # figures ride along inline; nothing is fetched from elsewhere
        assert page.count("<svg") >= 3
        for marker in ("<img", "<script", "<link", "href=", "src="):
            assert marker not in page

    def test_report_bytes_do_not_depend_on_out_dir(self, pipeline_dir, tmp_path):
        elsewhere = tmp_path / "some" / "other dir"
        shutil.copytree(pipeline_dir, elsewhere)
        (elsewhere / "report.html").unlink()
        assert run_stage("report", "--out", str(elsewhere)) == 0
        assert (elsewhere / "report.html").read_bytes() == (
            pipeline_dir / "report.html"
        ).read_bytes()

    def test_report_sizes_come_from_the_cluster_summary(
        self, pipeline_dir, tmp_path, capsys
    ):
        shutil.copytree(pipeline_dir, tmp_path, dirs_exist_ok=True)
        rerun = ("cluster", "--out", str(tmp_path), "--k", "3", "--seed", "7")
        # a csv-only rerun with another k removes the summary it does not rewrite
        assert run_stage(*rerun, "--format", "csv") == 0
        assert not (tmp_path / "cluster_summary.json").exists()
        capsys.readouterr()
        assert run_stage("report", "--out", str(tmp_path)) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert "cluster_summary.json (cluster --format json)" in message
        assert run_stage(*rerun, "--format", "json") == 0
        assert run_stage("report", "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "cluster_summary.json").read_text("utf-8"))
        assert summary["k"] == 3
        rows = "".join(
            f"<tr><td>{c}</td><td>{n}</td></tr>" for c, n in sorted(summary["sizes"].items())
        )
        page = (tmp_path / "report.html").read_text("utf-8")
        assert f"<th>cluster</th><th>coins</th></tr></thead><tbody>{rows}</tbody>" in page

    def test_report_does_not_read_the_assignments(self, pipeline_dir, tmp_path):
        shutil.copytree(pipeline_dir, tmp_path, dirs_exist_ok=True)
        (tmp_path / "assignments.csv").unlink()
        (tmp_path / "report.html").unlink()
        assert run_stage("report", "--out", str(tmp_path)) == 0
        assert (tmp_path / "report.html").read_bytes() == (
            pipeline_dir / "report.html"
        ).read_bytes()

    def test_coin_name_holding_an_at_sign_passes_every_stage(self, pipeline_dir, tmp_path):
        panel = (pipeline_dir / "dataset.csv").read_bytes()
        assert b"\r\nS00003," in panel
        # S00003@x_coin00003 sorts where S00003_coin00003 did, so every number stays
        (tmp_path / "dataset.csv").write_bytes(panel.replace(b"\r\nS00003,", b"\r\nS00003@x,"))
        config = pipeline_dir / "config.json"
        for stage in PIPELINE[1:]:
            rc = run_stage(stage, "--config", str(config), "--out", str(tmp_path), "--seed", "7")
            assert rc == 0, stage
        for name in ("metrics.csv", "classify_summary.json"):
            assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes()

    def test_flags_rows_use_known_flag_names(self, pipeline_dir):
        with (pipeline_dir / "flags.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["coin_key", "flags"]
        assert len(rows) == 1 + 20
        for _, joined in rows[1:]:
            for flag in joined.split():
                assert flag in {
                    "unlimited_issuance",
                    "low_circulation",
                    "insufficient_data_circulation",
                    "volatile_volume",
                    "insufficient_data_volume",
                }


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


def benchmark_stage_artifacts(monkeypatch) -> dict:
    """perfbench/run.py's own list of the files each stage writes at
    --format svg, kept apart from COMMANDS so each checks the other."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.STAGE_ARTIFACTS


def lowest_format(name: str) -> str:
    """The --format that adds ``name``, by the flag's rule: figures at
    svg, JSON summaries at json, tables, models and the report at csv."""
    if name.endswith(".svg"):
        return "svg"
    return "json" if name.endswith(".json") and not name.startswith("models/") else "csv"


def row_files(stage: str, fmt: str) -> set[str]:
    """The files COMMANDS says ``stage`` writes at ``--format fmt``."""
    writes = COMMANDS[stage].writes
    return {name for names in writes[: FORMATS.index(fmt) + 1] for name in names}


class TestStageTable:
    """Each stage writes exactly the files of its COMMANDS row for the
    run's --format, each into a fresh directory."""

    def run_fresh(self, pipeline_dir, out, stage, fmt, *extra) -> set[str]:
        if stage == "report":
            shutil.copytree(pipeline_dir, out)
            (out / "report.html").unlink()
        elif stage not in ("generate", "ingest"):
            out.mkdir()
            shutil.copy(pipeline_dir / "dataset.csv", out / "dataset.csv")
        before = set(snapshot_tree(out)) if out.exists() else set()
        argv = ["--config", str(pipeline_dir / "config.json"), "--out", str(out)]
        if stage == "ingest":
            argv = ["--input", str(pipeline_dir / "dataset.csv"), "--out", str(out)]
        assert run_stage(stage, *argv, "--seed", "7", "--format", fmt, *extra) == 0
        return set(snapshot_tree(out)) - before

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "stage, flags, unwritten",
        [
            pytest.param(stage, (), set(), id=stage)
            for stage, row in COMMANDS.items()
            if row.writes is not None
        ]
        + [
            pytest.param("cluster", ("--k", "3"), {"elbow.csv", "elbow.svg"}, id="cluster-k"),
            pytest.param(
                "classify",
                ("--classifier", "knn"),
                {f"models/{kind}.json" for kind in CLASSIFIER_KINDS if kind != "knn"},
                id="classify-knn",
            ),
        ],
    )
    def test_stage_writes_exactly_its_row(
        self, pipeline_dir, tmp_path, monkeypatch, stage, flags, unwritten, fmt
    ):
        written = self.run_fresh(pipeline_dir, tmp_path / "out", stage, fmt, *flags)
        assert written == row_files(stage, fmt) - unwritten
        expected = {
            name
            for name in benchmark_stage_artifacts(monkeypatch)[stage]
            if FORMATS.index(lowest_format(name)) <= FORMATS.index(fmt)
        }
        assert written == expected - unwritten

    def test_the_table_writes_every_required_read(self):
        written = {name for row in COMMANDS.values() for names in row.writes or () for name in names}
        required = {name for row in COMMANDS.values() for name in (row.reads or ((),))[0]}
        assert required
        assert required <= written

    def test_benchmark_lists_the_stages_of_the_table(self, monkeypatch):
        listed = {stage for stage, row in COMMANDS.items() if row.writes is not None}
        assert set(benchmark_stage_artifacts(monkeypatch)) == listed

    def test_lower_format_rerun_removes_the_stage_files_it_did_not_write(
        self, pipeline_dir, tmp_path, capsys
    ):
        shutil.copytree(pipeline_dir, tmp_path, dirs_exist_ok=True)
        others = snapshot_tree(tmp_path)
        assert run_stage("lifetimes", "--out", str(tmp_path), "--format", "csv") == 0
        left = snapshot_tree(tmp_path)
        for name in ("survival_summary.json", "pareto.svg"):
            assert name not in left
            del others[name]
        for name in ("lifetimes.csv", "pareto.csv"):
            del others[name], left[name]
        assert left == others  # no other stage's file moved
        capsys.readouterr()
        assert run_stage("report", "--out", str(tmp_path)) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert "survival_summary.json (lifetimes --format json)" in message
        assert [p.name for p in tmp_path.glob(".*")] == []


class TestReads:
    """What each stage reads, and how it fails when a read is missing,
    written out here rather than taken from the stage table."""

    @pytest.mark.parametrize(
        "name, made_by",
        [
            ("survival_summary.json", "lifetimes --format json"),
            ("pareto.csv", "lifetimes --format csv"),
            ("correlations.csv", "correlate --format csv"),
            ("cluster_summary.json", "cluster --format json"),
            ("metrics.csv", "classify --format csv"),
        ],
    )
    def test_report_without_one_required_input_exits_1_naming_it(
        self, pipeline_dir, tmp_path, capsys, name, made_by
    ):
        out = shutil.copytree(pipeline_dir, tmp_path / "run")
        (out / "report.html").unlink()
        (out / name).unlink()
        before = snapshot_tree(out)
        assert run_stage("report", "--out", str(out)) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ChainlensError",
            "message": "report composes existing artifacts but these are missing:"
            f" {name} ({made_by}); run those stages first",
        }
        assert snapshot_tree(out) == before  # no report.html

    @pytest.mark.parametrize("name", ["pareto.svg", "elbow.svg", "metrics.svg", "flags.csv"])
    def test_report_without_one_optional_input_leaves_out_its_part(
        self, pipeline_dir, tmp_path, name
    ):
        out = shutil.copytree(pipeline_dir, tmp_path / "run")
        (out / "report.html").unlink()
        (out / name).unlink()
        assert run_stage("report", "--out", str(out)) == 0
        page = (out / "report.html").read_text("utf-8")
        for figure in ("pareto.svg", "elbow.svg", "metrics.svg"):
            svg = (pipeline_dir / figure).read_text("utf-8")
            assert (f"<figure>{svg}</figure>" in page) == (figure != name)
        assert ("<h2>Manipulability flags</h2>" in page) == (name != "flags.csv")

    @pytest.mark.parametrize(
        "stage", ["clean", "lifetimes", "correlate", "cluster", "classify", "flags"]
    )
    def test_panel_stage_in_an_empty_out_exits_1(self, pipeline_dir, tmp_path, capsys, stage):
        config = str(pipeline_dir / "config.json")
        assert run_stage(stage, "--config", config, "--out", str(tmp_path)) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ChainlensError",
            "message": f"no dataset at {tmp_path / 'dataset.csv'};"
            " pass --input or run generate/ingest first",
        }
        assert list(tmp_path.iterdir()) == []

    def test_ingest_never_reads_the_panel_in_out(self, pipeline_dir, tmp_path, capsys):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        before = snapshot_tree(tmp_path)
        assert run_stage("ingest", "--out", str(tmp_path)) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": "ingest needs --input FILE or an 'api' config block with base_url",
        }
        assert snapshot_tree(tmp_path) == before

    @pytest.mark.parametrize("given_by", ["flag", "config"])
    def test_generate_refuses_an_input(self, pipeline_dir, tmp_path, capsys, given_by):
        panel = str(pipeline_dir / "dataset.csv")
        out = tmp_path / "run"
        if given_by == "flag":
            argv = ("generate", "--out", str(out), "--seed", "7", "--input", panel)
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"input": panel, "seed": 7}), encoding="utf-8")
            argv = ("generate", "--config", str(config), "--out", str(out))
        assert run_stage(*argv) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": "generate synthesizes a panel and reads no input;"
            f" run ingest --input {panel}",
        }
        assert not out.exists()

    def test_report_ignores_the_shared_input(self, pipeline_dir, tmp_path):
        # one config may name the panel for every stage of a run
        out = shutil.copytree(pipeline_dir, tmp_path / "run")
        report = (out / "report.html").read_bytes()
        (out / "report.html").unlink()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(out / "dataset.csv")}), encoding="utf-8")
        assert run_stage("report", "--config", str(config), "--out", str(out)) == 0
        assert (out / "report.html").read_bytes() == report


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

    def test_unknown_api_setting_lists_the_allowed_ones(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"api": {"base_url": "http://x", "retries": 3}}', encoding="utf-8")
        assert run_stage("ingest", "--config", str(config), "--out", str(tmp_path)) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": "unknown 'api' settings ['retries']; allowed: ['backoff_seconds',"
            " 'base_url', 'cache_dir', 'max_attempts', 'rate_limit']",
        }

    def test_unknown_format_exits_2_with_the_argparse_message(self, tmp_path, capsys):
        assert run_stage("correlate", "--out", str(tmp_path), "--format", "xml") == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "chainlens correlate: error: argument --format: invalid choice: 'xml'"
            " (choose from 'csv', 'json', 'svg')"
        )

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

    @pytest.mark.parametrize("flag", ["--cutoff", "--start", "--end"])
    @pytest.mark.parametrize(
        "stamp", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"]
    )
    def test_date_off_the_calendar_exits_2(self, tmp_path, capsys, flag, stamp):
        rc = run_stage("lifetimes", "--out", str(tmp_path), flag, stamp)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "invalid date" in err["message"]

    @pytest.mark.parametrize(
        "stage, config, name",
        [
            ("lifetimes", {"split": "0.8"}, "split"),
            ("classify", {"cutoff": 5}, "cutoff"),
            ("correlate", {"start": 5}, "start"),
            ("cluster", {"end": 5}, "end"),
            ("generate", {"generate": {"n_coins": "ten"}}, "n_coins"),
            ("generate", {"generate": {"start_day": "2021-13-01"}}, "start_day"),
            ("generate", {"generate": {"start_day": 20210101}}, "start_day"),
            ("ingest", {"api": {"base_url": "http://x", "rate_limit": "fast"}}, "rate_limit"),
            ("ingest", {"api": {"base_url": 5}}, "base_url"),
            ("lifetimes", {"out": 5}, "out"),
        ],
    )
    def test_config_value_of_the_wrong_type_exits_2(
        self, tmp_path, capsys, monkeypatch, stage, config, name
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(tmp_path)  # no --out: the default is relative
        assert run_stage(stage, "--config", str(path)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert name in err["message"]
        assert list(tmp_path.iterdir()) == [path]


    @pytest.mark.parametrize("stage", list(COMMANDS))
    def test_reversed_date_range_exits_2(self, pipeline_dir, tmp_path, capsys, stage):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        before = snapshot_tree(tmp_path)
        rc = run_stage(
            stage, "--out", str(tmp_path), "--start", "2018-01-01", "--end", "2017-06-01"
        )
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError",
            "message": "empty date range: 2018-01-01 > 2017-06-01",
        }
        assert snapshot_tree(tmp_path) == before


class TestRuntimeErrors:
    @pytest.mark.parametrize(
        "error, code",
        [(ConfigError, 2), (ChainlensError, 1), (ApiError, 1), (UndefinedCorrelationError, 1)],
    )
    def test_one_json_line_and_the_exit_code_of_the_error_class(
        self, tmp_path, capsys, monkeypatch, error, code
    ):
        def fail(command, config):
            raise error("went wrong")

        monkeypatch.setattr(cli, "run", fail)
        assert run_stage("lifetimes", "--out", str(tmp_path)) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == json.dumps({"error": error.__name__, "message": "went wrong"}) + "\n"

    def test_stage_without_dataset_exits_1(self, tmp_path, capsys):
        rc = run_stage("lifetimes", "--out", str(tmp_path))
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ChainlensError"
        assert "generate" in err["message"]

    @pytest.mark.parametrize("stage", ["ingest", "cluster"])
    def test_header_only_panel_exits_1(self, stage, tmp_path, capsys):
        panel = tmp_path / "header_only.csv"
        panel.write_text(",".join(CSV_HEADER) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = run_stage(stage, "--input", str(panel), "--out", str(out))
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ChainlensError"
        assert "no snapshot rows" in err["message"]
        assert not out.exists() or not list(out.iterdir())

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
        write_csv = ArtifactWriter.write_csv

        def boom(self, relative, header, rows):
            if relative == "metrics.csv":
                raise ChainlensError("disk full")
            write_csv(self, relative, header, rows)

        monkeypatch.setattr(ArtifactWriter, "write_csv", boom)
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        rc = run_stage("classify", "--out", str(tmp_path), "--seed", "7")
        assert rc == 1
        assert not (tmp_path / "models").exists() or not list(
            (tmp_path / "models").iterdir()
        )
        assert not (tmp_path / "metrics.csv").exists()

    def test_failed_rerun_keeps_earlier_artifacts(
        self, pipeline_dir, tmp_path, monkeypatch
    ):
        import chainlens.cli as cli_module

        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        assert run_stage("clean", "--out", str(tmp_path)) == 0
        before = snapshot_tree(tmp_path)

        # the rerun writes a different features.csv, then fails
        def boom(self, relative, document):
            raise ChainlensError("disk full")

        monkeypatch.setattr(cli_module.ArtifactWriter, "write_json", boom)
        rc = run_stage("clean", "--out", str(tmp_path), "--start", "2018-01-01")
        assert rc == 1
        assert snapshot_tree(tmp_path) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cleaning_summary.json",
            "dataset.csv",
            "features.csv",
        ]

    def test_failed_commit_restores_replaced_artifacts(
        self, pipeline_dir, tmp_path, capsys
    ):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        assert run_stage("clean", "--out", str(tmp_path), "--format", "csv") == 0
        # features.csv moves into place first, then this target refuses
        (tmp_path / "cleaning_summary.json").mkdir()
        before = snapshot_tree(tmp_path)
        rc = run_stage(
            "clean", "--out", str(tmp_path), "--format", "json", "--start", "2017-06-01"
        )
        assert rc == 1
        assert "cleaning_summary.json" in json.loads(capsys.readouterr().err)["message"]
        assert snapshot_tree(tmp_path) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cleaning_summary.json",
            "dataset.csv",
            "features.csv",
        ]

    @pytest.mark.parametrize("stage", ["lifetimes", "cluster", "classify", "flags"])
    def test_cutoff_before_the_panel_exits_1(self, pipeline_dir, tmp_path, capsys, stage):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        rc = run_stage(stage, "--out", str(tmp_path), "--cutoff", "2000-01-01")
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ChainlensError",
            "message": "cutoff 2000-01-01 precedes the dataset's first day 2017-01-01",
        }
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.csv"]

    def test_interrupted_rerun_keeps_earlier_artifacts(
        self, pipeline_dir, tmp_path, monkeypatch
    ):
        import chainlens.cli as cli_module

        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        assert run_stage("clean", "--out", str(tmp_path)) == 0
        before = snapshot_tree(tmp_path)

        def interrupt(self, relative, document):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module.ArtifactWriter, "write_json", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_stage("clean", "--out", str(tmp_path), "--start", "2018-01-01")
        assert snapshot_tree(tmp_path) == before

    def test_report_on_missing_artifacts_exits_1(self, pipeline_dir, tmp_path, capsys):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        rc = run_stage("report", "--out", str(tmp_path))
        assert rc == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert "survival_summary.json" in message
        assert not (tmp_path / "report.html").exists()
        # and nothing got regenerated behind the user's back
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "name, content",
        [
            ("survival_summary.json", b"{not json"),
            ("cluster_summary.json", b"[1, 2]"),
            ("cluster_summary.json", b'{"sizes": [1]}'),
            ("metrics.csv", b"\xff\xfe"),
            ("flags.csv", b"coin_key,flags\r\nAAA_alpha\r\n"),
            ("pareto.svg", b"\xff\xfe"),
        ],
    )
    def test_report_on_malformed_artifact_exits_1(
        self, pipeline_dir, tmp_path, capsys, name, content
    ):
        for source in pipeline_dir.iterdir():
            if source.is_file():
                shutil.copy(source, tmp_path / source.name)
        (tmp_path / name).write_bytes(content)
        before = snapshot_tree(tmp_path)
        assert run_stage("report", "--out", str(tmp_path)) == 1
        assert name in json.loads(capsys.readouterr().err)["message"]
        assert snapshot_tree(tmp_path) == before


PANEL_NOT_UTF8 = (",".join(CSV_HEADER) + "\r\nCafé,CAF,2021-01-01,1,,,,,,\r\n").encode(
    "latin-1"
)
# one cell longer than the csv module's default field size limit
PANEL_FIELD_TOO_LONG = (
    ",".join(CSV_HEADER) + "\r\nA,a,2021-01-01," + "1" * 200_000 + ",,,,,,\r\n"
).encode()


def _ingest_missing_input(tmp):
    return ["ingest", "--input", str(tmp / "nope.csv"), "--out", str(tmp / "out")]


def _ingest_not_utf8(tmp):
    (tmp / "latin1.csv").write_bytes(PANEL_NOT_UTF8)
    return ["ingest", "--input", str(tmp / "latin1.csv"), "--out", str(tmp / "out")]


def _stage_panel_not_utf8(tmp):
    (tmp / "dataset.csv").write_bytes(PANEL_NOT_UTF8)
    return ["clean", "--out", str(tmp)]


def _stage_panel_field_too_long(tmp):
    (tmp / "dataset.csv").write_bytes(PANEL_FIELD_TOO_LONG)
    return ["lifetimes", "--out", str(tmp)]


def _stage_panel_is_a_directory(tmp):
    (tmp / "dataset.csv").mkdir()
    return ["lifetimes", "--out", str(tmp)]


def _config_not_utf8(tmp):
    (tmp / "config.json").write_bytes('{"out": "caf\u00e9"}'.encode("latin-1"))
    return ["generate", "--config", str(tmp / "config.json"), "--out", str(tmp)]


def _config_is_a_directory(tmp):
    (tmp / "config.json").mkdir()
    return ["generate", "--config", str(tmp / "config.json"), "--out", str(tmp)]


def _plot_a_directory(tmp):
    (tmp / "pareto.csv").mkdir()
    return ["plot", "--input", str(tmp / "pareto.csv"), "--out", str(tmp / "out")]


def _generate_under_a_file(tmp):
    (tmp / "afile").write_text("a file, not a directory", encoding="utf-8")
    config = write_config(tmp)
    return ["generate", "--config", str(config), "--out", str(tmp / "afile" / "x")]


class TestUnreadableFiles:
    """A file the CLI cannot read or write is one JSON error line and an
    exit code, never a traceback."""

    @pytest.mark.parametrize(
        "setup, code, error, named",
        [
            (_ingest_missing_input, 1, "ChainlensError", "nope.csv"),
            (_ingest_not_utf8, 1, "ChainlensError", "latin1.csv"),
            (_stage_panel_not_utf8, 1, "ChainlensError", "dataset.csv"),
            (_stage_panel_field_too_long, 1, "ChainlensError", "dataset.csv"),
            (_stage_panel_is_a_directory, 1, "ChainlensError", "dataset.csv"),
            (_config_not_utf8, 2, "ConfigError", "config.json"),
            (_config_is_a_directory, 2, "ConfigError", "config.json"),
            (_plot_a_directory, 1, "ChainlensError", "pareto.csv"),
            (_generate_under_a_file, 1, "ChainlensError", "afile"),
        ],
        ids=lambda value: value.__name__.strip("_") if callable(value) else None,
    )
    def test_exits_with_one_json_line(
        self, tmp_path, capsys, setup, code, error, named
    ):
        argv = setup(tmp_path)
        before = snapshot_tree(tmp_path)
        assert run_stage(*argv) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == error
        assert named in doc["message"]
        assert snapshot_tree(tmp_path) == before


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

    @pytest.mark.parametrize(
        "stage, artifacts",
        [
            ("lifetimes", ["survival_summary.json", "lifetimes.csv"]),
            ("cluster", ["cluster_summary.json", "assignments.csv"]),
            ("classify", ["classify_summary.json", "metrics.csv"]),
            ("flags", ["flags.csv"]),
        ],
    )
    def test_cutoff_on_the_last_day_is_the_default(
        self, pipeline_dir, tmp_path, stage, artifacts
    ):
        shutil.copy(pipeline_dir / "dataset.csv", tmp_path / "dataset.csv")
        last_day = json.loads(
            (pipeline_dir / "survival_summary.json").read_text("utf-8")
        )["cutoff"]
        rc = run_stage(
            stage, "--out", str(tmp_path), "--seed", "7", "--cutoff", last_day
        )
        assert rc == 0
        for name in artifacts:
            assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes()

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


class TestOverflowingSupplyRatio:
    """A positive total supply so small that circulating over it
    overflows passes the loaders; ptsc is then absent on that row, as
    for an absent total."""

    @staticmethod
    def panel_with_total(pipeline_dir, out: Path, total: str) -> Path:
        with (pipeline_dir / "dataset.csv").open(newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        circulating = header.index("circulating_supply")
        row = next(r for r in rows if r[circulating] and float(r[circulating]) > 0)
        row[header.index("total_supply")] = total
        out.mkdir()
        with (out / "dataset.csv").open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
        return out

    @staticmethod
    def price_ptsc_pearson(out: Path) -> dict:
        with (out / "correlations.csv").open(newline="", encoding="utf-8") as fh:
            return {
                (r["var_a"], r["var_b"]): r
                for r in csv.DictReader(fh)
                if r["method"] == "pearson" and r["var_b"].endswith("ptsc")
                and r["var_a"].endswith("price")
            }

    @pytest.mark.filterwarnings("ignore::chainlens.errors.DataQualityWarning")  # circ > total
    def test_every_stage_exits_0_and_reads_the_ratio_as_absent(
        self, pipeline_dir, tmp_path
    ):
        tiny = self.panel_with_total(pipeline_dir, tmp_path / "tiny", "1e-310")
        for stage in PIPELINE[1:]:
            assert run_stage(stage, "--out", str(tiny), "--seed", "7") == 0, stage
        blank = self.panel_with_total(pipeline_dir, tmp_path / "blank", "")
        assert run_stage("correlate", "--out", str(blank)) == 0
        got = self.price_ptsc_pearson(tiny)
        assert got == self.price_ptsc_pearson(blank)
        for cell in (("price", "ptsc"), ("mean_price", "mean_ptsc")):
            coefficient = float(got[cell]["coefficient"])
            assert np.isfinite(coefficient) and coefficient != -1.0  # not clamped NaN
        before = self.price_ptsc_pearson(pipeline_dir)[("price", "ptsc")]
        assert int(got[("price", "ptsc")]["n"]) == int(before["n"]) - 1


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

    @pytest.mark.parametrize("artifact", ["pareto", "elbow", "metrics"])
    def test_replot_equals_stage_figure(self, pipeline_dir, tmp_path, artifact):
        source = pipeline_dir / f"{artifact}.csv"
        assert run_stage("plot", "--input", str(source), "--out", str(tmp_path)) == 0
        replot = (tmp_path / f"{artifact}.svg").read_bytes()
        assert replot == (pipeline_dir / f"{artifact}.svg").read_bytes()

    def test_unknown_artifact_kind_exits_1(self, pipeline_dir, tmp_path, capsys):
        source = pipeline_dir / "correlations.csv"
        assert run_stage("plot", "--input", str(source), "--out", str(tmp_path)) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ChainlensError",
            "message": f"{source}: unknown plot artifact kind 'correlations';"
            " expected one of ('pareto', 'elbow', 'metrics')",
        }
        assert not (tmp_path / "correlations.svg").exists()

    @pytest.mark.parametrize(
        "name, content, message",
        [
            ("pareto.csv", b"bucket_end,count,cumulative_pct\r\n80,3,30.0\r\n", "bucket_start"),
            ("elbow.csv", b"k,wcss\r\nx,1.5\r\n", "'x'"),
            ("elbow.csv", b"k,wcss\r\n2\r\n", "row 1 has 1 cells"),
            ("metrics.csv", b"\xff\xfe", "not UTF-8"),
        ],
    )
    def test_malformed_artifact_exits_1(self, tmp_path, capsys, name, content, message):
        source = tmp_path / name
        source.write_bytes(content)
        out = tmp_path / "out"
        assert run_stage("plot", "--input", str(source), "--out", str(out)) == 1
        error = json.loads(capsys.readouterr().err)["message"]
        assert str(source) in error
        assert message in error
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize(
        "name, template",
        [
            ("pareto.csv", "bucket_start,bucket_end,count,cumulative_pct\r\n0,80,{},100.0\r\n"),
            ("pareto.csv", "bucket_start,bucket_end,count,cumulative_pct\r\n0,80,3,{}\r\n"),
            ("elbow.csv", "k,wcss\r\n1,{}\r\n2,1.5\r\n"),
            ("metrics.csv", "classifier,precision,recall,f1,accuracy\r\nknn,0.5,{},0.5,0.5\r\n"),
        ],
    )
    def test_non_finite_cell_exits_1(self, tmp_path, capsys, name, template, value):
        source = tmp_path / name
        source.write_text(template.format(value))
        out = tmp_path / "out"
        assert run_stage("plot", "--input", str(source), "--out", str(out)) == 1
        error = json.loads(capsys.readouterr().err)["message"]
        assert str(source) in error
        assert "non-finite" in error
        assert not out.exists()

    def test_markup_in_a_label_is_escaped(self, tmp_path):
        source = tmp_path / "metrics.csv"
        source.write_text(
            "classifier,precision,recall,f1,accuracy\r\na<b&c,0.5,0.5,0.5,0.5\r\n"
        )
        assert run_stage("plot", "--input", str(source), "--out", str(tmp_path)) == 0
        svg = xml.dom.minidom.parse(str(tmp_path / "metrics.svg"))
        labels = [
            node.firstChild.data for node in svg.getElementsByTagName("text")
        ]
        assert "a<b&c" in labels


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
        assert not list(tmp_path.iterdir())

    def test_artifact_writer_csv_format_and_discard(self, tmp_path):
        writer = ArtifactWriter(tmp_path)
        writer.write_csv("a.csv", ("name", "value", "absent"), [("x", 0.1 + 0.2, None)])
        writer.commit()
        text = (tmp_path / "a.csv").read_bytes()
        assert text == b"name,value,absent\r\nx,0.30000000000000004,\r\n"
        assert text.decode().splitlines()[1].split(",")[1] == repr(0.1 + 0.2)

        def rows():
            yield ("y", 1 / 3, None)
            raise ChainlensError("disk full")

        writer = ArtifactWriter(tmp_path)
        with pytest.raises(ChainlensError):
            writer.write_csv("a.csv", ("name", "value", "absent"), rows())
        writer.discard_written()
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]
        assert (tmp_path / "a.csv").read_bytes() == text

    def test_artifact_writer_commit_moves_files_into_place(self, tmp_path):
        writer = ArtifactWriter(tmp_path)
        writer.write_text("models/a.txt", "x")
        assert not (tmp_path / "models" / "a.txt").exists()
        writer.commit()
        assert (tmp_path / "models" / "a.txt").read_text(encoding="utf-8") == "x"
        assert [p.name for p in (tmp_path / "models").iterdir()] == ["a.txt"]

    def test_failed_commit_removes_new_targets(self, tmp_path):
        writer = ArtifactWriter(tmp_path)
        writer.write_text("a.txt", "x")
        writer.write_text("b.txt", "y")
        (tmp_path / "b.txt").mkdir()
        with pytest.raises(OSError):
            writer.commit()
        writer.discard_written()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.txt"]

    def test_writer_skips_files_above_the_format(self, tmp_path):
        writer = ArtifactWriter(tmp_path, (("a.csv",), ("a.json",), ("a.svg",)), "json")
        writer.write_csv("a.csv", ("x",), [(1,)])
        writer.write_json("a.json", {"x": 1})
        writer.write_text("a.svg", "<svg/>")
        assert writer.path("a.svg") is None
        writer.commit()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.json"]

    def test_writer_refuses_a_file_outside_its_row(self, tmp_path):
        writer = ArtifactWriter(tmp_path, (("a.csv",), (), ()), "svg")
        with pytest.raises(ValueError, match="b.csv"):
            writer.write_text("b.csv", "x")
        assert not list(tmp_path.iterdir())

    def test_commit_removes_the_row_files_it_did_not_write(self, tmp_path):
        for name in ("a.json", "a.svg", "other.txt"):
            (tmp_path / name).write_text("old", encoding="utf-8")
        writer = ArtifactWriter(tmp_path, (("a.csv",), ("a.json",), ("a.svg",)), "csv")
        writer.write_text("a.csv", "new")
        writer.commit()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "other.txt"]
        assert (tmp_path / "a.csv").read_text(encoding="utf-8") == "new"

    def test_failed_commit_restores_stale_files(self, tmp_path):
        stale = b'{"k": 5}\r\n\xe2\x82\xac'
        (tmp_path / "old.json").write_bytes(stale)
        writer = ArtifactWriter(tmp_path, (("old.json", "a.txt", "b.txt"), (), ()), "csv")
        writer.write_text("a.txt", "x")
        writer.write_text("b.txt", "y")
        (tmp_path / "b.txt").mkdir()  # old.json is moved aside before this move fails
        with pytest.raises(OSError):
            writer.commit()
        writer.discard_written()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.txt", "old.json"]
        assert (tmp_path / "old.json").read_bytes() == stale

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


SRC = str(Path(chainlens.__file__).resolve().parents[1])


def modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    probe = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def stage_modules(*argv) -> set[str]:
    """The numpy and chainlens modules a process holds after ``main(argv)``
    returned 0."""
    loaded = modules_after(
        f"from chainlens.cli import main\nif main({list(argv)!r}): sys.exit('stage failed')"
    )
    return {m for m in loaded if m == "numpy" or m.startswith("chainlens")}


def _code_names(code) -> set[str]:
    """The global and attribute names ``code`` and its nested code use."""
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _code_names(const)
    return names


class TestImportFootprint:
    """A stage process imports only the chainlens modules it runs."""

    BASE = {"chainlens", "chainlens.cli", "chainlens.config", "chainlens.errors", "chainlens.rules"}

    def test_importing_the_cli_loads_no_stage_module(self):
        loaded = modules_after("import chainlens.cli")
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("chainlens")} == self.BASE

    def test_help_never_imports_numpy(self):
        assert stage_modules("--help") == self.BASE

    def test_report_never_imports_numpy(self, pipeline_dir, tmp_path):
        out = shutil.copytree(pipeline_dir, tmp_path / "run")
        assert stage_modules("report", "--out", str(out)) == self.BASE

    def test_lifetimes_loads_only_what_it_runs(self, pipeline_dir, tmp_path):
        loaded = stage_modules(
            "lifetimes", "--input", str(pipeline_dir / "dataset.csv"), "--out", str(tmp_path)
        )
        stage = {"chainlens.cache", "chainlens.dataset", "chainlens.survival", "chainlens.svgcharts"}
        assert loaded == self.BASE | stage | {"numpy"}

    def test_each_stage_lists_the_modules_of_the_names_it_calls(self):
        module_of = {name: module for module, names in PROVIDERS.items() for name in names}

        def modules_called(function) -> set[str]:
            used: set[str] = set()
            todo = [function]
            while todo:  # the function and the cli functions it calls
                names = _code_names(todo.pop().__code__) - used
                used |= names
                todo += [
                    value
                    for value in map(vars(cli).get, names)
                    if inspect.isfunction(value) and value.__module__ == cli.__name__
                ]
            return {module_of[name] for name in used if name in module_of}

        # the modules run() binds for a row that reads the panel
        assert modules_called(cli._read) == {"cache", "dataset"}
        for stage, row in COMMANDS.items():
            assert set(row.modules) == modules_called(row.handler), stage

    def test_every_provider_name_exists_in_its_module(self):
        for module, names in PROVIDERS.items():
            provider = importlib.import_module(f"chainlens.{module}")
            assert [name for name in names if not hasattr(provider, name)] == [], module

    def test_every_public_name_resolves_and_is_listed(self):
        listed = set(dir(chainlens))
        assert set(chainlens.__all__) <= listed
        for name in chainlens.__all__:
            assert getattr(chainlens, name) is not None
        assert not hasattr(chainlens, "no_such_name")
