"""chainlens benchmark: the CLI pipeline, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload demo_100 --seed 7 --seconds 10 --trace 0

Each workload runs chainlens the way a user does: one
``python -m chainlens.cli STAGE`` process per stage, each started when
the previous one exits (a closed loop with one client), with ``src`` on
``PYTHONPATH``. The seed only shapes the inputs: the generated data and
the stages' ``--seed``.

Workloads:

* ``demo_100``: the README demo, 100 coins with ``--format svg``:
  generate, clean, lifetimes, correlate, cluster, classify (all six
  classifiers), flags, report. Dominated by the classify stage. As in
  the README, the dataset is generated with ``--seed 7``; the benchmark
  seed is the seed of every later stage (train/test split, forest
  bootstraps, k-means restarts). The random forest grows to pure leaves,
  so its size and fit time follow the dataset: with the generation seed
  varied too, artifact bytes and peak RSS spread by 11% over ten seeds.
* ``api_ingest_1000``: a 1000-coin panel served by the loopback stand-in
  in ``history_server.py``, in its own process; ``ingest`` into a fresh
  cache, then the warm rerun. The first attempt at a fixed set of pages
  fails with 429 or 500, so the retry path runs.
* ``panel_1000``: the 1000-coin panel generated in setup, then ingest
  ``--input``, clean, lifetimes, correlate, cluster and flags. Runnable,
  but not listed in BENCHMARK.json (see CHANGES.md).

With ``--trace 0`` the run repeats the workload until ``--seconds`` of
pipeline time have passed and prints the end-to-end metrics: the median
pipeline ``wall_s``, the median ``setup_s`` over the workload's
``setup_repeats`` set-ups, the largest ``peak_rss_mb`` of any stage
process and ``artifact_bytes`` under ``--out``. The result's
``attempted`` and ``failed`` count stage invocations; a stage that exits
non-zero or fails an output check ends the run. With ``--trace 1`` it runs the
workload once plainly and once through ``tracer.py`` and prints the
per-layer metrics of the traced pass, including each layer's self time
and the tracing overhead (traced minus plain wall time), and names the
layer with the largest self time.

Every pass is checked: each stage exits 0, the artifact set is exactly
the expected one, the planted disappeared count is recovered, the
API-ingested ``dataset.csv`` equals the generated one byte for byte,
and every pass of a run leaves byte-identical artifacts, whose sha256
digest is printed. The last stdout line is the JSON result; the line
before it is ``{"meta": ...}`` with the digest and the environment. The
exit code is 1 when a check fails and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Relative to ROOT, where every stage runs: report.html embeds the --out
# path, so a fixed relative path keeps artifacts identical across passes
# and across checkouts.
OUT = ".perfbench/out"
OUT_DIR = ROOT / OUT

# The whole run must end within 180 s: no pass starts that the previous
# one's time says would end after this, and a stage still running then
# is killed.
DEADLINE_S = 170.0
API_KEY = "perfbench-key"

CLASSIFIER_KINDS = (
    "logistic_regression",
    "linear_svm",
    "decision_tree",
    "random_forest",
    "gaussian_nb",
    "knn",
)
STAGES = (
    "generate",
    "ingest",
    "clean",
    "lifetimes",
    "correlate",
    "cluster",
    "classify",
    "flags",
    "report",
)
STAGE_ARTIFACTS = {
    "generate": ("dataset.csv", "dataset_summary.json"),
    "ingest": ("dataset.csv", "dataset_summary.json"),
    "clean": ("features.csv", "cleaning_summary.json"),
    "lifetimes": ("lifetimes.csv", "pareto.csv", "pareto.svg", "survival_summary.json"),
    "correlate": ("correlations.csv", "correlation_report.json"),
    "cluster": ("assignments.csv", "elbow.csv", "elbow.svg", "cluster_summary.json"),
    "classify": ("metrics.csv", "metrics.svg", "classify_summary.json")
    + tuple(f"models/{kind}.json" for kind in CLASSIFIER_KINDS),
    "flags": ("flags.csv", "flags_summary.json"),
    "report": ("report.html",),
}
LAYERS = (
    "cli",
    "dataset",
    "synthetic",
    "api",
    "cleaning",
    "survival",
    "correlation",
    "kernels",
    "clustering",
    "classify",
    "svgcharts",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {"cli.import_s": "s"}
    for stage in STAGES:
        units[f"cli.{stage}.s"] = "s"
        units[f"cli.{stage}.rss_mb"] = "MB"
    units.update(
        {
            "dataset.load_csv.s": "s",
            "dataset.load_csv.calls": "count",
            "dataset.load_csv.rows": "count",
            "dataset.save_csv.s": "s",
            "dataset.Dataset.build.s": "s",
            "synthetic.generate_synthetic.s": "s",
            "api.fetch_history.cold_s": "s",
            "api.fetch_history.warm_s": "s",
            "api.pages": "count",
            "api.requests": "count",
            "api.useful_ratio": "ratio",
            "api.cache_hits": "count",
            "cleaning.row_feature_table.s": "s",
            "cleaning.row_feature_table.calls": "count",
            "cleaning.aggregate_stats.s": "s",
            "cleaning.aggregate_stats.calls": "count",
            "cleaning.impute_mean.s": "s",
            "cleaning.impute_max_supply.s": "s",
            "cleaning.cells_imputed": "count",
            "survival.lifetimes.s": "s",
            "survival.lifetimes.calls": "count",
            "correlation.price_factor_report.s": "s",
            "correlation.correlate.s": "s",
            "correlation.correlate.calls": "count",
            "kernels.count_inversions.s": "s",
            "kernels.count_inversions.calls": "count",
            "kernels.count_inversions.elements": "count",
            "clustering.cluster_report.s": "s",
            "clustering.elbow.s": "s",
            "clustering.kmeans_fit.calls": "count",
            "clustering.lloyd_iterations": "count",
            "classify.label_risky.s": "s",
            "classify.train_test_split.s": "s",
        }
    )
    for kind in CLASSIFIER_KINDS:
        units[f"classify.fit.{kind}.s"] = "s"
        units[f"classify.predict.{kind}.s"] = "s"
        units[f"classify.save_model.{kind}.s"] = "s"
        units[f"classify.model_bytes.{kind}"] = "bytes"
    units["svgcharts.s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class CheckFailed(Exception):
    """An output check failed; the run reports correct=false."""


@dataclass
class StageRun:
    stage: str
    seconds: float
    rss_mb: float
    cpu_s: float
    spans: list | None = None


@dataclass
class Pass:
    """One execution of a workload's pipeline."""

    wall_s: float = 0.0
    stages: list[StageRun] = field(default_factory=list)
    digest: str = ""
    artifact_bytes: int = 0
    server: list[dict] = field(default_factory=list)


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["CHAINLENS_API_KEY"] = API_KEY
    return env


class Runner:
    """Starts stage processes one at a time and counts their outcomes."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = stage_env()
        self.attempted = 0
        self.failed = 0
        self.logs = WORK / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)

    def stage(self, stage: str, args: list[str], trace: bool) -> StageRun:
        """Run one CLI stage to completion; raise CheckFailed unless it
        exits 0."""
        spans_path = WORK / "spans.json"
        if trace:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "chainlens.cli"]
        argv += [stage] + args
        self.attempted += 1
        log = self.logs / f"{stage}.log"
        with log.open("wb") as sink:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=sink, stderr=subprocess.STDOUT
            )
            watchdog = threading.Timer(
                max(1.0, self.deadline - time.monotonic()), proc.kill
            )
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            tail = log.read_text(errors="replace")[-2000:]
            raise CheckFailed(f"stage {stage} exited {proc.returncode}:\n{tail}")
        spans = json.loads(spans_path.read_text()) if trace else None
        cpu = usage.ru_utime + usage.ru_stime
        return StageRun(stage, seconds, usage.ru_maxrss / 1024.0, cpu, spans)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            raise CheckFailed(message)


def tree_digest(out: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and total bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest(), total


def import_probe() -> dict:
    """Import chainlens.cli in a fresh interpreter; report the import
    time and the environment the package sees."""
    code = (
        "import json, platform, time\n"
        "t = time.perf_counter()\n"
        "import chainlens.cli\n"
        "t = time.perf_counter() - t\n"
        "import numpy, chainlens.kernels as k\n"
        "print(json.dumps({'import_s': t, 'python': platform.python_version(),"
        " 'numpy': numpy.__version__, 'jit_enabled': k.JIT_ENABLED}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=stage_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise CheckFailed(f"cannot import chainlens.cli:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


class PanelServer:
    """The stand-in history server process for one run."""

    def __init__(self, spec_path: Path, csv_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "history_server.py"), str(spec_path),
             str(csv_path)],
            cwd=ROOT,
            env=stage_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise CheckFailed("history server exited before it was ready")
        self.ready = json.loads(line)
        self.base_url = f"http://127.0.0.1:{self.ready['port']}"

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(self.base_url + path, timeout=10) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Workload:
    """Set-up, one pass of the timed pipeline, and per-pass checks."""

    name = ""
    timed_stages: tuple[str, ...] = ()
    setup_repeats = 3

    def __init__(self, seed: int, smoke: bool, runner: Runner):
        self.seed = seed
        self.smoke = smoke
        self.runner = runner
        self.probes: list[dict] = []
        self.setup_times: list[float] = []
        # generate_synthetic times of a set-up that generates the input
        self.generate_times: list[float] = []

    def setup_once(self) -> None:
        self.probes.append(import_probe())

    def setup(self) -> None:
        for _ in range(self.setup_repeats):
            started = time.perf_counter()
            self.setup_once()
            self.setup_times.append(time.perf_counter() - started)

    def close(self) -> None:
        pass

    def expected_artifacts(self) -> set[str]:
        return {name for stage in self.timed_stages for name in STAGE_ARTIFACTS[stage]}

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def run_pass(self, trace: bool) -> Pass:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
        self.before_pass()
        commands = self.commands()
        result = Pass()
        started = time.perf_counter()
        for stage, args in commands:
            result.stages.append(self.runner.stage(stage, args, trace))
            self.after_stage(result)
        result.wall_s = time.perf_counter() - started
        found = {
            p.relative_to(OUT_DIR).as_posix() for p in OUT_DIR.rglob("*") if p.is_file()
        }
        expected = self.expected_artifacts()
        self.runner.check(
            found == expected,
            f"artifact set differs: missing {sorted(expected - found)},"
            f" unexpected {sorted(found - expected)}",
        )
        self.check_pass(result)
        result.digest, result.artifact_bytes = tree_digest(OUT_DIR)
        return result

    def before_pass(self) -> None:
        pass

    def after_stage(self, result: Pass) -> None:
        pass

    def check_pass(self, result: Pass) -> None:
        pass

    def check_survival(self, generate: dict, seed: int) -> None:
        from history_server import synthetic_spec

        planted = synthetic_spec({"seed": seed, "generate": generate})
        summary = json.loads((OUT_DIR / "survival_summary.json").read_text())
        self.runner.check(
            summary["disappeared_count"] == planted.disappeared_count,
            f"survival found {summary['disappeared_count']} disappeared coins,"
            f" planted {planted.disappeared_count}",
        )


class Demo(Workload):
    name = "demo_100"
    timed_stages = (
        "generate",
        "clean",
        "lifetimes",
        "correlate",
        "cluster",
        "classify",
        "flags",
        "report",
    )

    data_seed = 7

    def generate_knobs(self) -> dict:
        # The smallest demo the generator accepts is 100 coins; the smoke
        # run thins the snapshots instead.
        return {"snapshot_interval_days": 30} if self.smoke else {}

    def commands(self):
        config = WORK / "demo.json"
        config.write_text(
            json.dumps({"seed": self.seed, "generate": self.generate_knobs()})
        )
        common = ["--config", str(config), "--out", OUT, "--format", "svg"]
        generate = ("generate", common + ["--seed", str(self.data_seed)])
        return [generate] + [(stage, common) for stage in self.timed_stages[1:]]

    def check_pass(self, result: Pass) -> None:
        self.check_survival(self.generate_knobs(), self.data_seed)


class PanelWorkload(Workload):
    """Shared set-up of the 1000-coin workloads: the panel's spec."""

    # one set-up generates 169k rows (~10 s), so fewer repeats fit the
    # run budget
    setup_repeats = 2

    def panel_spec(self) -> dict:
        generate = {"n_coins": 100 if self.smoke else 1000}
        if self.smoke:
            generate["snapshot_interval_days"] = 30
        return {
            "seed": self.seed,
            "generate": generate,
            "page_size": 500 if self.smoke else 5000,
            "api_key": API_KEY,
        }

    def write_spec(self) -> Path:
        path = WORK / "panel_spec.json"
        path.write_text(json.dumps(self.panel_spec()))
        return path


class Panel(PanelWorkload):
    name = "panel_1000"
    timed_stages = ("ingest", "clean", "lifetimes", "correlate", "cluster", "flags")

    def setup_once(self) -> None:
        super().setup_once()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "history_server.py"),
             str(self.write_spec()), str(WORK / "panel.csv"), "--generate-only"],
            cwd=ROOT,
            env=stage_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise CheckFailed(f"panel generation failed:\n{proc.stderr[-2000:]}")
        self.generate_times.append(json.loads(proc.stdout)["generate_s"])

    def commands(self):
        common = ["--out", OUT, "--format", "svg", "--seed", str(self.seed)]
        first = ("ingest", ["--input", ".perfbench/panel.csv"] + common)
        return [first] + [(stage, common) for stage in self.timed_stages[1:]]

    def check_pass(self, result: Pass) -> None:
        self.check_survival(self.panel_spec()["generate"], self.seed)


class ApiIngest(PanelWorkload):
    name = "api_ingest_1000"
    timed_stages = ("ingest",)

    server: PanelServer | None = None

    def setup_once(self) -> None:
        super().setup_once()
        if self.server is not None:
            self.server.stop()
        self.server = PanelServer(self.write_spec(), WORK / "panel.csv")
        self.generate_times.append(self.server.ready["generate_s"])

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    def commands(self):
        config = WORK / "api.json"
        api = {
            "base_url": self.server.base_url,
            # the throttle never binds; retries wait 0.05 s, 0.1 s, ...
            "rate_limit": 1000.0,
            "backoff_seconds": 0.05,
            "max_attempts": 4,
            "cache_dir": ".perfbench/api_cache",
        }
        config.write_text(json.dumps({"out": OUT, "api": api}))
        return [("ingest", ["--config", str(config)])] * 2

    def before_pass(self) -> None:
        shutil.rmtree(WORK / "api_cache", ignore_errors=True)
        self.server.get("/_reset")

    def after_stage(self, result: Pass) -> None:
        result.server.append(self.server.get("/_stats"))
        self.server.get("/_reset")

    def check_pass(self, result: Pass) -> None:
        cold, warm = result.server
        pages = self.server.ready["pages"]
        self.runner.check(
            cold["served"] == pages,
            f"cold ingest fetched {cold['served']} of {pages} pages",
        )
        self.runner.check(
            warm["requests"] == 0,
            f"warm ingest sent {warm['requests']} requests; expected all cache hits",
        )
        ingested = (OUT_DIR / "dataset.csv").read_bytes()
        generated = (WORK / "panel.csv").read_bytes()
        self.runner.check(
            ingested == generated,
            "API-ingested dataset.csv differs from the generated panel",
        )


WORKLOADS = {cls.name: cls for cls in (Demo, ApiIngest, Panel)}


def span_metrics(result: Pass) -> dict[str, float]:
    """Per-layer figures from the spans of one traced pass: for each span
    name N, ``N.s`` (total time), ``N.calls`` and ``N.<count>`` for each
    count its spans carry, plus ``<layer>.self_s``."""
    metrics: dict[str, float] = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    fetch = []
    for run in result.stages:
        spans = run.spans
        child_time = [0.0] * len(spans)
        top_level = 0.0
        for name, start, end, parent, _ in spans:
            if parent is None:
                top_level += end - start
            else:
                child_time[parent] += end - start
        self_time["cli"] += run.seconds - top_level
        for index, (name, start, end, parent, counts) in enumerate(spans):
            duration = end - start
            metrics[f"{name}.s"] = metrics.get(f"{name}.s", 0.0) + duration
            metrics[f"{name}.calls"] = metrics.get(f"{name}.calls", 0) + 1
            for key, value in counts.items():
                metrics[f"{name}.{key}"] = metrics.get(f"{name}.{key}", 0) + value
            self_time[name.split(".")[0]] += duration - child_time[index]
            if name == "api.fetch_history":
                fetch.append(duration)
    metrics["api.fetch_history.cold_s"] = fetch[0] if fetch else 0.0
    metrics["api.fetch_history.warm_s"] = fetch[1] if len(fetch) > 1 else 0.0
    metrics["clustering.lloyd_iterations"] = metrics.get("clustering.lloyd.iterations", 0)
    metrics["svgcharts.s"] = sum(
        v for k, v in metrics.items() if k.startswith("svgcharts.") and k.endswith(".s")
    )
    for kind in CLASSIFIER_KINDS:
        metrics[f"classify.model_bytes.{kind}"] = metrics.get(
            f"classify.save_model.{kind}.bytes", 0
        )
    for layer, seconds in self_time.items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics


def layer_metrics(workload: Workload, plain: Pass, traced: Pass) -> dict[str, float]:
    metrics = {"cli.import_s": statistics.median(p["import_s"] for p in workload.probes)}
    for stage in STAGES:
        runs = [run for run in traced.stages if run.stage == stage]
        metrics[f"cli.{stage}.s"] = sum((run.seconds for run in runs), 0.0)
        metrics[f"cli.{stage}.rss_mb"] = max((run.rss_mb for run in runs), default=0.0)
    metrics.update(span_metrics(traced))
    if workload.generate_times:
        # generated in set-up by history_server.py, timed around the call
        metrics["synthetic.generate_synthetic.s"] = statistics.median(
            workload.generate_times
        )
    cold = traced.server[0] if traced.server else {}
    warm = traced.server[1] if traced.server else {}
    pages = workload.server.ready["pages"] if isinstance(workload, ApiIngest) else 0
    requests = cold.get("requests", 0)
    metrics["api.pages"] = pages
    metrics["api.requests"] = requests
    metrics["api.useful_ratio"] = cold.get("served", 0) / requests if requests else 0.0
    metrics["api.cache_hits"] = 2 * pages - cold.get("served", 0) - warm.get("served", 0)
    summary = OUT_DIR / "cleaning_summary.json"
    imputed = 0
    if summary.exists():
        doc = json.loads(summary.read_text())
        imputed = sum(doc["missing_before"].values()) - sum(doc["missing_after"].values())
    metrics["cleaning.cells_imputed"] = imputed
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    # a function the pass never called reads 0
    return {
        name: metrics.get(name, 0.0 if unit == "s" else 0)
        for name, unit in per_layer_units().items()
    }


def environment(probe: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "chainlens").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "jit_enabled": probe["jit_enabled"],
        "commit": commit,
        "src_sha256": source.hexdigest(),
    }


def measure(workload: Workload, seconds: float, trace: bool, started: float) -> dict:
    """Set up, run the workload's passes and check them; return the
    metrics, the passes and the artifact digest."""
    workload.setup()
    passes = []
    measured = 0.0
    while True:
        passes.append(workload.run_pass(trace=False))
        measured += passes[-1].wall_s
        remaining = started + DEADLINE_S - time.monotonic()
        if trace or measured >= seconds or passes[-1].wall_s > remaining:
            break
    if trace:
        passes.append(workload.run_pass(trace=True))
    digests = {p.digest for p in passes}
    workload.runner.check(
        len(digests) == 1, f"passes of one run left different artifacts: {digests}"
    )
    if trace:
        metrics = layer_metrics(workload, passes[0], passes[-1])
    else:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(workload.setup_times),
            "peak_rss_mb": max(run.rss_mb for p in passes for run in p.stages),
            "artifact_bytes": passes[-1].artifact_bytes,
        }
    return {"metrics": metrics, "passes": passes, "digest": digests.pop()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chainlens pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced inputs, for the benchmark's tests"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "chainlens" / "cli.py").is_file():
        print(f"perfbench: no chainlens sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    runner = Runner(deadline=started + DEADLINE_S)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, runner)
    try:
        outcome = measure(workload, args.seconds, bool(args.trace), started)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        if not workload.probes:  # chainlens.cli could not even be imported
            return 2
        failed = {"attempted": max(runner.attempted, 1), "failed": max(runner.failed, 1)}
        print(json.dumps({"correct": False, **failed, "metrics": {}}))
        return 1
    finally:
        workload.close()

    if args.trace:
        layer = max(LAYERS, key=lambda name: outcome["metrics"][f"{name}.self_s"])
        seconds = outcome["metrics"][f"{layer}.self_s"]
        print(f"largest self time on {workload.name}: {layer} ({seconds:.3f} s)")
    for index, one in enumerate(outcome["passes"], start=1):
        stages = ", ".join(
            f"{run.stage} {run.seconds:.3f} cpu {run.cpu_s:.3f}" for run in one.stages
        )
        print(f"pass {index}: wall_s {one.wall_s:.3f} ({stages})")
    print(f"artifact sha256 on {workload.name}: {outcome['digest']}")
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": len(outcome["passes"]),
        "artifact_sha256": outcome["digest"],
        "env": environment(workload.probes[0]),
    }
    print(json.dumps({"meta": meta}))
    units = per_layer_units() if args.trace else END_TO_END
    metrics = {
        name: {"value": outcome["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    result = {"correct": True, "attempted": runner.attempted, "failed": 0}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
