"""Tests of the benchmark itself, on reduced inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_tracer_passes_results_and_exceptions_through():
    tracer = Tracer()
    payload = object()
    returned = tracer.wrap("layer.ok", lambda x: x, lambda args, result: {"n": 1})
    assert returned(payload) is payload

    error = ValueError("boom")

    def fail():
        raise error

    with pytest.raises(ValueError) as caught:
        tracer.wrap("layer.fail", fail)()
    assert caught.value is error

    names = [span[0] for span in tracer.spans]
    assert names == ["layer.ok", "layer.fail"]
    assert tracer.spans[0][4] == {"n": 1}
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_nested_spans_record_their_parent():
    tracer = Tracer()
    inner = tracer.wrap("b.inner", lambda: 1)
    outer = tracer.wrap(lambda args: f"a.outer.{args[0]}", lambda tag: inner())
    assert outer("x") == 1
    assert [(s[0], s[3]) for s in tracer.spans] == [("a.outer.x", None), ("b.inner", 0)]


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_listed_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    meta = json.loads(lines[-2])["meta"]
    assert meta["workload"] == workload and len(meta["artifact_sha256"]) == 64
    assert {"nproc", "cpu_model", "python", "numpy", "jit_enabled", "commit"} <= set(
        meta["env"]
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "demo_100", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
