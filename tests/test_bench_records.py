"""The committed benchmark numbers: each BENCH_<workload>.json names a
workload the harness defines and the environment it was measured in."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def harness():
    """``perfbench/run.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_workload_has_a_record(harness):
    assert [path.name for path in RECORDS] == sorted(
        f"BENCH_{name}.json" for name in harness.WORKLOADS
    )


@pytest.mark.parametrize("path", RECORDS, ids=[path.stem for path in RECORDS])
def test_record_names_a_workload_and_its_environment(harness, path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{record['workload']}.json"
    assert record["workload"] in harness.WORKLOADS
    assert record["meta"]["workload"] == record["workload"]
    env = record["meta"]["env"]
    assert {"python", "numpy", "jit_enabled", "commit", "src_sha256"} <= set(env)
    # whether src was the named commit's, or numbers of uncommitted code
    assert type(record["src_clean"]) is bool
    assert env["commit"] or not record["src_clean"]
    # the SIMD code paths numpy ran: its compiled-in baseline and the
    # dispatch targets it enabled on the machine
    cpu = record["numpy_cpu"]
    assert cpu["baseline"] and all(type(name) is str for name in cpu["baseline"])
    assert type(cpu["dispatch"]) is list and all(type(name) is str for name in cpu["dispatch"])
    assert len(record["meta"]["artifact_sha256"]) == 64
    for name, unit in harness.END_TO_END.items():
        metric = record["metrics"][name]
        assert metric["unit"] == unit
        assert len(metric["runs"]) == record["runs"] >= 5
        assert metric["q1"] <= metric["median"] <= metric["q3"]
        assert metric["iqr"] == metric["q3"] - metric["q1"]
