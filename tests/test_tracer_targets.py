"""Names the benchmark tracer (perfbench/tracer.py) relies on.

The tracer replaces functions by ``(module, attribute)``, rewraps
``Dataset.build.__func__`` as a classmethod, records the ``len()`` of
what ``load_csv`` and ``fetch_history`` return, and names the classify
spans from ``ClassifierSpec.kind`` and ``TrainedModel.spec.kind``; the
benchmark's environment probe reads ``chainlens.kernels.JIT_ENABLED``.
A refactor that breaks one of these breaks every traced run.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from chainlens.api import ApiClientConfig, fetch_history
from chainlens.classify import ClassifierSpec, LabeledTable, fit, save_model
from chainlens.dataset import Dataset, load_csv, save_csv
from chainlens.rules import CLASSIFIER_KINDS
from chainlens.synthetic import SyntheticSpec, generate_synthetic
from mock_server import MockHistoryServer

FIXTURES = Path(__file__).parent / "fixtures"

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    unresolved = [
        f"{module_name}.{attribute}"
        for module_name, attribute, *_ in targets
        if not callable(getattr(importlib.import_module(module_name), attribute, None))
    ]
    assert unresolved == []
    assert callable(importlib.import_module("chainlens.dataset").Dataset.build)


def test_environment_probe_flag_exists():
    kernels = importlib.import_module("chainlens.kernels")
    assert kernels.JIT_ENABLED is False


def test_dataset_build_is_a_classmethod():
    assert isinstance(inspect.getattr_static(Dataset, "build"), classmethod)
    assert callable(Dataset.build.__func__)


def test_loader_results_support_len(tmp_path):
    rows = json.loads((FIXTURES / "api_payload_format.json").read_text())["example_rows"]
    with MockHistoryServer(rows, page_size=4) as server:
        config = ApiClientConfig(
            base_url=server.base_url, api_key="test-key", cache_dir=tmp_path
        )
        fetched = fetch_history(config)
    assert len(fetched) == len(load_csv(FIXTURES / "api_equivalent.csv")) == len(rows)


def test_classify_span_names_and_model_bytes(tmp_path):
    tracer = load_tracer()
    names = {attribute: name for _, attribute, name, *_ in tracer.TARGETS}
    spec = ClassifierSpec.make("knn")
    X = np.arange(12, dtype=np.float64).reshape(6, 2)
    table = LabeledTable(
        feature_names=("a", "b"),
        row_ids=tuple(f"C_c@{i}" for i in range(6)),
        keys=("C_c",) * 6,
        X=X,
        y=np.array([0, 1] * 3),
    )
    trained = fit(spec, table)
    path = tmp_path / "knn.json"
    save_model(trained, path)
    assert names["fit"]((spec, table)) == "classify.fit.knn"
    assert names["predict"]((trained, table)) == "classify.predict.knn"
    assert names["save_model"]((trained, path)) == "classify.save_model.knn"
    assert tracer._model_bytes((trained, path), None) == {
        "bytes": path.stat().st_size
    }


def test_traced_classify_records_the_stage_spans(tmp_path):
    # the stage binds its names in chainlens.cli only when it runs; the
    # tracer's wrappers, installed first, must be the ones it calls
    spec = SyntheticSpec(n_coins=20, seed=3, disappeared_fraction=0.4, horizon_days=400)
    save_csv(generate_synthetic(spec), tmp_path / "dataset.csv")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "classify", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text())}
    expected = {"dataset.load_csv", "classify.label_risky", "classify.train_test_split"}
    for stage in ("fit", "predict", "save_model"):
        expected |= {f"classify.{stage}.{kind}" for kind in CLASSIFIER_KINDS}
    assert expected <= names
