"""Names the benchmark tracer (perfbench/tracer.py) relies on.

The tracer replaces functions by ``(module, attribute)`` and the
benchmark's environment probe reads ``chainlens.kernels.JIT_ENABLED``;
a refactor that drops one of these bindings breaks every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
