"""Record benchmark numbers: BENCH_<workload>.json at the repository root.

Usage (from the repository root)::

    python3 scripts/record_bench.py

runs ``perfbench/run.py --workload W --seed 7 --trace 0`` five times
for each workload the harness defines (its ``WORKLOADS``), one after
another, and reads the harness's last two stdout lines: ``{"meta": ...}``
and the result. Each file holds, for every end-to-end metric, the value
of each run, their median and quartiles (``statistics.quantiles``,
exclusive method), and the last run's ``meta``: the environment
(machine, Python, numpy, ``jit_enabled``, commit, ``src_sha256``) and
the artifact digest, which every run must repeat. A failed run or a
differing digest writes no file for its workload and exits 1.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "run.py"
RUNS = 5  # harness runs per workload
SEED = 7


def workloads() -> list[str]:
    """The harness's workload names, read from ``perfbench/run.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", HARNESS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return sorted(module.WORKLOADS)


def run_once(workload: str) -> tuple[dict, dict]:
    """The harness's ``meta`` and result of one untraced run."""
    command = [sys.executable, str(HARNESS), "--workload", workload,
               "--seed", str(SEED), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload}: perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    *_, meta, result = proc.stdout.splitlines()
    return json.loads(meta)["meta"], json.loads(result)


def record(workload: str) -> dict:
    metas, metrics = [], {}
    for _ in range(RUNS):
        meta, result = run_once(workload)
        metas.append(meta)
        for name, metric in result["metrics"].items():
            entry = metrics.setdefault(name, {"unit": metric["unit"], "runs": []})
            entry["runs"].append(metric["value"])
    digests = {meta["artifact_sha256"] for meta in metas}
    if len(digests) != 1:
        sys.exit(f"{workload}: the runs wrote different artifacts: {sorted(digests)}")
    for entry in metrics.values():
        q1, median, q3 = statistics.quantiles(entry["runs"], n=4)
        entry.update(median=median, q1=q1, q3=q3, iqr=q3 - q1)
    return {"workload": workload, "runs": RUNS, "meta": metas[-1], "metrics": metrics}


def main() -> int:
    for workload in workloads():
        document = record(workload)
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path.name}: wall_s median {document['metrics']['wall_s']['median']:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
