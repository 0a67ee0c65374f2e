"""Compare two sets of benchmark results, one row per workload.

Usage::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the saved standard output of ``run.py`` runs, one
file per run (``--trace 0``). For every workload and end-to-end metric
the table shows each side's median with its first and third quartiles
(``statistics.quantiles(values, n=4)``) and run count, the change of
the medians, and ``!`` where the change is worse than the metric's
bound in BENCHMARK.json. Artifact digests are compared seed by seed.
Failed runs are counted and left out of the statistics.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> tuple[dict, dict]:
    """Map workload -> list of (meta, result) for good runs, and
    workload -> failed run count."""
    runs: dict[str, list] = {}
    failed: dict[str, int] = {}
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        lines = path.read_text(errors="replace").strip().splitlines()
        meta = next(
            (json.loads(line)["meta"] for line in lines if line.startswith('{"meta"')),
            None,
        )
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if meta is None or meta["trace"] != 0:
            continue
        if not result or not result.get("correct"):
            failed[meta["workload"]] = failed.get(meta["workload"], 0) + 1
            continue
        runs.setdefault(meta["workload"], []).append((meta, result))
    return runs, failed


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py BASE_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, base_failed = load_runs(Path(argv[0]))
    change, change_failed = load_runs(Path(argv[1]))
    for workload in sorted(set(base) | set(change)):
        a = base.get(workload, [])
        b = change.get(workload, [])
        print(
            f"== {workload}: base {len(a)} runs ({base_failed.get(workload, 0)} failed),"
            f" change {len(b)} runs ({change_failed.get(workload, 0)} failed)"
        )
        for name, metric in metrics.items():
            sides = []
            for runs in (a, b):
                values = [r["metrics"][name]["value"] for _, r in runs]
                sides.append(summary(values) if values else None)
            cells = [
                "-" if s is None else f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"
                for s in sides
            ]
            delta = ""
            if sides[0] and sides[1] and sides[0][0]:
                change_share = (sides[1][0] - sides[0][0]) / sides[0][0]
                worse = change_share if metric["better"] == "lower" else -change_share
                flag = " !" if worse > metric["bound"] else ""
                delta = f"{change_share:+.2%}{flag}"
            print(f"  {name:16s} {metric['unit']:6s} {cells[0]:>36s}  {cells[1]:>36s}  {delta}")
        digests_a = {m["seed"]: m["artifact_sha256"] for m, _ in a}
        digests_b = {m["seed"]: m["artifact_sha256"] for m, _ in b}
        shared = sorted(set(digests_a) & set(digests_b))
        differ = [s for s in shared if digests_a[s] != digests_b[s]]
        print(
            f"  artifacts: {len(shared) - len(differ)} of {len(shared)} shared seeds"
            f" identical" + (f"; differ on seeds {differ}" if differ else "")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
