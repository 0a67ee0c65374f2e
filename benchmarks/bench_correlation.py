"""Compare the JIT and pure-numpy Kendall kernels.

The backend is chosen at import time from CHAINLENS_PURE_NUMPY, so
each backend runs in its own subprocess and reports timings back as
JSON; this parent process prints the comparison table.

Usage:
    python3 benchmarks/bench_correlation.py
    python3 benchmarks/bench_correlation.py --sizes 10000,1000000 --repeats 5
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time


def parse_sizes(text: str) -> list[int]:
    sizes = [int(part) for part in text.split(",") if part.strip()]
    if not sizes or any(n < 2 for n in sizes):
        raise argparse.ArgumentTypeError("sizes must be integers >= 2")
    return sizes


def make_pairs(n: int, seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = 0.9 * x + math.sqrt(1.0 - 0.81) * rng.normal(size=n)
    return x, y


def worker(sizes: list[int], repeats: int, seed: int) -> None:
    from chainlens.correlation import correlate
    from chainlens.kernels import JIT_ENABLED

    results = {}
    taus = {}
    warm_x, warm_y = make_pairs(512, seed)
    correlate("kendall", warm_x, warm_y)  # JIT compile outside the clock
    for n in sizes:
        x, y = make_pairs(n, seed)
        best = math.inf
        for _ in range(repeats):
            started = time.perf_counter()
            tau = correlate("kendall", x, y)
            best = min(best, time.perf_counter() - started)
        results[str(n)] = best
        taus[str(n)] = tau
    print(json.dumps({"jit_enabled": JIT_ENABLED, "seconds": results, "tau": taus}))


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_backend(pure_numpy: bool, args) -> dict:
    env = dict(os.environ)
    # the worker imports chainlens from this checkout, installed or not
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC, env.get("PYTHONPATH")) if part
    )
    if pure_numpy:
        env["CHAINLENS_PURE_NUMPY"] = "1"
    else:
        env.pop("CHAINLENS_PURE_NUMPY", None)
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--worker",
        "--sizes",
        ",".join(str(n) for n in args.sizes),
        "--repeats",
        str(args.repeats),
        "--seed",
        str(args.seed),
    ]
    proc = subprocess.run(
        command, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=parse_sizes,
        default=[1_000, 10_000, 100_000, 1_000_000],
        help="comma-separated vector lengths (default 1e3..1e6)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        worker(args.sizes, args.repeats, args.seed)
        return 0

    jit = run_backend(pure_numpy=False, args=args)
    numpy_only = run_backend(pure_numpy=True, args=args)
    if not jit["jit_enabled"]:
        print("note: numba unavailable; 'jit' column also ran the numpy path")

    print(f"{'n':>10}  {'jit (s)':>10}  {'numpy (s)':>10}  {'speedup':>8}  tau")
    for n in args.sizes:
        key = str(n)
        a = jit["seconds"][key]
        b = numpy_only["seconds"][key]
        drift = abs(jit["tau"][key] - numpy_only["tau"][key])
        if drift > 1e-12:
            print(f"backend tau mismatch at n={n}: {drift:e}", file=sys.stderr)
            return 1
        print(
            f"{n:>10}  {a:>10.4f}  {b:>10.4f}  {b / a:>7.1f}x  {jit['tau'][key]:+.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
