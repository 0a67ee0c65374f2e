"""scripts/record_bench.py leaves no harness process behind when it is
stopped in the middle of a run."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

RECORDER = Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py"

# Stands in for perfbench/run.py: one workload, whose run starts a
# sleeping child (as the harness starts stages and its history server),
# writes both pids and then sleeps.
FAKE_HARNESS = """\
import os, subprocess, sys, time
WORKLOADS = {"fake": None}
if __name__ == "__main__":
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    with open("pids.tmp", "w") as fh:
        fh.write(f"{os.getpid()} {child.pid}")
    os.replace("pids.tmp", "pids")
    time.sleep(60)
"""

# Runs the recorder's main() against the fake harness, with every path in
# the test's directory.
DRIVER = """\
import importlib.util, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("record_bench", {recorder!r})
recorder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(recorder)
recorder.ROOT = Path({root!r})
recorder.HARNESS = recorder.ROOT / "harness.py"
sys.exit(recorder.main())
"""


def alive(pid: int) -> bool:
    """Whether ``pid`` runs: it exists and is not a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_until(condition, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.05)
    return condition()


def test_sigterm_stops_the_harness_and_its_children(tmp_path):
    (tmp_path / "harness.py").write_text(FAKE_HARNESS)
    driver = DRIVER.format(recorder=str(RECORDER), root=str(tmp_path))
    recorder = subprocess.Popen([sys.executable, "-c", driver], stderr=subprocess.PIPE)
    pids_file = tmp_path / "pids"
    pids = []
    try:
        assert wait_until(pids_file.exists, 30), "the fake harness never started"
        pids = [int(pid) for pid in pids_file.read_text().split()]
        assert all(map(alive, pids))
        recorder.send_signal(signal.SIGTERM)
        recorder.wait(timeout=10)
        assert wait_until(lambda: not any(map(alive, pids)), 5), [
            pid for pid in pids if alive(pid)
        ]
        assert recorder.returncode == 128 + signal.SIGTERM
        assert not list(tmp_path.glob("BENCH_*.json"))
    finally:
        if recorder.poll() is None:
            recorder.kill()
        recorder.wait()
        for pid in filter(alive, pids):
            os.kill(pid, signal.SIGKILL)
        recorder.stderr.close()
