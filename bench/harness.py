"""Shared plumbing of the benchmark: paths, environment, host speed.

Everything here is independent of the workloads, so ``run.py``,
``workloads.py``, ``layers.py`` and the tests share one definition of
where state lives and which environment the program sees.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch state (caches, journals, sockets) and trace files.  It sits on
#: the checkout's own filesystem, not tmpfs, so fsync costs are real.
OUT_DIR = ROOT / ".bench_out"

#: Every grid's root seed unless ``--seed`` says otherwise.
DEFAULT_SEED = 20160816


def hermetic_env() -> dict[str, str]:
    """The process environment without any ``REPRO_*`` switch.

    Those variables change what the program does (verification, kill
    switches, cache location, fault and chaos injection), so neither the
    benchmark process nor the server it starts may inherit them.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def scrub_environment() -> None:
    """Drop ``REPRO_*`` variables from this process and put ``src`` on the path."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0   # Linux reports KiB


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def stop_process(proc: subprocess.Popen, timeout_s: float = 20.0) -> None:
    """Wait for ``proc`` to exit; terminate, then kill, if it will not."""
    try:
        proc.wait(timeout=timeout_s)
        return
    except subprocess.TimeoutExpired:
        proc.terminate()
    try:
        proc.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


#: The gauge's fixed work: a pure-Python loop that imports nothing of the
#: program, so no change to the program can move it.
GAUGE_LOOP = """\
import sys, time

def loop():
    s = 0
    for i in range(300000):
        s += i * i % 7
    return s

for _ in sys.stdin:
    t0 = time.perf_counter()
    loop()
    print(time.perf_counter() - t0, flush=True)
"""
#: The gauge's reading on the 2-vCPU host the baseline was measured on
#: (Python 3.11) at full speed: the reference speed.
GAUGE_REF_S = 0.024


class SpeedGauge:
    """How fast the host runs Python right now.

    The host the baseline was measured on runs the same code up to a
    third slower for seconds to minutes at a time, and process CPU time
    slows with it, so neither wall nor CPU time of one run compares with
    another's.  The gauge times a fixed loop on two helper processes at
    once (one per worker core) and keeps the faster.  ``scale()`` is the
    factor that turns a wall time measured right after it into the time
    at the reference speed (``GAUGE_REF_S``).  Use it as a context
    manager: the helpers are stopped on exit.
    """

    def __init__(self) -> None:
        self.procs = [
            subprocess.Popen([sys.executable, "-c", GAUGE_LOOP],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
            for _ in range(2)       # one per worker core
        ]
        self.readings: list[float] = []
        self.measure()                  # the first loop warms the helpers
        self.readings.clear()

    def measure(self) -> float:
        for proc in self.procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        seconds = min(float(proc.stdout.readline()) for proc in self.procs)
        self.readings.append(seconds)
        return seconds

    def scale(self) -> float:
        return GAUGE_REF_S / self.measure()

    def close(self) -> None:
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            stop_process(proc)
            proc.stdout.close()

    def __enter__(self) -> "SpeedGauge":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NoSpans:
    """Span recorder of an untraced run: every span is a no-op."""

    def span(self, name: str, cell: str = "", *, tid: str = "main"):
        return contextlib.nullcontext()
