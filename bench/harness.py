"""Timing, statistics, tracing and run context for the aplcm benchmark.

The benchmark drives the program from outside: it imports the package
from ``src/`` of the checkout it lives in, calls public functions one at
a time (a closed loop with one client), and times each call with
``time.perf_counter_ns``. Nothing here reaches into private state of the
package.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import platform
import sys
import types
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns as clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC = ROOT / "BENCHMARK.json"

OK, REFUSED, WRONG = "ok", "refused", "wrong"

# Fresh set-ups per run; setup_s is their median.
SETUP_REPS = 15

# Public names the workloads call; a name the package no longer exports
# loads as None, and the per-layer metrics that need it report "absent".
PUBLIC_NAMES = (
    "DEFAULT_BUDGET",
    "Progression",
    "Window",
    "build_period_table",
    "closed_form_period",
    "exceptional_factor",
    "fast_lcm",
    "lcm_many",
    "lcm_upto",
    "load_period_table",
    "primes_upto",
    "run_suite",
    "save_period_table",
    "smallest_period",
    "window_terms",
)


# Every reported time is scaled to a machine on which calibration_kernel
# takes REFERENCE_KERNEL_NS. The machines this runs on share cores with
# other work, and their speed drifts by up to 2x over episodes of
# seconds; the kernel, timed between batches of operations, drifts with
# them, so the scaled figures compare across runs made at different
# times. Changing the kernel or the constants changes every figure.
REFERENCE_KERNEL_NS = 2_500_000
CALIBRATE_EVERY_NS = 100_000_000


def calibration_kernel() -> int:
    """Fixed work in the mix the program does: an interpreted loop,
    big-integer multiplication and division, and small objects."""
    s = 0
    for i in range(2000):
        s += i * i % 7
    x = 7**30000
    y = x * (x + 1) // 12345
    d = {}
    for i in range(1500):
        d[i] = [i, str(i), (i, i + 1)]
    return s + (y & 1) + sum(len(v) for v in d.values())


class Speed:
    """Calibration samples: the fastest of three kernel runs each, with
    the cyclic garbage collector paused so that its passes over the
    program's objects do not count as machine speed."""

    def __init__(self):
        self.samples: list[int] = []

    def sample(self) -> int:
        collecting = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(3):
                start = clock()
                calibration_kernel()
                runs.append(clock() - start)
        finally:
            if collecting:
                gc.enable()
        self.samples.append(min(runs))
        return self.samples[-1]

    def scale(self, before: int, after: int) -> float:
        """Factor from measured to reference time for work done between
        two calibration samples."""
        return 2 * REFERENCE_KERNEL_NS / (before + after)


class SetupError(RuntimeError):
    """The checkout does not hold a program the benchmark can run."""


def fresh_import(with_cli: bool) -> types.SimpleNamespace:
    """Import the package from src/ afresh and return its public names.

    Dropping the package's modules from sys.modules first gives every
    set-up a cold program (an empty prime sieve, no tables) without
    touching any private cache.
    """
    if not (SRC / "aplcm" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'aplcm'}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "aplcm" or m.startswith("aplcm.")]:
        del sys.modules[name]
    pkg = importlib.import_module("aplcm")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported aplcm from {pkg.__file__}, not from {SRC}")
    api = types.SimpleNamespace(**{n: getattr(pkg, n, None) for n in PUBLIC_NAMES})
    api.cli_main = importlib.import_module("aplcm.cli").main if with_cli else None
    return api


@contextmanager
def int_str_limit_lifted():
    """Allow huge int <-> str conversions for a check, then restore.

    Only ever used outside a timed call: the program's own behaviour at
    the interpreter's default limit is part of what is measured.
    """
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class Tracer:
    """Spans recorded around calls into the program, kept in memory.

    Every span's duration is kept per name; the first MAX_RECORDS spans
    are also kept whole (operation id, name, start, end) and written out
    when the run ends.
    """

    MAX_RECORDS = 50_000

    def __init__(self):
        self.durations: dict[str, array] = {}
        self.records: list[tuple[int, str, int, int]] = []
        self.op = 0

    def add(self, name: str, start: int, end: int) -> None:
        self.durations.setdefault(name, array("q")).append(end - start)
        if len(self.records) < self.MAX_RECORDS:
            self.records.append((self.op, name, start, end))

    def call(self, name: str, fn, *args):
        start = clock()
        result = fn(*args)
        self.add(name, start, clock())
        return result

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for op, name, start, end in self.records:
                fh.write(json.dumps({"op": op, "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")


def traced(tracer: Tracer | None, name: str, fn, *args):
    """fn(*args), recorded as a span when tracing is on."""
    return fn(*args) if tracer is None else tracer.call(name, fn, *args)


def timed(fn, *args):
    """(result, exception, start ns, end ns) of one call; the caller
    checks the result after the clock has stopped."""
    start = clock()
    try:
        result = fn(*args)
    except Exception as exc:  # a failed operation is data, not a crash
        return None, exc, start, clock()
    return result, None, start, clock()


def quantile(sorted_ok, n_failed: int, q: float, fail_value: float) -> float:
    """q-quantile, interpolated between neighbouring ranks, with every
    failure ranked slower than every success (failures stand at
    fail_value), so fixing a failure can never raise a percentile."""
    values = list(sorted_ok) + [fail_value] * n_failed
    h = (len(values) - 1) * q
    lo = math.floor(h)
    if lo + 1 >= len(values):
        return float(values[lo])
    return values[lo] + (h - lo) * (values[lo + 1] - values[lo])


class Recorder:
    """Outcomes of the operations: what ran and what failed."""

    MAX_FAILURES_KEPT = 20

    def __init__(self):
        self.ok = 0
        self.refused = 0
        self.wrong = 0
        self.failures: list[dict] = []

    def add(self, status: str, note: str, op) -> None:
        if status == OK:
            self.ok += 1
            return
        if status == WRONG:
            self.wrong += 1
        else:
            self.refused += 1
        if len(self.failures) < self.MAX_FAILURES_KEPT:
            self.failures.append({"status": status, "op": repr(op)[:300],
                                  "note": note[:300]})

    @property
    def failed(self) -> int:
        return self.refused + self.wrong

    @property
    def attempted(self) -> int:
        return self.ok + self.failed


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(seed: int) -> dict:
    return {
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "git_commit": git_commit(),
        "seed": seed,
    }
