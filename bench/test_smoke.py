"""Smoke run of the benchmark at toy sizes, so that it cannot rot.

    python3 -m pytest bench/test_smoke.py

It checks the shape of the output, the metric names against
BENCHMARK.json and the correctness checks; it makes no timing
assertions.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from harness import BENCH_DIR, SPEC
from workloads import WORKLOADS

SPEC_DATA = json.loads(SPEC.read_text())
COUNT_UNITS = {"count", "bits", "bytes"}


def toy_run(workload, trace, capsys, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace), "--toy"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC_DATA["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_toy_run(workload, trace, capsys):
    result = toy_run(workload, trace, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # Valid inputs that exit 2 at the 4300-digit limit or the table budget
    # are counted as failures; no other workload has any.
    assert (result["failed"] > 0) == (workload == "cli-mix")
    section = SPEC_DATA["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0


def test_counts_repeat_for_a_seed(capsys):
    counts = [
        {name: m["value"] for name, m in toy_run("cli-mix", 1, capsys)["metrics"].items()
         if m["unit"] in COUNT_UNITS}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["cli.json_bytes"] > 0


def test_same_seed_same_inputs():
    for cls in WORKLOADS.values():
        first, second = cls(7, toy=True), cls(7, toy=True)
        assert first.next_round() == second.next_round()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "period-100k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
