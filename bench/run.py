"""Benchmark of the aplcm package, run from the root of a checkout.

    python3 bench/run.py --workload period-100k --seed 1 --seconds 30 --trace 0

One process, one operation at a time, no threads. The program under test
is imported from ``src/``; the workloads are described in
``bench/README.md`` and ``bench/workloads.py``.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics listed in BENCHMARK.json; with ``--trace 1``
it carries the per-layer metrics instead, from a run that alternates an
untraced and a traced pass over the same operations. ``--workload all``
runs every workload in turn. The run's context, sample counts and the
first failures go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import traceback
from statistics import median, median_low

from harness import (
    CALIBRATE_EVERY_NS,
    OK,
    OUT,
    REFERENCE_KERNEL_NS,
    SETUP_REPS,
    SPEC,
    Recorder,
    SetupError,
    Speed,
    Tracer,
    clock,
    fresh_import,
    quantile,
    run_context,
    traced,
)
from workloads import WORKLOADS

UNIT_NS = {"s": 1e9, "ms": 1e6, "us": 1e3}


def set_up(workload, tracer, speed):
    """SETUP_REPS fresh set-ups after one untimed import that loads the
    standard-library modules the package needs; returns the scaled
    seconds of each."""
    fresh_import(workload.with_cli)
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()  # the previous set-up's garbage is not this one's cost
        before = speed.sample()
        start = clock()
        api = traced(tracer, "setup.import", fresh_import, workload.with_cli)
        workload.setup(api, tracer)
        elapsed = clock() - start
        times.append(elapsed * speed.scale(before, speed.sample()) / 1e9)
    return times


def run_pass(workload, ops, tracer, speed, rec, timed):
    """Run ops once and return their summed scaled time in ns. Each
    batch of about CALIBRATE_EVERY_NS of operations is scaled by the
    mean of the calibration samples taken just before and after it;
    its (scaled ns, ok) pairs are appended to `timed`."""
    pending, total = [], 0
    before, mark = speed.sample(), clock()

    def flush():
        nonlocal before, mark, total
        after = speed.sample()
        factor = speed.scale(before, after)
        items = [(round(elapsed * factor), ok) for elapsed, ok in pending]
        timed.extend(items)
        total += sum(ns for ns, _ in items)
        pending.clear()
        before, mark = after, clock()

    for op in ops:
        if tracer is not None:
            tracer.op += 1
        elapsed, status, note = workload.run(op, tracer)
        rec.add(status, note, op)
        pending.append((elapsed, status == OK))
        if clock() - mark > CALIBRATE_EVERY_NS:
            flush()
    flush()
    return total


def measure(workload, seconds, tracer, speed):
    """Whole rounds until the next one would overrun `seconds` (at least
    one). With a tracer each round runs twice, untraced then traced; the
    outcomes of both count, the times of the untraced pass only.
    Returns the outcomes, the timed operations and rounds as (scaled
    ns, no failure) pairs, and the wall time of each pass."""
    rec, timed, rounds = Recorder(), [], []
    walls = {False: [], True: []}
    begin = clock()
    while True:
        round_start = clock()
        ops = workload.next_round()
        pass_start, failed = clock(), rec.failed
        rounds.append((run_pass(workload, ops, None, speed, rec, timed), rec.failed == failed))
        walls[False].append(clock() - pass_start)
        if tracer is not None:
            workload.counting = not walls[True]
            pass_start = clock()
            run_pass(workload, ops, tracer, speed, rec, [])
            walls[True].append(clock() - pass_start)
            workload.counting = False
        now = clock()
        if now - begin + (now - round_start) > seconds * 1e9:
            return rec, timed, rounds, walls


def latency_samples(workload, timed, rounds):
    """(sorted scaled ns of successful samples, failed samples): one
    sample per operation, or one per round for workloads timed by
    round."""
    samples = rounds if workload.per_round else timed
    return sorted(ns for ns, ok in samples if ok), sum(not ok for _, ok in samples)


def end_to_end(workload, setup_times, timed, rounds, seconds):
    ok, failed = latency_samples(workload, timed, rounds)
    fail_ns = seconds * 1e9  # a failed sample ranks as taking the whole run
    return {
        "setup_s": median(setup_times),
        "p50_ms": quantile(ok, failed, 0.5, fail_ns) / 1e6,
        "tail_ms": quantile(ok, failed, workload.tail_q, fail_ns) / 1e6,
        "ops_per_s": sum(ok for _, ok in timed) / (sum(ns for ns, _ in timed) / 1e9),
    }


def per_layer(spec, workload, tracer, walls, speed):
    """Median span time per layer (scaled by the run's median calibration
    sample), counts from the first traced pass.
    A layer the workload never calls reads 0; one whose public function
    the package no longer has reads null with "absent": true."""
    extras = dict(workload.extra_trace_metrics())
    extras["trace.overhead_pct"] = 100 * (sum(walls[True]) / sum(walls[False]) - 1)
    kernel = median(speed.samples)
    for name, value in workload.counts.items():
        extras[name] = median_low(value) if isinstance(value, list) else value
    out = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        base = name.rsplit("_", 1)[0] if unit in UNIT_NS else name
        if base in workload.absent:
            out[name] = {"value": None, "unit": unit, "absent": True}
        elif name in extras:
            out[name] = {"value": extras[name], "unit": unit}
        else:
            spans = tracer.durations.get(base)
            value = 0
            if spans and unit in UNIT_NS:
                value = median(spans) * REFERENCE_KERNEL_NS / kernel / UNIT_NS[unit]
            out[name] = {"value": value, "unit": unit}
    return out


def run_workload(spec, name, seed, seconds, trace, toy=False):
    """Run one workload; returns (final JSON object, record for bench/out)."""
    workload = WORKLOADS[name](seed, toy)
    tracer = Tracer() if trace else None
    speed = Speed()
    try:
        setup_times = set_up(workload, tracer, speed)
        rec, timed, rounds, walls = measure(workload, seconds, tracer, speed)
    finally:
        workload.close()
    e2e = end_to_end(workload, setup_times, timed, rounds, seconds)
    if trace:
        metrics = per_layer(spec, workload, tracer, walls, speed)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in units.items()}
    result = {
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    ok, failed = latency_samples(workload, timed, rounds)
    n_samples = len(ok) + failed
    named = {"fail_rate": (rec.failed / rec.attempted, "ratio"), "setup_s": (e2e["setup_s"], "s")}
    named.update(workload.descriptive_metrics(e2e))
    record = {
        "workload": name,
        "why": workload.why,
        "context": run_context(seed),
        "trace": trace,
        "seconds": seconds,
        "samples": {
            "rounds": len(rounds),
            "attempted": rec.attempted,
            "ok": rec.ok,
            "refused": rec.refused,
            "wrong": rec.wrong,
            "setup_reps": len(setup_times),
            "percentiles_over": "rounds" if workload.per_round else "operations",
            "percentile_samples": n_samples,
            "tail_percentile": workload.tail_q,
            "beyond_tail": n_samples - math.ceil(workload.tail_q * n_samples),
        },
        "setup_times_s": setup_times,
        "calibration": {
            "reference_kernel_ms": REFERENCE_KERNEL_NS / 1e6,
            "samples": len(speed.samples),
            "kernel_ms_min": min(speed.samples) / 1e6,
            "kernel_ms_median": median(speed.samples) / 1e6,
            "kernel_ms_max": max(speed.samples) / 1e6,
        },
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "result": result,
        "failures": rec.failures,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    return result, record


def print_summary(record):
    s = record["samples"]
    print(f"# {record['workload']}: {record['why']}")
    print(f"#   {s['attempted']} operations in {s['rounds']} rounds, {s['ok']} ok, "
          f"{s['refused']} refused, {s['wrong']} wrong; percentiles over "
          f"{s['percentile_samples']} {s['percentiles_over']}, "
          f"p{round(100 * s['tail_percentile'])} has {s['beyond_tail']} beyond it")
    for key, m in record["named"].items():
        print(f"#   {key} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the smoke test; figures mean nothing")
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result, record = run_workload(spec, name, args.seed, args.seconds, args.trace, args.toy)
            print_summary(record)
            results[name] = result
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
