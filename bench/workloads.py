"""The four benchmark workloads.

Each workload draws its inputs from a seeded generator (the program sees
only the generated inputs), sets the program up, and then runs rounds of
operations. Every operation is timed alone; its output is checked
against ``reference`` after the timer stops. In a traced pass the
workload also times the public functions the operation is built from,
one call each on the same inputs, so every layer gets its own span.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from random import Random
from statistics import median

import reference
from harness import (
    OK,
    OUT,
    REFUSED,
    ROOT,
    SRC,
    WRONG,
    clock,
    int_str_limit_lifted,
    timed,
    traced,
)

# The 15 suites that exist when the benchmark was defined, by name, so a
# suite added later does not read as a regression of verify-suites.
SUITES = (
    "period-closed-form",
    "consecutive-periods",
    "valuation-consistency",
    "prime-period",
    "period-decomposition",
    "inclusion-exclusion",
    "fast-lcm",
    "divisibility",
    "exceptional-prime",
    "odd-progression",
    "gcd-transfer",
    "scaling",
    "window-counts",
    "periodicity",
    "integer-basics",
)


# Progressions whose tables are built at set-up: the same for every seed,
# so set-up does the same work whatever the seed. Reduced and not (6, 4
# and 12, 18), with reduced differences 1, 7, 2, 3, 35 and 2.
TABLE_PROGRESSIONS = ((1, 0), (7, 3), (2, 1), (6, 4), (35, 12), (12, 18))


def _failure(exc: BaseException) -> tuple[str, str]:
    return REFUSED, f"{type(exc).__name__}: {exc}"


def _missing(pairs) -> set[str]:
    """Span names whose public function the package no longer has."""
    return {span for span, fn in pairs if fn is None}


class Workload:
    name = ""
    why = ""
    tail_q = 0.9  # the tail percentile reported as tail_ms
    per_round = False  # percentiles over rounds instead of operations
    with_cli = False

    def __init__(self, seed: int, toy: bool):
        self.rng = Random(f"{self.name}/{seed}")
        self.toy = toy
        self.counting = False  # set during the first traced pass
        self.counts: dict[str, object] = {}
        self.absent: set[str] = set()

    def count(self, name: str, value) -> None:
        if self.counting:
            self.counts.setdefault(name, []).append(value)

    def extra_trace_metrics(self) -> dict:
        return {}

    def descriptive_metrics(self, e2e: dict) -> dict:
        """The workload's end-to-end figures under their descriptive names."""
        return {}

    def close(self) -> None:
        pass


class PeriodWorkload(Workload):
    name = "period-100k"
    why = (
        "smallest_period for k in [95000, 105000], a in [1, 60], b in [0, 60]: "
        "the work is in numtheory and period (sieve, trial division, closed "
        "form); it never builds a table or takes the lcm path"
    )

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self.k_lo, self.k_hi = (950, 1050) if toy else (95_000, 105_000)
        self.round_size = 4 if toy else 8

    def setup(self, api, tracer):
        self.api = api
        self.absent = _missing([
            ("numtheory.sieve", api.primes_upto),
            ("numtheory.lcm_upto", api.lcm_upto),
            ("period.closed_form", api.closed_form_period),
            ("period.exceptional", api.exceptional_factor),
            ("numtheory.primes", api.primes_upto),
        ])
        if api.primes_upto is not None:
            traced(tracer, "numtheory.sieve", api.primes_upto, self.k_hi)

    def next_round(self):
        """One k from each of round_size equal slices of the k range, so
        every run sees the whole range whatever the seed."""
        r, n, span = self.rng, self.round_size, self.k_hi - self.k_lo + 1
        ops = [
            (self.k_lo + (i * span + r.randrange(span)) // n, r.randint(1, 60), r.randint(0, 60))
            for i in range(n)
        ]
        r.shuffle(ops)
        return ops

    def run(self, op, tracer):
        k, a, b = op
        api = self.api
        report, exc, start, end = timed(api.smallest_period, api.Progression(a, b), k)
        if tracer is not None:
            tracer.add("period.smallest", start, end)
            self._trace_layers(k, a // math.gcd(a, b), tracer)
            if exc is None:
                self.count("period.bits", report.value.bit_length())
        if exc is not None:
            return (end - start, *_failure(exc))
        want, _ = reference.smallest_period(k, a, b)
        if report.value != want:
            return end - start, WRONG, f"period differs from the closed form ({want.bit_length()} bits)"
        return end - start, OK, ""

    def _trace_layers(self, k, ar, tracer):
        api = self.api
        if api.lcm_upto is not None:
            tracer.call("numtheory.lcm_upto", api.lcm_upto, k)
        if api.closed_form_period is not None:
            tracer.call("period.closed_form", api.closed_form_period, k, ar)
        if api.exceptional_factor is not None:
            tracer.call("period.exceptional", api.exceptional_factor, k, ar)
        if api.primes_upto is not None:
            self.count("numtheory.primes", len(api.primes_upto(k)))

    def descriptive_metrics(self, e2e):
        return {"period_p50_ms": (e2e["p50_ms"], "ms")}


class LcmWorkload(Workload):
    name = "lcm-table"
    why = (
        "fast_lcm over a long stream through tables built at set-up for "
        "k in {4, 6, 8, 10} and n of 9 to 100 digits: the work is in identities "
        "and gfun (window terms, product, exact division); with k <= 10 the "
        "closed form is trivial, so period and sieve changes should not move it"
    )
    tail_q = 0.99

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self.pool = [(k, a, b) for k in (4, 6, 8, 10) for a, b in TABLE_PROGRESSIONS[: 1 if toy else 6]]
        self.round_size = 200 if toy else 2000

    def setup(self, api, tracer):
        self.api = api
        self.tables = []
        for k, a, b in self.pool:
            table = traced(tracer, "identities.build_table",
                           api.build_period_table, api.Progression(a, b), k)
            self.tables.append((a, b, k, table))
        self.counts["identities.table_entries"] = sum(t.period for *_, t in self.tables)
        self.absent = _missing([
            ("gfun.window_terms", api.window_terms),
            ("ref.lcm_many", api.lcm_many),
        ])
        if not all(hasattr(self.tables[0][3], f) for f in ("values", "period")):
            self.absent.add("lcm.divide")

    def next_round(self):
        r = self.rng
        ops = []
        for _ in range(self.round_size):
            digits = r.randint(9, 100)
            ops.append((r.randrange(len(self.pool)), r.randrange(10 ** (digits - 1), 10**digits)))
        return ops

    def run(self, op, tracer):
        i, n = op
        a, b, k, table = self.tables[i]
        value, exc, start, end = timed(self.api.fast_lcm, table, n)
        terms = reference.window(a, b, n, k)
        if tracer is not None:
            tracer.add("identities.fast_lcm", start, end)
            self._trace_layers(table, n, terms, tracer)
        if exc is not None:
            return (end - start, *_failure(exc))
        if value != math.lcm(*terms):
            return end - start, WRONG, "fast_lcm differs from math.lcm"
        return end - start, OK, ""

    def _trace_layers(self, table, n, terms, tracer):
        api = self.api
        if api.window_terms is not None:
            tracer.call("gfun.window_terms", api.window_terms, table.prog, api.Window(n, table.k))
        product = tracer.call("lcm.product", math.prod, terms)
        if "lcm.divide" not in self.absent:
            tracer.call("lcm.divide", _divide_by_entry, product, table, n)
        tracer.call("ref.math_lcm", math.lcm, *terms)
        if api.lcm_many is not None:
            tracer.call("ref.lcm_many", api.lcm_many, terms)
        self.count("lcm.product_bits", product.bit_length())

    def descriptive_metrics(self, e2e):
        return {
            "lcm_per_s": (e2e["ops_per_s"], "1/s"),
            "lcm_p50_us": (e2e["p50_ms"] * 1000, "us"),
            "lcm_p99_us": (e2e["tail_ms"] * 1000, "us"),
        }


def _divide_by_entry(product, table, n):
    """The exact division fast_lcm ends with: product by the table entry."""
    return divmod(product, table.values[n % table.period])


class VerifySuitesWorkload(Workload):
    name = "verify-suites"
    why = (
        "run_suite(name, DEFAULT_BUDGET, jobs=1) over the 15 suites by name: "
        "the work is in the brute-force oracles (window_ratio, lcm_many, "
        "smallest_period_bruteforce), many tiny windows instead of a few huge ones"
    )
    # A round is one pass over the suite list; its time is what a user
    # waits for, and the per-suite times are per-layer metrics.
    per_round = True

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self.suites = ("consecutive-periods", "odd-progression", "integer-basics") if toy else SUITES

    def setup(self, api, tracer):
        self.api = api

    def next_round(self):
        order = list(self.suites)
        self.rng.shuffle(order)
        return order

    def run(self, suite, tracer):
        api = self.api
        report, exc, start, end = timed(lambda: api.run_suite(suite, api.DEFAULT_BUDGET, jobs=1))
        if tracer is not None:
            tracer.add(f"verify.{suite}", start, end)
            if exc is None:
                self.count(f"verify.{suite}_cases", report.cases_run)
        if exc is not None:
            return (end - start, *_failure(exc))
        if not report.passed:
            return end - start, WRONG, f"{len(report.failures)} failures"
        return end - start, OK, ""

    def descriptive_metrics(self, e2e):
        return {"verify_s": (e2e["p50_ms"] / 1e3, "s")}


def _json_bytes(text: str) -> int:
    """Size of one JSON output without its elapsed_ms value, whose
    number of digits varies from run to run."""
    elapsed = json.loads(text).get("elapsed_ms")
    return len(text.encode()) - len(json.dumps(elapsed))


class CliWorkload(Workload):
    name = "cli-mix"
    why = (
        "in-process aplcm.cli.main --json over a seeded command mix (lcm with "
        "and without table files, period, table, g, witness), one in twenty a "
        "valid input that exits 2 today: the only workload that measures "
        "argument parsing, JSON rendering of big integers and table file I/O"
    )
    with_cli = True
    # Commands per round. The last three kinds are valid inputs that fail
    # today (4300-digit conversion limit, table budget).
    # The slowest tenth (tables and failures) is a little smaller than
    # 10%, so p90 falls among period commands, whose k is uniform: the
    # percentile then moves smoothly with speed instead of jumping
    # between the two groups.
    MIX = (
        ("lcm", 15), ("lcm-load", 6), ("lcm-new", 3), ("period", 16),
        ("table", 2), ("g", 8), ("witness", 7),
        ("period-huge", 1), ("lcm-k20", 1), ("lcm-wide", 1),
    )
    TOY_MIX = (
        ("lcm", 2), ("lcm-load", 1), ("lcm-new", 1), ("period", 2),
        ("table", 1), ("g", 2), ("witness", 2),
        ("period-huge", 1), ("lcm-k20", 1), ("lcm-wide", 1),
    )

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self.mix = self.TOY_MIX if toy else self.MIX
        self.period_k_max = 900 if toy else 9000
        self.table_k_max = 30 if toy else 300
        pool = zip((10, 8, 6, 9, 4, 10), TABLE_PROGRESSIONS[: 2 if toy else 6])
        self.pool = [(k, a, b) for k, (a, b) in pool]
        # Commands name table files relative to this directory, which is
        # the working directory while the workload runs, so the output
        # (and cli.json_bytes) does not depend on where the checkout is.
        self.dir = OUT / f"cli-tables-{os.getpid()}"
        self.home = os.getcwd()
        self.made = 0

    def setup(self, api, tracer):
        self.api = api
        self.dir.mkdir(parents=True, exist_ok=True)
        os.chdir(self.dir)
        entries = 0
        for i, (k, a, b) in enumerate(self.pool):
            table = traced(tracer, "identities.build_table",
                           api.build_period_table, api.Progression(a, b), k)
            traced(tracer, "identities.save_table", api.save_period_table, table, f"pool-{i}.txt")
            entries += table.period
        self.counts["identities.table_entries"] = entries

    def close(self):
        os.chdir(self.home)
        shutil.rmtree(self.dir, ignore_errors=True)

    # --- command generation -------------------------------------------

    def next_round(self):
        ops = [self._command(kind) for kind, count in self.mix for _ in range(count)]
        self.rng.shuffle(ops)
        return ops

    def _ab(self):
        return self.rng.randint(1, 60), self.rng.randint(0, 60)

    def _n(self, lo_digits, hi_digits):
        d = self.rng.randint(lo_digits, hi_digits)
        return self.rng.randrange(10 ** (d - 1), 10**d)

    def _command(self, kind):
        r = self.rng
        if kind in ("lcm", "lcm-new"):
            (a, b), k, n = self._ab(), r.randint(2, 10), self._n(1, 30)
            argv = ["lcm", "--k", k, "--a", a, "--b", b, "--n", n]
            if kind == "lcm-new":
                self.made += 1
                argv += ["--method", "period", "--table", f"new-{self.made}.txt"]
        elif kind == "lcm-load":
            i = r.randrange(len(self.pool))
            (k, a, b), n = self.pool[i], self._n(1, 30)
            argv = ["lcm", "--k", k, "--a", a, "--b", b, "--n", n,
                    "--method", "period", "--table", f"pool-{i}.txt"]
        elif kind == "lcm-k20":
            (a, b), k, n = (1, 0), 20, self._n(1, 30)
            argv = ["lcm", "--k", k, "--n", n]
        elif kind == "lcm-wide":
            (a, b), k, n = (1, 0), 100, self._n(60, 60)
            argv = ["lcm", "--k", k, "--n", n, "--method", "direct"]
        elif kind in ("period", "period-huge"):
            (a, b) = self._ab()
            k = r.randint(1, self.period_k_max) if kind == "period" else r.randint(10_000, 20_000)
            argv = ["period", "--k", k, "--a", a, "--b", b]
            n = None
        elif kind == "table":
            (a, b), k, n = self._ab(), self.table_k_max, None
            argv = ["table", "--k-max", k, "--a", a, "--b", b]
        elif kind == "g":
            (a, b), k = self._ab(), r.randint(1, 12)
            lo = r.randint(1, 10**6)
            n = (lo, lo + r.randint(0, 49))
            argv = ["g", "--k", k, "--a", a, "--b", b, "--n", f"{n[0]}..{n[1]}"]
        elif kind == "witness":
            a, b, k, n = self._witness_input()
            argv = ["witness", "--k", k, "--a", a, "--b", b, "--p", n]
        else:
            raise ValueError(kind)
        return {"kind": kind, "a": a, "b": b, "k": k, "n": n,
                "argv": [str(x) for x in argv] + ["--json"]}

    def _witness_input(self):
        """A reduced progression, k and prime p <= k not dividing a with
        v_p(k + 1) below the maximal exponent, so a witness exists."""
        r = self.rng
        while True:
            (a, b), k = self._ab(), r.randint(2, 200)
            if math.gcd(a, b) != 1:
                continue
            ps = [p for p in reference.primes_upto(k)
                  if a % p and (k + 1) % reference.block(p, k)]
            if ps:
                return a, b, k, r.choice(ps)

    # --- execution and checks -----------------------------------------

    def run(self, op, tracer):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc, exc, start, end = timed(self.api.cli_main, op["argv"])
        ns = end - start
        if tracer is not None:
            tracer.add(f"cli.{op['argv'][0]}", start, end)
            self._trace_layers(op, tracer)
            if self.counting and out.getvalue():
                total = self.counts.get("cli.json_bytes", 0)
                self.counts["cli.json_bytes"] = total + _json_bytes(out.getvalue())
        if op["kind"] == "lcm-new":
            os.unlink(op["argv"][op["argv"].index("--table") + 1])
        if exc is not None:
            return (ns, *_failure(exc))
        if rc != 0:
            return ns, REFUSED, f"exit {rc}: {err.getvalue().strip()}"
        with int_str_limit_lifted():
            try:
                wrong = self._check(op, json.loads(out.getvalue())["result"])
            except (ValueError, KeyError, TypeError) as e:
                wrong = f"unreadable output: {type(e).__name__}: {e}"
        return (ns, WRONG, wrong) if wrong else (ns, OK, "")

    def _check(self, op, result) -> str:
        """Empty when the command's result matches the references."""
        kind, a, b, k, n = op["kind"], op["a"], op["b"], op["k"], op["n"]
        if kind.startswith("lcm"):
            if int(result["lcm"]) != reference.window_lcm(a, b, n, k):
                return "lcm differs from math.lcm"
            if "--method" not in op["argv"] and result["agree"] is not True:
                return "methods disagree"
            return ""
        if kind.startswith("period"):
            want, _ = reference.smallest_period(k, a, b)
            if int(result["period"]) != want or int(result["lcm_upto_k"]) != reference.lcm_upto(k):
                return "period differs from the closed form"
            return ""
        if kind == "table":
            rows = result["rows"]
            if len(rows) != k + 1:
                return f"{len(rows)} rows for k-max {k}"
            for kk, row in enumerate(rows):
                period, exceptional = reference.smallest_period(kk, a, b)
                got = tuple(int(row[f]) for f in ("k", "period", "exceptional_factor", "lcm_upto_k"))
                if got != (kk, period, exceptional, reference.lcm_upto(kk)):
                    return f"row k={kk} differs from the closed form"
            return ""
        if kind == "g":
            want = [reference.window_ratio(a, b, m, k) for m in range(n[0], n[1] + 1)]
            return "" if [int(v) for v in result] == want else "ratio values differ"
        if kind == "witness":
            p, n0, shift = n, int(result["n0"]), int(result["shift"])
            v0 = reference.valuation(p, reference.window_ratio(a, b, n0, k))
            v1 = reference.valuation(p, reference.window_ratio(a, b, n0 + shift, k))
            good = (shift == reference.block(p, k) // p and v0 != v1
                    and (int(result["valuation_at_n0"]), int(result["valuation_at_shifted"])) == (v0, v1))
            return "" if good else "not a witness"
        raise ValueError(kind)

    def _trace_layers(self, op, tracer):
        api, kind = self.api, op["kind"]
        if kind == "lcm":
            tracer.call("identities.build_table", api.build_period_table,
                        api.Progression(op["a"], op["b"]), op["k"])
        elif kind == "lcm-load":
            tracer.call("identities.load_table", api.load_period_table,
                        op["argv"][op["argv"].index("--table") + 1])
        elif kind == "lcm-new":
            table = api.build_period_table(api.Progression(op["a"], op["b"]), op["k"])
            tracer.call("identities.save_table", api.save_period_table, table, "traced-save.txt")
            os.unlink("traced-save.txt")

    def extra_trace_metrics(self):
        """cli.import_ms: `import aplcm.cli` in a fresh interpreter, minus
        the start-up of a bare one (medians of alternating children)."""
        bare = f"import sys; sys.path.insert(0, {str(SRC)!r})"
        full = bare + "; import aplcm.cli"
        times = {bare: [], full: []}
        for _ in range(3 if self.toy else 7):
            for code in (bare, full):
                start = clock()
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                               stdout=subprocess.DEVNULL, timeout=60)
                times[code].append((clock() - start) / 1e6)
        return {"cli.import_ms": median(times[full]) - median(times[bare])}

    def descriptive_metrics(self, e2e):
        return {"cli_p50_ms": (e2e["p50_ms"], "ms"), "cli_p90_ms": (e2e["tail_ms"], "ms")}


WORKLOADS = {w.name: w for w in (PeriodWorkload, LcmWorkload, VerifySuitesWorkload, CliWorkload)}
