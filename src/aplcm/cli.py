"""Command-line surface.

Exit codes: 0 success, 1 verification/consistency failure, 2 usage
error. Every subcommand accepts --json and then emits exactly one JSON
object with keys {command, inputs, result, elapsed_ms}; integer values
inside inputs/result are decimal strings so arbitrary precision
survives any JSON parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

from .errors import BudgetExceededError, SelfCheckError
from .gfun import (
    Progression,
    Window,
    ratio_valuation_by_counting,
    window_ratio,
    window_terms,
)
from .identities import (
    build_period_table,
    fast_lcm,
    load_period_table,
    save_period_table,
)
from .numtheory import MILLER_RABIN_BOUND, integer_log, is_prime
from .period import (
    DEFAULT_BUDGET,
    nonperiod_witness,
    smallest_period,
    smallest_period_bruteforce,
)
from .verify import available_suites, run_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

BUDGET_ENV_VAR = "APLCM_BUDGET"

MAX_FAILURES_SHOWN = 20


def resolve_budget(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is None:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR}={env!r} is not an integer") from None
    if value < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def _require_budget(work: int, what: str) -> None:
    """Refuse size-dependent work above the resolved budget before it starts."""
    budget = resolve_budget(None)
    if work > budget:
        raise BudgetExceededError(
            f"{what} needs work ~2^{work.bit_length()} > budget {budget}"
        )


def _jsonify(obj):
    """Big integers become decimal strings; containers recurse."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _emit_json(command: str, inputs: dict, result, started: float) -> None:
    print(
        json.dumps(
            {
                "command": command,
                "inputs": _jsonify(inputs),
                "result": _jsonify(result),
                "elapsed_ms": round((perf_counter() - started) * 1000, 3),
            }
        )
    )


def _parse_index_range(text: str) -> tuple[int, int]:
    """Either a single index "4" or an inclusive range "1..6"."""
    lo, sep, hi = text.partition("..")
    try:
        lo_val = int(lo)
        hi_val = int(hi) if sep else lo_val
    except ValueError:
        raise ValueError(f"bad index range {text!r}; expected N or N..M") from None
    if lo_val < 1:
        raise ValueError(f"start index must be >= 1, got {lo_val}")
    if hi_val < lo_val:
        raise ValueError(f"empty index range {text!r}")
    return lo_val, hi_val


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _budget_arg(text: str):
    if text == "default":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"budget must be an integer or 'default', got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"budget must be positive, got {value}")
    return value


def _factored_str(value: int, factored) -> str:
    rendered = str(factored)
    return str(value) if rendered == "1" else f"{value} = {rendered}"


def cmd_period(args) -> int:
    started = perf_counter()
    prog = Progression(args.a, args.b)
    _require_budget(args.k, "a prime sieve up to k")
    report = smallest_period(prog, args.k)
    oracle = None
    if args.verify:
        oracle = smallest_period_bruteforce(prog, args.k, resolve_budget(None))
    agrees = None if oracle is None else oracle == report.value

    if args.json:
        _emit_json(
            "period",
            {"k": args.k, "a": args.a, "b": args.b, "verify": args.verify},
            {
                "period": report.value,
                "factors": report.closed_form.factors,
                "lcm_upto_k": report.lcm_upto,
                "a_reduced": report.a_reduced,
                "exceptional_factor": report.exceptional,
                "exceptional_prime": report.exceptional_prime,
                "removed_primes": report.removed_primes,
                "per_prime_periods": report.per_prime,
                "oracle": oracle,
                "oracle_agrees": agrees,
            },
            started,
        )
    else:
        print(f"period = {_factored_str(report.value, report.closed_form)}")
        print(f"lcm(1..k) = {report.lcm_upto}")
        print(f"reduced difference = {report.a_reduced}")
        if report.exceptional_prime is None:
            print("exceptional factor = 1 (none)")
        else:
            print(
                f"exceptional factor = {report.exceptional} "
                f"(prime {report.exceptional_prime})"
            )
        if report.removed_primes:
            removed = ", ".join(f"{q}^{e}" for q, e in report.removed_primes)
        else:
            removed = "none"
        print(f"removed prime powers: {removed}")
        if report.per_prime:
            per = ", ".join(f"{p}: {t}" for p, t in report.per_prime.items())
            print(f"per-prime periods: {per}")
        if oracle is not None:
            print(f"oracle = {oracle} ({'agrees' if agrees else 'DISAGREES'})")

    if agrees is False:
        print(
            f"period mismatch: closed form {report.value}, search {oracle}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_g(args) -> int:
    started = perf_counter()
    prog = Progression(args.a, args.b)
    lo, hi = _parse_index_range(args.n)
    _require_budget((hi - lo + 1) * (args.k + 1), "the --n range")
    if args.p is not None:
        if args.p >= MILLER_RABIN_BOUND:
            raise ValueError(
                f"--p must be below {MILLER_RABIN_BOUND}, where primality "
                "is decided in bounded time"
            )
        if not is_prime(args.p):
            raise ValueError(f"--p expects a prime, got {args.p}")
        if not prog.is_reduced:
            raise ValueError("--p requires gcd(a, b) = 1")
        values = [
            ratio_valuation_by_counting(args.p, prog, Window(n, args.k))
            for n in range(lo, hi + 1)
        ]
    else:
        values = [window_ratio(prog, Window(n, args.k)) for n in range(lo, hi + 1)]

    if args.json:
        _emit_json(
            "g",
            {"k": args.k, "a": args.a, "b": args.b, "n": args.n, "p": args.p},
            values,
            started,
        )
    else:
        for v in values:
            print(v)
    return EXIT_OK


def _acquire_table(prog, k, path, budget):
    if path is not None and Path(path).exists():
        table = load_period_table(path)
        if table.prog != prog or table.k != k:
            raise ValueError(
                f"table {path} is for (a={table.prog.a}, b={table.prog.b}, "
                f"k={table.k}), not (a={prog.a}, b={prog.b}, k={k})"
            )
        return table
    table = build_period_table(prog, k, budget)
    if path is not None:
        save_period_table(table, path)
    return table


def _certify_lcm(terms, value: int) -> None:
    """Raise SelfCheckError unless value is lcm(terms).

    value is a common multiple iff every term divides it, and the least
    one iff the cofactors value // t then have gcd 1.
    """
    cofactors = [value // t for t in terms]
    if any(value % t for t in terms) or math.gcd(*cofactors) != 1:
        raise SelfCheckError(
            f"period-table value {value} is not the lcm of the window "
            f"terms {terms[0]}..{terms[-1]}"
        )


def cmd_lcm(args) -> int:
    started = perf_counter()
    prog = Progression(args.a, args.b)
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    method = args.method or "both"
    if args.table is not None and method == "direct":
        raise ValueError("--table is only meaningful with the period method")

    terms = window_terms(prog, Window(args.n, args.k))
    direct = period_val = None
    if method in ("direct", "both"):
        direct = math.lcm(*terms)
    if method in ("period", "both"):
        table = _acquire_table(prog, args.k, args.table, resolve_budget(None))
        period_val = fast_lcm(table, args.n)
        if direct is None:
            # Without the direct lcm to compare against, a table file could
            # otherwise yield a wrong answer unnoticed.
            _certify_lcm(terms, period_val)

    mismatch = direct is not None and period_val is not None and direct != period_val
    value = direct if direct is not None else period_val

    if args.json:
        _emit_json(
            "lcm",
            {
                "k": args.k,
                "a": args.a,
                "b": args.b,
                "n": args.n,
                "method": method,
                "table": args.table,
            },
            {
                "lcm": value if not mismatch else None,
                "direct": direct,
                "period": period_val,
                "agree": None if method != "both" else not mismatch,
            },
            started,
        )
    elif not mismatch:
        print(value)

    if mismatch:
        print(
            f"lcm mismatch at n={args.n}: direct {direct}, "
            f"period-table {period_val}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_witness(args) -> int:
    started = perf_counter()
    prog = Progression(args.a, args.b)
    n0 = nonperiod_witness(args.p, prog, args.k)
    half = args.p ** (integer_log(args.p, args.k) - 1)
    before = ratio_valuation_by_counting(args.p, prog, Window(n0, args.k))
    after = ratio_valuation_by_counting(args.p, prog, Window(n0 + half, args.k))

    if args.json:
        _emit_json(
            "witness",
            {"k": args.k, "a": args.a, "b": args.b, "p": args.p},
            {
                "n0": n0,
                "shift": half,
                "valuation_at_n0": before,
                "valuation_at_shifted": after,
            },
            started,
        )
    else:
        print(f"n0 = {n0}")
        print(f"valuation at {n0} = {before}")
        print(f"valuation at {n0 + half} = {after}")
    return EXIT_OK


def cmd_table(args) -> int:
    started = perf_counter()
    prog = Progression(args.a, args.b)
    _require_budget(args.k_max, "a prime sieve up to k-max")
    rows = []
    for k in range(args.k_max + 1):
        report = smallest_period(prog, k)
        rows.append(
            {
                "k": k,
                "lcm_upto_k": report.lcm_upto,
                "exceptional_factor": report.exceptional,
                "period": report.value,
            }
        )

    if args.json or args.format == "json":
        _emit_json(
            "table",
            {"k_max": args.k_max, "a": args.a, "b": args.b},
            {"rows": rows},
            started,
        )
    else:
        print("k\tlcm_upto_k\texceptional_factor\tperiod")
        for row in rows:
            print(
                f"{row['k']}\t{row['lcm_upto_k']}"
                f"\t{row['exceptional_factor']}\t{row['period']}"
            )
    return EXIT_OK


def _print_report(report) -> None:
    status = "ok  " if report.passed else "FAIL"
    tail = "" if report.passed else f"   {len(report.failures)} failures"
    print(
        f"{status} {report.suite:<24} {report.cases_run:>8} cases"
        f"   {report.elapsed:.2f}s{tail}"
    )
    for failure in report.failures[:MAX_FAILURES_SHOWN]:
        rendered = " ".join(f"{k}={v}" for k, v in failure.inputs.items())
        print(f"     {rendered}: expected {failure.expected}, got {failure.actual}")
    hidden = len(report.failures) - MAX_FAILURES_SHOWN
    if hidden > 0:
        print(f"     ... and {hidden} more")


def cmd_verify(args) -> int:
    started = perf_counter()
    names = available_suites() if args.suite == "all" else [args.suite]
    unknown = [n for n in names if n not in available_suites()]
    if unknown:
        print(
            f"error: unknown suite {unknown[0]!r}; available: "
            f"{', '.join(available_suites())} (or 'all')",
            file=sys.stderr,
        )
        return EXIT_USAGE
    budget = resolve_budget(args.budget)
    reports = [run_suite(name, budget, args.jobs) for name in names]

    if args.json:
        _emit_json(
            "verify",
            {
                "suite": args.suite,
                "budget": budget,
                "jobs": args.jobs,
            },
            [
                {
                    "suite": r.suite,
                    "cases_run": r.cases_run,
                    "failures": [
                        {
                            "inputs": f.inputs,
                            "expected": f.expected,
                            "actual": f.actual,
                        }
                        for f in r.failures
                    ],
                    "elapsed_s": round(r.elapsed, 3),
                    "passed": r.passed,
                }
                for r in reports
            ],
            started,
        )
    else:
        for report in reports:
            _print_report(report)

    return EXIT_OK if all(r.passed for r in reports) else EXIT_MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="aplcm",
        description=(
            "Exact smallest periods of the product/lcm ratio of k+1 "
            "consecutive arithmetic-progression terms, with brute-force "
            "verification and period-accelerated lcm evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_k=True):
        if with_k:
            p.add_argument("--k", type=_nonneg, required=True,
                           help="window has k+1 terms")
        p.add_argument("--a", type=_positive, default=1,
                       help="common difference (default 1)")
        p.add_argument("--b", type=_nonneg, default=0,
                       help="offset (default 0)")
        p.add_argument("--json", action="store_true",
                       help="emit one JSON object instead of text")

    p = sub.add_parser("period", help="smallest period, closed form")
    add_common(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the exhaustive search")
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("g", help="ratio values (or their valuation at a prime)")
    add_common(p)
    p.add_argument("--n", required=True, help="start index N or range N..M")
    p.add_argument("--p", type=_positive, default=None,
                   help="report the valuation at this prime instead")
    p.set_defaults(func=cmd_g)

    p = sub.add_parser("lcm", help="lcm of one window")
    add_common(p)
    p.add_argument("--n", type=_positive, required=True, help="start index")
    p.add_argument("--method", choices=("direct", "period"), default=None,
                   help="evaluation method (default: run both and compare)")
    p.add_argument("--table", default=None,
                   help="period-table file to load, or create if missing")
    p.set_defaults(func=cmd_lcm)

    p = sub.add_parser("witness", help="start index where the candidate "
                                       "sub-period provably fails")
    add_common(p)
    p.add_argument("--p", type=_positive, required=True, help="prime")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("table", help="period table for k = 0..k-max")
    p.add_argument("--k-max", dest="k_max", type=_nonneg, required=True)
    add_common(p, with_k=False)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--budget", type=_budget_arg, default=None,
                   help="work budget (integer or 'default')")
    p.add_argument("--jobs", type=_positive, default=1,
                   help="parallel workers for sweeps")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    # Results and --n values of any size convert to and from decimal here;
    # the interpreter's own limit comes back for library callers.
    old_limit = None
    if hasattr(sys, "set_int_max_str_digits"):
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser(), argv)
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


def _run(parser, argv) -> int:
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SelfCheckError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


def entry() -> None:
    sys.exit(main())
