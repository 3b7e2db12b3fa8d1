"""Command-line surface.

Exit codes: 0 success, 1 verification/consistency failure, 2 usage
error. Every subcommand accepts --json and then emits exactly one JSON
object with keys {command, inputs, result, elapsed_ms}; inputs are the
parsed arguments, and integer values inside inputs/result are decimal
strings so arbitrary precision survives any JSON parser.

Each cmd_* returns (result, lines, mismatch): the JSON result, already
rendered with its integers as decimal strings, the text output as an
iterable of lines, consumed only without --json, and None or the message
of a mismatch, which exits 1. _run does the rest: it renders inputs and
hands result to json.dumps as it is.

The parser is built once per process, and each call parses a named
subcommand's arguments in that subcommand's parser alone (_parse).
Messages cut huge ints with errors._brief; --json keeps every digit.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

from .errors import BudgetExceededError, SelfCheckError, _brief, require_budget
from .gfun import (
    Progression,
    Window,
    _counted_valuation,
    _counted_valuations,
    _ratios,
    _require_reduced,
    window_terms,
)
from .identities import (
    build_period_table,
    fast_lcm,
    load_period_table,
    save_period_table,
)
from .numtheory import _product_tree, integer_log, primes_upto, require_prime
from .period import (
    DEFAULT_BUDGET,
    nonperiod_witness,
    period_rows,
    smallest_period,
    smallest_period_bruteforce,
)
from .verify import available_suites, run_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

BUDGET_ENV_VAR = "APLCM_BUDGET"

MAX_FAILURES_SHOWN = 20

# For lcm(1..k) as a decimal product, linear in its digits where str() is
# quadratic; a product that would be rounded raises instead.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.Inexact, decimal.Rounded])

_ROW_KEYS = ("k", "lcm_upto_k", "exceptional_factor", "period")


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


def _jsonify(obj):
    """Big integers become decimal strings; containers recurse.

    Dispatches on the exact type, so bools and None pass through.
    """
    kind = type(obj)
    if kind is int:
        return str(obj)
    if kind is dict:
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [_jsonify(v) for v in obj]
    return obj


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


def _prime_maps(report):
    """factors and per_prime_periods, rendered with one str per prime p <= k.

    Every prime has exponent 1 and period p but those in the report's
    sparse exponent table, which are converted apart.
    """
    names = [str(p) for p in primes_upto(report.k)]
    periods = dict(zip(names, names))
    factors = dict.fromkeys(names, "1")
    for p, e in report.exponents.items():
        periods[str(p)] = str(p**e)
        if e:
            factors[str(p)] = str(e)
        else:
            del factors[str(p)]
    return factors, periods


def _lcm_digits(report, period):
    """lcm(1..k) in decimal: the period's digits times the dropped blocks."""
    blocks = math.prod((q**e for q, e in report.removed_primes),
                       start=report.exceptional)
    try:
        return str(_EXACT.multiply(decimal.Decimal(period), blocks))
    except (decimal.Inexact, decimal.Rounded):
        raise SelfCheckError(f"lcm(1..{report.k}) would be rounded") from None


def _period_lines(report, result):
    factors = result["factors"].items()
    blocks = " * ".join(p if e == "1" else f"{p}^{e}" for p, e in factors)
    yield f"period = {result['period']}" + (f" = {blocks}" if blocks else "")
    yield f"lcm(1..k) = {result['lcm_upto_k']}"
    yield f"reduced difference = {report.a_reduced}"
    if report.exceptional_prime is None:
        yield "exceptional factor = 1 (none)"
    else:
        yield (
            f"exceptional factor = {report.exceptional} "
            f"(prime {report.exceptional_prime})"
        )
    if report.removed_primes:
        removed = ", ".join(f"{q}^{e}" for q, e in report.removed_primes)
    else:
        removed = "none"
    yield f"removed prime powers: {removed}"
    if result["per_prime_periods"]:
        per = ", ".join(f"{p}: {t}" for p, t in result["per_prime_periods"].items())
        yield f"per-prime periods: {per}"
    if result["oracle"] is not None:
        agrees = "agrees" if result["oracle_agrees"] else "DISAGREES"
        yield f"oracle = {result['oracle']} ({agrees})"


def cmd_period(args):
    prog = Progression(args.a, args.b)
    budget = resolve_budget(None)
    require_budget(args.k, budget, "a prime sieve up to k")
    report = smallest_period(prog, args.k)
    oracle = None
    if args.verify:
        oracle = smallest_period_bruteforce(prog, args.k, budget)
    agrees = None if oracle is None else oracle == report.value
    period = str(report.value)
    factors, periods = _prime_maps(report)
    result = {
        "period": period,
        "factors": factors,
        "lcm_upto_k": _lcm_digits(report, period),
        "a_reduced": str(report.a_reduced),
        "exceptional_factor": str(report.exceptional),
        "exceptional_prime": _jsonify(report.exceptional_prime),
        "removed_primes": _jsonify(report.removed_primes),
        "per_prime_periods": periods,
        "oracle": _jsonify(oracle),
        "oracle_agrees": agrees,
    }
    mismatch = None
    if agrees is False:
        mismatch = (f"period mismatch: closed form {_brief(report.value)}, "
                    f"search {_brief(oracle)}")
    return result, _period_lines(report, result), mismatch


def cmd_g(args):
    prog = Progression(args.a, args.b)
    lo, hi = _parse_index_range(args.n)
    count = hi - lo + 1
    budget = resolve_budget(None)
    if args.p is None:
        require_budget(count * (args.k + 1), budget, "the --n range")
        values = _ratios(args.a, args.b, args.k, lo, count)
    else:
        # Checked once for the range; then one step per index per p**e <= k.
        _require_reduced(prog)
        require_prime(args.p)
        e = integer_log(args.p, args.k) if args.p <= args.k else 0
        require_budget(count * (e + 1), budget, "the --n range")
        values = _counted_valuations(args.p, args.a, args.b, lo, count, args.k)
    rendered = [str(v) for v in values]
    return rendered, rendered, None


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


def cmd_lcm(args):
    prog = Progression(args.a, args.b)
    if args.table is not None and args.method == "direct":
        raise ValueError("--table is only meaningful with the period method")
    # math.lcm over k + 1 terms of w 64-bit words takes about (k + 1)^2 w^2
    # word operations; refuse that before the terms are built.
    w = 1 + (args.b + (args.n + args.k) * args.a).bit_length() // 64
    budget = resolve_budget(None)
    require_budget((args.k + 1) ** 2 * w**2, budget, "the lcm of k+1 window terms")

    terms = window_terms(prog, Window(args.n, args.k))
    # Every method answers with this lcm; a period-table value must equal
    # it, so a tampered table file cannot yield a wrong answer unnoticed.
    # math.lcm folds left, so its running lcm grows with every term: from
    # 48 words of terms in all, a balanced tree is faster.
    lcm = math.lcm(*terms) if (args.k + 1) * w < 48 else _product_tree(terms, math.lcm)
    period_val = None
    if args.method != "direct":
        table = _acquire_table(prog, args.k, args.table, budget)
        period_val = fast_lcm(table, args.n)
        if period_val != lcm:
            raise SelfCheckError(
                f"lcm mismatch at n={_brief(args.n)}: direct {_brief(lcm)}, "
                f"period-table {_brief(period_val)}"
            )
    # The methods agree, so their fields share one decimal conversion.
    text = str(lcm)
    result = {
        "lcm": text,
        "direct": None if args.method == "period" else text,
        "period": None if period_val is None else text,
        "agree": True if args.method == "both" else None,
    }
    return result, (text,), None


def cmd_witness(args):
    prog = Progression(args.a, args.b)
    n0 = nonperiod_witness(args.p, prog, args.k)  # checks every input
    half = args.p ** (integer_log(args.p, args.k) - 1)
    before = _counted_valuation(args.p, args.a, args.b, n0, args.k)
    after = _counted_valuation(args.p, args.a, args.b, n0 + half, args.k)
    result = {
        "n0": str(n0),
        "shift": str(half),
        "valuation_at_n0": str(before),
        "valuation_at_shifted": str(after),
    }
    lines = (
        f"n0 = {n0}",
        f"valuation at {n0} = {before}",
        f"valuation at {n0 + half} = {after}",
    )
    return result, lines, None


def _table_lines(rows):
    yield "\t".join(_ROW_KEYS)
    for row in rows:
        yield "\t".join(row.values())


def cmd_table(args):
    prog = Progression(args.a, args.b)
    # One pass over k = 0..k-max; the rows' decimal output still grows
    # quadratically in k-max.
    work = args.k_max * (args.k_max + 1) // 2
    require_budget(work, resolve_budget(None), "the rows for k up to k-max")
    rows = [dict(zip(_ROW_KEYS, [str(x) for x in row]))
            for row in period_rows(prog, args.k_max)]
    return {"rows": rows}, _table_lines(rows), None


def _report_lines(reports):
    for report in reports:
        status = "ok  " if report.passed else "FAIL"
        total = len(report.failures) + report.failures_dropped
        tail = "" if report.passed else f"   {total} failures"
        yield (
            f"{status} {report.suite:<24} {report.cases_run:>8} cases"
            f"   {report.elapsed:.2f}s{tail}"
        )
        for failure in report.failures[:MAX_FAILURES_SHOWN]:
            rendered = " ".join(f"{k}={_brief(v)}" for k, v in failure.inputs.items())
            yield (f"     {rendered}: expected {_brief(failure.expected)}, "
                   f"got {_brief(failure.actual)}")
        hidden = total - MAX_FAILURES_SHOWN
        if hidden > 0:
            yield f"     ... and {hidden} more"


def cmd_verify(args):
    names = available_suites() if args.suite == "all" else [args.suite]
    unknown = [n for n in names if n not in available_suites()]
    if unknown:
        raise ValueError(
            f"unknown suite {unknown[0]!r}; available: "
            f"{', '.join(available_suites())} (or 'all')"
        )
    # Resolved here, not as the parser default: the parser outlives a call,
    # and APLCM_BUDGET may change between calls. inputs echo this value.
    args.budget = resolve_budget(args.budget)
    reports = [run_suite(name, args.budget, args.jobs) for name in names]
    result = [
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
            # Only a suite that dropped records says so: a passing run's
            # output stays as it was.
            **({"failures_dropped": r.failures_dropped}
               if r.failures_dropped else {}),
            "elapsed_s": round(r.elapsed, 3),
            "passed": r.passed,
        }
        for r in reports
    ]
    # The FAIL lines and "passed": false already name the failing suites,
    # so this mismatch adds no message.
    mismatch = None if all(r.passed for r in reports) else ""
    return _jsonify(result), _report_lines(reports), mismatch


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
    p.add_argument("--method", choices=("direct", "period"), default="both",
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
        return _run(build_parser(), sys.argv[1:] if argv is None else list(argv))
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


def _parse(parser, argv):
    """parser.parse_args(argv), with a named subcommand's arguments parsed
    by its parser alone into the namespace the top-level parser would
    build. The top-level parser answers the rest: no arguments, help, an
    unknown name, or arguments the subcommand leaves over.
    """
    (choices,) = [action.choices for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    sub = choices.get(argv[0]) if argv else None
    if sub is not None:
        known = argparse.Namespace(command=argv[0])
        args, extras = sub.parse_known_args(argv[1:], known)
        if not extras:
            return args
    return parser.parse_args(argv)


def _run(parser, argv) -> int:
    try:
        args = _parse(parser, argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    started = perf_counter()
    try:
        result, lines, mismatch = args.func(args)
        if args.json:
            inputs = {
                key: value for key, value in vars(args).items()
                if key not in ("command", "json", "func")
            }
            print(
                json.dumps(
                    {
                        "command": args.command,
                        "inputs": _jsonify(inputs),
                        "result": result,
                        "elapsed_ms": round((perf_counter() - started) * 1000, 3),
                    }
                )
            )
        else:
            for line in lines:
                print(line)
    except (ValueError, BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SelfCheckError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    if mismatch is None:
        return EXIT_OK
    if mismatch:
        print(mismatch, file=sys.stderr)
    return EXIT_MISMATCH


def entry() -> None:
    sys.exit(main())
