import concurrent.futures
import inspect
import math
import os
import tracemalloc
from types import SimpleNamespace

import pytest

from aplcm import gfun, verify
from aplcm.errors import SelfCheckError
from aplcm.numtheory import integer_log, primes_upto
from aplcm.verify import available_suites, run_suite


def test_registry_is_nonempty_and_stable():
    names = available_suites()
    assert len(names) >= 10
    assert names == available_suites()
    assert "period-closed-form" in names
    assert "inclusion-exclusion" in names


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


@pytest.mark.parametrize(
    "name",
    ["consecutive-periods", "odd-progression", "exceptional-prime",
     "integer-basics", "prime-period"],
)
def test_cheap_suites_pass(name):
    report = run_suite(name)
    assert report.suite == name
    assert report.cases_run > 0
    assert report.passed and report.failures == []
    assert report.elapsed >= 0


def _raise_self_check(*args):
    raise SelfCheckError("injected fault")


# Raw kernels that run after a suite's one check per case. Each
# fake is wrong at the first window of a case only, which keeps the
# report small.
def _bad_first_ratio(a, b, k, n_lo, count):
    # A prime above 10**9 divides no bound k! * gcd(a, b)**k for k <= 8.
    return [1_000_000_007] + [1] * (count - 1)


def _valuations_off_by_one_at_n_lo(p, a, b, n_lo, count, k):
    counted = gfun._counted_valuations(p, a, b, n_lo, count, k)
    return [counted[0] + 1, *counted[1:]] if counted else counted


# For each cheap suite, one callee in the verify namespace that is made
# to return a wrong value or raise, and the keys every failure it causes
# must name.
INJECTED_FAULTS = [
    ("consecutive-periods", "smallest_period_bruteforce", lambda *a: 0,
     {"k", "check"}),
    ("odd-progression", "smallest_period_bruteforce", lambda *a: 0,
     {"k", "a", "b"}),
    ("exceptional-prime", "exceptional_factor", _raise_self_check, {"k"}),
    # No prime is ever exceptional: wrong at every k where one qualifies.
    pytest.param("exceptional-prime", "exceptional_factor",
                 lambda k, a: (1, None), {"k"}, id="exceptional-prime-none"),
    ("integer-basics", "integer_log", lambda p, k: 0, {"check", "p", "k"}),
    pytest.param("integer-basics", "_cached_lcm_upto", lambda k: 0,
                 {"check", "k"}, id="integer-basics-cached-lcm"),
    # A constant ratio has equal valuations at the witness and half a
    # period later, which the suite's re-check must report.
    ("prime-period", "window_ratio", lambda prog, w: 1,
     {"k", "a", "b", "p", "n0"}),
    ("fast-lcm", "fast_lcm", _raise_self_check, {"k", "a", "b", "n"}),
    # Each range then holds its own start, so the base and shifted
    # windows differ at every n.
    ("periodicity", "_ratios", lambda a, b, k, n_lo, count: [n_lo] * count,
     {"k", "a", "b", "n"}),
    ("divisibility", "_ratios", _bad_first_ratio, {"check", "k", "a", "b", "n"}),
    # The product equals the lcm only for pairwise coprime entries.
    ("inclusion-exclusion", "lcm_by_inclusion_exclusion", math.prod, {"xs"}),
    # Shifted windows have different first terms, so each conclusion fails.
    ("gcd-transfer", "_adjusted_ratio", lambda xs, t, pairs: (xs[0], 1),
     {"k", "a", "b", "n", "t"}),
    ("period-closed-form", "smallest_period_bruteforce", lambda *a: 0,
     {"k", "a", "b"}),
    ("period-decomposition", "smallest_period_bruteforce", lambda *a: 0,
     {"k", "a", "b"}),
    ("window-counts", "_counted_valuations", _valuations_off_by_one_at_n_lo,
     {"check", "p", "a", "b", "k", "n"}),
    ("valuation-consistency", "_counted_valuations",
     _valuations_off_by_one_at_n_lo, {"k", "a", "b", "p", "n"}),
    # Both ranges of a case then hold the same values, which differ from
    # d**k times the reduced ratio at every k >= 1, as every pair has d > 1.
    ("scaling", "_ratios", lambda a, b, k, n_lo, count: [n_lo] * count,
     {"check", "k", "a", "b", "n"}),
    # A closed form whose per-prime table drops every prime disagrees with
    # every search that finds a period above 1.
    pytest.param("prime-period", "smallest_period",
                 lambda prog, k: SimpleNamespace(exponents=dict.fromkeys(
                     primes_upto(k), 0
                 )),
                 {"k", "a", "b", "p"}, id="prime-period-per-prime"),
    # Keeping every prime, removed and exceptional ones too, asks for
    # witnesses that cannot exist; the suite reports them, not raises.
    pytest.param("prime-period", "smallest_period",
                 lambda prog, k: SimpleNamespace(exponents={
                     p: integer_log(p, k) for p in primes_upto(k)
                 }),
                 {"k", "a", "b", "p"}, id="prime-period-all-kept"),
]


@pytest.mark.parametrize(
    "name, callee, fake, keys", INJECTED_FAULTS, ids=[f[0] for f in INJECTED_FAULTS]
)
def test_suite_reports_an_injected_fault(monkeypatch, name, callee, fake, keys):
    cases_run = run_suite(name).cases_run
    monkeypatch.setattr(verify, callee, fake)
    report = run_suite(name)
    assert not report.passed
    assert report.cases_run == cases_run
    for failure in report.failures:
        assert keys <= failure.inputs.keys(), failure


def test_every_suite_has_an_injected_fault():
    # A pytest.param row keeps its arguments in .values.
    covered = {getattr(row, "values", row)[0] for row in INJECTED_FAULTS}
    assert covered == set(available_suites())


def test_raw_kernel_faults_name_their_checks(monkeypatch):
    monkeypatch.setattr(verify, "_ratios", _bad_first_ratio)
    monkeypatch.setattr(verify, "_counted_valuations", _valuations_off_by_one_at_n_lo)
    checks = {
        failure.inputs["check"]
        for name in ("divisibility", "window-counts")
        for failure in run_suite(name).failures
    }
    assert {"window-bound", "counted-valuation"} <= checks


def test_window_counts_fails_when_the_kernel_skips_p_e_equal_to_k(monkeypatch):
    # The range kernel with its loop bound pe <= k made pe < k: a window
    # of k + 1 = p**e + 1 terms then loses the factor p from its second
    # multiple of p**e.
    source = inspect.getsource(gfun._counted_valuations)
    assert source.count("while pe <= k:") == 1
    namespace = dict(vars(gfun))
    exec(source.replace("while pe <= k:", "while pe < k:"), namespace)
    monkeypatch.setattr(verify, "_counted_valuations",
                        namespace["_counted_valuations"])
    report = run_suite("window-counts")
    assert not report.passed
    assert {f.inputs["check"] for f in report.failures} == {"counted-valuation"}


@pytest.mark.parametrize(
    "name",
    ["window-counts", "fast-lcm", "integer-basics", "odd-progression",
     "consecutive-periods", "inclusion-exclusion", "period-decomposition"],
)
def test_worker_count_does_not_change_results(name):
    serial = run_suite(name, jobs=1)
    parallel = run_suite(name, jobs=3)
    assert serial.cases_run == parallel.cases_run
    assert serial.failures == parallel.failures


# The divisibility sweep has 9 values of k, 110 (a, b) pairs and 200
# windows each. A window fails the bound, and in the 64 coprime pairs
# also the k! check.
EVERY_WINDOW_FAILS = 9 * (110 + 64) * 200


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_fault_in_every_window_keeps_a_bounded_report(monkeypatch, jobs):
    # A prime above 10**9 divides no bound k! * gcd(a, b)**k for k <= 8.
    monkeypatch.setattr(
        verify, "_ratios", lambda a, b, k, n_lo, count: [1_000_000_007] * count
    )
    tracemalloc.start()
    try:
        report = run_suite("divisibility", jobs=jobs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.passed
    assert len(report.failures) == verify.MAX_FAILURES_KEPT
    assert report.failures_dropped == EVERY_WINDOW_FAILS - verify.MAX_FAILURES_KEPT
    # The kept records are the first in case order: k = 0, a = 1, b = 0.
    first = report.failures[0].inputs
    assert first == {"check": "window-bound", "k": 0, "a": 1, "b": 0, "n": 1}
    assert report.failures[1].inputs["check"] == "ratio-divides-factorial"
    # Keeping all 313 200 records peaks near 118 MB; with two workers
    # the pool's pickled chunks take about 3.5 MB.
    assert peak < 8_000_000, peak


def test_jobs_are_capped_by_the_cpu_count(monkeypatch):
    # Fakes only: a real pool of 10**6 workers would fork them all at once.
    recorded = []

    class SerialPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    capped = run_suite("integer-basics", jobs=10**6)
    serial = run_suite("integer-basics", jobs=1)
    assert recorded == [2]
    assert capped.cases_run == serial.cases_run
    assert capped.failures == serial.failures

    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_suite("integer-basics", jobs=10**6)
    assert recorded == [2]  # an unknown CPU count means one worker
