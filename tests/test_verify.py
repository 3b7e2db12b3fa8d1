import pytest

from aplcm import verify
from aplcm.errors import SelfCheckError
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


# For each cheap suite, one callee in the verify namespace that is made
# to return a wrong value or raise, and the keys every failure it causes
# must name.
INJECTED_FAULTS = [
    ("consecutive-periods", "smallest_period_bruteforce", lambda *a: 0,
     {"k", "check"}),
    ("odd-progression", "smallest_period_bruteforce", lambda *a: 0,
     {"k", "a", "b"}),
    ("exceptional-prime", "exceptional_factor", _raise_self_check, {"k"}),
    ("integer-basics", "integer_log", lambda p, k: 0, {"check", "p", "k"}),
    # A constant ratio has equal valuations at the witness and half a
    # period later, which the suite's re-check must report.
    ("prime-period", "window_ratio", lambda prog, w: 1,
     {"k", "a", "b", "p", "n0"}),
    ("fast-lcm", "fast_lcm", _raise_self_check, {"k", "a", "b", "n"}),
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


@pytest.mark.parametrize(
    "name",
    ["window-counts", "fast-lcm", "integer-basics", "odd-progression",
     "consecutive-periods"],
)
def test_worker_count_does_not_change_results(name):
    serial = run_suite(name, jobs=1)
    parallel = run_suite(name, jobs=3)
    assert serial.cases_run == parallel.cases_run
    assert serial.failures == parallel.failures
