"""Acceptance gate: every check below must pass exactly (zero
mismatches); the randomized ones are seeded and the exhaustive ones are
full sweeps at their stated scale. Run with `pytest -s` to see one
PASS/FAIL line per criterion.
"""

import ast
import importlib
from pathlib import Path

import pytest

import aplcm
from aplcm.gfun import Progression
from aplcm.period import smallest_period
from aplcm.verify import CONSECUTIVE_PERIODS, available_suites, run_suite

# The scale of every suite, in the order available_suites() lists them.
CASES_RUN = {
    "period-closed-form": 990,
    "consecutive-periods": 11,
    "valuation-consistency": 576,
    "prime-period": 448,
    "period-decomposition": 576,
    "inclusion-exclusion": 10_000,
    "fast-lcm": 1000,
    "divisibility": 12_790,
    "exceptional-prime": 10_001,
    "odd-progression": 12,
    "gcd-transfer": 144,
    "scaling": 1634,
    "window-counts": 96,
    "periodicity": 504,
    "integer-basics": 12_031,
}


def test_every_suite_has_a_pinned_scale():
    assert list(CASES_RUN) == available_suites()


def _run(name, time_cap=None):
    report = run_suite(name)
    status = "PASS" if report.passed else "FAIL"
    cap = f" (cap {time_cap}s)" if time_cap else ""
    print(
        f"acceptance[{name}]: {status} - {report.cases_run} cases, "
        f"{len(report.failures)} failures, {report.elapsed:.2f}s{cap}"
    )
    for failure in report.failures[:10]:
        print(f"  {failure.inputs}: expected {failure.expected}, "
              f"got {failure.actual}")
    assert report.passed, f"{name}: {len(report.failures)} failures"
    assert report.cases_run == CASES_RUN[name]
    if time_cap is not None:
        assert report.elapsed <= time_cap, (
            f"{name} took {report.elapsed:.1f}s, over the {time_cap}s cap"
        )


def test_closed_form_period_matches_exhaustive_search():
    _run("period-closed-form", time_cap=300)


def test_consecutive_integer_period_table():
    expected = (1, 1, 2, 3, 12, 20, 60, 105, 280, 504, 2520)
    assert CONSECUTIVE_PERIODS == expected
    actual = tuple(
        smallest_period(Progression(1, 0), k).value for k in range(11)
    )
    assert actual == expected
    _run("consecutive-periods")


def test_valuation_paths_are_consistent():
    _run("valuation-consistency")


def test_prime_periods_and_witnesses():
    _run("prime-period")


def test_inclusion_exclusion_identity():
    _run("inclusion-exclusion", time_cap=60)


def test_fast_lcm_equals_direct_lcm():
    # 1000 seeded cases with n up to 10**9; every 20th case (50 total)
    # forces n to a multiple of the period so the residue-0 slot is hit.
    _run("fast-lcm")


def test_divisibility_suites():
    _run("divisibility")


def test_exceptional_prime_is_unique():
    _run("exceptional-prime", time_cap=60)


def test_odd_progression_periods():
    for k, expected in ((2, 1), (3, 3), (5, 5)):
        assert smallest_period(Progression(2, 1), k).value == expected
    _run("odd-progression")


@pytest.mark.parametrize(
    "name",
    ["period-decomposition", "gcd-transfer", "scaling", "window-counts",
     "periodicity", "integer-basics"],
)
def test_remaining_suites_pass(name):
    _run(name)


# The modules whose __all__ lists make up the package's, in its order.
PUBLIC_MODULES = ("errors", "gfun", "numtheory", "period", "verify")


def _loaded_names():
    """Every name read in src/aplcm (but __init__.py) and bench/, as a
    variable or an attribute."""
    root = Path(__file__).resolve().parent.parent
    paths = [p for p in (root / "src" / "aplcm").glob("*.py")
             if p.name != "__init__.py"]
    paths += (root / "bench").glob("*.py")
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_public_api_is_stated_once_and_called():
    modules = [importlib.import_module(f"aplcm.{m}") for m in PUBLIC_MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert aplcm.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(aplcm, name) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__
    # Every public name has a reader in the package or the benchmark.
    assert set(joined) - _loaded_names() == set()
