"""Exact arithmetic for the product/lcm ratio of consecutive
arithmetic-progression terms: closed-form smallest periods, brute-force
verification, and period-accelerated lcm evaluation.
"""

from .errors import BudgetExceededError, SelfCheckError
from .gfun import (
    Progression,
    Window,
    count_multiples,
    ratio_valuation_by_counting,
    window_ratio,
    window_terms,
)
from .identities import (
    PeriodTable,
    build_period_table,
    check_gcd_transfer,
    check_lcm_bounds,
    check_ratio_recursion,
    fast_lcm,
    lcm_by_inclusion_exclusion,
    load_period_table,
    save_period_table,
)
from .numtheory import (
    FactoredInteger,
    factorize,
    integer_log,
    is_prime,
    lcm_many,
    lcm_upto,
    primes_upto,
    valuation,
)
from .period import (
    DEFAULT_BUDGET,
    PeriodReport,
    closed_form_period,
    exceptional_factor,
    nonperiod_witness,
    period_rows,
    smallest_period,
    smallest_period_bruteforce,
    valuation_period_bruteforce,
)
from .verify import VerificationReport, available_suites, run_suite

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "FactoredInteger",
    "PeriodReport",
    "PeriodTable",
    "Progression",
    "SelfCheckError",
    "VerificationReport",
    "Window",
    "available_suites",
    "build_period_table",
    "check_gcd_transfer",
    "check_lcm_bounds",
    "check_ratio_recursion",
    "closed_form_period",
    "count_multiples",
    "exceptional_factor",
    "factorize",
    "fast_lcm",
    "integer_log",
    "is_prime",
    "lcm_by_inclusion_exclusion",
    "lcm_many",
    "lcm_upto",
    "load_period_table",
    "nonperiod_witness",
    "period_rows",
    "primes_upto",
    "ratio_valuation_by_counting",
    "run_suite",
    "save_period_table",
    "smallest_period",
    "smallest_period_bruteforce",
    "valuation_period_bruteforce",
    "window_ratio",
    "window_terms",
]
