"""Exception types shared across the package, and the bounded form in
which their messages show integers."""

import math

__all__ = ["BudgetExceededError", "SelfCheckError"]


class BudgetExceededError(Exception):
    """An exhaustive computation would exceed the configured work budget.

    Raised instead of silently truncating a sweep, so every completed
    oracle run is a proof-by-exhaustion at its scale.
    """


class SelfCheckError(Exception):
    """An internal consistency check failed.

    These checks guard quantities the underlying arithmetic guarantees
    (exact divisions, uniqueness of the exceptional prime, witness
    inequalities). Seeing this exception means a bug, not bad input.
    """


def require_budget(work: int, budget: int, what: str) -> None:
    """Refuse size-dependent work above the budget, naming it as ~2^bits."""
    if work > budget:
        raise BudgetExceededError(
            f"{what} needs work ~2^{work.bit_length()} > budget {budget}"
        )


# An int with more digits than this shows in a message as its first and
# last _BRIEF_EDGE digits and its digit count, so one line stays short
# however large n or an lcm gets.
_BRIEF_DIGITS = 100
_BRIEF_EDGE = 20


def _brief(value) -> str:
    """str(value), but an int above _BRIEF_DIGITS digits is cut to its
    edges. The cut takes one power of ten and a few linear steps, never
    the whole decimal string, so it needs no int/str digit limit lifted.
    """
    if type(value) is not int or value.bit_length() < 333:  # < 10**100
        return str(value)
    size = abs(value)
    # int(bit_length * log10(2)) exceeds floor(log10(size)) by at most one,
    # and two less stays below it whatever the float rounding.
    exponent = int(size.bit_length() * math.log10(2)) - 2
    power = 10**exponent
    while power * 10 <= size:
        power *= 10
        exponent += 1
    digits = exponent + 1
    if digits <= _BRIEF_DIGITS:
        return str(value)
    head = size // (power // 10 ** (_BRIEF_EDGE - 1))
    tail = size % 10**_BRIEF_EDGE
    sign = "-" if value < 0 else ""
    return f"{sign}{head}...{tail:0{_BRIEF_EDGE}d} ({digits} digits)"
