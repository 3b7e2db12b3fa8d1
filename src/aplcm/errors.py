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
        raise _over_budget(work.bit_length(), budget, what)


def _over_budget(bits: int, budget: int, what: str) -> BudgetExceededError:
    """The error require_budget raises for a work of this bit length, for
    a caller that refuses a huge work by its bit length alone."""
    return BudgetExceededError(f"{what} needs work ~2^{bits} > budget {budget}")


# An int with more digits than this shows in a message as its first and
# last _BRIEF_EDGE digits and its digit count, and a str with more
# characters as its first and last _BRIEF_EDGE characters and its length,
# so one line stays short however large n, an lcm or an input gets.
_BRIEF_DIGITS = 100
_BRIEF_EDGE = 20


def _brief(value) -> str:
    """str(value), but an int above _BRIEF_DIGITS digits or a str above
    _BRIEF_DIGITS characters is cut to its edges. The int's cut takes one
    power of ten and a few linear steps, never the whole decimal string,
    so it needs no int/str digit limit lifted.
    """
    if type(value) is str:
        if len(value) <= _BRIEF_DIGITS:
            return value
        return (f"{value[:_BRIEF_EDGE]}...{value[-_BRIEF_EDGE:]} "
                f"({len(value)} characters)")
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
