"""Exception types shared across the package."""

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
