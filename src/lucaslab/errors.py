"""Exception types shared across the library.

The CLI maps these onto exit codes, so keep the hierarchy flat and the
meanings crisp.
"""
from __future__ import annotations


class LucasLabError(Exception):
    """Base class for all library-specific errors."""


class NoPurePeriodError(LucasLabError):
    """Raised when a pure period is requested but gcd(B, m) != 1.

    In that regime the pair sequence mod m has a nonempty pre-period and
    never returns to (0, 1); use cycle_structure instead.
    """


class BudgetExceededError(LucasLabError):
    """Raised when a scan or exact-term computation exceeds its budget."""


class DegenerateSequenceError(LucasLabError):
    """Raised when a check's hypothesis is vacuous because a term is exactly zero.

    Parameter pairs whose root ratio is a root of unity, e.g. (A, B) in
    {(0, +-1), (+-1, -1)}, hit exact zeros at positive indices; p-adic
    valuations there are infinite and prime-power laws say nothing.
    """


class HypothesisNotMetError(LucasLabError):
    """Raised when a conditional congruence is invoked on inputs that fail its hypothesis."""
