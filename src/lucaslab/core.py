"""Exact arbitrary-precision arithmetic for second-order linear recurrences.

The central object is the sequence e(n) = A*e(n-1) + B*e(n-2) with seeds
e(0) = 0, e(1) = 1 (a Lucas sequence of the first kind), together with its
companion v(n) = 2*e(n+1) - A*e(n) (second kind, seeds 2, A).

Everything here is plain Python integer arithmetic: no floats, no surds.
Negative indices are rejected throughout; e(-1) = 1/B is not an integer in
general.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceededError

DEFAULT_DIGIT_BUDGET = 10**6


@dataclass(frozen=True)
class RecurrenceParams:
    """The coefficient pair (A, B) defining one sequence family.

    B = 0 is rejected: the recurrence would collapse to first order.
    """

    A: int
    B: int

    def __post_init__(self) -> None:
        if self.B == 0:
            raise ValueError("B must be nonzero (first-order degeneration)")

    @property
    def D(self) -> int:
        """Discriminant A^2 + 4B, the square of the root difference."""
        return self.A * self.A + 4 * self.B

    @property
    def coprime_AB(self) -> bool:
        """True iff gcd(|A|, |B|) = 1; several divisibility laws require this."""
        return math.gcd(self.A, self.B) == 1

    def __str__(self) -> str:
        return f"(A={self.A}, B={self.B})"


def term_pair(params: RecurrenceParams, n: int, m: int | None = None) -> tuple[int, int]:
    """Return (e(n), e(n+1)) exactly, or (e(n) % m, e(n+1) % m) when m is given.

    The one e(n) kernel, O(log n) multiplications (of residues when m is
    given). It processes the bits of n from the top, doubling with
        e(2k)   = e(k) * (2*e(k+1) - A*e(k))
        e(2k+1) = e(k+1)^2 + B*e(k)^2
    which are instances of the addition rule
    e(n+t) = e(n+1)*e(t) + B*e(n)*e(t-1).
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    A, B = params.A, params.B
    if m is not None:
        A, B = A % m, B % m
    a, b = 0, 1  # (e(0), e(1))
    for bit in bin(n)[2:] if n else "":
        c = a * (2 * b - A * a)
        d = b * b + B * a * a
        if m is not None:
            c, d = c % m, d % m
        if bit == "1":
            a, b = d, A * d + B * c
        else:
            a, b = c, d
    return (a, b) if m is None else (a % m, b % m)


def term(params: RecurrenceParams, n: int) -> int:
    """Return e(n) exactly; e(0) = 0, e(1) = 1."""
    return term_pair(params, n)[0]


def terms(params: RecurrenceParams, count: int) -> list[int]:
    """Return [e(0), e(1), ..., e(count)] by direct iteration, O(count) additions."""
    values = [0]
    prev, cur = 0, 1
    for _ in range(count):
        values.append(cur)
        prev, cur = cur, params.A * cur + params.B * prev
    return values


def companion(params: RecurrenceParams, n: int) -> int:
    """Return v(n) = 2*e(n+1) - A*e(n).

    v satisfies the same recurrence with v(0) = 2, v(1) = A.
    """
    a, b = term_pair(params, n)
    return 2 * b - params.A * a


def seeded_term(params: RecurrenceParams, w0: int, w1: int, n: int) -> int:
    """Term n of the sequence following the recurrence from seeds (w0, w1).

    Any such sequence is the combination w(n) = w1*e(n) + B*w0*e(n-1); that
    closed form is what gets evaluated, so the cost stays logarithmic in n.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if n == 0:
        return w0
    e_prev, e_n = term_pair(params, n - 1)
    return w1 * e_n + params.B * w0 * e_prev


def cassini_value(params: RecurrenceParams, n: int) -> int:
    """Return e(n+1)*e(n-1) - e(n)^2 for n >= 1.

    This is the determinant of the n-th power of the companion matrix
    [[A, B], [1, 0]] divided by B, and always equals (-1)^n * B^(n-1).
    n = 0 is rejected (it would need e(-1)).
    """
    if n < 1:
        raise ValueError(f"index must be positive, got {n}")
    e_prev, e_n = term_pair(params, n - 1)
    e_next = params.A * e_n + params.B * e_prev
    return e_next * e_prev - e_n * e_n


def term_digit_estimate(params: RecurrenceParams, n: int) -> int:
    """Rough decimal-digit count of e(n), used for exact-term budgeting.

    Uses the dominant root modulus: (|A| + sqrt(D))/2 for real roots,
    sqrt(|B|) for complex ones. Bounded-orbit families estimate as a
    handful of digits regardless of n.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    d = params.D
    if d >= 0:
        rho = (abs(params.A) + math.sqrt(d)) / 2
    else:
        rho = math.sqrt(abs(params.B))
    if rho <= 1.0:
        return len(str(max(abs(params.A), abs(params.B)))) + 1
    return int(n * math.log10(rho)) + 1


def check_term_budget(params: RecurrenceParams, n: int,
                      digit_budget: int = DEFAULT_DIGIT_BUDGET) -> None:
    """Raise BudgetExceededError if e(n) would blow past digit_budget digits."""
    est = term_digit_estimate(params, n)
    if est > digit_budget:
        raise BudgetExceededError(
            f"term index {n} for {params} is ~{est} digits, over the budget of {digit_budget}"
        )


def _nu(x: int, p: int) -> int | float:
    if x == 0:
        return math.inf
    x = abs(x)
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k
