"""p-adic valuations, the law of repetition, divisibility laws, trailing zeros.

The law of repetition: if p^k exactly divides e(n) at the rank n = alpha(p),
then p^(k+1) first divides the sequence at index p*n, with valuation exactly
k+1. It holds for odd primes (p not dividing B, gcd(A, B) = 1); p = 2 can
overshoot the valuation and is reported as a finding, never silently skipped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from sympy import factorint

from .core import (
    DEFAULT_DIGIT_BUDGET,
    RecurrenceParams,
    _nu,
    _require_prime,
    check_term_budget,
    term,
    term_pair,
    terms,
    valuation,  # noqa: F401  (re-exported: lucaslab.divisibility.valuation)
)
from .errors import DegenerateSequenceError
from .modular import (
    _bound_primes,
    _least_divisor,
    _period_multiple,
    _term_valuation,
    term_mod,
)


def _require_coprime(params: RecurrenceParams) -> None:
    if not params.coprime_AB:
        raise ValueError(f"gcd(A, B) != 1 for {params}; this law assumes coprime coefficients")


@dataclass(frozen=True)
class RepetitionLawReport:
    p: int
    base_rank: int
    base_valuation: int
    predicted_next_rank: int
    observed_next_rank: int
    observed_valuation_at_pn: int
    holds: bool


def repetition_law_check(params: RecurrenceParams, p: int) -> RepetitionLawReport:
    """Locate the rank alpha of p, then the rank of p^(v+1), v = nu_p(e(alpha)).

    Both are descents, with no orbit walk or scan: alpha from a multiple n of
    k(p), the next rank from p^v * n, a multiple of k(p^(v+1)); as p does not
    divide B, the zeros mod p^(v+1) are the multiples of its rank. Raises
    DegenerateSequenceError if e(alpha) is exactly zero (infinite valuation;
    the law is vacuous there).
    """
    _require_prime(p)
    _require_coprime(params)
    if params.B % p == 0:
        raise ValueError(f"p = {p} divides B = {params.B}; the law assumes p does not divide B")

    # Zeros mod p sit exactly at the multiples of alpha, and alpha | k(p).
    n, primes = _period_multiple(params, p), _bound_primes(p)  # primes also holds p
    alpha = _least_divisor(n, lambda d: term_mod(params, d, p) == 0, primes)
    base_val = _term_valuation(params, alpha, p)
    if base_val == math.inf:
        raise DegenerateSequenceError(
            f"e({alpha}) = 0 exactly for {params}; prime-power repetition is vacuous"
        )
    assert isinstance(base_val, int)

    higher = p ** (base_val + 1)
    observed = _least_divisor(p ** base_val * n, lambda d: term_mod(params, d, higher) == 0,
                              primes)
    # e(alpha) | e(p*alpha), and a coprime family with a finite valuation at
    # alpha is nondegenerate, so e(p*alpha) != 0 and the valuation is finite.
    val_at_pn = _term_valuation(params, p * alpha, p, base_val)
    holds = observed == p * alpha and val_at_pn == base_val + 1
    return RepetitionLawReport(
        p=p,
        base_rank=alpha,
        base_valuation=base_val,
        predicted_next_rank=p * alpha,
        observed_next_rank=observed,
        observed_valuation_at_pn=val_at_pn,
        holds=holds,
    )


@dataclass(frozen=True)
class DivisibilityCheck:
    """Verdict plus counterexamples for one of the divisibility biconditionals.

    A counterexample is (m, e(n*m) mod e(n)^2) for square_divisibility_check
    and (k, n*e(n)^k) for power_divisibility_check. degenerate lists indices
    exempted as trivial (|e(index)| <= 1).
    """

    holds: bool
    counterexamples: tuple = ()
    degenerate: tuple = ()


def square_divisibility_check(params: RecurrenceParams, n: int, m_max: int,
                              digit_budget: int = DEFAULT_DIGIT_BUDGET) -> DivisibilityCheck:
    """Check e(n)^2 | e(n*m) <=> e(n) | m for every m in [1, m_max].

    The digit budget bounds e(n*m_max) and is checked before any work. Only
    e(n) is built exactly; each m is one residue e(n*m) mod e(n)^2.
    """
    _require_coprime(params)
    if n < 1 or m_max < 1:
        raise ValueError("n and m_max must be positive")
    check_term_budget(params, n * m_max, digit_budget)
    e_n = term(params, n)
    if e_n == 0:
        raise DegenerateSequenceError(f"e({n}) = 0 for {params}; the biconditional is vacuous")
    square = e_n * e_n
    counterexamples = []
    for m in range(1, m_max + 1):
        residue = term_pair(params, n * m, square)[0]
        if (residue == 0) != (m % e_n == 0):
            counterexamples.append((m, residue))
    return DivisibilityCheck(holds=not counterexamples,
                             counterexamples=tuple(counterexamples))


def power_divisibility_check(params: RecurrenceParams, n: int, k_max: int) -> DivisibilityCheck:
    """Check e(n)^(k+1) | e(n * e(n)^k) for k = 1..k_max.

    Each k is one residue: e(n * e^k) mod e^(k+1) with e = |e(n)|, so the
    astronomically large term itself is never built.
    """
    _require_coprime(params)
    if n < 1 or k_max < 1:
        raise ValueError("n and k_max must be positive")
    check_term_budget(params, n)
    e_n = abs(term(params, n))
    if e_n <= 1:
        return DivisibilityCheck(holds=True, degenerate=(n,))
    counterexamples = []
    for k in range(1, k_max + 1):
        index = n * e_n ** k
        if term_mod(params, index, e_n ** (k + 1)) != 0:
            counterexamples.append((k, index))
    return DivisibilityCheck(holds=not counterexamples,
                             counterexamples=tuple(counterexamples))


@dataclass(frozen=True)
class SequenceDivisibilityCheck:
    """Verdict on 'e(a) | e(b) iff a | b' over a rectangle of index pairs.

    Indices a with |e(a)| <= 1 are degenerate (a unit or zero divides
    everything) and are reported, not counted. Each counterexample carries
    the witness d = gcd(a, b): by the gcd law gcd(e(a), e(b)) = |e(gcd(a,b))|,
    a violation means |e(a)| divides |e(d)| for the proper divisor d < a, a
    magnitude collision that only index-mixing families (complex roots) hit.
    """

    holds: bool
    counterexamples: tuple = ()       # (a, b, gcd(a, b), e(a), e(gcd))
    degenerate: tuple = ()            # indices a with |e(a)| <= 1
    collision_indices: tuple = ()     # distinct a values among counterexamples


def divisibility_sequence_check(params: RecurrenceParams, a_max: int,
                                b_max: int) -> SequenceDivisibilityCheck:
    """Exhaustively test the divisibility biconditional for 1 <= a <= a_max, 1 <= b <= b_max."""
    _require_coprime(params)
    if a_max < 1 or b_max < 1:
        raise ValueError("a_max and b_max must be positive")
    values = terms(params, a_max)
    degenerate = tuple(a for a in range(1, a_max + 1) if abs(values[a]) <= 1)
    counterexamples = []
    for a in range(1, a_max + 1):
        e_a = values[a]
        if abs(e_a) <= 1:
            continue
        x, y = 0, 1  # (e(b - 1), e(b)) mod e(a), from b = 1
        for b in range(1, b_max + 1):
            if (y == 0) != (b % a == 0):
                d = math.gcd(a, b)
                counterexamples.append((a, b, d, e_a, values[d]))
            x, y = y, (params.A * y + params.B * x) % e_a
    collisions = tuple(sorted({a for a, *_ in counterexamples}))
    return SequenceDivisibilityCheck(holds=not counterexamples,
                                     counterexamples=tuple(counterexamples),
                                     degenerate=degenerate,
                                     collision_indices=collisions)


def trailing_zeros(params: RecurrenceParams, n: int, base: int) -> int:
    """Trailing zero digits of e(n) written in the given base, n >= 1.

    Computed by digit stripping and cross-checked against the valuation
    formula min over prime powers q^c || base of floor(nu_q(e(n)) / c).
    """
    if n < 1:
        raise ValueError(f"index must be positive, got {n}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    value = term(params, n)
    if value == 0:
        raise DegenerateSequenceError(
            f"e({n}) = 0 for {params}; the trailing-zero count is unbounded"
        )
    return _trailing_zeros_of(value, base, factorint(base))


def _trailing_zeros_of(value: int, base: int, base_factors: dict[int, int]) -> int:
    x = abs(value)
    stripped = 0
    while x % base == 0:
        x //= base
        stripped += 1
    by_valuation = min(_nu(value, q) // c for q, c in base_factors.items())
    if stripped != by_valuation:
        raise RuntimeError(
            f"digit stripping ({stripped}) disagrees with the valuation formula "
            f"({by_valuation}) for a {value.bit_length()}-bit value in base {base}"
        )
    return stripped


@dataclass(frozen=True)
class TrailingZerosReport:
    """Trailing-zero counts z(n) for 2 <= n <= n_max, and max z(n)/log2(n).

    zero_terms lists indices whose term is exactly zero (degenerate families
    only); they carry no finite count and are excluded from the ratio.
    """

    base: int
    samples: tuple[tuple[int, int], ...]
    max_ratio: float
    zero_terms: tuple[int, ...] = field(default=())

    def sample(self, n: int) -> int | None:
        for idx, z in self.samples:
            if idx == n:
                return z
        return None


def trailing_zeros_report(params: RecurrenceParams, base: int, n_max: int,
                          digit_budget: int = DEFAULT_DIGIT_BUDGET) -> TrailingZerosReport:
    """Sweep z(n) for 2 <= n <= n_max and record the largest ratio z(n)/log2(n)."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    check_term_budget(params, n_max, digit_budget)
    base_factors = factorint(base)
    samples = []
    zero_terms = []
    max_ratio = 0.0
    prev, cur = term_pair(params, 2)  # (e(2), e(3))
    value = prev
    for n in range(2, n_max + 1):
        if value == 0:
            zero_terms.append(n)
        else:
            z = _trailing_zeros_of(value, base, base_factors)
            samples.append((n, z))
            max_ratio = max(max_ratio, z / math.log2(n))
        prev, cur = cur, params.A * cur + params.B * prev
        value = prev
    return TrailingZerosReport(base=base, samples=tuple(samples),
                               max_ratio=max_ratio, zero_terms=tuple(zero_terms))
