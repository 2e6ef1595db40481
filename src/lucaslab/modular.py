"""Modular sequence machinery: terms mod m, cycles, periods, ranks.

e(n) mod m comes from core.term_pair's fast doubling reduced mod m.

The pair state (e(n) mod m, e(n+1) mod m) advances by (x, y) -> (y, Ay + Bx).
When gcd(B, m) = 1 the state map is invertible (the companion matrix has
determinant -B), so the orbit of (0, 1) is purely periodic; otherwise it has
a tail before entering its cycle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from sympy import factorint, isprime, perfect_power

from .core import RecurrenceParams, _nu, _require_prime, term, term_pair
from .errors import BudgetExceededError, NoPurePeriodError

DEFAULT_STATE_BUDGET = 10**8


def term_mod(params: RecurrenceParams, n: int, m: int) -> int:
    """Return e(n) mod m by fast doubling, O(log n) multiplications of residues."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return term_pair(params, n, m)[0]


def _period_multiple(params: RecurrenceParams, p: int, e: int = 1) -> int:
    """A multiple of k(p^e) for a prime p not dividing B, read off the companion matrix M.

    If p does not divide D = A^2 + 4B, M has distinct eigenvalues in F_p* or
    F_(p^2)*, so k(p) divides p^2 - 1. If p | D, M = lambda*I + N with N
    nilpotent and nonzero, so k(p) = p * ord(lambda) divides p(p - 1).
    M^k = I + p^j X gives M^(pk) = I (mod p^(j+1)), p = 2 too, so k(p^e) | p^(e-1) k(p).
    """
    return p ** (e - 1) * (p * (p - 1) if params.D % p == 0 else p * p - 1)


def _bound_primes(p: int) -> set[int]:
    """Every prime of _period_multiple(params, p, e), for any params and e: those of
    p, p - 1 and p + 1, each factored on its own (factorint can stall on p^2 - 1
    long after it has split both factors, e.g. at p = 10^39 + 3)."""
    return {p, *factorint(p - 1), *factorint(p + 1)}


def _least_divisor(n: int, holds: Callable[[int], bool], primes: Iterable[int]) -> int:
    """Least d | n with holds(d), given that the passing d are the multiples of
    one number (a rank or period at a prime power, a squares period): strip each
    q of primes, which must hold every prime of n, while n/q passes. A bound n
    that fails raises RuntimeError."""
    if not holds(n):
        raise RuntimeError(f"internal invariant broken: the bound {n} does not pass")
    for q in primes:
        while n % q == 0 and holds(n // q):
            n //= q
    return n


@dataclass(frozen=True)
class CycleStructure:
    """Tail and cycle of the pair sequence (e(n), e(n+1)) mod m.

    pure is True exactly when tail_len = 0, equivalently gcd(B, m) = 1.
    """

    modulus: int
    tail_len: int
    cycle_len: int

    @property
    def pure(self) -> bool:
        return self.tail_len == 0


SHORT_ORBIT = 2**12


def _orbit(params: RecurrenceParams, m: int) -> tuple[int, int, int | None]:
    """(tail_len, cycle_len, alpha) of the pair orbit of (0, 1) mod m: its
    distinct states number tail_len + cycle_len, and alpha is the least n >= 1
    with e(n) = 0 (mod m), or None.

    The tail is 0 when gcd(B, m) = 1 (the step is invertible), else shorter
    than T = 2*m.bit_length(): mod p^e the states form a module of length 2e,
    and the part the step acts on nilpotently dies within 2e steps. So the
    state at T is on the cycle. A walk of T states, then on until the state
    at T comes back, gives a cycle of at most SHORT_ORBIT states without
    factoring m (a product of two ~10^29 primes would stall factorint).

    A longer cycle comes by descent. By Wall's rule it divides the lcm N,
    over p^e || m, of _period_multiple(params, p, e) when p does not divide
    B; of p^(e-1)(p - 1) when p | B but not A (the orbit follows the unit
    root = A mod p); and of 1 when p divides A and B (the orbit dies to
    (0, 0)). Zeros mod the part u of m prime to B are the multiples of
    alpha(u) | k(u) | cycle. A p | B not dividing A leaves e(n) = A^(n-1)
    (mod p), never 0; otherwise e(n) = 0 mod m / u for every n past T, so
    alpha is the first zero walked or else the least multiple of alpha(u)
    past T. The tail is the least t where pair(t) and pair(t + cycle) meet.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    A, B = params.A % m, params.B % m
    T = 0 if math.gcd(B, m) == 1 else 2 * m.bit_length()
    x, y, alpha = 0, 1, None
    for n in range(1, T + 1):
        x, y = y, (A * y + B * x) % m
        if x == 0 and alpha is None:
            alpha = n
    start = sx, sy = x, y
    for d in range(1, SHORT_ORBIT + 1):
        x, y = y, (A * y + B * x) % m
        if x == 0 and alpha is None:
            alpha = T + d
        if x == sx and y == sy:
            cycle = d
            break
    else:
        unit = bound = 1
        primes: set[int] = set()
        zero_free = False
        for p, e in factorint(m).items():
            primes |= _bound_primes(p)
            if B % p:
                unit *= p ** e
                bound = math.lcm(bound, _period_multiple(params, p, e))
            elif A % p:
                zero_free = True
                bound = math.lcm(bound, p ** (e - 1) * (p - 1))
        cycle = _least_divisor(bound, lambda d: term_pair(params, T + d, m) == start, primes)
        if alpha is None and not zero_free:
            step = _least_divisor(cycle, lambda d: term_pair(params, d, unit)[0] == 0, primes)
            alpha = (T // step + 1) * step
    tail = 0
    if T:
        (x, y), (u, v) = (0, 1), term_pair(params, cycle, m)
        while (x, y) != (u, v) and tail < T:
            x, y, u, v = y, (A * y + B * x) % m, v, (A * v + B * u) % m
            tail += 1
        if not 0 < tail < T:
            raise RuntimeError(f"internal invariant broken: tail {tail} mod {m} is not in (0, {T})")
    return tail, cycle, alpha


def cycle_structure(params: RecurrenceParams, m: int) -> CycleStructure:
    """Minimal (tail_len, cycle_len) of the pair sequence mod m."""
    tail, cyc, _ = _orbit(params, m)
    return CycleStructure(modulus=m, tail_len=tail, cycle_len=cyc)


def period(params: RecurrenceParams, m: int) -> int:
    """The period k(m): least k >= 1 with (e(k), e(k+1)) = (0, 1) mod m.

    Exists iff gcd(B, m) = 1; the degenerate regime raises NoPurePeriodError.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if math.gcd(params.B, m) != 1:
        raise NoPurePeriodError(
            f"gcd(B, m) = {math.gcd(params.B, m)} != 1 for {params}, m={m}; "
            "no pure period exists, use cycle_structure"
        )
    return _orbit(params, m)[1]


@dataclass(frozen=True)
class RankReport:
    """Rank of apparition alpha(m) plus, for prime-power moduli, the exact valuation there.

    alpha is None when no index n >= 1 in the orbit has e(n) = 0 (mod m);
    valuation_at_alpha is None unless m is a prime power and alpha exists.
    It is math.inf when the rank term is exactly zero.
    """

    modulus: int
    alpha: int | None
    valuation_at_alpha: int | float | None


def rank(params: RecurrenceParams, m: int) -> RankReport:
    """Least n >= 1 with e(n) = 0 (mod m), from the orbit mod m."""
    alpha = _orbit(params, m)[2]
    val = None
    if alpha is not None:
        p, e = perfect_power(m) or (m, 1)  # m is a prime power exactly when this p is prime
        val = _term_valuation(params, alpha, p, e) if isprime(p) else None
    return RankReport(modulus=m, alpha=alpha, valuation_at_alpha=val)


def _term_valuation(params: RecurrenceParams, n: int, p: int, v: int = 1) -> int | float:
    """nu_p(e(n)) for an n >= 1 with p^v | e(n), math.inf if e(n) = 0. An exact zero
    e(n) = 0 with n >= 1 needs a root ratio of order n in a quadratic field, so n is
    2, 3, 4 or 6; past 6 the residues mod p^(v+1), p^(v+2), ... decide."""
    if n <= 6:
        return _nu(term(params, n), p)
    while term_mod(params, n, p ** (v + 1)) == 0:
        v += 1
    return v


@dataclass(frozen=True)
class ZeroProgressionCheck:
    """Verdict on 'the zero indices mod m up to limit are exactly alpha, 2*alpha, ...'."""

    modulus: int
    limit: int
    alpha: int
    holds: bool
    first_violation: int | None


def zero_indices_check(params: RecurrenceParams, m: int, limit: int,
                       state_budget: int = DEFAULT_STATE_BUDGET) -> ZeroProgressionCheck:
    """Check that zeros of e mod m form the arithmetic progression of multiples of alpha(m).

    Requires gcd(B, m) = 1 (a zero and a pure period always exist there).
    Zeros repeat with the period k and e(k) = 0, so both sets differ on
    [1, limit] exactly when, and first where, they differ on [1, min(limit, k)].
    With k and alpha from the orbit, one walk of min(limit, k) states, which
    state_budget bounds, compares each e(n) with n as it goes and keeps nothing.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if math.gcd(params.B, m) != 1:
        raise NoPurePeriodError(
            f"gcd(B, m) != 1 for {params}, m={m}; zero indices need the pure regime"
        )
    _, k, alpha = _orbit(params, m)
    assert alpha is not None  # e(k) = e(0) = 0 in the pure regime
    states = min(limit, k)
    if states > state_budget:
        raise BudgetExceededError(
            f"modulus {m} needs a walk of {states} pair states, over the budget of {state_budget}"
        )
    A, B = params.A % m, params.B % m
    x, y, first_violation = 0, 1, None
    for n in range(1, states + 1):
        x, y = y, (A * y + B * x) % m
        if (x == 0) != (n % alpha == 0):
            first_violation = n
            break
    return ZeroProgressionCheck(modulus=m, limit=limit, alpha=alpha,
                                holds=first_violation is None, first_violation=first_violation)


@dataclass(frozen=True)
class PeriodLawReport:
    """The ladder k(p), k(p^2), ..., its stabilization height t, and the scaling-law verdict.

    law_holds means: for every e > t in the ladder, k(p^e) = p^(e-t) * k(p),
    where t is the largest exponent with k(p^t) = k(p). Violations list the
    offending (e, k(p^e)) rungs; a false verdict is a finding, not an error.
    """

    p: int
    ladder: tuple[tuple[int, int], ...]
    t: int
    law_holds: bool
    violations: tuple[tuple[int, int], ...]


def _ladder_report(params: RecurrenceParams, p: int, e_max: int,
                   rung: Callable[[int, int, set[int]], int]) -> PeriodLawReport:
    """Build the ladder (e, rung(p^e, n, primes)) for e = 1..e_max, where n is
    _period_multiple(params, p, e) and primes hold its primes, and judge the scaling law."""
    _require_prime(p)
    if params.B % p == 0:
        raise ValueError(f"p = {p} divides B = {params.B}; no pure periods mod p^e")
    if e_max < 1:
        raise ValueError(f"e_max must be positive, got {e_max}")
    primes = _bound_primes(p)
    ladder = tuple((e, rung(p ** e, _period_multiple(params, p, e), primes))
                   for e in range(1, e_max + 1))
    k1 = ladder[0][1]
    t = max(e for e, k in ladder if k == k1)
    violations = tuple((e, k) for e, k in ladder if e > t and k != p ** (e - t) * k1)
    return PeriodLawReport(p=p, ladder=ladder, t=t,
                           law_holds=not violations, violations=violations)


def period_law_report(params: RecurrenceParams, p: int, e_max: int) -> PeriodLawReport:
    """Compute each k(p^e), e = 1..e_max, by a checked descent from _period_multiple
    (the scaling law is not assumed), and test the prime-power scaling law."""
    return _ladder_report(params, p, e_max, lambda m, n, primes: _least_divisor(
        n, lambda d: term_pair(params, d, m) == (0, 1), primes))


def _squares_period(params: RecurrenceParams, m: int, n: int, primes: Iterable[int]) -> int:
    """Minimal period of s(n) = e(n)^2 mod m (pure regime only), by descent.

    s(n+3) = (A^2+B) s(n+2) + (A^2 B+B^2) s(n+1) - B^3 s(n), so d is a period
    exactly when (s(d), s(d+1), s(d+2)) = (0, 1, A^2) (two terms give 4, not 12,
    for (-1, -2) mod 9), and the periods are the multiples of one d | n, any pair
    period; primes hold the primes of n.
    """
    A, B = params.A, params.B

    def shifts(d: int) -> bool:
        a, b = term_pair(params, d, m)
        return (a * a % m, b * b % m, (A * b + B * a) ** 2 % m) == (0, 1, A * A % m)

    return _least_divisor(n, shifts, primes)


def squares_period_law_report(params: RecurrenceParams, p: int, e_max: int) -> PeriodLawReport:
    """Same ladder computation and scaling law, for the squared sequence e(n)^2 mod p^e."""
    return _ladder_report(params, p, e_max, lambda *rung: _squares_period(params, *rung))


def cycle_entry_prediction(params: RecurrenceParams, m: int) -> int | None:
    """Predict the residue that precedes the pair (1, A) on the cycle when gcd(B, m) != 1.

    With g = gcd(B, m) and q = m/g, a predecessor (x, 1) of (1, A) forces
    B*x = 0 (mod m), so x = t*q; for (x, 1) to sit on the cycle it needs a
    predecessor of its own, which requires A*t*q = 1 (mod g). Hence
    t = (A*q)^(-1) mod g when that inverse exists, and the prediction is
    x = t*q mod m. Returns None when the inverse does not exist, in which
    case (1, A) does not lie on the cycle at all.
    """
    g = math.gcd(params.B, m)
    if g == 1:
        raise ValueError(
            f"gcd(B, m) = 1 for {params}, m={m}: the cycle starts at (0, 1), use period"
        )
    q = m // g
    try:
        t = pow(params.A * q, -1, g)
    except ValueError:
        return None
    return (t * q) % m


@dataclass(frozen=True)
class CycleEntryCheck:
    """Verdict on a cycle-entry prediction, read off the walked orbit.

    predicted is None when the formula is inapplicable; in every consistent
    case that coincides with the pair (1, A) being absent from the cycle.
    """

    modulus: int
    predicted: int | None
    pair_on_cycle: bool
    observed: int | None
    consistent: bool


def cycle_entry_check(params: RecurrenceParams, m: int) -> CycleEntryCheck:
    """Compare cycle_entry_prediction against the orbit mod m. Its states are
    distinct and (1, A) is the one at index 1, so (1, A) is on the cycle exactly
    when tail_len = 1, right after the state (e(cycle_len), 1) at cycle_len."""
    predicted = cycle_entry_prediction(params, m)  # also validates gcd(B, m) != 1
    tail, cyc, _ = _orbit(params, m)
    observed = term_mod(params, cyc, m) if tail == 1 else None
    consistent = observed == predicted
    return CycleEntryCheck(modulus=m, predicted=predicted,
                           pair_on_cycle=observed is not None,
                           observed=observed, consistent=consistent)
