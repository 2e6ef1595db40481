"""Modular sequence machinery: terms mod m, cycles, periods, ranks.

e(n) mod m comes from core.term_pair's fast doubling reduced mod m.

The pair state (e(n) mod m, e(n+1) mod m) advances by (x, y) -> (y, Ay + Bx).
When gcd(B, m) = 1 the state map is invertible (the companion matrix has
determinant -B), so the orbit of (0, 1) is purely periodic; otherwise it has
a tail before entering its cycle.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

from sympy import factorint, isprime

from .core import RecurrenceParams, _nu, term, term_pair
from .errors import BudgetExceededError, NoPurePeriodError

DEFAULT_STATE_BUDGET = 10**8


def term_mod(params: RecurrenceParams, n: int, m: int) -> int:
    """Return e(n) mod m by fast doubling, O(log n) multiplications of residues."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return term_pair(params, n, m)[0]


def _period_multiple(params: RecurrenceParams, p: int) -> int:
    """A multiple of k(p) for a prime p not dividing B, read off the companion matrix M.

    If p does not divide D = A^2 + 4B, M has distinct eigenvalues in F_p* or
    F_(p^2)*, so k(p) divides p^2 - 1. If p | D, M = lambda*I + N with N
    nilpotent and nonzero, so k(p) = p * ord(lambda) divides p(p - 1).
    """
    return p * (p - 1) if params.D % p == 0 else p * p - 1


def _least_divisor(n: int, holds: Callable[[int], bool]) -> int:
    """Least d | n with holds(d), given holds(n) and that the passing d are
    the multiples of one number: strip each prime q of n while n/q passes."""
    for q in factorint(n):
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


def _check_state_budget(m: int, state_budget: int) -> None:
    if m * m > state_budget:
        raise BudgetExceededError(
            f"modulus {m} needs up to {m * m} pair states, over the budget of {state_budget}"
        )


def _pair_orbit(params: RecurrenceParams, m: int,
                state_budget: int) -> tuple[int, int, array | list[int]]:
    """Walk the pair orbit of (0, 1) mod m up to its first repeated state.

    Returns (tail_len, cycle_len, xs) with xs[n] = e(n) mod m for
    n < tail_len + cycle_len; beyond that, e(n) = e(tail_len + (n - tail_len)
    % cycle_len). This is the only place the step is written out; every
    period, rank, zero and cycle law is read off its result.

    When gcd(B, m) = 1 the orbit is purely periodic, so the walk just waits
    for (0, 1) to come back. Otherwise a stored-state lookup finds the minimal
    tail and cycle in one pass (Floyd/Brent would need a second pass).
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    _check_state_budget(m, state_budget)
    A, B = params.A % m, params.B % m
    # Residues are kept as machine words when they fit: a pure orbit can have
    # nearly m^2 states.
    xs = array("q") if m <= 1 << 63 else []
    append = xs.append
    x, y = 0, 1
    if math.gcd(B, m) == 1:
        while True:
            append(x)
            x, y = y, (A * y + B * x) % m
            if x == 0 and y == 1:
                return 0, len(xs), xs
    seen: dict[int, int] = {}
    while (key := x * m + y) not in seen:
        seen[key] = len(xs)
        append(x)
        x, y = y, (A * y + B * x) % m
    tail = seen[key]
    if tail == 0:
        raise RuntimeError(
            f"internal invariant broken: tail=0 but gcd(B, m)={math.gcd(params.B, m)}"
        )
    return tail, len(xs) - tail, xs


def _first_zero(tail: int, cycle: int, xs: array | list[int]) -> int | None:
    """Least n >= 1 with e(n) = 0 in a _pair_orbit result, or None if there is none."""
    for n in range(1, tail + cycle):
        if xs[n] == 0:
            return n
    return tail + cycle if xs[tail] == 0 else None


def cycle_structure(params: RecurrenceParams, m: int,
                    state_budget: int = DEFAULT_STATE_BUDGET) -> CycleStructure:
    """Minimal (tail_len, cycle_len) of the pair sequence mod m.

    Scans at most m^2 + 1 states; refuses moduli whose worst case exceeds
    state_budget.
    """
    tail, cyc, _ = _pair_orbit(params, m, state_budget)
    return CycleStructure(modulus=m, tail_len=tail, cycle_len=cyc)


def period(params: RecurrenceParams, m: int,
           state_budget: int = DEFAULT_STATE_BUDGET) -> int:
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
    return _pair_orbit(params, m, state_budget)[1]


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


def rank(params: RecurrenceParams, m: int,
         state_budget: int = DEFAULT_STATE_BUDGET) -> RankReport:
    """Least n >= 1 with e(n) = 0 (mod m), scanning one tail plus one cycle."""
    alpha = _first_zero(*_pair_orbit(params, m, state_budget))
    val: int | float | None = None
    if alpha is not None:
        fac = factorint(m)
        if len(fac) == 1:
            (p, _), = fac.items()
            val = _nu(term(params, alpha), p)
    return RankReport(modulus=m, alpha=alpha, valuation_at_alpha=val)


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
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if math.gcd(params.B, m) != 1:
        raise NoPurePeriodError(
            f"gcd(B, m) != 1 for {params}, m={m}; zero indices need the pure regime"
        )
    _, k, xs = _pair_orbit(params, m, state_budget)
    alpha = _first_zero(0, k, xs)
    assert alpha is not None  # e(k) = e(0) = 0 in the pure regime
    zeros = {n for n in range(1, limit + 1) if xs[n % k] == 0}
    expected = set(range(alpha, limit + 1, alpha))
    holds = zeros == expected
    first_violation = min(zeros ^ expected) if not holds else None
    return ZeroProgressionCheck(modulus=m, limit=limit, alpha=alpha,
                                holds=holds, first_violation=first_violation)


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
                   rung: Callable[[int], int]) -> PeriodLawReport:
    """Build the ladder (e, rung(p^e)) for e = 1..e_max and judge the scaling law."""
    if not isprime(p):
        raise ValueError(f"p must be prime, got {p}")
    if params.B % p == 0:
        raise ValueError(f"p = {p} divides B = {params.B}; no pure periods mod p^e")
    if e_max < 1:
        raise ValueError(f"e_max must be positive, got {e_max}")
    ladder = tuple((e, rung(p ** e)) for e in range(1, e_max + 1))
    k1 = ladder[0][1]
    t = max(e for e, k in ladder if k == k1)
    violations = tuple((e, k) for e, k in ladder if e > t and k != p ** (e - t) * k1)
    return PeriodLawReport(p=p, ladder=ladder, t=t,
                           law_holds=not violations, violations=violations)


def period_law_report(params: RecurrenceParams, p: int, e_max: int,
                      state_budget: int = DEFAULT_STATE_BUDGET) -> PeriodLawReport:
    """Compute k(p^e) for e = 1..e_max directly and test the prime-power scaling law."""
    return _ladder_report(params, p, e_max,
                          lambda m: period(params, m, state_budget=state_budget))


def _squares_period(params: RecurrenceParams, m: int, state_budget: int) -> int:
    """Minimal period of n -> e(n)^2 mod m (pure regime only).

    The squares sequence inherits the pair period K, so its minimal period is
    the smallest divisor d of K that shifts the squared orbit onto itself.
    """
    _, k, xs = _pair_orbit(params, m, state_budget)
    sq = [x * x % m for x in xs]
    return next(d for d in range(1, k + 1) if k % d == 0 and sq[d:] + sq[:d] == sq)


def squares_period_law_report(params: RecurrenceParams, p: int, e_max: int,
                              state_budget: int = DEFAULT_STATE_BUDGET) -> PeriodLawReport:
    """Same ladder computation and scaling law, for the squared sequence e(n)^2 mod p^e."""
    return _ladder_report(params, p, e_max,
                          lambda m: _squares_period(params, m, state_budget))


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
    """Brute-force verdict on a cycle-entry prediction.

    predicted is None when the formula is inapplicable; in every consistent
    case that coincides with the pair (1, A) being absent from the cycle.
    """

    modulus: int
    predicted: int | None
    pair_on_cycle: bool
    observed: int | None
    consistent: bool


def cycle_entry_check(params: RecurrenceParams, m: int,
                      state_budget: int = DEFAULT_STATE_BUDGET) -> CycleEntryCheck:
    """Compare cycle_entry_prediction against the actual cycle content mod m."""
    predicted = cycle_entry_prediction(params, m)  # also validates gcd(B, m) != 1
    tail, cyc, xs = _pair_orbit(params, m, state_budget)
    cycle, a = xs[tail:], params.A % m
    # The residue before the pair (1, A) on the cycle; cycle pairs are distinct.
    observed = next((cycle[j - 1] for j in range(cyc)
                     if cycle[j] == 1 and cycle[(j + 1) % cyc] == a), None)
    consistent = (observed is None and predicted is None) or (observed == predicted)
    return CycleEntryCheck(modulus=m, predicted=predicted,
                           pair_on_cycle=observed is not None,
                           observed=observed, consistent=consistent)
