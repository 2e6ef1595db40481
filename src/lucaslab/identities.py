"""Exact and modular identity checks for the sequence family.

Each check returns a CongruenceCheckResult carrying both sides, so a failing
verdict is directly inspectable. Exact integer identities use modulus None.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .core import RecurrenceParams, cassini_value, companion, term, term_pair
from .errors import HypothesisNotMetError
from .modular import _require_prime, term_mod

DET_POWER_MODULI = (3, 5, 7, 9)


@dataclass(frozen=True)
class CongruenceCheckResult:
    """Both sides of a claimed identity, reduced mod modulus (None = exact equality)."""

    lhs: int
    rhs: int
    modulus: int | None
    holds: bool
    context: str


def _result(lhs: int, rhs: int, modulus: int | None, context: str) -> CongruenceCheckResult:
    return CongruenceCheckResult(lhs=lhs, rhs=rhs, modulus=modulus,
                                 holds=lhs == rhs, context=context)


def multiplication_formula_check(params: RecurrenceParams, a: int,
                                 n: int) -> CongruenceCheckResult:
    """Exact check of the index-multiplication expansion.

    2^(a-1) * e(a*n) equals the odd-j binomial sum
        sum_{j odd, 1 <= j <= a} C(a, j) * D^((j-1)/2) * e(n)^j * v(n)^(a-j)
    where D = A^2 + 4B. The full sum is used; no collapsed-constant shortcut.
    """
    if a < 1 or n < 1:
        raise ValueError("a and n must be positive")
    e_n, e_n1 = term_pair(params, n)
    v_n = 2 * e_n1 - params.A * e_n
    d = params.D
    lhs = 2 ** (a - 1) * term(params, a * n)
    rhs = sum(
        math.comb(a, j) * d ** ((j - 1) // 2) * e_n ** j * v_n ** (a - j)
        for j in range(1, a + 1, 2)
    )
    return _result(lhs, rhs, None, f"{params} a={a} n={n}")


def gcd_companion_check(params: RecurrenceParams, n_max: int) -> tuple[bool, int | None]:
    """Check gcd(v(n), e(n)) in {1, 2} for 1 <= n <= n_max; needs gcd(A, B) = 1.

    Returns (holds, first violating n or None).
    """
    if not params.coprime_AB:
        raise ValueError(f"gcd(A, B) != 1 for {params}")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    prev, cur = 0, 1
    for n in range(1, n_max + 1):
        nxt = params.A * cur + params.B * prev
        v = 2 * nxt - params.A * cur
        if math.gcd(v, cur) not in (1, 2):
            return False, n
        prev, cur = cur, nxt
    return True, None


def determinant_congruence_check(params: RecurrenceParams, p: int, e: int,
                                 n: int) -> CongruenceCheckResult:
    """Check e(np+1)*e(np-1) = (-B)^(p-1) * (e(n+1)*e(n-1))^p (mod p^(e+1)).

    Conditional on p^e | e(n) (raises HypothesisNotMetError otherwise) and on
    p being an odd prime. For A = B = 1 the (-B)^(p-1) factor is 1 and this
    is the plain Fibonacci determinant congruence.
    """
    _require_prime(p)
    if p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if e < 1 or n < 1:
        raise ValueError("e and n must be positive")
    if term_mod(params, n, p ** e) != 0:
        raise HypothesisNotMetError(
            f"p^e = {p}^{e} does not divide e({n}) for {params}"
        )
    mod = p ** (e + 1)
    lhs = term_mod(params, n * p + 1, mod) * term_mod(params, n * p - 1, mod) % mod
    inner = term_mod(params, n + 1, mod) * term_mod(params, n - 1, mod) % mod
    rhs = pow(-params.B, p - 1, mod) * pow(inner, p, mod) % mod
    return _result(lhs, rhs, mod, f"{params} p={p} e={e} n={n}")


def det_power_identity_check(params: RecurrenceParams, p: int,
                             n: int) -> CongruenceCheckResult:
    """Exact check of e(pn+2)*e(pn) - e(pn+1)^2 = (e(n+2)*e(n) - e(n+1)^2)^p.

    Both sides are signed powers of B; the signs agree exactly when p is odd
    (compositeness is fine), so even p is rejected.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd integer >= 3, got {p}")
    if n < 1:
        raise ValueError("n must be positive")

    def window(k: int) -> int:
        e_k, e_k1 = term_pair(params, k)
        e_k2 = params.A * e_k1 + params.B * e_k
        return e_k2 * e_k - e_k1 * e_k1

    return _result(window(p * n), window(n) ** p, None, f"{params} p={p} n={n}")


def period_step_congruence(params: RecurrenceParams, a: int,
                           n: int) -> CongruenceCheckResult:
    """Check 2^a * e(a*n + 1) = v(n)^a (mod e(n)).

    This is the surviving term of the index-multiplication expansion once
    every e(n) multiple drops out; premultiplying by 2^a keeps it valid for
    even e(n) with no inverse of 2 needed. |e(n)| <= 1 makes the congruence
    vacuous and is reported as trivially true.
    """
    if a < 1 or n < 1:
        raise ValueError("a and n must be positive")
    modulus = abs(term(params, n))
    context = f"{params} a={a} n={n}"
    if modulus <= 1:
        return CongruenceCheckResult(lhs=0, rhs=0, modulus=max(modulus, 1),
                                     holds=True, context=context + " (vacuous modulus)")
    lhs = (2 ** a % modulus) * term_mod(params, a * n + 1, modulus) % modulus
    rhs = pow(companion(params, n), a, modulus)
    return _result(lhs, rhs, modulus, context)


# --- first-violation probes over fixed bounds, shared by `verify` and the `identities` command

def multiplication_formula_violation(params: RecurrenceParams) -> tuple[int, int] | None:
    """First (a, n) with a <= 8, n <= 12 where the multiplication expansion fails."""
    return next(((a, n) for a, n in product(range(1, 9), range(1, 13))
                 if not multiplication_formula_check(params, a, n).holds), None)


def det_power_identity_violation(params: RecurrenceParams, p: int) -> int | None:
    """First n <= 15 where the determinant power identity fails for p."""
    return next((n for n in range(1, 16) if not det_power_identity_check(params, p, n).holds), None)


def period_step_violation(params: RecurrenceParams) -> tuple[int, int] | None:
    """First (a, n) with a <= 6, n <= 12 where the period-step congruence fails."""
    return next(((a, n) for a, n in product(range(1, 7), range(1, 13))
                 if not period_step_congruence(params, a, n).holds), None)


def gcd_companion_violation(params: RecurrenceParams) -> int | None:
    """First n <= 30 with gcd(v(n), e(n)) outside {1, 2}; needs gcd(A, B) = 1."""
    return gcd_companion_check(params, 30)[1]


def cassini_sign_violation(params: RecurrenceParams) -> int | None:
    """First n <= 40 where e(n+1)e(n-1) - e(n)^2 = (-1)^n B^(n-1) fails."""
    return next((n for n in range(1, 41)
                 if cassini_value(params, n) != (-1) ** n * params.B ** (n - 1)), None)
