"""Slow reference answers for every query the benchmark sends to the CLI.

Everything here is naive iteration, exact or modular, written without
importing lucaslab, so a fast path in the library never vouches for itself.
Each ``expect_*`` function returns the records the CLI must print (as parsed
JSON objects) and its expected exit code.
"""
from __future__ import annotations

import math


def exact_terms(A: int, B: int, count: int) -> list[int]:
    """e(0), ..., e(count) by the recurrence itself."""
    xs = [0, 1]
    while len(xs) <= count:
        xs.append(A * xs[-1] + B * xs[-2])
    return xs[:count + 1]


def term_mod(A: int, B: int, n: int, m: int) -> int:
    x, y = 0, 1 % m
    for _ in range(n):
        x, y = y, (A * y + B * x) % m
    return x


def orbit(A: int, B: int, m: int) -> tuple[int, int, list[int]]:
    """(tail, cycle, first components) of the pair orbit of (0, 1) mod m."""
    seen: dict[tuple[int, int], int] = {}
    xs: list[int] = []
    x, y = 0, 1 % m
    while (x, y) not in seen:
        seen[(x, y)] = len(xs)
        xs.append(x)
        x, y = y, (A * y + B * x) % m
    tail = seen[(x, y)]
    return tail, len(xs) - tail, xs


def period(A: int, B: int, m: int) -> int:
    """Steps for (0, 1) to return to itself mod m; needs gcd(B, m) = 1."""
    x, y = 1 % m, A % m
    k = 1
    while (x, y) != (0, 1 % m):
        x, y = y, (A * y + B * x) % m
        k += 1
    return k


def returns_after(A: int, B: int, m: int, k: int) -> bool:
    """True when k steps from (0, 1) mod m land on (0, 1) again."""
    x, y = 0, 1 % m
    for _ in range(k):
        x, y = y, (A * y + B * x) % m
    return (x, y) == (0, 1 % m)


def rank_mod(A: int, B: int, m: int) -> int | None:
    """Least n >= 1 with e(n) = 0 mod m, or None if the orbit has no zero."""
    tail, cyc, xs = orbit(A, B, m)
    for n in range(1, tail + cyc + 1):
        if xs[n if n < len(xs) else tail + (n - tail) % cyc] == 0:
            return n
    return None


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if sieve[i]]


def prime_power_base(m: int) -> int | None:
    """p if m = p^k for a prime p, else None."""
    p = next(d for d in range(2, m + 1) if m % d == 0)
    while m % p == 0:
        m //= p
    return p if m == 1 else None


def nu(x: int, p: int) -> int | float:
    if x == 0:
        return math.inf
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def _inf_str(v):
    return "inf" if v == math.inf else v


# --- per-command expectations ------------------------------------------------

def expect_term(A, B, n):
    return [{"A": A, "B": B, "n": n, "term": str(exact_terms(A, B, n)[n])}], 0


def expect_term_mod(A, B, n, m):
    return [{"A": A, "B": B, "n": n, "m": m, "residue": term_mod(A, B, n, m)}], 0


def expect_period(A, B, m):
    return [{"A": A, "B": B, "m": m, "period": period(A, B, m)}], 0


def expect_cycle(A, B, m):
    tail, cyc, _ = orbit(A, B, m)
    return [{"A": A, "B": B, "m": m, "pure": tail == 0,
             "tail_len": tail, "cycle_len": cyc}], 0


def expect_rank(A, B, m):
    alpha = rank_mod(A, B, m)
    p = prime_power_base(m)
    val = None
    if alpha is not None and p is not None:
        val = _inf_str(nu(exact_terms(A, B, alpha)[alpha], p))
    return [{"A": A, "B": B, "m": m, "alpha": alpha, "valuation_at_alpha": val}], 0


def expect_repetition(A, B, p):
    """The law-of-repetition record, or None when the CLI must refuse the input."""
    alpha = rank_mod(A, B, p)
    e = exact_terms(A, B, 2 * p * alpha)
    base = nu(e[alpha], p)
    if base == math.inf:
        return None
    observed = next((j * alpha for j in range(2, 2 * p + 1)
                     if nu(e[j * alpha], p) >= base + 1), None)
    val = nu(e[p * alpha], p)
    return [{"A": A, "B": B, "p": p, "base_rank": alpha, "base_valuation": base,
             "predicted_next_rank": p * alpha, "observed_next_rank": observed,
             "observed_valuation_at_pn": _inf_str(val),
             "holds": observed == p * alpha and val == base + 1}], 0


def expect_zeros(A, B, m, limit):
    alpha = rank_mod(A, B, m)
    zeros = set()
    x, y = 0, 1 % m
    for n in range(1, limit + 1):
        x, y = y, (A * y + B * x) % m
        if x == 0:
            zeros.add(n)
    diff = zeros ^ set(range(alpha, limit + 1, alpha))
    return [{"A": A, "B": B, "m": m, "limit": limit, "alpha": alpha,
             "holds": not diff, "first_violation": min(diff) if diff else None}], 0


def expect_identities(A, B):
    """The five identity verdicts of `lucaslab identities`, from exact terms."""
    e = exact_terms(A, B, 140)
    v = [2 * e[n + 1] - A * e[n] for n in range(139)]
    D = A * A + 4 * B
    recs = []

    def add(check, case, holds, detail=""):
        recs.append({"A": A, "B": B, "check": check, "case": case,
                     "holds": holds, "detail": detail})

    for a in range(1, 9):
        for n in range(1, 13):
            lhs = 2 ** (a - 1) * e[a * n]
            rhs = sum(math.comb(a, j) * D ** ((j - 1) // 2) * e[n] ** j * v[n] ** (a - j)
                      for j in range(1, a + 1, 2))
            if lhs != rhs:
                add("multiplication_formula", f"a={a} n={n}", False, f"lhs={lhs} rhs={rhs}")
    add("multiplication_formula", "a<=8 n<=12", not recs)

    def window(k):
        return e[k + 2] * e[k] - e[k + 1] ** 2

    for p in (3, 5, 7, 9):
        bad = next((n for n in range(1, 16) if window(p * n) != window(n) ** p), None)
        add("det_power_identity", f"p={p} n<=15", bad is None,
            "" if bad is None else f"fails at n={bad}")

    def step_holds(a, n):
        mod = abs(e[n])
        return mod <= 1 or 2 ** a * e[a * n + 1] % mod == pow(v[n], a, mod)

    bad = next(((a, n) for a in range(1, 7) for n in range(1, 13)
                if not step_holds(a, n)), None)
    add("period_step_congruence", "a<=6 n<=12", bad is None,
        "" if bad is None else f"fails at (a, n)={bad}")
    if math.gcd(A, B) == 1:
        first = next((n for n in range(1, 31) if math.gcd(v[n], e[n]) not in (1, 2)), None)
        add("gcd_companion", "n<=30", first is None,
            "" if first is None else f"fails at n={first}")
    bad = next((n for n in range(1, 41)
                if e[n + 1] * e[n - 1] - e[n] ** 2 != (-1) ** n * B ** (n - 1)), None)
    add("cassini_sign_law", "n<=40", bad is None, "" if bad is None else f"fails at n={bad}")
    return recs, 0 if all(r["holds"] for r in recs) else 1


# --- bulk drivers ------------------------------------------------------------

def wss_complete_below(A: int, B: int, bound: int) -> list[int]:
    """Every WSS-analogue prime p < bound (p not dividing B), by naive walks."""
    return [p for p in primes_upto(bound - 1)
            if B % p and returns_after(A, B, p * p, period(A, B, p))]


def wss_finding_error(A: int, B: int, rec: dict) -> str | None:
    """Re-check one reported finding by walking mod p, then k(p) steps mod p^2."""
    p = rec["p"]
    if rec["A"] != A or rec["B"] != B or prime_power_base(p) != p:
        return f"malformed finding {rec}"
    k = period(A, B, p)
    if rec["k_p"] != k or rec["k_p2"] != k:
        return f"finding {rec}: naive k(p) = {k}"
    if not returns_after(A, B, p * p, k):
        return f"finding {rec}: k(p^2) != k(p) by a walk mod p^2"
    return None


def atlas_row(A: int, B: int, m: int) -> list[str]:
    """One CSV row of `lucaslab atlas --format csv`, by a naive orbit walk."""
    tail, cyc, _ = orbit(A, B, m)
    alpha = rank_mod(A, B, m)
    return [str(A), str(B), str(m), "true" if tail == 0 else "false",
            str(tail), str(cyc), "" if alpha is None else str(alpha)]
