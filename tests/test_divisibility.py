"""Valuations, the repetition law, divisibility biconditionals, trailing zeros."""
from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lucaslab import (
    BudgetExceededError,
    DegenerateSequenceError,
    RecurrenceParams,
    divisibility,
    divisibility_sequence_check,
    power_divisibility_check,
    repetition_law_check,
    square_divisibility_check,
    term,
    term_pair,
    trailing_zeros,
    trailing_zeros_report,
    valuation,
)

from .conftest import naive_terms

COPRIME_PAIRS = [(a, b) for a in range(-4, 5) for b in range(-4, 5)
                 if b != 0 and math.gcd(a, b) == 1]


def _naive_nu(value: int, p: int) -> int | float:
    if value == 0:
        return math.inf
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


# --- valuation ---------------------------------------------------------------

def test_valuation_spot_values():
    assert valuation(75025, 5) == 2
    assert valuation(1, 3) == 0
    assert valuation(-18, 3) == 2
    assert valuation(0, 7) == math.inf


def test_valuation_rejects_composite():
    with pytest.raises(ValueError):
        valuation(100, 6)


# --- repetition law ----------------------------------------------------------

def test_repetition_fibonacci_p5(fib):
    rep = repetition_law_check(fib, 5)
    assert rep.base_rank == 5 and rep.base_valuation == 1
    assert rep.observed_next_rank == 25 and rep.observed_valuation_at_pn == 2
    assert rep.holds


def test_repetition_fibonacci_p7(fib):
    rep = repetition_law_check(fib, 7)
    assert rep.base_rank == 8               # e(8) = 21
    assert rep.observed_next_rank == 56 and rep.holds


def test_repetition_fibonacci_p2_anomaly(fib):
    # nu_2(e(6)) = 3, not base + 1 = 2: a finding, not an error.
    rep = repetition_law_check(fib, 2)
    assert rep.base_rank == 3 and rep.base_valuation == 1
    assert rep.observed_next_rank == 6
    assert rep.observed_valuation_at_pn == 3
    assert not rep.holds


def test_repetition_pell_p3(pell):
    rep = repetition_law_check(pell, 3)
    assert rep.base_rank == 4               # e(4) = 12
    assert rep.holds


def test_repetition_preconditions(fib):
    with pytest.raises(ValueError):
        repetition_law_check(RecurrenceParams(2, 4), 3)     # gcd(A, B) != 1
    with pytest.raises(ValueError):
        repetition_law_check(RecurrenceParams(1, 3), 3)     # p | B
    with pytest.raises(ValueError):
        repetition_law_check(fib, 6)                        # composite


def test_repetition_degenerate_zero_rank():
    # e(3) = 0 exactly for (1, -1): infinite valuation, law vacuous.
    with pytest.raises(DegenerateSequenceError):
        repetition_law_check(RecurrenceParams(1, -1), 5)


def test_repetition_odd_primes_hold_on_sample_grid():
    for a, b in ((1, 1), (2, 1), (3, 2), (-3, 2), (1, 4), (5, -2), (4, -3)):
        params = RecurrenceParams(a, b)
        for p in (3, 5, 7, 11, 13):
            if b % p == 0:
                continue
            assert repetition_law_check(params, p).holds, (a, b, p)


def test_repetition_next_rank_is_multiple_of_base():
    for a, b in ((1, 1), (2, 1), (3, -2), (-1, 2)):
        params = RecurrenceParams(a, b)
        for p in (2, 3, 5, 7):
            if b % p == 0:
                continue
            rep = repetition_law_check(params, p)
            assert rep.observed_next_rank is not None
            assert rep.observed_next_rank % rep.base_rank == 0


@given(ab=st.sampled_from(COPRIME_PAIRS), p=st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=100, deadline=None)
def test_repetition_scan_matches_exact_terms(ab, p):
    a, b = ab
    assume(b % p != 0)
    e = naive_terms(a, b, 2 * p * p * p)  # alpha(p) <= p^2 - 1
    alpha = next(n for n in range(1, len(e)) if e[n] % p == 0)
    base_val = _naive_nu(e[alpha], p)
    if base_val == math.inf:
        with pytest.raises(DegenerateSequenceError):
            repetition_law_check(RecurrenceParams(a, b), p)
        return
    observed = next((j for j in range(2 * alpha, 2 * p * alpha + 1, alpha)
                     if _naive_nu(e[j], p) >= base_val + 1), None)
    rep = repetition_law_check(RecurrenceParams(a, b), p)
    assert (rep.base_rank, rep.base_valuation) == (alpha, base_val)
    assert rep.observed_next_rank == observed
    assert rep.observed_valuation_at_pn == _naive_nu(e[p * alpha], p)


# --- square divisibility (e(n)^2 | e(nm) iff e(n) | m) -------------------------

def test_square_divisibility_fibonacci(fib):
    assert square_divisibility_check(fib, 5, 10).holds
    assert square_divisibility_check(fib, 1, 10).holds   # e(1) = 1, all trivial


def test_square_divisibility_pell(pell):
    assert square_divisibility_check(pell, 2, 8).holds


def test_square_divisibility_witnesses(fib):
    # Direct witnesses: 25 | e(25), 25 does not divide e(10).
    assert term(fib, 25) % 25 == 0
    assert term(fib, 10) % 25 != 0


def test_square_divisibility_long_range(fib):
    # e(n) = 1 makes every m trivial; each m is one residue mod e(n)^2 = 1.
    assert square_divisibility_check(fib, 2, 20000).holds


def test_square_divisibility_counterexample_is_residue(monkeypatch, fib):
    # No coprime pair has a counterexample, so flip one residue by hand:
    # e(5)^2 = 25 must not divide e(10) = 55, but the tampered kernel says it does.
    def tampered(params, n, m=None):
        return (0, 0) if (n, m) == (10, 25) else term_pair(params, n, m)
    monkeypatch.setattr(divisibility, "term_pair", tampered)
    chk = square_divisibility_check(fib, 5, 3)
    assert not chk.holds and chk.counterexamples == ((2, 0),)


def test_square_divisibility_rejects_zero_term():
    with pytest.raises(DegenerateSequenceError):
        square_divisibility_check(RecurrenceParams(1, -1), 3, 5)


def test_square_divisibility_over_grid():
    for a in range(-4, 5):
        for b in range(-4, 5):
            if b == 0 or math.gcd(a, b) != 1:
                continue
            params = RecurrenceParams(a, b)
            e = naive_terms(a, b, 9)
            for n in range(1, 9):
                if e[n] == 0:
                    continue
                assert square_divisibility_check(params, n, 20).holds, (a, b, n)


# --- power divisibility (e(n)^(k+1) | e(n * e(n)^k)) ----------------------------

def test_power_divisibility_fibonacci(fib):
    assert power_divisibility_check(fib, 5, 1).holds
    chk = power_divisibility_check(fib, 4, 2)
    assert chk.holds    # 9 | e(12) = 144, 27 | e(36)


def test_power_divisibility_degenerate_n1(fib):
    chk = power_divisibility_check(fib, 1, 3)
    assert chk.holds and chk.degenerate == (1,)


def test_power_divisibility_checks_astronomical_index():
    # (5, 4): e(6) = 5365, so k = 2 asks about e(6 * 5365^2), a term of ~10^8
    # digits; it is tested by its residue mod 5365^3, and the law holds.
    chk = power_divisibility_check(RecurrenceParams(5, 4), 6, 2)
    assert term(RecurrenceParams(5, 4), 6) == 5365
    assert chk.holds and chk.counterexamples == () and chk.degenerate == ()


def test_power_divisibility_counterexample_is_index(monkeypatch, fib):
    # No coprime pair has a counterexample, so tamper with the residues: with
    # e(3) = 2, e(3 * 2^k) mod 2^(k+1) now reads 2^k mod 2^(k+1), never 0.
    monkeypatch.setattr(divisibility, "term_mod", lambda params, index, m: (index // 3) % m)
    chk = power_divisibility_check(fib, 3, 2)
    assert not chk.holds and chk.counterexamples == ((1, 6), (2, 12))


def test_power_divisibility_budget_checked_before_work(fib):
    # e(30000000) alone would take tens of seconds to build.
    with pytest.raises(BudgetExceededError, match="over the budget of 1000000"):
        power_divisibility_check(fib, 30000000, 1)


def test_power_divisibility_exact_witness(fib):
    assert term(fib, 36) == 14930352
    assert 14930352 % 27 == 0


@given(ab=st.sampled_from(COPRIME_PAIRS), n=st.integers(1, 5), k_max=st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_power_divisibility_matches_exact_terms(ab, n, k_max):
    a, b = ab
    e_n = abs(naive_terms(a, b, n)[n])
    assume(n * e_n ** k_max <= 3000)
    chk = power_divisibility_check(RecurrenceParams(a, b), n, k_max)
    if e_n <= 1:
        assert chk.holds and chk.degenerate == (n,)
        return
    e = naive_terms(a, b, n * e_n ** k_max)
    expected = tuple((k, n * e_n ** k) for k in range(1, k_max + 1)
                     if e[n * e_n ** k] % e_n ** (k + 1) != 0)
    assert chk.counterexamples == expected and chk.holds == (not expected)


# --- divisibility sequence (e(a) | e(b) iff a | b) ------------------------------

def test_divisibility_sequence_fibonacci(fib):
    chk = divisibility_sequence_check(fib, 12, 36)
    assert chk.holds and chk.degenerate == (1, 2)


def test_divisibility_sequence_pell(pell):
    chk = divisibility_sequence_check(pell, 8, 24)
    assert chk.holds and chk.degenerate == (1,)


def test_divisibility_sequence_magnitude_collision():
    # |e(4)| = |e(2)| = 3 for (-3, -5): e(4) divides e(2) although 4 does not
    # divide 2. Every counterexample is such a collision, witnessed by
    # |e(gcd(a, b))| being a multiple of |e(a)|.
    chk = divisibility_sequence_check(RecurrenceParams(-3, -5), 15, 60)
    assert not chk.holds
    assert chk.collision_indices == (4,)
    for a, b, d, e_a, e_d in chk.counterexamples:
        assert d < a and e_d % e_a == 0
    assert (4, 2, 2, 3, -3) in chk.counterexamples


def test_divisibility_sequence_collision_family_set():
    # The full [-5, 5] coprime grid has exactly these colliding pairs.
    colliding = {}
    for a in range(-5, 6):
        for b in range(-5, 6):
            if b == 0 or math.gcd(a, b) != 1:
                continue
            chk = divisibility_sequence_check(RecurrenceParams(a, b), 15, 60)
            if not chk.holds:
                colliding[(a, b)] = chk.collision_indices
    assert colliding == {(-3, -5): (4,), (-3, -4): (4,), (-1, -2): (8,),
                         (1, -2): (8,), (3, -5): (4,), (3, -4): (4,)}


def test_divisibility_sequence_requires_coprime():
    with pytest.raises(ValueError):
        divisibility_sequence_check(RecurrenceParams(2, 4), 10, 20)


# --- trailing zeros -----------------------------------------------------------

def test_trailing_zeros_spot_values(fib):
    assert trailing_zeros(fib, 15, 10) == 1      # e(15) = 610
    assert trailing_zeros(fib, 150, 10) == 2
    assert trailing_zeros(fib, 1, 7) == 0
    assert trailing_zeros(fib, 6, 2) == 3        # e(6) = 8 = 1000 in base 2


def test_trailing_zeros_rejects_bad_inputs(fib):
    with pytest.raises(ValueError):
        trailing_zeros(fib, 0, 10)
    with pytest.raises(ValueError):
        trailing_zeros(fib, 5, 1)
    with pytest.raises(DegenerateSequenceError):
        trailing_zeros(RecurrenceParams(1, -1), 3, 10)


def test_trailing_zeros_strip_equals_valuation_formula(fib, pell):
    # Recompute the valuation form here, independently of the library.
    for params in (fib, pell, RecurrenceParams(3, -2)):
        e = naive_terms(params.A, params.B, 120)
        for base, factors in ((10, {2: 1, 5: 1}), (12, {2: 2, 3: 1}), (8, {2: 3})):
            for n in range(2, 121, 13):
                if e[n] == 0:
                    continue
                by_val = min(valuation(e[n], q) // c for q, c in factors.items())
                assert trailing_zeros(params, n, base) == by_val


def test_trailing_zeros_report(fib):
    rep = trailing_zeros_report(fib, 10, 200)
    assert rep.sample(150) == 2
    assert rep.max_ratio > 0
    rep2 = trailing_zeros_report(fib, 2, 50)
    assert rep2.sample(6) == 3


def test_trailing_zeros_report_minimal_sweep(fib):
    rep = trailing_zeros_report(fib, 10, 2)
    assert rep.samples == ((2, 0),)


def test_trailing_zeros_report_degenerate_zero_terms():
    rep = trailing_zeros_report(RecurrenceParams(1, -1), 10, 20)
    assert set(rep.zero_terms) == {3, 6, 9, 12, 15, 18}
    assert all(n % 3 != 0 for n, _ in rep.samples)
