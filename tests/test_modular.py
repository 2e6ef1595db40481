"""Modular layer: companion powers, descents, cycles, periods, ranks, ladders, cycle entry."""
from __future__ import annotations

import math
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import factorint

from lucaslab import (
    BudgetExceededError,
    NoPurePeriodError,
    RecurrenceParams,
    cycle_entry_check,
    cycle_entry_prediction,
    cycle_structure,
    period,
    period_law_report,
    rank,
    squares_period_law_report,
    term,
    term_mod,
    term_pair,
    zero_indices_check,
)
from lucaslab import modular
from lucaslab.core import _nu
from lucaslab.modular import (
    RankReport,
    _bound_primes,
    _least_divisor,
    _orbit,
    _period_multiple,
    _squares_period,
)

from .conftest import grid_params, naive_orbit, naive_pair_orbit, naive_period, naive_terms


# --- companion matrix powers through term_pair ---------------------------------
# M^n = [[e(n+1), B*e(n)], [e(n), B*e(n-1)]] for M = [[A, B], [1, 0]], and
# B*e(n-1) = e(n+1) - A*e(n), so M^k = I (mod m) exactly when
# term_pair(params, k, m) == (0, 1).

def test_mat_pow_identity_large_exponent(fib):
    k = naive_period(1, 1, 97)
    assert term_pair(fib, k * 10**9, 97) == (0, 1)
    assert term_pair(fib, k * 10**9 + 1, 97) != (0, 1)


def test_mat_pow_zero_exponent(fib):
    assert term_pair(fib, 0, 10) == (0, 1)


def test_mat_pow_carries_sequence_terms():
    for params in grid_params(3):
        A, B = params.A, params.B
        for m in (2, 10, 97):
            power = (1, 0, 0, 1)  # M^n mod m by naive matrix products
            for n in range(1, 25):
                a, b, c, d = power
                power = ((a * A + b) % m, a * B % m, (c * A + d) % m, c * B % m)
                e_n, e_next = term_pair(params, n, m)
                assert power == (e_next, B * e_n % m, e_n, (e_next - A * e_n) % m)


# --- term_mod ----------------------------------------------------------------

def test_term_mod_spot_values(fib, pell):
    assert term_mod(fib, 10, 7) == 6
    assert term_mod(pell, 7, 3) == 1
    assert term_mod(fib, 0, 11) == 0
    assert term_mod(RecurrenceParams(-4, 3), 0, 9) == 0


def test_term_mod_rejects_bad_inputs(fib):
    with pytest.raises(ValueError):
        term_mod(fib, 5, 1)
    with pytest.raises(ValueError):
        term_mod(fib, -2, 5)


def test_term_mod_agrees_with_exact():
    for params in grid_params(3):
        e = naive_terms(params.A, params.B, 120)
        for m in (2, 3, 7, 10, 49):
            for n in range(0, 121, 7):
                assert term_mod(params, n, m) == e[n] % m


# |A| and |B| may exceed m, and one modulus is past a machine word.
@given(a=st.integers(-50, 50), b=st.integers(-50, 50).filter(lambda x: x != 0),
       m=st.one_of(st.integers(2, 500), st.just(2**64 + 13)), n=st.integers(0, 600))
@settings(max_examples=300, deadline=None)
def test_doubling_mod_m_matches_naive_terms(a, b, m, n):
    params = RecurrenceParams(a, b)
    e = naive_terms(a, b, n + 1)
    assert term_pair(params, n, m) == (e[n] % m, e[n + 1] % m)
    assert term_mod(params, n, m) == e[n] % m


# --- period and rank at a prime by descent ------------------------------------

PRIMES_BELOW_400 = [p for p in range(2, 400) if all(p % q for q in range(2, math.isqrt(p) + 1))]


# The examples have p | D = A^2 + 4B, where k(p) = p * ord(lambda) divides p(p - 1).
@given(a=st.integers(-20, 20), b=st.integers(-20, 20).filter(lambda x: x != 0),
       p=st.sampled_from(PRIMES_BELOW_400))
@example(a=2, b=-1, p=7)
@example(a=1, b=-1, p=3)
@example(a=1, b=1, p=5)
@example(a=6, b=-5, p=2)
@settings(max_examples=150, deadline=None)
def test_descent_matches_walk(a, b, p):
    assume(b % p)
    params = RecurrenceParams(a, b)
    n, primes = _period_multiple(params, p), _bound_primes(p)
    k = _least_divisor(n, lambda d: term_pair(params, d, p) == (0, 1), primes)
    tail, cycle, states = naive_pair_orbit(a, b, p)  # naive_period, keeping the states
    assert (tail, cycle) == (0, k)
    first_zero = next(j for j in range(1, k + 1) if states[j % k][0] == 0)
    assert _least_divisor(n, lambda d: term_mod(params, d, p) == 0, primes) == first_zero


def test_least_divisor_refuses_a_bound_that_fails(fib):
    # 7 is not a multiple of k(5) = 20: no divisor of it can be the period.
    with pytest.raises(RuntimeError, match="internal invariant broken"):
        _least_divisor(7, lambda d: term_pair(fib, d, 5) == (0, 1), [7])


def _orbit_at(short_orbit, params, m):
    """_orbit with SHORT_ORBIT patched: 0 takes every cycle by descent, and a
    large value walks it. (Hypothesis rejects function-scoped fixtures.)"""
    with mock.patch.object(modular, "SHORT_ORBIT", short_orbit):
        return _orbit(params, m)


# The descent on its own, on moduli whose orbits the short walk would take.
# The examples reach each bound branch: p | B but not A, p | A and B, and a
# first zero past T = 2*m.bit_length().
@given(a=st.integers(-30, 30), b=st.integers(-30, 30).filter(lambda x: x != 0),
       m=st.one_of(st.integers(2, 400), st.sampled_from([2**11, 3**7, 5**5, 6**5, 12**4])))
@example(a=2, b=3, m=3 * 7 * 8)    # 3 | B, not A: e(n) = 2^(n-1) mod 3, cycle 2, no zero
@example(a=2, b=2, m=4)            # 2 | A and B: a tail, cycle 1, the zero at 4
@example(a=6, b=2, m=2**6 * 11)    # alpha(11) = 11, but the first zero is 22, past T = 20
@example(a=6, b=6, m=6**5)         # every p | m divides A and B
@example(a=-4, b=-6, m=2**11)      # a 22-state tail, T = 24
@settings(max_examples=150, deadline=None)
def test_descent_matches_naive_walk(a, b, m):
    assert _orbit_at(0, RecurrenceParams(a, b), m) == naive_orbit(a, b, m)


# Walk against descent on cycles past the short walk and past the moduli the
# naive oracles reach.
@given(a=st.integers(-30, 30), b=st.integers(-30, 30).filter(lambda x: x != 0),
       m=st.integers(5000, 200000))
@settings(max_examples=60, deadline=None)
def test_walk_matches_descent_past_the_short_walk(a, b, m):
    params = RecurrenceParams(a, b)
    walked = _orbit_at(10**6, params, m)
    assume(4096 < walked[1] <= 10**6)
    assert _orbit_at(0, params, m) == walked


# --- cycle structure and period ----------------------------------------------

def test_cycle_structure_spot_values(fib):
    cs = cycle_structure(fib, 10)
    assert (cs.tail_len, cs.cycle_len, cs.pure) == (0, 60, True)
    cs = cycle_structure(RecurrenceParams(1, 2), 4)
    assert (cs.tail_len, cs.cycle_len, cs.pure) == (2, 2, False)
    cs = cycle_structure(fib, 2)
    assert (cs.tail_len, cs.cycle_len) == (0, 3)


def test_cycle_structure_matches_naive_orbit():
    for params in grid_params(3):
        for m in range(2, 30):
            tail, cyc, _ = naive_pair_orbit(params.A, params.B, m)
            cs = cycle_structure(params, m)
            assert (cs.tail_len, cs.cycle_len) == (tail, cyc)


def test_purity_iff_gcd():
    for params in grid_params(4):
        for m in range(2, 60):
            assert cycle_structure(params, m).pure == (math.gcd(params.B, m) == 1)


def test_cycle_structure_budget():
    # An orbit of 150,000 states, past the short walk, is found by descent.
    cs = cycle_structure(RecurrenceParams(1, 1), 10**5)
    assert (cs.tail_len, cs.cycle_len) == naive_pair_orbit(1, 1, 10**5)[:2] == (0, 150000)


# The zero walk takes min(limit, k) states: all 60 of k(10) at limit 60, and
# 1000 of k(100000) = 150000 at limit 1000.
@pytest.mark.parametrize("a, b, m, states", [(1, 1, 10, 60), (1, 1, 100000, 1000)])
def test_walk_budget_counts_states_walked(a, b, m, states):
    params = RecurrenceParams(a, b)
    assert zero_indices_check(params, m, states, state_budget=states).holds
    with pytest.raises(BudgetExceededError,
                       match=f"^modulus {m} needs a walk of {states} pair states, "
                             f"over the budget of {states - 1}$"):
        zero_indices_check(params, m, states, state_budget=states - 1)


@pytest.mark.parametrize("a, b, m", [
    (1, 1, 1000000007),   # pure, residues fit a machine word
    (1, 1, 10**20),       # pure, residues past a machine word
    (1, 2, 2000000014),   # with a tail
])
def test_refused_walk_keeps_no_states(a, b, m):
    # Orbits far past the short walk: the descent answers, keeping no states.
    answer = {1000000007: (0, 2 * (m + 1), m + 1),       # (5/p) = -1, so p | e(p + 1)
              10**20: (0, 15 * m // 10, 75 * m // 100),  # k(10^n) = 15 * 10^(n-1), n > 2
              2000000014: (1, m // 2 - 1, None)}[m]      # 2 | B, not A: no zero
    params = RecurrenceParams(a, b)
    tracemalloc.start()
    try:
        cs, alpha = cycle_structure(params, m), rank(params, m).alpha
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cs.tail_len, cs.cycle_len, alpha) == answer
    # The cycle and alpha return the orbit to its state at the tail and to a zero.
    assert term_pair(params, cs.tail_len + cs.cycle_len, m) == term_pair(params, cs.tail_len, m)
    assert alpha is None or term_mod(params, alpha, m) == 0
    # Keeping each state walked would cost 8 bytes a state: 8 GB and more here.
    assert peak < 64 * 1024


@pytest.mark.parametrize("law, args", [
    (_squares_period, (RecurrenceParams(1, 1), 3**9, 52488, [2, 3])),  # 52488 = 2^3 3^8 = k(3^9)
    (zero_indices_check, (RecurrenceParams(1, 1), 5, 10**6)),       # limit far past k = 20
    (zero_indices_check, (RecurrenceParams(0, 2), 10007, 10**7)),   # a zero every other index
    (cycle_entry_check, (RecurrenceParams(1, 2), 20014)),           # tail 1, cycle 10006
], ids=["squares_period", "zero_indices", "zero_indices_dense", "cycle_entry"])
def test_residue_laws_keep_no_orbit(law, args):
    tracemalloc.start()
    try:
        law(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Storing the orbit's residues, or every zero up to the limit, cost 0.16 to 31 MB.
    assert peak < 64 * 1024


@pytest.mark.parametrize("a, b, e", [(-12, -10, 2), (-4, -6, 13)])
def test_longest_tails_are_found(a, b, e):
    # Mod 2^e these tails are 2e states long, the most a tail mod 2^e can be.
    tail, cyc, alpha = naive_orbit(a, b, 2**e)
    assert tail == 2 * e
    cs = cycle_structure(RecurrenceParams(a, b), 2**e)
    assert (cs.tail_len, cs.cycle_len) == (tail, cyc)
    assert _orbit_at(0, RecurrenceParams(a, b), 2**e) == (tail, cyc, alpha)


def test_moduli_past_the_square_guess(fib, pell):
    # Each walk is far below the default budget, though m^2 is not.
    assert period(fib, 20000) == 30000
    assert rank(fib, 10007) == RankReport(modulus=10007, alpha=10008, valuation_at_alpha=1)
    report = period_law_report(pell, 101, 3)
    assert report.ladder == ((1, 204), (2, 20604), (3, 2081004)) and report.t == 1
    # k(10007^2) is past the default budget of a walk; the descents need none.
    assert period_law_report(fib, 10007, 2).ladder == ((1, 20016), (2, 200300112))
    assert period(fib, 10007**2) == 200300112


def test_period_spot_values(fib, pell):
    assert period(fib, 10) == 60
    assert period(fib, 100) == 300
    assert period(pell, 3) == 8


def test_period_requires_pure_regime():
    with pytest.raises(NoPurePeriodError):
        period(RecurrenceParams(1, 2), 4)


def test_period_matches_naive():
    for params in grid_params(3):
        for m in range(2, 40):
            if math.gcd(params.B, m) != 1:
                continue
            assert period(params, m) == naive_period(params.A, params.B, m)


def test_period_equals_cycle_len_and_alpha_divides(fib):
    for m in range(2, 40):
        k = period(fib, m)
        assert k == cycle_structure(fib, m).cycle_len
        alpha = rank(fib, m).alpha
        assert alpha is not None and k % alpha == 0


# --- rank --------------------------------------------------------------------

def test_rank_spot_values(fib, pell):
    assert rank(fib, 10).alpha == 15
    assert rank(pell, 3).alpha == 4
    assert rank(RecurrenceParams(1, 2), 4).alpha is None


def test_rank_valuation_on_prime_powers(fib):
    rep = rank(fib, 25)
    assert rep.alpha == 25
    assert rep.valuation_at_alpha == 2      # e(25) = 75025 = 5^2 * 3001
    rep = rank(fib, 10)
    assert rep.valuation_at_alpha is None   # 10 is not a prime power


def test_rank_infinite_valuation_on_degenerate_family():
    rep = rank(RecurrenceParams(1, -1), 7)
    assert rep.alpha == 3                   # e(3) = 0 exactly
    assert rep.valuation_at_alpha == math.inf


def test_rank_does_not_factor_the_modulus(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorint({n}) called")
    monkeypatch.setattr("lucaslab.modular.factorint", refuse)
    m = 30000000000000000000000000096400000000000000000000000002233  # two ~10^29 primes
    assert rank(RecurrenceParams(1, -1), m) == RankReport(modulus=m, alpha=3,
                                                          valuation_at_alpha=None)


def test_rank_tests_prime_powers_only_at_a_zero(monkeypatch):
    def refuse(n):
        raise AssertionError(f"perfect_power({n}) called")
    monkeypatch.setattr("lucaslab.modular.perfect_power", refuse)
    assert rank(RecurrenceParams(1, 2), 4) == RankReport(modulus=4, alpha=None,
                                                         valuation_at_alpha=None)


def test_rank_valuation_starts_at_the_exponent(monkeypatch, fib):
    # 11^2 divides e(alpha(121)) = e(110), so one residue mod 11^3 settles nu_11 = 2.
    moduli = []
    real = term_mod
    monkeypatch.setattr("lucaslab.modular.term_mod",
                        lambda params, n, m: moduli.append(m) or real(params, n, m))
    assert rank(fib, 121) == RankReport(modulus=121, alpha=110, valuation_at_alpha=2)
    assert moduli == [11**3]


@given(a=st.integers(-9, 9), b=st.integers(-9, 9).filter(lambda x: x != 0),
       p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]),
       e=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_rank_valuation_matches_exact_term(a, b, p, e):
    params = RecurrenceParams(a, b)
    rep = rank(params, p ** e)
    if rep.alpha is None:
        assert rep.valuation_at_alpha is None
    else:
        assert rep.valuation_at_alpha == _nu(term(params, rep.alpha), p)


# --- zero indices ------------------------------------------------------------

def test_zero_indices_spot_cases(fib, pell):
    chk = zero_indices_check(fib, 5, 40)
    assert chk.holds and chk.alpha == 5
    chk = zero_indices_check(fib, 2, 10)
    assert chk.holds and chk.alpha == 3
    chk = zero_indices_check(pell, 3, 12)
    assert chk.holds and chk.alpha == 4


def test_zero_indices_requires_pure(fib):
    with pytest.raises(NoPurePeriodError):
        zero_indices_check(RecurrenceParams(1, 2), 4, 10)


def test_zero_indices_over_grid():
    for params in grid_params(3):
        for m in (2, 3, 5, 7, 9):
            if math.gcd(params.B, m) != 1:
                continue
            k = period(params, m)
            assert zero_indices_check(params, m, 4 * k).holds


# --- period ladders ----------------------------------------------------------

def test_period_law_fibonacci(fib):
    rep = period_law_report(fib, 5, 2)
    assert rep.ladder == ((1, 20), (2, 100)) and rep.t == 1 and rep.law_holds
    rep = period_law_report(fib, 2, 3)
    assert rep.ladder == ((1, 3), (2, 6), (3, 12)) and rep.t == 1 and rep.law_holds
    rep = period_law_report(fib, 3, 1)
    assert rep.ladder == ((1, 8),) and rep.law_holds


def test_period_law_height_at_a_wss_prime(pell):
    # 13 is a Wall-Sun-Sun analogue for Pell: the ladder stays flat for two
    # rungs, so t = 2 and the law predicts k(13^3) = 13 * k(13).
    rep = period_law_report(pell, 13, 3)
    assert rep.ladder == ((1, 28), (2, 28), (3, 364)) and rep.t == 2 and rep.law_holds


def test_period_law_rejects_bad_inputs(fib):
    with pytest.raises(ValueError):
        period_law_report(fib, 4, 2)        # composite
    with pytest.raises(ValueError):
        period_law_report(RecurrenceParams(1, 10), 5, 2)   # p | B


def test_period_law_two_adic_anomaly():
    # k(2), k(4), k(8) = 2, 4, 4: the scaling law genuinely fails at p = 2.
    rep = period_law_report(RecurrenceParams(-4, -1), 2, 3)
    assert rep.ladder == ((1, 2), (2, 4), (3, 4))
    assert rep.t == 1 and not rep.law_holds
    assert rep.violations == ((3, 4),)


def test_ladders_at_a_40_digit_prime(fib):
    # The descent factors p - 1 and p + 1 apart; factorint stalls on p^2 - 1 here.
    p = 10**39 + 3
    assert period_law_report(fib, p, 2).ladder == ((1, 2 * (p + 1)), (2, 2 * p * (p + 1)))
    assert squares_period_law_report(fib, p, 1).ladder == ((1, p + 1),)


def test_ladders_check_p_before_factoring(fib, monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorint({n}) called")
    monkeypatch.setattr("lucaslab.modular.factorint", refuse)
    for law in (period_law_report, squares_period_law_report):
        with pytest.raises(ValueError, match="must be prime"):
            law(fib, 10**39 + 1, 2)
        with pytest.raises(ValueError, match="divides B"):
            law(RecurrenceParams(1, 10**39 + 3), 10**39 + 3, 2)


def test_squares_period_spot_values(fib, pell):
    assert squares_period_law_report(fib, 5, 1).ladder == ((1, 10),)
    assert squares_period_law_report(fib, 2, 1).ladder == ((1, 3),)
    rep = squares_period_law_report(pell, 3, 2)
    assert rep.ladder == ((1, 4), (2, 12)) and rep.law_holds
    # Mod 9 these squares agree with the shift by 4 on two consecutive terms,
    # but not on three: the period is 12.
    for a, b in ((-1, -2), (-2, 4)):
        assert squares_period_law_report(RecurrenceParams(a, b), 3, 2).ladder == ((1, 4), (2, 12))


def test_squares_ladders_fibonacci(fib):
    expected = {3: ((1, 4), (2, 12)), 5: ((1, 10), (2, 50)), 7: ((1, 8), (2, 56))}
    for p, ladder in expected.items():
        rep = squares_period_law_report(fib, p, 2)
        assert rep.ladder == ladder and rep.law_holds


def _naive_squares_period(a: int, b: int, m: int) -> int:
    # One walk of the pair orbit (pure regime) keeping e(n)^2 mod m; the least
    # divisor d of its length k whose rotation leaves the squares unchanged.
    squares, x, y = array("l"), 0, 1 % m
    while not squares or (x, y) != (0, 1 % m):
        squares.append(x * x % m)
        x, y = y, (a * y + b * x) % m
    k = len(squares)
    return next(d for d in range(1, k + 1)
                if k % d == 0 and squares[d:] + squares[:d] == squares)


@given(a=st.integers(-9, 9), b=st.integers(-9, 9).filter(lambda x: x != 0),
       p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]), e_max=st.integers(1, 3))
@example(a=-4, b=-1, p=2, e_max=3)   # the 2-adic anomaly 2, 4, 4
@example(a=2, b=1, p=13, e_max=3)    # a WSS prime: t = 2
@example(a=-1, b=-2, p=3, e_max=2)   # squares: two terms would give 4, not 12
@settings(max_examples=50, deadline=None)
def test_ladders_match_walks(a, b, p, e_max):
    assume(b % p)
    params = RecurrenceParams(a, b)
    assert period_law_report(params, p, e_max).ladder == tuple(
        (e, period(params, p ** e)) for e in range(1, e_max + 1))
    assert squares_period_law_report(params, p, e_max).ladder == tuple(
        (e, _naive_squares_period(a, b, p ** e)) for e in range(1, e_max + 1))


def test_squares_period_divides_pair_period():
    for params in grid_params(3):
        for p in (3, 5, 7):
            if params.B % p == 0:
                continue
            sq = squares_period_law_report(params, p, 2)
            pair = period_law_report(params, p, 2)
            for (_, kq), (_, kp) in zip(sq.ladder, pair.ladder):
                assert kp % kq == 0


# --- cycle entry -------------------------------------------------------------

def test_cycle_entry_spot_predictions():
    assert cycle_entry_prediction(RecurrenceParams(1, 2), 4) is None
    assert cycle_entry_prediction(RecurrenceParams(1, 2), 6) == 3
    assert cycle_entry_prediction(RecurrenceParams(1, 3), 9) is None
    # A enters the inverse: t = (A * m/g)^(-1) mod g. Here g=3, q=5, t=1, x=5.
    assert cycle_entry_prediction(RecurrenceParams(2, 3), 15) == 5


def test_cycle_entry_rejects_pure_regime(fib):
    with pytest.raises(ValueError):
        cycle_entry_prediction(fib, 10)


def test_cycle_entry_check_spot_cases():
    chk = cycle_entry_check(RecurrenceParams(1, 2), 6)
    assert chk.consistent and chk.predicted == 3 and chk.pair_on_cycle
    chk = cycle_entry_check(RecurrenceParams(1, 2), 4)
    assert chk.consistent and chk.predicted is None and not chk.pair_on_cycle
    chk = cycle_entry_check(RecurrenceParams(1, 3), 9)
    assert chk.consistent and chk.predicted is None and not chk.pair_on_cycle


def test_cycle_entry_consistent_over_grid():
    for params in grid_params(4):
        for m in range(2, 31):
            if math.gcd(params.B, m) == 1:
                continue
            assert cycle_entry_check(params, m).consistent


def test_cycle_entry_against_naive_orbit():
    # Independent reconstruction of the predecessor from the raw orbit.
    for a, b, m in ((1, 2, 6), (2, 3, 15), (5, 2, 6), (1, 3, 12), (3, 6, 10)):
        params = RecurrenceParams(a, b)
        tail, cyc, states = naive_pair_orbit(a, b, m)
        cycle_states = states[tail:]
        target = (1 % m, a % m)
        expected = None
        if target in cycle_states:
            expected = cycle_states[(cycle_states.index(target) - 1) % cyc][0]
        assert cycle_entry_prediction(params, m) == expected


def test_rank_alpha_lies_within_orbit():
    # alpha is always found within one tail plus one cycle.
    for params in grid_params(2):
        for m in range(2, 25):
            rep = rank(params, m)
            if rep.alpha is not None:
                assert term(params, rep.alpha) % m == 0


# --- every orbit law against one naive walk ------------------------------------

@given(a=st.integers(-9, 9), b=st.integers(-9, 9).filter(lambda x: x != 0),
       m=st.integers(2, 400), limit=st.integers(1, 600))
@settings(max_examples=200, deadline=None)
def test_orbit_laws_match_naive_walk(a, b, m, limit):
    params = RecurrenceParams(a, b)
    tail, cyc, states = naive_pair_orbit(a, b, m)
    zeros = [n for n, (x, _) in enumerate(states) if n >= 1 and x == 0]
    if states[tail][0] == 0:
        zeros.append(tail + cyc)  # e(tail + cyc) = e(tail) closes the orbit
    alpha = zeros[0] if zeros else None

    cs = cycle_structure(params, m)
    assert (cs.tail_len, cs.cycle_len) == (tail, cyc)
    assert rank(params, m).alpha == alpha
    if tail:
        with pytest.raises(NoPurePeriodError):
            period(params, m)
        target = (1 % m, a % m)
        cycle_states = states[tail:]
        observed = None
        if target in cycle_states:
            observed = cycle_states[cycle_states.index(target) - 1][0]
        assert cycle_entry_check(params, m).observed == observed
        return

    assert period(params, m) == cyc
    walked, x, y = set(), 0, 1 % m
    for n in range(1, limit + 1):
        x, y = y, (a * y + b * x) % m
        if x == 0:
            walked.add(n)
    off = walked ^ set(range(alpha, limit + 1, alpha))
    chk = zero_indices_check(params, m, limit)
    assert (chk.alpha, chk.holds) == (alpha, not off)
    assert chk.first_violation == (min(off) if off else None)
    sq = [x * x % m for x, _ in states]
    assert _squares_period(params, m, cyc, factorint(cyc)) == next(
        d for d in range(1, cyc + 1) if all(sq[n] == sq[(n + d) % cyc] for n in range(cyc)))
