"""Exact-arithmetic layer: terms, pairs, companions, seeded combinations, Cassini."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lucaslab
from lucaslab import (
    BudgetExceededError,
    RecurrenceParams,
    cassini_value,
    companion,
    seeded_term,
    term,
    term_digit_estimate,
    term_pair,
)
from lucaslab.core import check_term_budget

from .conftest import grid_params, naive_seeded, naive_terms

nonzero_B = st.integers(-9, 9).filter(lambda b: b != 0)


def test_params_reject_zero_B():
    with pytest.raises(ValueError):
        RecurrenceParams(3, 0)


def test_params_derived_fields():
    p = RecurrenceParams(2, 1)
    assert p.D == 8
    assert p.coprime_AB
    assert not RecurrenceParams(2, 4).coprime_AB
    # gcd(0, 1) = 1, so (0, 1) counts as coprime
    assert RecurrenceParams(0, 1).coprime_AB


def test_term_seed_values(fib):
    assert term(fib, 0) == 0
    assert term(fib, 1) == 1


def test_term_spot_values(fib, pell):
    assert term(fib, 10) == 55
    assert term(pell, 7) == 169


def test_term_rejects_negative_index(fib):
    with pytest.raises(ValueError):
        term(fib, -1)
    with pytest.raises(ValueError):
        term_pair(fib, -3)


def test_term_pair_spot_values(fib, pell):
    assert term_pair(fib, 5) == (5, 8)
    assert term_pair(pell, 3) == (5, 12)
    for params in (fib, pell, RecurrenceParams(-4, 3)):
        assert term_pair(params, 0) == (0, 1)


def test_term_matches_iteration_over_grid():
    for params in grid_params(3):
        e = naive_terms(params.A, params.B, 65)
        for n in range(65):
            assert term_pair(params, n) == (e[n], e[n + 1])


@given(a=st.integers(-9, 9), b=nonzero_B, n=st.integers(0, 300))
@settings(max_examples=150)
def test_term_pair_agrees_with_iteration(a, b, n):
    params = RecurrenceParams(a, b)
    e = naive_terms(a, b, n + 1)
    assert term_pair(params, n) == (e[n], e[n + 1])


@given(a=st.integers(-6, 6), b=nonzero_B, n=st.integers(0, 60), t=st.integers(1, 60))
@settings(max_examples=200)
def test_addition_identity(a, b, n, t):
    e = naive_terms(a, b, n + t + 1)
    assert e[n + t] == e[n + 1] * e[t] + b * e[n] * e[t - 1]


def test_companion_seed_and_spots(fib, pell):
    for params in (fib, pell, RecurrenceParams(-3, 2)):
        assert companion(params, 0) == 2
        assert companion(params, 1) == params.A
    assert companion(fib, 4) == 7          # Lucas numbers 2, 1, 3, 4, 7
    assert companion(pell, 3) == 14        # 2*e(4) - 2*e(3) = 24 - 10


def test_companion_satisfies_recurrence():
    for params in grid_params(4):
        v = [companion(params, n) for n in range(40)]
        for n in range(2, 40):
            assert v[n] == params.A * v[n - 1] + params.B * v[n - 2]


def test_seeded_term_reproduces_base_sequence(fib):
    assert seeded_term(fib, 0, 1, 9) == 34


def test_seeded_term_spot_values(fib, pell):
    assert seeded_term(fib, 2, 1, 4) == 7          # Lucas seeds
    assert seeded_term(pell, 2, 2, 2) == 6         # 2, 2, 6, 14, 34


def test_seeded_term_equals_companion(fib):
    for n in range(1, 30):
        assert seeded_term(fib, 2, 1, n) == companion(fib, n)


@given(a=st.integers(-5, 5), b=st.integers(-5, 5).filter(lambda x: x != 0),
       w0=st.integers(-3, 3), w1=st.integers(-3, 3), n=st.integers(0, 50))
@settings(max_examples=200)
def test_seeded_term_agrees_with_iteration(a, b, w0, w1, n):
    params = RecurrenceParams(a, b)
    w = naive_seeded(a, b, w0, w1, n)
    assert seeded_term(params, w0, w1, n) == w[n]


def test_cassini_spot_values(fib, pell):
    assert cassini_value(fib, 1) == -1    # e(2)e(0) - e(1)^2
    assert cassini_value(fib, 4) == 1     # 5*2 - 9
    assert cassini_value(pell, 3) == -1   # 12*2 - 25


def test_cassini_rejects_n_zero(fib):
    with pytest.raises(ValueError):
        cassini_value(fib, 0)


def test_cassini_sign_law_over_grid():
    # The empirical law: e(n+1)e(n-1) - e(n)^2 = (-1)^n * B^(n-1).
    for params in grid_params(5):
        for n in range(1, 41):
            assert cassini_value(params, n) == (-1) ** n * params.B ** (n - 1)


def test_recurrence_space_closure():
    # Integer combinations of shifted copies obey the same recurrence.
    for params in grid_params(3):
        e = naive_terms(params.A, params.B, 36)
        for r, s, p_shift, q_shift in ((2, -1, 0, 3), (-3, 3, 5, 1), (1, 1, 2, 2)):
            w = [r * e[n + p_shift] + s * e[n + q_shift] for n in range(31)]
            for n in range(2, 31):
                assert w[n] == params.A * w[n - 1] + params.B * w[n - 2]


def test_digit_estimate_tracks_reality(fib, pell):
    for params, n in ((fib, 1000), (pell, 500), (RecurrenceParams(5, 5), 300)):
        actual = len(str(abs(term(params, n))))
        estimate = term_digit_estimate(params, n)
        assert abs(estimate - actual) <= max(3, actual // 10)


def test_term_budget_enforced(fib):
    with pytest.raises(BudgetExceededError):
        check_term_budget(fib, 10**8, digit_budget=1000)
    check_term_budget(fib, 1000, digit_budget=1000)  # ~209 digits, fine


def test_sympy_imported_by_modular_only():
    # Every primality and factoring question goes through modular, so a
    # replacement for sympy changes one module.
    importers = set()
    for path in Path(lucaslab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.partition(".")[0] == "sympy" for name in names):
                importers.add(path.name)
    assert importers == {"modular.py"}
