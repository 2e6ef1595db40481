"""Shared test fixtures and brute-force oracles.

The oracles here iterate the recurrence directly (O(n) additions) and never
touch the fast paths they are checking.
"""
from __future__ import annotations

import pytest

from lucaslab import RecurrenceParams


def naive_terms(A: int, B: int, count: int) -> list[int]:
    """e(0)..e(count) by direct iteration."""
    xs = [0, 1]
    while len(xs) <= count:
        xs.append(A * xs[-1] + B * xs[-2])
    return xs


def naive_seeded(A: int, B: int, w0: int, w1: int, count: int) -> list[int]:
    xs = [w0, w1]
    while len(xs) <= count:
        xs.append(A * xs[-1] + B * xs[-2])
    return xs


def naive_pair_orbit(A: int, B: int, m: int) -> tuple[int, int, list[tuple[int, int]]]:
    """(tail, cycle, states) of the pair orbit mod m by first-repeat detection."""
    seen: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []
    x, y = 0, 1 % m
    i = 0
    while (x, y) not in seen:
        seen[(x, y)] = i
        states.append((x, y))
        x, y = y, (A * y + B * x) % m
        i += 1
    first = seen[(x, y)]
    return first, i - first, states


def naive_orbit(A: int, B: int, m: int) -> tuple[int, int, int | None]:
    """(tail, cycle, alpha) by naive_pair_orbit; alpha is the least n >= 1 with
    e(n) = 0 (mod m), or None."""
    tail, cyc, states = naive_pair_orbit(A, B, m)
    states.append(states[tail])  # e(tail + cycle) = e(tail) closes the orbit
    return tail, cyc, next((n for n, (x, _) in enumerate(states) if n and x == 0), None)


def naive_period(A: int, B: int, m: int) -> int:
    tail, cyc, _ = naive_pair_orbit(A, B, m)
    assert tail == 0, "naive_period requires the pure regime"
    return cyc


def grid_params(bound: int = 5) -> list[RecurrenceParams]:
    return [RecurrenceParams(a, b)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1) if b != 0]


@pytest.fixture
def fib() -> RecurrenceParams:
    return RecurrenceParams(1, 1)


@pytest.fixture
def pell() -> RecurrenceParams:
    return RecurrenceParams(2, 1)
