"""Wall-Sun-Sun scanning, the atlas batch driver, and the record writer."""
from __future__ import annotations

import io
from dataclasses import asdict

import pytest
from sympy import factorint

from lucaslab import RecurrenceParams, atlas, atlas_rows, modular, term, term_pair, wss_scan
from lucaslab.atlas import ATLAS_FIELDS, WSS_FIELDS, atlas_row_obj, write_records

from .conftest import naive_orbit, naive_period


# --- wss scanning --------------------------------------------------------------

def test_wss_fibonacci_empty_below_1000(fib):
    assert wss_scan(fib, 1000) == []


def test_wss_pell_below_50(pell):
    findings = wss_scan(pell, 49)
    assert [(f.p, f.k_p, f.k_p2) for f in findings] == [(13, 28, 28), (31, 30, 30)]


def test_wss_pell_13_witness(pell):
    # e(7) = 169 = 13^2 forces the period mod 169 to equal the period mod 13.
    assert term(pell, 7) == 169 == 13 * 13


def test_wss_pell_31_witness(pell):
    # e(30) = 107578520350 = 961 * 111944350, so 31^2 divides e(30) and the
    # period mod 961 collapses onto the period mod 31.
    assert term(pell, 30) == 107578520350
    assert term(pell, 30) % (31 * 31) == 0


def test_wss_skips_primes_dividing_B():
    # B even: p = 2 is inadmissible, so a scan to 2 finds nothing.
    assert wss_scan(RecurrenceParams(1, 2), 2) == []


def test_wss_prefix_consistency(pell):
    shorter = wss_scan(pell, 20)
    longer = wss_scan(pell, 49)
    assert longer[: len(shorter)] == shorter
    assert shorter == [f for f in longer if f.p <= 20]


def test_wss_rejects_bad_bound(fib):
    with pytest.raises(ValueError):
        wss_scan(fib, 1)


def test_wss_scan_matches_naive_walk():
    # p is a finding iff k(p) steps of the pair walk mod p^2 return to (0, 1).
    primes = [p for p in range(2, 120) if all(p % q for q in range(2, p))]
    for A in range(-6, 7):
        for B in (-3, -2, -1, 1, 2, 3):
            expected = []
            for p in primes:
                if B % p == 0:
                    continue
                k, x, y = naive_period(A, B, p), 0, 1
                for _ in range(k):
                    x, y = y, (A * y + B * x) % (p * p)
                if (x, y) == (0, 1):
                    expected.append((p, k, k))
            found = wss_scan(RecurrenceParams(A, B), 119)
            assert [(f.p, f.k_p, f.k_p2) for f in found] == expected, (A, B)


def test_wss_scan_walks_no_orbit(monkeypatch, pell):
    def refuse(*args, **kwargs):
        raise AssertionError("wss_scan walked an orbit")

    monkeypatch.setattr(modular, "_pair_orbit", refuse)
    monkeypatch.setattr(atlas, "_orbit", refuse)
    assert [f.p for f in wss_scan(pell, 2000)] == [13, 31]


def test_pell_wieferich_1546463(pell):
    # OEIS A238736, checked without the scan: k(p) = p - 1 by descent, and
    # M^(p-1) = I holds mod p^2 as well.
    p, k = 1546463, 1546462
    assert term_pair(pell, k, p) == (0, 1)
    assert all(term_pair(pell, k // q, p) != (0, 1) for q in factorint(k))
    assert term_pair(pell, k, p * p) == (0, 1)


def test_wss_degenerate_family_every_prime():
    # (1, -1) repeats with period 6 exactly, so k(p^2) = k(p) = 6 for odd p > 3.
    findings = wss_scan(RecurrenceParams(1, -1), 20)
    assert all(f.k_p == f.k_p2 for f in findings)
    assert {f.p for f in findings} >= {5, 7, 11, 13, 17, 19}
    # p = 3 divides D = -3: k(3) = 3 * ord(2 mod 3) = 6 as well.
    assert [(f.p, f.k_p, f.k_p2) for f in wss_scan(RecurrenceParams(1, -1), 3)] == [(3, 6, 6)]


# --- atlas ----------------------------------------------------------------------

def test_atlas_small_block():
    rows = list(atlas_rows([1], [1], range(2, 6)))
    assert len(rows) == 4
    row5 = next(r for r in rows if r.m == 5)
    assert (row5.cycle_len, row5.alpha, row5.pure) == (20, 5, True)


def test_atlas_degenerate_row():
    (row,) = atlas_rows([1], [2], [4])
    assert (row.tail_len, row.cycle_len, row.alpha, row.pure) == (2, 2, None, False)


def test_atlas_empty_modulus_range():
    assert list(atlas_rows([1], [1], [])) == []


def test_atlas_skips_B_zero_and_sorts():
    rows = list(atlas_rows([2, 1], [0, 1, -1], [3, 2]))
    assert [(r.A, r.B, r.m) for r in rows] == [
        (1, -1, 2), (1, -1, 3), (1, 1, 2), (1, 1, 3),
        (2, -1, 2), (2, -1, 3), (2, 1, 2), (2, 1, 3),
    ]


def test_atlas_rejects_small_modulus():
    with pytest.raises(ValueError):
        list(atlas_rows([1], [1], [1, 5]))


def test_atlas_budget_error_rows():
    # No row is an error row: k(100000) = 150000 is past the short walk, and the
    # descent answers it with no budget.
    rows = list(atlas_rows([1], [1], [3, 100000]))
    assert [(r.tail_len, r.cycle_len, r.alpha, r.error) for r in rows] == [
        (*naive_orbit(1, 1, m), None) for m in (3, 100000)]


# --- the record writer -----------------------------------------------------------

def _write_atlas(A_values, B_values, m_values, fmt: str) -> str:
    sink = io.StringIO()
    write_records(map(atlas_row_obj, atlas_rows(A_values, B_values, m_values)),
                  ATLAS_FIELDS, sink, fmt)
    return sink.getvalue()


def test_atlas_output_deterministic():
    first = _write_atlas([1, 2], [1, 2], range(2, 8), "json")
    assert first == _write_atlas([1, 2], [1, 2], range(2, 8), "json")


def test_atlas_csv_header_and_empty_alpha():
    lines = _write_atlas([1], [2], [4], "csv").splitlines()
    assert lines[0] == "A,B,m,pure,tail_len,cycle_len,alpha"
    assert lines[1] == "1,2,4,false,2,2,"


def test_wss_json_record_shape(pell):
    sink = io.StringIO()
    write_records(map(asdict, wss_scan(pell, 14)), WSS_FIELDS, sink, "json")
    assert sink.getvalue() == '{"A":2,"B":1,"p":13,"k_p":28,"k_p2":28}\n'
