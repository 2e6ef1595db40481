"""Bulk drivers: Wall-Sun-Sun-analogue scanning and the period atlas.

All emission is deterministic: inputs are processed in ascending order and
write_records, the one writer behind every command, uses fixed field order, a
fixed separator style, and "\n" line endings.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .core import RecurrenceParams, term_pair
from .modular import _alpha_from_unit, _bound_primes, _least_divisor, _orbit, _period_multiple


@dataclass(frozen=True)
class WssFinding:
    """A prime whose period mod p^2 equals its period mod p (for one (A, B))."""

    A: int
    B: int
    p: int
    k_p: int
    k_p2: int


SIEVE_SEGMENT = 2**18
SPLIT_BOUND = 2**16  # the atlas caches parts below it and trial-divides to its root


def _primes_upto(n: int) -> Iterator[int]:
    """The primes p <= n in ascending order, from a segmented sieve of Eratosthenes.

    The primes up to isqrt(n) come from a recursive call and cross out each
    segment of SIEVE_SEGMENT integers in turn: O(sqrt(n) + SIEVE_SEGMENT) memory.
    """
    base = list(_primes_upto(math.isqrt(n))) if n >= 4 else []
    for lo in range(2, n + 1, SIEVE_SEGMENT):
        hi = min(lo + SIEVE_SEGMENT, n + 1)
        sieve = bytearray([1]) * (hi - lo)
        for p in base:
            start = max(p * p, -(-lo // p) * p)
            sieve[start - lo::p] = bytes(len(range(start, hi, p)))
        yield from itertools.compress(range(lo, hi), sieve)


def wss_scan(params: RecurrenceParams, p_max: int) -> list[WssFinding]:
    """Scan primes p <= p_max (skipping p | B) for k(p^2) = k(p), in ascending order.

    The test is by group order, with no orbit walk. M^n = I (mod m) for the
    companion matrix M exactly when term_pair(params, n, m) = (0, 1), and
    k(p^2) is k(p) or p*k(p). N = _period_multiple(params, p) is a multiple
    of k(p) that p divides exactly as often as it divides k(p): never when
    p does not divide D, once when it does. So p*k(p) never divides N, and p
    is a finding exactly when M^N = I (mod p^2): one residue call of
    O(log p) doublings. Only findings pay for the descent to k(p).
    """
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    findings = []
    for p in _primes_upto(p_max):
        if params.B % p == 0:
            continue
        n = _period_multiple(params, p)
        if term_pair(params, n, p * p) == (0, 1):
            k = _least_divisor(n, lambda d: term_pair(params, d, p) == (0, 1), _bound_primes(p))
            findings.append(WssFinding(A=params.A, B=params.B, p=p, k_p=k, k_p2=k))
    return findings


@dataclass(frozen=True)
class AtlasRow:
    """One (A, B, m) record of cycle structure and rank."""

    A: int
    B: int
    m: int
    pure: bool
    tail_len: int
    cycle_len: int
    alpha: int | None
    error: None = None  # always None; bench/trace.py's atlas_rows.error_rows counter reads it


def atlas_rows(A_values: Iterable[int], B_values: Iterable[int],
               m_values: Iterable[int]) -> Iterator[AtlasRow]:
    """Lazily produce one AtlasRow per triple, in (A, B, m) lexicographic order.

    B = 0 is skipped automatically. Every m must be >= 2, checked when the
    call is made, before any row exists. A step-1 range stays lazy, so a huge
    one streams its rows; any other iterable is sorted and deduplicated.

    Rows are composed by CRT from the orbits of coprime parts of m (Wall
    1960, Thm 2): the part built from primes of B, found by gcds, and the
    prime powers of the rest by trial division up to isqrt(SPLIT_BOUND), whose
    leftover is one more part (composite only past SPLIT_BOUND). A row takes
    that part's tail, the lcm of the cycles, and alpha from the lcm of the ranks.
    Each (A, B) caches the orbits of its parts below SPLIT_BOUND only, so a
    huge range streams in O(1) memory.
    """
    def ascending(values: Iterable[int]) -> range | list[int]:
        return values if isinstance(values, range) and values.step == 1 else sorted(set(values))

    m_sorted, B_sorted = ascending(m_values), ascending(B_values)
    if m_sorted and m_sorted[0] < 2:
        raise ValueError(f"every modulus must be >= 2, got {m_sorted[0]}")
    return _rows(ascending(A_values), B_sorted, m_sorted)


def _rows(A_values: Iterable[int], B_values: Iterable[int],
          m_values: Iterable[int]) -> Iterator[AtlasRow]:
    primes = tuple(_primes_upto(math.isqrt(SPLIT_BOUND)))

    def split(n: int) -> dict[int, int]:
        parts = {}
        for p in primes:
            if p * p > n:
                break
            while n % p == 0:
                n //= p
                parts[p] = parts.get(p, 0) + 1
        if n > 1:
            parts[n] = 1
        return parts

    def orbit(q: int, factor=None) -> tuple[int, int, int | None]:
        found = orbits.get(q) or _orbit(params, q, factor)
        if q < SPLIT_BOUND:
            orbits[q] = found
        return found

    for A in A_values:
        for B in B_values:
            if not B:
                continue
            params, orbits = RecurrenceParams(A, B), {}
            for m in m_values:
                u = m  # stripped to the part of m prime to B
                while (d := math.gcd(u, B)) > 1:
                    u //= d
                tail, cycle, _ = orbit(m // u) if u < m else (0, 1, None)
                alpha_u = 1
                for p, e in split(u).items():
                    _, c, a = orbit(p ** e, split if p < SPLIT_BOUND else None)
                    cycle, alpha_u = math.lcm(cycle, c), math.lcm(alpha_u, a)
                T = 2 * m.bit_length() if u < m else 0
                yield AtlasRow(A=A, B=B, m=m, pure=tail == 0, tail_len=tail, cycle_len=cycle,
                               alpha=_alpha_from_unit(params, m, T, lambda: alpha_u))


# ---------------------------------------------------------------------------
# Serialization: one codec for every command. JSON is emitted one object per
# line, keys in record order; integers that can outgrow a machine word
# (sequence terms) are rendered as decimal strings by the caller. CSV has one
# header line of fields; a cell is empty for None, true/false for a bool,
# ";"-joined for a list and ":"-joined for a pair inside a list.
# ---------------------------------------------------------------------------

ATLAS_FIELDS = ("A", "B", "m", "pure", "tail_len", "cycle_len", "alpha")
WSS_FIELDS = ("A", "B", "p", "k_p", "k_p2")


def _csv_cell(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(":".join(map(str, v)) if isinstance(v, (list, tuple)) else str(v)
                        for v in value)
    return value


def write_records(records: Iterable[dict], fields: tuple[str, ...], sink: TextIO,
                  fmt: str = "json") -> int:
    """Stream records to sink as JSON lines or CSV columns `fields`; returns the count."""
    count = 0
    if fmt == "json":
        for rec in records:
            sink.write(json.dumps(rec, separators=(",", ":")) + "\n")
            count += 1
    elif fmt == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(fields)
        for rec in records:
            writer.writerow([_csv_cell(rec.get(f)) for f in fields])
            count += 1
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return count


def atlas_row_obj(row: AtlasRow) -> dict:
    return {f: getattr(row, f) for f in ATLAS_FIELDS}
