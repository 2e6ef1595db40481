"""The full property-verification engine behind the `verify` subcommand.

A suite is a probe plus `_sweep`, declared once by `_suite(name, cases, ok,
fail)` above the probe: the probe tests one case, an (A, B) pair or a
(pair, p) case, and returns None when the law held or the violation it
found; `_sweep` runs it over the configured grid and turns each answer into
one record. A probe returns a `Verdict` only for a case it classifies itself:
a known exception, or a pass whose detail depends on the data.
Classification is three-valued:

  pass            the property held everywhere it was tested
  fail            a violation outside every documented exception class
  known-exception a violation in a documented class: 2-adic anomalies of the
                  repetition and period-scaling laws, exact-zero ranks of
                  degenerate families, and magnitude collisions in the
                  divisibility biconditional

Known exceptions never fail a run; they are findings, reported with enough
detail to reproduce.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator

from .core import (
    RecurrenceParams,
    _nu,
    companion,
    seeded_term,
    term_pair,
    terms,
)
from .divisibility import (
    divisibility_sequence_check,
    power_divisibility_check,
    repetition_law_check,
    square_divisibility_check,
    trailing_zeros_report,
)
from .errors import DegenerateSequenceError
from .identities import (
    DET_POWER_MODULI,
    cassini_sign_violation,
    det_power_identity_violation,
    determinant_congruence_check,
    gcd_companion_violation,
    multiplication_formula_violation,
    period_step_violation,
)
from .modular import (
    cycle_entry_check,
    cycle_structure,
    period,
    period_law_report,
    rank,
    squares_period_law_report,
    term_mod,
    zero_indices_check,
)

ODD_PRIMES_37 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
LADDER_PRIMES = (2, 3, 5, 7, 11, 13)
SQUARES_PRIMES = (3, 5, 7)
CONGRUENCE_PRIMES = (3, 5, 7, 11, 13)


@dataclass(frozen=True)
class VerifyConfig:
    """Grid bounds and suite selection for a verification run.

    The suites' moduli and indices are fixed, well inside the default budgets.
    """

    a_min: int = -5
    a_max: int = 5
    b_min: int = -5
    b_max: int = 5
    suites: tuple[str, ...] | None = None  # None selects every suite

    def grid(self) -> list[RecurrenceParams]:
        return [RecurrenceParams(a, b)
                for a in range(self.a_min, self.a_max + 1)
                for b in range(self.b_min, self.b_max + 1)
                if b != 0]

    def coprime_grid(self) -> list[RecurrenceParams]:
        return [p for p in self.grid() if p.coprime_AB]


def parse_config(text: str) -> VerifyConfig:
    """Parse the flat key = value config format (\"#\" comments, blank lines ok)."""
    values: dict = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in seen:
            raise ValueError(f"config line {lineno}: {key!r} is given twice")
        seen.add(key)
        if key == "suites":
            if val.lower() != "all":
                names = tuple(s.strip() for s in val.split(",") if s.strip())
                if not names:
                    raise ValueError(f"config line {lineno}: no suite named in {raw!r}")
                unknown = [n for n in names if n not in SUITES]
                if unknown:
                    raise ValueError(f"config line {lineno}: unknown suites {unknown}")
                twice = next((n for i, n in enumerate(names) if n in names[:i]), None)
                if twice:
                    raise ValueError(f"config line {lineno}: suite {twice!r} is named twice")
                values["suites"] = names
        elif key in ("A_min", "A_max", "B_min", "B_max"):
            try:
                values[key.lower()] = int(val)
            except ValueError as exc:
                raise ValueError(f"config line {lineno}: bad value for {key}: {val!r}") from exc
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    config = VerifyConfig(**values)
    if config.a_min > config.a_max or config.b_min > config.b_max:
        raise ValueError(f"reversed grid: A {config.a_min}..{config.a_max}, "
                         f"B {config.b_min}..{config.b_max}")
    return config


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    case: str
    holds: bool
    classification: str  # pass | fail | known-exception
    detail: str


@dataclass(frozen=True)
class VerifySummary:
    records: int
    passed: int
    failed: int
    known_exceptions: int

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass(frozen=True)
class Verdict:
    """A probe's own classification of a case: a known exception, or a data-dependent pass."""

    classification: str
    detail: str


def _sweep(name: str, cases: Iterable, probe: Callable[..., object], ok: str | None,
           fail: str) -> Iterator[CheckRecord]:
    """One record per case: a RecurrenceParams, or a (params, p) pair labelled "(A=.., B=..) p=..".

    probe(*case) returns None for a pass (detail ok), a Verdict, or else the
    violation, which fails with detail fail.format(violation).
    """
    for case in cases:
        args = case if isinstance(case, tuple) else (case,)
        got = probe(*args)
        if not isinstance(got, Verdict):
            got = Verdict("pass", ok) if got is None else Verdict("fail", fail.format(got))
        yield CheckRecord(name, " p=".join(map(str, args)), got.classification == "pass",
                          got.classification, got.detail)


def _prime_cases(grid: list[RecurrenceParams], primes: tuple[int, ...]) -> list[tuple]:
    """The (params, p) cases of grid, for each p in primes that does not divide B."""
    return [(params, p) for params in grid for p in primes if params.B % p]


def _moduli(params: RecurrenceParams, m_max: int, unit: bool) -> list[int]:
    """The moduli 2..m_max that are coprime to B (unit) or share a factor with it."""
    return [m for m in range(2, m_max + 1) if (math.gcd(params.B, m) == 1) == unit]


def _primes_of(n: int) -> list[int]:
    """The primes dividing n >= 1, by trial division: the periods and ranks checked
    for least-ness here stay below 13^2 * 168."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] if n > 1 else primes


def _squares_repeat(params: RecurrenceParams, d: int, m: int) -> bool:
    """Whether s(n) = e(n)^2 mod m repeats after d steps: (s(d), s(d+1), s(d+2)) = (0, 1, A^2)."""
    a, b = term_pair(params, d, m)
    A, B = params.A, params.B
    return (a * a % m, b * b % m, (A * b + B * a) ** 2 % m) == (0, 1, A * A % m)


SUITES: dict[str, Callable[[VerifyConfig], Iterator[CheckRecord]]] = {}


def _suite(name: str, cases: Callable[[VerifyConfig], Iterable], ok: str | None, fail: str):
    """Register probe as suite name: SUITES[name](config) sweeps it over cases(config).

    Returns the probe unchanged. SUITES keeps definition order, which is the
    record order of a full run.
    """
    def register(probe: Callable[..., object]) -> Callable[..., object]:
        SUITES[name] = lambda config: _sweep(name, cases(config), probe, ok, fail)
        return probe
    return register


# --- exact-arithmetic suites -------------------------------------------------

@_suite("addition_identity", VerifyConfig.grid,
        "1640 (n, t) cases, exact", "first violation at (n, t) = {}")
def _addition_identity(params):
    e = terms(params, 81)
    return next(((n, t) for n, t in product(range(41), range(1, 41))
                 if e[n + t] != e[n + 1] * e[t] + params.B * e[n] * e[t - 1]), None)


@_suite("doubling_consistency", VerifyConfig.grid,
        "n <= 64 agrees with iteration", "pair mismatch at n = {}")
def _doubling_consistency(params):
    e = terms(params, 65)
    return next((n for n in range(65) if term_pair(params, n) != (e[n], e[n + 1])), None)


@_suite("companion_recurrence", VerifyConfig.grid,
        "seeds (2, A) and recurrence hold to n = 40", "companion sequence broken: {}...")
def _companion_recurrence(params):
    v = [companion(params, n) for n in range(41)]
    ok = v[0] == 2 and v[1] == params.A and all(
        v[n] == params.A * v[n - 1] + params.B * v[n - 2] for n in range(2, 41))
    return None if ok else v[:6]


@_suite("recurrence_space", VerifyConfig.grid,
        "R, S in [-3, 3], shifts <= 5, n <= 30", "combination {} escapes the recurrence")
def _recurrence_space(params):
    # w(n) = r*e(n+p) + s*e(n+q) has residual w(n) - A*w(n-1) - B*w(n-2)
    # = r*res[p][n] + s*res[q][n] exactly, so six residual vectors decide
    # every combination.
    e = terms(params, 36)
    res = [[e[n] - params.A * e[n - 1] - params.B * e[n - 2] for n in range(k + 2, k + 31)]
           for k in range(6)]
    for r, s, p_shift, q_shift in product(range(-3, 4), range(-3, 4), range(6), range(6)):
        x, y = res[p_shift], res[q_shift]
        if (any(x) or any(y)) and any(r * a + s * b for a, b in zip(x, y)):
            return r, s, p_shift, q_shift
    return None


@_suite("seeded_combination", VerifyConfig.grid,
        "w0, w1 in [-3, 3], n <= 40", "seeded term disagrees with iteration at {}")
def _seeded_combination(params):
    for w0, w1 in product(range(-3, 4), repeat=2):
        prev, cur = w0, w1
        for n in range(41):
            if seeded_term(params, w0, w1, n) != prev:
                return w0, w1, n
            prev, cur = cur, params.A * cur + params.B * prev
    return None


_suite("cassini_sign_law", VerifyConfig.grid,
       "e(n+1)e(n-1) - e(n)^2 = (-1)^n B^(n-1), n <= 40",
       "sign law broken at n = {}")(cassini_sign_violation)
_suite("multiplication_formula", VerifyConfig.grid,
       "a <= 8, n <= 12, exact", "expansion fails at (a, n) = {}")(multiplication_formula_violation)
_suite("gcd_companion", VerifyConfig.coprime_grid,
       "gcd(v(n), e(n)) in {1, 2} for n <= 30",
       "gcd outside {{1, 2}} at n = {}")(gcd_companion_violation)


# --- modular suites ----------------------------------------------------------

@_suite("term_mod_agreement", VerifyConfig.grid,
        "doubling path = exact path mod m, n <= 200, m <= 50", "mismatch at (n, m) = {}")
def _term_mod_agreement(params):
    e = terms(params, 200)
    return next(((n, m) for m in range(2, 51) for n in range(201)
                 if term_mod(params, n, m) != e[n] % m), None)


@_suite("purity_gcd_law", VerifyConfig.grid,
        "pure <=> gcd(B, m) = 1 for m <= 100", "purity mismatch at m = {}")
def _purity_gcd_law(params):
    # The kernel checks the orbit's tail t: pair(n + cycle) = pair(n) first at n = t.
    for m in range(2, 101):
        orbit = cycle_structure(params, m)
        t, c = orbit.tail_len, orbit.cycle_len
        if (orbit.pure != (math.gcd(params.B, m) == 1)
                or term_pair(params, t + c, m) != term_pair(params, t, m)
                or t and term_pair(params, t - 1 + c, m) == term_pair(params, t - 1, m)):
            return m
    return None


@_suite("period_zero_alignment", VerifyConfig.grid,
        "period = cycle length and alpha | period, m <= 50", "misalignment {}")
def _period_zero_alignment(params):
    # The kernel checks the orbit's answers: e(k), e(k+1) = 0, 1 and e(alpha) = 0,
    # and neither holds at k/q or alpha/q for a prime q, so k and alpha are least.
    for m in _moduli(params, 50, True):
        k = period(params, m)
        pair = term_pair(params, k, m)
        alpha = rank(params, m).alpha
        if (pair != (0, 1) or alpha is None or k % alpha != 0
                or term_mod(params, alpha, m) != 0
                or any(term_pair(params, k // q, m) == (0, 1) for q in _primes_of(k))
                or any(term_mod(params, alpha // q, m) == 0 for q in _primes_of(alpha))):
            return m, k, pair, alpha
    return None


@_suite("zero_index_progression", VerifyConfig.grid,
        "zeros = multiples of alpha over 4 periods, m <= 50",
        "progression broken at (m, index) = {}")
def _zero_index_progression(params):
    for m in _moduli(params, 50, True):
        chk = zero_indices_check(params, m, 4 * m * m)  # k < m^2: over 4 periods
        if not chk.holds:
            return m, chk.first_violation
    return None


@_suite("period_ladder", lambda config: _prime_cases(config.grid(), LADDER_PRIMES), None, "{}")
def _period_ladder(params, p):
    rep = period_law_report(params, p, 3)
    if not all(k2 % k1 == 0 and k2 // k1 in (1, p)
               for (_, k1), (_, k2) in zip(rep.ladder, rep.ladder[1:])):
        return f"ladder not monotone: {rep.ladder}"
    if any(term_pair(params, k, p ** e) != (0, 1)
           or any(term_pair(params, k // q, p ** e) == (0, 1) for q in _primes_of(k))
           for e, k in rep.ladder):
        return f"rung is not the least period: ladder {list(rep.ladder)}"
    if rep.law_holds:
        return Verdict("pass", f"ladder {list(rep.ladder)}, t={rep.t}")
    if p == 2:
        return Verdict("known-exception",
                       f"2-adic scaling anomaly: ladder {list(rep.ladder)}, t={rep.t}")
    return f"scaling law fails: ladder {list(rep.ladder)}"


@_suite("squares_period", lambda config: _prime_cases(config.grid(), SQUARES_PRIMES), None, "{}")
def _squares_period(params, p):
    sq = squares_period_law_report(params, p, 2)
    pair = period_law_report(params, p, 2)
    if not all(kp % kq == 0 for (_, kq), (_, kp) in zip(sq.ladder, pair.ladder)):
        return f"squares period does not divide pair period: {sq.ladder} vs {pair.ladder}"
    if any(not _squares_repeat(params, k, p ** e)
           or any(_squares_repeat(params, k // q, p ** e) for q in _primes_of(k))
           for e, k in sq.ladder):
        return f"squares rung is not the least period: {list(sq.ladder)}"
    if sq.law_holds:
        return Verdict("pass", f"squares ladder {list(sq.ladder)}, t={sq.t}")
    return f"squares scaling law fails: {list(sq.ladder)}"


@_suite("cycle_entry",
        lambda config: [params for params in config.grid() if _moduli(params, 40, False)],
        None, "m={0[0]}: predicted {0[1]}, observed {0[2]} (on cycle: {0[3]})")
def _cycle_entry(params):
    moduli = _moduli(params, 40, False)
    for m in moduli:
        chk = cycle_entry_check(params, m)
        if not chk.consistent:
            return m, chk.predicted, chk.observed, chk.pair_on_cycle
    return Verdict("pass", f"{len(moduli)} degenerate moduli m <= 40 all consistent")


# --- divisibility suites -----------------------------------------------------

@_suite("repetition_law",
        lambda config: _prime_cases(config.coprime_grid(), (2,) + ODD_PRIMES_37), None, "{}")
def _repetition_law(params, p):
    try:
        rep = repetition_law_check(params, p)
    except DegenerateSequenceError as exc:
        return Verdict("known-exception", f"degenerate: {exc}")
    if rep.observed_next_rank % rep.base_rank:
        return f"next rank {rep.observed_next_rank} not a multiple of {rep.base_rank}"
    if rep.holds:
        return Verdict("pass", f"rank {rep.base_rank}, valuation {rep.base_valuation} "
                               f"-> +1 at {rep.observed_next_rank}")
    if p == 2:
        return Verdict("known-exception",
                       f"2-adic valuation jump: rank {rep.base_rank}, "
                       f"nu_2(e({rep.predicted_next_rank})) = {rep.observed_valuation_at_pn} "
                       f"!= {rep.base_valuation + 1}")
    return f"law fails at odd prime: {rep}"


@_suite("square_divisibility", VerifyConfig.coprime_grid,
        "n <= 8, m <= 30", "biconditional fails at n={0[0]}: m={0[1]}")
def _square_divisibility(params):
    skipped = []
    for n in range(1, 9):
        try:
            chk = square_divisibility_check(params, n, 30)
        except DegenerateSequenceError:
            skipped.append(n)
            continue
        if not chk.holds:
            return n, chk.counterexamples[0][0]
    if skipped:
        return Verdict("pass", f"n <= 8, m <= 30 (zero-term n skipped: {skipped})")
    return None


@_suite("power_divisibility", VerifyConfig.coprime_grid,
        "n <= 6, k <= 2", "power law fails at n={0[0]}, k={0[1]}")
def _power_divisibility(params):
    return next(((n, chk.counterexamples[0][0]) for n in range(1, 7)
                 if not (chk := power_divisibility_check(params, n, 2)).holds), None)


@_suite("divisibility_sequence", VerifyConfig.coprime_grid, None, "counterexamples {}")
def _divisibility_sequence(params):
    chk = divisibility_sequence_check(params, 15, 60)
    if chk.holds:
        return Verdict("pass", f"a <= 15, b <= 60; degenerate indices {list(chk.degenerate)}")
    if all(e_d % e_a == 0 for (_, _, _, e_a, e_d) in chk.counterexamples):
        return Verdict("known-exception",
                       f"magnitude collisions at a in {list(chk.collision_indices)}: "
                       f"|e(a)| divides an earlier |e(gcd(a, b))|; "
                       f"first witness {chk.counterexamples[0]}")
    return chk.counterexamples[:3]


@_suite("trailing_zeros", VerifyConfig.grid,
        "digit stripping = valuation formula, bases 2 and 10, n <= 200",
        "strip/valuation cross-check failed: {}")
def _trailing_zeros(params):
    e = terms(params, 200)  # the second route: z(n) = min over q^c || base of nu_q(e(n)) // c
    return next(((base, n, z) for base, factors in ((2, {2: 1}), (10, {2: 1, 5: 1}))
                 for n, z in trailing_zeros_report(params, base, 200).samples
                 if z != min(_nu(e[n], q) // c for q, c in factors.items())), None)


# --- congruence suites ---------------------------------------------------------

@_suite("determinant_congruence", lambda config: _prime_cases(config.grid(), CONGRUENCE_PRIMES),
        "e in {1, 2}, first three rank multiples", "congruence fails: {}")
def _determinant_congruence(params, p):
    for e in (1, 2):
        alpha = rank(params, p ** e).alpha
        if alpha is None:
            return e, "no rank"
        for j in (1, 2, 3):
            res = determinant_congruence_check(params, p, e, j * alpha)
            if not res.holds:
                return e, j * alpha, res.lhs, res.rhs
    return None


@_suite("det_power_identity", VerifyConfig.grid,
        "odd p <= 9 (incl. composite 9), n <= 15, exact", "identity fails at (p, n) = {}")
def _det_power_identity(params):
    return next(((p, n) for p in DET_POWER_MODULI
                 if (n := det_power_identity_violation(params, p)) is not None), None)


_suite("period_step_congruence", VerifyConfig.grid,
       "a <= 6, n <= 12 (vacuous moduli trivially true)",
       "congruence fails at (a, n) = {}")(period_step_violation)


def run_verification(config: VerifyConfig) -> tuple[list[CheckRecord], VerifySummary]:
    """Run the selected suites and return their records plus a summary."""
    selected = config.suites if config.suites is not None else tuple(SUITES)
    records = [record for name in selected for record in SUITES[name](config)]
    summary = VerifySummary(
        records=len(records),
        passed=sum(r.classification == "pass" for r in records),
        failed=sum(r.classification == "fail" for r in records),
        known_exceptions=sum(r.classification == "known-exception" for r in records),
    )
    return records, summary
