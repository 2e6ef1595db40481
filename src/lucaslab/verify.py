"""The full property-verification engine behind the `verify` subcommand.

A suite is a probe plus `_sweep`: the probe tests one case, an (A, B) pair
or a (pair, p) case, and returns None when the law held or the violation it
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


# --- exact-arithmetic suites -------------------------------------------------

def _suite_addition_identity(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        e = terms(params, 81)
        return next(((n, t) for n, t in product(range(41), range(1, 41))
                     if e[n + t] != e[n + 1] * e[t] + params.B * e[n] * e[t - 1]), None)
    return _sweep("addition_identity", config.grid(), probe,
                  "1640 (n, t) cases, exact", "first violation at (n, t) = {}")


def _suite_doubling_consistency(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        e = terms(params, 65)
        return next((n for n in range(65) if term_pair(params, n) != (e[n], e[n + 1])), None)
    return _sweep("doubling_consistency", config.grid(), probe,
                  "n <= 64 agrees with iteration", "pair mismatch at n = {}")


def _suite_companion_recurrence(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        v = [companion(params, n) for n in range(41)]
        ok = v[0] == 2 and v[1] == params.A and all(
            v[n] == params.A * v[n - 1] + params.B * v[n - 2] for n in range(2, 41))
        return None if ok else v[:6]
    return _sweep("companion_recurrence", config.grid(), probe,
                  "seeds (2, A) and recurrence hold to n = 40",
                  "companion sequence broken: {}...")


def _suite_recurrence_space(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
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
    return _sweep("recurrence_space", config.grid(), probe,
                  "R, S in [-3, 3], shifts <= 5, n <= 30",
                  "combination {} escapes the recurrence")


def _suite_seeded_combination(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        for w0, w1 in product(range(-3, 4), repeat=2):
            prev, cur = w0, w1
            for n in range(41):
                if seeded_term(params, w0, w1, n) != prev:
                    return w0, w1, n
                prev, cur = cur, params.A * cur + params.B * prev
        return None
    return _sweep("seeded_combination", config.grid(), probe,
                  "w0, w1 in [-3, 3], n <= 40", "seeded term disagrees with iteration at {}")


def _suite_cassini_sign_law(config: VerifyConfig) -> Iterator[CheckRecord]:
    return _sweep("cassini_sign_law", config.grid(), cassini_sign_violation,
                  "e(n+1)e(n-1) - e(n)^2 = (-1)^n B^(n-1), n <= 40", "sign law broken at n = {}")


def _suite_multiplication_formula(config: VerifyConfig) -> Iterator[CheckRecord]:
    return _sweep("multiplication_formula", config.grid(), multiplication_formula_violation,
                  "a <= 8, n <= 12, exact", "expansion fails at (a, n) = {}")


def _suite_gcd_companion(config: VerifyConfig) -> Iterator[CheckRecord]:
    return _sweep("gcd_companion", config.coprime_grid(), gcd_companion_violation,
                  "gcd(v(n), e(n)) in {1, 2} for n <= 30", "gcd outside {{1, 2}} at n = {}")


# --- modular suites ----------------------------------------------------------

def _suite_term_mod_agreement(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        e = terms(params, 200)
        return next(((n, m) for m in range(2, 51) for n in range(201)
                     if term_mod(params, n, m) != e[n] % m), None)
    return _sweep("term_mod_agreement", config.grid(), probe,
                  "doubling path = exact path mod m, n <= 200, m <= 50",
                  "mismatch at (n, m) = {}")


def _suite_purity_gcd_law(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        return next((m for m in range(2, 101)
                     if cycle_structure(params, m).pure
                     != (math.gcd(params.B, m) == 1)), None)
    return _sweep("purity_gcd_law", config.grid(), probe,
                  "pure <=> gcd(B, m) = 1 for m <= 100", "purity mismatch at m = {}")


def _suite_period_zero_alignment(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        for m in _moduli(params, 50, True):
            k = period(params, m)
            cs = cycle_structure(params, m)
            rr = rank(params, m)
            if k != cs.cycle_len or rr.alpha is None or k % rr.alpha != 0:
                return m, k, cs.cycle_len, rr.alpha
        return None
    return _sweep("period_zero_alignment", config.grid(), probe,
                  "period = cycle length and alpha | period, m <= 50", "misalignment {}")


def _suite_zero_index_progression(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        for m in _moduli(params, 50, True):
            chk = zero_indices_check(params, m, 4 * m * m)  # k < m^2: over 4 periods
            if not chk.holds:
                return m, chk.first_violation
        return None
    return _sweep("zero_index_progression", config.grid(), probe,
                  "zeros = multiples of alpha over 4 periods, m <= 50",
                  "progression broken at (m, index) = {}")


def _suite_period_ladder(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params, p):
        rep = period_law_report(params, p, 3)
        if not all(k2 % k1 == 0 and k2 // k1 in (1, p)
                   for (_, k1), (_, k2) in zip(rep.ladder, rep.ladder[1:])):
            return f"ladder not monotone: {rep.ladder}"
        if rep.law_holds:
            return Verdict("pass", f"ladder {list(rep.ladder)}, t={rep.t}")
        if p == 2:
            return Verdict("known-exception",
                           f"2-adic scaling anomaly: ladder {list(rep.ladder)}, t={rep.t}")
        return f"scaling law fails: ladder {list(rep.ladder)}"
    return _sweep("period_ladder", _prime_cases(config.grid(), LADDER_PRIMES), probe, None, "{}")


def _suite_squares_period(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params, p):
        sq = squares_period_law_report(params, p, 2)
        pair = period_law_report(params, p, 2)
        if not all(kp % kq == 0 for (_, kq), (_, kp) in zip(sq.ladder, pair.ladder)):
            return f"squares period does not divide pair period: {sq.ladder} vs {pair.ladder}"
        if sq.law_holds:
            return Verdict("pass", f"squares ladder {list(sq.ladder)}, t={sq.t}")
        return f"squares scaling law fails: {list(sq.ladder)}"
    return _sweep("squares_period", _prime_cases(config.grid(), SQUARES_PRIMES), probe, None,
                  "{}")


def _suite_cycle_entry(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        moduli = _moduli(params, 40, False)
        for m in moduli:
            chk = cycle_entry_check(params, m)
            if not chk.consistent:
                return m, chk.predicted, chk.observed, chk.pair_on_cycle
        return Verdict("pass", f"{len(moduli)} degenerate moduli m <= 40 all consistent")
    grid = [params for params in config.grid() if _moduli(params, 40, False)]
    return _sweep("cycle_entry", grid, probe, None,
                  "m={0[0]}: predicted {0[1]}, observed {0[2]} (on cycle: {0[3]})")


# --- divisibility suites -----------------------------------------------------

def _suite_repetition_law(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params, p):
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
    return _sweep("repetition_law", _prime_cases(config.coprime_grid(), (2,) + ODD_PRIMES_37),
                  probe, None, "{}")


def _suite_square_divisibility(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
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
    return _sweep("square_divisibility", config.coprime_grid(), probe, "n <= 8, m <= 30",
                  "biconditional fails at n={0[0]}: m={0[1]}")


def _suite_power_divisibility(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        return next(((n, chk.counterexamples[0][0]) for n in range(1, 7)
                     if not (chk := power_divisibility_check(params, n, 2)).holds), None)
    return _sweep("power_divisibility", config.coprime_grid(), probe,
                  "n <= 6, k <= 2", "power law fails at n={0[0]}, k={0[1]}")


def _suite_divisibility_sequence(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        chk = divisibility_sequence_check(params, 15, 60)
        if chk.holds:
            return Verdict("pass", f"a <= 15, b <= 60; degenerate indices {list(chk.degenerate)}")
        if all(e_d % e_a == 0 for (_, _, _, e_a, e_d) in chk.counterexamples):
            return Verdict("known-exception",
                           f"magnitude collisions at a in {list(chk.collision_indices)}: "
                           f"|e(a)| divides an earlier |e(gcd(a, b))|; "
                           f"first witness {chk.counterexamples[0]}")
        return chk.counterexamples[:3]
    return _sweep("divisibility_sequence", config.coprime_grid(), probe, None,
                  "counterexamples {}")


def _suite_trailing_zeros(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        try:
            for base in (2, 10):
                trailing_zeros_report(params, base, 200)
        except RuntimeError as exc:
            return exc
        return None
    return _sweep("trailing_zeros", config.grid(), probe,
                  "digit stripping = valuation formula, bases 2 and 10, n <= 200",
                  "strip/valuation cross-check failed: {}")


# --- congruence suites ---------------------------------------------------------

def _suite_determinant_congruence(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params, p):
        for e in (1, 2):
            alpha = rank(params, p ** e).alpha
            if alpha is None:
                return e, "no rank"
            for j in (1, 2, 3):
                res = determinant_congruence_check(params, p, e, j * alpha)
                if not res.holds:
                    return e, j * alpha, res.lhs, res.rhs
        return None
    return _sweep("determinant_congruence", _prime_cases(config.grid(), CONGRUENCE_PRIMES), probe,
                  "e in {1, 2}, first three rank multiples", "congruence fails: {}")


def _suite_det_power_identity(config: VerifyConfig) -> Iterator[CheckRecord]:
    def probe(params):
        return next(((p, n) for p in DET_POWER_MODULI
                     if (n := det_power_identity_violation(params, p)) is not None), None)
    return _sweep("det_power_identity", config.grid(), probe,
                  "odd p <= 9 (incl. composite 9), n <= 15, exact",
                  "identity fails at (p, n) = {}")


def _suite_period_step(config: VerifyConfig) -> Iterator[CheckRecord]:
    return _sweep("period_step_congruence", config.grid(), period_step_violation,
                  "a <= 6, n <= 12 (vacuous moduli trivially true)",
                  "congruence fails at (a, n) = {}")


SUITES: dict[str, Callable[[VerifyConfig], Iterator[CheckRecord]]] = {
    "addition_identity": _suite_addition_identity,
    "doubling_consistency": _suite_doubling_consistency,
    "companion_recurrence": _suite_companion_recurrence,
    "recurrence_space": _suite_recurrence_space,
    "seeded_combination": _suite_seeded_combination,
    "cassini_sign_law": _suite_cassini_sign_law,
    "multiplication_formula": _suite_multiplication_formula,
    "gcd_companion": _suite_gcd_companion,
    "term_mod_agreement": _suite_term_mod_agreement,
    "purity_gcd_law": _suite_purity_gcd_law,
    "period_zero_alignment": _suite_period_zero_alignment,
    "zero_index_progression": _suite_zero_index_progression,
    "period_ladder": _suite_period_ladder,
    "squares_period": _suite_squares_period,
    "cycle_entry": _suite_cycle_entry,
    "repetition_law": _suite_repetition_law,
    "square_divisibility": _suite_square_divisibility,
    "power_divisibility": _suite_power_divisibility,
    "divisibility_sequence": _suite_divisibility_sequence,
    "trailing_zeros": _suite_trailing_zeros,
    "determinant_congruence": _suite_determinant_congruence,
    "det_power_identity": _suite_det_power_identity,
    "period_step_congruence": _suite_period_step,
}


def run_verification(config: VerifyConfig) -> tuple[list[CheckRecord], VerifySummary]:
    """Run the selected suites and return their records plus a summary."""
    selected = config.suites if config.suites is not None else tuple(SUITES)
    records: list[CheckRecord] = []
    for suite_name in selected:
        records.extend(SUITES[suite_name](config))
    summary = VerifySummary(
        records=len(records),
        passed=sum(r.classification == "pass" for r in records),
        failed=sum(r.classification == "fail" for r in records),
        known_exceptions=sum(r.classification == "known-exception" for r in records),
    )
    return records, summary
