"""The verification engine: config parsing, suite selection, classifications."""
from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from dataclasses import replace
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucaslab import RecurrenceParams, VerifyConfig, parse_config, run_verification, verify
from lucaslab.cli import main
from lucaslab.verify import SUITES, CheckRecord

from .conftest import naive_terms


def test_parse_config_full():
    cfg = parse_config(
        """
        # grid
        A_min = -2
        A_max = 2
        B_min = 1
        B_max = 3
        suites = addition_identity, cassini_sign_law
        """
    )
    assert (cfg.a_min, cfg.a_max, cfg.b_min, cfg.b_max) == (-2, 2, 1, 3)
    assert cfg.suites == ("addition_identity", "cassini_sign_law")


def test_parse_config_defaults_and_all():
    cfg = parse_config("suites = all\n")
    assert cfg == VerifyConfig()


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        parse_config("frobnicate = 3\n")


@pytest.mark.parametrize("text, message", [
    ("suites =\n", "config line 1: no suite named"),
    ("A_min = -2\nsuites = ,, ,\n", "config line 2: no suite named"),
    ("A_min = -2\nB_max = 3\nA_min = 0\n", "config line 3: 'A_min' is given twice"),
    ("suites = all\nsuites = cassini_sign_law\n", "config line 2: 'suites' is given twice"),
    ("suites = gcd_companion, gcd_companion\n",
     "config line 1: suite 'gcd_companion' is named twice"),
])
def test_parse_config_rejects_silent_config(tmp_path, capsys, text, message):
    # Each would run zero suites, drop a value, or count a suite's records
    # twice, and still exit 0.
    with pytest.raises(ValueError, match=f"^{message}"):
        parse_config(text)
    config = tmp_path / "verify.cfg"
    config.write_text(text)
    code = main(["verify", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and message in captured.err


@pytest.mark.parametrize("key", ["state_budget", "term_digit_budget"])
def test_parse_config_rejects_removed_key(tmp_path, capsys, key):
    # The suites run fixed moduli and indices well inside the default
    # budgets; a smaller budget could only abort the whole run.
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        parse_config(f"{key} = 1000\n")
    config = tmp_path / "verify.cfg"
    config.write_text(f"suites = cassini_sign_law\n{key} = 1000\n")
    code = main(["verify", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"unknown key '{key}'" in captured.err


def test_parse_config_rejects_unknown_suite():
    with pytest.raises(ValueError):
        parse_config("suites = not_a_suite\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ValueError):
        parse_config("A_min = banana\n")


@pytest.mark.parametrize("text", ["A_min = 2\nA_max = 1\n", "B_min = 5\nB_max = -5\n"])
def test_parse_config_rejects_reversed_grid(text):
    with pytest.raises(ValueError, match="reversed grid"):
        parse_config(text)


def test_empty_grid_passes_vacuously():
    cfg = VerifyConfig(a_min=1, a_max=0)
    records, summary = run_verification(cfg)
    assert records == [] and summary.ok and summary.records == 0


def test_single_suite_selection():
    cfg = VerifyConfig(a_min=1, a_max=1, b_min=1, b_max=1,
                       suites=("square_divisibility",))
    records, summary = run_verification(cfg)
    assert summary.ok and summary.records == 1
    assert records[0].suite == "square_divisibility"
    assert records[0].classification == "pass"


def test_fibonacci_grid_all_suites():
    cfg = VerifyConfig(a_min=1, a_max=1, b_min=1, b_max=1)
    records, summary = run_verification(cfg)
    assert summary.failed == 0
    # The single genuine finding on this grid: the 2-adic repetition anomaly.
    known = [r for r in records if r.classification == "known-exception"]
    assert len(known) == 1
    assert known[0].suite == "repetition_law" and "p=2" in known[0].case


def test_two_adic_period_exception_classified():
    cfg = VerifyConfig(a_min=-4, a_max=-4, b_min=-1, b_max=-1,
                       suites=("period_ladder",))
    records, summary = run_verification(cfg)
    assert summary.failed == 0
    known = {r.case: r for r in records if r.classification == "known-exception"}
    assert "(A=-4, B=-1) p=2" in known
    assert "2-adic" in known["(A=-4, B=-1) p=2"].detail


def test_magnitude_collision_classified():
    cfg = VerifyConfig(a_min=-3, a_max=-3, b_min=-5, b_max=-5,
                       suites=("divisibility_sequence",))
    records, summary = run_verification(cfg)
    assert summary.failed == 0
    (rec,) = records
    assert rec.classification == "known-exception"
    assert "magnitude collisions" in rec.detail


def test_degenerate_family_classified():
    cfg = VerifyConfig(a_min=1, a_max=1, b_min=-1, b_max=-1,
                       suites=("repetition_law",))
    records, summary = run_verification(cfg)
    assert summary.failed == 0
    assert all(r.classification == "known-exception" for r in records)
    assert all("degenerate" in r.detail for r in records)


def test_broad_grid_no_failures():
    # Every violation on this grid must land in a documented exception class.
    cfg = VerifyConfig(a_min=-2, a_max=2, b_min=-2, b_max=2)
    records, summary = run_verification(cfg)
    fails = [r for r in records if r.classification == "fail"]
    assert fails == []
    assert summary.passed > 0
    exception_suites = {r.suite for r in records if r.classification == "known-exception"}
    assert exception_suites <= {"repetition_law", "period_ladder", "divisibility_sequence"}


def test_suite_registry_complete():
    # Definition order is record order, which the golden sha256 pins.
    assert list(SUITES) == [
        "addition_identity", "doubling_consistency", "companion_recurrence", "recurrence_space",
        "seeded_combination", "cassini_sign_law", "multiplication_formula", "gcd_companion",
        "term_mod_agreement", "purity_gcd_law", "period_zero_alignment",
        "zero_index_progression", "period_ladder", "squares_period", "cycle_entry",
        "repetition_law", "square_divisibility", "power_divisibility", "divisibility_sequence",
        "trailing_zeros", "determinant_congruence", "det_power_identity",
        "period_step_congruence"]
    cfg = VerifyConfig(a_min=1, a_max=1, b_min=1, b_max=1)
    records, _ = run_verification(cfg)
    # B = 1 admits no degenerate moduli, so cycle_entry has nothing to say.
    assert {r.suite for r in records} == set(SUITES) - {"cycle_entry"}
    cfg = VerifyConfig(a_min=1, a_max=1, b_min=2, b_max=2)
    records, _ = run_verification(cfg)
    assert {r.suite for r in records} >= {"cycle_entry"}


@pytest.mark.parametrize("bad_n", [0, 7])
def test_sweep_reports_first_violation(monkeypatch, tmp_path, capsys, bad_n):
    # A kernel that is wrong at one index must reach the suite's fail branch,
    # including at n = 0, which is falsy.
    real = verify.term_pair

    def corrupt(params, n, m=None):
        a, b = real(params, n, m)
        return (a + 1, b) if n == bad_n else (a, b)

    monkeypatch.setattr(verify, "term_pair", corrupt)
    cfg = VerifyConfig(a_min=1, a_max=1, b_min=1, b_max=1, suites=("doubling_consistency",))
    records, summary = run_verification(cfg)
    assert [(r.case, r.classification, r.detail) for r in records] == [
        ("(A=1, B=1)", "fail", f"pair mismatch at n = {bad_n}")]
    assert (summary.failed, summary.ok) == (1, False)
    path = tmp_path / "verify.cfg"
    path.write_text("A_min = 1\nA_max = 1\nB_min = 1\nB_max = 1\n"
                    "suites = doubling_consistency\n")
    assert main(["verify", "--config", str(path)]) == 1
    first = json.loads(capsys.readouterr().out.splitlines()[0])
    assert (first["classification"], first["detail"]) == ("fail", f"pair mismatch at n = {bad_n}")


def _tamper(**changes):
    """Wrap a law function so that every report it returns carries changes."""
    return lambda real: lambda *args, **kwargs: replace(real(*args, **kwargs), **changes)


FAILED_REPORT = "RepetitionLawReport(p=3, base_rank=4, base_valuation=1, predicted_next_rank=12, " \
           "observed_next_rank=12, observed_valuation_at_pn=2, holds=False)"


@pytest.mark.parametrize("suite, law, fake, pair, case, classification, detail", [
    pytest.param("period_ladder", "period_law_report",
                 _tamper(ladder=((1, 8), (2, 20), (3, 72))), (1, 1), "(A=1, B=1) p=3", "fail",
                 "ladder not monotone: ((1, 8), (2, 20), (3, 72))", id="ladder-monotone"),
    pytest.param("period_ladder", "period_law_report", _tamper(law_holds=False), (1, 1),
                 "(A=1, B=1) p=3", "fail", "scaling law fails: ladder [(1, 8), (2, 24), (3, 72)]",
                 id="ladder-scaling"),
    pytest.param("period_ladder", "period_law_report", _tamper(law_holds=False), (1, 1),
                 "(A=1, B=1) p=2", "known-exception",
                 "2-adic scaling anomaly: ladder [(1, 3), (2, 6), (3, 12)], t=1", id="ladder-2-adic"),
    pytest.param("squares_period", "squares_period_law_report",
                 _tamper(ladder=((1, 5), (2, 12))), (1, 1), "(A=1, B=1) p=3", "fail",
                 "squares period does not divide pair period: ((1, 5), (2, 12)) vs ((1, 8), (2, 24))",
                 id="squares-divides"),
    pytest.param("squares_period", "squares_period_law_report", _tamper(law_holds=False), (1, 1),
                 "(A=1, B=1) p=3", "fail", "squares scaling law fails: [(1, 4), (2, 12)]",
                 id="squares-scaling"),
    pytest.param("cycle_entry", "cycle_entry_check", _tamper(consistent=False), (1, 2),
                 "(A=1, B=2)", "fail", "m=2: predicted 1, observed 1 (on cycle: True)",
                 id="cycle-entry"),
    pytest.param("repetition_law", "repetition_law_check", _tamper(observed_next_rank=10), (1, 1),
                 "(A=1, B=1) p=3", "fail", "next rank 10 not a multiple of 4",
                 id="repetition-multiple"),
    pytest.param("repetition_law", "repetition_law_check", _tamper(holds=False), (1, 1),
                 "(A=1, B=1) p=3", "fail", f"law fails at odd prime: {FAILED_REPORT}",
                 id="repetition-odd-prime"),
    pytest.param("square_divisibility", "square_divisibility_check",
                 _tamper(holds=False, counterexamples=((7, 13),)), (1, 1), "(A=1, B=1)", "fail",
                 "biconditional fails at n=1: m=7", id="square-divisibility"),
    pytest.param("divisibility_sequence", "divisibility_sequence_check",
                 _tamper(holds=False, counterexamples=((3, 4, 1, 2, 1), (3, 5, 1, 2, 1),
                                                        (3, 7, 1, 2, 1), (3, 8, 1, 2, 1))),
                 (1, 1), "(A=1, B=1)", "fail",
                 "counterexamples ((3, 4, 1, 2, 1), (3, 5, 1, 2, 1), (3, 7, 1, 2, 1))",
                 id="divisibility-sequence"),
    pytest.param("determinant_congruence", "determinant_congruence_check",
                 _tamper(holds=False, lhs=1, rhs=2), (1, 1), "(A=1, B=1) p=3", "fail",
                 "congruence fails: (1, 4, 1, 2)", id="determinant-congruence"),
    pytest.param("purity_gcd_law", "cycle_structure", _tamper(cycle_len=5), (1, 1),
                 "(A=1, B=1)", "fail", "purity mismatch at m = 2", id="purity-kernel"),
    pytest.param("purity_gcd_law", "cycle_structure", _tamper(tail_len=0), (1, 2),
                 "(A=1, B=2)", "fail", "purity mismatch at m = 2", id="purity-no-tail"),
    pytest.param("purity_gcd_law", "cycle_structure", _tamper(tail_len=2), (1, 2),
                 "(A=1, B=2)", "fail", "purity mismatch at m = 2", id="purity-least-tail"),
    pytest.param("period_zero_alignment", "rank", _tamper(alpha=1), (1, 1), "(A=1, B=1)",
                 "fail", "misalignment (2, 3, (0, 1), 1)", id="alignment-kernel"),
])
def test_suite_violation_branches(monkeypatch, suite, law, fake, pair, case, classification,
                                  detail):
    # A law function that reports a violation must reach the suite's fail or
    # known-exception branch with the exact detail.
    monkeypatch.setattr(verify, law, fake(getattr(verify, law)))
    A, B = pair
    cfg = VerifyConfig(a_min=A, a_max=A, b_min=B, b_max=B, suites=(suite,))
    records, _ = run_verification(cfg)
    assert {r.case: r for r in records}[case] == CheckRecord(suite, case, False, classification,
                                                             detail)


def _brute_recurrence_space(params, e):
    """The first (r, s, p, q) whose rebuilt w(n) = r*e(n+p) + s*e(n+q) escapes, n <= 30."""
    for r, s, p_shift, q_shift in product(range(-3, 4), range(-3, 4), range(6), range(6)):
        w = [r * e[n + p_shift] + s * e[n + q_shift] for n in range(31)]
        if any(w[n] != params.A * w[n - 1] + params.B * w[n - 2] for n in range(2, 31)):
            return r, s, p_shift, q_shift
    return None


def _recurrence_space_record(A, B, e):
    cfg = VerifyConfig(a_min=A, a_max=A, b_min=B, b_max=B, suites=("recurrence_space",))
    with mock.patch.object(verify, "terms", lambda params, count: list(e)):
        (record,) = run_verification(cfg)[0]
    return record


@settings(max_examples=60, deadline=None)
@given(A=st.integers(-4, 4), B=st.integers(-4, 4).filter(bool),
       edits=st.lists(st.tuples(st.integers(0, 36), st.integers(-10**6, 10**6).filter(bool)),
                      max_size=3))
@example(A=2, B=-1, edits=[(30, 1)])
@example(A=1, B=1, edits=[])
def test_recurrence_space_matches_rebuilt_combinations(A, B, edits):
    # Corrupted terms must reach the fail branch with the same first escape
    # as rebuilding every combination and re-checking the recurrence.
    e = naive_terms(A, B, 36)
    for index, delta in edits:
        e[index] += delta
    escape = _brute_recurrence_space(RecurrenceParams(A, B), e)
    detail = ("R, S in [-3, 3], shifts <= 5, n <= 30" if escape is None
              else f"combination {escape} escapes the recurrence")
    assert _recurrence_space_record(A, B, e) == CheckRecord(
        "recurrence_space", f"(A={A}, B={B})", escape is None,
        "pass" if escape is None else "fail", detail)


def test_recurrence_space_last_term_corrupted():
    # Only e(35) is off, so only the shift-5 residual is non-zero: the first
    # escape pairs the clean shift 0 with shift 5.
    e = naive_terms(1, 1, 36)
    e[35] += 1
    assert _brute_recurrence_space(RecurrenceParams(1, 1), e) == (-3, -3, 0, 5)
    record = _recurrence_space_record(1, 1, e)
    assert (record.classification, record.detail) == (
        "fail", "combination (-3, -3, 0, 5) escapes the recurrence")


def test_trailing_zeros_suite_runs_under_optimize():
    # Under -O an assert around the sweep would vanish, and every case would
    # pass without one.
    code = textwrap.dedent("""
        import json
        from unittest import mock
        from lucaslab import verify
        def fail(*args):
            raise RuntimeError("boom")
        with mock.patch.object(verify, "trailing_zeros_report", fail):
            records = list(verify.SUITES["trailing_zeros"](verify.VerifyConfig()))
        print(json.dumps([[r.classification, r.detail] for r in records]))
    """)
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [["fail", "strip/valuation cross-check failed: boom"]] * 110
