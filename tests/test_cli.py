"""Command-line interface: subcommands, formats, exit codes, determinism."""
from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from lucaslab import identities
from lucaslab.cli import main

from .conftest import naive_orbit, naive_terms


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# --- single-query subcommands ---------------------------------------------------

def test_term_json(capsys):
    code, out = run_cli(capsys, "term", "-A", "1", "-B", "1", "-n", "10")
    assert code == 0
    assert json.loads(out) == {"A": 1, "B": 1, "n": 10, "term": "55"}


def test_term_big_value_as_string(capsys):
    code, out = run_cli(capsys, "term", "-A", "1", "-B", "1", "-n", "300")
    value = json.loads(out)["term"]
    assert isinstance(value, str)
    assert int(value) == 222232244629420445529739893461909967206666939096499764990979600


def test_term_csv(capsys):
    code, out = run_cli(capsys, "term", "-A", "2", "-B", "1", "-n", "7",
                        "--format", "csv")
    assert code == 0
    assert out == "A,B,n,term\n2,1,7,169\n"


def test_term_mod(capsys):
    code, out = run_cli(capsys, "term-mod", "-A", "1", "-B", "1", "-n", "10", "-m", "7")
    assert json.loads(out)["residue"] == 6


def test_period(capsys):
    code, out = run_cli(capsys, "period", "-A", "1", "-B", "1", "-m", "100")
    assert code == 0 and json.loads(out)["period"] == 300


def test_cycle(capsys):
    code, out = run_cli(capsys, "cycle", "-A", "1", "-B", "2", "-m", "4")
    rec = json.loads(out)
    assert (rec["pure"], rec["tail_len"], rec["cycle_len"]) == (False, 2, 2)


def test_rank_with_absent_alpha(capsys):
    code, out = run_cli(capsys, "rank", "-A", "1", "-B", "2", "-m", "4")
    assert json.loads(out)["alpha"] is None


def test_period_law(capsys):
    code, out = run_cli(capsys, "period-law", "-A", "1", "-B", "1", "--p", "2", "--e", "3")
    rec = json.loads(out)
    assert rec["ladder"] == [[1, 3], [2, 6], [3, 12]] and rec["law_holds"]


def test_squares_law(capsys):
    code, out = run_cli(capsys, "squares-law", "-A", "2", "-B", "1", "--p", "3", "--e", "2")
    rec = json.loads(out)
    assert rec["ladder"] == [[1, 4], [2, 12]] and rec["law_holds"]


def test_repetition(capsys):
    code, out = run_cli(capsys, "repetition", "-A", "1", "-B", "1", "--p", "5")
    rec = json.loads(out)
    assert rec["base_rank"] == 5 and rec["observed_next_rank"] == 25 and rec["holds"]


def test_divisibility_subcommands(capsys):
    code, out = run_cli(capsys, "square-div", "-A", "1", "-B", "1", "-n", "5",
                        "--limit", "10")
    assert code == 0 and json.loads(out)["holds"]
    code, out = run_cli(capsys, "power-div", "-A", "1", "-B", "1", "-n", "4",
                        "--limit", "2")
    assert code == 0 and json.loads(out)["holds"]
    code, out = run_cli(capsys, "div-seq", "-A", "1", "-B", "1",
                        "--a-max", "12", "--b-max", "36")
    rec = json.loads(out)
    assert rec["holds"] and rec["degenerate"] == [1, 2]


def test_zeros(capsys):
    code, out = run_cli(capsys, "zeros", "-A", "1", "-B", "1", "-m", "5", "--limit", "40")
    rec = json.loads(out)
    assert rec["holds"] and rec["alpha"] == 5


def test_bound(capsys):
    code = main(["bound", "-A", "1", "-B", "1", "-m", "10", "--limit", "160"])
    captured = capsys.readouterr()
    assert code == 0
    recs = [json.loads(line) for line in captured.out.splitlines()]
    assert {"A": 1, "B": 1, "base": 10, "n": 150, "z": 2} in recs
    assert "max z(n)/log2(n)" in captured.err


def test_identities(capsys):
    code, out = run_cli(capsys, "identities", "-A", "2", "-B", "1")
    assert code == 0
    head = '{"A":2,"B":1,"check":'
    assert out.splitlines() == [head + tail for tail in (
        '"multiplication_formula","case":"a<=8 n<=12","holds":true,"detail":""}',
        '"det_power_identity","case":"p=3 n<=15","holds":true,"detail":""}',
        '"det_power_identity","case":"p=5 n<=15","holds":true,"detail":""}',
        '"det_power_identity","case":"p=7 n<=15","holds":true,"detail":""}',
        '"det_power_identity","case":"p=9 n<=15","holds":true,"detail":""}',
        '"period_step_congruence","case":"a<=6 n<=12","holds":true,"detail":""}',
        '"gcd_companion","case":"n<=30","holds":true,"detail":""}',
        '"cassini_sign_law","case":"n<=40","holds":true,"detail":""}',
    )]


def test_identities_csv_skips_gcd_companion_when_not_coprime(capsys):
    code, out = run_cli(capsys, "identities", "-A", "2", "-B", "2", "--format", "csv")
    assert code == 0
    assert out == ("A,B,check,case,holds,detail\n"
                   "2,2,multiplication_formula,a<=8 n<=12,true,\n"
                   "2,2,det_power_identity,p=3 n<=15,true,\n"
                   "2,2,det_power_identity,p=5 n<=15,true,\n"
                   "2,2,det_power_identity,p=7 n<=15,true,\n"
                   "2,2,det_power_identity,p=9 n<=15,true,\n"
                   "2,2,period_step_congruence,a<=6 n<=12,true,\n"
                   "2,2,cassini_sign_law,n<=40,true,\n")


def test_identities_failing_check_exits_1(monkeypatch, capsys):
    # A kernel that is wrong at index 45 breaks det_power_identity at p*n = 45
    # (p = 3, 5, 9) and nothing else the command checks.
    real = identities.term_pair

    def corrupt(params, n, m=None):
        a, b = real(params, n, m)
        return (a + 1, b) if n == 45 else (a, b)

    monkeypatch.setattr(identities, "term_pair", corrupt)
    code, out = run_cli(capsys, "identities", "-A", "1", "-B", "1")
    assert code == 1
    failed = {r["case"]: r["detail"] for r in map(json.loads, out.splitlines()) if not r["holds"]}
    assert failed == {"p=3 n<=15": "fails at n=15", "p=5 n<=15": "fails at n=9",
                      "p=9 n<=15": "fails at n=5"}


def test_identities_multiplication_failure_is_one_row(monkeypatch, capsys):
    # Like the other four checks, a failing expansion reports only its first (a, n).
    real = identities.multiplication_formula_check

    def fake(params, a, n):
        res = real(params, a, n)
        return replace(res, holds=False) if (a, n) in {(3, 4), (5, 2)} else res

    monkeypatch.setattr(identities, "multiplication_formula_check", fake)
    code, out = run_cli(capsys, "identities", "-A", "1", "-B", "1")
    assert code == 1
    assert [r for r in map(json.loads, out.splitlines()) if not r["holds"]] == [
        {"A": 1, "B": 1, "check": "multiplication_formula", "case": "a<=8 n<=12",
         "holds": False, "detail": "fails at (a, n)=(3, 4)"}]


def test_wss(capsys):
    code, out = run_cli(capsys, "wss", "-A", "2", "-B", "1", "--limit", "49")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs == [
        {"A": 2, "B": 1, "p": 13, "k_p": 28, "k_p2": 28},
        {"A": 2, "B": 1, "p": 31, "k_p": 30, "k_p2": 30},
    ]


def test_wss_past_ten_thousand(capsys):
    code, out = run_cli(capsys, "wss", "-A", "2", "-B", "1", "--limit", "20000")
    assert code == 0
    assert [json.loads(line)["p"] for line in out.splitlines()] == [13, 31]


def test_repetition_past_ten_thousand(capsys):
    code, out = run_cli(capsys, "repetition", "-A", "1", "-B", "1", "--p", "10007")
    assert code == 0
    rec = json.loads(out)
    assert (rec["base_rank"], rec["observed_next_rank"], rec["holds"]) == (10008, 100150056, True)


def test_atlas_csv(capsys):
    code, out = run_cli(capsys, "atlas", "--A-range", "1..1", "--B-range", "1..1",
                        "--m-range", "2..5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A,B,m,pure,tail_len,cycle_len,alpha"
    assert len(lines) == 5
    assert "1,1,5,true,0,20,5" in lines


def test_atlas_deterministic(capsys):
    # Negative bounds use the --opt=value spelling.
    args = ["atlas", "--A-range=-1..1", "--B-range", "1,2", "--m-range", "2..9"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert out1 == out2 and code1 == code2 == 0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "row.json"
    code = main(["term", "-A", "1", "-B", "1", "-n", "10", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(target.read_text()) == {"A": 1, "B": 1, "n": 10, "term": "55"}


# --- verify subcommand ------------------------------------------------------------

def test_verify_with_config(tmp_path, capsys):
    config = tmp_path / "verify.cfg"
    config.write_text("A_min = 1\nA_max = 1\nB_min = 1\nB_max = 1\n"
                      "suites = square_divisibility, cassini_sign_law\n")
    code, out = run_cli(capsys, "verify", "--config", str(config))
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[-1]["suite"] == "summary"
    assert "failed=0" in recs[-1]["detail"]
    assert all(r["classification"] == "pass" for r in recs[:-1])


def test_verify_empty_grid(tmp_path, capsys):
    config = tmp_path / "verify.cfg"
    config.write_text("B_min = 0\nB_max = 0\n")    # B = 0 is never a grid pair
    code, out = run_cli(capsys, "verify", "--config", str(config))
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 1 and recs[0]["suite"] == "summary"


def test_verify_known_exceptions_do_not_fail(tmp_path, capsys):
    config = tmp_path / "verify.cfg"
    config.write_text("A_min = 1\nA_max = 1\nB_min = 1\nB_max = 1\n"
                      "suites = repetition_law\n")
    code, out = run_cli(capsys, "verify", "--config", str(config))
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    kinds = {r["classification"] for r in recs[:-1]}
    assert kinds == {"pass", "known-exception"}


def test_verify_bad_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "verify.cfg"
    config.write_text("nonsense = 1\n")
    code = main(["verify", "--config", str(config)])
    capsys.readouterr()
    assert code == 2


# --- exit codes --------------------------------------------------------------------

def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["term", "-A", "1", "-B", "1"])    # missing -n
    capsys.readouterr()
    assert exc.value.code == 2


def test_domain_error_exit_2(capsys):
    code = main(["period", "-A", "1", "-B", "2", "-m", "4"])
    err = capsys.readouterr().err
    assert code == 2 and "no pure period" in err


def test_zero_B_exit_2(capsys):
    code = main(["term", "-A", "1", "-B", "0", "-n", "3"])
    capsys.readouterr()
    assert code == 2


def test_budget_exit_3(capsys):
    # cycle spends no budget: an orbit of 150,000 states is answered by descent.
    code, out = run_cli(capsys, "cycle", "-A", "1", "-B", "1", "-m", "100000")
    tail, cyc, _ = naive_orbit(1, 1, 100000)
    assert code == 0
    assert json.loads(out) == {"A": 1, "B": 1, "m": 100000, "pure": True, "tail_len": tail,
                               "cycle_len": cyc}
    code = main(["zeros", "-A", "1", "-B", "1", "-m", "100000", "--limit", "1001",
                 "--budget", "1000"])
    assert code == 3
    assert "needs a walk of 1001 pair states" in capsys.readouterr().err
    code = main(["term", "-A", "1", "-B", "1", "-n", "10000000000", "--budget", "100"])
    capsys.readouterr()
    assert code == 3


def test_square_div_budget_checked_before_work(capsys):
    # e(30000000) alone would take tens of seconds to build; the digit
    # budget refuses the query first.
    code = main(["square-div", "-A", "1", "-B", "1", "-n", "30000000", "--limit", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "~6269630 digits, over the budget of 1000000" in captured.err


def test_atlas_small_modulus_writes_nothing(tmp_path, capsys):
    code = main(["atlas", "--A-range", "1", "--B-range", "1", "--m-range", "1",
                 "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "every modulus must be >= 2, got 1" in captured.err
    target = tmp_path / "atlas.csv"
    target.write_text("kept\n")
    code = main(["atlas", "--A-range", "1", "--B-range", "1", "--m-range", "1",
                 "--out", str(target)])
    capsys.readouterr()
    assert code == 2 and target.read_text() == "kept\n"


def test_reversed_range_exit_2(capsys):
    code = main(["atlas", "--A-range", "5..1", "--B-range", "1", "--m-range", "2..5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "reversed range '5..1'" in captured.err


def test_term_past_int_str_limit(capsys):
    # e(30000) has 6,270 digits, past CPython's default 4,300-digit limit
    # for int-to-str conversion but far under the digit budget.
    code, out = run_cli(capsys, "term", "-A", "1", "-B", "1", "-n", "30000")
    assert code == 0
    assert json.loads(out)["term"] == str(naive_terms(1, 1, 30000)[30000])


@pytest.mark.parametrize("value", ["0", "-5"])
def test_budget_must_be_positive(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "-A", "1", "-B", "1", "-m", "100", "--budget", value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"--budget: expected a positive integer, got '{value}'" in err


@pytest.mark.parametrize("argv", [
    "square-div -A 1 -B 1 -n 5", "power-div -A 1 -B 1 -n 4",
    "zeros -A 1 -B 1 -m 5", "bound -A 1 -B 1 -m 10", "wss -A 2 -B 1",
])
def test_limit_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--limit", "0"])
    assert exc.value.code == 2
    assert "--limit: expected a positive integer, got '0'" in capsys.readouterr().err


def test_repetition_has_no_limit(capsys):
    # The next rank is found by descent from a multiple of k(p^(v+1)), with
    # nothing for a limit to cut short.
    with pytest.raises(SystemExit) as exc:
        main(["repetition", "-A", "1", "-B", "1", "--p", "5", "--limit", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --limit 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "term-mod -A 1 -B 1 -n 5 -m 7", "repetition -A 1 -B 1 --p 3", "power-div -A 1 -B 1 -n 4",
    "div-seq -A 1 -B 1", "identities -A 1 -B 1", "verify", "wss -A 2 -B 1",
    "period-law -A 1 -B 1 --p 2 --e 2", "squares-law -A 2 -B 1 --p 3 --e 2",
    "period -A 1 -B 1 -m 7", "cycle -A 1 -B 1 -m 7", "rank -A 1 -B 1 -m 7",
    "atlas --A-range 1 --B-range 1 --m-range 2",
])
def test_budget_only_on_commands_that_read_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--budget", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "lucaslab.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "wss" in out.stdout and "atlas" in out.stdout


@pytest.mark.parametrize("argv", [
    ["term", "-A", "1", "-B", "1", "-n", "200"],
    ["cycle", "-A", "1", "-B", "2", "-m", "12"],
    ["period-law", "-A", "2", "-B", "1", "--p", "3", "--e", "3"],
    ["verify", "--config", ""],   # config path filled in below
])
def test_json_output_reparse_reemit_identical(tmp_path, capsys, argv):
    # Parsing any emitted JSON-lines file and re-emitting it with the same
    # writer settings reproduces the bytes.
    if argv[0] == "verify":
        cfg = tmp_path / "v.cfg"
        cfg.write_text("A_min = 1\nA_max = 1\nB_min = 1\nB_max = 1\n"
                       "suites = cassini_sign_law\n")
        argv = ["verify", "--config", str(cfg)]
    main(argv)
    out = capsys.readouterr().out
    reemitted = "".join(
        json.dumps(json.loads(line), separators=(",", ":")) + "\n"
        for line in out.splitlines()
    )
    assert reemitted == out


def test_csv_output_reparse_reemit_identical(capsys):
    import csv as csv_mod
    import io
    main(["identities", "-A", "1", "-B", "1", "--format", "csv"])
    out = capsys.readouterr().out
    rows = list(csv_mod.reader(io.StringIO(out)))
    sink = io.StringIO()
    csv_mod.writer(sink, lineterminator="\n").writerows(rows)
    assert sink.getvalue() == out


# --- CSV cells: None empty, bools true/false, lists ";"-joined, pairs ":"-joined ---

CSV_CASES = [
    ("period-law -A 1 -B 1 --p 2 --e 4", "1,1,2,4,1:3;2:6;3:12;4:24,1,true", 0),
    ("div-seq -A -3 -B -5 --a-max 4 --b-max 10", "-3,-5,4,10,false,1,4,4:2;4:6;4:10", 0),
    ("div-seq -A 1 -B -1 --a-max 12 --b-max 36",
     "1,-1,12,36,true,1;2;3;4;5;6;7;8;9;10;11;12,,", 0),
    ("power-div -A 5 -B 4 -n 6 --limit 2", "5,4,6,2,true,", 0),
    ("atlas --A-range 1 --B-range 1 --m-range 3,1000", "1,1,1000,true,0,1500,750", 0),
]


@pytest.mark.parametrize("argv, line, expected_code", CSV_CASES,
                         ids=[f"{argv}-{line}" for argv, line, _ in CSV_CASES])
def test_csv_cells_byte_exact(capsys, argv, line, expected_code):
    code, out = run_cli(capsys, *argv.split(), "--format", "csv")
    assert code == expected_code
    assert out.splitlines()[-1] == line


def test_atlas_json_error_row_keeps_message(capsys):
    # atlas writes no error rows: the row past the short walk carries its answer.
    code, out = run_cli(capsys, "atlas", "--A-range", "1", "--B-range", "1",
                        "--m-range", "3,100000")
    tail, cyc, alpha = naive_orbit(1, 1, 100000)
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {
        "A": 1, "B": 1, "m": 100000, "pure": True, "tail_len": tail, "cycle_len": cyc,
        "alpha": alpha,
    }
