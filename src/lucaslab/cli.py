"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 verification failures present,
2 usage or domain error, 3 budget exceeded.

Machine output is deterministic: JSON is one object per line with fixed key
order (sequence terms rendered as decimal strings so nothing is rounded),
CSV has one fixed header per record type and "\n" line endings.
"""
from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict

from .atlas import ATLAS_FIELDS, WSS_FIELDS, atlas_row_obj, atlas_rows, write_records, wss_scan
from .core import DEFAULT_DIGIT_BUDGET, RecurrenceParams, check_term_budget, term
from .divisibility import (
    divisibility_sequence_check,
    power_divisibility_check,
    repetition_law_check,
    square_divisibility_check,
    trailing_zeros_report,
)
from .errors import BudgetExceededError, LucasLabError
from .identities import (
    DET_POWER_MODULI,
    cassini_sign_violation,
    det_power_identity_violation,
    gcd_companion_violation,
    multiplication_formula_violation,
    period_step_violation,
)
from .modular import (
    DEFAULT_STATE_BUDGET,
    cycle_structure,
    period,
    period_law_report,
    rank,
    squares_period_law_report,
    term_mod,
    zero_indices_check,
)
from .verify import VerifyConfig, parse_config, run_verification


def _params(args: argparse.Namespace) -> RecurrenceParams:
    return RecurrenceParams(args.A, args.B)


# --- subcommand handlers, each returning (records, fields, exit_code) --------

def _record(args, **fields) -> tuple[list[dict], tuple[str, ...], int]:
    """One record {A, B, **fields}, its columns in that order, and exit code 0."""
    rec = {"A": args.A, "B": args.B, **fields}
    return [rec], tuple(rec), 0


def _cmd_term(args):
    params = _params(args)
    check_term_budget(params, args.n, args.budget)
    return _record(args, n=args.n, term=str(term(params, args.n)))


def _cmd_term_mod(args):
    return _record(args, n=args.n, m=args.modulus,
                   residue=term_mod(_params(args), args.n, args.modulus))


def _cmd_period(args):
    return _record(args, m=args.modulus, period=period(_params(args), args.modulus))


def _cmd_cycle(args):
    cs = cycle_structure(_params(args), args.modulus)
    return _record(args, m=args.modulus, pure=cs.pure, tail_len=cs.tail_len,
                   cycle_len=cs.cycle_len)


def _cmd_rank(args):
    rr = rank(_params(args), args.modulus)
    val = rr.valuation_at_alpha
    return _record(args, m=args.modulus, alpha=rr.alpha,
                   valuation_at_alpha="inf" if val == math.inf else val)


def _cmd_ladder(args):
    report = args.law(_params(args), args.p, args.e)
    return _record(args, p=args.p, e_max=args.e, ladder=report.ladder, t=report.t,
                   law_holds=report.law_holds)


def _cmd_repetition(args):
    return _record(args, **asdict(repetition_law_check(_params(args), args.p)))


def _cmd_square_div(args):
    chk = square_divisibility_check(_params(args), args.n, args.limit, digit_budget=args.budget)
    return _record(args, n=args.n, m_max=args.limit, holds=chk.holds,
                   first_counterexample=chk.counterexamples[0][0] if chk.counterexamples else None)


def _cmd_power_div(args):
    chk = power_divisibility_check(_params(args), args.n, args.limit)
    return _record(args, n=args.n, k_max=args.limit, holds=chk.holds,
                   first_counterexample=chk.counterexamples[0][0] if chk.counterexamples else None)


def _cmd_div_seq(args):
    chk = divisibility_sequence_check(_params(args), args.a_max, args.b_max)
    return _record(args, a_max=args.a_max, b_max=args.b_max, holds=chk.holds,
                   degenerate=chk.degenerate, collision_indices=chk.collision_indices,
                   counterexamples=[[a, b] for a, b, *_ in chk.counterexamples[:10]])


def _cmd_zeros(args):
    chk = zero_indices_check(_params(args), args.modulus, args.limit, state_budget=args.budget)
    return _record(args, m=args.modulus, limit=chk.limit, alpha=chk.alpha, holds=chk.holds,
                   first_violation=chk.first_violation)


def _cmd_bound(args):
    rep = trailing_zeros_report(_params(args), args.modulus, args.limit, digit_budget=args.budget)
    records = [{"A": args.A, "B": args.B, "base": rep.base, "n": n, "z": z}
               for n, z in rep.samples]
    print(f"max z(n)/log2(n) = {rep.max_ratio}", file=sys.stderr)
    return records, ("A", "B", "base", "n", "z"), 0


def _cmd_identities(args):
    params = _params(args)
    found = [("multiplication_formula", "a<=8 n<=12", multiplication_formula_violation(params))]
    found += [("det_power_identity", f"p={p} n<=15", det_power_identity_violation(params, p))
              for p in DET_POWER_MODULI]
    found.append(("period_step_congruence", "a<=6 n<=12", period_step_violation(params)))
    if params.coprime_AB:
        found.append(("gcd_companion", "n<=30", gcd_companion_violation(params)))
    found.append(("cassini_sign_law", "n<=40", cassini_sign_violation(params)))
    records = [{"A": args.A, "B": args.B, "check": check, "case": case, "holds": bad is None,
                "detail": "" if bad is None else
                f"fails at {'(a, n)' if isinstance(bad, tuple) else 'n'}={bad}"}
               for check, case, bad in found]
    exit_code = 0 if all(r["holds"] for r in records) else 1
    return records, ("A", "B", "check", "case", "holds", "detail"), exit_code


def _cmd_wss(args):
    return map(asdict, wss_scan(_params(args), args.limit)), WSS_FIELDS, 0


def _cmd_atlas(args):
    rows = atlas_rows(_parse_range(args.A_range), _parse_range(args.B_range),
                      _parse_range(args.m_range))
    return map(atlas_row_obj, rows), ATLAS_FIELDS, 0


def _cmd_verify(args):
    if args.config:
        with open(args.config) as fh:
            config = parse_config(fh.read())
    else:
        config = VerifyConfig()
    records, summary = run_verification(config)
    recs = [asdict(r) for r in records]
    recs.append({"suite": "summary", "case": "", "holds": summary.ok,
                 "classification": "summary",
                 "detail": f"records={summary.records};passed={summary.passed};"
                           f"failed={summary.failed};"
                           f"known_exceptions={summary.known_exceptions}"})
    return recs, ("suite", "case", "holds", "classification", "detail"), 0 if summary.ok else 1


def _parse_range(text: str) -> list[int]:
    """Parse '2..5' (inclusive) or '2,3,7' into an integer list."""
    if ".." in text:
        lo, hi = map(int, text.split("..", 1))
        if lo > hi:
            raise ValueError(f"reversed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _open_out(path: str | None):
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", newline="")


def main(argv: list[str] | None = None) -> int:
    # Decimal output is bounded by the digit budget, not by CPython's
    # int-to-str limit (4,300 digits by default).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LucasLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    records, fields, code = args.run(args)
    with _open_out(args.out) as sink:
        write_records(records, fields, sink, args.format)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucaslab",
        description="Arithmetic of second-order recurrences e(n) = A*e(n-1) + B*e(n-2), "
                    "seeds 0, 1: exact terms, periods, ranks, divisibility laws, "
                    "congruence identities, and Wall-Sun-Sun-analogue scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json lines)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH (default stdout)")

    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument("--budget", type=_positive_int, default=DEFAULT_DIGIT_BUDGET,
                        help="most decimal digits of an exact term (default %(default)s)")

    ab = argparse.ArgumentParser(add_help=False)
    ab.add_argument("-A", type=int, required=True, help="coefficient A")
    ab.add_argument("-B", type=int, required=True, help="coefficient B (nonzero)")

    def cmd(name: str, help_text: str, run, *, parents=(), **defaults):
        p = sub.add_parser(name, help=help_text, parents=[common, *parents])
        p.set_defaults(run=run, **defaults)
        return p

    p = cmd("term", "exact term e(n)", _cmd_term, parents=[ab, digits])
    p.add_argument("-n", "--index", dest="n", type=int, required=True)

    p = cmd("term-mod", "e(n) mod m by fast doubling", _cmd_term_mod, parents=[ab])
    p.add_argument("-n", "--index", dest="n", type=int, required=True)
    p.add_argument("-m", "--modulus", dest="modulus", type=int, required=True)

    for name, help_text, run in (
            ("period", "pure period k(m) (requires gcd(B, m) = 1)", _cmd_period),
            ("cycle", "tail and cycle of the pair sequence mod m", _cmd_cycle),
            ("rank", "rank of apparition alpha(m)", _cmd_rank)):
        p = cmd(name, help_text, run, parents=[ab])
        p.add_argument("-m", "--modulus", dest="modulus", type=int, required=True)

    for name, help_text, law in (
            ("period-law", "period ladder k(p^e) and the scaling law", period_law_report),
            ("squares-law", "period ladder of the squared sequence",
             squares_period_law_report)):
        p = cmd(name, help_text, _cmd_ladder, parents=[ab], law=law)
        p.add_argument("--p", type=int, required=True, help="prime p (not dividing B)")
        p.add_argument("--e", type=int, default=3, help="largest exponent (default 3)")

    p = cmd("repetition", "law of repetition at a prime", _cmd_repetition, parents=[ab])
    p.add_argument("--p", type=int, required=True)

    p = cmd("square-div", "e(n)^2 | e(n*m) iff e(n) | m, for m up to --limit",
            _cmd_square_div, parents=[ab, digits])
    p.add_argument("-n", "--index", dest="n", type=int, required=True)
    p.add_argument("--limit", type=_positive_int, default=30, help="m_max (default %(default)s)")

    p = cmd("power-div", "e(n)^(k+1) | e(n*e(n)^k) for k up to --limit", _cmd_power_div,
            parents=[ab])
    p.add_argument("-n", "--index", dest="n", type=int, required=True)
    p.add_argument("--limit", type=_positive_int, default=2, help="k_max (default %(default)s)")

    p = cmd("div-seq", "e(a) | e(b) iff a | b over an index rectangle", _cmd_div_seq,
            parents=[ab])
    p.add_argument("--a-max", dest="a_max", type=int, default=15)
    p.add_argument("--b-max", dest="b_max", type=int, default=60)

    p = cmd("zeros", "zero indices mod m form the multiples of alpha", _cmd_zeros,
            parents=[ab])
    p.add_argument("-m", "--modulus", dest="modulus", type=int, required=True)
    p.add_argument("--limit", type=_positive_int, default=100,
                   help="largest index checked (default %(default)s)")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_STATE_BUDGET,
                   help="most pair states the zero walk may take (default %(default)s)")

    p = cmd("bound", "trailing-zero counts in base m with the log-ratio bound", _cmd_bound,
            parents=[ab, digits])
    p.add_argument("-m", "--modulus", dest="modulus", type=int, required=True,
                   help="the base the terms are written in")
    p.add_argument("--limit", type=_positive_int, default=200,
                   help="largest index (default %(default)s)")

    cmd("identities", "run the exact identity checks for one (A, B)", _cmd_identities,
        parents=[ab])

    p = cmd("wss", "scan primes for k(p^2) = k(p)", _cmd_wss, parents=[ab])
    p.add_argument("--limit", type=_positive_int, default=1000,
                   help="scan primes <= limit (default %(default)s)")

    p = cmd("atlas", "bulk cycle/rank table over parameter ranges", _cmd_atlas)
    p.add_argument("--A-range", dest="A_range", required=True,
                   help="range 'lo..hi' or comma list")
    p.add_argument("--B-range", dest="B_range", required=True)
    p.add_argument("--m-range", dest="m_range", required=True)

    p = cmd("verify", "run the property-verification suites", _cmd_verify)
    p.add_argument("--config", metavar="PATH", default=None,
                   help="flat key = value config file")

    return parser


if __name__ == "__main__":
    sys.exit(main())
