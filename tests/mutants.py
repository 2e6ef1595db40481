"""Mutation check: every mutant listed here must make its named tests fail.

Run from the repository root (standard library only):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named mutants

A mutant is one text substitution in one file under src/. For each mutant
the runner copies src/ to a temporary directory, applies the substitution
there (never under src/), and runs

    python -m pytest -x -q -p no:cacheprovider <the mutant's test files>

with the copy first on PYTHONPATH. The mutant is killed when those tests
fail and survives when they pass. Before any mutant, the unmutated copy must
pass the named tests, and each original text must occur exactly once in its
file.

Exit status: 0 when every mutant is killed; 1 when any survives (each
survivor is named); 2 on a usage error, an original text that does not
occur exactly once, or an unmutated copy that fails.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/lucaslab
    original: str
    replacement: str
    tests: tuple[str, ...]


MODULAR = ("tests/test_modular.py",)

MUTANTS = (
    Mutant("term_pair skips its final reduction", "core.py",
           "else (a % m, b % m)", "else (a, b)", ("tests/test_core.py",) + MODULAR),
    Mutant("wss tests only the zero, not the state (0, 1)", "atlas.py",
           "term_pair(params, n, p * p) == (0, 1)", "term_pair(params, n, p * p)[0] == 0",
           ("tests/test_atlas.py",)),
    Mutant("ladder height t is the least stable rung", "modular.py",
           "t = max(e for e, k in ladder", "t = min(e for e, k in ladder", MODULAR),
    Mutant("descent skips its bound check", "modular.py",
           "    if not holds(n):\n", "    if False:\n", MODULAR),
    Mutant("next rank tested mod p^v, not p^(v+1)", "divisibility.py",
           "term_mod(params, d, higher) == 0", "term_mod(params, d, higher // p) == 0",
           ("tests/test_divisibility.py",)),
    Mutant("period multiple drops its p^(e-1) factor", "modular.py",
           "return p ** (e - 1) * (", "return (", MODULAR),
    Mutant("pure orbit step drops B", "modular.py",
           "(A * y + B * x) % m\n            if x == 0:\n",
           "(A * y + x) % m\n            if x == 0:\n", MODULAR),
    Mutant("power-div tests modulo e(n)^k", "divisibility.py",
           "term_mod(params, index, e_n ** (k + 1))", "term_mod(params, index, e_n ** k)",
           ("tests/test_divisibility.py",)),
    Mutant("squares period compares two terms, not three", "modular.py",
           "(a * a % m, b * b % m, (A * b + B * a) ** 2 % m) == (0, 1, A * A % m)",
           "(a * a % m, b * b % m) == (0, 1)", MODULAR),
    Mutant("cycle entry reads the residue at cycle_len - 1", "modular.py",
           "term_mod(params, cyc, m) if tail == 1", "term_mod(params, cyc - 1, m) if tail == 1",
           MODULAR),
    Mutant("bound primes drop the primes of p + 1", "modular.py",
           ", *factorint(p + 1)}", "}", MODULAR),
    Mutant("descent bound at p not dividing B drops p^(e-1)", "modular.py",
           "_period_multiple(params, p, e))", "_period_multiple(params, p, 1))", MODULAR),
    Mutant("descent bound at p | B loses its (p - 1)", "modular.py",
           "p ** (e - 1) * (p - 1))", "p ** (e - 1))", MODULAR),
    Mutant("descent takes p | A and B for a zero-free prime", "modular.py",
           "        elif A % p:\n", "        else:\n", MODULAR),
    Mutant("descent tail bound T is halved", "modular.py",
           "else 2 * m.bit_length()", "else m.bit_length()", MODULAR),
    Mutant("impure alpha skips its scan to T", "modular.py",
           "alpha = next((n for n in range(1, T + 1) if pair(n)[0] == 0), None)",
           "alpha = None", MODULAR),
    Mutant("impure alpha is not lifted past T", "modular.py",
           "alpha = (T // step + 1) * step", "alpha = step", MODULAR),
    Mutant("zero walk step drops B", "modular.py",
           "(A * y + B * x) % m\n        if (x == 0)", "(A * y + x) % m\n        if (x == 0)",
           MODULAR),
    Mutant("no short walk: every orbit is factored", "modular.py",
           "SHORT_ORBIT = 2**12", "SHORT_ORBIT = 0", MODULAR),
)


def _run_tests(src: Path, tests: tuple[str, ...]) -> bool:
    """True when the tests pass against the package under src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def _copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    for m in chosen:
        count = (ROOT / "src" / "lucaslab" / m.path).read_text().count(m.original)
        if count != 1:
            print(f"{m.name}: original text occurs {count} times in {m.path}, not once",
                  file=sys.stderr)
            return 2
    survivors = []
    with tempfile.TemporaryDirectory(prefix="lucaslab-mutants-") as tmp:
        clean = _copy_src(Path(tmp) / "clean")
        for tests in dict.fromkeys(m.tests for m in chosen):
            if not _run_tests(clean, tests):
                print(f"unmutated source fails {' '.join(tests)}", file=sys.stderr)
                return 2
        for i, m in enumerate(chosen):
            src = _copy_src(Path(tmp) / f"mutant{i}")
            target = src / "lucaslab" / m.path
            target.write_text(target.read_text().replace(m.original, m.replacement))
            start = time.perf_counter()
            killed = not _run_tests(src, m.tests)
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:8}  {time.perf_counter() - start:5.1f} s  {m.name}"
                  f"  [{' '.join(m.tests)}]", flush=True)
            if not killed:
                survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {'; '.join(survivors)}", file=sys.stderr)
        return 1
    print(f"all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
