"""Golden CLI outputs: stdout, stderr and exit code of fixed invocations, byte for byte.

The cases are every `lucaslab ...` line of README's CLI block except
`verify`, plus the edge exits below. Each runs in-process through cli.main
and is compared with its transcript in tests/golden/. The default-grid
`verify` output is pinned by sha256 instead, JSON and CSV from one run.

A change that alters a golden file must say why. To regenerate them all:

    PYTHONPATH=src python -m tests.test_golden
"""
from __future__ import annotations

import argparse
import hashlib
import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from lucaslab import cli
from lucaslab.atlas import write_records

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

EDGE_CASES = [
    # The digit budget refuses before e(n) is built.
    "lucaslab square-div -A 1 -B 1 -n 30000000 --limit 1",
    # A modulus below 2 is rejected before atlas writes anything.
    "lucaslab atlas --A-range 1 --B-range 1 --m-range 1 --format csv",
    # Past CPython's 4,300-digit int-to-str limit.
    "lucaslab term -A 1 -B 1 -n 30000",
    # Over the state budget.
    "lucaslab cycle -A 1 -B 1 -m 100000 --budget 1000",
    # Every atlas row is written, then the over-budget rows give exit 3.
    "lucaslab atlas --A-range 1 --B-range 1 --m-range 3,1000 --budget 1000",
]

VERIFY_SHA256 = {
    "json": "7a2f5d74c4d20b94f76b5aa608709c43370203869c81c04fe86b675d4f86a4d9",
    "csv": "a2b47fbdfe26a95c3ec33c23275cac4f3c819f3dc1aa76dda1173c803b787c55",
}


def readme_cases() -> list[str]:
    """The `lucaslab ...` lines of README's CLI block, `verify` left out."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in block.splitlines()
            if line.startswith("lucaslab ") and not line.startswith("lucaslab verify")]


CASES = readme_cases() + EDGE_CASES


def transcript(line: str) -> str:
    """Run one command line in-process and render its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(shlex.split(line)[1:])
        except SystemExit as exc:
            code = exc.code
    return f"$ {line}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def golden_path(line: str) -> Path:
    return GOLDEN / (re.sub(r"[^\w.-]+", "_", line.removeprefix("lucaslab ")) + ".txt")


@pytest.mark.parametrize("line", CASES)
def test_cli_golden(line):
    assert transcript(line) == golden_path(line).read_text()


def test_golden_files_match_cases():
    assert sorted(GOLDEN.glob("*.txt")) == sorted(map(golden_path, CASES))


@pytest.fixture(scope="session")
def verify_outputs() -> dict[str, bytes]:
    records, fields, code = cli._cmd_verify(argparse.Namespace(config=None))
    assert code == 0
    outputs = {}
    for fmt in ("json", "csv"):
        sink = io.StringIO()
        write_records(records, fields, sink, fmt)
        outputs[fmt] = sink.getvalue().encode()
    return outputs


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_default_grid_sha256(verify_outputs, fmt):
    assert hashlib.sha256(verify_outputs[fmt]).hexdigest() == VERIFY_SHA256[fmt]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for line in CASES:
        golden_path(line).write_text(transcript(line))


if __name__ == "__main__":
    regenerate()
