"""lucaslab benchmark: drives the real CLI and checks every answer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client. Each ``python -m lucaslab.cli``
child (PYTHONPATH=src) starts only after the previous one has exited; there
are no threads and no pool. Children are timed from spawn to exit, and their
peak resident memory comes from ``os.wait4``. Work units are counted only for
answers that match the slow oracles in ``bench/oracle.py``.

Time is reported in reference units (``ref``): while a child runs, the
harness times a fixed pure-Python loop (speed_sample, ~1.1 ms) every
SAMPLE_EVERY_S on the other core, and the child's wall time is divided by the
median of those samples. On a shared host whose speed drifts by +-25% within
seconds this cancels most of the drift, which raw seconds cannot: on a 2-vCPU
Xeon VM the coefficient of variation of repeated atlas invocations was 0.10 in
seconds, 0.13 against reference children run between invocations and 0.04
against samples taken during them. The loop builds no containers and no big
integers, so the harness's garbage collector and large allocations stay out of
the samples (adding big-integer or dict work to it raised their scatter). Raw
seconds are printed as well.

``setup_s`` is in nominal seconds: each fresh import is timed in ref units the
same way and multiplied by REF_NOMINAL_S, what one speed sample took on that VM
when it was quiet. There, the median raw import time rose from 0.41 s to
0.55-0.67 s within an hour while cli-cold's median latency in ref units, which
the import dominates, moved by 2%; in raw seconds a set-up change would be
judged by the hour of the run.

With ``--trace 0`` the run measures the end-to-end metrics named in
BENCHMARK.json. With ``--trace 1`` it runs a fixed prefix of the same seeded
inputs through ``bench/trace.py``, which calls ``lucaslab.cli.main`` in one
process with spans around every layer, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``correct`` is false when any
answer is wrong. A workload's known-defect probes (PROBES) run once per run,
untimed and outside ``attempted``: each prints whether lucaslab still fails it
in the known way or now answers it rightly, and any other answer is wrong.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable, Iterator

import oracle

ROOT = Path(__file__).resolve().parent.parent
# Fresh `import lucaslab.cli` runs per run, spread evenly over it; setup_s is their median.
SETUP_PROBES = 9
SPEED_LOOP = 20_000     # iterations timed by a speed sample (1.1-1.7 ms)
REF_NOMINAL_S = 1.1e-3  # seconds per ref in setup_s: a speed sample on the quiet VM
SAMPLE_EVERY_S = 0.05   # so sampling takes ~2% of the core the child leaves idle
RUN_DEADLINE_S = 170.0  # a run stops starting children after this and kills a straggler


@dataclass
class Op:
    """One CLI invocation with its oracle and the work units a right answer earns."""

    argv: list[str]
    items: int
    check: Callable[[int, str], str | None]   # (exit code, stdout) -> error or None


@dataclass(frozen=True)
class Probe:
    """A query lucaslab 0.1.0 answers wrongly, exiting with `code` for reason `why`."""

    op: Op
    code: int
    why: str


def _records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def expecting(expected: Callable[[], tuple[list[dict], int]]):
    """A check comparing the parsed JSON records and exit code with an oracle."""
    def check(code: int, out: str) -> str | None:
        recs, want_code = expected()
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        got = _records(out)
        return None if got == recs else f"output {got[:3]} != oracle {recs[:3]}"
    return check


# --- verify-default ----------------------------------------------------------

VERIFY_RECORDS, VERIFY_KNOWN = 4184, 86


def check_verify(code: int, out: str) -> str | None:
    recs = _records(out)
    summary, body = recs[-1], recs[:-1]
    want = f"records={VERIFY_RECORDS};passed={VERIFY_RECORDS - VERIFY_KNOWN};failed=0;" \
           f"known_exceptions={VERIFY_KNOWN}"
    if code != 0 or summary["detail"] != want:
        return f"exit {code}, summary {summary['detail']!r}, expected {want!r}"
    classes = [r["classification"] for r in body]
    if (len(body) != VERIFY_RECORDS or classes.count("known-exception") != VERIFY_KNOWN
            or classes.count("pass") != VERIFY_RECORDS - VERIFY_KNOWN):
        return "record lines disagree with the summary"
    return None


def verify_ops(rng: random.Random) -> Iterator[Op]:
    # The default grid is where the acceptance pins live, so the seed changes nothing.
    return itertools.repeat(Op(["verify"], VERIFY_RECORDS, check_verify))


# --- wss-scan ----------------------------------------------------------------

WSS_LIMIT = 10_000
WSS_PINNED = {(2, 1): [13, 31], (1, 1): []}
WSS_COMPLETE_BELOW = 1000


def _squarefree_part(n: int) -> int:
    for d in range(2, math.isqrt(n) + 1):
        while n % (d * d) == 0:
            n //= d * d
    return n


# B = +-1 keeps every period below 2(p + 1), so p^2-long walks never occur. B = 1
# pairs whose discriminant field is neither Fibonacci's Q(sqrt 5) nor Pell's
# Q(sqrt 2) all walk 6.6-6.8 M states to 10^4, so a seed's draw does not move
# the run's cost; the pinned Pell and Fibonacci scans carry those two fields.
WSS_POOL = [(s * a, 1) for a in range(3, 16) for s in (1, -1)
            if _squarefree_part(a * a + 4) not in (2, 5)]


@functools.cache
def _wss_expected_small(A: int, B: int) -> list[int]:
    return oracle.wss_complete_below(A, B, WSS_COMPLETE_BELOW)


def check_wss(A: int, B: int, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    recs = _records(out)
    ps = [r["p"] for r in recs]
    if ps != sorted(set(ps)) or any(p > WSS_LIMIT for p in ps):
        return f"findings out of order or range: {ps}"
    if (A, B) in WSS_PINNED and ps != WSS_PINNED[(A, B)]:
        return f"({A}, {B}) gave {ps}, pinned {WSS_PINNED[(A, B)]}"
    small = [p for p in ps if p < WSS_COMPLETE_BELOW]
    if small != _wss_expected_small(A, B):
        return f"findings below {WSS_COMPLETE_BELOW}: {small} != {_wss_expected_small(A, B)}"
    return next(filter(None, (oracle.wss_finding_error(A, B, r) for r in recs)), None)


def wss_ops(rng: random.Random) -> Iterator[Op]:
    scanned = len(oracle.primes_upto(WSS_LIMIT))  # B = +-1: no prime divides B
    while True:
        for A, B in ((2, 1), (1, 1), rng.choice(WSS_POOL), rng.choice(WSS_POOL)):
            yield Op(["wss", "-A", str(A), "-B", str(B), "--limit", str(WSS_LIMIT)],
                     scanned, functools.partial(check_wss, A, B))


# --- atlas-block -------------------------------------------------------------

ATLAS_ARGV = ["atlas", "--A-range=-3..3", "--B-range=-3..3", "--m-range", "2..200",
              "--format", "csv"]
ATLAS_KEYS = [(A, B, m) for A in range(-3, 4) for B in range(-3, 4) if B
              for m in range(2, 201)]
ATLAS_SAMPLE = 20


def check_atlas(sample: list[int], code: int, out: str) -> str | None:
    lines = out.splitlines()
    if code != 0 or lines[:1] != ["A,B,m,pure,tail_len,cycle_len,alpha"]:
        return f"exit {code}, header {lines[:1]}"
    rows = [line.split(",") for line in lines[1:]]
    if [(int(r[0]), int(r[1]), int(r[2])) for r in rows] != ATLAS_KEYS:
        return f"{len(rows)} rows, expected {len(ATLAS_KEYS)} in (A, B, m) order"
    errors = sum(r[3] == "" for r in rows)
    if errors:
        return f"{errors} error rows"
    for i in sample:
        want = oracle.atlas_row(*ATLAS_KEYS[i])
        if rows[i] != want:
            return f"row {rows[i]} != oracle {want}"
    return None


def atlas_ops(rng: random.Random) -> Iterator[Op]:
    while True:
        sample = rng.sample(range(len(ATLAS_KEYS)), ATLAS_SAMPLE)
        yield Op(ATLAS_ARGV, len(ATLAS_KEYS), functools.partial(check_atlas, sample))


# --- cli-cold ----------------------------------------------------------------

def _pair(rng: random.Random, coprime: bool = False) -> tuple[int, int]:
    while True:
        A, B = rng.randint(-6, 6), rng.choice([b for b in range(-6, 7) if b])
        if not coprime or math.gcd(A, B) == 1:
            return A, B


def _unit_modulus(rng: random.Random, B: int, hi: int) -> int:
    while True:
        m = rng.randint(2, hi)
        if math.gcd(B, m) == 1:
            return m


def cli_query(rng: random.Random) -> tuple[list[str], Callable]:
    """One seed-drawn small query: argv tail and a thunk giving the oracle's answer."""
    kind = rng.choice(["term", "term-mod", "period", "cycle", "rank", "repetition",
                       "zeros", "identities"])
    A, B = _pair(rng, coprime=kind == "repetition")
    ab = ["-A", str(A), "-B", str(B)]
    if kind == "term":
        n = rng.randint(0, 400)
        return ["term", *ab, "-n", str(n)], lambda: oracle.expect_term(A, B, n)
    if kind == "term-mod":
        n, m = rng.randint(0, 5000), rng.randint(2, 5000)
        return ["term-mod", *ab, "-n", str(n), "-m", str(m)], \
            lambda: oracle.expect_term_mod(A, B, n, m)
    if kind == "period":
        m = _unit_modulus(rng, B, 300)
        return ["period", *ab, "-m", str(m)], lambda: oracle.expect_period(A, B, m)
    if kind == "cycle":
        m = rng.randint(2, 300)
        return ["cycle", *ab, "-m", str(m)], lambda: oracle.expect_cycle(A, B, m)
    if kind == "rank":
        m = rng.randint(2, 150)
        return ["rank", *ab, "-m", str(m)], lambda: oracle.expect_rank(A, B, m)
    if kind == "repetition":
        p = rng.choice([p for p in (2, 3, 5, 7, 11, 13) if B % p])
        expected = oracle.expect_repetition(A, B, p)
        if expected is None:  # e(rank) = 0 exactly: the CLI rightly refuses it
            return cli_query(rng)
        return ["repetition", *ab, "--p", str(p)], lambda: expected
    if kind == "zeros":
        m, limit = _unit_modulus(rng, B, 300), rng.randint(1, 500)
        return ["zeros", *ab, "-m", str(m), "--limit", str(limit)], \
            lambda: oracle.expect_zeros(A, B, m, limit)
    return ["identities", *ab], lambda: oracle.expect_identities(A, B)


# Two edge queries (ROADMAP item 5) that lucaslab 0.1.0 answers wrongly. Every
# cli-cold run probes them once, so the defects keep showing in its output, but
# they stay out of the measured operations, none of which may fail.
CLI_PROBES = [
    Probe(Op(["term", "-A", "1", "-B", "1", "-n", "30000"], 0,
             expecting(lambda: oracle.expect_term(1, 1, 30000))),
          2, "the int-to-str limit; the term has ~6.3k digits"),
    Probe(Op(["period", "-A", "1", "-B", "1", "-m", "20000"], 0,
             expecting(lambda: oracle.expect_period(1, 1, 20000))),
          3, "the m^2 state-budget guess; the real walk is 30000 states"),
]


def cli_ops(rng: random.Random) -> Iterator[Op]:
    while True:
        argv, expected = cli_query(rng)
        yield Op(argv, 1, expecting(expected))


@dataclass(frozen=True)
class Workload:
    ops: Callable[[random.Random], Iterator[Op]]
    unit: str                   # what one work item is
    trace_ops: int              # how many of the seeded ops the traced run replays
    profile: tuple[str, float]  # span metric and its least share of traced time in 0.1.0
    probes: tuple[Probe, ...] = ()


WORKLOADS = {
    "verify-default": Workload(verify_ops, "verify records", 1,
                               ("verify.suite.power_divisibility.busy_s", 0.4)),
    "wss-scan": Workload(wss_ops, "primes scanned", 4, ("modular.period.self_s", 0.9)),
    "atlas-block": Workload(atlas_ops, "atlas rows", 1, ("layer.modular.self_s", 0.6)),
    "cli-cold": Workload(cli_ops, "CLI invocations", 24, ("layer.cli.self_s", 0.5),
                         tuple(CLI_PROBES)),
}


# --- running children --------------------------------------------------------

@dataclass
class Child:
    code: int
    out: str
    err: str
    seconds: float
    maxrss_kb: int


def speed_sample() -> float:
    """Seconds this process takes for SPEED_LOOP iterations of fixed work."""
    t0 = time.perf_counter()
    s = 0
    for i in range(SPEED_LOOP):
        s += i * i
    return time.perf_counter() - t0


def spawn(cmd: list[str], env: dict, timeout: float,
          samples: list[float] | None = None) -> Child:
    """Run cmd to completion, draining both pipes; reaps it with os.wait4.

    Given a list of `samples`, appends a speed_sample() taken at spawn and then
    every SAMPLE_EVERY_S until the child closes its pipes.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    deadline, next_sample = t0 + timeout, t0 if samples is not None else math.inf
    try:
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                now = time.perf_counter()
                if now >= deadline:
                    proc.kill()
                    deadline = next_sample = math.inf  # drain what it left, then reap it
                elif now >= next_sample:
                    samples.append(speed_sample())
                    next_sample = now + SAMPLE_EVERY_S
                    continue
                wake = min(deadline, next_sample)
                for key, _ in sel.select(None if wake == math.inf else max(wake - now, 0)):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                 b"".join(chunks[proc.stderr]).decode(), seconds, usage.ru_maxrss)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # children keep CPython's default limit
    return env


def judge(op: Op, child: Child) -> str | None:
    try:
        return op.check(child.code, child.out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparseable output
        return f"exit {child.code}, unreadable output: {exc!r}"


# --- metrics -----------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Below 21 samples no percentile at or above the median has ten beyond it,
    so the maximum stands in.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], f"maximum of {n} samples; no percentile >= p50 has 10 beyond it"
    return xs[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} samples"


def measure(workload: Workload, rng: random.Random, seconds: float, env: dict,
            started: float):
    lat, norm, speed, rss, setup, setup_raw, items, failures = [], [], [], [], [], [], 0, []
    ops = workload.ops(rng)

    def setup_probe() -> None:
        samples = []
        child = spawn([sys.executable, "-c", "import lucaslab.cli"], env, 60, samples)
        setup_raw.append(child.seconds)
        setup.append(child.seconds / statistics.median(samples) * REF_NOMINAL_S)

    # Never start an invocation expected to end past `seconds`, but always run one:
    # a verify sweep alone outlasts most runs.
    while ((not lat or sum(lat) + statistics.fmean(lat) <= seconds)
           and time.perf_counter() - started < RUN_DEADLINE_S):
        while len(setup) < SETUP_PROBES and sum(lat) >= len(setup) * seconds / SETUP_PROBES:
            setup_probe()
        op, samples = next(ops), []
        child = spawn([sys.executable, "-m", "lucaslab.cli", *op.argv], env,
                      RUN_DEADLINE_S - (time.perf_counter() - started), samples)
        lat.append(child.seconds)
        norm.append(child.seconds / statistics.median(samples))
        speed.extend(samples)
        rss.append(child.maxrss_kb)
        error = judge(op, child)
        if error is None:
            items += op.items
        else:
            failures.append((op, error))
    while len(setup) < SETUP_PROBES:
        setup_probe()
    tail_ref, tail_note = tail(norm)
    print(f"# wall clock: items_per_s = {items / sum(lat)!r} 1/s, latency_p50_s = "
          f"{statistics.median(lat)!r} s, latency_tail_s = {tail(lat)[0]!r} s, "
          f"import = {statistics.median(setup_raw)!r} s; "
          f"1 ref = median {statistics.median(speed) * 1e3:.4f} ms over {len(speed)} samples")
    metrics = {
        "items_per_ref": (items / sum(norm), "1/ref",
                          f"{items} {workload.unit} in {sum(lat):.2f} s = {sum(norm):.1f} ref"),
        "latency_p50_ref": (statistics.median(norm), "ref", f"median of {len(lat)} samples"),
        "latency_tail_ref": (tail_ref, "ref", tail_note),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {SETUP_PROBES} fresh `import lucaslab.cli` runs, "
                    f"ref x {REF_NOMINAL_S * 1e3} ms"),
        "peak_rss_mb": (statistics.median(rss) / 1024, "MB",
                        f"median over {len(rss)} children of each one's ru_maxrss; "
                        f"largest {max(rss) / 1024:.2f}"),
    }
    return metrics, len(lat), failures


def traced(workload: Workload, rng: random.Random, env: dict, started: float):
    ops = list(itertools.islice(workload.ops(rng), workload.trace_ops))
    child = spawn([sys.executable, str(ROOT / "bench" / "trace.py"),
                   json.dumps([op.argv for op in ops])], env,
                  RUN_DEADLINE_S - (time.perf_counter() - started))
    if child.code != 0:
        raise SystemExit(f"traced run failed (exit {child.code}):\n{child.err}")
    result = json.loads(child.out.splitlines()[-1])
    failures = []
    for op, (code, out), same in zip(ops, result["outputs"], result["matches_untraced"]):
        error = judge(op, Child(code, out, "", 0.0, 0))
        if error is None and not same:
            error = "traced output differs from the untraced in-process run"
        if error is not None:
            failures.append((op, error))
    raw = result["metrics"]
    spans, wall = raw["trace.spans_s"], raw["trace.wall_s"]
    print(f"# trace: {len(ops)} invocations; untraced {wall / raw['trace.overhead']:.3f} s, "
          f"traced {wall:.3f} s; layer self times add to {spans:.3f} s, "
          f"harness share {1 - spans / wall:.4f}")
    layers = sorted((v, k) for k, v in raw.items() if k.startswith("layer."))[::-1]
    print("# trace: layer self shares " + ", ".join(
        f"{k[6:-7]} {v / spans:.3f}" for v, k in layers if spans))
    name, least = workload.profile
    share = raw.get(name, 0.0) / spans if spans else 0.0
    print(f"# profile: {name} takes {share:.3f} of traced time; lucaslab 0.1.0's profile "
          f"has >= {least}: {'matches' if share >= least else 'differs'}")
    return raw, len(ops), failures


def run_probes(workload: Workload, env: dict, started: float) -> list[tuple[Op, str]]:
    """Runs each known-defect probe once, untimed; returns the wrong answers."""
    wrong = []
    for probe in workload.probes:
        child = spawn([sys.executable, "-m", "lucaslab.cli", *probe.op.argv], env,
                      RUN_DEADLINE_S - (time.perf_counter() - started))
        error = judge(probe.op, child)
        query = f"lucaslab {' '.join(probe.op.argv)}"
        if error is None:
            print(f"# known defect fixed: {query} now matches the oracle")
        elif child.code == probe.code:
            print(f"# known defect present: {query}: {error}, from {probe.why}")
        else:
            wrong.append((probe.op, error))
    return wrong


def environment() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                if line.startswith("model name")), "") if cpuinfo.exists() else ""
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = "absent"
    return (f"# env: machine={platform.machine()} cpu={cpu!r} "
            f"nproc={os.cpu_count()} os={platform.system()}-{platform.release()} "
            f"python={platform.python_version()} sympy={sympy}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "lucaslab" / "cli.py").is_file():
        print(f"error: no lucaslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.set_int_max_str_digits(0)  # only the oracles here need huge str(); children keep the limit
    env = child_env()
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    print(f"# bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} load=closed loop, 1 client")
    print(environment())

    if args.trace:
        raw, attempted, failures = traced(workload, rng, env, started)
        absent = [m["name"] for m in spec["per_layer"] if m["name"] not in raw]
        if absent:
            print(f"# trace: no such span in this code, reported as 0: {', '.join(absent)}")
        metrics = {m["name"]: (raw.get(m["name"], 0), m["unit"], "") for m in spec["per_layer"]}
    else:
        measured, attempted, failures = measure(workload, rng, args.seconds, env, started)
        metrics = {m["name"]: measured[m["name"]] for m in spec["end_to_end"]}
    wrong_probes = run_probes(workload, env, started)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    for op, error in failures + wrong_probes:
        print(f"# WRONG: lucaslab {' '.join(op.argv)}: {error}")
    print(f"# error_rate = {len(failures)}/{attempted} = {len(failures) / attempted!r}")
    print(json.dumps({
        "correct": not failures and not wrong_probes,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
