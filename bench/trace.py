"""Traced in-process run of lucaslab CLI invocations.

Usage: python3 bench/trace.py '<JSON list of argv lists>'   (PYTHONPATH=src)

Imports sympy and then lucaslab.cli (timing each), runs every argv through
``lucaslab.cli.main`` once untraced, then wraps each layer's public
functions and runs them all again traced. It prints one JSON object with the
traced runs' exit codes and stdout, whether they match the untraced runs, and
the per-layer numbers.

Layers are the lucaslab modules plus ``deps.sympy``. A span's busy time is
inclusive; its self time is busy time minus the spans of other layers nested
in it. Layer self time (``layer.<name>.self_s``) gives every instant to the
innermost span, so the layers' self times add up to the time spent inside
``cli.main``. Every count is derived from a wrapped call's arguments and
return value.

Which end-to-end metric each layer should move, and on which workload:

    core, divisibility, identities, verify  items_per_ref              verify-default
    modular (period)                        items_per_ref              wss-scan
    modular (orbit walks), atlas            items_per_ref, peak_rss_mb atlas-block
    modular (term_mod)                      items_per_ref              verify-default
    cli, deps.sympy (imports)               setup_s, latency_p50_ref   cli-cold
"""
from __future__ import annotations

import builtins
import contextlib
import functools
import inspect
import io
import json
import sys
import time
import types

MODULES = ("core", "modular", "divisibility", "identities", "atlas", "verify", "cli")
PRIVATE_SPANS = {"modular": ("_pair_orbit",)}
SYMPY_NAMES = ("isprime", "factorint", "primerange")


class Tracer:
    """Span bookkeeping shared by every wrapper."""

    def __init__(self) -> None:
        self.stack: list[list] = []          # frames: [layer, other-layer time, child time]
        self.stats: dict[str, list] = {}     # span key -> [calls, busy, self]
        self.layer_self: dict[str, list] = {}
        self.root_busy = [0.0]
        self.counts: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, key: str, layer: str, post=None):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        lay = self.layer_self.setdefault(layer, [0.0])
        stack, root_busy, clock = self.stack, self.root_busy, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if type(result) is types.GeneratorType:
                    # Consume inside the span, so the work is timed here.
                    result = list(result)
                    consumed = True
                else:
                    consumed = False
            finally:
                busy = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += busy
                stat[2] += busy - frame[1]
                lay[0] += busy - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += busy
                    parent[1] += frame[1] if parent[0] == layer else busy
                else:
                    root_busy[0] += busy
            if post is not None:
                post(args, kwargs, result)
            return iter(result) if consumed else result

        return wrapper


def _counters(tracer: Tracer) -> dict:
    """Per-function hooks deriving work counts from arguments and results."""
    add = tracer.add
    for name in ("core.term_pair.bits_out", "divisibility.power_divisibility_check.skipped",
                 "modular.orbit_states", "atlas.atlas_rows.error_rows"):
        add(name, 0)

    def term_pair(args, kwargs, res):
        add("core.term_pair.bits_out", res[0].bit_length() + res[1].bit_length())

    def power_div(args, kwargs, res):
        # getattr: the skip list is slated for removal once the check goes modular.
        add("divisibility.power_divisibility_check.skipped", len(getattr(res, "skipped", ())))
        if not getattr(res, "degenerate", ()):
            k_max = kwargs.get("k_max", args[2] if len(args) > 2 else 0)
            add("divisibility.power_divisibility_check.k_attempted", k_max)

    def period(args, kwargs, res):
        add("modular.orbit_states", res)

    def pair_orbit(args, kwargs, res):
        add("modular.orbit_states", res[0] + res[1])

    def atlas_rows(args, kwargs, rows):
        add("atlas.atlas_rows.error_rows", sum(r.error is not None for r in rows))

    return {"core.term_pair": term_pair,
            "divisibility.power_divisibility_check": power_div,
            "modular.period": period,
            "modular._pair_orbit": pair_orbit,
            "atlas.atlas_rows": atlas_rows}


def install(tracer: Tracer) -> None:
    """Wrap every public function and rebind each lucaslab global naming it."""
    modules = {name: sys.modules[f"lucaslab.{name}"] for name in MODULES
               if f"lucaslab.{name}" in sys.modules}
    hooks = _counters(tracer)
    wrapped: dict[int, object] = {}
    for name, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in PRIVATE_SPANS.get(name, ()))):
                key = f"{name}.{attr}"
                wrapped[id(obj)] = tracer.wrap(obj, key, name, hooks.get(key))
    verify = modules["verify"]
    for suite, fn in verify.SUITES.items():
        wrapped[id(fn)] = tracer.wrap(fn, f"verify.suite.{suite}", "verify")
    sympy = sys.modules.get("sympy")
    for name in SYMPY_NAMES if sympy else ():
        fn = getattr(sympy, name)
        wrapped[id(fn)] = tracer.wrap(fn, f"deps.sympy.{name}", "deps.sympy")

    for modname, mod in list(sys.modules.items()):
        if modname != "lucaslab" and not modname.startswith("lucaslab."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for k, v in obj.items():
                    if id(v) in wrapped:
                        obj[k] = wrapped[id(v)]


def run_all(cli, argvs: list[list[str]]) -> tuple[list[list], float]:
    """Run each argv through cli.main; returns [[exit code, stdout], ...] and wall time."""
    outputs = []
    t0 = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 2
        outputs.append([code, out.getvalue()])
    return outputs, time.perf_counter() - t0


def layer_metrics(tracer: Tracer, imports: dict, wall: float, untraced: float) -> dict:
    metrics = dict(imports)
    for key, (calls, busy, self_t) in tracer.stats.items():
        metrics[f"{key}.calls"] = calls
        metrics[f"{key}.busy_s"] = busy
        metrics[f"{key}.self_s"] = self_t
    for layer, (self_t,) in tracer.layer_self.items():
        metrics[f"layer.{layer}.self_s"] = self_t
    metrics.update(tracer.counts)
    attempted = metrics.pop("divisibility.power_divisibility_check.k_attempted", 0)
    skipped = metrics.get("divisibility.power_divisibility_check.skipped", 0)
    metrics["divisibility.power_divisibility_check.useful_ratio"] = (
        (attempted - skipped) / attempted if attempted else 0.0)
    metrics["trace.overhead"] = wall / untraced
    metrics["trace.wall_s"] = wall
    metrics["trace.spans_s"] = tracer.root_busy[0]
    return metrics


def import_cli():
    """Import lucaslab.cli; returns it, the total time and the part sympy's import took."""
    real_import, sympy_s = builtins.__import__, [0.0]

    def timed(name, *args, **kwargs):
        if name.partition(".")[0] != "sympy" or "sympy" in sys.modules:
            return real_import(name, *args, **kwargs)
        t = time.perf_counter()
        try:
            return real_import(name, *args, **kwargs)
        finally:
            sympy_s[0] += time.perf_counter() - t

    builtins.__import__ = timed
    try:
        t0 = time.perf_counter()
        import lucaslab.cli as cli
        total = time.perf_counter() - t0
    finally:
        builtins.__import__ = real_import
    return cli, total, sympy_s[0]


def main(argv: list[str]) -> int:
    argvs = json.loads(argv[0])
    cli, total, sympy_s = import_cli()
    imports = {"deps.sympy.import_s": sympy_s, "cli.import_s": total - sympy_s}

    untraced_out, untraced = run_all(cli, argvs)
    tracer = Tracer()
    install(tracer)
    traced_out, wall = run_all(cli, argvs)

    layer_sum = sum(v[0] for v in tracer.layer_self.values())
    if abs(layer_sum - tracer.root_busy[0]) > 1e-6 * max(1.0, layer_sum):
        print(f"layer self times add to {layer_sum} s, spans to {tracer.root_busy[0]} s",
              file=sys.stderr)
        return 1
    json.dump({"outputs": traced_out,
               "matches_untraced": [a == b for a, b in zip(traced_out, untraced_out)],
               "metrics": layer_metrics(tracer, imports, wall, untraced)}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
