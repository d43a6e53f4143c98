#!/usr/bin/env python3
"""Benchmark gradekit's command line on one workload, or on all of them.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  The workload's inputs are generated from
the seed and written as spec files under bench/out/; every operation is
one in-process `gradekit.cli.run(argv)` call, gradekit imported from
src/.  Operations repeat round-robin over the whole list, whole passes
only, for about --seconds.  With --trace 0 the run reports the
end-to-end figures, with --trace 1 it makes one pass under cProfile and
reports the per-layer ones.  Afterwards every output is checked against
the oracles in bench/oracles.py.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the
same figures, with the seed, the CPU count and the Python version, go
to bench/out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import layers  # noqa: E402
from oracles import Mismatch  # noqa: E402
from workloads import WORKLOADS, Writer  # noqa: E402

SETUP_REPS = 5
MIN_PASSES = 2
# standard-library modules gradekit imports, loaded before set-up is
# timed so that every set-up repetition imports the same code
PRELOAD = ("argparse", "dataclasses", "fractions", "functools", "itertools",
           "math", "typing")


def import_gradekit():
    """Import gradekit.cli afresh from src/ and return the module."""
    for name in [m for m in sys.modules if m.split(".")[0] == "gradekit"]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("gradekit.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gradekit came from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, spec_dir: str):
    """Import gradekit and write the workload's inputs; timed as setup_s."""
    start = time.perf_counter()
    cli = import_gradekit()
    os.makedirs(spec_dir, exist_ok=True)
    ops = WORKLOADS[workload](random.Random(seed), Writer(spec_dir))
    return time.perf_counter() - start, cli, ops


def call(cli, op):
    """(seconds, (payload, code, stderr), exception or None) of one op."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            payload, code = cli.run(op.argv)
            exc = None
        except Exception as caught:  # an escape is a failed operation
            payload = code = None
            exc = caught
        seconds = time.perf_counter() - start
    return seconds, (payload, code, err.getvalue()), exc


def host_reference() -> float:
    """Seconds of a fixed Fraction and dict loop apart from gradekit.

    Timed once per pass and recorded beside the metrics, so that a run
    made while the host was slow can be told from a slower program.
    """
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(3000):
        x = Fraction(i % 7, 12) + Fraction(1, 3)
        acc += x * x
        seen[(i % 97, i % 13)] = acc.numerator % 5
    return time.perf_counter() - start


def _outcome(result, exc):
    if exc is not None:
        return ("escape", type(exc).__name__, str(exc))
    return result


def run_passes(cli, ops, seconds: float, tracer=None):
    """Round-robin passes over ops; returns per-op times, first outcomes,
    the exceptions, the host reference times and whether every
    repetition agreed."""
    times = [[] for _ in ops]
    host = []
    first, excs = [None] * len(ops), [None] * len(ops)
    steady = True
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        host.append(host_reference())
        for i, op in enumerate(ops):
            if tracer is None:
                dt, result, exc = call(cli, op)
            else:
                with tracer:
                    dt, result, exc = call(cli, op)
            times[i].append(dt)
            outcome = _outcome(result, exc)
            if passes == 0:
                first[i], excs[i] = outcome, exc
                if op.after is not None and exc is None:
                    op.after(result)
            elif outcome != first[i]:
                steady = False
        passes += 1
        now = time.perf_counter()
        if tracer is not None or (passes >= MIN_PASSES
                                  and now - start + (now - pass_start) > seconds):
            return times, first, excs, host, steady


def check_outputs(ops, first, excs) -> list:
    """Oracle verdicts: a list of (op name, problem) for wrong outputs."""
    results = {op.name: out for op, out in zip(ops, first)}
    problems = []
    for op, out, exc in zip(ops, first, excs):
        if exc is not None:
            if not op.escapes:
                problems.append((op.name, f"escaped: {out[1]}: {out[2]}"))
            continue
        try:
            op.check(out, results)
        except Mismatch as bad:
            problems.append((op.name, str(bad)))
        except Exception:  # an oracle that cannot read the output
            problems.append((op.name, traceback.format_exc(limit=3)))
    return problems


def handled_odd_g(ops, first, excs) -> int:
    """odd_g spec documents in operations the program accepted."""
    total = 0
    for op, out, exc in zip(ops, first, excs):
        if exc is None and isinstance(out[0], dict) and out[0].get("verdict") != "error":
            total += sum(doc.get("kind") == "odd_g" for doc in op.specs
                         if isinstance(doc, dict))
    return total


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    for name in PRELOAD:
        importlib.import_module(name)
    spec_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPS):
            elapsed, cli, ops = set_up(workload, seed, spec_dir)
            setups.append(elapsed)
        tracer = layers.Tracer() if trace else None
        try:
            times, first, excs, host, steady = run_passes(cli, ops, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = check_outputs(ops, first, excs)
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)
    if not steady:
        problems.append(("*", "an operation gave different outputs on repetition"))
    passes = len(host)
    minima = [min(t) for t in times]
    typical = [m for op, m in zip(ops, minima) if not op.hostile]
    if trace:
        metrics = tracer.metrics(handled_odd_g(ops, first, excs))
        metrics["trace.batch_s"] = (sum(minima), "s")
    else:
        metrics = {"batch_s": (sum(minima), "s"),
                   "op_p50_ms": (statistics.median(typical) * 1000, "ms"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    failed_ops = sum(exc is not None for exc in excs)
    return {
        "correct": not problems,
        "attempted": passes * len(ops),
        "failed": passes * failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "passes": passes,
        "host_ref_ms": min(host) * 1000,
        "ops": [{"name": op.name, "min_s": m, "reps": len(t),
                 "failed": exc is not None}
                for op, m, t, exc in zip(ops, minima, times, excs)],
    }


def report(workload: str, seed: int, trace: int, out: dict) -> None:
    for name, m in out["metrics"].items():
        print(f"{workload:12s} {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:12s} attempted {out['attempted']} failed {out['failed']} "
          f"passes {out['passes']} correct {out['correct']} "
          f"host reference {out['host_ref_ms']:.3f} ms")
    for name, problem in out["problems"]:
        print(f"{workload:12s} WRONG {name}: {problem}")
    os.makedirs(OUT, exist_ok=True)
    record = dict(out, workload=workload, seed=seed, trace=trace,
                  nproc=os.cpu_count(), python=platform.python_version())
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def run_all(args) -> int:
    """Each workload in a process of its own, then one summary line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        out = json.loads(lines[-1])
        merged["correct"] &= out["correct"]
        merged["attempted"] += out["attempted"]
        merged["failed"] += out["failed"]
        for name, m in out["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, args.trace, out)
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
