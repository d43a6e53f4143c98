#!/usr/bin/env python3
"""Share of repeated (t_abs, s_abs) products among verify_grading's pairs.

    python3 bench/product_share.py --seed 1

verify_grading multiplies X_t X_s for every pair of basis elements whose
blocks chain, but the product depends only on (t_abs, s_abs).  For each
workload this runs the operation list once, with verify_grading wrapped
to count the pairs of every model it checks and the distinct
(t_abs, s_abs) among them, and prints the repeated share, the property
a per-model product table would exploit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run
from workloads import WORKLOADS


def pair_counts(model) -> tuple:
    """(pairs, distinct (t_abs, s_abs)) over the pairs verify_grading forms."""
    by_row: dict = {}
    for b in model.basis:
        by_row.setdefault(b.i, []).append(b.t_abs)
    pairs, distinct = 0, set()
    for x in model.basis:
        row = by_row.get(x.j, ())
        pairs += len(row)
        distinct.update((x.t_abs, t) for t in row)
    return pairs, len(distinct)


def measure(workload: str, seed: int) -> tuple:
    spec_dir = os.path.join(run.OUT, f"products-{workload}-{seed}-{os.getpid()}")
    try:
        _, cli, ops = run.set_up(workload, seed, spec_dir)
        original = cli.verify_grading
        totals = [0, 0, 0]

        def counted(model):
            pairs, distinct = pair_counts(model)
            totals[0] += 1
            totals[1] += pairs
            totals[2] += distinct
            return original(model)

        cli.verify_grading = counted
        try:
            for op in ops:
                _, result, exc = run.call(cli, op)
                if op.after is not None and exc is None:
                    op.after(result)
        finally:
            cli.verify_grading = original
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)
    return tuple(totals)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for workload in WORKLOADS:
        models, pairs, distinct = measure(workload, args.seed)
        share = 1 - distinct / pairs if pairs else 0.0
        print(f"{workload:12s} models {models:4d} pairs {pairs:8d} "
              f"distinct {distinct:7d} repeated share {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
