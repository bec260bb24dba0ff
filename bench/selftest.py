#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks, for every workload:

* the same seed gives the same op list, and another seed another one;
* no two ops of a run have equal inputs;
* a traced run and an untraced run of the same seed give identical op
  outputs (exact arithmetic makes a digest comparison valid);
* module self times add up to the traced wall time less the benchmark's
  own time, and the benchmark's own share is small;
* the tracer replaces a function in every module that binds it, and puts
  every original back afterwards.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_OWN_MAX_SHARE = 0.05
SECONDS = 1.0
SEED = 1
UNITS = 3  # units compared by check_seeding


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def op_list(workload, seed):
    _, _, units = run.setup(workload, seed)
    return [op.desc for unit in itertools.islice(units, UNITS) for op in unit]


def check_seeding(workload, seed):
    first = op_list(workload, seed)
    if first != op_list(workload, seed):
        fail(f"{workload}: seed {seed} gave two different op lists")
    if first == op_list(workload, seed + 1):
        fail(f"{workload}: seeds {seed} and {seed + 1} gave the same op list")
    if len(set(first)) != len(first):
        fail(f"{workload}: seed {seed} repeats an input within {UNITS} units")
    print(f"ok   {workload}: seed {seed} gives the same {len(first)} distinct ops twice")


def check_traced(workload, seed):
    plain, failures, metrics, tracer, wall = run.traced(workload, seed, SECONDS)
    if failures:
        fail(f"{workload}: {failures[0]}")
    layer_self = sum(self_s for _, self_s in tracer.layer_totals().values())
    if abs(layer_self - tracer.root_child_s) > 1e-6 * max(wall, 1.0):
        fail(f"{workload}: module self times {layer_self} != traced calls "
             f"{tracer.root_child_s}")
    own = wall - layer_self
    if not 0 <= own <= BENCH_OWN_MAX_SHARE * wall:
        fail(f"{workload}: benchmark's own time {own:.4f} s of {wall:.4f} s traced")
    print(f"ok   {workload}: {len(plain.digests)} ops give identical outputs traced "
          f"and untraced; module self times {layer_self:.4f} s + benchmark "
          f"{own:.4f} s = traced wall {wall:.4f} s")


def check_bindings():
    prog = run.load_program()
    originals = {layer: dict(vars(m)) for layer, m in prog.items()}
    matrix_rref = prog["linalg"].Matrix.rref
    tracer = Tracer(prog).install()
    try:
        shared = [("sspace", "solution_space", "linalg"),
                  ("differentiation", "_flat_constraints_for", "sspace"),
                  ("differentiation", "solution_space", "linalg")]
        for user, name, owner in shared:
            bound = getattr(prog[user], name)
            if bound is originals[user][name] or bound is not getattr(prog[owner], name):
                fail(f"{user}.{name} is not the tracer's wrapper of {owner}.{name}")
        if prog["linalg"].Matrix.rref is matrix_rref:
            fail("Matrix.rref was not wrapped")
    finally:
        tracer.uninstall()
    for layer, m in prog.items():
        if dict(vars(m)) != originals[layer]:
            fail(f"{layer}: uninstall left a wrapper behind")
    if prog["linalg"].Matrix.rref is not matrix_rref:
        fail("uninstall left Matrix.rref wrapped")
    print("ok   tracer wraps every binding of a shared function and restores them all")


def main():
    if not os.path.isfile(os.path.join(run.SRC, "posetrep", "__init__.py")):
        fail(f"no posetrep sources under {run.SRC}")
    check_bindings()
    for workload in WORKLOADS:
        check_seeding(workload, SEED)
        check_traced(workload, SEED)
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
