#!/usr/bin/env python3
"""posetrep benchmark.

    python3 bench/run.py --workload {identities,census,nu,wide} --seed N
                         --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
One process, one closed-loop client, no extra threads: each op starts when
the previous one and its output check have finished.  Ops come in units of
a fixed mix (see workloads.py), and a run stops at the unit boundary
nearest ``--seconds`` of timed op time, after at least ``MIN_OPS`` ops.
Set-up imports the program and makes the units of the first ``MIN_OPS``
ops; later units are made between ops, as the run needs them.  Output
checks and the making of later units run outside the timed spans.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
ops twice, first untraced and then under the outside-in tracer, checks
that both give identical outputs, reports the per-layer metrics and writes
the kept spans to ``.bench_out/``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from speed import Gauge  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fileio and cli only parse files of a few lines and are not measured.
LAYERS = ["poset", "linalg", "sspace", "functors", "differentiation", "oracle",
          "verify", "randgen"]
# Set-up is repeated at least SETUP_REPEATS times and until the repeats
# add up to SETUP_MIN_S at reference speed; setup_s is their median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
MIN_OPS = 100
SLICE_S = 0.05  # op time between two gauge samples
TRACE_UNTRACED_SHARE = 1 / 5  # of --seconds, for the untraced half of a traced run
# Scalar arithmetic and the label-to-index lookup are leaves called millions
# of times; wrapping them would multiply the tracing overhead, so their time
# counts in the span of whoever calls them.
UNTRACED = {"linalg.Field", "poset.Poset._i"}

clock = time.perf_counter


def load_program():
    """Import posetrep afresh from src/, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "posetrep" or m.startswith("posetrep.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return {layer: importlib.import_module(f"posetrep.{layer}") for layer in LAYERS}


def make_units(prog, workload, seed, gauge):
    """The workload's units, with those of the first MIN_OPS ops (the
    shortest run allowed) already made.

    Returns (seconds at reference speed, units).  The gauge is sampled
    after each unit, as it is after each slice of ops: two samples around
    a whole set-up are too few to follow the speed of the machine.
    """
    units = WORKLOADS[workload](prog, seed)
    first, took = [], 0.0
    while sum(map(len, first)) < MIN_OPS:
        start = clock()
        first.append(next(units))
        took += (clock() - start) * gauge.scale()
    return took, itertools.chain(first, units)


def setup(workload, seed):
    """Import the program and make the units of the first MIN_OPS ops.

    Returns (seconds at reference speed, modules, units), where ``units``
    iterates over every unit of the run, those already made included.
    """
    gauge = Gauge()
    start = clock()
    prog = load_program()
    took = (clock() - start) * gauge.scale()
    made, units = make_units(prog, workload, seed, gauge)
    return took + made, prog, units


class Runner:
    """Runs ops, times each one, and checks its output outside the timing.

    ``raw`` holds the measured latencies; ``latencies`` the same rescaled to
    reference speed by the gauge (see speed.py), which is sampled after
    every slice of at least ``SLICE_S`` seconds of op time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.raw = []
        self.latencies = []
        self.digests = []
        self.failures = []
        self.gauge = Gauge()
        self.slice_start = 0

    def run_op(self, op, check=True):
        if self.tracer:
            self.tracer.on = True
        start = clock()
        try:
            out = op.run()
            err = None
        except Exception as exc:  # an op that raises counts as failed
            out, err = None, f"{op.kind} raised {type(exc).__name__}: {exc}"
        self.raw.append(clock() - start)
        if self.tracer:
            self.tracer.on = False
        if sum(self.raw[self.slice_start:]) >= SLICE_S:
            self.close_slice()
        digest = None
        if err is None:
            digest = op.digest(out)
            if check:
                err = op.check(out)
        self.digests.append(digest)
        if err is not None:
            self.failures.append(err)

    def close_slice(self):
        if self.slice_start < len(self.raw):
            scale = self.gauge.scale()
            self.latencies += [t * scale for t in self.raw[self.slice_start:]]
            self.slice_start = len(self.raw)

    def run_units(self, units, seconds, min_ops=MIN_OPS):
        """Whole units until the measured total is nearest to `seconds`."""
        for done, unit in enumerate(units, 1):
            for op in unit:
                self.run_op(op)
            timed = sum(self.raw)
            if timed + timed / done / 2 >= seconds and len(self.raw) >= min_ops:
                self.close_slice()
                return


def percentile(values, q):
    """The q-th percentile, by the exclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="exclusive")[q - 1]


def end_to_end(workload, seed, seconds):
    setups, units = [], None
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        units = None  # drop the previous set-up, so that peak_rss_mb holds one
        gc.collect()
        setup_s, _, units = setup(workload, seed)
        setups.append(setup_s)
    gc.collect()
    runner = Runner()
    runner.run_units(units, seconds)
    lat = runner.latencies
    attempted, failed = len(lat), len(runner.failures)
    metrics = {
        "ops_per_s": (attempted - failed) / sum(lat),
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p90_ms": percentile(lat, 90) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    units_of = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
    print(f"{workload} seed {seed}: {attempted} ops over {sum(runner.raw):.3f} s measured, "
          f"{sum(lat):.3f} s at reference speed, {failed} failed; {len(setups)} set-ups "
          f"at reference speed, {min(setups):.4f} to {max(setups):.4f} s")
    return runner, {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()}


# ---------------------------------------------------------------------------
# traced run


def layer_observers(counts):
    """Counters recorded at the wrapped call boundaries."""

    def add(key, n=1):
        counts[key] = counts.get(key, 0) + n

    def field_tag(field):
        return "q" if field.p is None else "fp"

    def rref_core(args, kwargs, result, own):
        tag = field_tag(args[0])
        add(f"linalg.rref.calls.{tag}")
        add(f"linalg.rref.self_s.{tag}", own)

    def cells(shape):
        def observe(args, kwargs, result, own):
            m = args[0]
            n = shape(m)
            if n is not None:
                add(f"linalg.rref.cells.{field_tag(m.field)}", n)
        return observe

    def hom(args, kwargs, result, own):
        add("sspace.hom.unknowns", args[0].dim * args[1].dim)
        add("sspace.hom.basis", result.dim)

    def iso(args, kwargs, result, own):
        add("sspace.iso.undecided", result.status == "undecided")

    def idempotent(args, kwargs, result, own):
        end = args[0]
        add("sspace.idempotent.space", end.field.p ** end.dim)

    def nu(args, kwargs, result, own):
        add("differentiation.nu.steps", len(result.steps))
        add("differentiation.nu.unfinished", result.status != "ok")

    def census(args, kwargs, result, own):
        add("oracle.classes", sum(d.n_classes for d in result.per_dim))
        add("oracle.indecomposable", result.total_indecomposable)
        add("oracle.undecided", result.total_undecided)
        add("oracle.sampled", result.sampled)

    return {
        # Every elimination goes through _rref, called only by Matrix.rref,
        # Matrix.null_rows (on the transpose) and Matrix.inverse (on [M | I]).
        "linalg._rref": rref_core,
        "linalg.Matrix.rref": cells(lambda m: m.nrows * m.ncols),
        "linalg.Matrix.null_rows": cells(lambda m: m.ncols * m.nrows),
        "linalg.Matrix.inverse": cells(
            lambda m: m.nrows * 2 * m.ncols if m.nrows == m.ncols else None),
        "poset.Poset.antichains": lambda a, k, r, own: add("poset.antichains.out", len(r)),
        "sspace.hom_space": hom,
        "sspace.are_isomorphic": iso,
        "sspace.find_idempotent": idempotent,
        "differentiation.nu_count": nu,
        "oracle.enumerate_indecomposables": census,
    }


# (metric, wrapped function) pairs whose metric is the function's call count
CALL_COUNTS = [
    ("linalg.matrix.built", "linalg.Matrix.__init__"),
    ("linalg.mul.calls", "linalg.Matrix.__mul__"),
    ("linalg.intersect.calls", "linalg.Subspace.intersect"),
    ("poset.leq.calls", "poset.Poset.leq"),
    ("poset.eq.calls", "poset.Poset.__eq__"),
    ("poset.antichains.calls", "poset.Poset.antichains"),
    ("poset.width.calls", "poset.Poset.width"),
    ("poset.build.calls", "poset.Poset.build"),
    ("poset.restrict.calls", "poset.Poset.restrict"),
    ("poset.carrier.calls", "poset.derived_carrier"),
    ("sspace.hom.calls", "sspace.hom_space"),
    ("sspace.iso.calls", "sspace.are_isomorphic"),
    ("sspace.idempotent.calls", "sspace.find_idempotent"),
    ("sspace.minimal.calls", "sspace.is_right_minimal"),
    ("functors.induce.calls", "functors.induce"),
    ("functors.coinduce.calls", "functors.coinduce"),
    ("functors.cover.calls", "functors.projective_cover"),
    ("functors.semisimple.calls", "functors.semisimple_decompose"),
    ("differentiation.derive.calls", "differentiation.derive_poset"),
    ("differentiation.diff.calls", "differentiation.diff_space"),
    ("differentiation.nu.calls", "differentiation.nu_count"),
    ("oracle.census.calls", "oracle.enumerate_indecomposables"),
]
OBSERVED = ["linalg.rref.calls.q", "linalg.rref.calls.fp", "linalg.rref.cells.q",
            "linalg.rref.cells.fp", "linalg.rref.self_s.q", "linalg.rref.self_s.fp",
            "poset.antichains.out", "sspace.hom.unknowns", "sspace.hom.basis",
            "sspace.iso.undecided", "sspace.idempotent.space",
            "differentiation.nu.steps", "differentiation.nu.unfinished",
            "oracle.classes", "oracle.indecomposable", "oracle.undecided",
            "oracle.sampled"]


def unit_of(name):
    if name.endswith((".self_s", ".s")) or ".self_s." in name:
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    if ".cells." in name:
        return "cells"
    return "count"


def traced(workload, seed, seconds):
    """Untraced ops, then the same ops traced; per-layer metrics.

    The traced set-up only yields ``verify.all_posets.s``; every other
    per-layer metric covers the traced ops alone.
    """
    _, prog, units = setup(workload, seed)
    gc.collect()
    plain = Runner()
    plain.run_units(units, seconds * TRACE_UNTRACED_SHARE, min_ops=1)
    n_ops = len(plain.latencies)

    counts = {}
    tracer = Tracer(prog, layer_observers(counts), skip=UNTRACED)
    tracer.install()
    try:
        setup_s, units = make_units(prog, workload, seed, Gauge())  # traced set-up
        all_posets_s = tracer.by_name("verify.all_posets_up_to")[2]
        tracer.reset()
        counts.clear()
        tracer.on = False
        traced_run = Runner(tracer)
        for op in itertools.islice(itertools.chain.from_iterable(units), n_ops):
            traced_run.run_op(op, check=False)
        traced_run.close_slice()
    finally:
        tracer.uninstall()
    wall = sum(traced_run.raw)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json"), wall)

    failures = list(plain.failures)
    if traced_run.digests != plain.digests:
        failures.append("traced and untraced runs gave different outputs")
    metrics = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / wall
    for metric, fn in CALL_COUNTS:
        metrics[metric] = tracer.by_name(fn)[0]
    for metric in OBSERVED:
        metrics[metric] = counts.get(metric, 0)
    classes = metrics["oracle.classes"]
    metrics["oracle.indecomposable_ratio"] = (metrics["oracle.indecomposable"] / classes
                                              if classes else 0.0)
    verify = prog["verify"]
    for name, fn in verify.REGISTRY:
        if name != "simples-census":
            metrics[f"verify.{name}.s"] = tracer.by_name(f"verify.{fn.__name__}")[2]
    metrics["verify.all_posets.s"] = all_posets_s
    metrics["trace.overhead_ratio"] = sum(traced_run.latencies) / sum(plain.latencies)
    bench_own = wall - tracer.root_child_s
    print(f"{workload} seed {seed}: {n_ops} ops untraced {sum(plain.raw):.3f} s, "
          f"traced {wall:.3f} s, benchmark's own {bench_own:.4f} s; traced set-up "
          f"{setup_s:.3f} s at reference speed (not in the layer totals); "
          f"{tracer.n_spans} spans, "
          f"{len(tracer.spans)} kept")
    report = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    return plain, failures, report, tracer, wall


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "posetrep", "__init__.py")):
        print(f"bench: no posetrep sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        runner, failures, metrics, _, _ = traced(args.workload, args.seed, args.seconds)
    else:
        runner, metrics = end_to_end(args.workload, args.seed, args.seconds)
        failures = runner.failures
    for msg in failures[:5]:
        print(f"FAIL {msg}", file=sys.stderr)
    attempted = len(runner.latencies)
    result = {"correct": not failures, "attempted": attempted,
              "failed": min(len(failures), attempted), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
