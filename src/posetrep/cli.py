"""Command-line surface.

Exit codes: 0 success, 1 domain error (the error class name is printed
verbatim), 2 usage error (argparse).  verify, the one randomized
subcommand, takes --seed and defaults to the fixed suite seed so runs
are reproducible.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import sys

from . import fileio
from .differentiation import derive_poset, diff_space, nu_count, serialize_trace
from .errors import PosetRepError, WriteError
from .functors import coinduce, induce, restrict
from .oracle import EnumConfig, cross_check_nu, enumerate_indecomposables
from .sspace import dualize, e_quot, e_sub, hom_space
from .verify import DEFAULT_SEED, REGISTRY, run_suite


def _int_at_least(low: int):
    """argparse type for an integer option that must be >= low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its messages
    return parse


def _check_names(text):
    """argparse type for --only: a comma-separated list of known checks."""
    names = set(text.split(","))
    unknown = sorted(names - {name for name, _ in REGISTRY})
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown check {', '.join(map(repr, unknown))}")
    return names


def _load_any(path: str):
    if path.endswith(".ssp"):
        return fileio.load_sspace(path)
    return fileio.load_poset(path)


def cmd_check(args) -> int:
    obj = _load_any(args.path)
    if hasattr(obj, "assign"):  # load_sspace has already checked monotonicity
        print(f"ok: S-space over {len(obj.poset)} elements, "
              f"field {obj.field}, ambient dim {obj.dim}")
    else:
        print(f"ok: poset with {len(obj)} elements, width {obj.width()}")
    return 0


def cmd_dot(args) -> int:
    sys.stdout.write(fileio.load_poset(args.path).to_dot())
    return 0


def cmd_derive(args) -> int:
    p = fileio.load_poset(args.path)
    derived = derive_poset(p, args.point, args.mode)
    text = fileio.format_poset(derived.result)
    sys.stdout.write(text)
    if args.emit:
        fileio.save_poset(derived.result, args.emit)
    return 0


def cmd_diff(args) -> int:
    v = fileio.load_sspace(args.path)
    derived = derive_poset(v.poset, args.point, args.mode)
    image = diff_space(v, args.point, args.mode, derived)
    fileio.save_sspace(image, args.out)
    dims = " ".join(f"{s}:{image.sub(s).dim}" for s in image.poset.elements)
    print(f"wrote {args.out} (ambient {image.dim}; {dims})")
    return 0


def cmd_hom(args) -> int:
    u = fileio.load_sspace(args.source)
    v = fileio.load_sspace(args.target)
    hom = hom_space(u, v)
    print(f"dim {hom.dim}")
    for k, f in enumerate(hom.basis):
        print(f"basis {k}: {fileio.format_rows(f.mat.rows)}")
    return 0


def cmd_apply(args) -> int:
    v = fileio.load_sspace(args.path)
    name = args.functor
    if name == "res":
        if not args.elements:
            raise PosetRepError("res needs --elements")
        out = restrict(v, args.elements.split(","))
    elif name in ("ind", "coind"):
        if not args.poset:
            raise PosetRepError(f"{name} needs --poset")
        target = fileio.load_poset(args.poset)
        out = induce(v, target) if name == "ind" else coinduce(v, target)
    elif name == "dual":
        out = dualize(v)
    elif name in ("Ep", "E^p"):
        if not args.point:
            raise PosetRepError(f"{name} needs --point")
        out = (e_quot if name == "Ep" else e_sub)(v, args.point)[0]
    else:
        raise PosetRepError(f"unknown functor {name!r}")
    if args.out:
        fileio.save_sspace(out, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(fileio.format_sspace(out, "<unsaved>.poset"))
    return 0


def cmd_nu(args) -> int:
    p = fileio.load_poset(args.path)
    trace = nu_count(p, strategy=args.strategy, depth_limit=args.depth_limit)
    if args.trace:
        sys.stdout.write(serialize_trace(trace))
    else:
        print(f"nu={trace.value_label()}")
    return 0


def cmd_oracle(args) -> int:
    p = fileio.load_poset(args.path)
    if args.reps and os.path.isdir(args.reps):  # no mix with an earlier run's files
        names = os.listdir(args.reps)
        if "base.poset" in names or fnmatch.filter(names, "indec*.ssp"):
            raise WriteError(f"{args.reps!r} already holds the representatives of "
                             "an earlier run; give an empty or new directory")
    cfg = EnumConfig(p, q=args.field, max_dim=args.maxdim, force=args.force)
    if args.cross_check:
        report = cross_check_nu(p, cfg)
        census = report.census
        print(report.text())
    else:
        census = enumerate_indecomposables(cfg)
        print(census.table())
    if args.reps:
        try:
            os.makedirs(args.reps, exist_ok=True)
        except OSError as exc:
            raise WriteError(f"cannot create {args.reps!r}: {exc.strerror or exc}") from None
        poset_path = os.path.join(args.reps, "base.poset")
        fileio.save_poset(p, poset_path)
        reps = [rep for d in census.per_dim for rep in d.reps]
        for k, rep in enumerate(reps):
            fileio.save_sspace(rep, os.path.join(args.reps, f"indec{k:03d}.ssp"), poset_path)
        print(f"wrote {len(reps)} representatives to {args.reps}")
    return 0


def cmd_verify(args) -> int:
    results = run_suite(seed=args.seed, cases=args.cases, names=args.only)
    bad = 0
    for r in results:
        print(r.line())
        for f in r.failures[:5]:
            print(f"    {f}")
        bad += len(r.failures)
    print(f"{'FAILURES: %d' % bad if bad else 'all checks passed'}")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="posetrep",
        description="representations of finite posets: derivation, "
                    "differentiation, counting, and verification")
    sub = ap.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("check", help="validate a .poset or .ssp file")
    c.add_argument("path")
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("dot", help="print the Hasse diagram as Graphviz DOT")
    c.add_argument("path")
    c.set_defaults(fn=cmd_dot)

    c = sub.add_parser("derive", help="derived poset at a point")
    c.add_argument("path")
    c.add_argument("--point", required=True)
    c.add_argument("--mode", choices=["filter", "ideal"], required=True)
    c.add_argument("--emit", help="write the derived poset to this file")
    c.set_defaults(fn=cmd_derive)

    c = sub.add_parser("diff", help="differentiate an S-space at a point")
    c.add_argument("path")
    c.add_argument("--point", required=True)
    c.add_argument("--mode", choices=["filter", "ideal"], required=True)
    c.add_argument("--out", required=True, help="output .ssp (a .poset is written next to it)")
    c.set_defaults(fn=cmd_diff)

    c = sub.add_parser("hom", help="basis of the morphism space between two S-spaces")
    c.add_argument("source")
    c.add_argument("target")
    c.set_defaults(fn=cmd_hom)

    c = sub.add_parser("apply", help="apply a functor to an S-space")
    c.add_argument("path")
    c.add_argument("--functor", required=True,
                   choices=["res", "ind", "coind", "dual", "Ep", "E^p"])
    c.add_argument("--elements", help="comma-separated labels (res)")
    c.add_argument("--poset", help="target .poset (ind/coind)")
    c.add_argument("--point", help="point (Ep/E^p)")
    c.add_argument("--out", help="output .ssp")
    c.set_defaults(fn=cmd_apply)

    c = sub.add_parser("nu", help="count indecomposables by iterated differentiation")
    c.add_argument("path")
    c.add_argument("--strategy", choices=["first", "all-paths"], default="first")
    c.add_argument("--trace", action="store_true")
    c.add_argument("--depth-limit", type=_int_at_least(0), default=64)
    c.set_defaults(fn=cmd_nu)

    c = sub.add_parser("oracle", help="exhaustive census over a small prime field")
    c.add_argument("path")
    c.add_argument("--field", type=int, default=2)
    c.add_argument("--maxdim", type=_int_at_least(1), default=2)
    c.add_argument("--force", action="store_true", help="override the guardrails")
    c.add_argument("--reps", help="directory for representative .ssp files")
    c.add_argument("--cross-check", action="store_true",
                   help="compare the census against the recursion")
    c.set_defaults(fn=cmd_oracle)

    c = sub.add_parser("verify", help="run the invariant suite")
    c.add_argument("--seed", type=int, default=DEFAULT_SEED)
    c.add_argument("--cases", type=_int_at_least(1), default=60)
    c.add_argument("--only", type=_check_names, help="comma-separated check names")
    c.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PosetRepError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
