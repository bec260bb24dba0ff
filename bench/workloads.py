"""The four benchmark workloads.

Each workload turns a seed into an endless stream of *units*; a unit is a
short list of ops whose mix is the same in every unit, so that a run which
stops at a unit boundary always measures the same mix whatever its length.
No two ops of a stream have equal inputs: every poset an op receives is
built afresh with its own label suffix (see ``relabel``), and the random
instances of ``identities`` and ``wide`` are drawn anew for every op.  A
cache across calls therefore gains nothing from repeated inputs that a
single ``posetrep verify`` pass would not see.  Every op is
``Op(kind, desc, run, check, digest)``:

* ``desc`` describes the op's input, so that two builds can be compared;
* ``run()`` is the timed call into posetrep;
* ``check(result)`` returns None when the output is right, or a message;
* ``digest(result)`` is an exact rendering of the output (everything in
  posetrep is canonical, so equal outputs render equally).

A builder receives the freshly imported program modules (layer name ->
module) and makes every input through them; the benchmark's own code only
draws seeds and picks among the results.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Callable, NamedTuple


class Op(NamedTuple):
    kind: str
    desc: str
    run: Callable
    check: Callable
    digest: Callable


def _sha(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _poset_desc(p) -> str:
    return f"{list(p.elements)}{p.covers()}"


def _space_desc(v) -> str:
    subs = ";".join(f"{s}:{v.sub(s).mat.rows}" for s in v.poset.elements)
    return f"{v.field}|{v.dim}|{_poset_desc(v.poset)}|{subs}"


def chain_sum(prog, lengths, tag):
    """Disjoint union of chains of the given lengths, built by the program."""
    elements, relations = [], []
    for c, n in enumerate(lengths):
        names = [f"{chr(ord('a') + c)}{k}.{tag}" for k in range(n)]
        elements += names
        relations += list(zip(names, names[1:]))
    return prog["poset"].Poset.build(elements, relations)


def relabel(prog, p, tag):
    """A copy of ``p`` whose labels carry the suffix ``.tag``.

    The suffix keeps the order of the labels, so the copy costs the program
    the same work as ``p``, but it is a different input by equality.
    """
    def name(x):
        return f"{x}.{tag}"

    return prog["poset"].Poset.build([name(x) for x in p.elements],
                                     [(name(a), name(b)) for a, b in p.covers()])


# ---------------------------------------------------------------------------
# identities: the `posetrep verify` load, one check at cases=2 per op

IDENTITY_CASES = 2


def build_identities(prog, seed):
    verify = prog["verify"]
    names = [(name, fn.__name__) for name, fn in verify.REGISTRY
             if name != "simples-census"]
    rng = random.Random(seed)
    while True:
        order = names[:]
        rng.shuffle(order)
        yield [_identity_op(verify, name, fn_name, rng.randrange(1 << 32))
               for name, fn_name in order]


def _identity_op(verify, name, fn_name, op_seed):
    def run():
        # Looked up at call time, so the tracer's wrapper is the one called.
        return getattr(verify, fn_name)(random.Random(op_seed), IDENTITY_CASES)

    def check(out):
        return None if out.ok else f"{name} seed {op_seed}: {out.failures[:1]}"

    def digest(out):
        return _sha(f"{out.name}|{out.cases}|{out.failures}")

    return Op(f"verify:{name}", f"{name}@{op_seed}", run, check, digest)


# ---------------------------------------------------------------------------
# census: the exhaustive F_2 oracle

CROSS_CHECK_SUMS = [(1, 1, 1), (1, 1, 2), (1, 2), (2, 2)]


def build_census(prog, seed):
    """Every unit holds the same 48 ops on freshly labelled posets.  The
    empty poset is left out: it has no labels to make it a new input."""
    oracle, verify = prog["oracle"], prog["verify"]
    posets = [q for q in verify.all_posets_up_to(5) if 0 < len(q) and q.width() <= 2]
    rng = random.Random(seed)
    for tag in itertools.count():
        unit = [_census_op(oracle, relabel(prog, q, tag)) for q in posets]
        unit += [_cross_check_op(prog, lengths, chain_sum(prog, lengths, tag))
                 for lengths in CROSS_CHECK_SUMS]
        unit.append(_dim4_op(prog, chain_sum(prog, (2,), tag)))
        rng.shuffle(unit)
        yield unit


def _census_digest(census):
    return _sha(f"{census.sampled}|" + ";".join(
        f"{d.dim},{d.n_classes},{d.n_indecomposable},{d.n_undecided}"
        for d in census.per_dim))


def _census_op(oracle, q):
    cfg = oracle.EnumConfig(q, 2, 2)
    expected_dim1 = len(q.antichains())

    def run():
        return oracle.enumerate_indecomposables(cfg)

    def check(census):
        got = [d.n_indecomposable for d in census.per_dim]
        if got != [expected_dim1, 0]:
            return f"census of {_poset_desc(q)}: {got}, expected [{expected_dim1}, 0]"
        return None

    return Op("census:width2", f"census {_poset_desc(q)}", run, check, _census_digest)


def _cross_check_op(prog, lengths, p):
    oracle = prog["oracle"]
    cfg = oracle.EnumConfig(p, 2, 3)

    def run():
        return oracle.cross_check_nu(p, cfg)

    def check(report):
        if not report.complete or report.oracle_total != report.nu_value:
            return (f"cross-check {lengths}: oracle {report.oracle_total}, "
                    f"nu {report.nu_value}, complete {report.complete}")
        return None

    def digest(report):
        return _sha(f"{report.nu_status}|{report.nu_value}|{report.oracle_total}|"
                    f"{report.complete}|{report.note}|{_census_digest(report.census)}")

    return Op("census:cross-check", f"cross-check {_poset_desc(p)}", run, check, digest)


def _dim4_op(prog, chain):
    oracle = prog["oracle"]
    cfg = oracle.EnumConfig(chain, 2, 4)

    def run():
        return oracle.enumerate_indecomposables(cfg)

    def check(census):
        if not census.sampled or census.total_indecomposable != 3:
            return f"dim-4 census of a 2-chain: {census.total_indecomposable}, expected 3"
        return None

    return Op("census:dim4", f"dim-4 census of {_poset_desc(chain)}", run, check,
              _census_digest)


# ---------------------------------------------------------------------------
# nu: the differentiation recursion, pure poset combinatorics

NAMED_NU = {(1, 1, 1): 9, (1, 1, 2): 15, (1, 2, 2): 29, (1, 1, 3): 22,
            (1, 2, 3): 53, (1, 2, 4): 106, (2, 2, 2): None, (1, 1, 1, 1): None,
            (1, 2, 5): None, (1, 3, 3): None}  # None: infinite type, never "ok"
# (strategy, largest poset, largest poset of width 3, posets per stratum)
NU_RANDOM = [("first", 7, 6, 20), ("all-paths", 5, 5, 3)]


def _strata(max_size, max_wide_size):
    """(size, wide) classes: wide posets have width 3, the others width <= 2.

    The recursion answers width <= 2 outright and recurses otherwise, so
    the two classes differ in cost by an order of magnitude.  Every unit
    draws the same number from each class, which keeps the mix, and with
    it the latency quantiles, the same from seed to seed.
    """
    return [(n, wide) for n in range(1, max_size + 1)
            for wide in (False, True) if not wide or 3 <= n <= max_wide_size]


def _draw(randgen, rng, size, wide):
    while True:
        p = randgen.random_poset(rng, size)
        if len(p) == size and (p.width() == 3 if wide else p.width() <= 2):
            return p


def build_nu(prog, seed):
    # Width >= 4 is infinite type, represented by the named (1,1,1,1).
    # Random posets stop at width 3, and at six elements for width 3: some
    # larger ones, like (2,2,3) or (1,2,6), keep the recursion busy for a
    # minute or more, longer than a whole run.  Every poset gets its own
    # label suffix, as random draws of few elements often coincide.
    randgen = prog["randgen"]
    rng = random.Random(seed)
    tags = itertools.count()
    while True:
        unit = [_nu_named_op(prog, lengths, value, next(tags))
                for lengths, value in NAMED_NU.items()]
        for strategy, max_size, max_wide_size, per in NU_RANDOM:
            for size, wide in _strata(max_size, max_wide_size):
                for _ in range(per):
                    p = relabel(prog, _draw(randgen, rng, size, wide), next(tags))
                    unit.append(_nu_random_op(prog, p, strategy))
        rng.shuffle(unit)
        yield unit


def _trace_digest(trace):
    steps = ";".join(f"{s.point},{s.mode},{s.nonempty_antichains}" for s in trace.steps)
    terminal = _poset_desc(trace.terminal) if trace.terminal is not None else ""
    return _sha(f"{trace.status}|{trace.nu}|{trace.terminal_count}|{steps}|{terminal}")


def _nu_named_op(prog, lengths, value, tag):
    diff = prog["differentiation"]
    p = chain_sum(prog, lengths, tag)

    def run():
        return diff.nu_count(p)

    def check(trace):
        if value is None:
            return f"nu{lengths} reported ok ({trace.nu})" if trace.status == "ok" else None
        if trace.status != "ok" or trace.nu != value:
            return f"nu{lengths} = {trace.value_label()}, expected {value}"
        return None

    return Op("nu:named", f"nu {lengths} {_poset_desc(p)}", run, check, _trace_digest)


def _nu_random_op(prog, p, strategy):
    diff = prog["differentiation"]
    small = p.width() <= 2
    n_antichains = len(p.antichains()) if small else None

    def run():
        return diff.nu_count(p, strategy=strategy)

    def check(trace):
        if small and (trace.status != "ok" or trace.nu != n_antichains):
            return f"nu of width-2 {_poset_desc(p)} = {trace.value_label()}, |A| = {n_antichains}"
        if strategy == "all-paths" and trace.status == "ok":
            first = diff.nu_count(p)
            if first.status == "ok" and first.nu != trace.nu:
                return f"all-paths {trace.nu} != first {first.nu} on {_poset_desc(p)}"
        return None

    return Op(f"nu:{strategy}", f"nu {strategy} {_poset_desc(p)}", run, check, _trace_digest)


# ---------------------------------------------------------------------------
# wide: large Hom systems over Q

WIDE_MAX_POSET = 6
# Ambient dimension of every S-space.  At 7 the op cost spreads so widely
# (6 to 400 ms) that the ~120 ops of a run leave op_p50_ms unsteady.
WIDE_DIM = 6


def build_wide(prog, seed):
    """One op per poset size 1..WIDE_MAX_POSET in every unit, so that the
    mix of Hom system sizes is the same from seed to seed."""
    randgen, diff = prog["randgen"], prog["differentiation"]
    qq = prog["linalg"].QQ
    rng = random.Random(seed)
    tags = itertools.count()

    def space(p):
        while True:
            v = randgen.random_sspace(rng, p, qq, WIDE_DIM)
            if v.dim == WIDE_DIM:
                return v

    while True:
        unit = []
        for size in range(1, WIDE_MAX_POSET + 1):
            while True:
                p = randgen.random_poset(rng, size)
                mode = rng.choice(["filter", "ideal"])
                points = [x for x in p.elements if diff.is_applicable(p, x, mode)]
                if len(p) == size and points:
                    break
            tag = next(tags)
            p, point = relabel(prog, p, tag), f"{rng.choice(points)}.{tag}"
            unit.append(_wide_op(prog, space(p), space(p), point, mode))
        rng.shuffle(unit)
        yield unit


def _wide_op(prog, u, v, point, mode):
    sspace, diff, functors = prog["sspace"], prog["differentiation"], prog["functors"]

    def run():
        hom = sspace.hom_space(u, v)
        derived = diff.derive_poset(u.poset, point, mode)
        du = diff.diff_space(u, point, mode, derived)
        carried = functors.coinduce(u, derived.carrier)
        return hom, derived, du, carried, sspace.dualize(u)

    def check(out):
        hom, derived, du, _, dual_u = out
        back = sspace.hom_dim(sspace.dualize(v), dual_u)
        if hom.dim != back:
            return f"dim Hom(u,v) = {hom.dim} but dim Hom(Dv,Du) = {back}"
        if du != diff.diff_space_composite(u, point, mode, derived):
            return f"diff_space differs from the composite ({mode} at {point})"
        return None

    def digest(out):
        hom, derived, du, carried, dual_u = out
        return _sha(f"{hom.flat.mat.rows}|{_poset_desc(derived.result)}|"
                    f"{_space_desc(du)}|{_space_desc(carried)}|{_space_desc(dual_u)}")

    return Op("wide", f"wide {mode}@{point} {_space_desc(u)} {_space_desc(v)}",
              run, check, digest)


WORKLOADS = {
    "identities": build_identities,
    "census": build_census,
    "nu": build_nu,
    "wide": build_wide,
}
