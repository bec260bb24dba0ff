"""Fixed posets the suites keep coming back to, and the references some
suites compare the package against: order references written on its
public order queries, and a Gauss-Jordan RREF on scalar arithmetic of
its own."""

from fractions import Fraction

from posetrep.linalg import Subspace
from posetrep.poset import Poset
from posetrep.sspace import SSpace


def chain(*labels):
    return Poset.build(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])


def chain_sum(*lengths):
    """Disjoint union of chains of the given lengths, labelled a0 < a1 < ...,
    b0 < b1 < ... and so on."""
    elements, relations = [], []
    for c, n in enumerate(lengths):
        names = [f"{chr(ord('a') + c)}{k}" for k in range(n)]
        elements += names
        relations += list(zip(names, names[1:]))
    return Poset.build(elements, relations)


def antichain_poset(*labels):
    return Poset.build(labels, [])


def example510():
    """Eight-element poset with p under a,b,c and e,g under p; the running
    worked example for filter differentiation."""
    return Poset.build(
        "abcdefgp",
        [("p", "a"), ("p", "b"), ("p", "c"),
         ("e", "p"), ("e", "d"),
         ("g", "e"), ("g", "f")],
    )


def poset_112():
    """Disjoint union of two points and a 2-chain."""
    return Poset.build(["x", "y", "u", "v"], [("u", "v")])


def minimal(p, labels):
    """The minimal elements of labels, sorted: for a filter, the antichain
    that generates it."""
    labels = set(labels)
    return tuple(sorted(x for x in labels if not any(p.lt(y, x) for y in labels)))


def maximal(p, labels):
    """The maximal elements of labels, sorted: for an ideal, the antichain
    that generates it."""
    labels = set(labels)
    return tuple(sorted(x for x in labels if not any(p.lt(x, y) for y in labels)))


def antichain_leq(p, a, b, mode):
    """Two antichains of p in the meet or join semilattice order: under
    meet, B lies in the filter <A>; under join, A lies in the ideal (B)."""
    if mode == "meet":
        return set(b) <= p.generated_filter(a)
    return set(a) <= p.generated_ideal(b)


def ideal_simple(p, field, antichain):
    """k^A: one-dimensional, zero exactly on the ideal that A generates;
    the dual of k_A on the opposite poset."""
    ideal = p.generated_ideal(antichain)
    return SSpace(p, field, 1, {s: Subspace.zero(field, 1) if s in ideal
                                else Subspace.full(field, 1) for s in p.elements})


# Scalar arithmetic of the reference RREF, kept apart from the package:
# a Fraction over Q, a residue in [0, p) over F_p.

def _sub(field, a, b):
    return a - b if field.p is None else (a - b) % field.p


def _mul(field, a, b):
    return a * b if field.p is None else a * b % field.p


def _inv(field, a):
    return Fraction(1) / a if field.p is None else pow(a, field.p - 2, field.p)


def reference_rref(field, rows, ncols):
    """Gauss-Jordan one scalar operation per entry: the reference the
    specialised kernels in linalg._rref must match."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != field.zero), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        scale = _inv(field, work[r][c])
        work[r] = [_mul(field, scale, x) for x in work[r]]
        lead = work[r]
        for i in range(len(work)):
            if i != r and work[i][c] != field.zero:
                f = work[i][c]
                work[i] = [_sub(field, x, _mul(field, f, y)) for x, y in zip(work[i], lead)]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in work[:r]], pivots
