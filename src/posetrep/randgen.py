"""Seeded random instances for the property suites and the verify command."""

from __future__ import annotations

import random
import string

from .linalg import Field, Matrix, Subspace, _rref
from .poset import Poset


def random_poset(rng: random.Random, max_size: int = 6, density: float = 0.35) -> Poset:
    n = rng.randrange(1, max_size + 1)
    labels = list(string.ascii_lowercase[:n])
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                relations.append((labels[i], labels[j]))
    return Poset.build(labels, relations)


def random_scalar(rng: random.Random, field: Field):
    if field.p is None:
        return rng.randrange(-3, 4)
    return rng.randrange(field.p)


def random_vector(rng: random.Random, field: Field, n: int):
    return [random_scalar(rng, field) for _ in range(n)]


def random_sspace(rng: random.Random, poset: Poset, field: Field, max_dim: int = 4):
    """Monotone by construction, so not validated again: along a linear
    extension, each element's space is spanned by new random rows and the
    spaces of its lower covers, which hold those of every element below."""
    from .sspace import SSpace

    n = rng.randrange(0, max_dim + 1)
    lower = {s: [] for s in poset.elements}
    for t, s in poset.covers():
        lower[s].append(t)
    assign = {}
    for s in poset.linear_extension():
        # One elimination of the new rows, ints as drawn (in [0, p) over F_p),
        # with the basis rows of the lower covers.
        rows = [random_vector(rng, field, n) for _ in range(rng.randrange(0, n + 1))]
        rows += [r for t in lower[s] for r in assign[t].mat.rows]
        red, pivots = _rref(field, rows, n)
        assign[s] = Subspace._of(field, n, Matrix._of(field, tuple(red), n), pivots)
    return SSpace(poset, field, n, assign, validate=False)


def random_morphism(rng: random.Random, hom):
    """Random combination of a HomSpace basis; zero morphism if empty."""
    from .sspace import SMorphism

    mat = hom.combination([random_scalar(rng, hom.field) for _ in range(hom.dim)])
    return SMorphism(hom.source, hom.target, mat)
