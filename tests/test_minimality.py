"""Right and left minimality against a full enumeration.

f : U -> V is right minimal when every g in End(U) with g then f = f is
an automorphism; those g are id + L with L = {h in End(U) : h then f = 0}.
Over F_2 and F_3 the tests list all of id + L, with L found here from a
basis of End(U) (not from the solver behind `is_right_minimal`), and check
each element for invertibility.  Left minimality is the same over End(V)
with f then h = 0.
"""

import random
from itertools import product

import pytest

from posetrep.functors import injective_envelope, projective_cover
from posetrep.linalg import QQ, Field, Matrix, Subspace, vstack
from posetrep.randgen import random_morphism, random_poset, random_sspace
from posetrep.sspace import (SMorphism, SSpace, direct_sum, hom_space,
                             is_left_minimal, is_right_minimal,
                             projective_space)

from helpers import chain, count_eliminations

MAX_IDEAL_DIM = 8


def _plus_combination(start, coeffs, mats):
    for c, m in zip(coeffs, mats):
        start = start + m.scale(c)
    return start


def _ideal(end, product_with, width):
    """Basis matrices of {h in end : product_with(h) = 0}."""
    mats = [b.mat for b in end.basis]
    if not mats or width == 0:
        return mats
    rows = [[x for r in product_with(m).rows for x in r] for m in mats]
    zero = Matrix.zeros(end.field, end.source.dim, end.source.dim)
    return [_plus_combination(zero, c, mats)
            for c in Matrix(end.field, rows, width).null_rows().rows]


def _all_invertible(field, n, ideal):
    ident = Matrix.identity(field, n)
    return all(_plus_combination(ident, coeffs, ideal).is_invertible()
               for coeffs in product(range(field.p), repeat=len(ideal)))


def _enumerated(f):
    """(right minimal, left minimal) by enumeration, or None when an ideal
    is too large to list."""
    u, v = f.source, f.target
    right = _ideal(hom_space(u, u), lambda h: h * f.mat, u.dim * v.dim)
    left = _ideal(hom_space(v, v), lambda h: f.mat * h, u.dim * v.dim)
    if max(len(right), len(left)) > MAX_IDEAL_DIM:
        return None
    return (_all_invertible(u.field, u.dim, right),
            _all_invertible(v.field, v.dim, left))


def _covers(rng, field):
    p = random_poset(rng, 4)
    v = random_sspace(rng, p, field, 3)
    return [projective_cover(v)[1], injective_envelope(v)[1]]


def _covers_with_fixing_ideal(rng, field):
    """The projective cover of V + P_{} with V not projective, and its dual.
    P_{} is zero at every point, so every map from it into the kernel is in
    the fixing ideal: the ideal is nonzero, and minimality rests on its
    being nilpotent."""
    while True:
        p = random_poset(rng, 4)
        v = direct_sum(random_sspace(rng, p, field, 3), projective_space(p, field))
        epi = projective_cover(v)[1]
        if epi.source.dim > v.dim:
            u = epi.source
            assert _ideal(hom_space(u, u), lambda h: h * epi.mat, u.dim * v.dim)
            return [epi, epi.dualize()]


def _random_morphisms(rng, field):
    p = random_poset(rng, 4)
    u = random_sspace(rng, p, field, 3)
    v = random_sspace(rng, p, field, 3)
    return [random_morphism(rng, hom_space(u, v))]


def _cover_plus_zero(rng, field):
    """(epi, 0) : P + X -> V, not right minimal when X is nonzero."""
    p = random_poset(rng, 4)
    v = random_sspace(rng, p, field, 3)
    x = random_sspace(rng, p, field, 2)
    cover, epi = projective_cover(v)
    mat = Matrix(field, epi.mat.rows + Matrix.zeros(field, x.dim, v.dim).rows, v.dim)
    f = SMorphism(direct_sum(cover, x), v, mat)
    assert is_right_minimal(f) == (x.dim == 0)
    return [f, f.dualize()]


@pytest.mark.parametrize("family", [_covers, _covers_with_fixing_ideal,
                                    _random_morphisms, _cover_plus_zero])
@pytest.mark.parametrize("q", [2, 3])
def test_minimality_matches_enumeration(family, q):
    field = Field.prime(q)
    rng = random.Random(100 * q + len(family.__name__))
    seen = set()
    compared = 0
    for _ in range(20):
        for f in family(rng, field):
            want = _enumerated(f)
            if want is None:
                continue
            compared += 1
            assert (is_right_minimal(f), is_left_minimal(f)) == want
            seen.update(want)
    assert compared >= 15
    assert seen == ({True} if family in (_covers, _covers_with_fixing_ideal)
                    else {True, False})


@pytest.mark.parametrize("q", [2, 3])
def test_minimality_is_one_elimination_per_round(q, monkeypatch):
    """After the one elimination of the Hom solve, each round of W = the
    sum of the images W h over the ideal is one elimination."""
    field = Field.prime(q)
    rng = random.Random(7 * q)
    calls = []
    wide_ideals = 0
    for _ in range(10):
        for f in _covers_with_fixing_ideal(rng, field) + _cover_plus_zero(rng, field):
            u = f.source
            ideal = _ideal(hom_space(u, u), lambda h: h * f.mat, u.dim * f.target.dim)
            wide_ideals += len(ideal) >= 2
            rounds, w = 0, Matrix.identity(field, u.dim)
            while ideal and w.nrows:
                rounds += 1
                shrunk = vstack(*(w * h for h in ideal)).rref()[0]
                if shrunk.nrows == w.nrows:
                    break
                w = shrunk
            with monkeypatch.context() as m:
                count_eliminations(m, calls)
                calls.clear()
                is_right_minimal(f)
            assert calls.count("_sparse_kernel") <= 1
            assert len(calls) <= 1 + rounds
    assert wide_ideals


def test_minimality_over_q_sees_a_scaled_idempotent():
    """U = Q^2 with the first coordinate line at the one point, f = (1, 4)^T
    onto Q.  The fixing ideal is spanned by h = [[0, 0], [1, -1/4]] with
    h^2 = -h/4, so g = id + 4h = [[1, 0], [4, 0]] is singular and g then
    f = f: f is not right minimal (nor f^T left minimal).  A search over
    id + c*h with small integers c other than 4 never sees it."""
    p = chain("a")
    u = SSpace(p, QQ, 2, {"a": Subspace.from_rows(QQ, 2, [[1, 0]])})
    v = SSpace(p, QQ, 1, {"a": Subspace.full(QQ, 1)})
    f = SMorphism(u, v, Matrix(QQ, [[1], [4]]))
    g = SMorphism(u, u, Matrix(QQ, [[1, 0], [4, 0]]))
    assert g.then(f) == f and not g.mat.is_invertible()
    assert not is_right_minimal(f)
    assert not is_left_minimal(f.dualize())
    assert is_right_minimal(SMorphism(v, v, Matrix.identity(QQ, 1)))
