import itertools
import random
from collections import Counter

import pytest

from posetrep.errors import NotAnIdeal
from posetrep.functors import (IncidenceRep, coinduce, decompose_projective,
                               induce, injective_envelope,
                               is_socle_projective, lift_along_ideal, phi,
                               projective_cover, psi, radical_at, restrict,
                               semisimple_decompose)
from posetrep.linalg import QQ, Field, Matrix, Subspace
from posetrep.oracle import all_subspaces
from posetrep.poset import derived_carrier
from posetrep.randgen import random_morphism, random_poset, random_sspace
from posetrep.sspace import (SMorphism, SSpace, are_isomorphic, direct_sum,
                             dualize, hom_space, is_left_minimal,
                             is_right_minimal, projective_space,
                             simple_filter_space, zero_space)
from posetrep.verify import all_posets_up_to

from helpers import antichain_poset, chain, example510, minimal

F2 = Field.prime(2)
F5 = Field.prime(5)


def random_subset(rng, p, allow_empty=True):
    k = rng.randrange(0 if allow_empty else 1, len(p) + 1)
    return rng.sample(list(p.elements), k)


def restrict_morphism(f, labels):
    """f between the restrictions of its source and target: the same
    matrix, checked again to carry every kept subspace into its target."""
    return SMorphism(restrict(f.source, labels), restrict(f.target, labels), f.mat)


# restriction ------------------------------------------------------------------


def test_restrict_full_is_identity():
    rng = random.Random(0)
    p = random_poset(rng, 5)
    v = random_sspace(rng, p, QQ, 3)
    assert restrict(v, p.elements) == v


def test_restrict_composes():
    rng = random.Random(1)
    for _ in range(25):
        p = random_poset(rng, 6)
        v = random_sspace(rng, p, F5, 3)
        t = random_subset(rng, p)
        r = rng.sample(t, rng.randrange(0, len(t) + 1)) if t else []
        assert restrict(restrict(v, t), r) == restrict(v, r)


def test_restrict_of_simple():
    rng = random.Random(2)
    for _ in range(25):
        p = random_poset(rng, 5)
        a = rng.choice(p.antichains())
        r = random_subset(rng, p)
        sub = p.restrict(r)
        got = restrict(simple_filter_space(p, QQ, a), r)
        inside = p.generated_filter(a) & set(r)
        assert got == simple_filter_space(sub, QQ, minimal(sub, inside))


def test_restrict_preserves_proper():
    rng = random.Random(3)
    seen = 0
    for _ in range(40):
        p = random_poset(rng, 4)
        u = random_sspace(rng, p, F5, 3)
        v = random_sspace(rng, p, F5, 3)
        f = random_morphism(rng, hom_space(u, v))
        if f.is_proper():
            seen += 1
            assert restrict_morphism(f, random_subset(rng, p)).is_proper()
    assert seen


# induction and coinduction -------------------------------------------------------


def test_res_ind_and_res_coind_are_identity():
    rng = random.Random(4)
    for _ in range(30):
        p = random_poset(rng, 6)
        r = random_subset(rng, p)
        v = random_sspace(rng, p.restrict(r), F5, 4)
        assert restrict(induce(v, p), r) == v
        assert restrict(coinduce(v, p), r) == v


def test_induce_empty_sum_and_coinduce_empty_intersection():
    p = chain("s", "t")
    r = p.restrict(["t"])
    v = SSpace(r, QQ, 2, {"t": Subspace.from_rows(QQ, 2, [[1, 0]])})
    up = induce(v, p)
    assert up.sub("s").is_zero()
    down = coinduce(restrict(v, ["t"]), p)
    assert down.sub("s") == down.sub("t")
    w = SSpace(p.restrict(["s"]), QQ, 2, {"s": Subspace.from_rows(QQ, 2, [[0, 1]])})
    assert coinduce(w, p).sub("t").is_full()


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=["Q", "F2", "F5"])
def test_sums_and_meets_are_one_elimination_per_element(field, monkeypatch):
    from posetrep import linalg

    calls = []
    kernel = linalg._rref

    def counted(*args):
        calls.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(linalg, "_rref", counted)

    def eliminations(run):
        calls.clear()
        out = run()
        return out, len(calls)

    rng = random.Random(13 + (field.p or 0))
    for _ in range(20):
        p = random_poset(rng, 6)
        v = random_sspace(rng, p.restrict(random_subset(rng, p)), field, 4)
        for functor in (induce, coinduce):
            out, count = eliminations(lambda: functor(v, p))
            assert count <= len(out.poset)
        w = random_sspace(rng, p, field, 4)
        for t in list(p.elements) + [None]:
            _, count = eliminations(lambda: radical_at(w, t))
            assert count <= 1


def test_adjunction_is_a_matrix_identity():
    rng = random.Random(5)
    for _ in range(25):
        p = random_poset(rng, 5)
        r = random_subset(rng, p)
        v = random_sspace(rng, p.restrict(r), F5, 3)
        w = random_sspace(rng, p, F5, 3)
        left = hom_space(induce(v, p), w)
        right = hom_space(v, restrict(w, r))
        assert left.flat == right.flat and left.dim == right.dim
        co_left = hom_space(restrict(w, r), v)
        co_right = hom_space(w, coinduce(v, p))
        assert co_left.flat == co_right.flat and co_left.dim == co_right.dim


def test_restriction_composition_identities():
    rng = random.Random(6)
    for _ in range(25):
        p = random_poset(rng, 6)
        t = random_subset(rng, p)
        r = rng.sample(t, rng.randrange(0, len(t) + 1)) if t else []
        vt = random_sspace(rng, p.restrict(t), QQ, 3)
        assert restrict(induce(vt, p), r) == restrict(vt, r)
        assert restrict(coinduce(vt, p), r) == restrict(vt, r)


def test_ind_coind_fully_faithful():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poset(rng, 5)
        r = random_subset(rng, p)
        u = random_sspace(rng, p.restrict(r), F5, 3)
        v = random_sspace(rng, p.restrict(r), F5, 3)
        base = hom_space(u, v)
        assert hom_space(induce(u, p), induce(v, p)).flat == base.flat
        assert hom_space(coinduce(u, p), coinduce(v, p)).flat == base.flat


def test_composite_identity_through_derived_carrier():
    rng = random.Random(8)
    for _ in range(20):
        p = random_poset(rng, 5)
        t = random_subset(rng, p)
        v = random_sspace(rng, p, QQ, 3)
        carrier, _ = derived_carrier(p, [x for x in p.elements if x not in t], "filter")
        hat_labels = [x for x in carrier.elements if x not in set(p.elements) - set(t)]
        lhs = restrict(coinduce(v, carrier), hat_labels)
        hat = derived_carrier(p.restrict(t), [], "filter")[0]
        rhs = coinduce(restrict(v, t), hat)
        assert lhs == rhs


def test_duality_squares():
    rng = random.Random(9)
    for _ in range(25):
        p = random_poset(rng, 5)
        r = random_subset(rng, p)
        v = random_sspace(rng, p, QQ, 3)
        assert dualize(restrict(v, r)) == restrict(dualize(v), r)
        w = random_sspace(rng, p.restrict(r), QQ, 3)
        assert dualize(induce(w, p)) == coinduce(dualize(w), p.opposite())
        assert dualize(coinduce(w, p)) == induce(dualize(w), p.opposite())


# lifting constructions -------------------------------------------------------------


def test_lift_with_r_equal_s():
    rng = random.Random(10)
    p = random_poset(rng, 4)
    u = random_sspace(rng, p, QQ, 3)
    v = random_sspace(rng, p, QQ, 3)
    f = random_morphism(rng, hom_space(u, v))
    lifted, fhat = lift_along_ideal(f, v, p.elements)
    assert lifted == u and fhat.mat == f.mat


def test_lift_requires_an_ideal():
    p = chain("s", "t")
    v = SSpace(p, QQ, 1, {"s": Subspace.full(QQ, 1), "t": Subspace.full(QQ, 1)})
    u = restrict(v, ["t"])
    f = SMorphism(u, restrict(v, ["t"]), Matrix.identity(QQ, 1))
    with pytest.raises(NotAnIdeal):
        lift_along_ideal(f, v, ["t"])


def test_lift_properness_and_iso_transfer():
    rng = random.Random(11)
    proper_seen = 0
    for _ in range(40):
        p = random_poset(rng, 5)
        ideal = p.generated_ideal(random_subset(rng, p))
        r = ideal
        v = random_sspace(rng, p, F5, 3)
        u = random_sspace(rng, p.restrict(r), F5, 3)
        f = random_morphism(rng, hom_space(u, restrict(v, r)))
        lifted, fhat = lift_along_ideal(f, v, r)
        assert restrict(lifted, r) == u
        assert restrict_morphism(fhat, r).mat == f.mat
        assert f.is_proper() == fhat.is_proper()
        if f.is_proper():
            proper_seen += 1
    assert proper_seen


def test_lift_of_induced_space_has_kernel_subspaces():
    rng = random.Random(12)
    hits = 0
    for _ in range(60):
        p = random_poset(rng, 5)
        filt = p.generated_filter(random_subset(rng, p))
        ideal = p.generated_ideal(random_subset(rng, p))
        outside = [s for s in p.elements if s not in ideal and s not in filt]
        if not outside:
            continue
        hits += 1
        w = random_sspace(rng, p.restrict(filt), F5, 3)
        v = induce(w, p)
        r = ideal
        u = random_sspace(rng, p.restrict(r), F5, 3)
        f = random_morphism(rng, hom_space(u, restrict(v, r)))
        lifted, fhat = lift_along_ideal(f, v, r)
        kernel = fhat.mat.null_rows().rref()[0]
        ker_sub = Subspace(F5, u.dim, kernel)
        for s in outside:
            assert lifted.sub(s) == ker_sub
        for s in r:
            if s not in filt:
                assert ker_sub.contains(lifted.sub(s))
    assert hits > 5


def test_lift_iso_and_minimality_transfer():
    rng = random.Random(24)
    iso_seen = 0
    for i in range(30):
        p = random_poset(rng, 4)
        ideal = p.generated_ideal(random_subset(rng, p))
        r = ideal
        v = random_sspace(rng, p, F5, 2)
        u = random_sspace(rng, p.restrict(r), F5, 2)
        f = random_morphism(rng, hom_space(u, restrict(v, r)))
        lifted, fhat = lift_along_ideal(f, v, r)
        f_iso = f.mat.is_invertible() and f.inverse() is not None
        fhat_iso = fhat.mat.is_invertible() and fhat.inverse() is not None
        assert f_iso == fhat_iso
        iso_seen += f_iso
        assert is_right_minimal(f) == is_right_minimal(fhat)
    assert iso_seen


def test_lift_commuting_square():
    rng = random.Random(13)
    for _ in range(25):
        p = random_poset(rng, 4)
        ideal = p.generated_ideal(random_subset(rng, p))
        r = ideal
        v = random_sspace(rng, p, F5, 3)
        z = random_sspace(rng, p, F5, 3)
        beta = random_morphism(rng, hom_space(v, z))
        u = random_sspace(rng, p.restrict(r), F5, 3)
        f = random_morphism(rng, hom_space(u, restrict(v, r)))
        g_mat = f.mat * beta.mat
        g = SMorphism(u, restrict(z, r), g_mat)
        alpha = SMorphism.identity(u)
        # square: g o alpha = res(beta) o f by construction
        u_f, fhat = lift_along_ideal(f, v, r)
        u_g, ghat = lift_along_ideal(g, z, r)
        alpha_lift = SMorphism(u_f, u_g, alpha.mat)
        assert restrict_morphism(alpha_lift, r).mat == alpha.mat
        assert fhat.then(beta).mat == alpha_lift.then(ghat).mat


# psi / phi ---------------------------------------------------------------------


def test_phi_psi_identity_random():
    rng = random.Random(16)
    for _ in range(60):
        p = random_poset(rng, 5)
        field = F5 if rng.random() < 0.5 else QQ
        v = random_sspace(rng, p, field, 4)
        m = psi(v)
        assert_incidence_module(m)
        assert phi(m) == v


def assert_incidence_module(m):
    """The map at (s, s) is the identity, and maps compose along s <= t <= u."""
    p = m.poset
    for s in p.elements:
        assert m.maps[(s, s)] == Matrix.identity(m.maps[(s, s)].field, m.dims[s]), s
    for s in p.elements:
        for t in p.up(s):
            for u in p.up(t):
                assert m.maps[(s, t)] * m.maps[(t, u)] == m.maps[(s, u)], (s, t, u)


def test_psi_of_k_empty():
    p = antichain_poset("x", "y")
    m = psi(simple_filter_space(p, QQ, ()))
    top = m.top()
    assert m.dims[top] == 1
    assert m.dims["x"] == 0 and m.dims["y"] == 0


def test_psi_is_socle_projective_and_corruption_fails():
    rng = random.Random(17)
    for _ in range(30):
        p = random_poset(rng, 4)
        v = random_sspace(rng, p, F5, 3)
        m = psi(v)
        assert is_socle_projective(m)
        candidates = [s for s in p.elements if m.dims[s] > 0]
        if not candidates:
            continue
        s = rng.choice(candidates)
        bad_maps = dict(m.maps)
        bad_maps[(s, m.top())] = Matrix.zeros(F5, m.dims[s], m.dims[m.top()])
        bad = IncidenceRep(m.poset, m.dims, bad_maps)
        assert not is_socle_projective(bad)


# projective covers and decomposition ------------------------------------------------


def test_decompose_projective_of_explicit_sum():
    p = chain("s", "t")
    v = direct_sum(direct_sum(projective_space(p, QQ, "s"), projective_space(p, QQ, None)),
                   projective_space(p, QQ, None))
    res = decompose_projective(v)
    assert res.projective
    assert res.multiplicities == {"s": 1, None: 2}
    assert res.witness.inverse() is not None


def test_coinduce_to_semilattice_is_projective_when_width_at_most_2():
    rng = random.Random(18)
    for _ in range(25):
        p = random_poset(rng, 5)
        if p.width() > 2:
            continue
        hat = derived_carrier(p, [], "filter")[0]
        v = random_sspace(rng, p, QQ, 4)
        w = coinduce(v, hat)
        res = decompose_projective(w)
        assert res.projective
        assert w == coinduce(restrict(w, p.elements), hat)


def test_projective_fixed_point_criterion():
    rng = random.Random(19)
    for _ in range(25):
        p = random_poset(rng, 4)
        if p.width() > 2:
            continue
        hat = derived_carrier(p, [], "filter")[0]
        w = random_sspace(rng, hat, QQ, 3)
        res = decompose_projective(w)
        fixed = (w == coinduce(restrict(w, p.elements), hat))
        ssdec = semisimple_decompose(restrict(w, p.elements))
        assert res.projective == (fixed and ssdec.is_semisimple)


def test_projective_cover_is_iso_for_projectives():
    rng = random.Random(20)
    p = random_poset(rng, 4)
    parts = [rng.choice(list(p.elements) + [None]) for _ in range(3)]
    v = zero_space(p, QQ)
    for t in parts:
        v = direct_sum(v, projective_space(p, QQ, t))
    cover, epi = projective_cover(v)
    assert epi.mat.is_invertible()
    assert cover.dim == v.dim


def test_projective_cover_of_k_empty():
    p = antichain_poset("x", "y")
    v = simple_filter_space(p, QQ, ())
    cover, epi = projective_cover(v)
    assert cover == v
    assert epi.mat == Matrix.identity(QQ, 1)


def test_projective_cover_is_proper_epi_and_right_minimal():
    rng = random.Random(21)
    for _ in range(25):
        p = random_poset(rng, 4)
        v = random_sspace(rng, p, F5, 3)
        cover, epi = projective_cover(v)
        assert epi.is_epi() and epi.is_proper()
        assert decompose_projective(cover).projective
        assert is_right_minimal(epi)


def test_injective_envelope_contracts():
    rng = random.Random(22)
    for _ in range(20):
        p = random_poset(rng, 4)
        v = random_sspace(rng, p, F5, 3)
        env, mono = injective_envelope(v)
        assert mono.is_mono() and mono.is_proper()
        assert decompose_projective(dualize(env)).projective
        assert is_left_minimal(mono)


# semisimple decomposition -------------------------------------------------------------


def test_two_chain_cover_small():
    """g < e < d and f > g: two chains cover it, and no fewer."""
    p = example510().restrict(["d", "e", "f", "g"])
    assert p.width() == 2
    assert not p.leq("d", "f") and not p.leq("f", "d")


def test_semisimple_width2_always_decomposes():
    rng = random.Random(23)
    for _ in range(40):
        p = random_poset(rng, 5)
        if p.width() > 2:
            continue
        field = F5 if rng.random() < 0.5 else QQ
        v = random_sspace(rng, p, field, 4)
        res = semisimple_decompose(v)
        assert res.is_semisimple
        assert sum(res.multiplicities.values()) == v.dim
        assert res.witness.inverse() is not None
        rebuilt = zero_space(p, field)
        for a in sorted(res.multiplicities):
            for _ in range(res.multiplicities[a]):
                rebuilt = direct_sum(rebuilt, simple_filter_space(p, field, a))
        assert are_isomorphic(rebuilt, v).is_iso


def test_semisimple_cube_of_simple():
    p = example510()
    a = ("d", "f")
    v = zero_space(p, QQ)
    for _ in range(3):
        v = direct_sum(v, simple_filter_space(p, QQ, a))
    res = semisimple_decompose(v)
    assert res.is_semisimple and res.multiplicities == {a: 3}


def three_lines(field):
    """Three distinct lines in a plane over a 3-antichain: indecomposable
    of dimension 2, so not a sum of the one-dimensional k_A."""
    p = antichain_poset("x", "y", "z")
    return SSpace(p, field, 2, {
        "x": Subspace.from_rows(field, 2, [[1, 0]]),
        "y": Subspace.from_rows(field, 2, [[0, 1]]),
        "z": Subspace.from_rows(field, 2, [[1, 1]]),
    })


def test_three_lines_not_semisimple():
    assert semisimple_decompose(three_lines(QQ)).status == "not_semisimple"


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=["Q", "F2", "F5"])
def test_twice_three_lines_not_semisimple(field):
    w = three_lines(field)
    res = semisimple_decompose(direct_sum(w, w))
    assert res.status == "not_semisimple"
    assert res.multiplicities == {} and res.witness is None


def test_semisimple_beyond_width2():
    p = antichain_poset("x", "y", "z")
    parts = [simple_filter_space(p, QQ, a) for a in [(), ("x",), ("x", "y", "z")]]
    v = zero_space(p, QQ)
    for part in parts:
        v = direct_sum(v, part)
    res = semisimple_decompose(v)
    assert res.is_semisimple
    assert res.multiplicities == {(): 1, ("x",): 1, ("x", "y", "z"): 1}


def adapted_basis_types(v):
    """Brute force over F_2: the multiplicities of the types of the first
    basis of V that spans every V(s) with the vectors it has there, or
    None when no basis of V does."""
    p, n = v.poset, v.dim
    members = {}
    for vec in itertools.product((0, 1), repeat=n):
        if any(vec):
            line = Subspace.from_rows(F2, n, [vec])
            members[vec] = frozenset(s for s in p.elements if v.sub(s).contains(line))
    for basis in itertools.combinations(members, n):
        if Subspace.from_rows(F2, n, basis).dim < n:
            continue
        if all(v.sub(s).dim == sum(s in members[e] for e in basis) for s in p.elements):
            return dict(Counter(minimal(p, members[e]) for e in basis))
    return None


def uniform_space(rng, p, subs):
    """A monotone assignment over F_2 that gives each element, along a
    linear extension, a uniform choice among the subspaces subs holding
    everything below it."""
    n = subs[-1].dim
    assign = {}
    for s in p.linear_extension():
        below = Subspace.zero(F2, n)
        for t in p.elements:
            if p.lt(t, s):
                below = below.plus(assign[t])
        assign[s] = rng.choice([u for u in subs if u.contains(below)])
    return SSpace(p, F2, n, assign)


def test_semisimple_decompose_matches_brute_force_over_f2():
    """Every poset of at most 4 points in every dimension <= 3 (more
    samples where the width exceeds 2, the only place a space can fail to
    split), and the non-semisimple W, W + W and W + k_(x) of the three
    lines W."""
    rng = random.Random(61)
    subs = {n: all_subspaces(F2, n) for n in range(4)}
    spaces = [uniform_space(rng, p, subs[n])
              for p in all_posets_up_to(4) for n in subs
              for _ in range(12 if p.width() > 2 else 2)]
    w = three_lines(F2)
    spaces += [w, direct_sum(w, w), direct_sum(w, simple_filter_space(w.poset, F2, ("x",)))]
    statuses = Counter()
    for v in spaces:
        expected = adapted_basis_types(v)
        res = semisimple_decompose(v)
        statuses[res.status] += 1
        assert res.is_semisimple == (expected is not None), v
        assert res.multiplicities == (expected or {}), v
        if res.is_semisimple:
            assert res.witness.target == v and res.witness.is_iso()
    assert statuses["not_semisimple"] >= 20, statuses
