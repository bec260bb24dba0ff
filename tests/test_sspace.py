import hashlib
import random
from fractions import Fraction

import pytest

from posetrep import linalg
from posetrep.errors import InvalidMorphism, MonotonicityViolation, PosetMismatch
from posetrep.linalg import QQ, Field, Matrix, Subspace
from posetrep.poset import Poset, derived_carrier
from posetrep.randgen import random_morphism, random_poset, random_sspace
from posetrep.sspace import (SMorphism, SSpace, are_isomorphic, direct_sum,
                             dualize, e_functor_map, e_quot, e_sub, hom_dim,
                             hom_space, is_left_minimal, projective_space,
                             simple_filter_space, validate_sspace, zero_space)

from helpers import (antichain_poset, chain, count_eliminations, example510, ideal_simple,
                     maximal, minimal, reference_rref)

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F65521 = Field.prime(65521)


def two_lines_space():
    p = antichain_poset("p", "a")
    return SSpace(p, QQ, 2, {
        "p": Subspace.from_rows(QQ, 2, [[1, 0]]),
        "a": Subspace.from_rows(QQ, 2, [[1, 1]]),
    })


def three_lines_space(field=QQ):
    p = antichain_poset("x", "y", "z")
    return SSpace(p, field, 2, {
        "x": Subspace.from_rows(field, 2, [[1, 0]]),
        "y": Subspace.from_rows(field, 2, [[0, 1]]),
        "z": Subspace.from_rows(field, 2, [[1, 1]]),
    })


# validation ----------------------------------------------------------------


def test_simple_spaces_validate():
    p = example510()
    for a in p.antichains():
        validate_sspace(simple_filter_space(p, QQ, a))


def test_monotonicity_violation_is_reported():
    p = chain("s", "t")
    with pytest.raises(MonotonicityViolation) as exc:
        SSpace(p, QQ, 2, {"s": Subspace.full(QQ, 2), "t": Subspace.zero(QQ, 2)})
    assert exc.value.low == "s" and exc.value.high == "t"


def test_random_generator_always_validates():
    rng = random.Random(0)
    for _ in range(200):
        p = random_poset(rng, 6)
        field = F5 if rng.random() < 0.5 else QQ
        validate_sspace(random_sspace(rng, p, field, 4))


def test_validation_on_covers_agrees_with_every_pair():
    """A random space with one subspace shrunk is rejected exactly when
    some pair s <= t, not only a cover, has V(s) outside V(t), and the
    pair named is a violating cover."""
    rng = random.Random(7)
    verdicts = set()
    for _ in range(300):
        p = random_poset(rng, 6)
        field = F2 if rng.random() < 0.5 else QQ
        v = random_sspace(rng, p, field, 4)
        s = rng.choice(p.elements)
        rows = v.sub(s).mat.rows
        assign = dict(v.assign, **{s: Subspace.from_rows(field, v.dim, rows[1:])})
        shrunk = SSpace(p, field, v.dim, assign, validate=False)
        monotone = all(shrunk.sub(b).contains(shrunk.sub(a))
                       for a in p.elements for b in p.elements if p.leq(a, b))
        try:
            validate_sspace(shrunk)
        except MonotonicityViolation as exc:
            assert not monotone
            assert (exc.low, exc.high) in p.covers()
            assert not shrunk.sub(exc.high).contains(shrunk.sub(exc.low))
        else:
            assert monotone
        verdicts.add(monotone)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_random_generator_is_one_elimination_per_element(field, monkeypatch):
    """Each element's subspace is one RREF of the rows below it together
    with its new random rows."""
    from posetrep import linalg

    calls = []
    kernel = linalg._rref

    def counted(*args):
        calls.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(linalg, "_rref", counted)
    rng = random.Random(3)
    for _ in range(50):
        p = random_poset(rng, 6)
        calls.clear()
        random_sspace(rng, p, field, 4)
        assert len(calls) <= len(p)


# hom spaces -----------------------------------------------------------------


def test_hom_from_simple_is_intersection():
    rng = random.Random(1)
    for _ in range(40):
        p = random_poset(rng, 5)
        v = random_sspace(rng, p, F5, 4)
        for a in p.antichains():
            meet = Subspace.full(F5, v.dim)
            for s in a:
                meet = meet.intersect(v.sub(s))
            assert hom_dim(simple_filter_space(p, F5, a), v) == meet.dim


def test_hom_between_simples_is_semilattice_order():
    p = example510()
    carrier, members = derived_carrier(p, [], "filter")
    sl = carrier.adjoin_top("{}")  # the empty antichain is the top of the meet order
    members["{}"] = ()
    simples = {x: simple_filter_space(p, QQ, members[x]) for x in sl.elements}
    for x in sl.elements:
        for y in sl.elements:
            expected = 1 if sl.leq(y, x) else 0
            assert hom_dim(simples[x], simples[y]) == expected


def test_hom_to_upper_simple_is_annihilator_dim():
    rng = random.Random(2)
    for _ in range(40):
        p = random_poset(rng, 5)
        v = random_sspace(rng, p, QQ, 4)
        for b in p.antichains()[1:]:
            total = Subspace.zero(QQ, v.dim)
            for s in b:
                total = total.plus(v.sub(s))
            assert hom_dim(v, ideal_simple(p, QQ, b)) == v.dim - total.dim


def test_hom_biadditive():
    rng = random.Random(3)
    for _ in range(25):
        p = random_poset(rng, 4)
        a = random_sspace(rng, p, F5, 3)
        b = random_sspace(rng, p, F5, 3)
        c = random_sspace(rng, p, F5, 3)
        assert hom_dim(direct_sum(a, b), c) == hom_dim(a, c) + hom_dim(b, c)
        assert hom_dim(c, direct_sum(a, b)) == hom_dim(c, a) + hom_dim(c, b)


def test_end_of_simples_sum_matches_comparable_pairs_two_chain():
    p = chain("s", "t")
    carrier, members = derived_carrier(p, [], "filter")
    sl = carrier.adjoin_top("{}")  # the empty antichain is the top of the meet order
    members["{}"] = ()
    big = direct_sum(*(simple_filter_space(p, QQ, members[x]) for x in sl.elements))
    pairs = sum(1 for a in sl.elements for b in sl.elements if sl.leq(b, a))
    assert pairs == 6
    assert hom_dim(big, big) == 6


def reference_hom_solutions(u, v, pairs):
    """The route through annihilators: one elimination per target G for its
    annihilator, the unreduced products b[i] * g[j] as the rows, and every
    entry coerced again by the public Matrix constructor."""
    nv, width = v.dim, u.dim * v.dim
    rows = [[b[k // nv] * g[k % nv] for k in range(width)]
            for bsub, target in pairs
            for g in target.annihilator().mat.rows for b in bsub.mat.rows]
    if not rows:
        return Subspace.full(u.field, width), rows
    cons = Matrix(u.field, rows, width)
    return Subspace(u.field, width, cons.transpose().null_rows()), rows


def _with_two_lower_covers(rng, size):
    """A random poset in which some element has at least two lower covers."""
    while True:
        p = random_poset(rng, size, density=0.5)
        uppers = [s for _, s in p.covers()]
        if any(uppers.count(s) >= 2 for s in uppers):
            return p


@pytest.mark.parametrize("field", [QQ, F2, F5, F65521], ids=repr)
def test_hom_systems_are_one_elimination(field, monkeypatch):
    """Each Hom system is one sparse elimination, none when it has no
    constraint rows, and never a dense one.  hom_space, hom_dim,
    factor_ideal_dim in both modes and _endo_solutions_fixing give the
    spaces of the constraints of every element and every row, on posets
    with an element of two or more lower covers, where the trimming drops
    rows of some systems."""
    from posetrep.differentiation import factor_ideal_dim
    from posetrep.sspace import _endo_solutions_fixing, _hom_pairs

    calls = []
    count_eliminations(monkeypatch, calls)

    def eliminations(run):
        calls.clear()
        out = run()
        return out, list(calls)

    def check(kernels, rows):
        assert kernels in ([], ["_sparse_kernel"]) and (kernels or not rows)

    rng = random.Random(31 + (field.p or 0))
    dropped = 0
    for _ in range(20):
        p = _with_two_lower_covers(rng, 6)
        u = random_sspace(rng, p, field, 4)
        v = random_sspace(rng, p, field, 4)
        pairs = [(u.sub(s), v.sub(s)) for s in p.elements]
        kept = sum(len(rows) for rows, _ in _hom_pairs(u, v))
        dropped += kept < sum(u.sub(s).dim for s in p.elements if not v.sub(s).is_full())

        hom, kernels = eliminations(lambda: hom_space(u, v))
        ref, rows = reference_hom_solutions(u, v, pairs)
        check(kernels, rows)
        assert hom.flat == ref
        dim, kernels = eliminations(lambda: hom_dim(u, v))
        check(kernels, rows)
        assert dim == hom.dim

        for point in p.elements:
            full = (Subspace.full(field, u.dim), v.sub(point))
            trivial = (u.sub(point), Subspace.zero(field, v.dim))
            for mode, extra in (("filter", full), ("ideal", trivial)):
                dim, kernels = eliminations(lambda: factor_ideal_dim(u, v, point, mode))
                ref, rows = reference_hom_solutions(u, v, pairs + [extra])
                check(kernels, rows)
                assert dim == ref.dim

        f = random_morphism(rng, hom)
        ideal, kernels = eliminations(lambda: _endo_solutions_fixing(f))
        kernel_of_f = Subspace(field, u.dim, f.mat.null_rows())
        ref, rows = reference_hom_solutions(
            u, u, [(u.sub(s), u.sub(s)) for s in p.elements]
            + [(Subspace.full(field, u.dim), kernel_of_f)])
        check(kernels, rows)
        assert ideal.flat == ref
    assert dropped


def test_hom_pairs_keep_rows_past_the_pivots_below():
    """a, b < s < c, and e apart.  U(a) = <(1,0,0)> and U(b) = <(1,1,0)>
    share pivot column 0, so at s = k^3 the rows at pivots 1 and 2 are
    kept: more than a complement of U(a) + U(b), which has pivots 0 and 1.
    c adds no rows (U(c) = U(s)) and e none (V(e) is full), and neither
    gets a quotient map.  Hom is the maps with e0, e1 -> 0, e2 -> <(1,0)>."""
    from posetrep.sspace import _hom_pairs

    p = Poset.build("abcse", [("a", "s"), ("b", "s"), ("s", "c")])
    line = Subspace.from_rows(QQ, 2, [[1, 0]])
    u = SSpace(p, QQ, 3, {"a": Subspace.from_rows(QQ, 3, [[1, 0, 0]]),
                          "b": Subspace.from_rows(QQ, 3, [[1, 1, 0]]),
                          "s": Subspace.full(QQ, 3), "c": Subspace.full(QQ, 3),
                          "e": Subspace.from_rows(QQ, 3, [[0, 0, 1]])})
    v = SSpace(p, QQ, 2, {"s": line, "c": line, "e": Subspace.full(QQ, 2)})
    pairs = _hom_pairs(u, v)
    assert [rows for rows, _ in pairs] == [[(1, 0, 0)], [(1, 1, 0)], [(0, 1, 0), (0, 0, 1)]]
    assert [cut for _, cut in pairs] == [Matrix.identity(QQ, 2)] * 2 + [line.quotient_map()]
    hom = hom_space(u, v)
    assert hom.flat == reference_hom_solutions(u, v, [(u.sub(s), v.sub(s))
                                                      for s in p.elements])[0]
    assert hom.flat == Subspace.from_rows(QQ, 6, [[0, 0, 0, 0, 1, 0]])
    assert hom_dim(u, v) == 1


# properness ------------------------------------------------------------------


def test_identity_is_proper():
    v = two_lines_space()
    assert SMorphism.identity(v).is_proper()


def test_structural_mono_is_proper():
    v = two_lines_space()
    _, kappa = e_sub(v, "p")
    assert kappa.is_proper()
    _, pi = e_quot(v, "p")
    assert pi.is_proper()


def test_embedding_with_wrong_image_is_not_proper():
    p = antichain_poset("p", "a")
    v = two_lines_space()
    k_empty = simple_filter_space(p, QQ, ())
    f = SMorphism(k_empty, v, Matrix(QQ, [[1, 0]], 2))
    assert not f.is_proper()


def test_is_iso_is_decided_by_the_inverse_alone(monkeypatch):
    """is_iso runs only what inverse() runs: one elimination, for the matrix
    inverse, singular or not; the images of the V(s) under the inverse are
    only reduced against the U(s), with no elimination of their own."""
    from posetrep import linalg

    calls = []
    kernel = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda *a: calls.append(a) or kernel(*a))
    p = antichain_poset("x", "y")
    v = SSpace(p, QQ, 2, {"x": Subspace.from_rows(QQ, 2, [[1, 0]])})
    u = SSpace(p, QQ, 2, {})
    cases = [(SMorphism.identity(v), True), (SMorphism(v, v, Matrix(QQ, [[2, 0], [1, 3]])), True),
             (SMorphism(v, v, Matrix(QQ, [[1, 0], [0, 0]])), False),
             (SMorphism(v, v, Matrix.zeros(QQ, 2, 2)), False),
             (SMorphism(u, v, Matrix.identity(QQ, 2)), False)]
    for f, iso in cases:
        calls.clear()
        f.inverse()
        by_inverse = len(calls)
        calls.clear()
        assert f.is_iso() is iso
        assert len(calls) == by_inverse
        assert len(calls) == 1


# kernels ---------------------------------------------------------------------------


def test_kernel_of_structural_epi_is_e_sub():
    """The kernel of pi_p, the preimages of the V(s) under the canonical
    basis of the matrix kernel, is E^p v with kappa_p as its inclusion."""
    rng = random.Random(5)
    for _ in range(30):
        p = random_poset(rng, 5)
        v = random_sspace(rng, p, QQ, 4)
        pt = rng.choice(p.elements)
        _, pi = e_quot(v, pt)
        k = pi.mat.null_rows()
        ker = SSpace(p, QQ, k.nrows, {s: v.sub(s).preimage(k) for s in p.elements})
        ep, kappa = e_sub(v, pt)
        assert ker == ep and k == kappa.mat


# standard spaces ---------------------------------------------------------------


def test_k_empty_equals_p_omega():
    p = antichain_poset("x", "y")
    assert simple_filter_space(p, QQ, ()) == projective_space(p, QQ, None)


def test_projective_and_injective_are_simples_of_one_point():
    p = chain("s", "t")
    assert simple_filter_space(p, QQ, ("s",)) == projective_space(p, QQ, "s")
    assert projective_space(p, QQ, None).dim == 1
    # the injectives, each the dual of a projective of the opposite poset
    injective_s = dualize(projective_space(p.opposite(), QQ, "s"))
    assert injective_s == ideal_simple(p, QQ, ("s",))
    assert injective_s.sub("s").is_zero() and injective_s.sub("t").is_full()
    assert dualize(projective_space(p.opposite(), QQ, None)) == ideal_simple(p, QQ, ())


def test_two_chain_simples_pairwise_nonisomorphic():
    p = chain("s", "t")
    simples = [simple_filter_space(p, QQ, a) for a in p.antichains()]
    assert len(simples) == 3
    for i, a in enumerate(simples):
        for j, b in enumerate(simples):
            expected = "iso" if i == j else "not_iso"
            assert are_isomorphic(a, b).status == expected


def test_filter_and_ideal_simples_coincide():
    rng = random.Random(7)
    for _ in range(30):
        p = random_poset(rng, 5)
        f = p.generated_filter(rng.sample(list(p.elements), rng.randrange(len(p) + 1)))
        k_f = simple_filter_space(p, QQ, minimal(p, f))
        k_upper = ideal_simple(p, QQ, maximal(p, set(p.elements) - f))
        assert k_f == k_upper


# duality -------------------------------------------------------------------------


def test_double_dual_is_identity():
    rng = random.Random(8)
    for _ in range(30):
        p = random_poset(rng, 5)
        v = random_sspace(rng, p, QQ, 4)
        assert dualize(dualize(v)) == v


def test_dual_of_projective_is_injective():
    rng = random.Random(9)
    for _ in range(20):
        p = random_poset(rng, 5)
        t = rng.choice(p.elements)
        assert dualize(projective_space(p, QQ, t)) == ideal_simple(p.opposite(), QQ, (t,))
    p = random_poset(rng, 4)
    assert dualize(projective_space(p, QQ, None)) == ideal_simple(p.opposite(), QQ, ())


def test_dual_morphism_preserves_properness():
    rng = random.Random(10)
    hits = 0
    for _ in range(60):
        p = random_poset(rng, 4)
        u = random_sspace(rng, p, F5, 3)
        v = random_sspace(rng, p, F5, 3)
        f = random_morphism(rng, hom_space(u, v))
        if f.is_proper():
            hits += 1
            assert f.dualize().is_proper()
    assert hits > 5


# E functors -----------------------------------------------------------------------


def test_e_functor_worked_example():
    v = two_lines_space()
    ep, _ = e_sub(v, "p")
    assert ep.dim == 1
    assert ep.sub("p").is_full()
    assert ep.sub("a").is_zero()
    eq, _ = e_quot(v, "p")
    assert eq.dim == 1
    assert eq.sub("p").is_zero()
    assert eq.sub("a").is_full()


def test_e_functor_degenerate_cases():
    p = antichain_poset("p", "a")
    v = SSpace(p, QQ, 2, {"p": Subspace.full(QQ, 2)})
    assert e_quot(v, "p")[0].dim == 0
    assert e_sub(v, "a")[0].dim == 0


def test_e_quot_additive():
    rng = random.Random(11)
    for _ in range(30):
        p = random_poset(rng, 4)
        u = random_sspace(rng, p, QQ, 3)
        v = random_sspace(rng, p, QQ, 3)
        pt = rng.choice(p.elements)
        assert e_quot(direct_sum(u, v), pt)[0] == direct_sum(e_quot(u, pt)[0], e_quot(v, pt)[0])
        assert e_sub(direct_sum(u, v), pt)[0] == direct_sum(e_sub(u, pt)[0], e_sub(v, pt)[0])


def test_e_maps_are_functorial():
    rng = random.Random(12)
    for _ in range(25):
        p = random_poset(rng, 4)
        u = random_sspace(rng, p, F5, 3)
        v = random_sspace(rng, p, F5, 3)
        w = random_sspace(rng, p, F5, 3)
        f = random_morphism(rng, hom_space(u, v))
        g = random_morphism(rng, hom_space(v, w))
        pt = rng.choice(p.elements)
        for mode in ("filter", "ideal"):
            lhs = e_functor_map(f.then(g), pt, mode)
            rhs = e_functor_map(f, pt, mode).then(e_functor_map(g, pt, mode))
            assert lhs == rhs
            ident = e_functor_map(SMorphism.identity(u), pt, mode)
            assert ident.mat == Matrix.identity(F5, ident.source.dim)


def test_e_vanishing_and_factorizations():
    rng = random.Random(13)
    quota_full, quota_trivial = 0, 0
    for _ in range(200):
        p = random_poset(rng, 4)
        u = random_sspace(rng, p, F5, 3)
        v = random_sspace(rng, p, F5, 3)
        f = random_morphism(rng, hom_space(u, v))
        pt = rng.choice(p.elements)
        image = Subspace.full(F5, u.dim).image(f.mat)
        quot_zero = e_functor_map(f, pt, "filter").is_zero()
        assert quot_zero == v.sub(pt).contains(image)
        if quot_zero and u.dim and quota_full < 20:
            quota_full += 1
            ev, kappa = e_sub(v, pt)
            head = SMorphism(u, ev, v.sub(pt).express_rows(f.mat))
            assert ev.sub(pt).is_full()
            assert head.then(kappa) == f
        sub_zero = e_functor_map(f, pt, "ideal").is_zero()
        assert sub_zero == u.sub(pt).image(f.mat).is_zero()
        if sub_zero and quota_trivial < 20:
            quota_trivial += 1
            eu, pi = e_quot(u, pt)
            lift = u.sub(pt).complement()
            tail = SMorphism(eu, v, lift * f.mat)
            assert eu.sub(pt).is_zero()
            assert pi.then(tail) == f
    assert quota_full and quota_trivial


def test_kappa_left_minimal_iff_no_trivial_summand():
    rng = random.Random(14)
    for _ in range(12):
        p = random_poset(rng, 3)
        pt = rng.choice(p.elements)
        v = random_sspace(rng, p, F5, 2)
        if v.sub(pt).is_zero() and v.dim:
            continue
        _, kappa = e_sub(v, pt)
        base = is_left_minimal(kappa)
        trivial_bit = ideal_simple(p, F5, (pt,))
        bigger = direct_sum(v, trivial_bit)
        _, kappa2 = e_sub(bigger, pt)
        assert not is_left_minimal(kappa2)
        if base and v.dim:
            # v itself then had no summand trivial at pt; adding one flips it
            assert trivial_bit.sub(pt).is_zero()


def test_unique_proper_substructure():
    v = three_lines_space()
    ep, inc = e_sub(v, "x")
    assert inc.is_proper()
    # perturb one subspace of the substructure and properness must fail
    wrong = SSpace(ep.poset, QQ, ep.dim,
                   {**ep.assign, "y": Subspace.full(QQ, ep.dim)}, validate=False)
    with_wrong = SMorphism(wrong, v, inc.mat, validate=False)
    assert not with_wrong.is_proper()


# direct sums and isomorphism ------------------------------------------------------


def test_direct_sum_with_zero():
    rng = random.Random(15)
    p = random_poset(rng, 4)
    v = random_sspace(rng, p, QQ, 3)
    assert direct_sum(v, zero_space(p, QQ)) == v


def test_direct_sum_dims_add():
    rng = random.Random(16)
    p = random_poset(rng, 4)
    u = random_sspace(rng, p, QQ, 3)
    v = random_sspace(rng, p, QQ, 3)
    s = direct_sum(u, v)
    assert s.dim == u.dim + v.dim
    for x in p.elements:
        assert s.sub(x).dim == u.sub(x).dim + v.sub(x).dim


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=["Q", "F2", "F5"])
def test_direct_sum_is_the_block_diagonal_with_no_elimination(field, monkeypatch):
    """The block diagonal of RREF bases is in RREF: the n-ary sum runs no
    elimination, and at each point equals the reference RREF of the block
    rows taken in any order."""
    rng = random.Random(17 + (field.p or 0))
    for _ in range(10):
        p = random_poset(rng, 4)
        spaces = [random_sspace(rng, p, field, rng.randint(0, 3))
                  for _ in range(rng.randint(1, 4))]
        with monkeypatch.context() as m:
            m.setattr(linalg, "_rref", lambda *a: pytest.fail("direct_sum ran an elimination"))
            total = direct_sum(*spaces)
        n = sum(v.dim for v in spaces)
        assert total.dim == n
        for x in p.elements:
            rows, before = [], 0
            for v in spaces:
                rows += [(field.zero,) * before + r + (field.zero,) * (n - before - v.dim)
                         for r in v.sub(x).mat.rows]
                before += v.dim
            rng.shuffle(rows)
            assert total.sub(x).mat.rows == tuple(reference_rref(field, rows, n)[0])


def test_are_isomorphic_self():
    v = three_lines_space()
    res = are_isomorphic(v, v)
    assert res.is_iso and res.witness.mat == Matrix.identity(QQ, 2)


def test_are_isomorphic_distinct_simples():
    p = antichain_poset("x", "y")
    a = simple_filter_space(p, QQ, ("x",))
    b = simple_filter_space(p, QQ, ("y",))
    assert are_isomorphic(a, b).status == "not_iso"


def test_are_isomorphic_dim_mismatch():
    p = antichain_poset("x", "y")
    v = simple_filter_space(p, QQ, ("x",))
    assert are_isomorphic(v, direct_sum(v, simple_filter_space(p, QQ, ()))).status == "not_iso"


def test_are_isomorphic_after_base_change():
    rng = random.Random(17)
    found = 0
    for _ in range(30):
        p = random_poset(rng, 4)
        v = random_sspace(rng, p, F5, 3)
        if v.dim == 0:
            continue
        g = None
        while g is None or not g.is_invertible():
            g = Matrix(F5, [[rng.randrange(5) for _ in range(v.dim)] for _ in range(v.dim)], v.dim)
        moved = SSpace(p, F5, v.dim, {s: v.sub(s).image(g) for s in p.elements})
        res = are_isomorphic(v, moved)
        assert res.is_iso
        assert res.witness.inverse() is not None
        found += 1
    assert found > 10


def test_isomorphism_search_takes_only_its_two_spaces():
    """No seed and no budget to set, and no unchecked sum of morphisms."""
    import inspect

    assert list(inspect.signature(are_isomorphic).parameters) == ["u", "v"]
    assert not hasattr(SMorphism, "__add__")


def test_all_combinations_vary_the_first_coefficient_fastest():
    """The enumeration order, and so which witness a search finds first."""
    from posetrep.sspace import _all_combinations

    p = antichain_poset("x")
    k = simple_filter_space(p, Field.prime(3), ())
    hom = hom_space(direct_sum(k, k), k)
    assert hom.dim == 2
    assert (list(_all_combinations(hom))
            == [hom.combination((a, b)) for b in range(3) for a in range(3)])


def test_random_sspace_is_monotone_by_construction():
    """random_sspace does not validate what it builds; every draw must
    still pass the monotonicity check."""
    rng = random.Random(43)
    nested = 0
    for i in range(300):
        field = (F2, F5, QQ)[i % 3]
        p = random_poset(rng, 6)
        v = random_sspace(rng, p, field, 4)
        validate_sspace(v)
        nested += any(not v.sub(s).is_zero() for s, _ in p.covers())
    assert nested > 50


# Recorded with the construction that eliminated every row below each element.
RANDOM_SSPACE_DIGEST = "e2c32d5132bc961b0ae35bcfd57ed40d03e01eb083dba164a7bc5b1da323954b"


def test_random_sspace_draws_are_pinned():
    """200 seeded draws (F_2, F_5, Q; posets of at most 6 points), and the
    state of the stream after them, by digest: a faster construction must
    draw the same numbers and build the same spaces."""
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for i in range(200):
        field = (F2, F5, QQ)[i % 3]
        p = random_poset(rng, 6)
        v = random_sspace(rng, p, field, 5)
        digest.update(repr((v.dim, [(s, v.sub(s).mat.rows) for s in p.elements])).encode())
    digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == RANDOM_SSPACE_DIGEST


def test_mono_epi_criterion():
    rng = random.Random(18)
    for _ in range(40):
        p = random_poset(rng, 4)
        u = random_sspace(rng, p, F5, 3)
        v = random_sspace(rng, p, F5, 3)
        f = random_morphism(rng, hom_space(u, v))
        assert f.is_mono() == (f.mat.null_rows().nrows == 0)
        assert f.is_epi() == Subspace.full(F5, u.dim).image(f.mat).is_full()


def test_poset_mismatch_raises():
    u = three_lines_space()
    v = two_lines_space()
    with pytest.raises(PosetMismatch):
        hom_space(u, v)


def test_invalid_morphism_rejected():
    v = three_lines_space()
    u = simple_filter_space(v.poset, QQ, ("x",))
    with pytest.raises(InvalidMorphism):
        SMorphism(u, v, Matrix(QQ, [[0, 1]], 2))


# pinned search results -------------------------------------------------------


def _moved_pair(seed, field):
    """(v, v moved by an invertible matrix, an unrelated space w), on one
    random poset of at most 4 points."""
    rng = random.Random(seed)
    p = random_poset(rng, 4)
    v = random_sspace(rng, p, field, 3)
    g = None
    while g is None or not g.is_invertible():
        g = Matrix(field, [[rng.randrange(-2, 3) for _ in range(v.dim)] for _ in range(v.dim)],
                   v.dim)
    moved = SSpace(p, field, v.dim, {s: v.sub(s).image(g) for s in p.elements})
    return v, moved, random_sspace(rng, p, field, 3)


ISO_PINS = [
    (F2, 0, "moved", "iso", False, [[1, 0], [1, 1]]),
    (F2, 0, "other", "not_iso", False, None),
    (F2, 4, "moved", "iso", False, [[1, 0, 0], [0, 1, 0], [1, 0, 1]]),
    (F2, 4, "other", "not_iso", False, None),
    (F2, 6, "moved", "iso", False, [[0, 1, 1], [1, 0, 0], [1, 1, 0]]),
    (F2, 6, "other", "not_iso", False, None),
    (F3, 0, "moved", "iso", False, [[1, 0], [2, 2]]),
    (F3, 0, "other", "not_iso", False, None),
    (F3, 4, "moved", "iso", False, [[0, 0, 1], [1, 0, 0], [0, 2, 0]]),
    (F3, 4, "other", "not_iso", False, None),
    (F3, 6, "moved", "iso", False, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    (F3, 6, "other", "not_iso", False, None),
    (QQ, 0, "moved", "iso", True, [[1, 1], [1, 0]]),
    (QQ, 0, "other", "not_iso", False, None),
    (QQ, 4, "moved", "iso", False, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    (QQ, 4, "other", "not_iso", False, None),
    (QQ, 6, "moved", "iso", True, [[1, 0, 0], [0, 1, 25], [0, 0, Fraction(-45, 2)]]),
    (QQ, 6, "other", "not_iso", False, None),
]


@pytest.mark.parametrize("field, seed, kind, status, sampled, witness", ISO_PINS,
                         ids=[f"{f}-{s}-{k}" for f, s, k, *_ in ISO_PINS])
def test_are_isomorphic_pinned_statuses_and_witnesses(field, seed, kind, status, sampled,
                                                      witness, monkeypatch):
    """Which witness a search returns follows its enumeration order; the Q
    pairs marked sampled find theirs among the sampled candidates."""
    from posetrep import sspace

    reached = []
    candidates = sspace._sampled_candidates
    monkeypatch.setattr(sspace, "_sampled_candidates",
                        lambda hom: reached.append(hom) or candidates(hom))
    v, moved, other = _moved_pair(seed, field)
    res = are_isomorphic(v, moved if kind == "moved" else other)
    assert res.status == status
    assert bool(reached) is sampled
    if witness is None:
        assert res.witness is None
    else:
        assert res.witness.mat == Matrix(field, witness, v.dim)
        assert (res.witness.source, res.witness.target) == (v, moved)


def test_are_isomorphic_pinned_sampled_witnesses_over_f3(monkeypatch):
    """Over F_3, End of a plane in k^4 has dim 12 and 3^12 > ISO_BUDGET, so
    the search samples: here the witnesses are random combinations."""
    from posetrep import sspace

    reached = []
    candidates = sspace._sampled_candidates
    monkeypatch.setattr(sspace, "_sampled_candidates",
                        lambda hom: reached.append(hom) or candidates(hom))
    p = Poset.build(["x"], [])

    def plane(rows):
        return SSpace(p, F3, 4, {"x": Subspace.from_rows(F3, 4, rows)})

    u = plane([[1, 0, 0, 0], [0, 1, 0, 0]])
    pins = [([[0, 0, 1, 0], [0, 0, 0, 1]], [[0, 0, 2, 1], [0, 0, 2, 0], [1, 1, 2, 0], [2, 0, 0, 2]]),
            ([[1, 1, 1, 1], [0, 1, 2, 0]], [[2, 1, 0, 2], [2, 0, 1, 2], [1, 1, 2, 0], [2, 0, 0, 2]])]
    for rows, witness in pins:
        reached.clear()
        res = are_isomorphic(u, plane(rows))
        assert res.status == "iso" and len(reached) == 1
        assert res.witness.mat == Matrix(F3, witness)
    assert are_isomorphic(u, plane([[1, 1, 1, 1]])).status == "not_iso"


IDEMPOTENT_PINS = [
    (F2, 0, [[1, 0], [0, 0]]),
    (F2, 4, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    (F2, 6, [[1, 0, 0], [0, 0, 0], [0, 1, 1]]),
    (F2, 11, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    (F3, 0, [[0, 1], [0, 1]]),
    (F3, 4, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    (F3, 6, [[1, 0, 0], [0, 0, 0], [0, 2, 1]]),
    (F3, 11, [[1, 1, 0], [0, 0, 0], [0, 0, 0]]),
]


@pytest.mark.parametrize("field, seed, idempotent", IDEMPOTENT_PINS,
                         ids=[f"{f}-{s}" for f, s, _ in IDEMPOTENT_PINS])
def test_find_idempotent_pinned_returns(field, seed, idempotent):
    from posetrep.sspace import find_idempotent

    rng = random.Random(seed)
    p = random_poset(rng, 4)
    v = random_sspace(rng, p, field, 3)
    e = find_idempotent(hom_space(v, v))
    assert e.mat == Matrix(field, idempotent) and e.source == e.target == v


def test_find_idempotent_exhausts_a_local_end():
    """Four subspaces of F_2^3 whose End has dim 2 and no idempotent
    besides 0 and 1."""
    from posetrep.sspace import find_idempotent

    p = antichain_poset("a", "b", "c", "d")
    rows = {"a": [[1, 0, 1], [0, 1, 0]], "b": [[0, 0, 1]], "c": [[1, 0, 1], [0, 1, 1]],
            "d": [[1, 0, 0]]}
    v = SSpace(p, F2, 3, {s: Subspace.from_rows(F2, 3, r) for s, r in rows.items()})
    end = hom_space(v, v)
    assert end.dim == 2 and find_idempotent(end) is None


def test_hom_space_and_hom_dim_make_no_morphism(monkeypatch):
    """A Hom space is its flat solution space; no SMorphism is made until
    the basis is read."""
    from posetrep import sspace

    rng = random.Random(47)
    cases = []
    for field in (QQ, F2, F5):
        for _ in range(10):
            p = random_poset(rng, 5)
            cases.append((random_sspace(rng, p, field, 3), random_sspace(rng, p, field, 3)))
    with monkeypatch.context() as m:
        m.setattr(sspace.SMorphism, "__init__",
                  lambda *a, **k: pytest.fail("an SMorphism was made"))
        homs = [hom_space(u, v) for u, v in cases]
        dims = [hom_dim(u, v) for u, v in cases]
    assert dims == [hom.dim for hom in homs]
    assert any(dims)
    for hom in homs:
        assert [f.mat.rows for f in hom.basis] == [
            tuple(r[i * hom.target.dim:(i + 1) * hom.target.dim] for i in range(hom.source.dim))
            for r in hom.flat.mat.rows]
