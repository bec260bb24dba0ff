import gc
import hashlib
import random
from itertools import product

import pytest

from posetrep.errors import GuardrailExceeded, PosetMismatch
from posetrep.linalg import QQ, Field, Matrix, Subspace
from posetrep import oracle
from posetrep.differentiation import applicability_width, derive_poset, nu_count
from posetrep.oracle import (MAX_SUBSPACES, DimCensus, EnumConfig, OracleCensus,
                             _assignment_to_space, _classes, _general_linear,
                             _image_rows, _monotone_assignments, _point_masks,
                             _sampled_group, _subspace_count, all_subspaces,
                             cross_check_nu, enumerate_indecomposables,
                             is_indecomposable)
from posetrep.poset import Poset
from posetrep.randgen import random_poset
from posetrep import sspace
from posetrep.sspace import (SSpace, are_isomorphic, direct_sum, dualize,
                             hom_space, simple_filter_space)
from posetrep.verify import all_posets_up_to

from helpers import antichain_poset, chain, chain_sum, poset_112

F2 = Field.prime(2)


def test_all_subspaces_counts():
    assert len(all_subspaces(F2, 0)) == 1
    assert len(all_subspaces(F2, 1)) == 2
    assert len(all_subspaces(F2, 2)) == 5
    assert len(all_subspaces(F2, 3)) == 16
    f3 = Field.prime(3)
    assert len(all_subspaces(f3, 2)) == 6  # 1 + 4 + 1


# The group action as matrices: the reference for the line permutations.

def _reference_general_linear(field, n):
    for entries in product(range(field.p), repeat=n * n):
        m = Matrix(field, [entries[i * n:(i + 1) * n] for i in range(n)], n)
        if m.is_invertible():
            yield m


def _reference_sampled_group(field, n, count, rng):
    found = 0
    while found < count:
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(n)]
                           for _ in range(n)], n)
        if m.is_invertible():
            found += 1
            yield m


def _reference_tables(subs, matrices):
    index = {s.mat.rows: i for i, s in enumerate(subs)}
    return [tuple(index[s.image(g).mat.rows] for s in subs) for g in matrices]


def _forced_tables(subs, group):
    """Every image row, made in reverse order, turned into one table per
    group element."""
    row = _image_rows(_point_masks(subs), group)
    rows = [row(j) for j in reversed(range(len(subs)))][::-1]
    return list(zip(*rows))


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_group_action_matches_matrices(q, n):
    field = Field.prime(q)
    subs = all_subspaces(field, n)
    got = _forced_tables(subs, _general_linear(field, n))
    assert got == _reference_tables(subs, _reference_general_linear(field, n))


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (5, 3), (7, 2)])
def test_sampled_group_action_matches_matrices(q, n):
    """Same tables from the same draws: the rng ends in the same state,
    as the group is read when the rows are set up, before any row is made."""
    field = Field.prime(q)
    subs = all_subspaces(field, n)
    rng, ref_rng = random.Random(q * 10 + n), random.Random(q * 10 + n)
    got = _forced_tables(subs, _sampled_group(field, n, 150, rng))
    want = _reference_tables(subs, _reference_sampled_group(field, n, 150, ref_rng))
    assert got == want
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("q,n", [(2, 0), (2, 3), (2, 4), (3, 3), (5, 2), (7, 2)])
def test_point_masks_encode_containment(q, n):
    field = Field.prime(q)
    subs = all_subspaces(field, n)
    masks = _point_masks(subs)
    assert len(set(masks)) == len(subs)
    for s, m in zip(subs, masks):
        assert bin(m).count("1") == (q ** s.dim - 1) // (q - 1)
    for big, mb in zip(subs, masks):
        for small, ms in zip(subs, masks):
            assert (ms & ~mb == 0) == big.contains(small)


def test_monotone_assignments_match_brute_force():
    """Exactly the monotone assignments, in lexicographic order.  The chain
    listed top-first and the poset with its minimum listed last bound an
    element by the choices of earlier elements above it."""
    top_first = Poset.build(["c", "b", "a"], [("a", "b"), ("b", "c")])
    min_last = Poset.build(["x", "y", "z", "m"], [("m", "x"), ("m", "y"), ("x", "z")])
    assert top_first.elements == ("c", "b", "a") and min_last.elements[-1] == "m"
    cases = [(F2, p) for p in (poset_112(), chain("a", "b", "c"),
                               antichain_poset("x", "y"), top_first, min_last)]
    cases.append((Field.prime(3), min_last))
    for field, p in cases:
        subs = all_subspaces(field, 2)
        pairs = [(i, j) for i, s in enumerate(p.elements)
                 for j, t in enumerate(p.elements) if p.lt(s, t)]
        brute = [a for a in product(range(len(subs)), repeat=len(p))
                 if all(subs[a[j]].contains(subs[a[i]]) for i, j in pairs)]
        assert _monotone_assignments(p, _point_masks(subs), None, ()) == brute


def test_subspace_cap():
    for q in (2, 3, 5, 7):
        for n in range(5 if q < 7 else 4):
            assert _subspace_count(q, n) == len(all_subspaces(Field.prime(q), n))
    one = chain("a")
    for q, n in ((2, 4), (3, 4), (7, 3), (61, 2), (65521, 1)):
        EnumConfig(one, q, n).check()
    assert _subspace_count(65521, 2) == 65524 > MAX_SUBSPACES
    with pytest.raises(GuardrailExceeded, match="65524 subspaces"):
        enumerate_indecomposables(EnumConfig(one, 65521, 2))
    EnumConfig(one, 65521, 2, force=True).check()


def test_cross_check_refuses_before_the_recursion(monkeypatch):
    def no_recursion(p):
        raise AssertionError("nu_count ran before the guardrail")

    monkeypatch.setattr(oracle, "nu_count", no_recursion)
    big = antichain_poset(*"abcdefg")
    with pytest.raises(GuardrailExceeded):
        cross_check_nu(big, EnumConfig(big, 2, 2))
    with pytest.raises(GuardrailExceeded):
        cross_check_nu(chain("a"), EnumConfig(chain("a"), 65521, 2))


CYCLE_FREE_CALLS = {
    "census-dim3": lambda: enumerate_indecomposables(EnumConfig(poset_112(), 2, 3)),
    "antichains": lambda: poset_112().antichains(),
    "chain-cover": lambda: poset_112().width(),
    "nu-first": lambda: nu_count(poset_112()),
    "nu-all-paths": lambda: nu_count(antichain_poset("x", "y", "z"), strategy="all-paths"),
    "nu-all-paths-122": lambda: nu_count(chain_sum(1, 2, 2), strategy="all-paths"),
    "derive-poset": lambda: derive_poset(chain_sum(1, 2, 2), "b0", "filter"),
    "applicability-width": lambda: applicability_width(chain_sum(1, 2, 2), "b0", "filter"),
}


@pytest.mark.parametrize("name", sorted(CYCLE_FREE_CALLS))
def test_calls_leave_no_cyclic_garbage(name):
    """Recursive closures are dropped before return, so their results are
    freed by reference counting, not by a later cyclic collection."""
    gc.collect()
    gc.disable()
    try:
        CYCLE_FREE_CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_census_two_chain():
    census = enumerate_indecomposables(EnumConfig(chain("s", "t"), 2, 2))
    assert census.total_indecomposable == 3
    assert census.per_dim[0].n_indecomposable == 3
    assert census.per_dim[1].n_indecomposable == 0


def test_census_three_antichain():
    census = enumerate_indecomposables(EnumConfig(antichain_poset("x", "y", "z"), 2, 2))
    assert census.per_dim[0].n_indecomposable == 8
    assert census.per_dim[1].n_indecomposable == 1
    assert census.total_indecomposable == 9
    dim2 = census.per_dim[1].reps[0]
    assert dim2.dims_profile() == (1, 1, 1)


def test_census_empty_poset():
    census = enumerate_indecomposables(EnumConfig(Poset.build([], []), 2, 2))
    assert census.total_indecomposable == 1
    assert census.per_dim[0].n_indecomposable == 1


def test_guardrails():
    with pytest.raises(GuardrailExceeded):
        enumerate_indecomposables(EnumConfig(chain("s", "t"), 2, 5))
    big = antichain_poset(*"abcdefg")
    with pytest.raises(GuardrailExceeded):
        enumerate_indecomposables(EnumConfig(big, 2, 1))


def test_is_indecomposable_simples():
    rng = random.Random(0)
    for _ in range(20):
        p = random_poset(rng, 4)
        a = rng.choice(p.antichains())
        assert is_indecomposable(simple_filter_space(p, F2, a)) is True


def test_is_indecomposable_rejects_square():
    p = chain("s", "t")
    ka = simple_filter_space(p, F2, ("s",))
    assert is_indecomposable(direct_sum(ka, ka)) is False


def test_dim2_three_antichain_space_is_indecomposable():
    p = antichain_poset("x", "y", "z")
    v = SSpace(p, F2, 2, {
        "x": Subspace.from_rows(F2, 2, [[1, 0]]),
        "y": Subspace.from_rows(F2, 2, [[0, 1]]),
        "z": Subspace.from_rows(F2, 2, [[1, 1]]),
    })
    assert is_indecomposable(v) is True
    assert hom_space(v, v).dim == 1


def test_indecomposability_over_q():
    """Over Q there is no exhaustive idempotent search: dim End = 1 still
    certifies, anything larger is undecided rather than a TypeError."""
    p = antichain_poset("x", "y", "z")
    lines = SSpace(p, QQ, 2, {
        "x": Subspace.from_rows(QQ, 2, [[1, 0]]),
        "y": Subspace.from_rows(QQ, 2, [[0, 1]]),
        "z": Subspace.from_rows(QQ, 2, [[1, 1]]),
    })
    assert is_indecomposable(lines) is True
    ka = simple_filter_space(chain("s", "t"), QQ, ("s",))
    assert is_indecomposable(ka) is True
    square = direct_sum(ka, ka)
    assert is_indecomposable(square) is None


def test_cross_check_refuses_a_config_for_another_poset():
    """The census must be of the poset whose recursion it is checked against."""
    p = chain_sum(1, 1, 1)
    for other in (chain("a"), chain_sum(1, 1, 2), p.opposite().restrict(["a0", "b0"])):
        with pytest.raises(PosetMismatch):
            cross_check_nu(p, EnumConfig(other, 2, 2))
    same = Poset.build(["c0", "b0", "a0"], [])
    assert cross_check_nu(p, EnumConfig(same, 2, 2)).complete


def test_cross_check_three_antichain():
    report = cross_check_nu(antichain_poset("x", "y", "z"),
                            EnumConfig(antichain_poset("x", "y", "z"), 2, 2))
    assert report.nu_value == 9 and report.oracle_total == 9
    assert report.complete
    assert "dim | #classes | #indecomposable" in report.text()


def test_cross_check_chain_three():
    p = chain("a", "b", "c")
    report = cross_check_nu(p, EnumConfig(p, 2, 2))
    assert report.nu_value == 4 and report.oracle_total == 4 and report.complete


def test_cross_check_112():
    p = poset_112()
    report = cross_check_nu(p, EnumConfig(p, 2, 3))
    assert report.nu_value == 15
    assert report.oracle_total == 15
    assert report.complete


def test_duality_preserves_census():
    rng = random.Random(2)
    for _ in range(5):
        p = random_poset(rng, 4)
        census = enumerate_indecomposables(EnumConfig(p, 2, 2))
        op_census = enumerate_indecomposables(EnumConfig(p.opposite(), 2, 2))
        for mine, theirs in zip(census.per_dim, op_census.per_dim):
            assert mine.n_indecomposable == theirs.n_indecomposable
        # the duals of my representatives are representatives over there
        for d in census.per_dim:
            for rep in d.reps:
                dual = dualize(rep)
                assert is_indecomposable(dual) is True


def test_sampled_dim4_census_runs():
    census = enumerate_indecomposables(EnumConfig(chain("s", "t"), 2, 4))
    assert census.sampled
    assert census.total_indecomposable == 3
    assert census.per_dim[3].n_indecomposable == 0
    assert census.table().endswith("\n(isomorphism classing sampled at dim 4)")


@pytest.mark.parametrize("q,max_dim,note", [(17, 2, "dim 2"), (7, 3, "dim 3"),
                                            (3, 3, None)])
def test_table_names_the_sampled_dimensions(q, max_dim, note):
    census = enumerate_indecomposables(EnumConfig(chain("a"), q, max_dim))
    assert census.sampled is (note is not None)
    last = census.table().splitlines()[-1]
    if note is None:
        assert not last.startswith("(")
    else:
        assert last == f"(isomorphism classing sampled at {note})"


def test_table_names_several_sampled_dimensions():
    """Over F_17 GL(2) and GL(3) are both sampled (the table alone; the
    census itself is pinned below)."""
    census = OracleCensus(EnumConfig(chain("a"), 17, 3),
                          [DimCensus(n) for n in (1, 2, 3)], sampled=True)
    assert census.table().endswith("\n(isomorphism classing sampled at dims 2, 3)")


def test_dim1_classes_are_the_simples():
    rng = random.Random(3)
    for _ in range(6):
        p = random_poset(rng, 5)
        census = enumerate_indecomposables(EnumConfig(p, 2, 1))
        assert census.per_dim[0].n_indecomposable == len(p.antichains())


def has_summand_full_at(v, point):
    """Over F_2: whether v has a nonzero direct summand W with W(point) = W,
    that is an idempotent e != 0 of End(v) whose image lies in V(point)."""
    end = hom_space(v, v)
    whole = Subspace.full(F2, v.dim)
    for coeffs in product((0, 1), repeat=end.dim):
        e = end.combination(coeffs)
        if not e.is_zero() and e * e == e and v.sub(point).contains(whole.image(e)):
            return True
    return False


def test_density_at_desk_scale():
    """Every derived-poset space the oracle finds at dim <= 2 is the image
    of an enumerated space with no summand full at the point."""
    from posetrep.differentiation import derive_poset, diff_space
    from posetrep.oracle import _assignment_to_space, _monotone_assignments

    p = antichain_poset("x", "y", "z")
    derived = derive_poset(p, "x", "filter")
    target_census = enumerate_indecomposables(EnumConfig(derived.result, 2, 2))
    subs2 = all_subspaces(F2, 2)
    images = []
    for n in (0, 1, 2):
        subs = all_subspaces(F2, n)
        for a in _monotone_assignments(p, _point_masks(subs), None, ()):
            v = _assignment_to_space(p, F2, subs, a)
            if has_summand_full_at(v, "x"):
                continue
            images.append(diff_space(v, "x", "filter", derived))
    for d in target_census.per_dim:
        for rep in d.reps:
            assert any(are_isomorphic(rep, img).is_iso
                       for img in images if img.dim == rep.dim)


# The direct-sum rule at exact dimensions.

@pytest.mark.parametrize("q,max_dim,max_points", [(2, 3, 4), (3, 2, 3), (5, 2, 3)])
def test_direct_sum_verdicts_match_idempotent_search(q, max_dim, max_points):
    """Every class representative at an exact dimension is split by the
    direct-sum rule exactly when the End-ring search finds an idempotent."""
    field = Field.prime(q)
    for p in all_posets_up_to(max_points):
        for n, subs, reps, split in _classes(EnumConfig(p, q, max_dim), field):
            assert split is not None
            for rep in reps:
                space = _assignment_to_space(p, field, subs, rep)
                assert is_indecomposable(space) is (rep not in split), (p, n, rep)


def test_exact_dimensions_solve_no_hom_system(monkeypatch):
    """At an exact dimension the verdicts come from the direct-sum rule,
    and the classes from the stabiliser descent alone: no candidates are
    merged by isomorphism witnesses."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Hom system was solved at an exact dimension")

    def unmerged(*args, **kwargs):
        raise AssertionError("candidates were merged at an exact dimension")

    monkeypatch.setattr(oracle, "_merge_sampled_classes", unmerged)
    monkeypatch.setattr(oracle, "is_indecomposable", refuse)
    monkeypatch.setattr(sspace, "hom_space", refuse)
    monkeypatch.setattr(sspace, "_hom_solutions", refuse)
    census = enumerate_indecomposables(EnumConfig(poset_112(), 2, 3))
    assert not census.sampled
    assert [d.n_indecomposable for d in census.per_dim] == [12, 3, 0]
    p = chain_sum(1, 1, 2)
    report = cross_check_nu(p, EnumConfig(p, 2, 3))
    assert report.oracle_total == report.nu_value == 15 and report.complete


# The stabiliser descent against listing every monotone assignment and
# collapsing the list into orbits, with a set of the assignments seen.

def _listed_assignments(poset, masks):
    elements = poset.elements
    out = [()]
    for i, s in enumerate(elements):
        below = [k for k in range(i) if poset.leq(elements[k], s)]
        above = [k for k in range(i) if poset.leq(s, elements[k])]
        grown = []
        for a in out:
            need, room = 0, -1
            for k in below:
                need |= masks[a[k]]
            for k in above:
                room &= masks[a[k]]
            grown += [a + (j,) for j, mask in enumerate(masks)
                      if not need & ~mask and not mask & ~room]
        out = grown
    return out


def _listed_classes(poset, q, max_dim):
    """(n, the least assignment of each orbit in the order the listing
    meets the orbits, those whose orbit holds a direct sum) per exact n."""
    subs, classes = {}, {}
    for n in range(1, max_dim + 1):
        subs[n], masks, row, _ = oracle._action(q, n)
        sums = oracle._direct_sums(classes, subs, n)
        seen, reps, split = set(), [], set()
        for a in _listed_assignments(poset, masks):
            if a in seen:
                continue
            orbit = set(zip(*[row(j) for j in a]))
            orbit.add(a)
            seen.update(orbit)
            reps.append(min(orbit))
            if not orbit.isdisjoint(sums):
                split.add(reps[-1])
        classes[n] = reps
        yield n, reps, split


@pytest.mark.parametrize("q,max_dim,sizes", [(2, 3, range(5)), (3, 3, range(5)),
                                             (5, 2, range(5)), (2, 3, [5])],
                         ids=["F2-up-to-4-points-dim3", "F3-up-to-4-points-dim3",
                              "F5-up-to-4-points-dim2", "F2-5-points-dim3"])
def test_descent_matches_listing_every_assignment(q, max_dim, sizes):
    """The same representatives in the same order, and the same split
    classes, as listing every assignment and collapsing the list; the
    empty poset is among the cases, with its one assignment ()."""
    field = Field.prime(q)
    for p in all_posets_up_to(max(sizes)):
        if len(p) in sizes:
            got = [(n, reps, split) for n, _, reps, split
                   in _classes(EnumConfig(p, q, max_dim), field)]
            assert got == list(_listed_classes(p, q, max_dim)), p


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3)], ids=["GL(2,3)", "GL(3,2)"])
def test_descent_under_a_partial_group(q, n):
    """The descent over any sublist of GL(n, q), as a sampled dimension
    walks it, skips only by real elements that fix the prefix: its leaves
    come in lexicographic order, include every leaf of the whole group's
    walk, and meet each class first at that leaf.  Classes are keyed by
    their least assignment over the whole group."""
    _, masks, row, group = oracle._action(q, n)
    identity = next(g for g in group if all(row(j)[g] == j for j in range(len(masks))))
    others = [g for g in group if g != identity]
    rng = random.Random(29)
    least = {}  # assignment -> the least of its orbit, filled an orbit at a time

    def key(a):
        if a not in least:
            orbit = set(zip(*[row(j) for j in a])) | {a}
            least.update(dict.fromkeys(orbit, min(orbit)))
        return least[a]

    for p in all_posets_up_to(4):
        full = _monotone_assignments(p, masks, row, group)
        for with_identity in (True, False):
            for size in (1, 2, 3, 8, len(group) // 2):
                part = sorted(rng.sample(others, size) + [identity] * with_identity)
                leaves = _monotone_assignments(p, masks, row, part)
                assert leaves == sorted(set(leaves)), (p, part)
                assert set(full) <= set(leaves), (p, part)
                first = {}
                for a in leaves:
                    first.setdefault(key(a), a)
                assert first == {m: m for m in full}, (p, part)


def test_image_rows_are_made_once():
    subs = all_subspaces(F2, 3)
    row = _image_rows(_point_masks(subs), _general_linear(F2, 3))
    assert row(5) is row(5)
    assert len(row(5)) == 168  # |GL(3, 2)|


def test_group_action_is_made_once_per_field_and_dimension(monkeypatch):
    """GL(n, q) and the subspaces it acts on are listed once per (q, n),
    and a sampled group is drawn once per (q, n) too."""
    made, drawn = [], []
    general_linear, sampled_group = oracle._general_linear, oracle._sampled_group
    monkeypatch.setattr(oracle, "_general_linear",
                        lambda field, n: made.append((field.p, n)) or general_linear(field, n))
    monkeypatch.setattr(oracle, "_sampled_group",
                        lambda field, n, *a: drawn.append((field.p, n)) or sampled_group(field, n, *a))
    oracle._action.cache_clear()
    try:
        p = chain(*"ab")
        first = [_census_text(enumerate_indecomposables(EnumConfig(p, 2, 4)))
                 for _ in range(2)]
        assert first[0] == first[1]
        assert made == [(2, 1), (2, 2), (2, 3)]
        assert drawn == [(2, 4)]
        again = _census_text(enumerate_indecomposables(EnumConfig(poset_112(), 2, 2)))
        assert made == [(2, 1), (2, 2), (2, 3)]
        oracle._action.cache_clear()
        assert _census_text(enumerate_indecomposables(EnumConfig(poset_112(), 2, 2))) == again
        assert made == [(2, 1), (2, 2), (2, 3), (2, 1), (2, 2)]
    finally:
        oracle._action.cache_clear()


# Census outputs pinned before the direct-sum rule and the image rows came
# in: per-dim counts, every representative's rows, and the table.  The
# F_3 dim-3 sweep was pinned before the stabiliser descent came in.

def _census_text(census):
    lines = []
    for d in census.per_dim:
        lines.append(f"{d.dim},{d.n_classes},{d.n_indecomposable},{d.n_undecided}")
        for rep in d.reps:
            lines.append(repr([rep.sub(s).mat.rows for s in rep.poset.elements]))
    lines.append(census.table())
    return "\n".join(lines)


PINNED_CENSUS_SWEEPS = {
    "F2-up-to-4-points-dim3": (
        lambda: [(p, 2, 3) for p in all_posets_up_to(4)],
        "2cf11c19de4a2d6e1abe81c85d3fc0fe074728caaffcd9ad52ff382dc6197f80"),
    "F3-up-to-4-points-dim2": (
        lambda: [(p, 3, 2) for p in all_posets_up_to(4)],
        "2dc08baaaa1ec88796bed5940cccce63b8e11b0bb56bd847b85e744c6d749b4c"),
    "F3-up-to-4-points-dim3": (
        lambda: [(p, 3, 3) for p in all_posets_up_to(4)],
        "7d68a88b44d7f1ccf46d3aafce6bac15995d9d53f96c61f1122e62eb10e78bed"),
    "F5-up-to-4-points-dim2": (
        lambda: [(p, 5, 2) for p in all_posets_up_to(4)],
        "1df4052e252828c945af159dc901bfd21b378bbb2c7ea32d4da300c3abc4abf4"),
    "F2-5-points-dim3": (
        lambda: [(p, 2, 3) for p in all_posets_up_to(5) if len(p) == 5],
        "70110eb7bfc047673baf48604908206b0733864619d81d4adf0869eb0d9dcb5a"),
    "F2-chains-dim4": (
        lambda: [(chain(*"abc"[:k]), 2, 4) for k in (1, 2, 3)],
        "2a8a1acc08312de8d4f1d876dc22a2d14e083e91cc00fe7670e646d63b31640a"),
    "F2-3-points-dim4": (
        lambda: [(p, 2, 4) for p in all_posets_up_to(3) if len(p) == 3],
        "4bacca091fe1b98f2dd5b434a018c745225f776f6bb1cdb1dabca93b2f259f56"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CENSUS_SWEEPS))
def test_census_outputs_are_pinned(name):
    cases, want = PINNED_CENSUS_SWEEPS[name]
    digest = hashlib.sha256()
    for p, q, max_dim in cases():
        census = enumerate_indecomposables(EnumConfig(p, q, max_dim))
        digest.update(_census_text(census).encode())
    assert digest.hexdigest() == want


@pytest.mark.parametrize("p,q,max_dim,table", [
    (chain("a"), 17, 3,
     "dim | #classes | #indecomposable\n"
     "  1 |        2 |               2\n"
     "  2 |        3 |               0\n"
     "  3 |        4 |               0\n"
     "(undecided classes: 2 at dim 2, 4 at dim 3)\n"
     "(isomorphism classing sampled at dims 2, 3)"),
    (chain("s", "t"), 2, 4,
     "dim | #classes | #indecomposable\n"
     "  1 |        3 |               3\n"
     "  2 |        6 |               0\n"
     "  3 |       10 |               0\n"
     "  4 |       15 |               0\n"
     "(isomorphism classing sampled at dim 4)"),
], ids=["F17-one-point-dim3", "F2-two-chain-dim4"])
def test_census_tables_are_pinned(p, q, max_dim, table):
    assert enumerate_indecomposables(EnumConfig(p, q, max_dim)).table() == table
