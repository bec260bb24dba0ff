import random

import pytest

from posetrep.differentiation import derive_poset, diff_space, factor_ideal_dim
from posetrep.errors import CycleDetected, DuplicateLabel, UnknownLabel
from posetrep.linalg import QQ, Subspace
from posetrep.poset import (MODES, Poset, applicability_width, applicable_moves,
                            derived_carrier, derived_set, is_applicable)
from posetrep.randgen import random_poset
from posetrep.sspace import SMorphism, SSpace, e_functor_map
from posetrep.verify import all_posets_up_to

from helpers import (antichain_leq, antichain_poset, chain, example510, maximal,
                     minimal, poset_112)


def test_build_two_chain():
    p = Poset.build(["s", "t"], [("s", "t")])
    assert p.leq("s", "t") and p.leq("s", "s") and not p.leq("t", "s")


def test_build_example510_closure():
    p = example510()
    for a, b in [("e", "a"), ("e", "b"), ("e", "c"),
                 ("g", "p"), ("g", "d"), ("g", "a"), ("g", "b"), ("g", "c")]:
        assert p.lt(a, b), (a, b)
    for a, b in [("d", "f"), ("a", "d")]:
        assert not p.leq(a, b) and not p.leq(b, a), (a, b)


def test_build_rejects_cycle():
    with pytest.raises(CycleDetected):
        Poset.build(["a", "b"], [("a", "b"), ("b", "a")])


def test_build_rejects_strict_self_relation():
    with pytest.raises(CycleDetected):
        Poset.build(["a"], [("a", "a")])
    with pytest.raises(CycleDetected):
        Poset.build(["a", "b"], [("a", "b"), ("b", "b")])


def test_build_rejects_bad_labels():
    with pytest.raises(DuplicateLabel):
        Poset.build(["a", "a"], [])
    with pytest.raises(UnknownLabel):
        Poset.build(["a"], [("a", "z")])


def test_generated_filter_example510():
    p = example510()
    assert p.generated_filter(["p"]) == {"p", "a", "b", "c"}
    assert p.generated_filter([]) == frozenset()


def test_generated_ideal_two_chain():
    p = chain("s", "t")
    assert p.generated_ideal(["t"]) == {"s", "t"}
    assert p.generated_filter(["t"]) == {"t"}


def test_antichains_two_chain():
    p = chain("s", "t")
    assert p.antichains() == [(), ("s",), ("t",)]
    assert p.width() == 1


def test_antichains_restricted_example510():
    p = example510().restrict(["d", "e", "f", "g"])
    assert p.antichains()[0] == ()
    got = set(p.antichains()[1:])
    assert got == {("d",), ("e",), ("f",), ("g",), ("d", "f"), ("e", "f")}
    assert len(got) == 6
    assert p.width() == 2


def test_antichains_three_antichain():
    p = antichain_poset("x", "y", "z")
    assert len(p.antichains()[1:]) == 7
    assert p.width() == 3


def test_meet_semilattice_two_incomparable():
    p = antichain_poset("d", "f")
    sl, members = derived_carrier(p, [], "filter")
    assert set(sl.elements) == {"d", "f", "d^f"}
    assert sl.lt("d^f", "d") and sl.lt("d^f", "f")
    assert not sl.leq("d", "f") and not sl.leq("f", "d")
    assert members == {"d": ("d",), "d^f": ("d", "f"), "f": ("f",)}


def test_meet_semilattice_two_chain_with_empty():
    """The carrier over [] leaves out the empty antichain, the top of the
    meet order; adjoined as the top, it completes A(S)."""
    p = chain("s", "t")
    carrier, members = derived_carrier(p, [], "filter")
    assert members == {"s": ("s",), "t": ("t",)}
    for a in members.values():
        assert antichain_leq(p, a, (), "meet") and not antichain_leq(p, (), a, "meet")
    sl = carrier.adjoin_top("{}")
    assert len(sl) == len(p.antichains()) == 3
    assert sl.lt("s", "t") and sl.lt("t", "{}") and sl.lt("s", "{}")


def test_join_semilattice_is_meet_of_opposite():
    rng = random.Random(1)
    for _ in range(25):
        p = random_poset(rng, 5)
        jn, jmap = derived_carrier(p, [], "ideal")
        mt, mmap = derived_carrier(p.opposite(), [], "filter")
        by_members = {m: lab for lab, m in mmap.items()}
        assert len(by_members) == len(mmap)
        rename = {lab: by_members[m] for lab, m in jmap.items()}
        assert set(rename.values()) == set(mt.elements)
        for a in jn.elements:
            for b in jn.elements:
                assert jn.leq(a, b) == mt.leq(rename[b], rename[a])


def test_derived_carrier_example510():
    p = example510()
    car, _ = derived_carrier(p, p.up("p"), "filter")
    assert set(car.elements) == {"p", "a", "b", "c", "d", "e", "f", "g", "d^f", "e^f"}
    assert car.lt("e", "p") and car.lt("d^f", "d") and car.lt("e^f", "f")


def test_derived_carrier_full_r_is_identity():
    p = example510()
    car, _ = derived_carrier(p, p.elements, "filter")
    assert car == p


def test_derived_carrier_filter_stays_filter():
    p = antichain_poset("x", "y", "z")
    car, _ = derived_carrier(p, ["x"], "filter")
    assert set(car.elements) == {"x", "y", "z", "y^z"}
    assert car.generated_filter(["x"]) == {"x"}


def test_derived_carrier_ideal_mode():
    p = antichain_poset("x", "y", "z")
    car, _ = derived_carrier(p, ["x"], "ideal")
    assert set(car.elements) == {"x", "y", "z", "yvz"}
    assert car.lt("y", "yvz") and car.lt("z", "yvz")
    assert car.is_ideal(["x"])


def test_transform_opposite():
    p = chain("s", "t").opposite()
    assert p.lt("t", "s")


def test_transform_adjoin_top():
    p = antichain_poset("x", "y", "z").adjoin_top("omega")
    assert len(p) == 4
    for s in "xyz":
        assert p.lt(s, "omega")


def test_transform_restrict_example510():
    p = example510().restrict(["d", "e", "f", "g"])
    expected = {("e", "d"), ("g", "e"), ("g", "f"), ("g", "d")}
    got = {(a, b) for a in p.elements for b in p.elements if p.lt(a, b)}
    assert got == expected


def test_dot_two_chain():
    dot = chain("s", "t").to_dot()
    assert '"s" -> "t";' in dot
    assert dot.count("->") == 1


def test_dot_example510_has_exactly_the_seven_cover_arrows():
    p = example510()
    assert set(p.covers()) == {("p", "a"), ("p", "b"), ("p", "c"),
                               ("e", "p"), ("e", "d"), ("g", "e"), ("g", "f")}
    assert p.to_dot().count("->") == 7


def test_dot_antichain_has_no_edges():
    assert "->" not in antichain_poset("x", "y", "z").to_dot()


def test_filter_antichain_bijection_random():
    rng = random.Random(2)
    for _ in range(40):
        p = random_poset(rng, 6)
        k = rng.randrange(0, len(p) + 1)
        t = rng.sample(list(p.elements), k)
        f = p.generated_filter(t)
        assert p.generated_filter(f) == f
        assert p.generated_filter(minimal(p, f)) == f
        i = p.generated_ideal(t)
        assert p.is_ideal(i)
        assert p.generated_ideal(maximal(p, i)) == i


def test_filter_restricts_to_filter():
    rng = random.Random(3)
    for _ in range(40):
        p = random_poset(rng, 6)
        f = p.generated_filter(rng.sample(list(p.elements), rng.randrange(0, len(p) + 1)))
        t = rng.sample(list(p.elements), rng.randrange(0, len(p) + 1))
        sub = p.restrict(t)
        assert sub.generated_filter(f & set(t)) == f & set(t)
        i = p.generated_ideal(rng.sample(list(p.elements), rng.randrange(0, len(p) + 1)))
        assert sub.is_ideal(i & set(t))


def test_principal_ideal_of_point_in_meet_semilattice():
    """Antichains below p in the meet order are those meeting (p); the
    antichains inside (p) are always among them."""
    rng = random.Random(4)
    for _ in range(30):
        p = random_poset(rng, 5)
        x = rng.choice(p.elements)
        down = p.down(x)
        for a in p.antichains()[1:]:
            below = antichain_leq(p, a, (x,), "meet")
            assert below == bool(set(a) & down)
            if set(a) <= down:
                assert below
            above = antichain_leq(p, (x,), a, "join")
            assert above == bool(set(a) & p.up(x))


def test_semilattice_extremes():
    rng = random.Random(5)
    for _ in range(25):
        p = random_poset(rng, 5)
        for mode, sl_mode, extreme in (("filter", "meet", minimal), ("ideal", "join", maximal)):
            sl, members = derived_carrier(p, [], mode)
            assert sorted(members.values()) == p.antichains()[1:]
            # the empty antichain, left out, is the top of the meet order
            # and the bottom of the join order
            for a in members.values():
                assert antichain_leq(p, a, (), "meet") and antichain_leq(p, (), a, "join")
            # min S is the one bottom of the meet order, max S the one top
            # of the join order (the bottom of its opposite)
            if mode == "ideal":
                sl = sl.opposite()
            ends = [x for x in sl.elements if all(sl.leq(x, y) for y in sl.elements)]
            assert len(ends) == 1
            assert members[ends[0]] == extreme(p, p.elements)


def test_singleton_embedding_matches_base_order():
    rng = random.Random(6)
    for _ in range(25):
        p = random_poset(rng, 5)
        sl = derived_carrier(p, [], "filter")[0]
        for a in p.elements:
            for b in p.elements:
                assert sl.leq(a, b) == p.leq(a, b)


def test_iterated_derivation_label_collision_gets_prime():
    base = Poset.build(["x", "y", "x^y"], [("x^y", "x"), ("x^y", "y")])
    sl, members = derived_carrier(base, [], "filter")
    labels = set(sl.elements)
    assert "x^y" in labels and "x^y'" in labels
    assert members["x^y"] == ("x^y",)
    assert members["x^y'"] == ("x", "y")
    assert sl.lt("x^y", "x^y'")


def test_mode_is_checked_at_every_entry():
    """A mode other than filter or ideal is refused, not read as ideal;
    derive_poset, differentiation with a derived poset given, the E
    functors on morphisms and the factor ideals rely on the same check.
    The words the E functors (quot, sub) and the factor ideals (full,
    trivial) once took are refused too."""
    p = antichain_poset("x", "y", "z")
    v = SSpace(p, QQ, 1, {"x": Subspace.full(QQ, 1)})
    derived = derive_poset(p, "x", "filter")
    ident = SMorphism.identity(v)
    for word in ("bogus", "quot", "sub", "full", "trivial"):
        calls = [lambda: derived_carrier(p, ["x"], word),
                 lambda: derived_set(p, "x", word),
                 lambda: applicability_width(p, "x", word),
                 lambda: is_applicable(p, "x", word),
                 lambda: derive_poset(p, "x", word),
                 lambda: diff_space(v, "x", word, derived),
                 lambda: e_functor_map(ident, "x", word),
                 lambda: factor_ideal_dim(v, v, "x", word)]
        for call in calls:
            with pytest.raises(ValueError, match=f"mode must be filter or ideal, got {word}"):
                call()


def test_poset_112_shape():
    p = poset_112()
    assert p.width() == 3
    assert len(p.antichains()) == 12


# chain covers and width --------------------------------------------------------


def _check_chain_cover(p):
    """Dilworth's theorem: the width, the size of the minimum chain cover
    that the bipartite matching finds, is the size of the largest antichain
    found by exhaustive enumeration.  And applicability_width at each
    point and mode is the width of the complement of <p> or (p), taken
    the same way."""
    assert p.width() == max(len(a) for a in p.antichains())
    for x in p.elements:
        for mode, cone in (("filter", p.up(x)), ("ideal", p.down(x))):
            rest = p.restrict([y for y in p.elements if y not in cone])
            widest = max(len(a) for a in rest.antichains())
            assert applicability_width(p, x, mode) == widest, (x, mode)


def test_chain_cover_all_posets_up_to_5():
    for p in all_posets_up_to(5):
        _check_chain_cover(p)


def test_chain_cover_random_posets_up_to_8():
    rng = random.Random(8)
    for _ in range(150):
        _check_chain_cover(random_poset(rng, 8, density=rng.choice([0.15, 0.3, 0.5])))


def test_chain_cover_of_derived_posets():
    p = example510()
    for x in p.elements:
        sub = p.restrict([y for y in p.elements if y != x])
        _check_chain_cover(derived_carrier(sub, [], "filter")[0])


def _kernel_posets():
    """Every poset of all_posets_up_to(5), seeded random posets of up to
    nine points, and the derived posets two levels down from seeded
    width-3 posets, whose labels are rendered antichains."""
    rng = random.Random(19)
    posets = list(all_posets_up_to(5))
    posets += [random_poset(rng, 9, density=rng.choice([0.1, 0.2, 0.35, 0.5]))
               for _ in range(120)]
    level = [q for q in (random_poset(rng, 7) for _ in range(60)) if q.width() == 3]
    for _ in range(2):
        level = [derive_poset(q, x, mode).result for q in level
                 for x, mode in applicable_moves(q)]
        posets += level
    return posets


def test_applicability_pass_matches_the_matching():
    """The one-pass 3-antichain test agrees at every point and mode with
    the width of the complement, found by matching; applicable_moves
    lists the applicable pairs, filter mode first, points in label order."""
    derived = 0
    for p in _kernel_posets():
        expected = [(x, mode) for mode in MODES for x in sorted(p.elements)
                    if applicability_width(p, x, mode) <= 2]
        assert applicable_moves(p) == expected
        for mode in MODES:
            for x in p.elements:
                assert is_applicable(p, x, mode) == ((x, mode) in expected)
        derived += any("^" in x or "v" in x for x in p.elements)
    assert derived > 100


def test_antichain_count_matches_antichains():
    for p in _kernel_posets():
        assert p.antichain_count() == len(p.antichains())


def test_is_applicable_checks_its_point():
    with pytest.raises(UnknownLabel):
        is_applicable(chain("s", "t"), "u", "filter")


def test_equality_and_hash_ignore_element_order():
    """Posets are equal exactly when labels and order agree, whatever the
    order of the element list; the nu memo relies on this."""
    a = Poset.build(["x", "y", "z"], [("x", "y")])
    b = Poset.build(["z", "y", "x"], [("x", "y")])
    c = Poset.build(["x", "y", "z"], [("x", "z")])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != Poset.build(["x", "y", "w"], [("x", "y")])
    assert len({a, b, c}) == 2


def test_linear_extension_orders_by_strict_predecessors():
    """Sorted by the number of strict predecessors, ties in element order:
    the order the oracle search and random_sspace draw along."""
    rng = random.Random(41)
    posets = list(all_posets_up_to(5)) + [random_poset(rng, 8) for _ in range(100)]
    posets += [example510(), Poset.build(["z", "b", "y", "a"], [("y", "b")])]
    for p in posets:
        ext = p.linear_extension()
        assert ext == sorted(p.elements,
                             key=lambda x: sum(p.lt(y, x) for y in p.elements))
        assert all(ext.index(a) < ext.index(b)
                   for a in p.elements for b in p.elements if p.lt(a, b))
    assert Poset.build(["z", "b", "y", "a"], [("y", "b")]).linear_extension() == ["z", "y", "a", "b"]


# the bitmask core against a naive reference -----------------------------------------


class ReferenceOrder:
    """The order of Poset.build(elements, relations) as a plain bool table
    closed by Warshall's algorithm, with every query by definition."""

    def __init__(self, elements, relations):
        self.elements = list(elements)
        at = {x: i for i, x in enumerate(self.elements)}
        n = len(self.elements)
        table = [[i == j for j in range(n)] for i in range(n)]
        for a, b in relations:
            table[at[a]][at[b]] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    table[i][j] = table[i][j] or (table[i][k] and table[k][j])
        self.at, self.table = at, table

    def leq(self, a, b):
        return self.table[self.at[a]][self.at[b]]

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def antichains(self):
        members = sorted(self.elements)
        found = []
        for bits in range(1 << len(members)):
            chosen = [x for k, x in enumerate(members) if bits >> k & 1]
            if all(not self.leq(a, b) for a in chosen for b in chosen if a != b):
                found.append(tuple(chosen))
        return sorted(found)

    def covers(self):
        xs = self.elements
        return sorted((a, b) for a in xs for b in xs if self.lt(a, b) and not any(
            self.lt(a, c) and self.lt(c, b) for c in xs))

    def semilattice_leq(self, a, b, mode):
        if mode == "meet":
            return all(any(self.leq(x, y) for x in a) for y in b)
        return all(any(self.leq(x, y) for y in b) for x in a)


def _shuffled_cases():
    """(elements, relations) for every poset of all_posets_up_to(5) and
    for seeded random posets of up to 8 points, under fresh labels in a
    shuffled element order; the relations are the covers plus a few
    redundant pairs, so the closure has work to do."""
    rng = random.Random(2718)
    sources = list(all_posets_up_to(5))
    sources += [random_poset(rng, 8, density=rng.choice([0.15, 0.3, 0.5])) for _ in range(40)]
    for p in sources:
        names = rng.sample([f"{c}{k}" for c in "pqrs" for k in range(3)], len(p))
        rename = dict(zip(p.elements, names))
        elements = [rename[x] for x in p.elements]
        rng.shuffle(elements)
        relations = [(rename[a], rename[b]) for a, b in p.covers()]
        relations += [(rename[a], rename[b]) for a in p.elements for b in p.elements
                      if p.lt(a, b) and rng.random() < 0.2]
        rng.shuffle(relations)
        yield rng, elements, relations


def _same_order(p, ref, elements):
    assert list(p.elements) == list(elements)
    for a in elements:
        for b in elements:
            assert p.leq(a, b) == ref.leq(a, b), (a, b)


def test_bitmask_core_matches_reference():
    for rng, elements, relations in _shuffled_cases():
        p = Poset.build(elements, relations)
        ref = ReferenceOrder(elements, relations)
        _same_order(p, ref, elements)
        for x in elements:
            assert p.up(x) == {y for y in elements if ref.leq(x, y)}
            assert p.down(x) == {y for y in elements if ref.leq(y, x)}
        subset = [x for x in elements if rng.random() < 0.6]
        assert p.generated_filter(subset) == {
            y for y in elements if any(ref.leq(x, y) for x in subset)}
        assert p.generated_ideal(subset) == {
            y for y in elements if any(ref.leq(y, x) for x in subset)}
        kept = [x for x in elements if x in set(subset)]
        _same_order(p.restrict(rng.sample(subset, len(subset))),
                    ReferenceOrder(kept, [(a, b) for a in kept for b in kept
                                          if ref.lt(a, b)]), kept)
        _same_order(p.opposite(), ReferenceOrder(elements, [(b, a) for a, b in relations]),
                    elements)
        _same_order(p.adjoin_top("top"), ReferenceOrder(
            elements + ["top"], relations + [(x, "top") for x in elements]),
            elements + ["top"])

        antichains = ref.antichains()
        assert p.antichains() == antichains
        # the carrier over [] holds the nonempty antichains, in order
        assert list(derived_carrier(p, [], "filter")[1].values()) == antichains[1:]
        assert p.covers() == ref.covers()
        assert p.linear_extension() == sorted(
            elements, key=lambda x: sum(ref.lt(y, x) for y in elements))

        assert p.width() == max(len(a) for a in antichains)

        twin = Poset.build(list(reversed(elements)), relations)
        assert p == twin and hash(p) == hash(twin)
        discrete = all(not ref.lt(a, b) for a in elements for b in elements)
        assert (p == p.opposite()) == discrete


def test_derived_carrier_order_matches_semilattice_rule():
    """The carrier order, read off the masks, against antichain_leq and
    against the semilattice rule evaluated on the reference table."""
    for rng, elements, relations in _shuffled_cases():
        if not elements:
            continue
        p = Poset.build(elements, relations)
        ref = ReferenceOrder(elements, relations)
        x = rng.choice(elements)
        cases = [("filter", "meet", p.up(x)), ("ideal", "join", p.down(x))]
        # the carrier over [] is the antichain semilattice itself, and the
        # carrier over S is S
        cases += [(mode, sl_mode, region) for region in ([], p.elements)
                  for mode, sl_mode in (("filter", "meet"), ("ideal", "join"))]
        for mode, sl_mode, region in cases:
            carrier, members = derived_carrier(p, region, mode)
            assert list(members) == list(carrier.elements)
            for a in carrier.elements:
                for b in carrier.elements:
                    expected = antichain_leq(p, members[a], members[b], sl_mode)
                    assert carrier.leq(a, b) == expected, (a, b)
                    if len(p) <= 5:
                        assert expected == ref.semilattice_leq(members[a], members[b], sl_mode)
