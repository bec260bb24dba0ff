import functools
import hashlib
import random

import pytest

from posetrep.differentiation import (applicability_width, derive_poset,
                                      diff_morphism, diff_space,
                                      diff_space_composite, factor_ideal_dim,
                                      is_applicable, nu_count,
                                      poset_fingerprint, serialize_trace)
from posetrep.errors import NotApplicable, PosetMismatch
from posetrep.functors import coinduce
from posetrep.linalg import QQ, Field, Matrix, Subspace
from posetrep.poset import Poset, applicable_moves, derived_carrier
from posetrep.randgen import random_morphism, random_poset, random_sspace
from posetrep.sspace import (SMorphism, SSpace, are_isomorphic, direct_sum,
                             dualize, e_functor_map, hom_dim, hom_space,
                             simple_filter_space)
from posetrep.verify import all_posets_up_to

from helpers import antichain_poset, chain, chain_sum, example510, poset_112

F2 = Field.prime(2)
F5 = Field.prime(5)


def three_lines(field=QQ):
    p = antichain_poset("x", "y", "z")
    return SSpace(p, field, 2, {
        "x": Subspace.from_rows(field, 2, [[1, 0]]),
        "y": Subspace.from_rows(field, 2, [[0, 1]]),
        "z": Subspace.from_rows(field, 2, [[1, 1]]),
    })


def applicable_instance(rng, field, mode=None, max_size=5, max_dim=4):
    """Random (poset, point, mode) with the width condition satisfied."""
    while True:
        p = random_poset(rng, max_size)
        mode_choice = mode or rng.choice(["filter", "ideal"])
        points = [x for x in p.elements if is_applicable(p, x, mode_choice)]
        if points:
            return p, rng.choice(points), mode_choice


# derived posets -----------------------------------------------------------------


def test_derive_example510():
    p = example510()
    d = derive_poset(p, "p", "filter")
    assert set(d.result.elements) == {"a", "b", "c", "d", "f", "d^f"}
    assert d.result.covers() == [("d^f", "d"), ("d^f", "f")]
    for isolated in ("a", "b", "c"):
        assert all(not d.result.leq(isolated, other) and not d.result.leq(other, isolated)
                   for other in d.result.elements if other != isolated)


def test_derive_two_chain():
    d = derive_poset(chain("p", "a"), "p", "filter")
    assert d.result.elements == ("a",)


def test_derive_three_antichain():
    d = derive_poset(antichain_poset("x", "y", "z"), "x", "filter")
    assert set(d.result.elements) == {"y", "z", "y^z"}
    assert d.result.lt("y^z", "y") and d.result.lt("y^z", "z")


def test_derive_not_applicable():
    p = antichain_poset("x", "y", "z", "w")
    assert applicability_width(p, "x", "filter") == 3
    with pytest.raises(NotApplicable):
        derive_poset(p, "x", "filter")


def _derived_the_long_way(p, point, mode):
    """Reference S_p: the whole carrier S_<p> (S^(p)), less the principal
    ideal (filter) of p there, restricted; with its member tuples and
    a-count."""
    region = p.up(point) if mode == "filter" else p.down(point)
    carrier, cmap = derived_carrier(p, region, mode)
    cut = carrier.down(point) if mode == "filter" else carrier.up(point)
    keep = [x for x in carrier.elements if x not in cut]
    return carrier, carrier.restrict(keep), {x: cmap[x] for x in keep}, len(carrier) - len(region)


def _assert_derives_as_the_long_way(p, point, mode):
    d = derive_poset(p, point, mode)
    carrier, result, members, a_count = _derived_the_long_way(p, point, mode)
    assert d.result.elements == result.elements
    assert d.result.covers() == result.covers()
    assert d.result == result
    assert list(d.members.items()) == list(members.items())
    assert d.a_count == a_count
    return d, carrier


def _applicable(p):
    return [(x, mode) for mode in ("filter", "ideal") for x in p.elements
            if is_applicable(p, x, mode)]


def test_derive_matches_carrier_less_ideal_on_small_posets():
    for p in all_posets_up_to(5):
        for point, mode in _applicable(p):
            d, carrier = _assert_derives_as_the_long_way(p, point, mode)
            assert d.carrier.elements == carrier.elements and d.carrier == carrier


def test_derive_matches_carrier_less_ideal_on_iterated_derivations():
    """Every applicable move, three levels deep, from seeded width-3
    posets; the deeper levels hold rendered and primed labels."""
    rng = random.Random(8)
    level = []
    while len(level) < 20:
        p = random_poset(rng, rng.randint(4, 7))
        if p.width() == 3:
            level.append(p)
    primed = False
    for _ in range(3):
        below = []
        for p in level:
            for point, mode in _applicable(p):
                d, _ = _assert_derives_as_the_long_way(p, point, mode)
                primed |= any("'" in x for x in d.result.elements)
                if d.result.width() >= 3:
                    below.append(d.result)
        level = below
    assert primed


def test_derive_ideal_mode_mirrors_filter_on_opposite():
    rng = random.Random(0)
    for _ in range(30):
        p, point, _ = applicable_instance(rng, QQ, mode="ideal")
        d_ideal = derive_poset(p, point, "ideal")
        d_op = derive_poset(p.opposite(), point, "filter")
        by_members = {m: lab for lab, m in d_ideal.members.items()}
        assert len(by_members) == len(d_ideal.members)
        rename = {lab: by_members[m] for lab, m in d_op.members.items()}
        for a in d_op.result.elements:
            for b in d_op.result.elements:
                assert d_op.result.leq(a, b) == d_ideal.result.leq(rename[b], rename[a])


# the functor on spaces -----------------------------------------------------------


def test_diff_three_lines():
    v = three_lines()
    x = diff_space(v, "x", "filter")
    assert x.dim == 1
    assert x.sub("y").is_full() and x.sub("z").is_full()
    assert x.sub("y^z").is_zero()


def test_diff_of_space_full_at_point_is_zero():
    p = chain("p", "a")
    v = SSpace(p, QQ, 2, {"p": Subspace.full(QQ, 2), "a": Subspace.full(QQ, 2)})
    assert diff_space(v, "p", "filter").dim == 0


def test_diff_matches_composite():
    rng = random.Random(1)
    for _ in range(80):
        field = F5 if rng.random() < 0.5 else QQ
        p, point, mode = applicable_instance(rng, field)
        v = random_sspace(rng, p, field, 4)
        derived = derive_poset(p, point, mode)
        assert diff_space(v, point, mode, derived) == \
            diff_space_composite(v, point, mode, derived)


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=["Q", "F2", "F5"])
def test_diff_space_is_two_eliminations_per_label(field, monkeypatch):
    """One for the meet (join) of a label's members, one for its image
    (preimage)."""
    from posetrep import linalg

    calls = []
    kernel = linalg._rref

    def counted(*args):
        calls.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(linalg, "_rref", counted)
    rng = random.Random(17 + (field.p or 0))
    for mode in ("filter", "ideal"):
        for _ in range(15):
            p, point, _ = applicable_instance(rng, field, mode)
            v = random_sspace(rng, p, field, 4)
            derived = derive_poset(p, point, mode)
            calls.clear()
            diff_space(v, point, mode, derived)
            assert len(calls) <= 2 * len(derived.result)


def test_diff_additive():
    rng = random.Random(2)
    for _ in range(40):
        p, point, mode = applicable_instance(rng, F5)
        u = random_sspace(rng, p, F5, 3)
        v = random_sspace(rng, p, F5, 3)
        derived = derive_poset(p, point, mode)
        lhs = diff_space(direct_sum(u, v), point, mode, derived)
        rhs = direct_sum(diff_space(u, point, mode, derived),
                         diff_space(v, point, mode, derived))
        assert lhs == rhs


# the functor on morphisms ----------------------------------------------------------


def test_diff_morphism_identity():
    rng = random.Random(3)
    p, point, mode = applicable_instance(rng, QQ)
    v = random_sspace(rng, p, QQ, 3)
    d = diff_morphism(SMorphism.identity(v), point, mode)
    assert d.mat == Matrix.identity(QQ, d.source.dim)


def test_diff_morphism_kills_factor_ideal():
    rng = random.Random(4)
    killed = 0
    for _ in range(100):
        p, point, _ = applicable_instance(rng, F5, mode="filter")
        u = random_sspace(rng, p, F5, 3)
        v = random_sspace(rng, p, F5, 3)
        f = random_morphism(rng, hom_space(u, v))
        image = Subspace.full(F5, u.dim).image(f.mat)
        if v.sub(point).contains(image):
            killed += 1
            assert diff_morphism(f, point, "filter").is_zero()
    assert killed > 10


def test_diff_morphism_functorial():
    rng = random.Random(5)
    for _ in range(40):
        p, point, mode = applicable_instance(rng, F5)
        u = random_sspace(rng, p, F5, 3)
        v = random_sspace(rng, p, F5, 3)
        w = random_sspace(rng, p, F5, 3)
        f = random_morphism(rng, hom_space(u, v))
        g = random_morphism(rng, hom_space(v, w))
        derived = derive_poset(p, point, mode)
        lhs = diff_morphism(f.then(g), point, mode, derived)
        rhs = diff_morphism(f, point, mode, derived).then(
            diff_morphism(g, point, mode, derived))
        assert lhs == rhs


def test_diff_morphism_builds_no_e_spaces(monkeypatch):
    """D_p f takes the matrix of E_p f (E^p f) without building E-spaces."""
    from posetrep import sspace

    rng = random.Random(15)
    cases = []
    for _ in range(10):
        p, point, mode = applicable_instance(rng, F5, max_size=4)
        u = random_sspace(rng, p, F5, 3)
        v = random_sspace(rng, p, F5, 3)
        cases.append((random_morphism(rng, hom_space(u, v)), point, mode))
    calls = []
    for name in ("e_sub", "e_quot"):
        original = getattr(sspace, name)
        monkeypatch.setattr(sspace, name,
                            lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    images = [diff_morphism(f, point, mode) for f, point, mode in cases]
    assert calls == []
    for d, (f, point, mode) in zip(images, cases):
        assert d.mat == e_functor_map(f, point, mode).mat
    assert calls


def test_derived_poset_must_be_for_the_same_poset_point_and_mode():
    """A derived poset made for another poset, point or mode is refused,
    not read as if it were the right one."""
    p = Poset.build(["a", "b", "c", "d"], [("a", "d")])
    d_a = derive_poset(p, "a", "filter")
    rng = random.Random(16)
    v = random_sspace(rng, p, F5, 3)
    f = SMorphism.identity(v)
    other = random_sspace(rng, antichain_poset("a", "b", "c", "d"), F5, 3)
    assert diff_space(v, "a", "filter", d_a) == diff_space(v, "a", "filter")
    wrong = [lambda: diff_space(v, "d", "filter", d_a),
             lambda: diff_space(v, "a", "ideal", d_a),
             lambda: diff_space(other, "a", "filter", d_a),
             lambda: diff_morphism(f, "d", "filter", d_a),
             lambda: diff_space_composite(v, "a", "ideal", d_a)]
    for call in wrong:
        with pytest.raises(PosetMismatch):
            call()


# hom-space bookkeeping ---------------------------------------------------------------


def test_factor_ideal_full_space():
    rng = random.Random(6)
    p = random_poset(rng, 4)
    point = rng.choice(p.elements)
    u = random_sspace(rng, p, QQ, 3)
    v_assign = {s: Subspace.full(QQ, 3) for s in p.elements}
    v = SSpace(p, QQ, 3, v_assign)
    assert factor_ideal_dim(u, v, point, "filter") == hom_dim(u, v)


def test_factor_ideal_k_empty():
    p = antichain_poset("x", "y")
    k0 = simple_filter_space(p, QQ, ())
    assert factor_ideal_dim(k0, k0, "x", "filter") == 0
    assert hom_dim(k0, k0) == 1


def test_hom_dimension_quotient_law():
    rng = random.Random(7)
    for _ in range(60):
        field = F5 if rng.random() < 0.5 else QQ
        p, point, mode = applicable_instance(rng, field)
        u = random_sspace(rng, p, field, 3)
        v = random_sspace(rng, p, field, 3)
        derived = derive_poset(p, point, mode)
        du = diff_space(u, point, mode, derived)
        dv = diff_space(v, point, mode, derived)
        assert hom_dim(du, dv) == hom_dim(u, v) - factor_ideal_dim(u, v, point, mode)


# duality commutation -------------------------------------------------------------------


def phi_matrix(v: SSpace, point):
    """Explicit isomorphism D(E_p v) -> E^p(D v): precompose with the
    structural projection, in dual coordinates."""
    q = v.sub(point).quotient_map()
    ann = v.sub(point).annihilator()
    return ann.express_rows(q.transpose())


def test_phi_is_natural_isomorphism():
    from posetrep.sspace import e_quot, e_sub

    rng = random.Random(8)
    for _ in range(40):
        p = random_poset(rng, 4)
        point = rng.choice(p.elements)
        field = F5 if rng.random() < 0.5 else QQ
        v = random_sspace(rng, p, field, 4)
        w = random_sspace(rng, p, field, 4)
        dep_v = dualize(e_quot(v, point)[0])
        epd_v = e_sub(dualize(v), point)[0]
        iso_v = SMorphism(dep_v, epd_v, phi_matrix(v, point))
        assert iso_v.mat.is_invertible() and iso_v.inverse() is not None
        # naturality square against a random morphism v -> w
        alpha = random_morphism(rng, hom_space(v, w))
        dep_alpha = e_functor_map(alpha, point, "filter").dualize()
        epd_alpha = e_functor_map(alpha.dualize(), point, "ideal")
        iso_w = SMorphism(dualize(e_quot(w, point)[0]),
                          e_sub(dualize(w), point)[0], phi_matrix(w, point))
        assert dep_alpha.then(iso_v).mat == iso_w.then(epd_alpha).mat


def relabel_like(v: SSpace, target: Poset, rename: dict) -> SSpace:
    assign = {rename[s]: v.sub(s) for s in v.poset.elements}
    return SSpace(target, v.field, v.dim, assign)


def test_differentiation_commutes_with_duality():
    rng = random.Random(9)
    done = 0
    while done < 40:
        p, point, _ = applicable_instance(rng, F5, mode="filter")
        v = random_sspace(rng, p, F5, 3)
        d_filter = derive_poset(p, point, "filter")
        d_ideal = derive_poset(p.opposite(), point, "ideal")
        lhs = dualize(diff_space(v, point, "filter", d_filter))
        rhs = diff_space(dualize(v), point, "ideal", d_ideal)
        by_members = {m: lab for lab, m in d_filter.members.items()}
        assert len(by_members) == len(d_filter.members)
        rename = {lab: by_members[m] for lab, m in d_ideal.members.items()}
        moved = relabel_like(rhs, lhs.poset, rename)
        res = are_isomorphic(lhs, moved)
        assert res.is_iso
        done += 1


# the nu recursion -------------------------------------------------------------------------


def test_nu_three_antichain():
    trace = nu_count(antichain_poset("x", "y", "z"))
    assert trace.status == "ok" and trace.nu == 9
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.point == "x" and step.mode == "filter"
    assert step.nonempty_antichains == 3
    assert trace.terminal_count == 5


def test_nu_unknown_strategy_is_an_error():
    with pytest.raises(ValueError):
        nu_count(chain_sum(1, 1, 1), strategy="bogus")


def test_nu_chains():
    assert nu_count(Poset.build([], [])).nu == 1
    for n in range(1, 6):
        labels = [f"c{i}" for i in range(n)]
        p = Poset.build(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])
        assert nu_count(p).nu == n + 1


def test_nu_112_both_paths():
    p = poset_112()
    first = nu_count(p)
    assert first.status == "ok" and first.nu == 15
    everything = nu_count(p, strategy="all-paths")
    assert everything.status == "ok" and everything.nu == 15


def test_nu_112_manual_second_path():
    """Start at u (filter): the derived poset has width 3, so a second
    differentiation at v is needed; the total must still be 15."""
    p = poset_112()
    d1 = derive_poset(p, "u", "filter")
    a1 = 5  # nonempty antichains of {x, y, v} minus... checked below
    rest1 = p.restrict([s for s in p.elements if s not in p.up("u")])
    assert len(rest1.antichains()[1:]) == 3
    s_u = d1.result
    assert s_u.width() == 3
    d2 = derive_poset(s_u, "v", "filter")
    rest2 = s_u.restrict([s for s in s_u.elements if s not in s_u.up("v")])
    second_charge = len(rest2.antichains()[1:])
    terminal = d2.result
    assert terminal.width() <= 2
    total = len(terminal.antichains()) + (second_charge + 1) + (3 + 1)
    assert total == 15


def test_nu_all_paths_agree_on_randoms():
    rng = random.Random(10)
    checked = 0
    for _ in range(60):
        p = random_poset(rng, 5)
        trace = nu_count(p, strategy="all-paths")
        if trace.status == "ok":
            checked += 1
            assert trace.nu == nu_count(p).nu
    assert checked > 20


def test_trace_serialization_format():
    trace = nu_count(antichain_poset("x", "y", "z"))
    text = serialize_trace(trace)
    lines = text.strip().split("\n")
    assert len(lines) == 2
    head, tail = lines
    assert " point=x mode=filter a-count=3" in head
    assert len(head.split()[0]) == 12
    assert tail == "nu=9"


def test_nu_deterministic_fingerprint():
    p = example510()
    assert poset_fingerprint(p) == poset_fingerprint(example510())


def test_nu_stuck_on_wide_antichain():
    """On a 4-antichain the complement of every principal filter or ideal
    is a 3-antichain, so neither algorithm ever applies."""
    p = Poset.build(list("abcd"), [])
    trace = nu_count(p)
    assert trace.status == "stuck" and trace.nu is None
    assert serialize_trace(trace).strip().endswith("nu=stuck")
    both = nu_count(p, strategy="all-paths")
    assert both.status == "stuck"


@pytest.mark.parametrize("strategy", ["first", "all-paths"])
def test_nu_depth_limit(strategy):
    """A 3-antichain needs one step, so depth limit 0 stops either
    strategy before it takes that step."""
    trace = nu_count(antichain_poset("x", "y", "z"), strategy=strategy, depth_limit=0)
    assert trace.status == "depth-limit" and trace.steps == []
    assert serialize_trace(trace).strip().endswith("nu=depth-limit")


@pytest.mark.parametrize("strategy", ["first", "all-paths"])
def test_nu_depth_limit_counts_width_two_outright(strategy):
    """The width is checked before the depth limit: a poset of width <= 2
    needs no step, so it is counted at depth limit 0."""
    for p in (chain("a", "b", "c"), poset_112().restrict(["x", "u", "v"])):
        trace = nu_count(p, strategy=strategy, depth_limit=0)
        assert trace.status == "ok" and trace.steps == []
        assert trace.nu == trace.terminal_count == len(p.antichains())


@pytest.mark.parametrize("strategy", ["first", "all-paths"])
def test_nu_depth_limit_one_step(strategy):
    """One step brings a 3-antichain to width <= 2, so depth limit 1 is
    enough and gives the full count."""
    trace = nu_count(antichain_poset("x", "y", "z"), strategy=strategy, depth_limit=1)
    assert trace.status == "ok" and len(trace.steps) == 1
    assert trace.nu == 9


@pytest.mark.parametrize("strategy", ["first", "all-paths"])
@pytest.mark.parametrize("limit", [1, 2])
def test_nu_depth_limit_cut_is_reported(strategy, limit):
    """(1,2,3) needs at least three steps, so at limits 1 and 2 both
    strategies stop at the limit: all-paths says so too, never "stuck"."""
    trace = nu_count(chain_sum(1, 2, 3), strategy=strategy, depth_limit=limit)
    assert trace.status == "depth-limit" and len(trace.steps) <= limit


@pytest.mark.parametrize("limit", [3, 4, 5, 6])
def test_nu_all_paths_completes_within_every_fitting_limit(limit):
    """A memoised value is reused only where its fewest steps still fit, so
    the path taken completes within the limit whatever the limit."""
    trace = nu_count(chain_sum(1, 2, 3), strategy="all-paths", depth_limit=limit)
    assert trace.status == "ok" and trace.nu == 53
    assert len(trace.steps) <= limit


class _Node:
    """A stand-in poset for the sweep: a width, an antichain count and a
    hash."""

    def __init__(self, width, antichains):
        self.w, self.a = width, antichains

    def width(self):
        return self.w

    def antichain_count(self):
        return self.a


def _all_paths_by_walks(start, moves, limit):
    """What all-paths answers on a move graph, from its walks: the status,
    the moves taken and nu, or "disagree".  The walks from start of at
    most `limit` moves give each node's shortest distance, and the swept
    nodes are those of width > 2 nearer than the limit; the walks that
    stay among swept nodes and end at width <= 2 give each node's values."""
    narrow = lambda q: q.width() <= 2
    dist, ends = {start: 0}, [start]
    for d in range(1, limit + 1):  # the ends of the walks of d moves
        ends = {c for q in ends if not narrow(q) for *_, c in moves[q]}
        for c in ends:
            dist.setdefault(c, d)
    swept = {q for q, d in dist.items() if d < limit and not narrow(q)}

    @functools.lru_cache(maxsize=None)
    def walks(q, n):
        """(moves, nu) of each completing walk from q of at most n moves."""
        if narrow(q):
            return frozenset({(0, q.antichain_count())})
        if q not in swept or n == 0:
            return frozenset()
        return frozenset((k + 1, v + a + 1) for _, _, a, c in moves[q]
                         for k, v in walks(c, n - 1))

    # a disagreement shows on walks of at most len(swept) + 1 moves
    if any(len({v for _, v in walks(q, len(swept) + 1)}) > 1 for q in swept):
        return "disagree"
    taken, current = [], start
    while not narrow(current):
        left = limit - len(taken)
        fits = [m for m in moves[current] if left > 0 and walks(m[3], left - 1)]
        if not fits:
            wide_at_limit = any(d == limit and not narrow(q) for q, d in dist.items())
            return "depth-limit" if wide_at_limit or left == 0 else "stuck", taken
        taken.append(fits[0][:3])
        current = fits[0][3]
    (value,) = {v for _, v in walks(start, limit)}
    return "ok", taken, value


def test_nu_all_paths_matches_the_walks_of_random_move_graphs(monkeypatch):
    """On seeded random move graphs, loops included, all-paths answers as
    the brute-force count over walks: fewest steps and nu from the walks,
    the first move whose child completes within the depth left, and
    "depth-limit" exactly when a width > 2 node lies at the limit."""
    import posetrep.differentiation as differentiation

    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        nodes = [_Node(rng.choice([2, 3, 3, 3]), rng.randint(1, 4))
                 for _ in range(rng.randint(2, 8))]
        moves = {q: [(f"p{k}", "filter", rng.randint(0, 1), rng.choice(nodes))
                     for k in range(rng.choice([0, 1, 2, 2, 3]))] for q in nodes}
        monkeypatch.setattr(differentiation, "_moves", lambda q: iter(moves[q]))
        for limit in (0, 1, 2, 3, 4, 5, 8):
            start = rng.choice(nodes)
            expected = _all_paths_by_walks(start, moves, limit)
            if expected == "disagree":
                with pytest.raises(AssertionError):
                    nu_count(start, strategy="all-paths", depth_limit=limit)
                seen.add(expected)
                continue
            trace = nu_count(start, strategy="all-paths", depth_limit=limit)
            taken = [(s.point, s.mode, s.nonempty_antichains) for s in trace.steps]
            assert (trace.status, taken, trace.nu)[:len(expected)] == expected
            seen.add(trace.status)
    assert seen == {"ok", "depth-limit", "stuck", "disagree"}


def test_nu_all_paths_takes_a_move_only_if_its_child_fits(monkeypatch):
    """s moves to c and to d, c moves to d, d moves to a width-2 node.  At
    limit 2, c needs both steps left after the first, so s moves to d."""
    import posetrep.differentiation as differentiation

    s, c, d, t = _Node(3, 1), _Node(3, 1), _Node(3, 1), _Node(2, 4)
    moves = {s: [("c", "filter", 0, c), ("d", "filter", 1, d)],
             c: [("d", "filter", 0, d)], d: [("t", "filter", 0, t)]}
    monkeypatch.setattr(differentiation, "_moves", lambda q: iter(moves[q]))
    trace = nu_count(s, strategy="all-paths", depth_limit=2)
    assert trace.status == "ok" and trace.nu == 4 + 1 + 2
    assert [step.point for step in trace.steps] == ["d", "t"]


def test_nu_all_paths_stuck_once_the_sweep_expands_everything():
    """On a, b, c, d, e with a < e and b < e no path reaches width 2.  By
    limit 3 the sweep has expanded every poset it can reach, so from there
    all-paths says "stuck"; below that the limit left posets unexpanded."""
    p = Poset.build(list("abcde"), [("a", "e"), ("b", "e")])
    statuses = [nu_count(p, strategy="all-paths", depth_limit=limit).status
                for limit in (1, 2, 3, 64)]
    assert statuses == ["depth-limit", "depth-limit", "stuck", "stuck"]


def test_nu_step_tests_applicability_once(monkeypatch):
    """One applicability pass per poset whose moves are listed, no
    matching, and no antichain listed: (1,1,1) takes one step to a
    width-2 poset, whose moves neither strategy lists and whose
    antichains are only counted."""
    import posetrep.differentiation as differentiation

    calls = []

    def counted(p):
        calls.append(p)
        return applicable_moves(p)

    def refused(*args):
        raise AssertionError("nu_count listed antichains or ran the applicability matching")

    monkeypatch.setattr(differentiation, "applicable_moves", counted)
    monkeypatch.setattr(differentiation, "applicability_width", refused)
    monkeypatch.setattr(Poset, "antichains", refused)
    p = chain_sum(1, 1, 1)
    for strategy in ("first", "all-paths"):
        calls.clear()
        trace = nu_count(p, strategy=strategy)
        assert len(trace.steps) == 1 and calls == [p]


# pinned traces ---------------------------------------------------------------


def _trace_sha(trace):
    return hashlib.sha256(serialize_trace(trace).encode()).hexdigest()[:16]


# sha256 prefixes of serialize_trace, recorded before the order moved to
# bitmasks: the moves, a-counts and stop reasons must not change
PINNED_FIRST = {
    (1, 1, 1): "284a24a6b48d5bbd", (1, 1, 2): "9d91087208bd0cc1",
    (1, 2, 2): "3ca7498a5f581e00", (1, 1, 3): "1e127a55bf629573",
    (1, 2, 3): "6d04f117fd2f95a9", (1, 2, 4): "ff343c69590637f0",
    (2, 2, 2): "7abe8671c82c13b4", (1, 1, 1, 1): "cab1a55c014bf425",
    (1, 2, 5): "b915a60bf66e3e57", (1, 3, 3): "e7701681e908be5e",
}
PINNED_ALL_PATHS_RANDOM = [
    "181667c49e1ef2a7", "b651f57d7b38eea5", "181667c49e1ef2a7", "297cc5168e03f00f",
    "cab1a55c014bf425", "fab39f2289f95195", "d1ca3eefd1c25f4d", "cab1a55c014bf425",
    "636012103772d272", "9ec99850fc8ace84", "bbc622cbf533dc6a", "9e80cb159b025f4d",
    "5485fd3e7753867c", "b651f57d7b38eea5", "1167c891ef851ae0", "9e80cb159b025f4d",
    "8aa7354e7f17bf0f", "9e80cb159b025f4d", "cab1a55c014bf425", "181667c49e1ef2a7",
]

# first on seeded random posets, five draws per (size, width) class: sizes
# 1..7 of width <= 2 and sizes 3..6 of width 3, as in the nu benchmark
PINNED_FIRST_RANDOM = [
    "07cfc8a5d77b9dd0", "07cfc8a5d77b9dd0", "07cfc8a5d77b9dd0", "07cfc8a5d77b9dd0",
    "07cfc8a5d77b9dd0", "724d7b4dbff5de1f", "41fc83597fcfd4c5", "41fc83597fcfd4c5",
    "41fc83597fcfd4c5", "724d7b4dbff5de1f", "87ab5b3653674847", "87ab5b3653674847",
    "87ab5b3653674847", "724d7b4dbff5de1f", "724d7b4dbff5de1f", "181667c49e1ef2a7",
    "181667c49e1ef2a7", "181667c49e1ef2a7", "181667c49e1ef2a7", "181667c49e1ef2a7",
    "5c44abb7d07ca999", "5c44abb7d07ca999", "2c0403f87f4a99c9", "87ab5b3653674847",
    "3a1c6351646360de", "7ced643004ead4e9", "2b0d2ac6ab73d697", "c24a75ebfe580aa4",
    "7ced643004ead4e9", "5922a3755679eb7a", "5c44abb7d07ca999", "44bdb3b0e4a17723",
    "5c44abb7d07ca999", "39f206f8040aa62b", "130c611988336ee8", "cd2682064ebb332b",
    "4c476beac0ebc8a0", "fa4097f9bd9e2986", "333dcf0f0cf349cd", "54812cb3b594f45e",
    "5c44abb7d07ca999", "291099b8c8a20c68", "44bdb3b0e4a17723", "130c611988336ee8",
    "291099b8c8a20c68", "7cf46c3aec61392e", "7676b2a023f3ec42", "8e17221bf92b1b27",
    "53540adcbccf5aeb", "d849f98364b62887", "291099b8c8a20c68", "5df9b91d323ecf9e",
    "8a0f6af5c28190c1", "ce3c5a0e536ba031", "ce3c5a0e536ba031",
]


@pytest.mark.parametrize("lengths", sorted(PINNED_FIRST))
def test_nu_first_trace_pinned(lengths):
    assert _trace_sha(nu_count(chain_sum(*lengths))) == PINNED_FIRST[lengths]


@pytest.mark.parametrize("lengths", [(1, 1, 1), (1, 1, 2), (1, 2, 2)])
def test_nu_all_paths_trace_pinned(lengths):
    trace = nu_count(chain_sum(*lengths), strategy="all-paths")
    assert _trace_sha(trace) == PINNED_FIRST[lengths]


def test_nu_all_paths_random_traces_pinned():
    """The first 20 draws of width >= 3 from a seeded stream of posets of
    at most five points."""
    rng = random.Random(2026)
    got = []
    while len(got) < len(PINNED_ALL_PATHS_RANDOM):
        p = random_poset(rng, 5)
        if p.width() >= 3:
            got.append(_trace_sha(nu_count(p, strategy="all-paths")))
    assert got == PINNED_ALL_PATHS_RANDOM


def test_nu_first_random_traces_pinned():
    """Five draws of each class from a seeded stream of posets, in the
    order sizes 1..7, width <= 2 before width 3."""
    rng = random.Random(2027)
    strata = [(n, wide) for n in range(1, 8) for wide in (False, True)
              if not wide or 3 <= n <= 6]
    got = []
    for k, (size, wide) in enumerate(strata, 1):
        while len(got) < 5 * k:
            p = random_poset(rng, size)
            if len(p) == size and (p.width() == 3 if wide else p.width() <= 2):
                got.append(_trace_sha(nu_count(p)))
    assert got == PINNED_FIRST_RANDOM


# Hom, D_p, coinduction and duality on dim-6 spaces over Q -------------------


def _space_sha(v):
    subs = ";".join(f"{s}:{v.sub(s).mat.rows!r}" for s in v.poset.elements)
    text = f"{v.field}|{v.dim}|{list(v.poset.elements)}{v.poset.covers()}|{subs}"
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def wide_q_digests():
    """Twelve seeded instances shaped like the wide benchmark: two dim-6
    spaces over Q on a random poset of each size 1..6 (twice), and a point
    where a random mode applies.  For each, the sha1 prefixes of the Hom
    rows, of D_p u, of u coinduced to the carrier, and of the dual of u."""
    rng = random.Random(2508)

    def space(p):
        while True:
            v = random_sspace(rng, p, QQ, 6)
            if v.dim == 6:
                return v

    got = []
    for size in [1, 2, 3, 4, 5, 6] * 2:
        while True:
            p = random_poset(rng, size)
            mode = rng.choice(["filter", "ideal"])
            points = [x for x in p.elements if is_applicable(p, x, mode)]
            if len(p) == size and points:
                break
        point = rng.choice(points)
        u, v = space(p), space(p)
        derived = derive_poset(p, point, mode)
        rows = hom_space(u, v).flat.mat.rows
        got.append((hashlib.sha1(repr(rows).encode()).hexdigest()[:16],
                    _space_sha(diff_space(u, point, mode, derived)),
                    _space_sha(coinduce(u, derived.carrier)), _space_sha(dualize(u))))
    return got


# recorded before the Q Hom systems were eliminated on integer rows: every
# Hom basis, derived space, coinduced space and dual must stay the same
PINNED_WIDE_Q = [
    ("2240c34466e5faef", "75d52a7297ceb7d2", "4060fd00d558fce3", "631c4413188b4017"),
    ("4c5f1ea2dd928032", "5dad0ceac175ca66", "f742c1690482758d", "52660f8247550484"),
    ("ab6e4b0c325d3f28", "a3650c6513b0d58c", "62238a2c159799f1", "dcc96bd62976a2be"),
    ("f6ea270bbd340cfc", "fcb5e7b1f54ba361", "8c23e84b97be60ae", "8e5a345a67bd3d8e"),
    ("5b9edd438822c003", "a3a66ff76d8409b3", "ce03edc8fdf7299d", "4f474cea18b6f12b"),
    ("3877b6f46e239d3a", "25fa445a0a15f3ef", "470f61df702c1566", "46564418c5a070fe"),
    ("ec358f4a663f1645", "75d52a7297ceb7d2", "8d8c773cf3f786c6", "8f09ac9f7641ab27"),
    ("c418af1cab0e40e6", "b60dc6d8a671f81b", "2bc5e50632ce4172", "b0d12d11d8b5107c"),
    ("abcba4999c9917d1", "bcfe3065e378d2df", "eef08dc3260a382e", "67d762b5a0c3f538"),
    ("f7b8f94dc8ad9108", "1b1c27d6a9e5f559", "e1d6255593612a8c", "c489cafba1ba3783"),
    ("c010cb8a179704f6", "5c384683abefe199", "892e337a072c6f93", "6aee4b2cd3922f00"),
    ("0949181808eb7ff9", "170aa2d0776eeee3", "e14018f64ee0ff07", "9d1c2defed804257"),
]


def test_wide_q_outputs_pinned():
    assert wide_q_digests() == PINNED_WIDE_Q
