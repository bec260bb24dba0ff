"""The invariant suite behind `posetrep verify` and the acceptance tests.

Every check draws its own seeded instances, runs a batch of identities,
and reports (cases, failures).  The acceptance suite calls these functions
with the published case counts; the CLI runs them all with a configurable
count and a fixed default seed so CI output is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .differentiation import (derive_poset, diff_morphism, diff_space,
                              diff_space_composite, factor_ideal_dim, nu_count)
from .errors import InvalidMorphism
from .functors import (IncidenceRep, coinduce, decompose_projective, induce,
                       injective_envelope, is_socle_projective,
                       lift_along_ideal, phi, projective_cover, psi, restrict,
                       semisimple_decompose)
from .linalg import QQ, Field, Matrix, Subspace
from .oracle import EnumConfig, enumerate_indecomposables
from .poset import Poset, applicable_moves, derived_carrier
from .randgen import random_morphism, random_poset, random_sspace
from .sspace import (SMorphism, SSpace, direct_sum, dualize, e_functor_map,
                     e_quot, e_sub, hom_dim, hom_space, is_left_minimal,
                     is_right_minimal, simple_filter_space)

DEFAULT_SEED = 20508
F2 = Field.prime(2)
F5 = Field.prime(5)


@dataclass
class CheckOutcome:
    name: str
    cases: int = 0
    failures: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def expect(self, condition, message):
        self.cases += 1
        if not condition:
            self.failures.append(message)

    def line(self) -> str:
        state = "pass" if self.ok else f"FAIL ({len(self.failures)})"
        return f"{self.name:<36} {self.cases:5d} cases  {state}"


def _field_for(i: int) -> Field:
    return F5 if i % 2 == 0 else QQ


def _applicable(rng, mode=None, max_size=5):
    while True:
        p = random_poset(rng, max_size)
        m = mode or rng.choice(["filter", "ideal"])
        points = [x for x, mode_x in applicable_moves(p) if mode_x == m]
        if points:
            return p, rng.choice(points), m


# ---------------------------------------------------------------------------


def check_functor_identities(rng: random.Random, cases: int) -> CheckOutcome:
    """res.ind = res.coind = id, restriction composition, the composite
    identity through the derived carrier, the adjunction as a matrix
    identity, and both duality squares."""
    out = CheckOutcome("functor-identities")
    for i in range(cases):
        field = _field_for(i)
        p = random_poset(rng, 6)
        t = rng.sample(list(p.elements), rng.randrange(len(p) + 1))
        r = rng.sample(t, rng.randrange(len(t) + 1)) if t else []
        v = random_sspace(rng, p, field, 4)
        vr = restrict(v, r)
        vt = restrict(v, t)
        out.expect(restrict(induce(vr, p), r) == vr, f"res.ind != id at case {i}")
        out.expect(restrict(coinduce(vr, p), r) == vr, f"res.coind != id at case {i}")
        out.expect(restrict(vt, r) == vr, f"res.res != res at case {i}")
        out.expect(restrict(induce(vt, p), r) == restrict(vt, r),
                   f"res.ind through T at case {i}")
        out.expect(restrict(coinduce(vt, p), r) == restrict(vt, r),
                   f"res.coind through T at case {i}")
        w = random_sspace(rng, p, field, 4)
        left = hom_space(induce(vr, p), w)
        right = hom_space(vr, restrict(w, r))
        out.expect(left.flat == right.flat, f"ind adjunction at case {i}")
        co_l = hom_space(restrict(w, r), vr)
        co_r = hom_space(w, coinduce(vr, p))
        out.expect(co_l.flat == co_r.flat, f"coind adjunction at case {i}")
        carrier, _ = derived_carrier(p, [x for x in p.elements if x not in t], "filter")
        hat_labels = [x for x in carrier.elements if x not in set(p.elements) - set(t)]
        hat = derived_carrier(p.restrict(t), [], "filter")[0]
        out.expect(restrict(coinduce(v, carrier), hat_labels)
                   == coinduce(vt, hat),
                   f"carrier composite at case {i}")
        out.expect(dualize(restrict(v, r)) == restrict(dualize(v), r),
                   f"duality square (res) at case {i}")
        out.expect(dualize(induce(vr, p)) == coinduce(dualize(vr), p.opposite()),
                   f"duality square (ind) at case {i}")
        out.expect(dualize(coinduce(vr, p)) == induce(dualize(vr), p.opposite()),
                   f"duality square (coind) at case {i}")
    return out


def check_diff_composite(rng: random.Random, cases: int) -> CheckOutcome:
    """Direct differentiation formulas equal restrict.E.(co)induce."""
    out = CheckOutcome("diff-direct-vs-composite")
    for i in range(cases):
        field = _field_for(i)
        p, point, mode = _applicable(rng)
        v = random_sspace(rng, p, field, 4)
        derived = derive_poset(p, point, mode)
        out.expect(diff_space(v, point, mode, derived)
                   == diff_space_composite(v, point, mode, derived),
                   f"composite mismatch at case {i} ({mode} at {point})")
    return out


def check_hom_quotient_law(rng: random.Random, cases: int) -> CheckOutcome:
    """dim Hom after differentiation drops by exactly the factor ideal."""
    out = CheckOutcome("hom-quotient-law")
    for i in range(cases):
        field = _field_for(i)
        for mode in ("filter", "ideal"):
            p, point, _ = _applicable(rng, mode=mode)
            u = random_sspace(rng, p, field, 3)
            v = random_sspace(rng, p, field, 3)
            derived = derive_poset(p, point, mode)
            du = diff_space(u, point, mode, derived)
            dv = diff_space(v, point, mode, derived)
            out.expect(hom_dim(du, dv)
                       == hom_dim(u, v) - factor_ideal_dim(u, v, point, mode),
                       f"{mode} quotient law at case {i}")
    return out


def _phi_matrix(v: SSpace, point) -> Matrix:
    q = v.sub(point).quotient_map()
    return v.sub(point).annihilator().express_rows(q.transpose())


def check_duality_commutation(rng: random.Random, cases: int) -> CheckOutcome:
    """The explicit isomorphism D(E_p V) -> E^p(D V) given by precomposing
    with the structural projection: constructed, verified, natural; plus
    the full differentiation square checked through witnesses."""
    out = CheckOutcome("duality-commutation")
    for i in range(cases):
        field = _field_for(i)
        p = random_poset(rng, 4)
        point = rng.choice(p.elements)
        v = random_sspace(rng, p, field, 4)
        w = random_sspace(rng, p, field, 4)
        dep = dualize(e_quot(v, point)[0])
        epd = e_sub(dualize(v), point)[0]
        try:
            iso = SMorphism(dep, epd, _phi_matrix(v, point))
        except Exception as exc:  # construction must never fail
            out.expect(False, f"phi not a morphism at case {i}: {exc}")
            continue
        out.expect(iso.is_iso(),
                   f"phi not invertible at case {i}")
        alpha = random_morphism(rng, hom_space(v, w))
        lhs = e_functor_map(alpha, point, "filter").dualize().then(iso)
        iso_w = SMorphism(dualize(e_quot(w, point)[0]),
                          e_sub(dualize(w), point)[0], _phi_matrix(w, point))
        rhs = iso_w.then(e_functor_map(alpha.dualize(), point, "ideal"))
        out.expect(lhs.mat == rhs.mat, f"phi not natural at case {i}")
    return out


def check_minmax_square(rng: random.Random, cases: int) -> CheckOutcome:
    """dualize(filter differentiation) is isomorphic to ideal
    differentiation of the dual, by the invertible morphism phi."""
    out = CheckOutcome("minmax-square")
    done = 0
    while done < cases:
        field = F5 if done % 2 == 0 else F2
        p, point, _ = _applicable(rng, mode="filter", max_size=4)
        v = random_sspace(rng, p, field, 3)
        d_filter = derive_poset(p, point, "filter")
        d_ideal = derive_poset(p.opposite(), point, "ideal")
        lhs = dualize(diff_space(v, point, "filter", d_filter))
        rhs = diff_space(dualize(v), point, "ideal", d_ideal)
        by_members = {m: lab for lab, m in d_filter.members.items()}
        rename = {lab: by_members.get(m) for lab, m in d_ideal.members.items()}
        good = None not in rename.values()
        out.expect(good, f"derived posets fail to match at case {done}")
        if good:
            moved = SSpace(lhs.poset, rhs.field, rhs.dim,
                           {rename[s]: rhs.sub(s) for s in rhs.poset.elements})
            try:
                iso = SMorphism(lhs, moved, _phi_matrix(v, point)).is_iso()
            except InvalidMorphism:
                iso = False
            out.expect(iso, f"minmax square at case {done}")
        done += 1
    return out


def check_projectivization_fixed_points(rng: random.Random, cases: int) -> CheckOutcome:
    """Width <= 2: coinduction into the antichain semilattice lands on
    projectives and res/coind is the identity there; the same through a
    width <= 2 subset of an arbitrary poset."""
    out = CheckOutcome("projectivization-fixed-points")
    done = 0
    while done < cases:
        field = _field_for(done)
        p = random_poset(rng, 5)
        if p.width() > 2:
            # general poset, width <= 2 subset
            t = next((list(c) for c in _width2_subsets(rng, p)), None)
            if t is None:
                continue
            v = random_sspace(rng, p, field, 4)
            carrier, _ = derived_carrier(p, [x for x in p.elements if x not in t], "filter")
            w = coinduce(v, carrier)
            hat_labels = [x for x in carrier.elements if x not in set(p.elements) - set(t)]
            out.expect(decompose_projective(restrict(w, hat_labels)).projective,
                       f"pr3 projectivity at case {done}")
            out.expect(coinduce(restrict(w, p.elements), carrier) == w,
                       f"pr3 fixed point at case {done}")
        else:
            hat = derived_carrier(p, [], "filter")[0]
            v = random_sspace(rng, p, field, 4)
            w = coinduce(v, hat)
            out.expect(decompose_projective(w).projective,
                       f"pr2 projectivity at case {done}")
            out.expect(w == coinduce(restrict(w, p.elements), hat),
                       f"pr2 fixed point at case {done}")
        done += 1
    return out


def _width2_subsets(rng, p):
    labels = list(p.elements)
    rng.shuffle(labels)
    for size in range(len(labels), 0, -1):
        for t in combinations(labels, size):
            if p.restrict(t).width() <= 2:
                yield t
                return


def check_psi_phi(rng: random.Random, cases: int) -> CheckOutcome:
    """phi . psi is the identity and psi output is socle-projective."""
    out = CheckOutcome("psi-phi-bridge")
    for i in range(cases):
        field = _field_for(i)
        p = random_poset(rng, 5)
        v = random_sspace(rng, p, field, 4)
        m = psi(v)
        out.expect(phi(m) == v, f"phi.psi != id at case {i}")
        out.expect(is_socle_projective(m), f"psi not socle-projective at case {i}")
        bad = _corrupt(m, rng)
        if bad is not None:
            out.expect(not is_socle_projective(bad),
                       f"corrupted module passed at case {i}")
    return out


def _corrupt(m: IncidenceRep, rng) -> IncidenceRep:
    top = m.top()
    candidates = [s for s in m.poset.elements if s != top and m.dims[s] > 0]
    if not candidates:
        return None
    s = rng.choice(candidates)
    bad = dict(m.maps)
    field = bad[(s, top)].field
    bad[(s, top)] = Matrix.zeros(field, m.dims[s], m.dims[top])
    return IncidenceRep(m.poset, m.dims, bad)


def check_projective_cover_minimal(rng: random.Random, cases: int) -> CheckOutcome:
    """Covers are proper epis onto projectives and right minimal; the dual
    facts for envelopes."""
    out = CheckOutcome("projective-cover-minimal")
    for i in range(cases):
        field = _field_for(i)
        p = random_poset(rng, 4)
        v = random_sspace(rng, p, field, 3)
        cover, epi = projective_cover(v)
        out.expect(epi.is_epi() and epi.is_proper(), f"cover not proper epi at case {i}")
        out.expect(decompose_projective(cover).projective,
                   f"cover not projective at case {i}")
        out.expect(is_right_minimal(epi), f"cover not right minimal at case {i}")
        env, mono = injective_envelope(v)
        out.expect(mono.is_mono() and mono.is_proper(), f"envelope not proper mono at case {i}")
        out.expect(is_left_minimal(mono), f"envelope not left minimal at case {i}")
    return out


def check_nu_path_independence(rng: random.Random, cases: int) -> CheckOutcome:
    out = CheckOutcome("nu-path-independence")
    done = 0
    while done < cases:
        p = random_poset(rng, 5)
        trace = nu_count(p, strategy="all-paths")
        if trace.status != "ok":
            continue
        out.expect(trace.nu == nu_count(p).nu, f"paths disagree on {p.elements}")
        done += 1
    return out


def check_diff_functoriality(rng: random.Random, cases: int) -> CheckOutcome:
    """Additivity on objects, functoriality on morphisms, and the
    vanishing characterizations of the two E functors."""
    out = CheckOutcome("diff-functoriality")
    for i in range(cases):
        field = F5 if i % 2 == 0 else F2
        p, point, mode = _applicable(rng, max_size=4)
        u = random_sspace(rng, p, field, 3)
        v = random_sspace(rng, p, field, 3)
        derived = derive_poset(p, point, mode)
        out.expect(diff_space(direct_sum(u, v), point, mode, derived)
                   == direct_sum(diff_space(u, point, mode, derived),
                                 diff_space(v, point, mode, derived)),
                   f"additivity at case {i}")
        w = random_sspace(rng, p, field, 3)
        f = random_morphism(rng, hom_space(u, v))
        g = random_morphism(rng, hom_space(v, w))
        lhs = diff_morphism(f.then(g), point, mode, derived)
        rhs = diff_morphism(f, point, mode, derived).then(
            diff_morphism(g, point, mode, derived))
        out.expect(lhs == rhs, f"functoriality at case {i}")
        image = Subspace.full(field, u.dim).image(f.mat)
        out.expect(e_functor_map(f, point, "filter").is_zero()
                   == v.sub(point).contains(image),
                   f"E_p vanishing at case {i}")
        out.expect(e_functor_map(f, point, "ideal").is_zero()
                   == u.sub(point).image(f.mat).is_zero(),
                   f"E^p vanishing at case {i}")
    return out


def check_semisimple_width2(rng: random.Random, cases: int) -> CheckOutcome:
    out = CheckOutcome("semisimple-width2")
    done = 0
    while done < cases:
        field = _field_for(done)
        p = random_poset(rng, 5)
        if p.width() > 2:
            continue
        v = random_sspace(rng, p, field, 4)
        res = semisimple_decompose(v)
        out.expect(res.is_semisimple, f"width-2 space failed to split (case {done})")
        if res.is_semisimple:
            out.expect(sum(res.multiplicities.values()) == v.dim,
                       f"multiplicities do not add up (case {done})")
            out.expect(res.witness.inverse() is not None,
                       f"witness not invertible (case {done})")
        done += 1
    return out


def check_lift_contracts(rng: random.Random, cases: int) -> CheckOutcome:
    """Lifting along an ideal: section of restriction, properness and
    right-minimality transfer, and the commuting-square lift."""
    out = CheckOutcome("lift-contracts")
    for i in range(cases):
        field = F5 if i % 2 == 0 else F2
        p = random_poset(rng, 4)
        ideal = p.generated_ideal(rng.sample(list(p.elements), rng.randrange(len(p) + 1)))
        r = ideal
        v = random_sspace(rng, p, field, 3)
        u = random_sspace(rng, p.restrict(r), field, 3)
        f = random_morphism(rng, hom_space(u, restrict(v, r)))
        lifted, fhat = lift_along_ideal(f, v, r)
        out.expect(restrict(lifted, r) == u, f"lift does not restrict back at case {i}")
        out.expect(f.is_proper() == fhat.is_proper(), f"properness transfer at case {i}")
        z = random_sspace(rng, p, field, 3)
        beta = random_morphism(rng, hom_space(v, z))
        g = SMorphism(u, restrict(z, r), f.mat * beta.mat)
        u_g, ghat = lift_along_ideal(g, z, r)
        alpha_lift = SMorphism(lifted, u_g, Matrix.identity(field, u.dim))
        out.expect(fhat.then(beta).mat == alpha_lift.then(ghat).mat,
                   f"square lift at case {i}")
    return out


def check_simples_census(rng: random.Random, cases: int) -> CheckOutcome:
    """Width <= 2 posets up to 5 elements: the indecomposables over F_2 at
    dims <= 2 are exactly the |A(S)| one-dimensional simples, and the
    endomorphism ring of the sum of all simples has the incidence
    dimension of the antichain semilattice."""
    out = CheckOutcome("simples-census")
    posets = [q for q in all_posets_up_to(5) if q.width() <= 2]
    for q in posets:
        census = enumerate_indecomposables(EnumConfig(q, 2, 2))
        a_count = len(q.antichains())
        out.expect(census.per_dim[0].n_indecomposable == a_count,
                   f"dim-1 count off for {q.elements}")
        out.expect(census.per_dim[1].n_indecomposable == 0,
                   f"unexpected dim-2 indecomposable for {q.elements}")
        # the empty antichain is the top of the meet order
        sl = derived_carrier(q, [], "filter")[0].adjoin_top("{}")
        comparable = sum(1 for a in sl.elements for b in sl.elements if sl.leq(b, a))
        by_pairs = 0
        simples = [simple_filter_space(q, F2, a) for a in q.antichains()]
        for a in simples:
            for b in simples:
                by_pairs += hom_dim(a, b)
        out.expect(by_pairs == comparable,
                   f"End(U) dim {by_pairs} != comparable pairs {comparable} "
                   f"for {q.elements}")
    return out


def all_posets_up_to(n: int) -> list[Poset]:
    """All posets with at most n elements, one per isomorphism class.

    A k-point poset is a (k-1)-point one with a new maximal point over the
    down-set of one of its antichains, which it covers.  Each class is kept
    under the natural labelling (index order a linear extension) with the
    least cover-pair mask, bit b for the b-th pair of
    combinations(range(k), 2), and each size in increasing mask order."""
    out = level = [Poset.build([], [])]
    for k in range(1, n + 1):
        labels = [f"e{i}" for i in range(k)]
        index = {x: i for i, x in enumerate(labels)}
        bit = {pair: b for b, pair in enumerate(combinations(range(k), 2))}
        masks = set()
        for q in level:
            covers = [(index[x], index[y]) for x, y in q.covers()]
            masks.update(_least_cover_mask(covers + [(index[x], k - 1) for x in a], k, bit)
                         for a in q.antichains())
        level = [Poset.build(labels, [(labels[i], labels[j]) for (i, j), b in bit.items()
                                      if mask >> b & 1])
                 for mask in sorted(masks)]
        out = out + level
    return out


def _least_cover_mask(covers, k, bit):
    """The least cover-pair mask of the k-point poset with these index
    cover pairs over its natural labellings: a linear extension places
    each point after its lower covers, and numbers it by its place."""
    lower = [0] * k
    for i, j in covers:
        lower[j] |= 1 << i
    place = [0] * k

    def masks(placed, at):
        if at == k:
            yield sum(1 << bit[place[i], place[j]] for i, j in covers)
        for x in range(k):
            if not placed >> x & 1 and lower[x] & ~placed == 0:
                place[x] = at
                yield from masks(placed | 1 << x, at + 1)

    return min(masks(0, 0))


REGISTRY = [
    ("functor-identities", check_functor_identities),
    ("diff-direct-vs-composite", check_diff_composite),
    ("hom-quotient-law", check_hom_quotient_law),
    ("duality-commutation", check_duality_commutation),
    ("minmax-square", check_minmax_square),
    ("projectivization-fixed-points", check_projectivization_fixed_points),
    ("psi-phi-bridge", check_psi_phi),
    ("projective-cover-minimal", check_projective_cover_minimal),
    ("nu-path-independence", check_nu_path_independence),
    ("diff-functoriality", check_diff_functoriality),
    ("semisimple-width2", check_semisimple_width2),
    ("lift-contracts", check_lift_contracts),
    ("simples-census", check_simples_census),
]


def run_suite(seed: int = DEFAULT_SEED, cases: int = 60, names=None):
    results = []
    for name, fn in REGISTRY:
        if names and name not in names:
            continue
        rng = random.Random(seed)
        results.append(fn(rng, cases))
    return results
