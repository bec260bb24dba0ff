"""Restriction, induction, coinduction, lifting along ideals, the bridge
to socle-projective incidence-algebra modules, and projectivization.

Restriction forgets subspaces; induction fills a forgotten element with
the sum of the subspaces below it, coinduction with the intersection of
those above it.  On morphisms all three act by the same ambient matrix,
which is why the adjunction isomorphisms here are literal equalities of
matrix solution sets rather than mere bijections.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import NoUniqueTop, NotAnIdeal, PosetMismatch
from .linalg import Matrix, Subspace
from .poset import Poset
from .sspace import (SMorphism, SSpace, direct_sum, dualize, projective_space,
                     simple_filter_space, zero_space)


# ---------------------------------------------------------------------------
# the adjoint triple


def restrict(v: SSpace, labels) -> SSpace:
    v.poset.check_subset(labels)
    keep = set(labels)
    sub = v.poset.restrict(labels)
    assign = {s: v.sub(s) for s in sub.elements if s in keep}
    return SSpace(sub, v.field, v.dim, assign, validate=False)


def _check_subposet(small: Poset, big: Poset):
    """Raises UnknownLabel for a label missing from big, PosetMismatch
    when big orders the labels of small differently."""
    if big.restrict(small.elements) != small:
        raise PosetMismatch("the order of the target poset disagrees")


def induce(v: SSpace, target: Poset) -> SSpace:
    """Left adjoint of restriction: sums over below-elements of the carrier."""
    _check_subposet(v.poset, target)
    assign = {}
    for s in target.elements:
        assign[s] = Subspace.zero(v.field, v.dim).plus(
            *(v.sub(r) for r in v.poset.elements if target.leq(r, s)))
    return SSpace(target, v.field, v.dim, assign, validate=False)


def coinduce(v: SSpace, target: Poset) -> SSpace:
    """Right adjoint of restriction: intersections over above-elements."""
    _check_subposet(v.poset, target)
    assign = {}
    for s in target.elements:
        assign[s] = Subspace.full(v.field, v.dim).intersect(
            *(v.sub(r) for r in v.poset.elements if target.leq(s, r)))
    return SSpace(target, v.field, v.dim, assign, validate=False)


# ---------------------------------------------------------------------------
# lifting along ideals


def lift_along_ideal(f: SMorphism, v: SSpace, ideal_labels) -> tuple[SSpace, SMorphism]:
    """Given R an ideal of the carrier of v and f : U -> restrict(v, R),
    build U_f on the full carrier with the forgotten subspaces set to
    preimages f^{-1}(V(t)); returns (U_f, the induced morphism into v)."""
    big = v.poset
    r = set(ideal_labels)
    if not big.is_ideal(r):
        raise NotAnIdeal(sorted(r))
    if set(f.source.poset.elements) != r or f.target != restrict(v, r):
        raise PosetMismatch("f must map an R-space into restrict(v, R)")
    u = f.source
    assign = {}
    for t in big.elements:
        if t in r:
            assign[t] = u.sub(t)
        else:
            assign[t] = v.sub(t).preimage(f.mat)
    lifted = SSpace(big, u.field, u.dim, assign)
    return lifted, SMorphism(lifted, v, f.mat)


# ---------------------------------------------------------------------------
# incidence-algebra modules and the psi/phi bridge


@dataclass(frozen=True)
class IncidenceRep:
    """A module over the incidence algebra of a poset with unique top:
    one dimension per element and a compatible matrix per related pair."""

    poset: Poset
    dims: dict
    maps: dict  # (s, t) with s <= t -> Matrix dims[s] x dims[t]

    def top(self):
        tops = [x for x in self.poset.elements
                if all(self.poset.leq(y, x) for y in self.poset.elements)]
        if len(tops) != 1:
            raise NoUniqueTop(tops)
        return tops[0]

    def map_between(self, s, t) -> Matrix:
        return self.maps[(s, t)]


def psi(v: SSpace) -> IncidenceRep:
    """Direct sum of the assigned subspaces as a socle-projective module
    over the incidence algebra of the poset with a new top adjoined."""
    base = v.poset
    top = base.fresh_label("omega")
    big = base.adjoin_top(top)
    dims = {s: v.sub(s).dim for s in base.elements}
    dims[top] = v.dim
    full = Subspace.full(v.field, v.dim)
    basis = {s: v.sub(s).mat for s in base.elements}
    basis[top] = full.mat
    maps = {}
    for s in big.elements:
        for t in big.elements:
            if big.leq(s, t):
                target = full if t == top else v.sub(t)
                maps[(s, t)] = target.express_rows(basis[s])
    return IncidenceRep(big, dims, maps)


def phi(m: IncidenceRep) -> SSpace:
    """Ambient from the top slot, subspaces as images of the structure maps."""
    top = m.top()
    base = m.poset.restrict([x for x in m.poset.elements if x != top])
    n = m.dims[top]
    fld = m.maps[(top, top)].field
    assign = {}
    for s in base.elements:
        assign[s] = Subspace.from_rows(fld, n, m.map_between(s, top).rows)
    return SSpace(base, fld, n, assign)


def is_socle_projective(m: IncidenceRep) -> bool:
    """Every structure map into the top slot must be injective."""
    top = m.top()
    for s in m.poset.elements:
        if s != top and m.map_between(s, top).rank() != m.dims[s]:
            return False
    return True


# ---------------------------------------------------------------------------
# projective covers, decomposition of projectives


def radical_at(v: SSpace, t) -> Subspace:
    """Sum of the subspaces strictly below t; t = None stands for the
    adjoined top, which lies above every element."""
    return Subspace.zero(v.field, v.dim).plus(
        *(v.sub(s) for s in v.poset.elements if t is None or v.poset.lt(s, t)))


def projective_cover(v: SSpace) -> tuple[SSpace, SMorphism]:
    """(P, proper epi P -> v) with P a direct sum of the one-dimensional
    indecomposable projectives; built by lifting a basis of the top of the
    associated module, one radical complement per element."""
    p, epi, _ = _cover_with_parts(v)
    return p, epi


def _cover_with_parts(v: SSpace):
    """The projective cover and its summand labels, one P_t per row of a
    complement of the radical inside V(t) (t = None: the adjoined top)."""
    parts = []
    rows = []
    for t in list(v.poset.elements) + [None]:
        space = Subspace.full(v.field, v.dim) if t is None else v.sub(t)
        comp = space.complement_within(radical_at(v, t))
        for row in comp.rows:
            parts.append(t)
            rows.append(row)
    p = direct_sum(zero_space(v.poset, v.field),
                   *(projective_space(v.poset, v.field, t) for t in parts))
    epi = SMorphism(p, v, Matrix(v.field, rows, v.dim))
    return p, epi, parts


@dataclass(frozen=True)
class ProjectiveDecomposition:
    projective: bool
    multiplicities: dict = None  # label (or None for the adjoined top) -> count
    witness: SMorphism = None


def decompose_projective(v: SSpace) -> ProjectiveDecomposition:
    """Unique P_t multiplicities with witness if v is projective; the
    cover epi is an isomorphism exactly in that case."""
    p, epi, parts = _cover_with_parts(v)
    if p.dim != v.dim or not epi.mat.is_invertible():
        return ProjectiveDecomposition(False)
    mult = {}
    for t in parts:
        mult[t] = mult.get(t, 0) + 1
    return ProjectiveDecomposition(True, mult, epi)


def injective_envelope(v: SSpace) -> tuple[SSpace, SMorphism]:
    cover, epi = projective_cover(dualize(v))
    env = dualize(cover)
    # the double dual is v again in canonical form
    return env, SMorphism(v, env, epi.mat.transpose())


# ---------------------------------------------------------------------------
# semisimple decomposition


@dataclass(frozen=True)
class SemisimpleDecomposition:
    status: str  # "semisimple" | "not_semisimple"
    multiplicities: dict = dc_field(default_factory=dict)  # antichain -> count
    witness: SMorphism = None

    @property
    def is_semisimple(self):
        return self.status == "semisimple"


def semisimple_decompose(v: SSpace) -> SemisimpleDecomposition:
    """Decide whether v is a direct sum of the one-dimensional k_A, and
    if so give the multiplicities with an isomorphism from that sum.

    Exact at every width.  For an antichain A let X = the intersection of
    V(a) over a in A (all of V when A is empty) and Y = the sum of V(s)
    over s outside the filter <A>.  If V is the sum of k_{A_i} on a basis
    e_i, then X is spanned by the e_i with <A_i> containing <A>, and X n Y
    by those with <A_i> strictly larger; so a complement of X n Y in X
    holds the summands of type A, and these complements together form a
    basis adapted to every V(s).  So v is semisimple exactly when the map
    the complements define from the sum of the simples is an isomorphism.
    """
    p, fld, n = v.poset, v.field, v.dim
    mult = {}
    simples = []
    rows = []
    for a in p.antichains():
        inside = Subspace.full(fld, n).intersect(*(v.sub(s) for s in a))
        filt = p.generated_filter(a)
        outside = Subspace.zero(fld, n).plus(*(v.sub(s) for s in p.elements if s not in filt))
        comp = inside.complement_within(outside.intersect(inside))
        if comp.nrows:
            mult[a] = comp.nrows
            rows += comp.rows
            simples += [simple_filter_space(p, fld, a)] * comp.nrows
    parts = direct_sum(zero_space(p, fld), *simples)
    witness = SMorphism(parts, v, Matrix._of(fld, tuple(rows), n))
    if not witness.is_iso():
        return SemisimpleDecomposition("not_semisimple")
    return SemisimpleDecomposition("semisimple", mult, witness)
