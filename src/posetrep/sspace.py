"""The category of S-spaces over a finite poset.

An S-space assigns to every poset element a subspace of one ambient space,
monotonely in the order.  Morphisms are ambient-space matrices (acting on
row vectors) carrying each assigned subspace of the source into the
corresponding subspace of the target.  Everything is canonicalized, so
functor identities elsewhere in the package are literal equalities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, islice, product

from .errors import (FieldMismatch, InvalidMorphism, MonotonicityViolation,
                     PosetMismatch, UnknownLabel)
from .linalg import Field, Matrix, Subspace, _primitive, solution_space, vstack
from .poset import Poset, check_mode


# Largest q^(dim End) the idempotent search of `is_indecomposable` may try.
END_CAP = 1 << 16
# Most candidates `are_isomorphic` tries; a larger q^(dim Hom) is sampled.
ISO_BUDGET = 20_000


class SSpace:
    """Ambient dimension plus one subspace per poset element."""

    __slots__ = ("poset", "field", "dim", "assign")

    def __init__(self, poset: Poset, field: Field, dim: int, assign, validate: bool = True):
        full_assign = {}
        for s in poset.elements:
            sub = assign.get(s)
            if sub is None:
                sub = Subspace.zero(field, dim)
            if sub.field != field:
                raise FieldMismatch(f"subspace at {s!r}")
            if sub.ambient != dim:
                raise MonotonicityViolation(s, s, f"ambient {sub.ambient} != {dim}")
            full_assign[s] = sub
        for s in assign:
            if s not in poset:
                raise UnknownLabel(s)
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "assign", full_assign)
        if validate:
            validate_sspace(self)

    def __setattr__(self, *a):
        raise AttributeError("SSpace is immutable")

    def sub(self, s) -> Subspace:
        try:
            return self.assign[s]
        except KeyError:
            raise UnknownLabel(s) from None

    def __eq__(self, other):
        return (isinstance(other, SSpace) and self.poset == other.poset
                and self.field == other.field and self.dim == other.dim
                and self.assign == other.assign)

    def __hash__(self):
        return hash((self.poset, self.field, self.dim,
                     tuple(sorted(self.assign.items(), key=lambda t: t[0]))))

    def __repr__(self):
        dims = {s: v.dim for s, v in self.assign.items()}
        return f"SSpace({self.field}, dim {self.dim}, {dims})"

    def dims_profile(self):
        return tuple(self.sub(s).dim for s in self.poset.elements)


def validate_sspace(v: SSpace):
    """Monotonicity check on the cover pairs, which gives it on every pair
    as containment is transitive; raises with the first violating cover."""
    for s, t in v.poset.covers():
        if not v.sub(t).contains(v.sub(s)):
            raise MonotonicityViolation(s, t)


def zero_space(poset: Poset, field: Field) -> SSpace:
    return SSpace(poset, field, 0, {}, validate=False)


def _check_same_category(u: SSpace, v: SSpace):
    if u.poset != v.poset:
        raise PosetMismatch("different posets")
    if u.field != v.field:
        raise FieldMismatch(f"{u.field} vs {v.field}")


class SMorphism:
    """A matrix between ambient spaces respecting every subspace."""

    __slots__ = ("source", "target", "mat")

    def __init__(self, source: SSpace, target: SSpace, mat: Matrix, validate: bool = True):
        _check_same_category(source, target)
        if mat.nrows != source.dim or mat.ncols != target.dim:
            raise InvalidMorphism(
                f"matrix {mat.nrows}x{mat.ncols} for map {source.dim} -> {target.dim}")
        if validate:
            for s in source.poset.elements:
                if not target.sub(s)._holds_image(source.sub(s), mat):
                    raise InvalidMorphism(f"subspace at {s!r} not carried into target")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, *a):
        raise AttributeError("SMorphism is immutable")

    @classmethod
    def identity(cls, v: SSpace) -> "SMorphism":
        return cls(v, v, Matrix.identity(v.field, v.dim), validate=False)

    def then(self, other: "SMorphism") -> "SMorphism":
        """self followed by other (other o self in composition order)."""
        if self.target is not other.source and self.target != other.source:
            raise PosetMismatch("composition mismatch")
        return SMorphism(self.source, other.target, self.mat * other.mat, validate=False)

    def __eq__(self, other):
        return (isinstance(other, SMorphism) and self.source == other.source
                and self.target == other.target and self.mat == other.mat)

    def __hash__(self):
        return hash((self.source, self.target, self.mat))

    def __repr__(self):
        return f"SMorphism({self.source.dim} -> {self.target.dim})"

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def is_mono(self) -> bool:
        return self.mat.rank() == self.source.dim

    def is_epi(self) -> bool:
        return self.mat.rank() == self.target.dim

    def is_proper(self) -> bool:
        """f(U(s)) = V(s) /\\ f(U) for every s."""
        image = Subspace.full(self.source.field, self.source.dim).image(self.mat)
        for s in self.source.poset.elements:
            if self.source.sub(s).image(self.mat) != self.target.sub(s).intersect(image):
                return False
        return True

    def is_iso(self) -> bool:
        return _inverse(self.source, self.target, self.mat) is not None

    def inverse(self):
        """Inverse morphism if the matrix inverts and the inverse respects
        subspaces; None otherwise."""
        inv = _inverse(self.source, self.target, self.mat)
        return None if inv is None else SMorphism(self.target, self.source, inv, validate=False)

    def dualize(self) -> "SMorphism":
        return SMorphism(dualize(self.target), dualize(self.source),
                         self.mat.transpose(), validate=False)


def _inverse(u: SSpace, v: SSpace, mat: Matrix):
    """The inverse matrix of mat : u -> v when there is one and it carries
    each V(s) into U(s), so that mat is an isomorphism; None otherwise.
    The matrix inverse is the one elimination: the images are only
    reduced against the U(s)."""
    inv = mat.inverse()
    if inv is None or not all(u.sub(s)._holds_image(v.sub(s), inv) for s in u.poset.elements):
        return None
    return inv


# ---------------------------------------------------------------------------
# hom spaces


@dataclass(frozen=True)
class HomSpace:
    """Hom(source, target) as its flat solution space: `flat` holds each
    morphism's matrix as its rows laid end to end, of length dim_U * dim_V.
    The basis morphisms are made only when `basis` is read."""

    source: SSpace
    target: SSpace
    flat: Subspace

    @property
    def dim(self) -> int:
        return self.flat.dim

    @property
    def field(self) -> Field:
        return self.source.field

    @property
    def basis(self) -> tuple:
        """One morphism per row of `flat`, in its order."""
        return tuple(SMorphism(self.source, self.target, self._matrix(r), validate=False)
                     for r in self.flat.mat.rows)

    def combination(self, coeffs) -> Matrix:
        """The matrix of sum c_i * basis_i: the coefficient row times `flat`."""
        return self._matrix((Matrix(self.field, [coeffs], self.dim) * self.flat.mat).rows[0])

    def _matrix(self, row) -> Matrix:
        """The dim_U x dim_V matrix whose rows, laid end to end, are row."""
        nv = self.target.dim
        return Matrix._of(self.field, tuple(row[i * nv:(i + 1) * nv]
                                            for i in range(self.source.dim)), nv)


def _hom_pairs(u: SSpace, v: SSpace):
    """The (source rows, target quotient map) pairs whose constraints cut
    Hom(u, v) out of the matrices k^dim_U -> k^dim_V, trimmed.

    f(U(t)) <= V(t) gives f(U(t)) <= V(s) for t < s, so at each s only
    rows that span U(s) together with the U(t) of its lower covers t are
    needed.  The RREF rows of U(s) whose pivot column is not a pivot of
    any such U(t) are kept: the pivots of the U(t) all lie among those of
    their sum, so the kept rows and that sum still span U(s), and by
    induction on the order the kept rows give every constraint.  An s with
    no kept rows or a full V(s) adds none, and its quotient map is not
    made."""
    elements = u.poset.elements
    leads = {s: u.sub(s)._pivots()[0] for s in elements}
    below = {s: set() for s in elements}
    for t, s in u.poset.covers():
        below[s].update(leads[t])
    pairs = []
    for s in elements:
        rows = [r for r, c in zip(u.sub(s).mat.rows, leads[s]) if c not in below[s]]
        if rows and not v.sub(s).is_full():
            pairs.append((rows, v.sub(s).quotient_map()))
    return pairs


def _hom_solutions(u: SSpace, v: SSpace, pairs) -> Subspace:
    """The matrices f : k^dim_U -> k^dim_V, flattened row by row, with
    b * f * c = 0 for each source row b and column c of C, for every pair
    of rows and a matrix C whose columns cut out the target (its quotient
    map).  The constraint of (b, c) holds b[i] * c[j] at i * dim_V + j, and
    is written as the sparse row `solution_space` takes, its nonzero
    entries keyed by reversed column: over Q on ints, each b and c scaled
    once to a primitive integer vector (a nonzero multiple of a constraint
    has its solutions), and over F_p reduced as it is built.  The one
    constraint builder behind Hom spaces and their subspaces, solved by
    one elimination."""
    p = u.field.p
    nv = v.dim
    last = u.dim * nv - 1
    scaled = _primitive if p is None else list
    rows = []
    for brows, cut in pairs:
        cols = [[(j, cj) for j, cj in enumerate(c) if cj] for c in scaled(zip(*cut.rows))]
        for b in scaled(brows):
            terms = [(last - i * nv, bi) for i, bi in enumerate(b) if bi]
            if p is None:
                rows += [{base - j: bi * cj for base, bi in terms for j, cj in c}
                         for c in cols]
            else:
                rows += [{base - j: bi * cj % p for base, bi in terms for j, cj in c}
                         for c in cols]
    return solution_space(u.field, last + 1, rows)


def hom_space(u: SSpace, v: SSpace) -> HomSpace:
    """All S-space morphisms u -> v: the solutions of f(U(s)) <= V(s),
    written f(U(s)) * q_s = 0 for the quotient map q_s of each V(s)."""
    _check_same_category(u, v)
    return HomSpace(u, v, _hom_solutions(u, v, _hom_pairs(u, v)))


def hom_dim(u: SSpace, v: SSpace) -> int:
    return hom_space(u, v).dim


# ---------------------------------------------------------------------------
# standard spaces


def simple_filter_space(poset: Poset, field: Field, antichain) -> SSpace:
    """k_A: one-dimensional, full exactly on the filter generated by A."""
    a = poset.check_antichain(antichain)
    f = poset.generated_filter(a)
    assign = {s: Subspace.full(field, 1) if s in f else Subspace.zero(field, 1)
              for s in poset.elements}
    return SSpace(poset, field, 1, assign, validate=False)


def projective_space(poset: Poset, field: Field, t=None) -> SSpace:
    """P_t = k_{t} for t in S, or the all-zero-subspace projective k_{} for
    t = None (the adjoined top)."""
    return simple_filter_space(poset, field, () if t is None else (t,))


# ---------------------------------------------------------------------------
# duality, direct sums, E functors


def dualize(v: SSpace) -> SSpace:
    """Annihilator subspaces in dual coordinates, over the opposite poset."""
    assign = {s: v.sub(s).annihilator() for s in v.poset.elements}
    return SSpace(v.poset.opposite(), v.field, v.dim, assign, validate=False)


def direct_sum(first: SSpace, *rest: SSpace) -> SSpace:
    """The direct sum of one or more spaces, on the block diagonal.  The
    block diagonal of RREF bases is in RREF, so no elimination is run."""
    for v in rest:
        _check_same_category(first, v)
    spaces = (first,) + rest
    field, dim, zero = first.field, sum(v.dim for v in spaces), first.field.zero

    def block(s):
        rows, before = [], 0
        for v in spaces:
            left, right = (zero,) * before, (zero,) * (dim - before - v.dim)
            rows += [left + r + right for r in v.sub(s).mat.rows]
            before += v.dim
        return Subspace(field, dim, Matrix._of(field, tuple(rows), dim))

    assign = {s: block(s) for s in first.poset.elements}
    return SSpace(first.poset, field, dim, assign, validate=False)


def e_sub(v: SSpace, p) -> tuple[SSpace, SMorphism]:
    """(E^p v, the structural proper mono kappa_p)."""
    b = v.sub(p).mat
    assign = {s: v.sub(s).preimage(b) for s in v.poset.elements}
    ep = SSpace(v.poset, v.field, b.nrows, assign, validate=False)
    return ep, SMorphism(ep, v, b, validate=False)


def e_quot(v: SSpace, p) -> tuple[SSpace, SMorphism]:
    """(E_p v, the structural proper epi pi_p)."""
    q = v.sub(p).quotient_map()
    assign = {s: v.sub(s).image(q) for s in v.poset.elements}
    ep = SSpace(v.poset, v.field, q.ncols, assign, validate=False)
    return ep, SMorphism(v, ep, q, validate=False)


def _e_matrix(f: SMorphism, p, mode: str) -> Matrix:
    """The matrix of E_p f (mode filter): f on complement rows of U(p),
    then the quotient map of V(p); or of E^p f (mode ideal): f on the
    basis of U(p), in the coordinates of V(p)."""
    check_mode(mode)
    u, v = f.source, f.target
    if mode == "filter":
        return u.sub(p).complement() * f.mat * v.sub(p).quotient_map()
    return v.sub(p).express_rows(u.sub(p).mat * f.mat)


def e_functor_map(f: SMorphism, p, mode: str) -> SMorphism:
    """Action of E_p (mode filter) or E^p (mode ideal) on a morphism; any
    other mode is a ValueError."""
    mat = _e_matrix(f, p, mode)
    e = e_quot if mode == "filter" else e_sub
    return SMorphism(e(f.source, p)[0], e(f.target, p)[0], mat, validate=False)


# ---------------------------------------------------------------------------
# isomorphism (a search with a fixed budget), minimality and indecomposability


@dataclass(frozen=True)
class IsoResult:
    status: str  # "iso" | "not_iso" | "undecided"
    witness: SMorphism = None

    @property
    def is_iso(self):
        return self.status == "iso"


def _all_combinations(hom: HomSpace):
    """The matrix of every element of the hom space, the first coefficient
    varying fastest; only callable over a prime field."""
    for c in product(range(hom.field.p), repeat=hom.dim):
        yield hom.combination(c[::-1])


def _sampled_candidates(hom: HomSpace):
    """Matrices: structured trials first (each basis element, each sum of
    two), then 2000 random combinations over F_p, 20 over Q, fixed seed."""
    rng = random.Random(0)
    units = [[int(i == j) for j in range(hom.dim)] for i in range(hom.dim)]
    yield from map(hom.combination, units)
    for a, b in combinations(units, 2):
        yield hom.combination([x + y for x, y in zip(a, b)])
    trials = 20 if hom.field.p is None else 2000
    for _ in range(trials):
        yield hom.combination([rng.randrange(-3, 4) for _ in range(hom.dim)])


def are_isomorphic(u: SSpace, v: SSpace) -> IsoResult:
    """Isomorphism search with a fixed budget of ISO_BUDGET candidates and
    a fixed random stream.  A positive answer always carries a verified
    witness; a negative one only follows from certified obstructions or an
    exhausted prime-field enumeration; anything else is undecided."""
    _check_same_category(u, v)
    if u.dim != v.dim:
        return IsoResult("not_iso")
    if any(u.sub(s).dim != v.sub(s).dim for s in u.poset.elements):
        return IsoResult("not_iso")
    if u == v:
        return IsoResult("iso", SMorphism.identity(u))
    if u.dim == 0:
        return IsoResult("iso", SMorphism(u, v, Matrix(u.field, [], 0), validate=False))
    huv = hom_space(u, v)
    if not (huv.dim == hom_dim(v, u) == hom_dim(u, u) == hom_dim(v, v)):
        return IsoResult("not_iso")
    if huv.dim == 0:
        return IsoResult("not_iso")
    exhaustive = huv.field.p is not None and huv.field.p ** huv.dim <= ISO_BUDGET
    candidates = _all_combinations(huv) if exhaustive else _sampled_candidates(huv)
    for mat in islice(candidates, ISO_BUDGET):
        if _inverse(u, v, mat) is not None:
            return IsoResult("iso", SMorphism(u, v, mat, validate=False))
    return IsoResult("not_iso") if exhaustive else IsoResult("undecided")


def _endo_solutions_fixing(f: SMorphism) -> HomSpace:
    """{h in End(source) : h then f = 0}; the solutions of g then f = f
    are exactly id + this space."""
    u = f.source
    pairs = _hom_pairs(u, u)
    # h then f = 0: the columns of f cut out the left kernel of f
    pairs.append((Matrix.identity(u.field, u.dim).rows, f.mat))
    return HomSpace(u, u, _hom_solutions(u, u, pairs))


def is_right_minimal(f: SMorphism) -> bool:
    """Exact: every g with g then f = f, that is id + L for the left ideal
    L = {h : h then f = 0} of End(U), is invertible iff L is nilpotent.
    W = k^dim U becomes the sum of its images under a basis of L until it
    is 0 (nilpotent) or stops shrinking (not): at most dim U rounds."""
    u = f.source
    ideal = [h.mat for h in _endo_solutions_fixing(f).basis]
    if not ideal:
        return True
    w = Subspace.full(u.field, u.dim)
    while not w.is_zero():  # one elimination of the stacked images per round
        shrunk = Subspace._of(u.field, u.dim, *vstack(*(w.mat * h for h in ideal)).rref())
        if shrunk.dim == w.dim:
            return False
        w = shrunk
    return True


def is_left_minimal(f: SMorphism) -> bool:
    return is_right_minimal(f.dualize())


def find_idempotent(end: HomSpace):
    """First nontrivial idempotent in an endomorphism space over a prime
    field, or None after exhausting all q^dim elements.  The caller is
    responsible for checking the budget."""
    if end.field.p is None:
        raise FieldMismatch("exhaustive idempotent search needs a prime field")
    n = end.source.dim
    ident = Matrix.identity(end.field, n)
    for m in _all_combinations(end):
        if m.is_zero() or m == ident:
            continue
        if m * m == m:
            return SMorphism(end.source, end.target, m, validate=False)
    return None


def is_indecomposable(v: SSpace):
    """True when End(v) is certified to have no idempotent besides 0 and
    1: dim End = 1 over any field, or an exhausted search over F_p.  False
    for the zero space or a found idempotent.  None when undecided: over Q
    with dim End > 1, or when the search would exceed END_CAP elements."""
    if v.dim <= 1:
        return v.dim == 1
    end = hom_space(v, v)
    if end.dim == 1:
        return True
    if v.field.p is None or v.field.p ** end.dim > END_CAP:
        return None
    return find_idempotent(end) is None
