"""Ground truth by exhaustion: classify the monotone subspace assignments
over a small prime field up to base change, one representative per
class, and decide which classes are indecomposable.

The group that acts on subspace indices is the full GL(n, q) when n <= 3
and q^(n^2) <= 70 000, and a fixed-seed sample of it otherwise.  Both
are walked the same way, by stabiliser descent (McKay's isomorph-free
generation): the assignments grow in element order, each element bounded
by the choices of the earlier elements below and above it; a prefix
carries the listed group elements that fix it, and a candidate for the
next element is skipped when an earlier candidate's orbit under them
holds it.  A skipped candidate is the image of a kept one under an
element of GL that fixes the prefix, so the least assignment of every
class is a leaf, and the leaves arrive in lexicographic order, each class
first at its least assignment; no other assignment is listed or
remembered.  At an exact dimension, where the whole group is listed,
each class has one leaf, and indecomposability is decided by the
direct-sum rule, with no linear algebra: by Krull-Schmidt a class is
decomposable exactly when its orbit holds X (+) Y for classes X and Y of
dimensions k and n - k, 1 <= k <= n/2, and every dimension below an
exact one is exact, so those classes are already listed.  With a sample a class can have
several leaves: they are merged through verified isomorphism witnesses,
indecomposability is decided by idempotent search in the endomorphism
ring, and the census is marked as sampled; a class that search leaves
open is counted as undecided, and the table names how many at each
dimension.

The group acts on integers, not matrices.  The lines of k^n are numbered
by their representatives whose first nonzero entry is 1 (`_lines`), and a
subspace is the bitmask of the lines it contains, the zero subspace being
0 (`_point_masks`); containment is `small & ~big == 0`.  A group element
g is the permutation "line i goes to line j" under v -> v*g
(`_line_permutations`), and the image of a subspace is the image of its
mask under that permutation, looked up among the masks.  The images of
one subspace under every element are made the first time the descent
needs them (`_image_rows`).
The subspaces, their masks and the image rows depend only on (q, n) and
are made once per process (`_action`), so each row is made at most once.
That holds at a sampled dimension too: its sample is drawn once per
(q, n), from a fresh seed-0 stream of its own, so the group at n is the
same whatever else the process has asked for.
Lines, not all q^n vectors: a vector table would cost q^n per group
element, which is out of reach at large q even for n = 1.  The number of
subspaces of k^max_dim is capped (MAX_SUBSPACES) unless the guardrails
are forced.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import islice, product
from operator import getitem, mul

from .differentiation import nu_count
from .errors import BudgetExceeded, GuardrailExceeded, Mismatch, PosetMismatch
from .linalg import Field, Matrix, Subspace
from .poset import Poset
from .sspace import SSpace, are_isomorphic, is_indecomposable

MAX_DIM = 4
MAX_POSET = 6
EXHAUSTIVE_GROUP_CAP = 70_000  # q^(n^2) above this forces sampling
GROUP_SAMPLE = 2000  # group elements drawn when sampling
# Subspaces of k^max_dim: the action tables hold one entry per group element
# and subspace, and the assignment search tries every subspace per element.
MAX_SUBSPACES = 4096


@dataclass(frozen=True)
class EnumConfig:
    poset: Poset
    q: int = 2
    max_dim: int = 2
    force: bool = False

    def check(self):
        Field.prime(self.q)  # a field that is not prime fails before any size check
        if self.force:
            return
        if self.max_dim > MAX_DIM:
            raise GuardrailExceeded(f"max_dim {self.max_dim} > {MAX_DIM}")
        if len(self.poset) > MAX_POSET:
            raise GuardrailExceeded(f"poset size {len(self.poset)} > {MAX_POSET}")
        count = _subspace_count(self.q, self.max_dim)
        if count > MAX_SUBSPACES:
            raise GuardrailExceeded(f"{count} subspaces of F{self.q}^{self.max_dim} "
                                    f"> {MAX_SUBSPACES}")


def _exhaustive_group(q: int, n: int) -> bool:
    """Whether the census acts with all of GL(n, q) rather than a sample."""
    return n <= 3 and q ** (n * n) <= EXHAUSTIVE_GROUP_CAP


def _subspace_count(q: int, n: int) -> int:
    """The number of subspaces of F_q^n: the sum over k of the Gaussian
    binomials [n choose k]_q, from [m, k] = [m-1, k-1] + q^k [m-1, k]."""
    row = [1]
    for m in range(1, n + 1):
        row = [1] + [row[k - 1] + q ** k * row[k] for k in range(1, m)] + [1]
    return sum(row)


def all_subspaces(field: Field, n: int) -> list[Subspace]:
    """Every subspace of k^n, enumerated through row echelon shapes,
    sorted by (dim, basis entries) so indices are canonical."""
    from itertools import combinations

    if field.p is None:
        raise GuardrailExceeded("exhaustive enumeration needs a prime field")
    scalars = range(field.p)
    out = []
    for r in range(n + 1):
        for pivots in combinations(range(n), r):
            free_positions = []
            for i, pc in enumerate(pivots):
                for c in range(pc + 1, n):
                    if c not in pivots:
                        free_positions.append((i, c))
            for values in product(scalars, repeat=len(free_positions)):
                rows = [[field.zero] * n for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = field.one
                for (i, c), val in zip(free_positions, values):
                    rows[i][c] = val
                out.append(Subspace(field, n, Matrix(field, rows, n)))
    out.sort(key=lambda s: (s.dim, s.mat.rows))
    return out


def _lines(p: int, n: int) -> list[tuple]:
    """The lines of k^n by their representatives whose first nonzero entry
    is 1; line i of k^n is entry i of this list."""
    return [(0,) * lead + (1,) + tail for lead in range(n)
            for tail in product(range(p), repeat=n - lead - 1)]


def _point_masks(subs) -> list[int]:
    """Each subspace as the bitmask of the lines it contains (bit i for
    line i of `_lines`); the zero subspace is 0.  The combinations of an
    echelon basis whose first nonzero coefficient is 1 are exactly the
    representatives of the lines it spans."""
    p, n = subs[0].field.p, subs[0].ambient
    index = {v: i for i, v in enumerate(_lines(p, n))}
    coefficients = [_lines(p, r) for r in range(n + 1)]
    masks = []
    for s in subs:
        cols = list(zip(*s.mat.rows))
        mask = 0
        for c in coefficients[s.dim]:
            mask |= 1 << index[tuple(sum(map(mul, c, col)) % p for col in cols)]
        masks.append(mask)
    return masks


def _line_permutations(p: int, n: int, matrices):
    """For each n x n matrix g (rows of ints in [0, p)) that is invertible,
    the array "line i goes to line perm[i]" under v -> v*g; a singular g,
    which sends some representative to 0, is skipped."""
    lines = _lines(p, n)
    index = {v: i for i, v in enumerate(lines)}
    typecode = "H" if len(lines) <= 1 << 16 else "L"
    # Line i is e_lead + c * (line k) with k > i, or e_lead when c = 0, so
    # going backwards v*g is g[lead] + c * (line k)*g, one row operation.
    steps = []
    for v in lines:
        lead = v.index(1)
        c = next(filter(None, v[lead + 1:]), 0)
        inv = pow(c, p - 2, p)
        rest = tuple(x * inv % p if j > lead else 0 for j, x in enumerate(v))
        steps.append((lead, c, index.get(rest)))
    images = [None] * len(lines)
    for g in matrices:
        perm = [0] * len(lines)
        for i in range(len(lines) - 1, -1, -1):
            lead, c, k = steps[i]
            w = [(a + c * b) % p for a, b in zip(g[lead], images[k])] if c else g[lead]
            if not any(w):
                break
            images[i] = w
            x = next(filter(None, w))
            if x != 1:
                inv = pow(x, p - 2, p)
                w = [y * inv % p for y in w]
            perm[i] = index[tuple(w)]
        else:
            yield array(typecode, perm)


def _general_linear(field: Field, n: int):
    """GL(n, q) as line permutations, in row-major order of the matrix
    entries; caller guards the size."""
    p = field.p
    candidates = (tuple(entries[i * n:(i + 1) * n] for i in range(n))
                  for entries in product(range(p), repeat=n * n))
    return _line_permutations(p, n, candidates)


def _sampled_group(field: Field, n: int, count: int, rng: random.Random):
    """`count` invertible matrices drawn entry by entry in row-major order,
    as line permutations."""
    p = field.p

    def draws():
        while True:
            yield [[rng.randrange(p) for _ in range(n)] for _ in range(n)]

    return islice(_line_permutations(p, n, draws()), count)


@cache
def _action(q: int, n: int):
    """(the subspaces of k^n, their line masks, the image-row function of
    the group, the indices of its elements).  The group is all of GL(n, q)
    at an exact dimension, and GROUP_SAMPLE elements drawn from a fresh
    seed-0 stream at a sampled one.  All of it depends only on (q, n) and
    is made once."""
    field = Field.prime(q)
    subs = tuple(all_subspaces(field, n))
    masks = _point_masks(subs)
    if _exhaustive_group(q, n):
        group = list(_general_linear(field, n))
    else:
        group = list(_sampled_group(field, n, GROUP_SAMPLE, random.Random(0)))
    return subs, masks, _image_rows(masks, group), range(len(group))


def _image_rows(masks, group):
    """The function j -> row j, which maps each element of `group`, in
    order, to the index of the image of subspace j under it.  The group (an
    iterable of line permutations) is read here, once; a row is made the
    first time it is asked for."""
    index = {m: i for i, m in enumerate(masks)}
    n_lines = masks[-1].bit_length()  # the last subspace is the whole space
    perms = list(group)
    bits = [1 << i for i in range(n_lines)]
    rows = {}

    def row(j):
        made = rows.get(j)
        if made is None:
            mask = masks[j]
            lines = [i for i in range(mask.bit_length()) if mask >> i & 1]
            made = rows[j] = [index[sum([bits[perm[i]] for i in lines])]
                              for perm in perms]
        return made

    return row


def _monotone_assignments(poset: Poset, masks, row, group):
    """The order-respecting choices of a subspace index per element that
    the stabiliser descent keeps, the subspaces given by their line masks
    (`_point_masks`), as tuples aligned with poset.elements, in
    lexicographic order.  The group is a list of indices of its elements
    in the image rows `row(j)`; with fewer than two elements, as with
    `None, ()`, every monotone assignment is kept.
    Element i may take subspace j iff masks[j] holds the masks chosen for
    the earlier elements below i and lies inside those chosen for the
    earlier elements above i, and no prefix dies: the meet of the upper
    bounds is a subspace holding the lower bounds.  Each prefix carries its
    stabiliser, the listed elements that fix every subspace in it.  These
    keep both bounds, so they map candidates to candidates: the candidates
    are taken in ascending order, one is skipped when an earlier one's
    orbit under the stabiliser holds it, and each child keeps the elements
    that fix its own subspace too.  Each class then has a leaf at its
    least assignment, its first; with the whole of GL(n, q) listed that is
    its only leaf (McKay's isomorph-free generation, with no generators
    needed)."""
    elements = poset.elements
    level = [((), group)]
    for i, s in enumerate(elements):
        below = [k for k in range(i) if poset.leq(elements[k], s)]
        above = [k for k in range(i) if poset.leq(s, elements[k])]
        grown = []
        for a, stab in level:
            need, room = 0, -1
            for k in below:
                need |= masks[a[k]]
            for k in above:
                room &= masks[a[k]]
            seen = set()
            for j, mask in enumerate(masks):
                if need & ~mask or mask & ~room or j in seen:
                    continue
                if len(stab) > 1:  # one element or none: skip nothing here or below
                    images = row(j)
                    seen.update([images[g] for g in stab])
                    grown.append((a + (j,), [g for g in stab if images[g] == j]))
                else:
                    grown.append((a + (j,), stab))
        level = grown
    return [a for a, _ in level]


def _assignment_to_space(poset: Poset, field: Field, subs, assignment) -> SSpace:
    assign = {s: subs[j] for s, j in zip(poset.elements, assignment)}
    return SSpace(poset, field, subs[0].ambient, assign, validate=False)


@dataclass
class DimCensus:
    """The classes at one dimension.  At an exact dimension a class is
    indecomposable unless it is a direct sum of two lower classes, so
    n_undecided is 0; at a sampled one the verdict comes from idempotent
    search and can be undecided."""

    dim: int
    n_classes: int = 0
    n_indecomposable: int = 0
    n_undecided: int = 0
    reps: list = dc_field(default_factory=list)  # indecomposable reps only


@dataclass
class OracleCensus:
    config: EnumConfig
    per_dim: list = dc_field(default_factory=list)
    sampled: bool = False

    @property
    def total_indecomposable(self) -> int:
        return sum(d.n_indecomposable for d in self.per_dim)

    @property
    def total_undecided(self) -> int:
        return sum(d.n_undecided for d in self.per_dim)

    def new_at_top_dim(self) -> int:
        return self.per_dim[-1].n_indecomposable if self.per_dim else 0

    def table(self) -> str:
        lines = ["dim | #classes | #indecomposable"]
        for d in self.per_dim:
            lines.append(f"{d.dim:3d} | {d.n_classes:8d} | {d.n_indecomposable:15d}")
        undecided = [f"{d.n_undecided} at dim {d.dim}" for d in self.per_dim if d.n_undecided]
        if undecided:
            lines.append(f"(undecided classes: {', '.join(undecided)})")
        if self.sampled:
            dims = [str(d.dim) for d in self.per_dim
                    if not _exhaustive_group(self.config.q, d.dim)]
            label = "dim" if len(dims) == 1 else "dims"
            lines.append(f"(isomorphism classing sampled at {label} {', '.join(dims)})")
        return "\n".join(lines)


def enumerate_indecomposables(cfg: EnumConfig) -> OracleCensus:
    """The census of classes and indecomposable classes per dimension up
    to cfg.max_dim.  At exact dimensions the verdicts come from the
    direct-sum rule and no Hom system is solved; the endomorphism ring is
    searched for idempotents only at sampled dimensions.  An S-space is
    built only for the representatives that are kept or searched."""
    cfg.check()
    field = Field.prime(cfg.q)
    census = OracleCensus(cfg)
    for n, subs, reps, split in _classes(cfg, field):
        census.sampled |= split is None
        dim_c = DimCensus(dim=n, n_classes=len(reps))
        for rep in reps:
            if split is not None and rep in split:
                continue
            space = _assignment_to_space(cfg.poset, field, subs, rep)
            verdict = split is not None or is_indecomposable(space)
            if verdict is None:
                dim_c.n_undecided += 1
            elif verdict:
                dim_c.n_indecomposable += 1
                dim_c.reps.append(space)
        census.per_dim.append(dim_c)
    return census


def _classes(cfg: EnumConfig, field: Field):
    """For n = 1 .. cfg.max_dim: (n, the subspaces of k^n, one
    representative per class, the split classes).  The candidates are the
    leaves of the stabiliser descent.  Where the group is exhaustive each
    is the least assignment of its class, and the last item is the set of
    those whose orbit holds a direct sum of two lower classes; the
    representative is tested itself, as the empty assignment has no
    images.  Where the group is sampled the candidates are merged by
    isomorphism witnesses and the last item is None."""
    subs = {}
    classes = {}  # n -> every class representative at the exact dim n
    for n in range(1, cfg.max_dim + 1):
        subs[n], masks, row, group = _action(cfg.q, n)
        reps = _monotone_assignments(cfg.poset, masks, row, group)
        if _exhaustive_group(cfg.q, n):
            sums = _direct_sums(classes, subs, n)
            classes[n] = reps
            split = {a for a in reps
                     if a in sums or not sums.isdisjoint(zip(*[row(j) for j in a]))}
            yield n, subs[n], reps, split
        else:
            yield n, subs[n], _merge_sampled_classes(cfg, field, subs[n], reps), None


def _direct_sums(classes, subs, n: int) -> set:
    """Every assignment X (+) Y in k^n = k^k (+) k^(n-k) with X a class of
    dim k and Y one of dim n - k, 1 <= k <= n/2.  The block diagonal of
    two echelon bases is an echelon basis, so the index of X(s) (+) Y(s)
    is looked up by the padded rows of the two."""
    index = {s.mat.rows: i for i, s in enumerate(subs[n])}
    sums = set()
    for k in range(1, n // 2 + 1):
        zeros_k, zeros_rest = (0,) * k, (0,) * (n - k)
        table = [[index[tuple(r + zeros_rest for r in x.mat.rows)
                        + tuple(zeros_k + r for r in y.mat.rows)]
                  for y in subs[n - k]] for x in subs[k]]
        for x in classes[k]:
            blocks = [table[i] for i in x]
            sums.update(tuple(map(getitem, blocks, y)) for y in classes[n - k])
    return sums


def _merge_sampled_classes(cfg: EnumConfig, field: Field, subs, reps):
    """The first of each class among the candidates `reps`, in their
    order: a candidate is dropped when a verified isomorphism witness
    identifies it with one kept before it.  A sampled descent can leave
    several leaves of one class, the least of them first."""
    spaces = [_assignment_to_space(cfg.poset, field, subs, r) for r in reps]
    kept = []
    kept_spaces = []
    for rep, space in zip(reps, spaces):
        if not any(space.dims_profile() == other.dims_profile()
                   and are_isomorphic(space, other).is_iso
                   for other in kept_spaces):
            kept.append(rep)
            kept_spaces.append(space)
    return kept


@dataclass
class CensusReport:
    poset: Poset
    census: OracleCensus
    nu_status: str
    nu_value: int
    oracle_total: int
    complete: bool
    note: str

    def text(self) -> str:
        lines = [self.census.table(), ""]
        lines.append(f"recursion: nu={self.nu_value if self.nu_status == 'ok' else self.nu_status}")
        lines.append(f"oracle total (dim <= {self.census.config.max_dim}): {self.oracle_total}")
        lines.append(self.note)
        return "\n".join(lines)


def cross_check_nu(p: Poset, cfg: EnumConfig) -> CensusReport:
    """Compare the differentiation recursion with the exhaustive census.

    The oracle can only ever find at most nu classes; finding more is an
    implementation bug and raises Mismatch.  Equality is reported together
    with the dimension bound that justifies it for the instance.  cfg must
    configure the census of p itself, else PosetMismatch."""
    if cfg.poset != p:
        raise PosetMismatch("the census config is for a different poset")
    cfg.check()  # before the recursion, which can run for minutes
    trace = nu_count(p)
    census = enumerate_indecomposables(cfg)
    total = census.total_indecomposable
    if census.total_undecided:
        raise BudgetExceeded(f"{census.total_undecided} classes undecided")
    complete = False
    note = f"dim bound {cfg.max_dim}: "
    if trace.status == "ok":
        if total > trace.nu:
            raise Mismatch(f"oracle found {total} > nu = {trace.nu}")
        complete = total == trace.nu
        if complete:
            evidence = ("no new indecomposables at the top dimension"
                        if census.new_at_top_dim() == 0
                        else "recursion value reached exactly at this bound")
            note += f"complete ({evidence})"
        else:
            note += f"partial, {trace.nu - total} classes above the bound"
    else:
        note += f"recursion returned {trace.status}; census is a lower bound"
    return CensusReport(p, census, trace.status,
                        trace.nu if trace.status == "ok" else None,
                        total, complete, note)
