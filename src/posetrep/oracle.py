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
block-sum rule, with no linear algebra and no list of sums: by
Krull-Schmidt a class is decomposable exactly when some element of
GL(n, q) maps every subspace of it onto a block sum
W = (W & k^k) (+) (W & k^(n-k)) for one k, 1 <= k <= n/2 (a swap of the
blocks covers the larger k).  For each k and subspace j the elements that
send j to a block sum form one bitmask, so the test is one AND per
subspace of the representative (`_split_test`).  The census keeps the
assignments of the indecomposable classes there, and builds their
S-spaces only when `DimCensus.reps` is read.  With a sample a class can have
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
one subspace under every element, and for each image the elements that
send the subspace there, are made the first time the descent needs them
(`_image_rows`).
Every set the descent walks is an int bitmask.  A stabiliser is the
bitmask of the positions of its elements in the listed group, the orbit
of a candidate under it is every image k with `stab & moves(j)[k]`, and
the candidates of a prefix are the AND of the containment masks of its
earlier choices (`_containment`), a bitmask of subspace indices.
The subspaces, their containment masks and the image rows depend only on
(q, n) and are made once per process (`_action`), so each row is made at
most once; so are the bitmasks of block sums the split test reads
(`_block_sums`), and its per-subspace masks are made on first use.
That holds at a sampled dimension too: its sample is
drawn once per (q, n), from a fresh seed-0 stream of its own, so the
group at n is the same whatever else the process has asked for.
Lines, not all q^n vectors: a vector table would cost q^n per group
element, which is out of reach at large q even for n = 1.  The number of
subspaces of k^max_dim is capped (MAX_SUBSPACES), and so is the number
of candidates a sampled dimension hands to the isomorphism merge
(MAX_SAMPLED_LEAVES), unless the guardrails are forced.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field as dc_field
from functools import cache, partial
from itertools import islice, product
from operator import mul

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
# Candidates the descent leaves at a sampled dimension, which the merge tests
# pairwise for isomorphism: (1,1,2) over F_2 at dim 4 leaves 3,086 and its
# census takes about 16 s; (1,2,2) leaves 20,029 and would run for hours.
MAX_SAMPLED_LEAVES = 4000


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
    """(the subspaces of k^n, their containment masks (`_containment`),
    the image-row and moves functions of the group (`_image_rows`), the
    group as the bitmask of its element positions, the split test
    (`_split_test`) or None).  The group is all of GL(n, q) at an exact
    dimension, with its split test, and GROUP_SAMPLE elements drawn from a
    fresh seed-0 stream at a sampled one, with none.  All of it depends
    only on (q, n) and is made once."""
    field = Field.prime(q)
    subs = tuple(all_subspaces(field, n))
    masks = _point_masks(subs)
    exact = _exhaustive_group(q, n)
    if exact:
        group = list(_general_linear(field, n))
    else:
        group = list(_sampled_group(field, n, GROUP_SAMPLE, random.Random(0)))
    row, moves = _image_rows(masks, group)
    everything = (1 << len(group)) - 1
    splits = _split_test(moves, everything, _block_sums(q, n, masks, subs)) if exact else None
    return subs, _containment(masks), row, moves, everything, splits


def _members(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    digits = bin(mask)[:1:-1]  # bit i is digit i
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


@cache
def _slots(count: int) -> list[tuple[int, int]]:
    """The (byte, bit) of each position r < count in a bytearray bitmap;
    made once per count, as every sampled group has GROUP_SAMPLE elements."""
    return [(r >> 3, 1 << (r & 7)) for r in range(count)]


def _inverse(pairs, count: int) -> dict:
    """A relation between positions r < count and keys i, given as pairs
    ((byte, bit) of r (`_slots`), i), read backwards: {i: the bitmask of
    the positions r paired with i}.  Each mask is made as a bytearray
    bitmap and read once, so no big int is shifted per pair."""
    bitmaps = {}
    size = (count + 7) >> 3
    for (byte, bit), i in pairs:
        bitmap = bitmaps.get(i)
        if bitmap is None:
            bitmap = bitmaps[i] = bytearray(size)
        bitmap[byte] |= bit
    return {i: int.from_bytes(b, "little") for i, b in bitmaps.items()}


def _containment(masks) -> tuple[list[int], list[int]]:
    """(holders, inside): for each subspace j, given by their line masks,
    the bitmask of the subspace indices k whose subspace holds j, and that
    of those whose subspace lies inside j.  A subspace holds j when it
    holds every line of j, and k is inside j when j holds k."""
    count = len(masks)
    slots = _slots(count)
    lines = [_members(m) for m in masks]
    on = _inverse(((slots[k], i) for k, ls in enumerate(lines) for i in ls), count)
    everything = (1 << count) - 1
    holders = []
    for ls in lines:
        held = everything
        for i in ls:
            held &= on[i]
        holders.append(held)
    inside = _inverse(((slots[k], j) for k, h in enumerate(holders) for j in _members(h)),
                      count)
    return holders, [inside[j] for j in range(count)]


def _image_rows(masks, group):
    """(row, moves): row(j) maps each element of `group`, in order, to the
    index of the image of subspace j under it, and moves(j) maps each
    image k of j to the bitmask of the positions of the elements sending
    j to k.  The group (an iterable of line permutations) is read here,
    once; a row or its moves are made the first time they are asked for."""
    index = {m: i for i, m in enumerate(masks)}
    n_lines = masks[-1].bit_length()  # the last subspace is the whole space
    perms = list(group)
    bits = [1 << i for i in range(n_lines)]
    slots = _slots(len(perms))
    rows, moved = {}, {}

    def row(j):
        made = rows.get(j)
        if made is None:
            lines = _members(masks[j])
            made = rows[j] = [index[sum([bits[perm[i]] for i in lines])]
                              for perm in perms]
        return made

    def moves(j):
        made = moved.get(j)
        if made is None:
            made = moved[j] = _inverse(zip(slots, row(j)), len(perms))
        return made

    return row, moves


def _block_sums(q: int, n: int, masks, subs) -> list[int]:
    """For k = 1 .. n // 2, the bitmask of the indices of the subspaces W
    of k^n that are block sums (W & E1) (+) (W & E2), with E1 spanned by
    the first k unit vectors and E2 by the rest: those with
    dim(W & E1) + dim(W & E2) = dim W.  A meet is read off the line masks
    (`_point_masks`), and a subspace of dimension d holds (q^d - 1)/(q - 1)
    lines."""
    lines = _lines(q, n)
    dim_of = {(q ** d - 1) // (q - 1): d for d in range(n + 1)}
    out = []
    for k in range(1, n // 2 + 1):
        first = sum(1 << i for i, v in enumerate(lines) if not any(v[k:]))
        second = sum(1 << i for i, v in enumerate(lines) if not any(v[:k]))
        out.append(sum(1 << j for j, (m, s) in enumerate(zip(masks, subs))
                       if dim_of[(m & first).bit_count()]
                       + dim_of[(m & second).bit_count()] == s.dim))
    return out


def _split_test(moves, group: int, block_sums):
    """splits(a): whether some element of `group` (a bitmask of positions
    in the image rows) maps every subspace of the assignment a onto a
    block sum for one k (`_block_sums`).  For each k and subspace j the
    elements that send j to a block sum, the OR of `moves(j)[t]` over the
    block sums t, are made the first time they are asked for; a is split
    when their AND over its subspaces is not empty for some k.  The empty
    assignment keeps the whole group, so it is split whenever there is a
    k, at n >= 2."""
    goods = [{} for _ in block_sums]

    def splits(a) -> bool:
        for sums, good in zip(block_sums, goods):
            common = group
            for j in a:
                sends = good.get(j)
                if sends is None:
                    sends = 0
                    for t, by in moves(j).items():
                        if sums >> t & 1:
                            sends |= by
                    good[j] = sends
                common &= sends
                if not common:
                    break
            if common:
                return True
        return False

    return splits


def _monotone_assignments(poset: Poset, bounds, moves, group: int):
    """The order-respecting choices of a subspace index per element that
    the stabiliser descent keeps, as tuples aligned with poset.elements, in
    lexicographic order.  `bounds` is (holders, inside) of each subspace
    (`_containment`).  Stabiliser, orbit and candidate sets are bitmasks:
    the group and each stabiliser are bitmasks of positions of elements in
    the image rows, `moves(j)` (`_image_rows`) maps each image k of j to
    the elements sending j to k, and a set of candidates is a bitmask of
    subspace indices.  With fewer than two elements in the group, as with
    `None, 0`, every monotone assignment is kept.
    Element i may take subspace j iff j holds the subspaces chosen for the
    earlier elements below i and lies inside those chosen for the earlier
    elements above i (`Poset.earlier_bounds`): its candidates are the AND
    of their holders and inside masks, and a prefix with no candidate dies.  Each prefix
    carries its stabiliser, the listed elements that fix every subspace in
    it.  These keep both bounds, so they map candidates to candidates: the
    candidates are taken in ascending order, each kept one takes its orbit
    under the stabiliser (every k with `stab & moves(j)[k]`) out of the
    rest, and its child keeps the elements that fix its own subspace too
    (`stab & moves(j)[j]`; a partial group need not fix j).  Each
    class then has a leaf at its least assignment, its first; with the
    whole of GL(n, q) listed that is its only leaf (McKay's isomorph-free
    generation, with no generators needed)."""
    holders, inside = bounds
    everything = (1 << len(holders)) - 1
    level = [((), group)]
    for below, above in poset.earlier_bounds():
        grown = []
        for a, stab in level:
            candidates = everything
            for k in below:
                candidates &= holders[a[k]]
            for k in above:
                candidates &= inside[a[k]]
            if not stab & (stab - 1):  # one element or none: skip nothing here or below
                grown += [(a + (j,), stab) for j in _members(candidates)]
                continue
            while candidates:
                low = candidates & -candidates
                j = low.bit_length() - 1
                moved = moves(j)
                orbit = low
                for k, sends in moved.items():
                    if stab & sends:
                        orbit |= 1 << k
                candidates &= ~orbit
                grown.append((a + (j,), stab & moved.get(j, 0)))
        level = grown
    return [a for a, _ in level]


def _assignment_to_space(poset: Poset, field: Field, subs, assignment) -> SSpace:
    assign = {s: subs[j] for s, j in zip(poset.elements, assignment)}
    return SSpace(poset, field, subs[0].ambient, assign, validate=False)


@dataclass
class DimCensus:
    """The classes at one dimension.  At an exact dimension a class is
    indecomposable unless the block-sum rule splits it, so n_undecided is
    0; at a sampled one the verdict comes from idempotent search and can be
    undecided.  `reps` are the indecomposable representatives as S-spaces.
    At an exact dimension the verdict needs no space, so the census keeps
    their assignments and `make` turns them into spaces when `reps` is
    first read; the spaces are then kept."""

    dim: int
    n_classes: int = 0
    n_indecomposable: int = 0
    n_undecided: int = 0
    kept: list = dc_field(default_factory=list, repr=False)
    make: object = dc_field(default=None, repr=False)

    @property
    def reps(self) -> list:
        if self.make is not None:
            self.kept = [self.make(a) for a in self.kept]
            self.make = None
        return self.kept


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
    block-sum rule, no Hom system is solved and no S-space is built until
    `DimCensus.reps` is read; the endomorphism ring is searched for
    idempotents only at sampled dimensions, which build a space for every
    representative."""
    cfg.check()
    field = Field.prime(cfg.q)
    census = OracleCensus(cfg)
    for n, subs, reps, split in _classes(cfg, field):
        census.sampled |= split is None
        dim_c = DimCensus(dim=n, n_classes=len(reps))
        if split is not None:
            dim_c.kept = [rep for rep in reps if rep not in split]
            dim_c.n_indecomposable = len(dim_c.kept)
            dim_c.make = partial(_assignment_to_space, cfg.poset, field, subs)
        else:
            for rep in reps:
                space = _assignment_to_space(cfg.poset, field, subs, rep)
                verdict = is_indecomposable(space)
                if verdict is None:
                    dim_c.n_undecided += 1
                elif verdict:
                    dim_c.n_indecomposable += 1
                    dim_c.kept.append(space)
        census.per_dim.append(dim_c)
    return census


def _classes(cfg: EnumConfig, field: Field):
    """For n = 1 .. cfg.max_dim: (n, the subspaces of k^n, one
    representative per class, the split classes).  The candidates are the
    leaves of the stabiliser descent.  Where the group is exhaustive each
    is the least assignment of its class, and the last item is the set of
    those the block-sum rule splits (`_split_test`): by Krull-Schmidt a
    class is decomposable exactly when an element of GL(n, q) maps every
    subspace of it onto a block sum for one k.  Where the group is sampled
    the candidates are merged by isomorphism witnesses, at most
    MAX_SAMPLED_LEAVES of them unless the guardrails are forced, and the
    last item is None."""
    for n in range(1, cfg.max_dim + 1):
        subs, bounds, _, moves, group, splits = _action(cfg.q, n)
        reps = _monotone_assignments(cfg.poset, bounds, moves, group)
        if splits is not None:
            yield n, subs, reps, set(filter(splits, reps))
        else:
            if len(reps) > MAX_SAMPLED_LEAVES and not cfg.force:
                raise GuardrailExceeded(f"{len(reps)} candidate classes at the sampled "
                                        f"dim {n} > {MAX_SAMPLED_LEAVES}")
            yield n, subs, _merge_sampled_classes(cfg, field, subs, reps), None


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
