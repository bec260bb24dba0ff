"""Ground truth by exhaustion: enumerate all monotone subspace assignments
over a small prime field, classify them up to base change, and certify the
indecomposable ones through idempotent search in their endomorphism rings.

Assignments are grouped into isomorphism classes by acting with the full
GL(n, q) on subspace indices when n <= 3 and q^(n^2) <= 70 000; otherwise
a seeded sample of the group is used and candidate classes are merged
through verified isomorphism witnesses, with the census marked as sampled.
Representatives are the lexicographically least canonical forms in their
orbits.

The group acts on integers, not matrices.  The lines of k^n are numbered
by their representatives whose first nonzero entry is 1 (`_lines`), and a
subspace is the bitmask of the lines it contains, the zero subspace being
0 (`_point_masks`); containment is `small & ~big == 0`.  A group element
g is the permutation "line i goes to line j" under v -> v*g
(`_line_permutations`), and the image of a subspace is the image of its
mask under that permutation, looked up among the masks.  Lines, not all
q^n vectors: a vector table would cost q^n per group element, which is
out of reach at large q even for n = 1.  The number of subspaces of
k^max_dim is capped (MAX_SUBSPACES) unless the guardrails are forced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import islice, product
from operator import mul

from .differentiation import nu_count
from .errors import BudgetExceeded, GuardrailExceeded, Mismatch
from .linalg import Field, Matrix, Subspace
from .poset import Poset
from .sspace import SSpace, _indecomposability, are_isomorphic, is_indecomposable

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
    seed: int = 0
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
    the list "line i goes to line perm[i]" under v -> v*g; a singular g,
    which sends some representative to 0, is skipped."""
    lines = _lines(p, n)
    index = {v: i for i, v in enumerate(lines)}
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
            yield perm


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


def _subspace_action_tables(masks, group):
    """Row g of the result maps subspace index i to the index of its image
    under the line permutation g; each permutation is dropped once its row
    is made."""
    index = {m: i for i, m in enumerate(masks)}
    members = [[i for i in range(m.bit_length()) if m >> i & 1] for m in masks]
    tables = []
    for perm in group:
        bits = [1 << j for j in perm]
        tables.append(tuple(index[sum(map(bits.__getitem__, lines))]
                            for lines in members))
    return tables


def _monotone_assignments(poset: Poset, subs):
    """All order-respecting choices of a subspace index per element,
    emitted as tuples aligned with poset.elements."""
    n_elems = len(poset.elements)
    if n_elems == 0:
        return [()]
    masks = _point_masks(subs)
    order = poset.linear_extension()
    below = {s: [t for t in order if poset.lt(t, s)] for s in order}
    chosen = {}
    out = []

    def rec(k):
        if k == n_elems:
            out.append(tuple(chosen[s] for s in poset.elements))
            return
        s = order[k]
        need = 0
        for t in below[s]:
            need |= masks[chosen[t]]
        for j, mask in enumerate(masks):
            if not need & ~mask:
                chosen[s] = j
                rec(k + 1)
        chosen.pop(s, None)

    rec(0)
    rec = None  # the closure refers to itself; drop the cycle now
    return out


def _assignment_to_space(poset: Poset, field: Field, subs, assignment) -> SSpace:
    assign = {s: subs[j] for s, j in zip(poset.elements, assignment)}
    n = subs[0].ambient if subs else 0
    return SSpace(poset, field, n, assign, validate=False)


@dataclass
class DimCensus:
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
        if self.sampled:
            dims = [str(d.dim) for d in self.per_dim
                    if not _exhaustive_group(self.config.q, d.dim)]
            label = "dim" if len(dims) == 1 else "dims"
            lines.append(f"(isomorphism classing sampled at {label} {', '.join(dims)})")
        return "\n".join(lines)


def enumerate_indecomposables(cfg: EnumConfig) -> OracleCensus:
    cfg.check()
    field = Field.prime(cfg.q)
    census = OracleCensus(cfg)
    rng = random.Random(cfg.seed)
    for n in range(1, cfg.max_dim + 1):
        subs = all_subspaces(field, n)
        exhaustive = _exhaustive_group(cfg.q, n)
        if exhaustive:
            group = _general_linear(field, n)
        else:
            group = _sampled_group(field, n, GROUP_SAMPLE, rng)
            census.sampled = True
        # images[j][g]: the index of the image of subspace j under element g
        tables = _subspace_action_tables(_point_masks(subs), group)
        images = list(zip(*tables)) or [()] * len(subs)
        assignments = sorted(_monotone_assignments(cfg.poset, subs))
        seen = set()
        reps = []
        for a in assignments:
            if a in seen:
                continue
            orbit = set(zip(*[images[j] for j in a]))
            orbit.add(a)
            seen.update(orbit)
            reps.append(min(orbit))
        if not exhaustive:
            reps = _merge_sampled_classes(cfg, field, subs, reps)
        dim_c = DimCensus(dim=n, n_classes=len(reps))
        for rep in reps:
            space = _assignment_to_space(cfg.poset, field, subs, rep)
            verdict = is_indecomposable(space)
            if verdict is None:
                dim_c.n_undecided += 1
            elif verdict:
                dim_c.n_indecomposable += 1
                dim_c.reps.append(space)
        census.per_dim.append(dim_c)
    return census


def _merge_sampled_classes(cfg: EnumConfig, field: Field, subs, reps):
    """Sampled orbits can split a true class; merge candidates that a
    verified isomorphism witness identifies."""
    spaces = [_assignment_to_space(cfg.poset, field, subs, r) for r in reps]
    kept = []
    kept_spaces = []
    for rep, space in zip(reps, spaces):
        if not any(space.dims_profile() == other.dims_profile()
                   and are_isomorphic(space, other, seed=cfg.seed, budget=20_000).is_iso
                   for other in kept_spaces):
            kept.append(rep)
            kept_spaces.append(space)
    return kept


def decompose_fully(v: SSpace) -> list[SSpace]:
    """Split into indecomposable pieces by repeated idempotent splitting;
    raises BudgetExceeded when indecomposability is undecided (an
    endomorphism ring too big to search, or over Q)."""
    if v.dim == 0:
        return []
    verdict, end, e = _indecomposability(v)
    if verdict is None:
        raise BudgetExceeded(f"endomorphism ring of dim {end.dim}")
    if verdict:
        return [v]
    image = Subspace.full(v.field, v.dim).image(e.mat)
    kernel = Subspace(v.field, v.dim, e.mat.null_rows().rref()[0])
    pieces = []
    for part in (image, kernel):
        assign = {s: v.sub(s).preimage(part.mat) for s in v.poset.elements}
        piece = SSpace(v.poset, v.field, part.dim, assign, validate=False)
        pieces.extend(decompose_fully(piece))
    return pieces


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
    with the dimension bound that justifies it for the instance."""
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
