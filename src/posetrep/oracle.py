"""Ground truth by exhaustion: enumerate all monotone subspace assignments
over a small prime field, classify them up to base change, and certify the
indecomposable ones through idempotent search in their endomorphism rings.

Assignments are grouped into isomorphism classes by acting with the full
GL(n, q) on subspace indices (n <= 3); for n = 4 a seeded sample of the
group is used and candidate classes are merged through verified
isomorphism witnesses, with the census marked as sampled.  Representatives
are the lexicographically least canonical forms in their orbits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import product

from .differentiation import nu_count
from .errors import BudgetExceeded, GuardrailExceeded, Mismatch
from .linalg import Field, Matrix, Subspace
from .poset import Poset
from .sspace import (SSpace, are_isomorphic, find_idempotent, hom_space,
                     is_indecomposable, search_budget)

MAX_DIM = 4
MAX_POSET = 6
EXHAUSTIVE_GROUP_CAP = 70_000  # q^(n^2) above this forces sampling


@dataclass(frozen=True)
class EnumConfig:
    poset: Poset
    q: int = 2
    max_dim: int = 2
    end_cap: int = 1 << 16  # cap on q^(dim End) for idempotent search
    group_sample: int = 2000
    seed: int = 0
    force: bool = False

    def check(self):
        if self.force:
            return
        if self.max_dim > MAX_DIM:
            raise GuardrailExceeded(f"max_dim {self.max_dim} > {MAX_DIM}")
        if len(self.poset) > MAX_POSET:
            raise GuardrailExceeded(f"poset size {len(self.poset)} > {MAX_POSET}")


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


def _general_linear(field: Field, n: int):
    """All invertible n x n matrices; caller guards the size."""
    for entries in product(range(field.p), repeat=n * n):
        m = Matrix(field, [entries[i * n:(i + 1) * n] for i in range(n)], n)
        if m.is_invertible():
            yield m


def _sampled_group(field: Field, n: int, count: int, rng: random.Random):
    found = 0
    while found < count:
        m = Matrix(field, [[rng.randrange(field.p) for _ in range(n)]
                           for _ in range(n)], n)
        if m.is_invertible():
            found += 1
            yield m


def _subspace_action_tables(subs, group):
    index = {s.mat.rows: i for i, s in enumerate(subs)}
    tables = []
    for g in group:
        table = []
        for s in subs:
            moved = s.image(g)
            table.append(index[moved.mat.rows])
        tables.append(tuple(table))
    return tables


def _monotone_assignments(poset: Poset, subs):
    """All order-respecting choices of a subspace index per element,
    emitted as tuples aligned with poset.elements."""
    n_elems = len(poset.elements)
    if n_elems == 0:
        return [()]
    contains = [[subs[i].contains(subs[j]) for j in range(len(subs))]
                for i in range(len(subs))]
    order = sorted(poset.elements,
                   key=lambda x: sum(poset.lt(y, x) for y in poset.elements))
    below = {s: [t for t in order if poset.lt(t, s)] for s in order}
    chosen = {}
    out = []

    def rec(k):
        if k == n_elems:
            out.append(tuple(chosen[s] for s in poset.elements))
            return
        s = order[k]
        for j in range(len(subs)):
            if all(contains[j][chosen[t]] for t in below[s]):
                chosen[s] = j
                rec(k + 1)
        chosen.pop(s, None)

    rec(0)
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
            lines.append("(isomorphism classing sampled at dim 4)")
        return "\n".join(lines)


def enumerate_indecomposables(cfg: EnumConfig) -> OracleCensus:
    cfg.check()
    field = Field.prime(cfg.q)
    census = OracleCensus(cfg)
    rng = random.Random(cfg.seed)
    for n in range(1, cfg.max_dim + 1):
        subs = all_subspaces(field, n)
        exhaustive = n <= 3 and cfg.q ** (n * n) <= EXHAUSTIVE_GROUP_CAP
        if exhaustive:
            group = list(_general_linear(field, n))
        else:
            group = list(_sampled_group(field, n, cfg.group_sample, rng))
            census.sampled = True
        tables = _subspace_action_tables(subs, group)
        assignments = sorted(_monotone_assignments(cfg.poset, subs))
        seen = set()
        reps = []
        for a in assignments:
            if a in seen:
                continue
            orbit = {tuple(t[j] for j in a) for t in tables}
            orbit.add(a)
            seen.update(orbit)
            reps.append(min(orbit))
        if not exhaustive:
            reps = _merge_sampled_classes(cfg, field, subs, reps)
        dim_c = DimCensus(dim=n, n_classes=len(reps))
        for rep in reps:
            space = _assignment_to_space(cfg.poset, field, subs, rep)
            verdict = is_indecomposable(space, cfg.end_cap)
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
        merged = False
        for other in kept_spaces:
            if space.dims_profile() != other.dims_profile():
                continue
            if are_isomorphic(space, other, seed=cfg.seed,
                              budget=search_budget(20_000)).is_iso:
                merged = True
                break
        if not merged:
            kept.append(rep)
            kept_spaces.append(space)
    return kept


def decompose_fully(v: SSpace, end_cap: int = 1 << 16) -> list[SSpace]:
    """Split into indecomposable pieces by repeated idempotent splitting;
    raises BudgetExceeded when indecomposability is undecided (an
    endomorphism ring too big to search, or over Q)."""
    if v.dim == 0:
        return []
    verdict = is_indecomposable(v, end_cap)
    if verdict is None:
        raise BudgetExceeded(f"endomorphism ring of dim {hom_space(v, v).dim}")
    if verdict:
        return [v]
    e = find_idempotent(hom_space(v, v))
    image = Subspace.full(v.field, v.dim).image(e.mat)
    kernel = Subspace(v.field, v.dim, e.mat.null_rows().rref()[0])
    pieces = []
    for part in (image, kernel):
        assign = {s: v.sub(s).preimage(part.mat) for s in v.poset.elements}
        piece = SSpace(v.poset, v.field, part.dim, assign, validate=False)
        pieces.extend(decompose_fully(piece, end_cap))
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
