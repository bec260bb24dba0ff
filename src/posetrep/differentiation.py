"""Differentiation of poset representations by a principal filter or a
principal ideal.

For a point p with w(S \\ <p>) <= 2, the derived poset in filter mode is

    S_p = (<p> \\ {p})  u  a^( S \\ [<p> u (p)] )

carrying the order induced from the meet semilattice of antichains; it is
what remains of the carrier S_<p> = <p> u a^(S \\ <p>) after deleting the
principal ideal generated by p there (p itself together with every
antichain that meets (p)).  Ideal mode is the mirror image inside the join
semilattice.  ``derive_poset`` builds S_p straight from this formula, and
the carrier only on demand.  The differentiation functor on spaces
quotients the ambient space by V(p) in filter mode and cuts down to V(p)
in ideal mode; it is implemented both by the direct formulas and as the
composite restrict . E_p . coinduce (restrict . E^p . induce) through the
carrier, and the two paths are cross-checked in the test suite.

The count nu(S) of indecomposables satisfies
nu(S) = nu(S_p) + |a(S \\ <p>)| + 1 whenever filter differentiation
applies at p, with the mirror recursion in ideal mode, and bottoms out at
|A(S)| once the width drops to 2.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import NotApplicable
from .linalg import Subspace
from .poset import Poset, applicability_width, derived_carrier, derived_set
from .sspace import SMorphism, SSpace, _hom_solutions


@dataclass(frozen=True)
class DerivedPoset:
    base: Poset
    point: str
    mode: str  # "filter" | "ideal"
    result: Poset
    label_map: dict  # rendered label -> DerivedLabel
    a_count: int  # |a(S \ <p>)| resp. |a(S \ (p))|

    def members_of(self, label) -> tuple:
        return self.label_map[label].members

    @cached_property
    def carrier(self) -> Poset:
        """S_<p> (S^(p) in ideal mode), built on first read."""
        region = (self.base.up(self.point) if self.mode == "filter"
                  else self.base.down(self.point))
        return derived_carrier(self.base, region, self.mode)[0]


def is_applicable(p: Poset, point: str, mode: str) -> bool:
    return applicability_width(p, point, mode) <= 2


def derive_poset(p: Poset, point: str, mode: str) -> DerivedPoset:
    """Derived poset at a point, built straight from the formula for S_p
    (``poset.derived_set``); requires the complement of the principal
    filter (ideal) to have width at most two.  The carrier S_<p> is built
    only when its attribute is first read."""
    if mode not in ("filter", "ideal"):
        raise ValueError(f"mode must be filter or ideal, got {mode}")
    w = applicability_width(p, point, mode)
    if w > 2:
        raise NotApplicable(w)
    return DerivedPoset(p, point, mode, *derived_set(p, point, mode))


def diff_space(v: SSpace, point: str, mode: str, derived: DerivedPoset = None) -> SSpace:
    """Differentiation functor on objects, by the direct formulas:
    filter mode sends t to (V(t) + V(p))/V(p) and a^b to
    (V(a) /\\ V(b) + V(p))/V(p) inside V/V(p); ideal mode sends t to
    V(t) /\\ V(p) and avb to (V(a) + V(b)) /\\ V(p) inside V(p)."""
    derived = derived or derive_poset(v.poset, point, mode)
    vp = v.sub(point)
    assign = {}
    if mode == "filter":
        q, _ = vp.quotient_map()
        for label in derived.result.elements:
            meet = Subspace.full(v.field, v.dim)
            for m in derived.members_of(label):
                meet = meet.intersect(v.sub(m))
            assign[label] = meet.image(q)
        return SSpace(derived.result, v.field, q.ncols, assign, validate=False)
    b = vp.mat
    for label in derived.result.elements:
        join = Subspace.zero(v.field, v.dim)
        for m in derived.members_of(label):
            join = join.plus(v.sub(m))
        assign[label] = join.preimage(b)
    return SSpace(derived.result, v.field, b.nrows, assign, validate=False)


def diff_morphism(f: SMorphism, point: str, mode: str,
                  derived: DerivedPoset = None) -> SMorphism:
    """Functor action on morphisms: the induced map on quotients in filter
    mode, the restriction to V(p) in ideal mode."""
    derived = derived or derive_poset(f.source.poset, point, mode)
    du = diff_space(f.source, point, mode, derived)
    dv = diff_space(f.target, point, mode, derived)
    up, vp = f.source.sub(point), f.target.sub(point)
    if mode == "filter":
        qu, lift = up.quotient_map()
        qv, _ = vp.quotient_map()
        mat = lift * f.mat * qv
    else:
        mat = vp.express_rows(up.mat * f.mat)
    return SMorphism(du, dv, mat, validate=False)


def diff_space_composite(v: SSpace, point: str, mode: str,
                         derived: DerivedPoset = None) -> SSpace:
    """The same functor as the three-step composite through the full
    carrier; used to cross-check the direct formulas."""
    from .functors import coinduce, induce, restrict
    from .sspace import e_quot, e_sub

    derived = derived or derive_poset(v.poset, point, mode)
    if mode == "filter":
        big = coinduce(v, derived.carrier)
        cut, _ = e_quot(big, point)
    else:
        big = induce(v, derived.carrier)
        cut, _ = e_sub(big, point)
    return restrict(cut, derived.result.elements)


# ---------------------------------------------------------------------------
# hom-space ideals


def factor_ideal_dim(u: SSpace, v: SSpace, point: str, mode: str) -> int:
    """Dimension of the morphisms killed by differentiation: those factoring
    through a space full at p (mode "full": f(U) <= V(p)) or trivial at p
    (mode "trivial": U(p) <= Ker f)."""
    if mode not in ("full", "trivial"):
        raise ValueError(f"mode must be full or trivial, got {mode}")
    pairs = [(u.sub(s), v.sub(s)) for s in u.poset.elements]
    if mode == "full":
        pairs.append((Subspace.full(u.field, u.dim), v.sub(point)))
    else:
        pairs.append((u.sub(point), Subspace.zero(v.field, v.dim)))
    return _hom_solutions(u, v, pairs).dim


# ---------------------------------------------------------------------------
# the nu recursion


@dataclass(frozen=True)
class ReductionStep:
    poset: Poset
    point: str
    mode: str
    nonempty_antichains: int  # |a(S \ <p>)| resp. |a(S \ (p))|


@dataclass
class ReductionTrace:
    steps: list = dc_field(default_factory=list)
    terminal: Poset = None
    terminal_count: int = None  # |A(terminal)| when width <= 2
    nu: int = None
    status: str = "ok"  # "ok" | "stuck" | "depth-limit"

    def value_label(self) -> str:
        if self.status == "ok":
            return str(self.nu)
        return self.status


def poset_fingerprint(p: Poset) -> str:
    desc = ";".join(sorted(p.elements)) + "|" + ";".join(
        f"{a}<{b}" for a, b in p.covers())
    return hashlib.sha256(desc.encode()).hexdigest()[:12]


def _applicable_moves(p: Poset):
    """(point, mode) pairs in deterministic order, filter sweeps first;
    lazy, so a caller that wants one move tests no more than it takes."""
    for mode in ("filter", "ideal"):
        for point in sorted(p.elements):
            if is_applicable(p, point, mode):
                yield point, mode


def nu_count(p: Poset, strategy: str = "first", depth_limit: int = 64) -> ReductionTrace:
    """Count indecomposable representations by iterated differentiation.

    Width <= 2 posets are counted outright as |A(S)|.  Otherwise strategy
    "first" differentiates at the first applicable (point, mode), trying
    filter mode before ideal mode and points in label order, and tests no
    move after it; the recursion charges |a(complement)| + 1 per step.
    Repeating carriers or exceeding the depth limit end in a
    stuck/depth-limit trace instead of an answer; the width is checked
    first, so a poset of width <= 2 is counted at any depth limit.
    Strategy "all-paths" explores every move; any other is a ValueError.
    """
    if strategy not in ("first", "all-paths"):
        raise ValueError(f"strategy must be first or all-paths, got {strategy}")
    if strategy == "all-paths":
        return _nu_all_paths(p, depth_limit)
    trace = ReductionTrace()
    current = p
    seen = {p}
    while current.width() > 2:
        if len(trace.steps) >= depth_limit:
            trace.status = "depth-limit"
            break
        move = next(_applicable_moves(current), None)
        if move is None:
            trace.status = "stuck"
            break
        derived = derive_poset(current, *move)
        trace.steps.append(ReductionStep(current, *move, derived.a_count))
        current = derived.result
        if current in seen:
            trace.status = "stuck"
            break
        seen.add(current)
    return _finish(trace, current)


def _finish(trace: ReductionTrace, terminal: Poset) -> ReductionTrace:
    """Close a trace at its last poset; an "ok" trace counts it and adds
    up nu = sum of (|a| + 1) over the steps + |A(terminal)|."""
    trace.terminal = terminal
    if trace.status == "ok":
        trace.terminal_count = len(terminal.antichains())
        trace.nu = trace.terminal_count + sum(
            s.nonempty_antichains + 1 for s in trace.steps)
    return trace


def _nu_all_paths(p: Poset, depth_limit: int) -> ReductionTrace:
    """Explore every applicable move at every level; all completing paths
    must agree on the value, and a completing path is replayed into the
    returned trace.  Each (poset, point, mode) is derived once, and the
    replay reuses the children the exploration made."""
    memo = {}
    children = {}  # poset -> [(point, mode, charge, child)] over its applicable moves
    in_progress = set()

    def moves(q: Poset):
        if q not in children:
            children[q] = []
            for point, mode in _applicable_moves(q):
                d = derive_poset(q, point, mode)
                children[q].append((point, mode, d.a_count, d.result))
        return children[q]

    def explore(q: Poset, depth: int):
        if q.width() <= 2:
            return len(q.antichains())
        if depth >= depth_limit:
            return None
        if q in memo:
            return memo[q]
        if q in in_progress:
            return None
        in_progress.add(q)
        values = set()
        for _, _, charge, child in moves(q):
            below = explore(child, depth + 1)
            if below is not None:
                values.add(below + charge + 1)
        in_progress.discard(q)
        if len(values) > 1:
            raise AssertionError(f"reduction paths disagree: {sorted(values)}")
        if values:
            memo[q] = values.pop()
            return memo[q]
        return None

    explore(p, 0)
    trace = ReductionTrace()
    current, depth = p, 0
    while current.width() > 2:
        if depth >= depth_limit:  # explore takes no step here either
            trace.status = "depth-limit"
            break
        for point, mode, charge, child in moves(current):
            if explore(child, depth + 1) is not None:
                break
        else:  # no move completes
            trace.status = "stuck"
            break
        trace.steps.append(ReductionStep(current, point, mode, charge))
        current, depth = child, depth + 1
    explore = None  # the closure refers to itself; drop the cycle now
    return _finish(trace, current)


def serialize_trace(trace: ReductionTrace) -> str:
    lines = []
    for step in trace.steps:
        lines.append(f"{poset_fingerprint(step.poset)} point={step.point} "
                     f"mode={step.mode} a-count={step.nonempty_antichains}")
    lines.append(f"nu={trace.value_label()}")
    return "\n".join(lines) + "\n"
