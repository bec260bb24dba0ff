"""Differentiation of poset representations by a principal filter or a
principal ideal.

For a point p with w(S \\ <p>) <= 2, the derived poset in filter mode is

    S_p = (<p> \\ {p})  u  a^( S \\ [<p> u (p)] )

carrying the order induced from the meet semilattice of antichains; it is
what remains of the carrier S_<p> = <p> u a^(S \\ <p>) after deleting the
principal ideal generated by p there (p itself together with every
antichain that meets (p)).  Ideal mode is the mirror image inside the join
semilattice.  ``derive_poset`` builds S_p straight from this formula, and
the carrier only on demand; ``DerivedPoset.members`` maps each label of
S_p to its sorted member tuple, all that the functors read.  The
differentiation functor on spaces quotients the ambient space by V(p) in
filter mode and cuts down to V(p) in ideal mode; it is implemented both
by the direct formulas and as the composite restrict . E_p . coinduce
(restrict . E^p . induce) through the carrier, and the two paths are
cross-checked in the test suite.

The count nu(S) of indecomposables satisfies
nu(S) = nu(S_p) + |a(S \\ <p>)| + 1 whenever filter differentiation
applies at p, with the mirror recursion in ideal mode, and bottoms out at
|A(S)| once the width drops to 2.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from math import inf

from .errors import NotApplicable, PosetMismatch
from .linalg import Matrix, Subspace
from .poset import (Poset, applicability_width, applicable_moves, check_mode,
                    derived_carrier, derived_set, is_applicable)
from .sspace import SMorphism, SSpace, _e_matrix, _hom_pairs, _hom_solutions


@dataclass(frozen=True)
class DerivedPoset:
    base: Poset
    point: str
    mode: str  # "filter" | "ideal"
    result: Poset
    members: dict  # label -> its sorted member tuple
    a_count: int  # |a(S \ <p>)| resp. |a(S \ (p))|

    @cached_property
    def carrier(self) -> Poset:
        """S_<p> (S^(p) in ideal mode), built on first read."""
        region = (self.base.up(self.point) if self.mode == "filter"
                  else self.base.down(self.point))
        return derived_carrier(self.base, region, self.mode)[0]


def derive_poset(p: Poset, point: str, mode: str) -> DerivedPoset:
    """Derived poset at a point, built straight from the formula for S_p
    (``poset.derived_set``); requires the complement of the principal
    filter (ideal) to have width at most two; the width itself is
    computed only for the error.  The carrier S_<p> is built only when
    its attribute is first read."""
    if not is_applicable(p, point, mode):
        raise NotApplicable(applicability_width(p, point, mode))
    return DerivedPoset(p, point, mode, *derived_set(p, point, mode))


def _derived_for(p: Poset, point: str, mode: str, derived: DerivedPoset) -> DerivedPoset:
    """The derived poset of p at point in mode: the one given, checked to
    be exactly that (else PosetMismatch), or a new one."""
    if derived is None:
        return derive_poset(p, point, mode)
    check_mode(mode)
    if derived.base != p or (derived.point, derived.mode) != (point, mode):
        raise PosetMismatch("the derived poset was made for another poset, point or mode")
    return derived


def diff_space(v: SSpace, point: str, mode: str, derived: DerivedPoset = None) -> SSpace:
    """Differentiation functor on objects, by the direct formulas:
    filter mode sends t to (V(t) + V(p))/V(p) and a^b to
    (V(a) /\\ V(b) + V(p))/V(p) inside V/V(p); ideal mode sends t to
    V(t) /\\ V(p) and avb to (V(a) + V(b)) /\\ V(p) inside V(p)."""
    derived = _derived_for(v.poset, point, mode, derived)
    vp = v.sub(point)
    assign = {}
    if mode == "filter":
        q = vp.quotient_map()
        for label in derived.result.elements:
            meet = Subspace.full(v.field, v.dim).intersect(
                *(v.sub(m) for m in derived.members[label]))
            assign[label] = meet.image(q)
        return SSpace(derived.result, v.field, q.ncols, assign, validate=False)
    b = vp.mat
    for label in derived.result.elements:
        join = Subspace.zero(v.field, v.dim).plus(
            *(v.sub(m) for m in derived.members[label]))
        assign[label] = join.preimage(b)
    return SSpace(derived.result, v.field, b.nrows, assign, validate=False)


def diff_morphism(f: SMorphism, point: str, mode: str,
                  derived: DerivedPoset = None) -> SMorphism:
    """Functor action on morphisms: the induced map on quotients in filter
    mode, the restriction to V(p) in ideal mode.  Restriction and
    (co)induction keep the ambient matrix, so D_p f has the matrix of
    E_p f (of E^p f in ideal mode)."""
    derived = _derived_for(f.source.poset, point, mode, derived)
    du = diff_space(f.source, point, mode, derived)
    dv = diff_space(f.target, point, mode, derived)
    return SMorphism(du, dv, _e_matrix(f, point, mode), validate=False)


def diff_space_composite(v: SSpace, point: str, mode: str,
                         derived: DerivedPoset = None) -> SSpace:
    """The same functor as the three-step composite through the full
    carrier; used to cross-check the direct formulas."""
    from .functors import coinduce, induce, restrict
    from .sspace import e_quot, e_sub

    derived = _derived_for(v.poset, point, mode, derived)
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
    """Dimension of the morphisms that D_p in this mode kills: those through
    a space full at p in filter mode (f(U) <= V(p)), through a space
    trivial at p in ideal mode (U(p) <= Ker f)."""
    check_mode(mode)
    pairs = _hom_pairs(u, v)
    if mode == "filter":
        pairs.append((Matrix.identity(u.field, u.dim).rows, v.sub(point).quotient_map()))
    else:  # the identity is the quotient map of the zero target
        pairs.append((u.sub(point).mat.rows, Matrix.identity(v.field, v.dim)))
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


def _moves(p: Poset):
    """Each applicable move (point, mode, a-count, S_p), filter mode before
    ideal mode and points in label order; applicability is tested for
    every point at once, and the derivation is lazy, so a caller that
    wants one move derives no more than it takes."""
    for point, mode in applicable_moves(p):
        result, _, a_count = derived_set(p, point, mode)
        yield point, mode, a_count, result


def _first_move(p: Poset, depth: int):
    return next(_moves(p), "stuck")


class _Sweep:
    """The all-paths chooser.  Its first call sweeps every path from the
    start poset in two breadth-first passes.  The forward pass numbers each
    poset when it first meets it and derives the moves of each one of
    width > 2 once, leaving those at the depth limit unexpanded.  The
    backward pass, from the posets of width <= 2 over the reversed moves,
    gives each poset its fewest steps and its nu by a child one step
    closer; every completing move must give that nu.  A call takes the
    first move whose child's fewest steps fit the depth left, or says why
    none does: "depth-limit" when a poset was left unexpanded, else
    "stuck", for then no path completes at any limit."""

    def __init__(self, depth_limit: int):
        self.limit, self.ids = depth_limit, {}  # ids: poset -> its number

    def __call__(self, p: Poset, depth: int):
        if not self.ids:
            self._sweep(p, self.limit - depth)
        for point, mode, a_count, child in self.moves[self.ids[p]]:
            if self.steps[child] < self.limit - depth:
                return point, mode, a_count, self.posets[child]
        return "depth-limit" if self.cut else "stuck"

    def _sweep(self, start: Poset, remaining: int):
        ids, posets, moves = self.ids, [], {}  # moves: number -> moves to numbers
        steps, nu, parents = [], [], []  # parents: number -> (parent, a-count)

        def meet(q):
            ids[q] = len(posets)
            posets.append(q)
            narrow = q.width() <= 2
            steps.append(0 if narrow else inf)
            nu.append(q.antichain_count() if narrow else None)
            parents.append([])
            return ids[q]

        level = [meet(start)]
        for _ in range(remaining):
            deeper = []
            for i in level:
                if steps[i] == 0:
                    continue
                moves[i] = []
                for point, mode, a_count, child in _moves(posets[i]):
                    j = ids.get(child)
                    if j is None:
                        j = meet(child)
                        deeper.append(j)
                    moves[i].append((point, mode, a_count, j))
                    parents[j].append((i, a_count))
            level = deeper
        queue = deque(i for i, s in enumerate(steps) if s == 0)
        while queue:
            j = queue.popleft()
            for i, a_count in parents[j]:
                value = nu[j] + a_count + 1
                if nu[i] is None:
                    nu[i], steps[i] = value, steps[j] + 1
                    queue.append(i)
                elif nu[i] != value:
                    raise AssertionError(f"reduction paths disagree: {sorted((nu[i], value))}")
        self.posets, self.moves, self.steps = posets, moves, steps
        self.cut = any(steps[i] > 0 for i in level)  # a wide poset left at the limit


def nu_count(p: Poset, strategy: str = "first", depth_limit: int = 64) -> ReductionTrace:
    """Count indecomposable representations by iterated differentiation.

    One loop takes every step and a chooser picks its move.  A poset of
    width <= 2 ends the loop and is counted outright as |A(S)|, at any
    depth limit; each step charges |a(complement)| + 1.  Strategy "first"
    takes the first applicable move, filter mode before ideal mode and
    points in label order, and tests no move after it.  Strategy
    "all-paths" sweeps every path within the limit breadth-first, checks
    that all completing paths agree, and takes the first move that
    completes within the limit.  A trace that ends without an answer says
    why: "depth-limit" when the limit stopped the loop or the sweep,
    "stuck" when no move applies or the loop meets a poset again, and
    under all-paths when no path completes at any limit.
    Any other strategy is a ValueError.
    """
    if strategy not in ("first", "all-paths"):
        raise ValueError(f"strategy must be first or all-paths, got {strategy}")
    choose = _first_move if strategy == "first" else _Sweep(depth_limit)
    trace = ReductionTrace()
    current = p
    seen = {p}
    while current.width() > 2:
        if len(trace.steps) >= depth_limit:
            trace.status = "depth-limit"
            break
        move = choose(current, len(trace.steps))
        if isinstance(move, str):
            trace.status = move
            break
        point, mode, a_count, child = move
        trace.steps.append(ReductionStep(current, point, mode, a_count))
        current = child
        if current in seen:
            trace.status = "stuck"
            break
        seen.add(current)
    trace.terminal = current
    if trace.status == "ok":
        trace.terminal_count = current.antichain_count()
        trace.nu = trace.terminal_count + sum(
            s.nonempty_antichains + 1 for s in trace.steps)
    return trace


def serialize_trace(trace: ReductionTrace) -> str:
    lines = []
    for step in trace.steps:
        lines.append(f"{poset_fingerprint(step.poset)} point={step.point} "
                     f"mode={step.mode} a-count={step.nonempty_antichains}")
    lines.append(f"nu={trace.value_label()}")
    return "\n".join(lines) + "\n"
