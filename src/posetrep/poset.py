"""Finite posets: order closure, filters/ideals, antichains, and the
antichain semilattices that derived carriers live in.

Conventions for the two semilattice orders on antichains, with A on the
left and B on the right:

  meet order:  A <= B  iff  every b in B has some a in A with a <= b
               (equivalently <A> contains <B>; the empty antichain is the
               unique maximal element, min S the unique minimal one)
  join order:  A <= B  iff  every a in A has some b in B with a <= b
               (the empty antichain is minimal, max S maximal)

The meet of two antichains is min(A u B), the join is max(A u B).  Under
the meet order the principal ideal generated by a point p consists of the
antichains that meet the ideal (p), which is what the derived-carrier
constructions below remove; the antichains lying entirely inside (p) form
a subset of that ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (CycleDetected, DuplicateLabel, NotAnAntichain,
                     UnknownLabel)

Label = str
Antichain = tuple[Label, ...]


@dataclass(frozen=True)
class DerivedLabel:
    """An element of an antichain semilattice: an original point, or the
    meet/join of an antichain with at least two members."""

    kind: str  # "orig" | "meet" | "join"
    members: tuple[Label, ...]

    def __post_init__(self):
        if self.kind == "orig":
            if len(self.members) != 1:
                raise ValueError("orig label has exactly one member")
        elif self.kind in ("meet", "join"):
            if len(self.members) < 2:
                raise ValueError("meet/join needs at least two members")
        elif self.kind != "empty":
            raise ValueError(f"bad kind {self.kind}")

    @classmethod
    def of_antichain(cls, members, kind: str) -> "DerivedLabel":
        members = tuple(sorted(members))
        if not members:
            return cls("empty", ())
        if len(members) == 1:
            return cls("orig", members)
        return cls(kind, members)

    def render(self) -> str:
        if self.kind == "orig":
            return self.members[0]
        if self.kind == "empty":
            return "{}"
        sep = "^" if self.kind == "meet" else "v"
        return sep.join(self.members)


class Poset:
    """Immutable finite poset over string labels with a full <= table."""

    __slots__ = ("elements", "_index", "_leq")

    def __init__(self, elements, leq_table):
        elements = tuple(elements)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(elements)})
        object.__setattr__(self, "_leq", tuple(tuple(r) for r in leq_table))

    def __setattr__(self, *a):
        raise AttributeError("Poset is immutable")

    # construction -----------------------------------------------------

    @classmethod
    def build(cls, elements, relations) -> "Poset":
        """Reflexive-transitive closure of the given strict relations.

        relations is an iterable of (a, b) pairs meaning a < b.  Rejects
        duplicate labels, labels not declared, and any cycle.
        """
        elements = list(elements)
        seen = set()
        for x in elements:
            if x in seen:
                raise DuplicateLabel(x)
            seen.add(x)
        n = len(elements)
        idx = {x: i for i, x in enumerate(elements)}
        leq = [[i == j for j in range(n)] for i in range(n)]
        for a, b in relations:
            if a not in idx:
                raise UnknownLabel(a)
            if b not in idx:
                raise UnknownLabel(b)
            leq[idx[a]][idx[b]] = True
        for k in range(n):
            lk = leq[k]
            for i in range(n):
                if leq[i][k]:
                    li = leq[i]
                    for j in range(n):
                        if lk[j] and not li[j]:
                            li[j] = True
        for i in range(n):
            for j in range(i + 1, n):
                if leq[i][j] and leq[j][i]:
                    raise CycleDetected(f"{elements[i]} and {elements[j]}")
        return cls(elements, leq)

    def _i(self, x: Label) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownLabel(x) from None

    # order queries ----------------------------------------------------

    def leq(self, a: Label, b: Label) -> bool:
        return self._leq[self._i(a)][self._i(b)]

    def lt(self, a: Label, b: Label) -> bool:
        return a != b and self.leq(a, b)

    def comparable(self, a: Label, b: Label) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        if self is other:
            return True
        if self._index.keys() != other._index.keys():
            return False
        at = [other._index[x] for x in self.elements]
        theirs = other._leq
        return all(row[j] == theirs[at[i]][at[j]]
                   for i, row in enumerate(self._leq) for j in range(len(at)))

    def __hash__(self):
        elems = self.elements
        pairs = frozenset((elems[i], elems[j]) for i, row in enumerate(self._leq)
                          for j, up in enumerate(row) if up)
        return hash((frozenset(elems), pairs))

    def __repr__(self):
        return f"Poset({list(self.elements)})"

    # subsets ------------------------------------------------------------

    def check_subset(self, labels):
        for x in labels:
            self._i(x)

    def generated_filter(self, labels) -> frozenset:
        self.check_subset(labels)
        return frozenset(s for s in self.elements
                         if any(self.leq(t, s) for t in labels))

    def generated_ideal(self, labels) -> frozenset:
        self.check_subset(labels)
        return frozenset(s for s in self.elements
                         if any(self.leq(s, t) for t in labels))

    def up(self, p: Label) -> frozenset:
        return self.generated_filter([p])

    def down(self, p: Label) -> frozenset:
        return self.generated_ideal([p])

    def is_filter(self, labels) -> bool:
        return self.generated_filter(labels) == set(labels)

    def is_ideal(self, labels) -> bool:
        return self.generated_ideal(labels) == set(labels)

    def min_of(self, labels) -> Antichain:
        labels = set(labels)
        self.check_subset(labels)
        return tuple(sorted(x for x in labels
                            if not any(self.lt(y, x) for y in labels)))

    def max_of(self, labels) -> Antichain:
        labels = set(labels)
        self.check_subset(labels)
        return tuple(sorted(x for x in labels
                            if not any(self.lt(x, y) for y in labels)))

    # antichains ---------------------------------------------------------

    def is_antichain(self, members) -> bool:
        members = list(members)
        self.check_subset(members)
        return all(not self.comparable(a, b) for a, b in combinations(members, 2))

    def check_antichain(self, members) -> Antichain:
        if not self.is_antichain(members):
            raise NotAnAntichain(tuple(members))
        return tuple(sorted(set(members)))

    def antichains(self, nonempty_only: bool = False) -> list[Antichain]:
        """All antichains by exhaustive backtracking, in lexicographic
        order of sorted member tuples."""
        order = sorted(self.elements)
        out = [] if nonempty_only else [()]

        def extend(start, current):
            for i in range(start, len(order)):
                x = order[i]
                if all(not self.comparable(x, y) for y in current):
                    current.append(x)
                    out.append(tuple(current))
                    extend(i + 1, current)
                    current.pop()

        extend(0, [])
        extend = None  # the closure refers to itself; drop the cycle now
        return out

    def chain_cover(self) -> list[list[Label]]:
        """A minimum partition into chains, each listed bottom to top.

        Matching every element to a strict successor joins them into
        chains, and a maximum matching leaves the fewest chains, which by
        Dilworth's theorem is the width.  Chains come in the element order
        of their bottoms.
        """
        n = len(self.elements)
        succ = [[j for j in range(n) if j != i and self._leq[i][j]] for i in range(n)]
        pred_of = [None] * n  # matched predecessor of each element
        succ_of = [None] * n  # matched successor of each element

        def augment(a, seen):
            for b in succ[a]:
                if b in seen:
                    continue
                seen.add(b)
                if pred_of[b] is None or augment(pred_of[b], seen):
                    pred_of[b] = a
                    succ_of[a] = b
                    return True
            return False

        for a in range(n):
            augment(a, set())
        augment = None  # the closure refers to itself; drop the cycle now
        chains = []
        for a in range(n):
            if pred_of[a] is None:
                chain = [a]
                while succ_of[chain[-1]] is not None:
                    chain.append(succ_of[chain[-1]])
                chains.append([self.elements[i] for i in chain])
        return chains

    def width(self) -> int:
        return len(self.chain_cover())

    def linear_extension(self) -> list[Label]:
        """The elements sorted by their number of strict predecessors, ties
        in element order; every element comes after all those below it."""
        n_below = [sum(col) for col in zip(*self._leq)]  # each counts itself too
        return [self.elements[i]
                for i in sorted(range(len(self.elements)), key=n_below.__getitem__)]

    # transforms ---------------------------------------------------------

    def opposite(self) -> "Poset":
        n = len(self.elements)
        return Poset(self.elements,
                     [[self._leq[j][i] for j in range(n)] for i in range(n)])

    def restrict(self, labels) -> "Poset":
        self.check_subset(labels)
        keep = set(labels)
        sub = [x for x in self.elements if x in keep]
        return Poset(sub, [[self.leq(a, b) for b in sub] for a in sub])

    def adjoin_top(self, label: Label = "omega") -> "Poset":
        if label in self._index:
            raise DuplicateLabel(label)
        elems = list(self.elements) + [label]
        n = len(elems)
        table = [[False] * n for _ in range(n)]
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                table[i][j] = self._leq[i][j]
            table[i][n - 1] = True
        table[n - 1][n - 1] = True
        return Poset(elems, table)

    def adjoin_bottom(self, label: Label = "0") -> "Poset":
        return self.opposite().adjoin_top(label).opposite()

    def fresh_label(self, base: Label) -> Label:
        label = base
        while label in self._index:
            label += "_"
        return label

    # covers and rendering -------------------------------------------------

    def covers(self) -> list[tuple[Label, Label]]:
        """Cover pairs (a, b): a < b with nothing strictly between."""
        out = []
        for a in self.elements:
            for b in self.elements:
                if self.lt(a, b) and not any(
                        self.lt(a, c) and self.lt(c, b) for c in self.elements):
                    out.append((a, b))
        return sorted(out)

    def to_dot(self) -> str:
        def q(s):
            return '"' + s.replace('"', r'\"') + '"'

        lines = ["digraph poset {", "  rankdir=BT;"]
        for x in sorted(self.elements):
            lines.append(f"  {q(x)};")
        for a, b in self.covers():
            lines.append(f"  {q(a)} -> {q(b)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def poset_transform(p: Poset, kind: str, labels=None, label: Label = None) -> Poset:
    """One of the transforms by name: opposite | adjoin_top | adjoin_bottom |
    restrict; the adjoined point gets a fresh label unless one is given."""
    if kind == "opposite":
        return p.opposite()
    if kind == "adjoin_top":
        return p.adjoin_top(label) if label else p.adjoin_top(p.fresh_label("omega"))
    if kind == "adjoin_bottom":
        return p.adjoin_bottom(label) if label else p.adjoin_bottom(p.fresh_label("0"))
    if kind == "restrict":
        return p.restrict(labels)
    raise ValueError(f"unknown transform {kind}")


# ---------------------------------------------------------------------------
# antichain semilattices and derived carriers


def antichain_leq(p: Poset, a, b, mode: str) -> bool:
    """Compare two antichains of p in the given semilattice order."""
    if mode == "meet":
        return all(any(p.leq(x, y) for x in a) for y in b)
    if mode == "join":
        return all(any(p.leq(x, y) for y in b) for x in a)
    raise ValueError(f"mode must be meet or join, got {mode}")


def _render_unique(taken: set, derived: list[DerivedLabel]) -> dict:
    """Stable rendered names for derived labels; collisions with names
    already in use (possible after iterated derivation) get primes."""
    out = {}
    used = set(taken)
    for d in derived:
        name = d.render()
        if d.kind != "orig":
            while name in used:
                name += "'"
        used.add(name)
        out[d] = name
    return out


def _assemble(base: Poset, pairs, mode: str):
    """Build a poset from (DerivedLabel, antichain) pairs ordered by the
    semilattice rule; returns (poset, label_map rendered -> DerivedLabel)."""
    derived = [d for d, _ in pairs]
    originals = {d.members[0] for d in derived if d.kind == "orig"}
    names = _render_unique(originals, derived)
    labels = [names[d] for d in derived]
    chains = [a for _, a in pairs]
    table = [[antichain_leq(base, a, b, mode) for b in chains] for a in chains]
    return Poset(labels, table), {names[d]: d for d in derived}


def antichain_semilattice(p: Poset, mode: str, nonempty_only: bool = True):
    """The meet semilattice (mode "meet") or join semilattice (mode "join")
    of antichains; with nonempty_only the empty antichain is dropped.

    Returns (poset, label_map).  Singleton antichains keep their original
    labels, so p embeds as a subposet.
    """
    pairs = []
    for a in p.antichains(nonempty_only=nonempty_only):
        pairs.append((DerivedLabel.of_antichain(a, mode), a))
    pairs.sort(key=lambda t: (len(t[1]) > 1, t[1]))
    return _assemble(p, pairs, mode)


def derived_carrier(p: Poset, r, mode: str):
    """S_R = R u a^(S \\ R) inside the meet semilattice (mode "filter"),
    or S^R = R u a_v(S \\ R) inside the join semilattice (mode "ideal").

    Returns (poset, label_map).
    """
    p.check_subset(r)
    r = set(r)
    sl_mode = "meet" if mode == "filter" else "join"
    rest = [x for x in p.elements if x not in r]
    sub = p.restrict(rest)
    # R and S \ R are disjoint, so no label occurs twice
    pairs = [(DerivedLabel("orig", (x,)), (x,)) for x in p.elements if x in r]
    for a in sub.antichains(nonempty_only=True):
        pairs.append((DerivedLabel.of_antichain(a, sl_mode), a))
    return _assemble(p, pairs, sl_mode)
