"""Finite posets: order closure, filters/ideals, antichains, and the
derived carriers R u a(S \\ R) inside the antichain semilattices.  The
semilattice of nonempty antichains is the carrier over R = [], and an
item of a carrier is its sorted member tuple; names are rendered from
those tuples only when a carrier is built.

Everything below the public functions works on int bitmasks over element
indices.  The kernels of the nu recursion: the points where
differentiation applies, for both modes in one pass over the
3-antichains; the carrier, whose antichains carry their masks beside
their member tuples and whose order is built column-first; the width by
a matching seeded greedily, kept with the hash on the immutable Poset;
and the number of antichains, counted without building them.

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

from .errors import (CycleDetected, DuplicateLabel, NotAnAntichain,
                     UnknownLabel)

Label = str
Antichain = tuple[Label, ...]


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _moved(mask: int, at) -> int:
    """mask with each set bit j moved to bit at[j]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << at[low.bit_length() - 1]
        mask ^= low
    return out


def _union(rows, mask: int) -> int:
    """The union of rows[i] over the set bits i of mask: with rows the
    up-sets (down-sets), the filter (ideal) that mask generates."""
    out = 0
    for i in _bits(mask):
        out |= rows[i]
    return out


def _transpose(rows, n: int) -> list[int]:
    """The masks of the converse relation: bit i of out[j] iff bit j of rows[i]."""
    out = [0] * n
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


class Poset:
    """Immutable finite poset over string labels.

    The order is held as int bitmasks over element indices: bit j of
    ``_up[i]`` is set iff elements[i] <= elements[j], and ``_down`` holds
    the converse, so bit i of ``_down[j]`` is set under the same condition.
    Labels are translated to indices only at the public methods; every
    transform builds its result from the masks, and no other module
    reads them.  The width and the hash are computed on first use and
    kept.
    """

    __slots__ = ("elements", "_index", "_up", "_down", "_width", "_hash")

    def __init__(self, elements, up, down):
        """Internal: the elements and their order masks, already closed."""
        elements = tuple(elements)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(elements)})
        object.__setattr__(self, "_up", tuple(up))
        object.__setattr__(self, "_down", tuple(down))
        object.__setattr__(self, "_width", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Poset is immutable")

    # construction -----------------------------------------------------

    @classmethod
    def build(cls, elements, relations) -> "Poset":
        """Reflexive-transitive closure of the given strict relations.

        relations is an iterable of (a, b) pairs meaning a < b.  Rejects
        duplicate labels, labels not declared, and any cycle, a strict
        relation of a point to itself included.
        """
        elements = list(elements)
        seen = set()
        for x in elements:
            if x in seen:
                raise DuplicateLabel(x)
            seen.add(x)
        n = len(elements)
        idx = {x: i for i, x in enumerate(elements)}
        up = [1 << i for i in range(n)]
        for a, b in relations:
            if a not in idx:
                raise UnknownLabel(a)
            if b not in idx:
                raise UnknownLabel(b)
            if a == b:
                raise CycleDetected(f"{a} < {a}")
            up[idx[a]] |= 1 << idx[b]
        for k in range(n):
            bit, above = 1 << k, up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= above
        down = _transpose(up, n)
        for i in range(n):
            later = up[i] & down[i] & -(2 << i)  # j > i with i <= j <= i
            if later:
                j = (later & -later).bit_length() - 1
                raise CycleDetected(f"{elements[i]} and {elements[j]}")
        return cls(elements, up, down)

    def _i(self, x: Label) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownLabel(x) from None

    def _mask(self, labels) -> int:
        mask = 0
        for x in labels:
            mask |= 1 << self._i(x)
        return mask

    def _members(self, mask: int) -> list[Label]:
        """The labels of mask, in element order."""
        return [self.elements[i] for i in _bits(mask)]

    # order queries ----------------------------------------------------

    def leq(self, a: Label, b: Label) -> bool:
        return self._up[self._i(a)] >> self._i(b) & 1 == 1

    def lt(self, a: Label, b: Label) -> bool:
        return a != b and self.leq(a, b)

    def earlier_bounds(self) -> list[tuple[list[int], list[int]]]:
        """For each element i, in element order: (the indices k < i with
        elements[k] <= elements[i], those with elements[i] <= elements[k])."""
        out = []
        for i, (up, down) in enumerate(zip(self._up, self._down)):
            earlier = (1 << i) - 1
            out.append((list(_bits(down & earlier)), list(_bits(up & earlier))))
        return out

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        if self is other:
            return True
        if self.elements == other.elements:
            return self._up == other._up
        if self._index.keys() != other._index.keys():
            return False
        at = [other._index[x] for x in self.elements]
        theirs = other._up
        return all(theirs[at[i]] == _moved(row, at) for i, row in enumerate(self._up))

    def __hash__(self):
        # the label set with each label's up- and down-degree: equal
        # posets agree on it whatever their element order
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(zip(
                self.elements, map(int.bit_count, self._up), map(int.bit_count, self._down)))))
        return self._hash

    def __repr__(self):
        return f"Poset({list(self.elements)})"

    # subsets ------------------------------------------------------------

    def check_subset(self, labels):
        for x in labels:
            self._i(x)

    def generated_filter(self, labels) -> frozenset:
        return frozenset(self._members(_union(self._up, self._mask(labels))))

    def generated_ideal(self, labels) -> frozenset:
        return frozenset(self._members(_union(self._down, self._mask(labels))))

    def up(self, p: Label) -> frozenset:
        return self.generated_filter([p])

    def down(self, p: Label) -> frozenset:
        return self.generated_ideal([p])

    def is_ideal(self, labels) -> bool:
        return self.generated_ideal(labels) == set(labels)

    # antichains ---------------------------------------------------------

    def is_antichain(self, members) -> bool:
        at = [self._i(x) for x in members]
        seen = 0
        for i in at:
            if seen & (self._up[i] | self._down[i]):
                return False  # a repeated member counts as comparable to itself
            seen |= 1 << i
        return True

    def check_antichain(self, members) -> Antichain:
        if not self.is_antichain(members):
            raise NotAnAntichain(tuple(members))
        return tuple(sorted(set(members)))

    def antichains(self) -> list[Antichain]:
        """All antichains, the empty one first, in lexicographic order."""
        return self._antichains((1 << len(self.elements)) - 1)[0]

    def _antichains(self, mask: int) -> tuple[list[Antichain], list[int]]:
        """The antichains inside mask and their masks, by backtracking over
        the members in label order; each branch carries the mask of the
        later members that no chosen one blocks, so a node's children are
        its set bits."""
        order = sorted(_bits(mask), key=self.elements.__getitem__)
        labels = [self.elements[i] for i in order]
        bits = [1 << i for i in order]
        pos = {i: k for k, i in enumerate(order)}
        blocks = [_moved((self._up[i] | self._down[i]) & mask, pos) for i in order]
        out, masks = [], []
        stack = [((), 0, (1 << len(order)) - 1)]
        while stack:  # preorder, the smallest child on top of the stack
            current, held, free = stack.pop()
            out.append(current)
            masks.append(held)
            rest = free
            while rest:
                k = rest.bit_length() - 1
                rest ^= 1 << k
                stack.append((current + (labels[k],), held | bits[k],
                              free & -(2 << k) & ~blocks[k]))
        return out, masks

    def antichain_count(self) -> int:
        """|A(S)|, the empty antichain included: the backtracking of
        antichains() over element indices, counting its nodes."""
        blocks = [u | d for u, d in zip(self._up, self._down)]
        count = 0
        stack = [(1 << len(blocks)) - 1]
        while stack:
            free = stack.pop()
            count += 1
            while free:  # each child holds a lowest member, then later ones
                low = free & -free
                free ^= low
                stack.append(free & ~blocks[low.bit_length() - 1])
        return count

    def _applicable(self) -> tuple[int, int]:
        """The masks of the points p where filter and where ideal
        differentiation apply, in one pass over the 3-antichains.

        w(S \\ <p>) <= 2 iff S \\ <p> holds no 3-antichain, that is iff
        every 3-antichain meets <p>, iff p lies below one of its members;
        so the filter mask is the AND, over the 3-antichains, of the union
        of their members' down-sets, and the ideal mask, for (p), that of
        their up-sets.  With no 3-antichain every point applies."""
        up, down = self._up, self._down
        n = len(up)
        below = above = (1 << n) - 1
        for i in range(n):
            later = (1 << n) - 1 & ~(up[i] | down[i]) & -(2 << i)
            while later:  # the j > i that are incomparable to i
                low = later & -later
                later ^= low
                j = low.bit_length() - 1
                below_ij, above_ij = down[i] | down[j], up[i] | up[j]
                third = later & ~(up[j] | down[j])
                while third:  # the k > j incomparable to i and to j
                    low = third & -third
                    third ^= low
                    k = low.bit_length() - 1
                    below &= below_ij | down[k]
                    above &= above_ij | up[k]
                if not below | above:
                    return 0, 0
        return below, above

    def _matching(self, mask: int):
        """A maximum matching of the elements of mask to strict successors
        in mask, as the matched predecessor of each element index (None
        when unmatched).  Each element in element order first takes its
        first free successor; augmenting paths then start from the
        elements left unmatched, successors tried in element order."""
        up = self._up
        pred_of = [None] * len(self.elements)
        taken, unmatched = 0, []
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            free = (up[a] ^ low) & mask & ~taken
            if free:
                free &= -free
                pred_of[free.bit_length() - 1] = a
                taken |= free
            else:
                unmatched.append(a)
        seen = 0

        def augment(a):
            nonlocal seen
            rest = up[a] & mask ^ 1 << a
            while rest:
                bit = rest & -rest
                rest ^= bit
                if seen & bit:
                    continue
                seen |= bit
                b = bit.bit_length() - 1
                if pred_of[b] is None or augment(pred_of[b]):
                    pred_of[b] = a
                    return True
            return False

        for a in unmatched:
            seen = 0
            augment(a)
        augment = None  # the closure refers to itself; drop the cycle now
        return pred_of

    def width(self) -> int:
        if self._width is None:
            object.__setattr__(self, "_width", self._width_in((1 << len(self.elements)) - 1))
        return self._width

    def _width_in(self, mask: int) -> int:
        """The width of the subposet on mask: its size less the pairs of
        a maximum matching.  Matching each element to a strict successor
        joins the elements into chains, one per element left without a
        match from below; a maximum matching leaves the fewest chains,
        which by Dilworth's theorem is the width."""
        pred_of = self._matching(mask)
        return mask.bit_count() - len(pred_of) + pred_of.count(None)

    def linear_extension(self) -> list[Label]:
        """The elements sorted by their number of strict predecessors, ties
        in element order; every element comes after all those below it."""
        n_below = [d.bit_count() for d in self._down]  # each counts itself too
        return [self.elements[i]
                for i in sorted(range(len(self.elements)), key=n_below.__getitem__)]

    # transforms ---------------------------------------------------------

    def opposite(self) -> "Poset":
        return Poset(self.elements, self._down, self._up)

    def restrict(self, labels) -> "Poset":
        keep = self._mask(labels)
        at = {j: k for k, j in enumerate(_bits(keep))}
        return Poset([self.elements[i] for i in at],
                     [_moved(self._up[i] & keep, at) for i in at],
                     [_moved(self._down[i] & keep, at) for i in at])

    def adjoin_top(self, label: Label = "omega") -> "Poset":
        if label in self._index:
            raise DuplicateLabel(label)
        top = 1 << len(self.elements)
        return Poset(self.elements + (label,), [u | top for u in self._up] + [top],
                     self._down + (2 * top - 1,))

    def fresh_label(self, base: Label) -> Label:
        label = base
        while label in self._index:
            label += "_"
        return label

    # covers and rendering -------------------------------------------------

    def covers(self) -> list[tuple[Label, Label]]:
        """Cover pairs (a, b): a < b with nothing strictly between."""
        out = []
        for i, a in enumerate(self.elements):
            above = self._up[i] ^ 1 << i
            beyond = 0
            for j in _bits(above):
                beyond |= self._up[j] ^ 1 << j
            out += [(a, b) for b in self._members(above & ~beyond)]
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


# ---------------------------------------------------------------------------
# antichain semilattices and derived carriers


MODES = ("filter", "ideal")


def check_mode(mode: str):
    """The side of a point is filter (E_p) or ideal (E^p); else ValueError."""
    if mode not in MODES:
        raise ValueError(f"mode must be filter or ideal, got {mode}")


def _orient(p: Poset, mode: str):
    """(p._up, p._down) in filter mode, (p._down, p._up) in ideal mode."""
    check_mode(mode)
    return (p._up, p._down) if mode == "filter" else (p._down, p._up)


def _render_unique(items, sep: str) -> list[str]:
    """Stable names for member tuples, in their order: a point keeps its
    label, and an antichain of two or more is its members joined by sep,
    primed while the name is already in use (possible after iterated
    derivation)."""
    used = {a[0] for a in items if len(a) == 1}
    names = []
    for a in items:
        name = sep.join(a)
        if len(a) > 1:
            while name in used:
                name += "'"
        used.add(name)
        names.append(name)
    return names


def _assemble(base: Poset, masks, labels, mode: str) -> Poset:
    """The poset on the antichains of base with the given member masks,
    named by labels and ordered by the meet (mode "filter") or join (mode
    "ideal") semilattice rule.

    Column-first: under meet, k <= j iff every member a of j lies above
    some member of k, so the down-set cols[j] is the AND, over the members
    a of j, of touch[a], the antichains holding a point below a; under
    join, cols[j] is the up-set, with touch[a] the antichains holding a
    point above a.  One transpose gives the other side.
    """
    below = _orient(base, mode)[1]
    holding = [0] * len(base)  # point -> the antichains that hold it
    for k, m in enumerate(masks):
        bit = 1 << k
        while m:
            low = m & -m
            holding[low.bit_length() - 1] |= bit
            m ^= low
    touch = []
    for m in below:
        t = 0
        while m:
            low = m & -m
            t |= holding[low.bit_length() - 1]
            m ^= low
        touch.append(t)
    all_antichains = (1 << len(masks)) - 1
    cols = []
    for m in masks:
        col = all_antichains
        while m:
            low = m & -m
            col &= touch[low.bit_length() - 1]
            m ^= low
        cols.append(col)
    rows = _transpose(cols, len(cols))
    up, down = (rows, cols) if mode == "filter" else (cols, rows)
    return Poset(labels, up, down)


def _carrier(p: Poset, region: int, mode: str, avoid: int = 0):
    """The items of the carrier R u a(S \\ R) over the region mask R that
    do not meet the mask avoid, each its sorted member tuple: each point
    of R, then each nonempty antichain of the rest, in the meet (mode
    "filter") or join semilattice.  Names are rendered over every item of
    the carrier, so that they are the carrier's names, primes included.
    Returns (poset, members: name -> item, the number of antichain items).
    """
    items, masks = [], []
    rest = region
    while rest:
        low = rest & -rest
        rest ^= low
        items.append((p.elements[low.bit_length() - 1],))
        masks.append(low)
    antichains, held = p._antichains((1 << len(p)) - 1 & ~region)
    items += antichains[1:]
    masks += held[1:]
    names = _render_unique(items, "^" if mode == "filter" else "v")
    keep = [k for k, m in enumerate(masks) if not m & avoid]
    poset = _assemble(p, [masks[k] for k in keep], [names[k] for k in keep], mode)
    return poset, {names[k]: items[k] for k in keep}, len(items) - region.bit_count()


def derived_carrier(p: Poset, r, mode: str):
    """S_R = R u a^(S \\ R) inside the meet semilattice (mode "filter"),
    or S^R = R u a_v(S \\ R) inside the join semilattice (mode "ideal").
    Over R = [] it is the semilattice of nonempty antichains; the empty
    one (top of the meet order, bottom of the join order) is left out.

    Returns (poset, members), members mapping each label to its sorted
    member tuple.
    """
    return _carrier(p, p._mask(r), mode)[:2]


def _cones(p: Poset, point: Label, mode: str) -> tuple[int, int]:
    """The masks of <p> and (p) in filter mode, of (p) and <p> in ideal mode."""
    i = p._i(point)
    return tuple(rows[i] for rows in _orient(p, mode))


def applicability_width(p: Poset, point: Label, mode: str) -> int:
    """The width of S \\ <p> (S \\ (p) in ideal mode), read off its mask."""
    return p._width_in((1 << len(p)) - 1 & ~_cones(p, point, mode)[0])


def is_applicable(p: Poset, point: Label, mode: str) -> bool:
    """Whether w(S \\ <p>) <= 2 (w(S \\ (p)) in ideal mode), by the
    3-antichain test of ``Poset._applicable``."""
    _orient(p, mode)  # checks the mode
    return p._applicable()[MODES.index(mode)] >> p._i(point) & 1 == 1


def applicable_moves(p: Poset) -> list[tuple[Label, str]]:
    """Every (point, mode) where differentiation applies, filter mode
    before ideal mode and points in label order, from one pass over the
    3-antichains."""
    return [(x, mode) for mode, mask in zip(MODES, p._applicable())
            for x in sorted(p._members(mask))]


def derived_set(p: Poset, point: Label, mode: str):
    """S_p = (<p> \\ {p}) u a^(S \\ [<p> u (p)]) in filter mode, the
    mirror S^p in ideal mode: the carrier S_<p> (S^(p)) less the items
    that meet (p) (<p>), which form the principal ideal (filter) of p.

    Returns (poset, members, a-count), with the a-count |a(S \\ <p>)|
    (|a(S \\ (p))|), one per antichain item of the carrier.
    """
    region, avoid = _cones(p, point, mode)
    return _carrier(p, region, mode, avoid)
