"""Exact linear algebra over the rationals and prime fields.

Scalars are `fractions.Fraction` over Q and plain ints in [0, p) over F_p.
This module knows no text syntax: `fileio` reads scalars through
`Field.coerce` and writes them with `str`.  Vectors are rows; a linear
map k^n -> k^m is an n x m matrix acting by v |-> v * M, so composition
"f then g" is the product M_f * M_g.

A subspace is stored as the reduced row echelon form of a spanning set.
RREF is a unique representative, so subspace equality is literal entry
comparison and every higher-level functor identity in this package can be
tested as equality of canonical forms instead of an isomorphism search.

Dense rows are eliminated in `_rref`, which has one kernel per kind of
field:

* over Q each row is scaled to a primitive integer vector (a row of ints
  by the gcd of its entries, a row holding Fractions first by the lcm of
  its denominators); rows are eliminated fraction-free (a*row - b*lead,
  then divided by the gcd of the entries).  Fractions are built only for
  the result, by dividing each kept row by its pivot entry, or not at all
  in the integer mode, which returns the primitive integer rows;
* over F_p the rows are ints reduced by an inline `% p`, and a pivot is
  normalised by its inverse pow(a, p - 2, p).

Both give the same rows as any exact Gauss-Jordan elimination, because the
RREF of a matrix is unique.

The constraint systems of `solution_space`, the Hom systems of `sspace`,
are eliminated apart, by `_sparse_kernel`.  A constraint b (x) c holds
about one nonzero entry in six, so each row is a dict of its nonzero
entries, and the pivot row at each column is the shortest candidate, to
limit fill-in (Markowitz's rule).  The other operations eliminate small
dense RREF bases, where a dict kernel measured slower, and keep `_rref`.

Each subspace operation runs at most one elimination:

* a kernel (`_kernel`) eliminates its constraint rows with their columns
  reversed, so that the kernel vectors read off them are already the RREF
  basis of the kernel (Cohen, GTM 138, section 2.3).  Over Q it reads the
  integer rows, and makes a Fraction only for each nonzero entry of that
  basis.  `Matrix.null_rows` is the kernel of the columns and
  `annihilator` that of the basis rows; `solution_space` is the kernel
  of its sparse rows, ints or Fractions, each up to a nonzero multiple,
  read in the same way by `_sparse_kernel`;
* `quotient_map` is written down from the RREF basis with no elimination,
  and `preimage` is the kernel of the map followed by it;
* `intersect` of any number of operands is one such kernel, the left
  kernel of their quotient maps set side by side, and runs none when an
  operand is 0 or at most one is neither 0 nor the whole space;
* `plus` of any number of operands is one RREF of the stacked rows of
  the nonzero ones, and runs none when at most one is nonzero.

Entries enter a `Matrix` in one of two ways.  The public constructor
`Matrix(field, rows, ncols)` coerces every entry and checks the shape; all
input from files and callers goes through it.  The internal `Matrix._of`
takes a tuple of tuples whose entries are already canonical (a Fraction
over Q, an int in [0, p) over F_p) and checks nothing, so it is used only
on entries computed from canonical entries: in this module, on the results
of its operations, and in `sspace` and `functors` on rows cut from such
results, such as the rows of a `solution_space`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch, FieldMismatch, InvalidField, InvalidScalar

_PRIME_LIMIT = 1 << 16
# Fractions are immutable, so every 0 and 1 over Q can be these two.
_ZERO, _ONE = Fraction(0), Fraction(1)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """The rationals (p is None) or the prime field F_p with p < 2^16."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
            if not _is_prime(p):
                raise InvalidField(f"{p} is not prime")
            if p >= _PRIME_LIMIT:
                raise InvalidField(f"prime fields limited to p < 2^16, got {p}")
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):
        raise AttributeError("Field is immutable")

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    @property
    def zero(self):
        return _ZERO if self.p is None else 0

    @property
    def one(self):
        return _ONE if self.p is None else 1

    def coerce(self, x):
        """The canonical element equal to the exact number x.  Over F_p a
        rational a/b maps to a * b^-1; a float is refused on both fields,
        because its value is a binary expansion, not the number written."""
        p = self.p
        if p is None:
            if type(x) is Fraction:
                return x
        elif type(x) is int:
            return x % p
        if isinstance(x, float):
            raise InvalidScalar(f"float {x!r} is not an exact scalar; "
                                "use an int or a Fraction")
        x = Fraction(x)
        if p is None:
            return x
        if x.denominator % p == 0:
            raise InvalidScalar(f"{x} has no value in F{p}: {p} divides its denominator")
        return x.numerator * pow(x.denominator, p - 2, p) % p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"


QQ = Field.rationals()


def _check_same_field(a: Field, b: Field):
    if a != b:
        raise FieldMismatch(f"{a} vs {b}")


def _primitive(rows):
    """Each nonzero rational row, its entries ints or Fractions, as the
    primitive integer vector on its line; zero rows are dropped.  `gcd`
    takes ints only, so a row of ints costs one call, and a row holding a
    Fraction is first brought over the lcm of its denominators."""
    out = []
    for row in rows:
        ints = row
        try:
            g = gcd(*row)
        except TypeError:
            pairs = [x.as_integer_ratio() for x in row]
            den = lcm(*[d for _, d in pairs])
            ints = [n * (den // d) for n, d in pairs]
            g = gcd(*ints)
        if g:
            out.append([x // g for x in ints] if g > 1 else ints)
    return out


def _rref(field: Field, rows, ncols, integer=False):
    """RREF of rows of canonical entries; returns (nonzero rows, pivot
    column list).  See the module docstring for the two kernels.  Over Q
    the rows may also hold ints, and with `integer` the result keeps the
    primitive integer rows, each a nonzero multiple of its RREF row; over
    F_p `integer` changes nothing."""
    p = field.p
    if p is None:
        work = _primitive(rows)
    else:
        work = [list(row) for row in rows if any(row)]
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, len(work)):
            if work[i][c]:
                break
        else:
            continue
        work[r], work[i] = work[i], work[r]
        lead = work[r]
        a = lead[c]
        if p is not None and a != 1:
            s = pow(a, p - 2, p)
            lead = work[r] = [x * s % p for x in lead]
        for i, row in enumerate(work):
            b = row[c]
            if not b or i == r:
                continue
            if p is None:
                new = [a * x - b * y for x, y in zip(row, lead)]
                g = gcd(*new)
                work[i] = [x // g for x in new] if g > 1 else new
            else:
                work[i] = [(x - b * y) % p for x, y in zip(row, lead)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    if p is not None:
        return [tuple(row) for row in work[:r]], pivots
    if integer:
        return work[:r], pivots
    return [tuple(Fraction(x, row[c]) if x else _ZERO for x in row)
            for row, c in zip(work, pivots)], pivots


def _kernel(field: Field, rows, n) -> "Matrix":
    """The RREF basis of {x in k^n : r . x = 0 for every constraint row r}.
    One elimination, of the rows with their columns reversed: the kernel
    vector of free column f is then 1 at f and nonzero only at later pivot
    columns, so these vectors, in order of f, are already the reduced row
    echelon form.  Over Q the elimination keeps its integer rows, and a
    Fraction is made only for a nonzero entry of the basis."""
    p = field.p
    red, pivots = _rref(field, (r[::-1] for r in rows), n, True)
    piv_set = set(pivots)
    zero, one = field.zero, field.one
    basis = []
    for f in range(n - 1, -1, -1):  # reversed column f is column n-1-f
        if f in piv_set:
            continue
        v = [zero] * n
        v[n - 1 - f] = one
        for row, pc in zip(red, pivots):
            if pc > f:
                break
            x = row[f]
            if x:
                v[n - 1 - pc] = Fraction(-x, row[pc]) if p is None else p - x
        basis.append(tuple(v))
    return Matrix._of(field, tuple(basis), n)


class Matrix:
    """Immutable exact matrix; rows is a tuple of tuples of scalars."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows, ncols=None):
        rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("ragged rows")
            if ncols is not None and ncols != width:
                raise DimensionMismatch(f"ncols {ncols} != row width {width}")
            ncols = width
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit ncols")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _of(cls, field: Field, rows: tuple, ncols: int) -> "Matrix":
        """A matrix on a tuple of tuples of canonical entries, taken as they
        are: no coercion and no shape check (see the module docstring)."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", ncols)
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls._of(field, tuple(tuple(one if i == j else zero for j in range(n))
                                    for i in range(n)), n)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls._of(field, ((field.zero,) * ncols,) * nrows, ncols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(",".join(map(str, r)) for r in self.rows)
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}: {body})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        field = self.field
        p = field.p
        if other.ncols == 0:
            out = ((),) * self.nrows
        elif self.ncols == 0:
            out = ((field.zero,) * other.ncols,) * self.nrows
        else:
            cols = list(zip(*other.rows))
            if p is None:
                # Each row and column as integers over a common denominator,
                # so that an entry costs one Fraction instead of one per term.
                scaled = []
                for vecs in (self.rows, cols):
                    part = []
                    for vec in vecs:
                        pairs = [x.as_integer_ratio() for x in vec]
                        den = lcm(*[d for _, d in pairs])
                        part.append(([n * (den // d) for n, d in pairs], den))
                    scaled.append(part)
                zero = field.zero
                out = tuple(tuple(Fraction(s, dr * dc) if (s := sum(map(mul, r, c))) else zero
                                  for c, dc in scaled[1])
                            for r, dr in scaled[0])
            else:
                out = tuple(tuple(sum(map(mul, row, col)) % p for col in cols)
                            for row in self.rows)
        return Matrix._of(field, out, other.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self.field, other.field)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix shapes differ")
        p = self.field.p
        pairs = zip(self.rows, other.rows)
        if p is None:
            out = tuple(tuple(a + b for a, b in zip(r, s)) for r, s in pairs)
        else:
            out = tuple(tuple((a + b) % p for a, b in zip(r, s)) for r, s in pairs)
        return Matrix._of(self.field, out, self.ncols)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        p = self.field.p
        if p is None:
            out = tuple(tuple(c * x for x in r) for r in self.rows)
        else:
            out = tuple(tuple(c * x % p for x in r) for r in self.rows)
        return Matrix._of(self.field, out, self.ncols)

    def transpose(self) -> "Matrix":
        if self.nrows == 0:
            return Matrix._of(self.field, ((),) * self.ncols, 0)
        return Matrix._of(self.field, tuple(zip(*self.rows)), self.nrows)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def rref(self):
        rows, pivots = _rref(self.field, self.rows, self.ncols)
        return Matrix._of(self.field, tuple(rows), self.ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def null_rows(self) -> "Matrix":
        """The RREF basis of the left kernel {x : x * self = 0}; shape
        k x nrows.  One elimination, of the transpose with its columns
        reversed (see `_kernel`)."""
        return _kernel(self.field, zip(*self.rows), self.nrows)

    def inverse(self):
        """Inverse matrix, or None if not square/invertible."""
        if self.nrows != self.ncols:
            return None
        n = self.nrows
        field = self.field
        one, zero = field.one, field.zero
        aug = [list(r) + [one if i == j else zero for j in range(n)]
               for i, r in enumerate(self.rows)]
        red, pivots = _rref(field, aug, 2 * n)
        if list(pivots) != list(range(n)):
            return None
        return Matrix._of(field, tuple(r[n:] for r in red), n)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows


def vstack(*mats: Matrix) -> Matrix:
    if not mats:
        raise ValueError("vstack of nothing")
    field = mats[0].field
    ncols = mats[0].ncols
    rows = []
    for m in mats:
        _check_same_field(field, m.field)
        if m.ncols != ncols:
            raise DimensionMismatch("vstack width mismatch")
        rows.extend(m.rows)
    return Matrix._of(field, tuple(rows), ncols)


class Subspace:
    """A subspace of k^ambient, held as an RREF basis matrix with no zero rows."""

    __slots__ = ("field", "ambient", "mat")

    def __init__(self, field: Field, ambient: int, mat: Matrix):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, field: Field, ambient: int, rows) -> "Subspace":
        m = Matrix(field, rows, ambient)
        if m.ncols != ambient:
            raise DimensionMismatch(f"vectors of length {m.ncols} in ambient {ambient}")
        return cls(field, ambient, m.rref()[0])

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix._of(field, (), ambient))

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix.identity(field, ambient))

    @property
    def dim(self) -> int:
        return self.mat.nrows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.mat == other.mat)

    def __hash__(self):
        return hash((self.field, self.ambient, self.mat))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"

    def _check_compatible(self, other: "Subspace"):
        _check_same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatch(f"ambient {self.ambient} vs {other.ambient}")

    def _reduce(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside."""
        p = self.field.p
        coords = []
        for row in self.mat.rows:
            c = v[next(i for i, x in enumerate(row) if x)]
            coords.append(c)
            if c:
                if p is None:
                    v = [a - c * b for a, b in zip(v, row)]
                else:
                    v = [(a - c * b) % p for a, b in zip(v, row)]
        if any(v):
            return None
        return tuple(coords)

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self._reduce(r) is not None for r in other.mat.rows)

    def express_rows(self, m: Matrix) -> Matrix:
        """Coordinates of each row of m in this basis; raises if not contained."""
        coords = []
        for r in m.rows:
            c = self._reduce(r)
            if c is None:
                raise DimensionMismatch("row not in subspace")
            coords.append(c)
        return Matrix._of(self.field, tuple(coords), self.dim)

    def plus(self, *others: "Subspace") -> "Subspace":
        """The sum of this subspace and the others: one RREF of the stacked
        rows of the nonzero operands, and none when at most one is nonzero."""
        for other in others:
            self._check_compatible(other)
        parts = [s for s in (self, *others) if not s.is_zero()]
        if len(parts) <= 1:
            return parts[0] if parts else self
        return Subspace(self.field, self.ambient, vstack(*(s.mat for s in parts)).rref()[0])

    def intersect(self, *others: "Subspace") -> "Subspace":
        """The intersection of this subspace and the others: x lies in every
        operand iff x*q = 0 for the quotient map q of each, so this is one
        elimination, the left kernel of those maps set side by side.  A
        full operand adds no columns; no elimination runs when an operand
        is 0 or at most one is neither 0 nor the whole space."""
        for other in others:
            self._check_compatible(other)
        parts = (self, *others)
        for s in parts:
            if s.is_zero():
                return s
        proper = [s for s in parts if not s.is_full()]
        if len(proper) <= 1:
            return proper[0] if proper else self
        maps = [s.quotient_map() for s in proper]
        rows = tuple(tuple(chain.from_iterable(r)) for r in zip(*(q.rows for q in maps)))
        side = Matrix._of(self.field, rows, sum(q.ncols for q in maps))
        return Subspace(self.field, self.ambient, side.null_rows())

    def annihilator(self) -> "Subspace":
        """{g in the dual : g(self) = 0}, in dual-basis coordinates."""
        return Subspace(self.field, self.ambient, self.mat.transpose().null_rows())

    def image(self, m: Matrix) -> "Subspace":
        """Image of this subspace under v |-> v*m."""
        if m.nrows != self.ambient:
            raise DimensionMismatch("map domain mismatch")
        return Subspace(self.field, m.ncols, (self.mat * m).rref()[0])

    def preimage(self, m: Matrix) -> "Subspace":
        """{x : x*m in self}; m maps k^nrows -> k^ambient.  x*m lies in
        self exactly when x*m*q = 0 for the quotient map q, so this is one
        elimination, the left kernel of m*q."""
        if m.ncols != self.ambient:
            raise DimensionMismatch("map codomain mismatch")
        return Subspace(self.field, m.nrows, (m * self.quotient_map()).null_rows())

    def _pivots(self):
        """The pivot column of each basis row, and the other columns."""
        leads = [next(i for i, x in enumerate(r) if x) for r in self.mat.rows]
        piv = set(leads)
        return leads, [j for j in range(self.ambient) if j not in piv]

    def complement(self) -> Matrix:
        """Standard basis rows at the non-pivot coordinates; spans a complement."""
        field = self.field
        rows = []
        for j in self._pivots()[1]:
            v = [field.zero] * self.ambient
            v[j] = field.one
            rows.append(tuple(v))
        return Matrix._of(field, tuple(rows), self.ambient)

    def complement_within(self, sub: "Subspace") -> Matrix:
        """Rows of self extending a basis of sub to a basis of self."""
        self._check_compatible(sub)
        if not self.contains(sub):
            raise DimensionMismatch("not a subspace of self")
        coords = self.express_rows(sub.mat)
        inner = Subspace(self.field, self.dim, coords.rref()[0])
        return inner.complement() * self.mat

    def quotient_map(self) -> Matrix:
        """q : k^ambient -> k^(ambient-dim) with kernel self, ambient x d.

        Its columns cut self out: x lies in self iff x*q = 0.  The lift
        `complement()`, the standard basis at the non-pivot columns F,
        has complement()*q the identity, and q needs no elimination: e_f
        for f in F is mapped to the f-th unit vector, and e_p = R_i - sum
        of R_i[f] * e_f over F for the basis row R_i with pivot p, so q is
        the identity on the rows F and -R_i[F] on row p.
        """
        field = self.field
        p = field.p
        zero, one = field.zero, field.one
        leads, free = self._pivots()
        d = len(free)
        rows = [None] * self.ambient
        for k, f in enumerate(free):
            rows[f] = (zero,) * k + (one,) + (zero,) * (d - k - 1)
        for r, lead in zip(self.mat.rows, leads):
            rows[lead] = (tuple(-r[f] for f in free) if p is None
                          else tuple(-r[f] % p for f in free))
        return Matrix._of(field, tuple(rows), d)


def _sparse_kernel(field: Field, rows, n) -> Matrix:
    """The RREF basis of {x in k^n : c . x = 0 for every constraint row c},
    each row a dict {n-1-j: c_j} of its entries, keyed by reversed column
    as `_kernel` eliminates; zero entries and empty rows are dropped.

    One sparse Gauss-Jordan elimination, forward and then back.  A row
    that is still unreduced holds no column before its least key (its
    lead), so the rows that hold column c are those whose lead is c; of
    these, the one with the fewest entries is the pivot row, to limit the
    fill-in (Markowitz's rule).  Over Q each row is scaled to a primitive
    integer vector, an update is a*row - b*lead over gcd(a, b), and the
    gcd of the entries is divided out after it; over F_p the pivot row is
    normalised and the entries reduced mod p.  The basis is read as
    `_kernel` reads it, which the unique RREF makes the same."""
    p = field.p
    if p is None:
        def update(row, lead, c):
            a, b = lead[c], row[c]
            g = gcd(a, b)
            if g > 1:
                a, b = a // g, b // g
            if a == -1:  # the row need not be scaled when a divides b
                a, b = 1, -b
            elif a != 1:
                row = {k: a * x for k, x in row.items()}
            for k, y in lead.items():
                x = row.get(k, 0) - b * y
                if x:
                    row[k] = x
                else:
                    del row[k]
            g = gcd(*row.values())
            return {k: x // g for k, x in row.items()} if g > 1 else row
    else:
        def update(row, lead, c):  # lead[c] is 1
            b = row[c]
            for k, y in lead.items():
                x = (row.get(k, 0) - b * y) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
            return row

    by_lead = {}
    for row in rows:
        if p is None:  # a zero row has no primitive vector
            for ints in _primitive([list(row.values())]):
                row = {k: x for k, x in zip(row, ints) if x}
                by_lead.setdefault(min(row), []).append(row)
        elif row := {k: x for k, x in row.items() if x}:
            by_lead.setdefault(min(row), []).append(row)
    pivots = {}  # pivot column -> its row, in increasing column order
    while by_lead:
        c = min(by_lead)
        bucket = by_lead.pop(c)
        lead = bucket.pop(bucket.index(min(bucket, key=len)))
        if p is not None and lead[c] != 1:
            s = pow(lead[c], p - 2, p)
            lead = {k: x * s % p for k, x in lead.items()}
        for row in bucket:
            if row := update(row, lead, c):
                by_lead.setdefault(min(row), []).append(row)
        pivots[c] = lead
    for c in reversed(pivots):  # the rows after c are reduced already
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            row = update(row, pivots[k], k)
        pivots[c] = row
    zero, one = field.zero, field.one
    basis = {}
    for f in range(n - 1, -1, -1):  # reversed column f is column n-1-f
        if f not in pivots:
            v = basis[f] = [zero] * n
            v[n - 1 - f] = one
    for c, row in pivots.items():
        a = row[c]
        for k, x in row.items():
            if k != c:
                basis[k][n - 1 - c] = Fraction(-x, a) if p is None else p - x
    return Matrix._of(field, tuple(map(tuple, basis.values())), n)


def solution_space(field: Field, nvars: int, constraint_rows) -> Subspace:
    """All x in k^nvars with c . x = 0 for every constraint row c, each row
    a dict {nvars-1-j: c_j} of its nonzero entries (see `_sparse_kernel`).
    Over Q an entry may be an int or a Fraction, and a row stands for any
    nonzero multiple of itself, as `sspace._hom_solutions` writes its rows
    on ints; over F_p the entries must be canonical.  No entry is coerced."""
    rows = list(constraint_rows)
    if not rows:
        return Subspace.full(field, nvars)
    return Subspace(field, nvars, _sparse_kernel(field, rows, nvars))
