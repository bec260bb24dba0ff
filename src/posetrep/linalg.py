"""Exact linear algebra over the rationals and prime fields.

Scalars are `fractions.Fraction` over Q and plain ints in [0, p) over F_p.
Vectors are rows; a linear map k^n -> k^m is an n x m matrix acting by
v |-> v * M, so composition "f then g" is the product M_f * M_g.

A subspace is stored as the reduced row echelon form of a spanning set.
RREF is a unique representative, so subspace equality is literal entry
comparison and every higher-level functor identity in this package can be
tested as equality of canonical forms instead of an isomorphism search.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, FieldMismatch, InvalidField

_PRIME_LIMIT = 1 << 16


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
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def coerce(self, x):
        if self.p is None:
            return Fraction(x)
        return int(x) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            return Fraction(1) / a
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, token: str):
        token = token.strip()
        if self.p is None:
            if "/" in token:
                num, den = token.split("/")
                return Fraction(int(num), int(den))
            return Fraction(int(token))
        return int(token) % self.p

    def format(self, x) -> str:
        return str(x)

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


def _rref(field: Field, rows, ncols):
    """In-place style RREF; returns (nonzero rows, pivot column list)."""
    work = [list(r) for r in rows]
    zero = field.zero
    sub, mul, inv = field.sub, field.mul, field.inv
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        scale = inv(work[r][c])
        if scale != field.one:
            work[r] = [mul(scale, x) for x in work[r]]
        lead = work[r]
        for i in range(len(work)):
            if i != r and work[i][c] != zero:
                f = work[i][c]
                row = work[i]
                work[i] = [sub(x, mul(f, y)) for x, y in zip(row, lead)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


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
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)], ncols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(",".join(self.field.format(x) for x in r) for r in self.rows)
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}: {body})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self.field, other.field)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        field = self.field
        zero = field.zero
        if other.ncols == 0:
            out = [() for _ in self.rows]
        elif self.ncols == 0:
            out = [(zero,) * other.ncols for _ in self.rows]
        else:
            cols = list(zip(*other.rows))
            out = []
            if field.p is None:
                for row in self.rows:
                    out.append(tuple(sum((a * b for a, b in zip(row, col)), zero) for col in cols))
            else:
                p = field.p
                for row in self.rows:
                    out.append(tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols))
        return Matrix(field, out, other.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self.field, other.field)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix shapes differ")
        add = self.field.add
        return Matrix(self.field,
                      [tuple(add(a, b) for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)],
                      self.ncols)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        mul = self.field.mul
        return Matrix(self.field, [tuple(mul(c, x) for x in r) for r in self.rows], self.ncols)

    def transpose(self) -> "Matrix":
        if self.nrows == 0:
            return Matrix(self.field, [() for _ in range(self.ncols)], 0)
        return Matrix(self.field, list(zip(*self.rows)), self.nrows)

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(x == zero for r in self.rows for x in r)

    def rref(self):
        rows, pivots = _rref(self.field, self.rows, self.ncols)
        return Matrix(self.field, rows, self.ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def null_rows(self) -> "Matrix":
        """Basis rows of the left kernel {x : x * self = 0}; shape k x nrows."""
        red, pivots = _rref(self.field, zip(*self.rows) if self.rows else [], self.nrows)
        field = self.field
        piv_set = set(pivots)
        free = [j for j in range(self.nrows) if j not in piv_set]
        basis = []
        neg = field.neg
        for f in free:
            v = [field.zero] * self.nrows
            v[f] = field.one
            for r, pc in enumerate(pivots):
                v[pc] = neg(red[r][f])
            basis.append(v)
        return Matrix(field, basis, self.nrows)

    def inverse(self):
        """Inverse matrix, or None if not square/invertible."""
        if self.nrows != self.ncols:
            return None
        n = self.nrows
        field = self.field
        aug = [list(r) + [field.one if i == j else field.zero for j in range(n)]
               for i, r in enumerate(self.rows)]
        red, pivots = _rref(field, aug, 2 * n)
        if list(pivots) != list(range(n)):
            return None
        return Matrix(field, [r[n:] for r in red], n)

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
    return Matrix(field, rows, ncols)


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
        return cls(field, ambient, Matrix(field, [], ambient))

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

    def contains_vector(self, vec) -> bool:
        v = tuple(self.field.coerce(x) for x in vec)
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length")
        return self._reduce(v) is not None

    def _reduce(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside."""
        field = self.field
        coords = []
        v = list(v)
        for row in self.mat.rows:
            pc = next(i for i, x in enumerate(row) if x != field.zero)
            c = v[pc]
            coords.append(c)
            if c != field.zero:
                v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
        if any(x != field.zero for x in v):
            return None
        return coords

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
        return Matrix(self.field, coords, self.dim)

    def plus(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_rows(self.field, self.ambient,
                                  list(self.mat.rows) + list(other.mat.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel of the stacked system: relations l*A + m*B = 0 give l*A."""
        self._check_compatible(other)
        ra = self.mat.nrows
        stacked = vstack(self.mat, other.mat)
        rel = stacked.null_rows()
        vecs = [r[:ra] for r in rel.rows]
        coeff = Matrix(self.field, vecs, ra)
        return Subspace.from_rows(self.field, self.ambient, (coeff * self.mat).rows)

    def annihilator(self) -> "Subspace":
        """{g in the dual : g(self) = 0}, in dual-basis coordinates."""
        return Subspace(self.field, self.ambient, self.mat.transpose().null_rows().rref()[0])

    def image(self, m: Matrix) -> "Subspace":
        """Image of this subspace under v |-> v*m."""
        if m.nrows != self.ambient:
            raise DimensionMismatch("map domain mismatch")
        return Subspace.from_rows(self.field, m.ncols, (self.mat * m).rows)

    def preimage(self, m: Matrix) -> "Subspace":
        """{x : x*m in self}; m maps k^nrows -> k^ambient."""
        if m.ncols != self.ambient:
            raise DimensionMismatch("map codomain mismatch")
        ann = self.annihilator().mat
        test = m * ann.transpose()
        return Subspace(self.field, m.nrows, test.null_rows().rref()[0])

    def complement_pivots(self):
        piv = set()
        for row in self.mat.rows:
            piv.add(next(i for i, x in enumerate(row) if x != self.field.zero))
        return [j for j in range(self.ambient) if j not in piv]

    def complement(self) -> Matrix:
        """Standard basis rows at the non-pivot coordinates; spans a complement."""
        field = self.field
        rows = []
        for j in self.complement_pivots():
            v = [field.zero] * self.ambient
            v[j] = field.one
            rows.append(v)
        return Matrix(field, rows, self.ambient)

    def complement_within(self, sub: "Subspace") -> Matrix:
        """Rows of self extending a basis of sub to a basis of self."""
        self._check_compatible(sub)
        if not self.contains(sub):
            raise DimensionMismatch("not a subspace of self")
        coords = self.express_rows(sub.mat)
        inner = Subspace(self.field, self.dim, coords.rref()[0])
        return inner.complement() * self.mat

    def quotient_map(self):
        """(q, lift) for k^ambient -> k^(ambient-dim) with kernel self.

        q is ambient x d, lift is d x ambient, lift*q is the identity and
        row span of lift is a complement of self.
        """
        field = self.field
        n = self.ambient
        comp = self.complement()
        basis = vstack(self.mat, comp)
        if basis.nrows != n:
            raise DimensionMismatch("degenerate basis")
        binv = basis.inverse()
        d = n - self.dim
        q = Matrix(field, [r[self.dim:] for r in binv.rows], d)
        return q, comp


def solution_space(field: Field, nvars: int, constraint_rows) -> Subspace:
    """All x in k^nvars with c . x = 0 for every constraint row c."""
    c = Matrix(field, constraint_rows, nvars)
    if c.nrows == 0:
        return Subspace.full(field, nvars)
    return Subspace(field, nvars, c.transpose().null_rows().rref()[0])
