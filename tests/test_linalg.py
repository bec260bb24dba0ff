import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from posetrep.errors import DimensionMismatch, FieldMismatch, InvalidScalar, PosetRepError
from posetrep import linalg
from posetrep.linalg import QQ, Field, Matrix, Subspace, _rref, solution_space, vstack

from helpers import _inv, _mul, _sub, count_eliminations, reference_rref, sparse_rows

F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
F65521 = Field.prime(65521)


def rand_subspace(rng, field, n):
    k = rng.randrange(0, n + 1)
    rows = [[field.coerce(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(k)]
    return Subspace.from_rows(field, n, rows)


def column_elimination_rank(field, rows, ncols):
    """Independent rank oracle: eliminate columns left to right."""
    cols = [list(c) for c in zip(*rows)] if rows else []
    rank = 0
    used = set()
    for c in cols:
        c = list(c)
        for r, lead in used:
            f = c[r]
            if f != field.zero:
                c = [_sub(field, x, _mul(field, f, y)) for x, y in zip(c, lead)]
        for r, x in enumerate(c):
            if x != field.zero:
                c = [_mul(field, y, _inv(field, x)) for y in c]
                used.add((r, tuple(c)))
                rank += 1
                break
    return rank


def reference_null_rows(field, rows, nrows):
    """Left kernel of an nrows-row matrix from the reference RREF of its transpose."""
    red, pivots = reference_rref(field, list(zip(*rows)), nrows)
    basis = []
    for f in (j for j in range(nrows) if j not in pivots):
        v = [field.zero] * nrows
        v[f] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = _sub(field, field.zero, red[r][f])
        basis.append(tuple(v))
    return basis


def random_entry(rng, field):
    if rng.random() < 0.4:
        return field.zero
    if field.p is None:
        return Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 2, 3, 4, 7, 12]))
    return rng.randrange(field.p)


def random_rows(rng, field, nrows, ncols):
    """Random canonical rows; some are zero and some repeat an earlier row
    times a scalar, so that ranks below min(nrows, ncols) are common."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append((field.zero,) * ncols)
        elif kind < 0.35 and rows:
            c = random_entry(rng, field) or field.one
            rows.append(tuple(_mul(field, c, x) for x in rng.choice(rows)))
        else:
            rows.append(tuple(random_entry(rng, field) for _ in range(ncols)))
    return rows


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 6), (6, 1), (2, 2), (3, 5), (5, 3),
          (4, 4), (7, 4), (4, 7), (6, 6), (9, 12), (12, 9)]


def assert_canonical(field, m):
    for row in m.rows:
        for x in row:
            if field.p is None:
                assert type(x) is Fraction, (x, type(x))
            else:
                assert type(x) is int and 0 <= x < field.p, (x, type(x))


@pytest.mark.parametrize("field", [QQ, F2, F3, F5, F65521], ids=repr)
def test_kernels_match_reference_elimination(field):
    rng = random.Random(field.p or 0)
    for trial in range(12):
        for nrows, ncols in SHAPES:
            rows = random_rows(rng, field, nrows, ncols)
            ref, ref_pivots = reference_rref(field, rows, ncols)
            assert _rref(field, rows, ncols) == (ref, ref_pivots)
            # the integer mode: over Q each row a primitive integer multiple
            # of its RREF row, over F_p the RREF itself
            ints, int_pivots = _rref(field, rows, ncols, True)
            assert int_pivots == ref_pivots and len(ints) == len(ref)
            for row, ref_row, c in zip(ints, ref, ref_pivots):
                if field.p is None:
                    assert all(type(x) is int for x in row) and gcd(*row) == 1
                    assert tuple(Fraction(x, row[c]) for x in row) == ref_row
                else:
                    assert tuple(row) == ref_row
            m = Matrix(field, rows, ncols)
            red, pivots = m.rref()
            assert red.rows == tuple(ref) and pivots == tuple(ref_pivots)
            assert red.ncols == ncols and red.nrows == len(ref)
            assert m.rank() == len(ref_pivots)
            null = m.null_rows()
            ref_null, _ = reference_rref(field, reference_null_rows(field, rows, nrows), nrows)
            assert null.rows == tuple(ref_null)
            assert null.ncols == nrows
            for out in (red, null):
                assert_canonical(field, out)
            if nrows == ncols:
                aug = [row + tuple(field.one if i == j else field.zero for j in range(nrows))
                       for i, row in enumerate(rows)]
                aug_red, aug_pivots = reference_rref(field, aug, 2 * nrows)
                inv = m.inverse()
                if aug_pivots == list(range(nrows)):
                    assert inv.rows == tuple(r[nrows:] for r in aug_red)
                    assert_canonical(field, inv)
                else:
                    assert inv is None


def reference_subspace(field, ambient, rows):
    return Subspace(field, ambient, Matrix._of(field, tuple(reference_rref(field, rows, ambient)[0]),
                                               ambient))


def reference_intersect(a, b):
    """The two-step route: the relations l*A + m*B = 0, then the RREF of l*A."""
    field, ra = a.field, a.dim
    rel = reference_null_rows(field, a.mat.rows + b.mat.rows, ra + b.dim)
    coeff = Matrix._of(field, tuple(r[:ra] for r in rel), ra)
    return reference_subspace(field, a.ambient, (coeff * a.mat).rows)


def reference_annihilator(s):
    return reference_subspace(s.field, s.ambient,
                              reference_null_rows(s.field, s.mat.transpose().rows, s.ambient))


def reference_preimage(s, m):
    """Kernel of m times the transposed RREF annihilator, made canonical."""
    test = m * reference_annihilator(s).mat.transpose()
    return reference_subspace(s.field, m.nrows, reference_null_rows(s.field, test.rows, m.nrows))


def reference_solution_space(field, nvars, rows):
    if not rows:
        return Subspace.full(field, nvars)
    cols = list(zip(*rows)) if nvars else []
    return reference_subspace(field, nvars, reference_null_rows(field, cols, nvars))


def reference_quotient(s):
    """q from the inverse of the basis [s; complement], by Gauss-Jordan on [B | I]."""
    field, n = s.field, s.ambient
    basis = s.mat.rows + s.complement().rows
    aug = [row + tuple(field.one if i == j else field.zero for j in range(n))
           for i, row in enumerate(basis)]
    red, _ = reference_rref(field, aug, 2 * n)
    return Matrix._of(field, tuple(r[n + s.dim:] for r in red), n - s.dim)


@pytest.mark.parametrize("field", [QQ, F2, F3, F5, F65521], ids=repr)
def test_subspace_operations_match_two_step_route_with_one_elimination(field, monkeypatch):
    calls = []
    count_eliminations(monkeypatch, calls)

    def eliminations(run):
        calls.clear()
        out = run()
        return out, len(calls)

    rng = random.Random(20 + (field.p or 0))
    third_rng = random.Random(40 + (field.p or 0))  # leaves the draws from rng as they were
    for trial in range(6):
        for nrows, ncols in SHAPES:
            a = Subspace.from_rows(field, ncols, random_rows(rng, field, nrows, ncols))
            b = Subspace.from_rows(field, ncols, random_rows(rng, field, ncols, ncols))
            m = Matrix._of(field, tuple(random_rows(rng, field, nrows, ncols)), ncols)
            cons = random_rows(rng, field, nrows, ncols)

            null, count = eliminations(m.null_rows)
            assert count == 1
            assert null.rows == tuple(reference_rref(
                field, reference_null_rows(field, m.rows, nrows), nrows)[0])
            for x, y in ((a, b), (b, a), (a, a)):
                trivial = any(s.is_zero() or s.is_full() for s in (x, y))
                meet, count = eliminations(lambda: x.intersect(y))
                assert count == (0 if trivial else 1)
                assert meet == reference_intersect(x, y)
                assert_canonical(field, meet.mat)
            c = Subspace.from_rows(field, ncols, random_rows(third_rng, field, nrows, ncols))
            zero, full = Subspace.zero(field, ncols), Subspace.full(field, ncols)
            for x, y, z in ((a, b, c), (c, a, b), (a, zero, b), (zero, c, zero),
                            (full, a, c), (a, full, full), (zero, full, c), (full, c, zero)):
                ops = (x, y, z)
                nonzero = sum(not s.is_zero() for s in ops)
                total, count = eliminations(lambda: x.plus(y, z))
                assert count == (0 if nonzero <= 1 else 1)
                assert total == reference_subspace(field, ncols, x.mat.rows + y.mat.rows
                                                   + z.mat.rows)
                proper = sum(not (s.is_zero() or s.is_full()) for s in ops)
                meet, count = eliminations(lambda: x.intersect(y, z))
                assert count == (0 if nonzero < 3 or proper <= 1 else 1)
                assert meet == reference_intersect(reference_intersect(x, y), z)
                for out in (total, meet):
                    assert_canonical(field, out.mat)
            ann, count = eliminations(a.annihilator)
            assert count == 1 and ann == reference_annihilator(a)
            pre, count = eliminations(lambda: a.preimage(m))
            assert count == 1 and pre == reference_preimage(a, m)
            sol, count = eliminations(lambda: solution_space(field, ncols, sparse_rows(cons)))
            assert calls == (["_sparse_kernel"] if cons else [])
            assert sol == reference_solution_space(field, ncols, cons)
            q, count = eliminations(a.quotient_map)
            assert count == 0 and q == reference_quotient(a)
            for out in (ann.mat, pre.mat, sol.mat, q):
                assert_canonical(field, out)


@pytest.mark.parametrize("field", [QQ, F2, F3, F5, F65521], ids=repr)
def test_solution_space_takes_any_nonzero_multiple_of_a_row(field, monkeypatch):
    """A constraint row stands for its nonzero multiples: over Q it may be
    given on Fractions, on ints, or scaled by any nonzero integer; over F_p
    scaled by any nonzero residue.  Each form gives the same canonical
    subspace, by one sparse elimination."""
    calls = []
    count_eliminations(monkeypatch, calls)
    rng = random.Random(60 + (field.p or 0))

    def nonzero():
        return rng.choice([-1, 1]) * rng.randrange(1, 50)

    for trial in range(6):
        for nrows, ncols in SHAPES:
            rows = random_rows(rng, field, nrows, ncols)
            if field.p is None:
                ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row]
                        for row in rows]
                forms = [rows, ints, [[k * x for x in row] for row, k in
                                      zip(ints, [nonzero() for _ in rows])],
                         [[k * x for x in row] for row, k in
                          zip(rows, [Fraction(nonzero(), nonzero()) for _ in rows])]]
            else:
                forms = [rows, [[k * x % field.p for x in row] for row, k in
                                zip(rows, [rng.randrange(1, field.p) for _ in rows])]]
            expected = reference_solution_space(field, ncols, rows)
            for form in forms:
                calls.clear()
                sol = solution_space(field, ncols, sparse_rows(form))
                assert calls == (["_sparse_kernel"] if rows else [])
                assert sol == expected
                assert_canonical(field, sol.mat)


@pytest.mark.parametrize("field", [QQ, F2, F3, F5, F65521], ids=repr)
def test_sparse_kernel_matches_reference_on_random_rows(field):
    """The sparse kernel gives the reference kernel's RREF basis whatever
    the rows: empty ones, exact duplicates, nonzero multiples, Fractions
    and ints mixed over Q, entries in any key order, no unknowns at all."""
    rng = random.Random(80 + (field.p or 0))
    for trial in range(8):
        for nrows, ncols in SHAPES + [(4, 0), (10, 10), (20, 16)]:
            rows = random_rows(rng, field, nrows, ncols)
            rows += rng.sample(rows, min(len(rows), 2))  # exact duplicates
            rng.shuffle(rows)
            sparse = []
            for row in sparse_rows(rows):
                if field.p is None and row and rng.random() < 0.5:
                    k = rng.choice(list(row))
                    row[k] = int(row[k]) if row[k].denominator == 1 else row[k]
                items = list(row.items())
                rng.shuffle(items)
                sparse.append(dict(items))
            expected = reference_solution_space(field, ncols, rows)
            got = linalg._sparse_kernel(field, sparse, ncols) if rows else None
            if rows:
                assert got == expected.mat
                assert_canonical(field, got)
            assert solution_space(field, ncols, sparse) == expected
    assert linalg._sparse_kernel(field, [], 3) == Matrix.identity(field, 3)
    assert linalg._sparse_kernel(field, [{}, {}], 2) == Matrix.identity(field, 2)
    assert linalg._sparse_kernel(field, [{}], 0).nrows == 0
    assert solution_space(field, 0, []) == Subspace.full(field, 0)


def test_sparse_kernel_over_q_takes_fraction_rows():
    # x0 / 2 + 2 x2 / 3 = 0 and x1 = 3 x2; key 2 is the coefficient of x0
    rows = [{2: Fraction(1, 2), 0: Fraction(2, 3)}, {0: -3, 1: 1}]
    assert solution_space(QQ, 3, rows) == Subspace.from_rows(QQ, 3, [[-4, 9, 3]])


def test_coerce_maps_rationals_into_prime_fields():
    assert F5.coerce(Fraction(1, 2)) == 3
    assert F5.coerce(Fraction(-1, 2)) == 2
    assert F5.coerce(Fraction(7, 3)) == 4
    assert F2.coerce(Fraction(6, 3)) == 0
    assert Matrix(F5, [[Fraction(1, 2), 1]]).rows == ((3, 1),)
    assert F65521.coerce(-1) == 65520


@pytest.mark.parametrize("field,bad", [(F5, Fraction(1, 5)), (F5, Fraction(3, 10)),
                                       (F2, Fraction(1, 2)), (F5, 2.7), (F5, 2.0),
                                       (QQ, 0.1), (QQ, 3.0)])
def test_coerce_refuses_inexact_or_undefined_scalars(field, bad):
    with pytest.raises(InvalidScalar) as exc:
        field.coerce(bad)
    assert isinstance(exc.value, PosetRepError)
    with pytest.raises(InvalidScalar):
        Matrix(field, [[bad, 1]])


def test_field_basics():
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ValueError):
        Field.prime(1 << 17)


def test_matrix_product_and_identity():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    i = Matrix.identity(QQ, 2)
    assert m * i == m
    assert (m * m.inverse()) == i


def test_intersect_two_lines_is_zero():
    a = Subspace.from_rows(QQ, 2, [[1, 0]])
    b = Subspace.from_rows(QQ, 2, [[1, 1]])
    assert a.intersect(b) == Subspace.zero(QQ, 2)


def test_sum_two_lines_is_plane():
    a = Subspace.from_rows(QQ, 2, [[1, 0]])
    b = Subspace.from_rows(QQ, 2, [[1, 1]])
    assert a.plus(b) == Subspace.full(QQ, 2)


def test_annihilator_of_axis():
    a = Subspace.from_rows(QQ, 2, [[1, 0]])
    assert a.annihilator() == Subspace.from_rows(QQ, 2, [[0, 1]])


@pytest.mark.parametrize("field", [QQ, F5])
def test_double_annihilator_random(field):
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(0, 5)
        w = rand_subspace(rng, field, n)
        assert w.annihilator().annihilator() == w


def test_solve_linear_f2():
    sol = solution_space(F2, 2, sparse_rows([[1, 1]]))
    assert sol == Subspace.from_rows(F2, 2, [[1, 1]])


def test_solve_linear_empty_system():
    assert solution_space(QQ, 3, []) == Subspace.full(QQ, 3)


@pytest.mark.parametrize("field", [QQ, F2, F5])
def test_solution_dim_matches_rank_nullity(field):
    rng = random.Random(13)
    for _ in range(50):
        m, n = rng.randrange(0, 5), rng.randrange(1, 5)
        rows = [[field.coerce(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(m)]
        rank = column_elimination_rank(field, rows, n)
        assert solution_space(field, n, sparse_rows(rows)).dim == n - rank


@pytest.mark.parametrize("field", [QQ, F5])
def test_modular_law_dimensions(field):
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(0, 5)
        a, b = rand_subspace(rng, field, n), rand_subspace(rng, field, n)
        assert a.plus(b).dim + a.intersect(b).dim == a.dim + b.dim


@pytest.mark.parametrize("field", [QQ, F5])
def test_image_preimage_laws(field):
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randrange(0, 4), rng.randrange(0, 4)
        f = Matrix(field, [[field.coerce(rng.randrange(-2, 3)) for _ in range(m)]
                           for _ in range(n)], m)
        a = rand_subspace(rng, field, n)
        b = rand_subspace(rng, field, m)
        assert f.nrows == n
        image_f = Subspace.full(field, n).image(f)
        assert a.image(f).preimage(f).contains(a)
        assert b.preimage(f).image(f) == b.intersect(image_f)


def test_rref_idempotent():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(1, 5)
        w = rand_subspace(rng, QQ, n)
        again = Subspace.from_rows(QQ, n, w.mat.rows)
        assert again == w


def test_exactness_no_floats():
    """Every result holds canonical entries: a Fraction over Q, an int in
    [0, p) over F_p, also where no coercion runs."""
    from posetrep.poset import Poset
    from posetrep.sspace import SSpace, hom_space

    point = Poset.build(["x"], [])
    for field in (QQ, F2, F5):
        w = Subspace.from_rows(field, 3, [[1, 2, 3], [4, 5, 6]])
        u = Subspace.from_rows(field, 3, [[1, 1, 0], [0, 0, 1]])
        m = Matrix(field, [[1, 2, 0], [0, 3, 1], [2, 0, 1]])
        sq = Matrix(field, [[1, 1], [0, 1]])
        hom = hom_space(*(SSpace(point, field, 3, {"x": s}) for s in (w, u)))
        assert hom.dim == 7
        results = [hom.combination(range(-3, 4)), hom.combination([0] * 7),
                   w.mat, m * m, m.transpose(), m.null_rows(),
                   Matrix(field, [[1, 1, 1], [2, 2, 2]]).null_rows(), sq.inverse(),
                   Matrix.identity(field, 3), Matrix.zeros(field, 2, 3),
                   vstack(w.mat, u.mat), w.intersect(u).mat, w.plus(u).mat,
                   w.preimage(m).mat, w.image(m).mat, w.annihilator().mat,
                   w.express_rows(w.intersect(u).mat), w.complement(),
                   w.complement_within(w.intersect(u)), w.quotient_map()]
        for out in results:
            assert_canonical(field, out)


def test_quotient_map_contract():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randrange(0, 5)
        u = rand_subspace(rng, QQ, n)
        q, lift = u.quotient_map(), u.complement()
        d = n - u.dim
        assert q.nrows == n and q.ncols == d
        assert lift * q == Matrix.identity(QQ, d)
        if u.dim:
            assert (u.mat * q).is_zero()
        w = rand_subspace(rng, QQ, n)
        assert w.image(q) == w.plus(u).image(q)


def test_complement_within():
    w = Subspace.full(QQ, 3)
    u = Subspace.from_rows(QQ, 3, [[1, 1, 0]])
    ext = w.complement_within(u)
    assert ext.nrows == 2
    assert Subspace.from_rows(QQ, 3, list(u.mat.rows) + list(ext.rows)) == w


def test_field_and_dimension_errors():
    a = Subspace.from_rows(QQ, 2, [[1, 0]])
    b = Subspace.from_rows(F5, 2, [[1, 0]])
    with pytest.raises(FieldMismatch):
        a.plus(b)
    c = Subspace.from_rows(QQ, 3, [[1, 0, 0]])
    with pytest.raises(DimensionMismatch):
        a.intersect(c)
    # n-ary forms check every operand before a 0 or full operand decides
    zero, full = Subspace.zero(QQ, 2), Subspace.full(QQ, 2)
    for op in ("plus", "intersect"):
        for first in (zero, full, a):
            for early in (zero, full):
                with pytest.raises(FieldMismatch):
                    getattr(first, op)(early, b)
                with pytest.raises(DimensionMismatch):
                    getattr(first, op)(early, c)


def test_vstack_and_null_rows_edges():
    m = Matrix(QQ, [], 3)
    assert m.null_rows().nrows == 0
    wide = Matrix(QQ, [[0, 0, 0]], 3)
    assert wide.null_rows().nrows == 1
    tall = vstack(Matrix.identity(QQ, 2), Matrix(QQ, [[1, 1]], 2))
    assert tall.null_rows().nrows == 1


# kept echelon data -------------------------------------------------------------


def scanned_pivots(s):
    """The pivot column of each basis row and the other columns, read off
    the rows of `mat` alone."""
    leads = tuple(next(i for i, x in enumerate(r) if x) for r in s.mat.rows)
    return leads, tuple(j for j in range(s.ambient) if j not in leads)


def kept_subspaces(rng, field, n):
    """Subspaces of k^n made by every operation that hands its pivots over
    or keeps them, 0 and k^n among them."""
    u, w = rand_subspace(rng, field, n), rand_subspace(rng, field, n)
    m = Matrix(field, random_rows(rng, field, n, n), n)
    out = [u, w, Subspace.zero(field, n), Subspace.full(field, n), u.plus(w),
           u.intersect(w), u.annihilator(), u.image(m), u.preimage(m),
           Subspace(field, n, u.mat)]
    cons = [{k: x for k, x in enumerate(r) if x} for r in random_rows(rng, field, 2, n)]
    out.append(solution_space(field, n, cons))
    out.append(Subspace.from_rows(field, n, u.complement_within(w.intersect(u)).rows))
    return out


@pytest.mark.parametrize("field", [QQ, F2, F5, F65521], ids=repr)
def test_kept_pivots_and_quotient_map_match_the_rows(field):
    """The pivots a subspace keeps, handed over by an elimination or read
    once, and its kept quotient map are those recomputed from `mat`; a
    second read returns the same objects."""
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randrange(0, 6)
        for s in kept_subspaces(rng, field, n):
            assert s._pivots() == scanned_pivots(s)
            q = s.quotient_map()
            assert q == Subspace(field, s.ambient, s.mat).quotient_map()
            assert s.quotient_map() is q and s._pivots()[0] is s._pivots()[0]
            assert q.nrows == s.ambient and q.ncols == s.ambient - s.dim
            assert (s.mat * q).is_zero() and s.complement() * q == Matrix.identity(field, q.ncols)


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=repr)
def test_image_test_by_rows_agrees_with_contains_of_the_image(field):
    """Reducing each row of sub.mat * m against the target answers what
    contains(sub.image(m)) answers, both ways."""
    rng = random.Random(67)
    seen = set()
    for _ in range(150):
        n, k = rng.randrange(0, 5), rng.randrange(0, 5)
        sub = rand_subspace(rng, field, n)
        m = Matrix(field, random_rows(rng, field, n, k), k)
        target = rand_subspace(rng, field, k)
        if rng.random() < 0.5:
            target = target.plus(sub.image(m))
        want = target.contains(sub.image(m))
        assert target._holds_image(sub, m) is want
        seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=repr)
def test_shared_zero_and_full_equal_fresh_ones(field):
    """Subspace.zero and Subspace.full return one object per (field, n),
    also for another Field object of the same p, equal to a subspace
    built afresh, with the same echelon data."""
    for n in range(6):
        zero, full = Subspace.zero(field, n), Subspace.full(field, n)
        same = Field(field.p)
        assert Subspace.zero(same, n) is zero and Subspace.full(same, n) is full
        fresh_zero = Subspace.from_rows(field, n, [])
        fresh_full = Subspace.from_rows(field, n, [[int(i == j) for j in range(n)]
                                                   for i in range(n)])
        assert zero == fresh_zero and hash(zero) == hash(fresh_zero)
        assert full == fresh_full and hash(full) == hash(fresh_full)
        assert zero._pivots() == fresh_zero._pivots() == ((), tuple(range(n)))
        assert full._pivots() == fresh_full._pivots() == (tuple(range(n)), ())
        assert zero.quotient_map() == Matrix.identity(field, n)
        assert full.quotient_map() == Matrix._of(field, ((),) * n, 0)
        assert zero.is_zero() and full.is_full()
