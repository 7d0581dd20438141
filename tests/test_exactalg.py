import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quotbilin import exactalg
from quotbilin.exactalg.count import _integer_root
from quotbilin.exactalg.field import _is_prime
from quotbilin.exactalg import (
    GF,
    QQ,
    AffineFamily,
    FieldError,
    Matrix,
    ShapeError,
    UniPoly,
    char_poly,
    gaussian_binomial,
    is_prime_power,
    matrix_from_json,
    matrix_to_json,
    parse_field,
    rand_matrix,
    rank_and_kernel,
    rational_roots,
    solve,
)

F5 = GF(5)


def mat(field, rows):
    return Matrix.from_int_rows(field, rows)


def test_every_exported_name_resolves():
    missing = [name for name in exactalg.__all__ if not hasattr(exactalg, name)]
    assert missing == []


# -- fields -------------------------------------------------------------------

def test_prime_field_inverse():
    for a in range(1, 5):
        assert F5.mul(a, F5.inv(a)) == 1


def test_prime_field_rejects_composite():
    with pytest.raises(FieldError):
        GF(6)


def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if trial_division_is_prime(n)]


@pytest.mark.parametrize("n", [561, 41041, 2047, 3215031751])
def test_carmichael_numbers_and_strong_pseudoprimes_are_rejected(n):
    with pytest.raises(FieldError, match="not prime"):
        GF(n)


def test_a_20_digit_prime_is_accepted_in_bounded_time():
    start = time.perf_counter()
    assert parse_field("F:10000000000000000051").characteristic == 10 ** 19 + 51
    assert time.perf_counter() - start < 1.0


def test_moduli_past_the_miller_rabin_bound_are_refused():
    from quotbilin.exactalg.field import _MR_BOUND
    with pytest.raises(FieldError, match="too large"):
        parse_field(f"F:{2 ** 89 - 1}")      # a Mersenne prime, 27 digits
    with pytest.raises(FieldError, match="too large"):
        GF(_MR_BOUND)                        # composite, a strong pseudoprime to bases 2..41
    assert GF(_MR_BOUND - 168).characteristic == _MR_BOUND - 168   # the largest prime below
    with pytest.raises(FieldError, match="not prime"):
        GF(_MR_BOUND - 2)


def test_parse_field_specs():
    assert parse_field("Q") is QQ
    assert parse_field("F:7").characteristic == 7
    with pytest.raises(FieldError):
        parse_field("R")


@pytest.mark.parametrize("spec", [None, 3, 2.5, True, ["F:3"], {"p": 3}], ids=repr)
def test_parse_field_refuses_a_spec_that_is_not_a_string(spec):
    with pytest.raises(FieldError, match="must be a string"):
        parse_field(spec)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


# -- rank and kernel ------------------------------------------------------------

def test_rank_kernel_identity():
    rank, kernel = rank_and_kernel(Matrix.identity(QQ, 3))
    assert rank == 3 and kernel == []


def test_rank_kernel_zero_map():
    rank, kernel = rank_and_kernel(Matrix.zeros(QQ, 2, 4))
    assert rank == 0 and len(kernel) == 4


def test_rank_kernel_proportional_rows():
    rank, kernel = rank_and_kernel(mat(QQ, [[1, 2], [2, 4]]))
    assert rank == 1
    assert len(kernel) == 1
    v = kernel[0]
    # spanned by (-2, 1)
    assert v[0] * 1 == -2 * v[1]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.integers(2, 4))
def test_rank_nullity_and_membership_f5(seed, rows, cols):
    rng = random.Random(seed)
    m = Matrix(F5, rows, cols, [rng.randrange(5) for _ in range(rows * cols)])
    rank, kernel = rank_and_kernel(m)
    assert rank + len(kernel) == cols
    for v in kernel:
        assert all(x == 0 for x in m.matvec(list(v)))


def test_solve_identity_passthrough():
    b = mat(QQ, [[1, 2], [3, 4]])
    assert solve(Matrix.identity(QQ, 2), b) == b


def test_solve_zero_inconsistent():
    assert solve(Matrix.zeros(QQ, 2, 2), mat(QQ, [[1], [0]])) is None


def test_solve_scalar_division():
    x = solve(mat(QQ, [[2]]), mat(QQ, [[3]]))
    assert x == Matrix(QQ, 1, 1, [Fraction(3, 2)])


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 4), st.integers(1, 2))
def test_solve_exact_or_certified(seed, rows, cols, bcols):
    rng = random.Random(seed)
    a = Matrix(F5, rows, cols, [rng.randrange(5) for _ in range(rows * cols)])
    b = Matrix(F5, rows, bcols, [rng.randrange(5) for _ in range(rows * bcols)])
    x = solve(a, b)
    if x is not None:
        assert a * x == b
    else:
        aug = a.hstack(b)
        assert aug.rank() > a.rank()


# -- matrix products ---------------------------------------------------------------

def matvec_scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 5]))
    # unreduced representatives in [-2p, 3p)
    return st.integers(-2 * field.p, 3 * field.p - 1)


def reference_matvec(m, v):
    f = m.field
    out = []
    for i in range(m.rows):
        acc = f.zero()
        for j in range(m.cols):
            acc = f.add(acc, f.mul(m[i, j], v[j]))
        out.append(acc)
    return out


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([QQ, GF(2), GF(101)]), st.integers(0, 6), st.integers(0, 6), st.data())
def test_matvec_matches_per_entry_reference(field, rows, cols, data):
    entries = data.draw(st.lists(matvec_scalars(field), min_size=rows * cols,
                                 max_size=rows * cols))
    v = data.draw(st.lists(matvec_scalars(field), min_size=cols, max_size=cols))
    m = Matrix(field, rows, cols, entries)
    got, want = m.matvec(v), reference_matvec(m, v)
    assert len(got) == rows  # a zero-width matrix gives a zero vector
    assert got == want and [type(x) for x in got] == [type(x) for x in want]


def reference_matmul(a, b):
    """The per-entry product loop: one Field add and mul per term, skipping
    zero entries of a."""
    f = a.field
    n, m, k = a.rows, a.cols, b.cols
    out = [f.zero()] * (n * k)
    for i in range(n):
        for s in range(m):
            x = a.entries[i * m + s]
            if f.is_zero(x):
                continue
            for j in range(k):
                out[i * k + j] = f.add(out[i * k + j], f.mul(x, b.entries[s * k + j]))
    return Matrix(f, n, k, out)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([QQ, GF(2), GF(3), GF(101)]),
       st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_matmul_matches_per_entry_reference(field, n, m, k, data):
    # shapes include 0 x m, n x 0 and an empty inner dimension; over F_p the
    # entries are unreduced, negative or at least p
    def draw(rows, cols):
        return Matrix(field, rows, cols, data.draw(
            st.lists(matvec_scalars(field), min_size=rows * cols, max_size=rows * cols)))

    a, b = draw(n, m), draw(m, k)
    got, want = a * b, reference_matmul(a, b)
    assert (got.rows, got.cols) == (n, k)
    # entries are compared raw: over F_p both give canonical residues, so
    # key() and hashing see the same matrix
    assert got.entries == want.entries
    assert [type(x) for x in got.entries] == [type(x) for x in want.entries]


def reference_kron(a, b):
    """The per-entry Kronecker product: one Field mul per entry, the block of
    a zero entry of a left zero."""
    f = a.field
    r1, c1, r2, c2 = a.rows, a.cols, b.rows, b.cols
    out = [f.zero()] * (r1 * r2 * c1 * c2)
    for i in range(r1):
        for j in range(c1):
            x = a.entries[i * c1 + j]
            if f.is_zero(x):
                continue
            for p in range(r2):
                for q in range(c2):
                    out[(i * r2 + p) * (c1 * c2) + j * c2 + q] = f.mul(x, b.entries[p * c2 + q])
    return Matrix(f, r1 * r2, c1 * c2, out)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([QQ, GF(2), GF(101)]),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_kron_matches_per_entry_reference(field, r1, c1, r2, c2, data):
    # over Q with denominators, over F_p with unreduced entries
    def draw(rows, cols):
        return Matrix(field, rows, cols, data.draw(
            st.lists(matvec_scalars(field), min_size=rows * cols, max_size=rows * cols)))

    a, b = draw(r1, c1), draw(r2, c2)
    got, want = a.kron(b), reference_kron(a, b)
    assert (got.rows, got.cols) == (r1 * r2, c1 * c2)
    assert got.entries == want.entries
    assert [type(x) for x in got.entries] == [type(x) for x in want.entries]


def reference_entrywise(a, b, c):
    """a + b, a - b, -a and c * a by one Field call per entry."""
    f = a.field
    return [[op(x, y) for x, y in zip(a.entries, b.entries)] for op in (f.add, f.sub)] + [
        [f.neg(x) for x in a.entries], [f.mul(c, x) for x in a.entries]]


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([QQ, GF(2), GF(3), GF(101)]), st.integers(0, 4), st.integers(0, 4),
       st.data())
def test_entrywise_ops_match_per_entry_reference(field, rows, cols, data):
    # over F_p the operands are unreduced; the results are canonical residues
    def draw(n):
        return data.draw(st.lists(matvec_scalars(field), min_size=n, max_size=n))

    a, b = (Matrix(field, rows, cols, draw(rows * cols)) for _ in range(2))
    c = draw(1)[0]
    got = [m.entries for m in (a + b, a - b, -a, a.scale(c))]
    want = reference_entrywise(a, b, c)
    if field.characteristic:
        want = [[x % field.p for x in w] for w in want]
        assert all(0 <= x < field.p for g in got for x in g)
    assert got == want
    assert [[type(x) for x in g] for g in got] == [[type(x) for x in w] for w in want]
    assert a.is_zero() == all(field.is_zero(x) for x in a.entries)
    for j in range(cols):
        assert a.col(j) == tuple(a[i, j] for i in range(rows))


def test_noncanonical_fp_entries_equal_and_hash_as_their_residues():
    F3 = GF(3)
    raw = Matrix(F3, 2, 3, [3, 4, -1, 5, -6, 7])
    canon = Matrix(F3, 2, 3, [0, 1, 2, 2, 0, 1])
    assert raw == canon and canon == raw and hash(raw) == hash(canon)
    assert len({raw, canon}) == 1 and raw.key() != canon.key()
    assert raw != Matrix(F3, 2, 3, [0, 1, 2, 2, 0, 2])
    assert Matrix(F3, 2, 2, [3, -3, 0, 9]).is_zero()
    assert not Matrix(F3, 2, 2, [3, -3, 0, 10]).is_zero()
    assert (raw + canon).entries == [0, 2, 1, 1, 0, 2]
    assert (raw - canon).entries == [0] * 6
    assert (-raw).entries == [0, 2, 1, 1, 0, 2]
    assert raw.scale(-2).entries == canon.entries
    assert raw.scale(4).entries == canon.entries


def test_matrix_copies_the_callers_entries_and_results_own_theirs():
    # the constructor, from_rows and column copy what the caller passes;
    # the arithmetic methods hand over lists they built, shared with no operand
    F5 = GF(5)
    entries, rows, values = [1, 2, 3, 4], [[1, 2], [3, 4]], [1, 2]
    m = Matrix(F5, 2, 2, entries)
    r = Matrix.from_rows(F5, rows)
    c = Matrix.column(F5, values)
    entries[0] = rows[0][0] = values[0] = 0
    assert m.entries == r.entries == [1, 2, 3, 4]
    assert c.entries == [1, 2]
    results = [m + m, m - m, -m, m.scale(2), m * m, m.transpose(), m.kron(m), m.hstack(m),
               m.rref()[0], m.inverse(), Matrix.identity(F5, 2), Matrix.zeros(F5, 2, 2)]
    for res in results:
        res.entries[0] = 7
    assert m.entries == [1, 2, 3, 4]
    assert Matrix.identity(F5, 2).entries == [1, 0, 0, 1]
    with pytest.raises(ShapeError, match="needs 4 entries, got 3"):
        Matrix(F5, 2, 2, [1, 2, 3])
    with pytest.raises(ShapeError, match="negative dimensions"):
        Matrix.zeros(F5, -1, 0)


# -- gaussian binomials ------------------------------------------------------------

def test_gaussian_binomial_values():
    assert gaussian_binomial(1, 2, 2) == 3
    assert gaussian_binomial(2, 2, 2) == 1
    assert gaussian_binomial(3, 3, 5) == 1
    assert gaussian_binomial(2, 4, 2) == 35


def test_gaussian_binomial_rejects_bad_args():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 2, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(1, 2, 6)


def trial_division_is_prime_power(q):
    """The trial division up to sqrt(q) that ``is_prime_power`` replaced."""
    if q < 2:
        return False
    n, p = q, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True


def test_is_prime_power_agrees_with_trial_division_below_1e5():
    assert [q for q in range(-3, 10 ** 5) if is_prime_power(q)] == \
        [q for q in range(-3, 10 ** 5) if trial_division_is_prime_power(q)]


def test_integer_root_brackets_the_real_root():
    for q in list(range(1, 3000)) + [3 ** 40 - 1, 3 ** 40, 3 ** 40 + 1, 10 ** 60 + 7]:
        for k in range(2, 12):
            r = _integer_root(q, k)
            assert r ** k <= q < (r + 1) ** k


def first_prime_from(n):
    while not _is_prime(n):
        n += 1
    return n


@pytest.mark.parametrize("q", [10 ** 14 + 31, first_prime_from(10 ** 19)],
                         ids=["1e14+31", "20-digit"])
def test_gaussian_binomial_at_a_large_prime_is_fast(q):
    t0 = time.perf_counter()
    assert gaussian_binomial(1, 2, q) == q + 1
    assert time.perf_counter() - t0 < 1.0


def test_large_prime_powers_and_semiprimes():
    big = first_prime_from(10 ** 9)
    t0 = time.perf_counter()
    assert is_prime_power(3 ** 40) and is_prime_power(2 ** 200) and is_prime_power(big ** 2)
    assert not is_prime_power(big * first_prime_from(big + 1))
    assert not is_prime_power(6 ** 20) and not is_prime_power(2 ** 10 * 3)
    assert time.perf_counter() - t0 < 1.0
    assert gaussian_binomial(1, 2, 3 ** 40) == 3 ** 40 + 1


def _count_subspaces_bruteforce(d, r, q):
    import itertools
    field = GF(q)
    seen = set()
    for ents in itertools.product(range(q), repeat=d * r):
        m = Matrix(field, d, r, list(ents))
        rref, piv = m.rref()
        if len(piv) == d:
            seen.add(tuple(rref.entries))
    return len(seen)


@pytest.mark.parametrize("q", [2, 3])
def test_gaussian_binomial_matches_enumeration(q):
    for r in range(1, 4):
        for d in range(1, r + 1):
            assert gaussian_binomial(d, r, q) == _count_subspaces_bruteforce(d, r, q)


# -- affine families ------------------------------------------------------------------

def test_affine_family_evaluate_diag():
    zero = Matrix.zeros(QQ, 2, 2)
    linear = Matrix.from_int_rows(QQ, [[0, 0], [0, 1]])
    fam = AffineFamily(zero, linear)
    assert fam.evaluate(QQ.zero()) == zero
    at1 = fam.evaluate(QQ.one())
    assert at1 == Matrix.from_int_rows(QQ, [[0, 0], [0, 1]])


def test_affine_family_rejects_base_and_slope_of_different_shape_or_field():
    from quotbilin.tensorlab import Tensor3
    m22 = Matrix.zeros(QQ, 2, 2)
    t222 = Tensor3.zeros(QQ, (2, 2, 2))
    for base, slope in ((m22, Matrix.zeros(QQ, 2, 3)), (m22, Matrix.zeros(QQ, 4, 1)),
                        (t222, Tensor3.zeros(QQ, (2, 2, 1))), (t222, Tensor3.zeros(QQ, (1, 4, 2))),
                        (Matrix.zeros(QQ, 4, 2), t222), (t222, Matrix.zeros(QQ, 4, 2))):
        with pytest.raises(ShapeError):
            AffineFamily(base, slope)
    for base, slope in ((m22, Matrix.zeros(F5, 2, 2)), (t222, Tensor3.zeros(F5, (2, 2, 2)))):
        with pytest.raises(FieldError):
            AffineFamily(base, slope)


# -- serialization ------------------------------------------------------------------

def test_matrix_json_round_trip_q():
    m = Matrix(QQ, 2, 2, [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 3)])
    obj = matrix_to_json(m)
    assert obj["field"] == "Q"
    assert obj["entries"][0] == "1/2"
    assert matrix_from_json(obj) == m


def test_matrix_json_round_trip_f5():
    m = Matrix(F5, 1, 3, [0, 3, 4])
    obj = matrix_to_json(m)
    assert obj["field"] == "F:5"
    assert matrix_from_json(obj) == m


def test_matrix_json_malformed():
    with pytest.raises(FieldError):
        matrix_from_json({"field": "Q", "rows": 1, "cols": 1})


@pytest.mark.parametrize("field, entry", [
    ("F:5", 2.7), ("F:5", True), ("F:5", False), ("F:5", -0.5), ("F:5", None), ("F:5", [1]),
    ("F:5", "2.7"), ("F:101", "1/2"),
    ("Q", True), ("Q", False), ("Q", "5/0"), ("Q", "-3/0"), ("Q", "0/0"), ("Q", None),
], ids=repr)
def test_matrix_json_refuses_entries_the_field_cannot_read(field, entry):
    # int() would truncate 2.7 and read true as 1; Fraction would read true
    # as 1 and raise ZeroDivisionError on a zero denominator.
    with pytest.raises(FieldError, match="malformed matrix JSON"):
        matrix_from_json({"field": field, "rows": 1, "cols": 2, "entries": [entry, "1"]})


def test_matrix_json_reads_integral_numbers_and_exact_rationals():
    f5 = matrix_from_json({"field": "F:5", "rows": 1, "cols": 4, "entries": [7, 7.0, "7", -1]})
    assert f5.entries == [2, 2, 2, 4]
    q = matrix_from_json({"field": "Q", "rows": 1, "cols": 4, "entries": [2.5, 2.0, "6/4", 3]})
    assert [(type(x), x) for x in q.entries] == [
        (Fraction, Fraction(5, 2)), (int, 2), (Fraction, Fraction(3, 2)), (int, 3)]


def test_mixed_field_rejected():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(F5, 2)
    with pytest.raises(FieldError):
        a * b


def test_values_over_different_fields_are_unequal():
    a, b = Matrix.identity(QQ, 2), Matrix.identity(F5, 2)
    assert a != b and not a == b
    assert a not in [b] and len({a, b}) == 2
    assert UniPoly(QQ, [1, 1]) != UniPoly(F5, [1, 1])
    assert len({UniPoly(QQ, [1, 1]), UniPoly(F5, [1, 1])}) == 2


def test_equal_matrices_hash_equal():
    # 7 and 2 are the same element of GF(5)
    a, b = Matrix(F5, 1, 1, [7]), Matrix(F5, 1, 1, [2])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(Matrix(QQ, 1, 2, [Fraction(2), Fraction(1, 3)])) == \
        hash(Matrix(QQ, 1, 2, [2, Fraction(2, 6)]))


def test_equal_polynomials_hash_equal():
    # 7 and 2 are the same element of GF(5)
    a, b = UniPoly(F5, [7, 1]), UniPoly(F5, [2, 1])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# -- characteristic polynomial ---------------------------------------------------

def cofactor_determinant(rows: list[list[UniPoly]], field) -> UniPoly:
    """Cofactor expansion along the first row, O(d!); the reference for
    char_poly, which it computed before Berkowitz's algorithm."""
    n = len(rows)

    def det(rows_idx, cols_idx):
        if len(rows_idx) == 1:
            return rows[rows_idx[0]][cols_idx[0]]
        acc = UniPoly.zero(field)
        i = rows_idx[0]
        sign = 1
        for pos, j in enumerate(cols_idx):
            a = rows[i][j]
            if not a.is_zero():
                sub = det(rows_idx[1:], cols_idx[:pos] + cols_idx[pos + 1:])
                term = a * sub
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        return acc

    if n == 0:
        return UniPoly.const(field, field.one())
    return det(tuple(range(n)), tuple(range(n)))


def cofactor_char_poly(m: Matrix) -> UniPoly:
    f = m.field
    x = UniPoly.x(f)
    rows = [[UniPoly.const(f, f.neg(m[i, j])) + (x if i == j else UniPoly.zero(f))
             for j in range(m.cols)] for i in range(m.rows)]
    return cofactor_determinant(rows, f)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=lambda f: f.name)
def test_char_poly_matches_cofactor_expansion(field):
    rng = random.Random(7)
    for d in range(8):
        for _ in range(3 if d < 7 else 1):
            m = rand_matrix(rng, field, d, d)
            # zero some entries so that sparse and reducible shapes occur
            m = Matrix(field, d, d, [x if rng.random() < 0.7 else field.zero()
                                     for x in m.entries])
            assert char_poly(m) == cofactor_char_poly(m)


def test_char_poly_of_companion_and_scalar_matrices():
    # the companion matrix of x^3 - 2x + 5 over Q
    comp = mat(QQ, [[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(comp) == UniPoly.from_ints(QQ, [5, -2, 0, 1])
    assert char_poly(Matrix.identity(F5, 4).scale(2)) == UniPoly.from_ints(F5, [16, -32, 24, -8, 1])
    assert char_poly(Matrix.zeros(QQ, 0, 0)) == UniPoly.from_ints(QQ, [1])


def test_char_poly_at_d12_is_fast():
    rng = random.Random(12)
    m = rand_matrix(rng, QQ, 12, 12)
    t0 = time.perf_counter()
    cp = char_poly(m)
    assert time.perf_counter() - t0 < 1.0
    assert cp.degree == 12 and QQ.eq(cp.lead(), QQ.one())
    # minus the trace is the x^11 coefficient
    assert QQ.eq(cp.coeff(11), QQ.neg(sum(m[i, i] for i in range(12))))


def test_rational_roots_clear_mixed_denominators():
    # x (x - 1/2)(x - 3/4) * 2/3 = 2x^3/3 - 5x^2/6 + x/4: clearing needs
    # lcm(3, 6, 4) = 12, and the largest denominator alone misses 3/4
    p = UniPoly(QQ, [Fraction(0), Fraction(1, 4), Fraction(-5, 6), Fraction(2, 3)])
    assert sorted(rational_roots(p)) == [Fraction(0), Fraction(1, 2), Fraction(3, 4)]
    assert rational_roots(UniPoly.from_ints(QQ, [1, 0, 1])) == []
