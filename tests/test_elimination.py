"""``Matrix.rref``/``Matrix.rank`` against a textbook elimination loop, and
the packed F_p elimination and the sparse elimination against the list one.

The library eliminates on plain ints (primitive integer rows over Q, entries
reduced mod p over F_p); the reference, ``helpers_echelon.reference_rref``,
is the straightforward loop through the ``Field`` interface, one method
call per entry.  The reduced row
echelon form is unique, so both must give the same matrix and pivots.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quotbilin.bilin import bilin_tangent, main_component_point
from quotbilin.exactalg import CERTIFICATE_PRIME, GF, QQ, Matrix, rand_invertible
from quotbilin.exactalg import matrix
from quotbilin.exactalg.matrix import (
    _PACKED_MIN_CELLS, _PACKED_MIN_ROW_NONZEROS, _SPARSE_MAX_ROW_NONZEROS, _eliminate_lists,
    _eliminate_packed, _eliminate_sparse, _slot_words,
)
from quotbilin.tensorlab import _tangent_rows

from helpers_echelon import is_canonical_rational, reference_rref

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(101)]


def entries(field):
    if field is QQ:
        # non-integer, negative, and with denominators up to 10^12
        return st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                         st.sampled_from([1, 1, 2, 3, 7, 10 ** 6 + 3, 10 ** 12 + 39]))
    # unreduced representatives too, such as 7 in GF(5)
    return st.integers(-3 * field.p, 3 * field.p)


@st.composite
def matrices(draw):
    """Matrices of up to 6x7 (including 0xn and nx0) whose rows are fresh,
    zero, repeated, or combinations of earlier rows, so many are
    rank-deficient."""
    field = draw(st.sampled_from(FIELDS))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    elem = entries(field)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "combination"]))
        if kind == "zero":
            rows.append([field.zero()] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(elem), draw(elem)
            rows.append([field.add(field.mul(s, x), field.mul(t, y)) for x, y in zip(a, b)])
        else:
            rows.append([draw(elem) for _ in range(ncols)])
    return Matrix(field, nrows, ncols, [x for row in rows for x in row])


def check_against_reference(m):
    f = m.field
    r, pivots = m.rref()
    want, want_pivots = reference_rref(m)
    assert pivots == want_pivots
    assert (r.rows, r.cols) == (m.rows, m.cols)
    assert r.entries == want
    assert m.rank() == len(pivots)
    if f is QQ:
        assert all(is_canonical_rational(x) for x in r.entries)
    else:
        assert all(0 <= x < f.p for x in r.entries)


@settings(deadline=None, max_examples=300)
@given(matrices())
def test_rref_and_rank_match_reference_loop(m):
    check_against_reference(m)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 5), (5, 3)])
def test_degenerate_shapes_and_zero_matrices(field, shape):
    rows, cols = shape
    zero = Matrix.zeros(field, rows, cols)
    check_against_reference(zero)
    assert zero.rank() == 0
    assert zero.rref() == (zero, ())


def test_unreduced_entries_over_gf5():
    f = GF(5)
    m = Matrix(f, 2, 3, [7, 10, -3, 14, 20, -6])  # row 2 is 2 * row 1
    check_against_reference(m)
    r, pivots = m.rref()
    assert pivots == (0,) and m.rank() == 1
    assert r.entries == [1, 0, 1, 0, 0, 0]


# Up to 60 x 70 (m < 64), the slots are one 16-bit word for p = 2, one 32-bit
# word for p = 101, one 64-bit word for CERTIFICATE_PRIME, and two and three
# 64-bit words for 2^31 - 1 and 2^61 - 1.
PRIMES = [2, 3, 101, CERTIFICATE_PRIME, 2 ** 31 - 1, 2 ** 61 - 1]


@st.composite
def int_systems(draw):
    """Int rows over F_p of up to 60 x 70, on both sides of the packed-path
    threshold, with negative and unreduced entries and zero, repeated and
    dependent rows."""
    p = draw(st.sampled_from(PRIMES))
    nrows, ncols = draw(st.sampled_from([(0, 5), (5, 0), (3, 4), (12, 30), (20, 20),
                                         (24, 17), (40, 64), (60, 70), (70, 60)]))
    elem = st.integers(-3 * p, 3 * p)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(elem), draw(elem)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(elem, min_size=ncols, max_size=ncols)))
    return p, rows, ncols


@settings(deadline=None, max_examples=120)
@given(int_systems(), st.booleans())
def test_packed_and_list_elimination_agree(system, reduced):
    p, rows, ncols = system
    want = _eliminate_lists(GF(p), [list(r) for r in rows], ncols, reduced)
    assert _eliminate_packed(p, [list(r) for r in rows], ncols, reduced) == want


@st.composite
def sparse_systems(draw):
    """Rows over Q (integer rows with non-unit pivots, and Fraction rows) or
    over F_2, F_3, F_101 and CERTIFICATE_PRIME (negative and unreduced
    entries) of up to 40 x 48, including 0-row and 0-column shapes.  Each
    fresh row has up to ``per_row`` nonzero entries, so the average number
    per row lies on both sides of _SPARSE_MAX_ROW_NONZEROS; other rows are
    zero, repeated or combinations of earlier rows."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(101), GF(CERTIFICATE_PRIME)]))
    nrows, ncols = draw(st.sampled_from([(0, 6), (6, 0), (3, 4), (12, 30), (24, 17),
                                         (30, 30), (40, 48)]))
    per_row = draw(st.integers(1, 2 * _SPARSE_MAX_ROW_NONZEROS))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    p = field.characteristic

    def entry(fractions):
        if p:
            return rng.randint(-3 * p, 3 * p)
        x = rng.choice([-1, 1]) * rng.randint(1, 12)
        return Fraction(x, rng.choice([1, 2, 3, 7])) if fractions else x

    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(rng.choice(rows)))
        elif kind == "combination" and len(rows) >= 2:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = entry(False), entry(False)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            row = [0] * ncols
            fractions = rng.random() < 0.3
            for j in rng.sample(range(ncols), min(ncols, rng.randint(1, per_row))):
                row[j] = entry(fractions)
            rows.append(row)
    return field, rows, ncols


@settings(deadline=None, max_examples=200)
@given(sparse_systems(), st.booleans())
def test_sparse_and_list_elimination_agree(system, reduced):
    field, rows, ncols = system
    want = _eliminate_lists(field, [list(r) for r in rows], ncols, reduced)
    assert _eliminate_sparse(field, [list(r) for r in rows], ncols, reduced) == want


@pytest.mark.parametrize("p, m, words", [
    (2, 7, ("B", 1)), (2, 60, ("H", 1)), (101, 60, ("I", 1)), (101, 2 ** 17 - 1, ("I", 1)),
    (CERTIFICATE_PRIME, 60, ("Q", 1)), (CERTIFICATE_PRIME, 2 ** 15 - 1, ("Q", 1)),
    (CERTIFICATE_PRIME, 2 ** 15, ("Q", 2)), (2 ** 31 - 1, 60, ("Q", 2)),
    (2 ** 61 - 1, 60, ("Q", 3)),
])
def test_slot_words(p, m, words):
    assert _slot_words(p, m) == words


def test_terracini_rows_take_one_64_bit_word_per_slot():
    # The largest secant rung, (d, r) = (9, 13): 13 points of 3d - 2 rows each.
    d, r = 9, 13
    rows = [row for s in range(r) for row in _tangent_rows(*[[s + t + 1] * d for t in range(3)])]
    assert (len(rows), len(rows[0])) == (r * (3 * d - 2), d ** 3)
    assert _slot_words(CERTIFICATE_PRIME, min(len(rows), d ** 3)) == ("Q", 1)


def test_eliminate_selects_the_packed_path_by_size(monkeypatch):
    sizes = []
    real = matrix._eliminate_packed

    def spy(p, rows, ncols, reduced):
        sizes.append((p, len(rows), ncols))
        return real(p, rows, ncols, reduced)

    monkeypatch.setattr(matrix, "_eliminate_packed", spy)
    n = _PACKED_MIN_CELLS // 20
    for field in (GF(101), QQ):
        for rows in (n, n + 1):
            m = Matrix(field, rows, 20, [(i * 7 + 3) % 11 for i in range(rows * 20)])
            m.rank()
            m.rref()
    # Above the size threshold, a system with at most _PACKED_MIN_ROW_NONZEROS
    # nonzero entries per row stays on lists.
    k = _PACKED_MIN_ROW_NONZEROS
    for nonzeros in (k, k + 1):
        Matrix(GF(101), 30, 30, [int(j < nonzeros) for i in range(30) for j in range(30)]).rank()
    assert sizes == [(101, n + 1, 20)] * 2 + [(101, 30, 30)]


def test_eliminate_selects_the_sparse_path_by_density(monkeypatch):
    paths = []
    for name in ("_eliminate_sparse", "_eliminate_packed"):
        def spy(first, rows, ncols, reduced, real=getattr(matrix, name), name=name):
            paths.append((name, len(rows), ncols))
            return real(first, rows, ncols, reduced)
        monkeypatch.setattr(matrix, name, spy)
    # The first-order system of a main-component pairing point at d = 4,
    # 128 x 144 with about 1.25 nonzero entries per row.
    rng = random.Random(0)
    points = [QQ.from_int(v) for v in rng.sample(range(-9, 10), 4)]
    bilin_tangent(main_component_point(points, rand_invertible(rng, QQ, 4),
                                       rand_invertible(rng, QQ, 4)))
    assert ("_eliminate_sparse", 128, 144) in paths
    paths.clear()
    # A census-size system (24 x 16 = 384 entries) stays on lists however sparse.
    Matrix(GF(3), 24, 16, [int(i == j) for i in range(24) for j in range(16)]).rank()
    assert paths == []
    # A dense F_101 system still runs on packed rows.
    Matrix(GF(101), 30, 30, [(i * 7 + 3) % 11 for i in range(900)]).rank()
    assert paths == [("_eliminate_packed", 30, 30)]
