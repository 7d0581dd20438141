"""``Matrix.rref``/``Matrix.rank`` against a textbook elimination loop.

The library eliminates on plain ints (primitive integer rows over Q, entries
reduced mod p over F_p); the reference, ``helpers_echelon.reference_rref``,
is the straightforward loop through the ``Field`` interface, one method
call per entry.  The reduced row
echelon form is unique, so both must give the same matrix and pivots.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quotbilin.exactalg import GF, QQ, Matrix

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
