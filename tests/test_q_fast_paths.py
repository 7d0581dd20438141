"""The Q entry paths that run in C calls equal their per-entry references.

``_primitive`` takes one ``gcd`` over an integer row and clears denominators
only when that raises; ``QQ.parse`` reads integer strings with ``int``;
``matrix_to_json`` over Q formats with ``str``.  Each must give the same
values of the same types as the reference in ``helpers_qpaths``, and reject
the same inputs.
"""

from fractions import Fraction

from hypothesis import example, given, settings
import hypothesis.strategies as st

from quotbilin.exactalg import GF, QQ, Matrix, matrix_from_json, matrix_to_json
from quotbilin.exactalg.matrix import _primitive

from helpers_qpaths import reference_matrix_to_json, reference_parse_q, reference_primitive

INTS = st.one_of(st.integers(-6, 6), st.integers(-10**30, 10**30))
FRACTIONS = st.builds(Fraction, INTS, st.integers(1, 12))
# Fraction(n, 1) and Fraction(2n, 2) stay Fraction: integral but not int.
INTEGRAL_FRACTIONS = st.builds(lambda n: Fraction(n, 1), INTS)


def typed(values):
    return [(type(x), x) for x in values]


@settings(deadline=None, max_examples=400)
@given(st.one_of(
    st.lists(INTS, max_size=8),
    st.lists(st.one_of(INTS, FRACTIONS), max_size=8),
    st.lists(st.one_of(INTS, INTEGRAL_FRACTIONS), max_size=8),
    st.lists(st.just(0), max_size=8),
    st.lists(st.just(Fraction(0)), min_size=1, max_size=8),
))
@example([])
@example([0, 0, 0])
@example([6, -4, 10])
@example([Fraction(6), Fraction(-4)])
@example([Fraction(1, 2), 3, Fraction(-5, 6)])
def test_primitive_equals_reference(row):
    got = _primitive(row)
    assert typed(got) == typed(reference_primitive(row))
    assert got is not row


NUMERIC_TEXT = st.text(alphabet="0123456789+-/._eE \t", max_size=9)
FRACTION_TEXT = st.builds(lambda n, d: f"{n}/{d}", st.integers(-10**6, 10**6),
                          st.integers(-12, 12))


@settings(deadline=None, max_examples=600)
@given(st.one_of(INTS.map(str), FRACTION_TEXT, NUMERIC_TEXT, st.text(max_size=6)))
@example("7")
@example("-0")
@example("22/7")
@example("6/4")
@example("8/4")
@example("3.0")
@example("1e3")
@example("1_0")
@example("1__0")
@example("_1")
@example(" -3 ")
@example("0x10")
@example("5/0")
@example("")
def test_parse_q_equals_reference(s):
    # Fraction raises ZeroDivisionError on a zero denominator; QQ.parse
    # rejects every such string with ValueError, malformed input.
    try:
        want = reference_parse_q(s)
    except (ValueError, ZeroDivisionError):
        try:
            QQ.parse(s)
        except ValueError:
            return
        raise AssertionError(f"QQ.parse accepted {s!r}, which Fraction rejects")
    got = QQ.parse(s)
    assert (type(got), got) == (type(want), want)


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), INTS, FRACTIONS))
def test_parse_q_reads_numbers_exactly(x):
    # int(2.5) would truncate; numbers go through Fraction as before.
    got = QQ.parse(x)
    assert (type(got), got) == (type(reference_parse_q(x)), reference_parse_q(x))


@st.composite
def matrices(draw):
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(101)]))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    # F_p entries need not be reduced; fmt reduces them.
    scalars = st.one_of(INTS, FRACTIONS, INTEGRAL_FRACTIONS) if field is QQ else INTS
    return Matrix(field, rows, cols, draw(st.lists(scalars, min_size=rows * cols,
                                                   max_size=rows * cols)))


@settings(deadline=None, max_examples=300)
@given(matrices())
def test_matrix_to_json_equals_reference(m):
    obj = matrix_to_json(m)
    assert obj == reference_matrix_to_json(m)
    assert matrix_from_json(obj) == m
