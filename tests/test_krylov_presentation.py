"""The Krylov-relation kernel presentation and the Horner deformed images
against the pencil reduction and the matrix-product derivatives they replaced
(kept in ``helpers_kx``)."""

from functools import reduce
import random

from hypothesis import example, given, settings
import hypothesis.strategies as st

from quotbilin.bilin import _deformed_image
from quotbilin.exactalg import GF, QQ, Matrix, UniPoly, express_in_echelon, rand_matrix
from quotbilin.quot import _horner, kernel_presentation

from helpers_kx import (
    reference_deformed_image,
    reference_kernel_presentation,
    reference_power_sum,
)
from test_quot import univariate_modules

FIELDS = [QQ, GF(2), GF(3), GF(101)]


def in_echelon_span(cols, echelon, height, field):
    return all(express_in_echelon(echelon, height, col, field) is not None for col in cols)


@settings(deadline=None, max_examples=150)
@given(univariate_modules())
def test_presentation_spans_the_pencil_kernel(m):
    new, old = kernel_presentation(m), reference_kernel_presentation(m)
    f, r = m.field, m.r
    assert in_echelon_span(old.cols, new.cols, r, f)
    assert in_echelon_span(new.cols, old.cols, r, f)


@settings(deadline=None, max_examples=150)
@given(univariate_modules())
def test_presentation_is_the_hermite_basis(m):
    pres = kernel_presentation(m)
    cols = pres.cols
    assert len(cols) == m.r
    pivots = [col[j] for j, col in enumerate(cols)]
    for j, col in enumerate(cols):
        assert all(e.is_zero() for e in col[:j])
        assert pivots[j].degree >= 0 and m.field.eq(pivots[j].lead(), m.field.one())
        assert all(col[i].degree < pivots[i].degree for i in range(j + 1, m.r))


def random_columns(rng, field, s, r, max_degree):
    return [[UniPoly(field, [field.sample(rng) for _ in range(rng.randint(0, max_degree + 1))])
             for _ in range(r)] for _ in range(s)]


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 10 ** 6))
def test_deformed_image_matches_matrix_derivatives(field, d, r, s, seed):
    rng = random.Random(seed)
    X, Xdot = rand_matrix(rng, field, d, d), rand_matrix(rng, field, d, d)
    G, Gdot = rand_matrix(rng, field, d, r), rand_matrix(rng, field, d, r)
    cols = random_columns(rng, field, s, r, 5)
    assert _deformed_image(cols, X, G, Xdot, Gdot) == reference_deformed_image(
        cols, X, G, Xdot, Gdot)



def reference_horner(polys, X, G):
    """sum_a polys[a](X) G[:, a] with one Field call per entry operation."""
    f = X.field
    h = [f.zero()] * X.rows
    for m in range(max(p.degree for p in polys), -1, -1):
        h = [reduce(f.add, (f.mul(X[i, j], h[j]) for j in range(X.cols)), f.zero())
             for i in range(X.rows)]
        for a, p in enumerate(polys):
            c = p.coeff(m)
            if not f.is_zero(c):
                h = [f.add(v, f.mul(c, g)) for v, g in zip(h, G.col(a))]
    return h


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_horner_matches_per_entry_reference(field, d, r, seed):
    rng = random.Random(seed)
    X, G = rand_matrix(rng, field, d, d), rand_matrix(rng, field, d, r)
    (col,) = random_columns(rng, field, 1, r, 5)
    assert _horner(col, X, G) == reference_horner(col, X, G)


HORNER_FIELDS = {"Q": QQ, "F3": GF(3), "F101": GF(101)}


@st.composite
def horner_inputs(draw):
    """(field name, d, X entries, G entries, coefficient lists), as ints."""
    name = draw(st.sampled_from(sorted(HORNER_FIELDS)))
    d, r = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    ints = st.integers(-150, 150)
    x = draw(st.lists(ints, min_size=d * d, max_size=d * d))
    g = draw(st.lists(ints, min_size=d * r, max_size=d * r))
    polys = draw(st.lists(st.lists(ints, max_size=6), min_size=r, max_size=r))
    return name, d, x, g, polys


@settings(deadline=None, max_examples=150)
@given(horner_inputs())
@example(("Q", 2, [1, 2, 3, 4], [5, 6], [[]]))  # r = 1, the zero polynomial
@example(("F3", 2, [1, 2, 0, 1], [1, 2], [[0, 0, 3]]))  # zero only mod 3
@example(("F101", 2, [0, 1, 0, 0], [1, 0, 2, 1], [[], [7, 0, 0, 100]]))
def test_horner_matches_the_power_sum(inputs):
    name, d, x, g, coeffs = inputs
    f = HORNER_FIELDS[name]
    X = Matrix(f, d, d, [f.from_int(v) for v in x])
    G = Matrix(f, d, len(coeffs), [f.from_int(v) for v in g])
    polys = [UniPoly.from_ints(f, cs) for cs in coeffs]
    assert _horner(polys, X, G) == reference_power_sum(polys, X, G)
