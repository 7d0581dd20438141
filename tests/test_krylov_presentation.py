"""The Krylov-relation kernel presentation, the power-table evaluator and the
deformed images against the pencil reduction, the per-(i, l) Krylov tags,
per-entry evaluation and the matrix-product derivatives they replaced (kept
in ``helpers_kx``)."""

from functools import reduce
import random

from hypothesis import example, given, settings
import hypothesis.strategies as st

from quotbilin.bilin import _deformed_image
from quotbilin.exactalg import GF, QQ, Matrix, UniPoly, express_in_echelon, rand_matrix
from quotbilin.quot import KernelPresentation, _evaluate, _krylov_relations, kernel_presentation

from helpers_kx import (
    reference_deformed_image,
    reference_kernel_presentation,
    reference_krylov_relations,
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


@settings(deadline=None, max_examples=150)
@given(univariate_modules())
def test_insertion_order_tags_give_the_per_pair_tag_columns(m):
    # Each column is the unique expression of X^(k_j) g_j in the vectors
    # inserted before it, whichever slots record it.
    new, old = _krylov_relations(m)[0], reference_krylov_relations(m)
    assert [[p.coeffs for p in col] for col in new] == [[p.coeffs for p in col] for col in old]


def matrix_power_columns(X, G, count):
    """Column a of X^m G for m < count, by matrix products."""
    power, out = G, []
    for _ in range(count):
        out.append([list(power.col(a)) for a in range(G.cols)])
        power = X * power
    return out


@settings(deadline=None, max_examples=150)
@given(univariate_modules())
def test_presentation_keeps_the_krylov_vectors_of_its_pass(m):
    # powers[a] is X^m g_a for m = 0, ..., k_a, k_a the degree of the pivot
    # of column a: every power the Hermite columns read, and no more.
    pres = kernel_presentation(m)
    table = matrix_power_columns(m.X[0], m.G, m.d + 1)
    assert len(pres.powers) == m.r
    for a, (col, vectors) in enumerate(zip(pres.cols, pres.powers)):
        assert len(vectors) == col[a].degree + 1
        assert vectors == [table[k][a] for k in range(len(vectors))]
    assert pres == KernelPresentation(cols=pres.cols)
    assert "powers" not in repr(pres)


def random_columns(rng, field, s, r, max_degree):
    return [[UniPoly(field, [field.sample(rng) for _ in range(rng.randint(0, max_degree + 1))])
             for _ in range(r)] for _ in range(s)]


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 10 ** 6))
def test_deformed_image_matches_matrix_derivatives(field, d, r, s, seed):
    # Each generator's stored Krylov vectors stop at a random power, below or
    # past the column degrees, so both the stored and the computed powers are read.
    rng = random.Random(seed)
    X, Xdot = rand_matrix(rng, field, d, d), rand_matrix(rng, field, d, d)
    G, Gdot = rand_matrix(rng, field, d, r), rand_matrix(rng, field, d, r)
    cols = random_columns(rng, field, s, r, 5)
    table = matrix_power_columns(X, G, 8)
    powers = [[table[m][a] for m in range(rng.randint(1, 8))] for a in range(r)]
    pres = KernelPresentation(cols=cols, powers=powers)
    assert _deformed_image(pres, X, Xdot, Gdot) == reference_deformed_image(
        cols, X, G, Xdot, Gdot)


@settings(deadline=None, max_examples=100)
@given(univariate_modules(), st.integers(0, 10 ** 6))
def test_deformed_image_of_a_presentation_matches_matrix_derivatives(m, seed):
    rng = random.Random(seed)
    Xdot, Gdot = rand_matrix(rng, m.field, m.d, m.d), rand_matrix(rng, m.field, m.d, m.r)
    pres = kernel_presentation(m)
    assert _deformed_image(pres, m.X[0], Xdot, Gdot) == reference_deformed_image(
        pres.cols, m.X[0], m.G, Xdot, Gdot)


def reference_horner(polys, X, G):
    """sum_a polys[a](X) G[:, a] by Horner, with one Field call per entry
    operation."""
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
@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(1, 3), st.integers(0, 4),
       st.integers(0, 10 ** 6))
def test_evaluate_matches_per_entry_reference(field, d, r, s, seed):
    # Degrees up to 8 pass d; random lengths give zero and unequal rows.
    rng = random.Random(seed)
    X, G = rand_matrix(rng, field, d, d), rand_matrix(rng, field, d, r)
    cols = random_columns(rng, field, s, r, 8)
    assert _evaluate(cols, X, G) == [reference_horner(col, X, G) for col in cols]


EVAL_FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F101": GF(101)}


@st.composite
def evaluate_inputs(draw):
    """(field name, d, X entries, G entries, columns of coefficient lists), as
    ints; up to 8 coefficients against d <= 4."""
    name = draw(st.sampled_from(sorted(EVAL_FIELDS)))
    d, r = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    ints = st.integers(-150, 150)
    x = draw(st.lists(ints, min_size=d * d, max_size=d * d))
    g = draw(st.lists(ints, min_size=d * r, max_size=d * r))
    col = st.lists(st.lists(ints, max_size=8), min_size=r, max_size=r)
    return name, d, x, g, r, draw(st.lists(col, max_size=4))


@settings(deadline=None, max_examples=150)
@given(evaluate_inputs())
@example(("Q", 2, [1, 2, 3, 4], [5, 6], 1, [[[]]]))  # r = 1, the zero polynomial
@example(("Q", 2, [1, 2, 3, 4], [5, 6, 7, 8], 2, []))  # no columns
@example(("F2", 2, [1, 1, 0, 1], [1, 0], 1, [[[1, 0, 1, 1, 0, 1]], [[2, 4]]]))  # degree > d
@example(("F3", 2, [1, 2, 0, 1], [1, 2], 1, [[[0, 0, 3]]]))  # zero only mod 3
@example(("F101", 2, [0, 1, 0, 0], [1, 0, 2, 1], 2,
          [[[], [7, 0, 0, 100]], [[1, 2, 3, 4, 5, 6, 7], [1]]]))  # unequal row degrees
def test_evaluate_matches_the_power_sum(inputs):
    name, d, x, g, r, coeffs = inputs
    f = EVAL_FIELDS[name]
    X = Matrix(f, d, d, [f.from_int(v) for v in x])
    G = Matrix(f, d, r, [f.from_int(v) for v in g])
    cols = [[UniPoly.from_ints(f, cs) for cs in col] for col in coeffs]
    assert _evaluate(cols, X, G) == [reference_power_sum(col, X, G) for col in cols]
