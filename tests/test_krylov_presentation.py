"""The Krylov-relation kernel presentation, the power-table evaluator and the
deformed images against the pencil reduction, the per-(i, l) Krylov tags,
per-entry and padded ``UniPoly`` evaluation and the matrix-product
derivatives they replaced (kept in ``helpers_kx``)."""

from functools import reduce
import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from quotbilin.bilin import _deformed_image
from quotbilin.exactalg import GF, QQ, Matrix, UniPoly, express_in_echelon, rand_matrix
from quotbilin.quot import (
    KernelPresentation,
    _combine,
    _evaluate,
    _krylov_relations,
    kernel_presentation,
)
from quotbilin.modcore import FramedModule, rand_framed_module

from helpers_kx import (
    krylov_vectors,
    lay_out,
    reference_deformed_image,
    reference_evaluate,
    reference_kernel_presentation,
    reference_krylov_relations,
    reference_power_sum,
    row_counts,
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
    assert in_echelon_span(old, new.cols, r, f)
    assert in_echelon_span(new.cols, old, r, f)


@st.composite
def wide_modules(draw):
    """Framed univariate modules over Q, F_3 and F_101 with d <= 7 and r <= 4,
    whose framing generates, need not generate, lies in a proper invariant
    subspace or is zero."""
    field = draw(st.sampled_from([QQ, GF(3), GF(101)]))
    d, r = draw(st.integers(0, 7)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["generating", "random", "invariant", "zero"]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    X, G = rand_matrix(rng, field, d, d), rand_matrix(rng, field, d, r)
    if kind == "generating":
        return rand_framed_module(rng, field, 1, d, r)
    if kind == "invariant" and d:
        k = rng.randrange(d)
        X = Matrix(field, d, d, [field.zero() if i >= k > j else X[i, j]
                                 for i in range(d) for j in range(d)])
        G = Matrix(field, d, r, [field.zero() if i >= k else G[i, j]
                                 for i in range(d) for j in range(r)])
    elif kind == "zero":
        G = Matrix.zeros(field, d, r)
    return FramedModule(1, d, r, (X,), G)


@settings(deadline=None, max_examples=80)
@given(wide_modules())
def test_presentation_is_the_reference_hermite_basis(m):
    # The Hermite basis of K is unique, so the tags, read as UniPoly columns,
    # equal the reduced pencil kernel entry for entry.
    pres = kernel_presentation(m)
    assert pres.cols == reference_kernel_presentation(m)
    assert pres.tags == lay_out(pres.cols, pres.counts, m.field)


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
    tags, powers = _krylov_relations(m)
    new = KernelPresentation(m.field, tags, [len(v) for v in powers], powers).cols
    old = reference_krylov_relations(m)
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
        assert len(vectors) == pres.counts[a] == col[a].degree + 1
        assert vectors == [table[k][a] for k in range(len(vectors))]
    # == reads the tags and their split into rows, not the vectors.
    others = [[[m.field.one()] * m.d for _ in v] for v in pres.powers]
    assert pres == KernelPresentation(m.field, pres.tags, pres.counts, others)
    split = pres.counts[::-1]
    assert (pres == KernelPresentation(m.field, pres.tags, split, others)) == (split == pres.counts)
    assert "powers" not in repr(pres)


def random_columns(rng, field, s, r, max_degree):
    return [[UniPoly(field, [field.sample(rng) for _ in range(rng.randint(0, max_degree + 1))])
             for _ in range(r)] for _ in range(s)]


def random_presentation(rng, field, X, G, cols):
    """``cols`` laid out over true Krylov vectors of X on G: each row's
    vectors reach its longest entry, at least g_a, and up to two powers past
    it."""
    counts = [max(k, 1) + rng.randint(0, 2) for k in row_counts(cols, G.cols)]
    powers = krylov_vectors(X, G, counts)
    return KernelPresentation(field, lay_out(cols, counts, field), counts, powers)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 10 ** 6))
def test_deformed_image_matches_matrix_derivatives(field, d, r, s, seed):
    # Each generator's Krylov vectors stop at or past the column degrees.
    rng = random.Random(seed)
    X, Xdot = rand_matrix(rng, field, d, d), rand_matrix(rng, field, d, d)
    G, Gdot = rand_matrix(rng, field, d, r), rand_matrix(rng, field, d, r)
    cols = random_columns(rng, field, s, r, 5)
    pres = random_presentation(rng, field, X, G, cols)
    assert _deformed_image(pres, X, Xdot, Gdot) == reference_deformed_image(
        cols, X, G, Xdot, Gdot)


def test_deformed_image_refuses_vectors_short_of_the_columns():
    # With a generator's Krylov vectors stopping below its column degree the
    # tags are longer than the table of derivatives: refused, not cut short.
    f = GF(101)
    m = rand_framed_module(random.Random(5), f, 1, 4, 2)
    pres = kernel_presentation(m)
    assert pres.counts == [1, 5]
    short = KernelPresentation(f, pres.tags, pres.counts, [pres.powers[0], pres.powers[1][:-1]])
    with pytest.raises(ArithmeticError, match="coefficient vector 0 has 6 entries "
                                              "for a table of 5 vectors"):
        _deformed_image(short, m.X[0], Matrix.zeros(f, 4, 4), Matrix.zeros(f, 4, 2))


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


def laid_out(rng, field, cols, r):
    """(tags, counts) of ``cols``, each row padded by zero to two coefficients
    past its longest entry."""
    counts = [k + rng.randint(0, 2) for k in row_counts(cols, r)]
    return lay_out(cols, counts, field), counts


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(1, 3), st.integers(0, 4),
       st.integers(0, 10 ** 6))
def test_evaluate_matches_per_entry_reference(field, d, r, s, seed):
    # Degrees up to 8 pass d; random lengths give zero and unequal rows.
    rng = random.Random(seed)
    X, G = rand_matrix(rng, field, d, d), rand_matrix(rng, field, d, r)
    cols = random_columns(rng, field, s, r, 8)
    tags, counts = laid_out(rng, field, cols, r)
    want = [reference_horner(col, X, G) for col in cols]
    assert _evaluate(tags, counts, X, G) == want == reference_evaluate(cols, X, G)


def test_evaluate_and_combine_refuse_a_vector_of_another_length():
    f = GF(101)
    X, G = Matrix.identity(f, 2), Matrix.identity(f, 2)
    for vec in ([1, 2, 3], [1]):
        with pytest.raises(ArithmeticError, match=f"coefficient vector 1 has {len(vec)} "
                                                  "entries for a table of 2 vectors"):
            _evaluate([[0, 0], vec], [1, 1], X, G)
    assert _combine([[]], [], 3, 101) == [[0, 0, 0]]


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
    counts = row_counts(cols, r)
    want = [reference_power_sum(col, X, G) for col in cols]
    assert _evaluate(lay_out(cols, counts, f), counts, X, G) == want
    assert reference_evaluate(cols, X, G) == want
