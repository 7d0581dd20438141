"""Closed-form gauge vectors, sparse first-order rows and the ``check`` path
of the tangent spaces.

The gauges are built from the rule "E_ab M is row b of M moved to row a,
M E_ab is column a of M moved to column b"; their nonzero entries must
equal those of the dense unit-matrix products of ``helpers_gauge``, vector
for vector and in order.  The rows and gauges are dicts of their nonzero
entries; they must equal the nonzero entries of the dense builders of
``helpers_tangent``, row for row.
"""

import random

import pytest

from quotbilin import bilin, quot
from quotbilin.bilin import (
    _equivariance_rows,
    _first_order_rows,
    _gauge_vectors_bilin,
    _layout,
    bilin_tangent,
    degenerate_point,
    gauge_transform_bilin,
    main_component_point,
)
from quotbilin.exactalg import CERTIFICATE_PRIME, GF, QQ, Matrix, matrix, rand_invertible
from quotbilin.exactalg.matrix import _eliminate, _modular_right_pivots, _nonzeros
from quotbilin.modcore import make_degenerate, make_tuple_of_points, rand_framed_module
from quotbilin.quot import _commutation_rows, _gauge_vectors_quot, quot_tangent
from helpers_gauge import reference_gauge_vectors_bilin, reference_gauge_vectors_quot
from helpers_tangent import (
    reference_commutation_rows,
    reference_dense_gauge_bilin,
    reference_dense_gauge_quot,
    reference_equivariance_rows,
    reference_first_order_rows,
)
from helpers_membership import assemble_from_kernel

FIELDS = [QQ, GF(2), GF(3), GF(101)]


def _points(field, n):
    """Two distinct points of affine n-space over the field."""
    return [tuple([field.from_int(i)] * n) for i in range(2)]


def _pi(field, d):
    return Matrix(field, d, d * d, [field.one() if j == (d + 1) * i else field.zero()
                                    for i in range(d) for j in range(d * d)])


def _moved(rng, field, b):
    """The point in random bases, so that no action is diagonal."""
    return gauge_transform_bilin(b, rand_invertible(rng, field, b.m1.d),
                                 rand_invertible(rng, field, b.m2.d),
                                 rand_invertible(rng, field, b.d3))


def _quot_points(field, n, rng):
    return [
        rand_framed_module(rng, field, n, 2, 2),
        rand_framed_module(rng, field, n, 3, 1),
        make_tuple_of_points(_points(field, n), rand_invertible(rng, field, 2)),
        make_degenerate(2, 3, Matrix.from_int_rows(field, [[1, 0, 1], [0, 1, 1]]), n=n),
    ]


def _bilin_points(field, n, rng):
    eye = Matrix.identity(field, 2)
    main = main_component_point(_points(field, n), rand_invertible(rng, field, 2),
                                rand_invertible(rng, field, 2))
    degenerate = degenerate_point(2, 2, 2, eye, eye, _pi(field, 2), n=n)
    # d1 = 2, d2 = d3 = 3: the actions of M2 vanish, so M1 (x)_S M2 is M2.
    m1 = make_tuple_of_points(_points(field, n), eye)
    m2 = make_degenerate(3, 3, Matrix.identity(field, 3), n=n)
    unequal = assemble_from_kernel(m1, m2, [])
    return [main, degenerate, _moved(rng, field, main), _moved(rng, field, degenerate),
            _moved(rng, field, unequal)]


def _dicts(vectors):
    return [_nonzeros(v) for v in vectors]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_quot_gauge_equals_dense_products(field, n):
    rng = random.Random(n)
    for m in _quot_points(field, n, rng):
        assert _gauge_vectors_quot(m) == _dicts(reference_gauge_vectors_quot(m))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_bilin_gauge_equals_dense_products(field, n):
    rng = random.Random(n)
    points = _bilin_points(field, n, rng)
    assert {(b.m1.d, b.m2.d, b.d3) for b in points} == {(2, 2, 2), (2, 3, 3)}
    for b in points:
        assert _gauge_vectors_bilin(b) == _dicts(reference_gauge_vectors_bilin(b))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_sparse_builders_equal_the_dense_nonzeros(field, n):
    # Row for row and vector for vector, with the raw values the dense
    # builders left unreduced, at main, degenerate and moved points.
    rng = random.Random(n)
    for m in _quot_points(field, n, rng):
        nvars = n * m.d * m.d + m.d * m.r
        rows = _commutation_rows(m.X, 0)
        assert len(rows) == n * (n - 1) // 2 * m.d * m.d
        assert rows == _dicts(reference_commutation_rows(m.X, 0, nvars))
        assert _gauge_vectors_quot(m) == _dicts(reference_dense_gauge_quot(m))
    for b in _bilin_points(field, n, rng):
        offsets, nvars = _layout(b)
        rows = _first_order_rows(b, offsets)
        assert rows == _dicts(reference_first_order_rows(b))
        assert all(0 <= j < nvars for row in rows for j in row)
        assert (_equivariance_rows(b.m1, b.m2, b.Z)
                == _dicts(reference_equivariance_rows(b.m1, b.m2, b.Z)))
        assert _gauge_vectors_bilin(b) == _dicts(reference_dense_gauge_bilin(b))


# -- right pivots of the univariate Quot gauge ---------------------------------------

def _restricted_quot_gauge(d, seed):
    """The n = 1, r = 2 Quot gauge over Q in kernel coordinates, as dicts of
    nonzero entries: the system has no rows, so every column is free and
    restricting reverses each vector."""
    m = rand_framed_module(random.Random(seed), QQ, 1, d, 2)
    ncols = d * d + 2 * d
    return [{ncols - 1 - j: x for j, x in v.items()} for v in _gauge_vectors_quot(m)]


# At even d the right pivots are the prefix 0..d^2 - 1, and the modular
# ones are accepted.  At odd d the right pivots skip column d^2 - 1 and take
# column d^2, over Q and mod P alike, so the exact elimination runs, on the
# columns up to d^2.
@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_quot_gauge_right_pivots_at_n1(d, seed):
    rows = _restricted_quot_gauge(d, seed)
    k, ncols = d * d, d * d + 2 * d
    right = _eliminate(QQ, rows, ncols, reduced=False)[1]
    assert right == (list(range(k - 1)) + [k] if d % 2 else list(range(k)))
    assert _eliminate(GF(CERTIFICATE_PRIME), rows, ncols, reduced=False)[1] == right
    assert _modular_right_pivots(rows, ncols) == right


@pytest.mark.parametrize("d", [8, 9])
def test_quot_tangent_at_n1_equals_the_exact_path(monkeypatch, d):
    # d = 8 has the smallest gauge that tries the modular pivots (64 vectors).
    m = rand_framed_module(random.Random(0), QQ, 1, d, 2)
    fields = []
    real = matrix._eliminate
    monkeypatch.setattr(matrix, "_eliminate",
                        lambda field, *args, **kw: fields.append(field.name) or real(field, *args, **kw))
    fast = quot_tangent(m)
    # The system, the gauge mod P, and at odd d the exact gauge elimination.
    assert fields == ["Q", f"F:{CERTIFICATE_PRIME}"] + ["Q"] * (d % 2)
    monkeypatch.setattr(matrix, "_MODULAR_GAUGE_MIN", float("inf"))
    exact = quot_tangent(m)
    assert (fast.dim, fast.nullity, fast.basis) == (exact.dim, exact.nullity, exact.basis)
    assert fast.dim == 2 * d


# -- the check path ----------------------------------------------------------------

def _perturbed(gauge, field):
    """The gauge with Xdot_1[0, 1] of its first vector moved by one; the
    vectors are dicts of their nonzero entries."""
    first = dict(gauge[0])
    first[1] = field.add(first.get(1, field.zero()), field.one())
    if not first[1]:
        del first[1]
    return [first] + gauge[1:]


def _duplicated(gauge, field):
    """The gauge with its first vector repeated in place of its second."""
    return [gauge[0], gauge[0]] + gauge[2:]


# Over Q, X_2 = diag(0, 2) does not commute with E_01, and the main pairing
# lift does not vanish on the column (0, 0) that Pihat (E_01 (x) 1) moves.
QUOT_POINT = make_tuple_of_points([(QQ.from_int(0), QQ.from_int(0)),
                                   (QQ.from_int(1), QQ.from_int(2))], Matrix.identity(QQ, 2))
BILIN_POINT = main_component_point([QQ.from_int(0), QQ.from_int(1)],
                                   Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))


# A duplicated gauge is caught by kernel_mod_span's rank certificate, which
# runs with or without check; a gauge vector off the kernel only by check.
@pytest.mark.parametrize("corrupt, message", [(_perturbed, "violates the deformation system"),
                                              (_duplicated, "in kernel coordinates")])
def test_quot_check_rejects_a_corrupted_gauge(monkeypatch, corrupt, message):
    assert quot_tangent(QUOT_POINT, check=True).dim == 6
    gauge = quot._gauge_vectors_quot
    monkeypatch.setattr(quot, "_gauge_vectors_quot", lambda p: corrupt(gauge(p), p.field))
    with pytest.raises(ArithmeticError, match=message):
        quot_tangent(QUOT_POINT, check=True)
    if corrupt is _duplicated:
        with pytest.raises(ArithmeticError, match=message):
            quot_tangent(QUOT_POINT, check=False)


@pytest.mark.parametrize("corrupt, message", [(_perturbed, "violates the deformation system"),
                                              (_duplicated, "in kernel coordinates")])
def test_bilin_check_rejects_a_corrupted_gauge(monkeypatch, corrupt, message):
    assert bilin_tangent(BILIN_POINT, check=True).dim == 6
    gauge = bilin._gauge_vectors_bilin
    monkeypatch.setattr(bilin, "_gauge_vectors_bilin", lambda b: corrupt(gauge(b), b.field))
    with pytest.raises(ArithmeticError, match=message):
        bilin_tangent(BILIN_POINT, check=True)
    if corrupt is _duplicated:
        with pytest.raises(ArithmeticError, match=message):
            bilin_tangent(BILIN_POINT, check=False)
