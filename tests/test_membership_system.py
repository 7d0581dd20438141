"""The membership solver against one elimination of [A | b] per target.

``MembershipSystem`` reduces the pairing-lift equations of (M1, M2, Z) once
and answers each target framing with one product.  The reference,
``helpers_membership.reference_membership``, is the per-target assembly and
``solve_with_rank`` it replaced; every answer must match it: found or not,
the reason, the solution dimension and the pairing lift, entry by entry,
with every Q entry in its canonical form.
"""

import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from quotbilin.bilin import (
    BilinPoint,
    MembershipSystem,
    factor_membership_detail,
)
from quotbilin.exactalg import (
    GF,
    QQ,
    Matrix,
    ShapeError,
    char_poly,
    rand_invertible,
    rand_matrix,
    roots_with_multiplicity,
)
from quotbilin.modcore import (
    FramedModule,
    krylov_span,
    rand_framed_module,
    tensor_over_S,
    validate_framed,
)

from helpers_echelon import is_canonical_rational
from helpers_membership import assemble_from_kernel, reference_membership

FIELDS = [QQ, GF(2), GF(3), GF(101)]


def assert_same_answer(rep, target, m1, m2):
    found, reason, solution_dim, pihat = reference_membership(m1, m2, target)
    assert (rep.found, rep.reason, rep.solution_dim) == (found, reason, solution_dim)
    if not found:
        assert rep.point is None
        return
    got = rep.point.pihat.entries
    assert got == pihat
    p = target.field.characteristic
    if p:
        assert all(type(x) is int and 0 <= x < p for x in got)
    else:
        assert all(is_canonical_rational(x) for x in got)
    assert rep.point.Z == target.X
    assert (rep.point.m1, rep.point.m2, rep.point.d3) == (m1, m2, target.d)


def unreduced(rng, m):
    """The same matrix over F_p with some entries shifted by multiples of p."""
    p = m.field.characteristic
    if not p:
        return m
    return Matrix(m.field, m.rows, m.cols,
                  [x + p * rng.randint(-2, 2) for x in m.entries])


def without_generation(rng, m):
    """``m`` with a random set of framing columns (possibly all) zeroed, so
    the generator pair tensors usually stop spanning the tensor product."""
    keep = [rng.random() < 0.4 for _ in range(m.r)]
    z = m.field.zero()
    G = Matrix(m.field, m.d, m.r,
               [x if keep[j % m.r] else z for j, x in enumerate(m.G.entries)])
    return FramedModule(m.n, m.d, m.r, m.X, G)


def triangular_module(rng, field, coeffs, d, r):
    """A random valid framed module with actions a*B + b for (a, b) in
    ``coeffs``, where B is conjugate to an upper triangular matrix with 0s and
    1s on the diagonal: modules drawn with the same ``coeffs`` share support
    points, so their tensor product is rarely zero."""
    eye = Matrix.identity(field, d)
    for _ in range(200):
        u = Matrix(field, d, d, [field.sample(rng) if j > i else
                                 field.from_int(rng.randint(0, 1)) if j == i else field.zero()
                                 for i in range(d) for j in range(d)])
        s = rand_invertible(rng, field, d)
        base = s * u * s.inverse()
        X = tuple(base.scale(a) + eye.scale(b) for a, b in coeffs)
        m = FramedModule(len(coeffs), d, r, X, rand_matrix(rng, field, d, r))
        if validate_framed(m).ok:
            return m
    raise RuntimeError("failed to sample a valid framed module")


def valid_point(rng, m1, m2):
    """A pairing point of the valid modules m1, m2 with target dimension at
    most 3.  Its kernel is the image of A - lambda or its square, for A the
    first action on the tensor product and lambda an eigenvalue (the image of
    an operator commuting with every action is invariant), grown by Krylov
    spans of random vectors while the quotient is too large."""
    field = m1.field
    prod = tensor_over_S(m1, m2)
    dim = prod.dim12
    kernel = []
    if dim:
        a = prod.actions[0]
        lam = rng.choice(roots_with_multiplicity(char_poly(a))[0])[0]
        shifted = a - Matrix.identity(field, dim).scale(lam)
        if rng.random() < 0.5:
            shifted = shifted * shifted
        kernel = krylov_span(prod.actions, [shifted.col(j) for j in range(dim)], field, dim)
    while dim - len(kernel) > 3:
        extra = [field.sample(rng) for _ in range(dim)]
        kernel = krylov_span(prod.actions, kernel + [extra], field, dim)
    return assemble_from_kernel(m1, m2, kernel)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS), st.integers(1, 2),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(1, 2))
@example(0, GF(2), 1, 2, 2, 2, 2)
def test_system_matches_per_target_elimination(seed, field, n, d1, d2, r1, r2):
    rng = random.Random(seed)
    coeffs = [(field.one(), field.zero())] + [
        (field.sample(rng), field.sample(rng)) for _ in range(n - 1)]
    m1 = triangular_module(rng, field, coeffs, d1, r1)
    m2 = triangular_module(rng, field, coeffs, d2, r2)
    point = valid_point(rng, m1, m2)
    if rng.random() < 0.5:
        # Framings that do not generate: the same pairing lift still
        # realises its induced framing, with a positive solution dimension.
        m1, m2 = without_generation(rng, m1), without_generation(rng, m2)
        point = BilinPoint(m1=m1, m2=m2, d3=point.d3, Z=point.Z, pihat=point.pihat)
    consistent = point.target_module()
    Z = tuple(unreduced(rng, z) for z in consistent.X)
    d3, r3 = consistent.d, consistent.r
    c = field.sample(rng)
    while field.is_zero(c):
        c = field.sample(rng)
    framings = [
        consistent.G,                                   # factors
        consistent.G.scale(c),                          # factors
        Matrix.zeros(field, d3, r3),                    # factors
        unreduced(rng, consistent.G),                   # factors
        rand_matrix(rng, field, d3, r3),                # arbitrary
        consistent.G + rand_matrix(rng, field, d3, r3),  # arbitrary
    ]
    system = MembershipSystem(m1, m2, Z)
    for G in framings:
        target = FramedModule(n, d3, r3, Z, G)
        assert_same_answer(system.solve(G), target, m1, m2)
        assert_same_answer(factor_membership_detail(m1, m2, target), target, m1, m2)
    assert system.solve(consistent.G).found


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS), st.integers(1, 2),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
       st.integers(1, 2))
def test_arbitrary_targets_match(seed, field, n, d1, d2, d3, r1, r2):
    # Arbitrary (not commuting, not generating) actions and framings on
    # every side: the solver must agree whatever it is given.
    rng = random.Random(seed)
    m1 = FramedModule(n, d1, r1, tuple(rand_matrix(rng, field, d1, d1) for _ in range(n)),
                      rand_matrix(rng, field, d1, r1))
    m2 = FramedModule(n, d2, r2, tuple(rand_matrix(rng, field, d2, d2) for _ in range(n)),
                      rand_matrix(rng, field, d2, r2))
    Z = tuple(rand_matrix(rng, field, d3, d3) for _ in range(n))
    system = MembershipSystem(m1, m2, Z)
    for G in (rand_matrix(rng, field, d3, r1 * r2), Matrix.zeros(field, d3, r1 * r2)):
        target = FramedModule(n, d3, r1 * r2, Z, G)
        assert_same_answer(system.solve(G), target, m1, m2)


def test_solve_checks_the_framing_shape():
    rng = random.Random(1)
    m = rand_framed_module(rng, GF(3), 1, 2, 2)
    system = MembershipSystem(m, m, (Matrix.zeros(GF(3), 2, 2),))
    with pytest.raises(ShapeError):
        system.solve(Matrix.zeros(GF(3), 2, 3))
    with pytest.raises(ShapeError):
        system.solve(Matrix.zeros(GF(3), 3, 4))
    with pytest.raises(ShapeError):
        MembershipSystem(m, m, ())
