"""Q values in their one form: an ``int`` when integral, else a ``Fraction``.

Inputs mix ``int``, integral ``Fraction`` and non-integral ``Fraction``
entries with denominators in {1, 2, 3, 5}.  Every value the library builds
by division (``rref``, the kernels, ``EchelonBasis.reduce``, ``solve``,
``inverse``, ``MembershipSystem.solve``, ``QQ.inv``/``div``, ``QQ.parse``)
must be in canonical form, never a float or a bool, and equal to the
per-entry references.  ``int`` and ``Fraction`` forms of the same values
must compare and hash alike in ``Matrix``, ``UniPoly`` and ``Tensor3``.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from quotbilin.bilin import MembershipSystem, main_component_point
from quotbilin.exactalg import (
    QQ,
    EchelonBasis,
    Matrix,
    UniPoly,
    kernel_mod_span,
    rand_invertible,
    rank_and_kernel,
    rational,
    solve,
)
from quotbilin.modcore import FramedModule
from quotbilin.tensorlab import Tensor3

from helpers_echelon import (
    ReferenceEchelonBasis,
    full_rref_greedy,
    is_canonical_rational,
    reference_kernel,
    reference_rref,
)
from helpers_membership import reference_membership

SCALARS = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5])),
)


def canonical(values):
    return all(is_canonical_rational(x) for x in values)


@st.composite
def q_matrices(draw, max_rows=5, max_cols=6):
    """Matrices over Q whose rows are fresh or combinations of earlier rows,
    so many are rank-deficient."""
    nrows, ncols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(SCALARS), draw(SCALARS)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([draw(SCALARS) for _ in range(ncols)])
    return Matrix(QQ, nrows, ncols, [x for row in rows for x in row])


@settings(deadline=None, max_examples=200)
@given(q_matrices(), st.data())
def test_eliminations_give_canonical_values(m, data):
    r, pivots = m.rref()
    want, want_pivots = reference_rref(m)
    assert (r.entries, pivots) == (want, want_pivots)
    assert canonical(r.entries)

    rank, basis = rank_and_kernel(m)
    assert basis == reference_kernel(m) and rank == len(pivots)
    assert all(canonical(v) for v in basis)

    # an independent part of the kernel, with fractional coefficients
    coeffs = [[data.draw(SCALARS) for _ in basis] for _ in range(data.draw(st.integers(0, 3)))]
    gauge = []
    for cs in coeffs:
        v = [sum((c * b[j] for c, b in zip(cs, basis)), 0) for j in range(m.cols)]
        if len(EchelonBasis(QQ, m.cols, gauge + [v])) == len(gauge) + 1:
            gauge.append(v)
    nullity, kept = kernel_mod_span(m, gauge)
    assert nullity == len(basis)
    assert kept == full_rref_greedy(basis, gauge, QQ)
    assert all(canonical(v) for v in kept)


@settings(deadline=None, max_examples=200)
@given(q_matrices(), st.lists(st.lists(SCALARS, min_size=6, max_size=6), max_size=4))
def test_echelon_reduce_gives_canonical_values(m, targets):
    span, ref = EchelonBasis(QQ, m.cols), ReferenceEchelonBasis(QQ, m.cols)
    for i in range(m.rows):
        assert span.insert(m.row(i)) == ref.insert(m.row(i))
    for v in [m.row(i) for i in range(m.rows)] + [t[:m.cols] for t in targets]:
        got = span.reduce(v)
        assert got == ref.reduce(v) and canonical(got)


@settings(deadline=None, max_examples=200)
@given(q_matrices(max_rows=4, max_cols=4), st.data())
def test_solve_and_inverse_give_canonical_values(a, data):
    k = data.draw(st.integers(1, 2))
    b = Matrix(QQ, a.rows, k, [data.draw(SCALARS) for _ in range(a.rows * k)])
    x = solve(a, b)
    aug, pivots = reference_rref(a.hstack(b))
    if any(pc >= a.cols for pc in pivots):
        assert x is None
    else:
        assert a * x == b and canonical(x.entries)
        # free variables are zero, pivot variables read off the rref
        want = [0] * (a.cols * k)
        for i, pc in enumerate(pivots):
            want[pc * k:(pc + 1) * k] = aug[i * (a.cols + k) + a.cols:(i + 1) * (a.cols + k)]
        assert x.entries == want
    if a.is_invertible():
        inv = a.inverse()
        assert canonical(inv.entries)
        assert a * inv == Matrix.identity(QQ, a.rows)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(2, 3), st.sampled_from([1, 2, 3, 5]))
def test_membership_solve_gives_canonical_values(seed, d, den):
    rng = random.Random(seed)
    points = rng.sample(range(-9, 10), d)
    point = main_component_point(points, rand_invertible(rng, QQ, d), rand_invertible(rng, QQ, d))
    target = point.target_module()
    system = MembershipSystem(point.m1, point.m2, target.X)
    c = Fraction(rng.choice([-3, -1, 1, 2, 4]), den)
    for G in (target.G, target.G.scale(c),
              Matrix(QQ, target.d, target.r, [Fraction(x) for x in target.G.entries])):
        rep = system.solve(G)
        found, _, solution_dim, pihat = reference_membership(
            point.m1, point.m2, FramedModule(target.n, target.d, target.r, target.X, G))
        assert rep.found and found and rep.solution_dim == solution_dim
        assert rep.point.pihat.entries == pihat
        assert canonical(rep.point.pihat.entries)


@given(st.one_of(st.integers(-50, 50), st.builds(Fraction, st.integers(-50, 50),
                                                    st.integers(1, 30))),
       st.one_of(st.integers(-50, 50), st.builds(Fraction, st.integers(-50, 50),
                                                    st.integers(1, 30))))
def test_inverse_division_parse_and_fmt(a, b):
    if b:
        assert QQ.inv(b) == 1 / Fraction(b) and is_canonical_rational(QQ.inv(b))
        assert QQ.div(a, b) == Fraction(a) / b and is_canonical_rational(QQ.div(a, b))
    x = QQ.parse(QQ.fmt(a))
    assert x == a and is_canonical_rational(x)
    assert QQ.fmt(x) == QQ.fmt(a)


def test_integral_strings_parse_to_ints():
    for s, want in (("3", 3), ("6/2", 3), ("-4/2", -2), ("0/7", 0), ("-0", 0)):
        assert type(QQ.parse(s)) is int and QQ.parse(s) == want
    assert QQ.parse("6/4") == Fraction(3, 2)
    assert QQ.fmt(QQ.parse("6/4")) == "3/2"


def test_field_constants_and_samples_are_ints():
    assert all(type(x) is int for x in (QQ.zero(), QQ.one(), QQ.from_int(-7)))
    rng = random.Random(0)
    assert all(type(QQ.sample(rng)) is int for _ in range(50))
    for num, den in ((1, 1), (-1, -1), (4, -2), (0, 5), (3, 6), (-7, 14), (5, -3)):
        x = rational(num, den)
        assert x == Fraction(num, den) and is_canonical_rational(x)


def test_kernel_vectors_with_fractional_pivot_entries():
    # rref(m) has row (1, 3/2, 0, 0): the kept representative of free column
    # 1 is -3/2 at pivot column 0; the gauge vector e_2 keeps column 2 out.
    m = Matrix(QQ, 1, 4, [2, 3, 0, 0])
    gauge = [(0, 0, 1, 0)]
    nullity, kept = kernel_mod_span(m, gauge)
    assert nullity == 3
    assert kept == [(Fraction(-3, 2), 1, 0, 0), (0, 0, 0, 1)]
    assert kept == full_rref_greedy(reference_kernel(m), gauge, QQ)
    assert all(canonical(v) for v in kept)
    # a negative pivot and two pivot rows: entries -x / pv with pv = -3 and 5
    m = Matrix(QQ, 2, 4, [-3, 0, 2, 1, 0, 5, 1, 0])
    gauge = [(1, 0, 0, 3)]
    assert m.matvec(list(gauge[0])) == [0, 0]
    nullity, kept = kernel_mod_span(m, gauge)
    assert nullity == 2
    assert kept == [(Fraction(2, 3), Fraction(-1, 5), 1, 0)]
    assert kept == full_rref_greedy(reference_kernel(m), gauge, QQ)
    assert all(canonical(v) for v in kept)


def test_int_and_fraction_forms_are_equal_and_hash_equal():
    ints = [1, 0, -2, Fraction(1, 2)]
    fracs = [Fraction(1), Fraction(0), Fraction(-2), Fraction(2, 4)]
    for make in (lambda e: Matrix(QQ, 2, 2, e), lambda e: UniPoly(QQ, e),
                 lambda e: Tensor3(QQ, (1, 2, 2), e)):
        a, b = make(ints), make(fracs)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
