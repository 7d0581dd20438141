import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quotbilin.exactalg import GF, QQ, EchelonBasis, Matrix, UniPoly
from quotbilin.modcore import (
    FramedModule,
    krylov_span,
    annihilator_algebra_dim,
    cyclic_module_univariate,
    cyclic_tuple_module,
    framed_from_json,
    framed_to_json,
    gauge_transform,
    kron_lifts,
    make_degenerate,
    make_tuple_of_points,
    rand_framed_module,
    support_univariate,
    tensor_over_S,
    validate_framed,
)

F5 = GF(5)


def diag01(field=QQ):
    return Matrix.diag(field, [field.from_int(0), field.from_int(1)])


# -- validation -----------------------------------------------------------------

def test_validate_diagonal_module():
    m = FramedModule(1, 2, 2, (diag01(),), Matrix.identity(QQ, 2))
    assert validate_framed(m).ok


def test_validate_noncommuting_witness():
    m = FramedModule(2, 2, 2,
                     (Matrix.from_int_rows(QQ, [[0, 1], [0, 0]]),
                      Matrix.from_int_rows(QQ, [[0, 0], [1, 0]])),
                     Matrix.identity(QQ, 2))
    rep = validate_framed(m)
    assert not rep.ok and not rep.commutes
    assert rep.commutator_witness == (0, 1)


def test_validate_generation_failure_witness():
    m = FramedModule(1, 2, 1, (diag01(),), Matrix.from_int_rows(QQ, [[1], [0]]))
    rep = validate_framed(m)
    assert not rep.ok and rep.commutes and not rep.generates
    assert len(rep.invariant_subspace) == 1


# -- Krylov closure ---------------------------------------------------------------

def reference_krylov_span(X, vectors, field, d):
    """krylov_span without its early exit: every round runs to its end."""
    basis = []
    span = EchelonBasis(field, d)

    def absorb(v) -> bool:
        if span.insert(v):
            basis.append(tuple(v))
            return True
        return False

    frontier = [tuple(v) for v in vectors]
    for v in frontier:
        absorb(v)
    while True:
        new = []
        for x in X:
            for v in list(basis):
                w = x.matvec(list(v))
                if absorb(w):
                    new.append(w)
        if not new or len(basis) >= d:
            break
    return basis


@st.composite
def krylov_inputs(draw):
    """Actions and vectors over F_3, F_101 or Q with d <= 5 and n <= 2.  Upper
    triangular actions keep vectors supported on the first k coordinates
    there, and zero or scalar actions add nothing, so many inputs do not
    generate k^d."""
    field = draw(st.sampled_from([GF(3), GF(101), QQ]))
    d = draw(st.integers(0, 5))

    def entry():
        if field.characteristic:
            return field.from_int(draw(st.integers(0, field.characteristic - 1)))
        return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))

    actions = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["random", "upper", "scalar", "zero"]))
        if kind == "scalar":
            actions.append(Matrix.identity(field, d).scale(entry()))
            continue
        entries = [entry() if kind == "random" or (kind == "upper" and j >= i)
                   else field.zero() for i in range(d) for j in range(d)]
        actions.append(Matrix(field, d, d, entries))
    vectors = []
    for _ in range(draw(st.integers(0, 3))):
        head = draw(st.integers(0, d))
        vectors.append([entry() if i < head else field.zero() for i in range(d)])
    return actions, vectors, field, d


@settings(deadline=None, max_examples=150)
@given(krylov_inputs())
def test_krylov_span_matches_the_loop_without_early_exit(inputs):
    assert krylov_span(*inputs) == reference_krylov_span(*inputs)


@pytest.mark.parametrize("d,products", [(4, 3), (8, 7), (16, 15)])
def test_krylov_span_multiplies_each_new_vector_once(d, products, monkeypatch):
    # k[x]/(x^d): x shifts e_i to e_(i+1), and e_0 generates.  Multiplying
    # only the vectors added since the last round takes d - 1 products, where
    # multiplying the whole basis every round took d(d - 1)/2.
    shift = Matrix(F5, d, d, [int(i == j + 1) for i in range(d) for j in range(d)])
    calls = []
    matvec = Matrix.matvec
    monkeypatch.setattr(Matrix, "matvec", lambda m, v: calls.append(1) or matvec(m, v))
    e = [[int(i == j) for j in range(d)] for i in range(d)]
    basis = krylov_span((shift,), [e[0]], F5, d)
    assert len(calls) == products
    assert basis == [tuple(v) for v in e]
    assert basis == reference_krylov_span((shift,), [e[0]], F5, d)


# -- tensor product ---------------------------------------------------------------

def test_tensor_disjoint_support_vanishes():
    m1 = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, 1]))     # S/(x)
    m2 = cyclic_module_univariate(UniPoly.from_ints(QQ, [-1, 1]))    # S/(x-1)
    assert tensor_over_S(m1, m2).dim12 == 0


def test_tensor_degenerate_square():
    m = make_degenerate(2, 2, Matrix.identity(QQ, 2))
    assert tensor_over_S(m, m).dim12 == 4


def test_tensor_cyclic_square():
    m = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, 0, 1]))   # S/(x^2)
    assert tensor_over_S(m, m).dim12 == 2


def test_tensor_result_invariants():
    m1 = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, -1, 1]))  # S/(x(x-1))
    m2 = make_degenerate(2, 3, Matrix.from_int_rows(QQ, [[1, 0, 1], [0, 1, 0]]))
    res = tensor_over_S(m1, m2)
    assert res.q.rank() == res.dim12
    eye1 = Matrix.identity(QQ, m1.d)
    eye2 = Matrix.identity(QQ, m2.d)
    for i in range(m1.n):
        left = res.q * m1.X[i].kron(eye2)
        right = res.q * eye1.kron(m2.X[i])
        assert left == right == res.actions[i] * res.q


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_tensor_lifts_are_the_kronecker_lifts(field):
    # X_i (x) 1 and 1 (x) Y_i, built entry by entry
    rng = random.Random(3)
    m1 = rand_framed_module(rng, field, 2, 2, 2)
    m2 = rand_framed_module(rng, field, 2, 3, 1)
    lifts = tensor_over_S(m1, m2).lifts
    assert lifts == kron_lifts(m1.X, m2.X)
    for (xl, yl), x, y in zip(lifts, m1.X, m2.X):
        assert (xl.rows, yl.rows) == (6, 6)
        for (a, b), (c, e) in itertools.product(itertools.product(range(2), range(3)), repeat=2):
            assert xl[3 * a + b, 3 * c + e] == (x[a, c] if b == e else 0)
            assert yl[3 * a + b, 3 * c + e] == (y[b, e] if a == c else 0)


def test_tensor_induced_actions_commute_two_variables():
    rng = random.Random(17)
    m1 = rand_framed_module(rng, F5, 2, 2, 2)
    m2 = rand_framed_module(rng, F5, 2, 2, 1)
    res = tensor_over_S(m1, m2)
    for i in range(2):
        for j in range(i + 1, 2):
            assert res.actions[i] * res.actions[j] == res.actions[j] * res.actions[i]


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10 ** 6))
def test_tensor_dimension_symmetric(seed):
    rng = random.Random(seed)
    m1 = rand_framed_module(rng, F5, 1, rng.randint(1, 3), rng.randint(1, 2))
    m2 = rand_framed_module(rng, F5, 1, rng.randint(1, 3), rng.randint(1, 2))
    assert tensor_over_S(m1, m2).dim12 == tensor_over_S(m2, m1).dim12


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 3))
def test_cyclic_tensor_dim_is_gcd_degree(seed, df, dg):
    rng = random.Random(seed)
    fpoly = UniPoly(F5, [rng.randrange(5) for _ in range(df)] + [1])
    gpoly = UniPoly(F5, [rng.randrange(5) for _ in range(dg)] + [1])
    mf = cyclic_module_univariate(fpoly)
    mg = cyclic_module_univariate(gpoly)
    assert tensor_over_S(mf, mg).dim12 == fpoly.gcd(gpoly).degree


# -- annihilator algebra ------------------------------------------------------------

def test_annihilator_dims():
    m = FramedModule(1, 2, 2, (diag01(),), Matrix.identity(QQ, 2))
    assert annihilator_algebra_dim(m) == 2
    nil = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, 0, 1]))
    assert annihilator_algebra_dim(nil) == 2
    z = FramedModule(2, 2, 2, (Matrix.zeros(QQ, 2, 2), Matrix.zeros(QQ, 2, 2)),
                     Matrix.identity(QQ, 2))
    assert annihilator_algebra_dim(z) == 1


def test_annihilator_of_degenerate_is_one():
    for r in (2, 3):
        a = Matrix.zeros(QQ, 2, r)
        a.entries[0] = QQ.one()
        a.entries[r + 1] = QQ.one()
        m = make_degenerate(2, r, a)
        assert annihilator_algebra_dim(m) == 1


# -- support ---------------------------------------------------------------------

def test_support_values():
    m = FramedModule(1, 2, 2, (diag01(),), Matrix.identity(QQ, 2))
    rep = support_univariate(m)
    assert rep.split and sorted(str(v) for v, _ in rep.points) == ["0", "1"]
    nil = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, 0, 1]))
    rep = support_univariate(nil)
    assert rep.split and rep.points == ((QQ.zero(), 2),)


def test_support_non_split():
    m = cyclic_module_univariate(UniPoly.from_ints(QQ, [1, 0, 1]))   # x^2 + 1
    assert not support_univariate(m).split


def test_support_requires_univariate():
    z = FramedModule(2, 1, 1, (Matrix.zeros(QQ, 1, 1), Matrix.zeros(QQ, 1, 1)),
                     Matrix.identity(QQ, 1))
    with pytest.raises(Exception):
        support_univariate(z)


# -- constructors ------------------------------------------------------------------

def test_make_tuple_of_points_diag():
    m = make_tuple_of_points([QQ.from_int(0), QQ.from_int(1)], Matrix.identity(QQ, 2))
    assert m.X[0] == diag01()
    assert validate_framed(m).ok


def test_make_tuple_cyclic_all_ones():
    m = cyclic_tuple_module([QQ.from_int(0), QQ.from_int(1)], QQ)
    assert m.r == 1
    assert list(m.G.entries) == [QQ.one(), QQ.one()]
    assert validate_framed(m).ok


def test_make_tuple_of_points_plane():
    pts = [(QQ.from_int(0), QQ.from_int(0)), (QQ.from_int(1), QQ.from_int(2))]
    m = make_tuple_of_points(pts, Matrix(QQ, 2, 1, [QQ.one(), QQ.one()]))
    assert m.X[0] == Matrix.diag(QQ, [QQ.from_int(0), QQ.from_int(1)])
    assert m.X[1] == Matrix.diag(QQ, [QQ.from_int(0), QQ.from_int(2)])


def test_make_tuple_duplicate_points_rejected():
    with pytest.raises(ValueError):
        make_tuple_of_points([QQ.from_int(1), QQ.from_int(1)], Matrix.identity(QQ, 2))


def test_make_tuple_non_generating_framing_rejected():
    bad = Matrix.from_int_rows(QQ, [[1, 1], [0, 0]])  # second row zero
    with pytest.raises(ValueError):
        make_tuple_of_points([QQ.from_int(0), QQ.from_int(1)], bad)


def test_make_tuple_round_trip_support():
    pts = [QQ.from_int(c) for c in (-1, 2, 4)]
    m = make_tuple_of_points(pts, Matrix.identity(QQ, 3))
    rep = support_univariate(m)
    assert sorted(v for v, _ in rep.points) == sorted(pts)


def test_make_degenerate_rank_check():
    assert validate_framed(make_degenerate(2, 2, Matrix.identity(QQ, 2))).ok
    wide = Matrix.from_int_rows(QQ, [[1, 0, 0], [0, 1, 0]])
    assert validate_framed(make_degenerate(2, 3, wide)).ok
    with pytest.raises(ValueError):
        make_degenerate(2, 2, Matrix.from_int_rows(QQ, [[1, 1], [1, 1]]))


# -- gauge and serialization ----------------------------------------------------------

def test_gauge_transform_preserves_validity():
    rng = random.Random(11)
    m = rand_framed_module(rng, F5, 1, 2, 2)
    from quotbilin.exactalg import rand_invertible
    g = rand_invertible(rng, F5, 2)
    assert validate_framed(gauge_transform(m, g)).ok


def test_framed_json_round_trip():
    m = make_tuple_of_points([QQ.from_int(0), QQ.from_int(1)], Matrix.identity(QQ, 2))
    assert framed_from_json(framed_to_json(m)) == m


def test_framed_equality_and_hash_follow_matrix_equality():
    one = Matrix(F5, 1, 1, [1])
    a = FramedModule(1, 1, 1, (Matrix(F5, 1, 1, [7]),), one)
    c = FramedModule(1, 1, 1, (Matrix(F5, 1, 1, [2]),), one)
    assert a.X[0] == c.X[0]
    assert a == c and hash(a) == hash(c) and len({a, c}) == 1
    assert a != FramedModule(1, 1, 1, (Matrix(F5, 1, 1, [3]),), one)
    assert a != FramedModule(1, 1, 1, (Matrix(QQ, 1, 1, [2]),), Matrix(QQ, 1, 1, [1]))
