import itertools
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotbilin.exactalg import GF, QQ, Matrix, ShapeError, UniPoly, rand_invertible
from quotbilin.modcore import (
    InvalidPoint,
    cyclic_module_univariate,
    cyclic_tuple_module,
    make_degenerate,
)
from quotbilin.bilin import BilinPoint, degenerate_point, main_component_point
from quotbilin.tensorlab import (
    _binary_quadratic_separable,
    _flattening_ranks,
    _has_sqrt,
    _pencil_form,
    LABEL_GENERIC,
    LABEL_NON_CONCISE,
    LABEL_RANK_ONE,
    LABEL_W_TYPE,
    LABEL_ZERO,
    Tensor3,
    Classification222,
    brute_force_rank_fq,
    classify_2x2x2,
    conciseness,
    hyperdeterminant_222,
    multiplication_tensor,
    rank_one,
    secant_dimension,
    tensor_from_bilin,
    tensor_from_json,
    tensor_to_json,
    unit_tensor,
)
from quotbilin.cases222 import _NAMED, named_tensor
from quotbilin import tensorlab
from quotbilin.exactalg import CERTIFICATE_PRIME, InfeasibleEnumeration
from quotbilin.exactalg.field import _is_prime
from quotbilin.tensorlab import Q_SAMPLE_MAX, _pairing_tensor, _tangent_rows, _terracini_rank
from helpers_tensor import (
    reference_apply_gl,
    reference_flattening,
    reference_pairing_tensor,
    reference_pencil_form,
    reference_secant_per_trial,
)

F2 = GF(2)
F5 = GF(5)


def all_tensors_f2():
    for ents in itertools.product(range(2), repeat=8):
        yield Tensor3(F2, (2, 2, 2), list(ents))


# -- conciseness -----------------------------------------------------------------

def test_unit_tensor_concise():
    assert conciseness(unit_tensor(2, QQ)) == (True, True, True)
    assert conciseness(unit_tensor(3, QQ)) == (True, True, True)


def test_mu3_not_concise_first_factor():
    assert conciseness(named_tensor("mu3", QQ)) == (False, True, True)


def test_zero_tensor_not_concise():
    assert conciseness(Tensor3.zeros(QQ, (2, 2, 2))) == (False, False, False)


# -- tensors from pairing points ----------------------------------------------------

def test_main_point_gives_unit_tensor():
    b = main_component_point([QQ.from_int(0), QQ.from_int(1)],
                             Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    assert tensor_from_bilin(b) == unit_tensor(2, QQ)


def test_degenerate_point_tensor_third_factor_concise():
    b = degenerate_point(2, 2, 2, Matrix.identity(QQ, 2), Matrix.identity(QQ, 2),
                         Matrix.from_int_rows(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    t = tensor_from_bilin(b)
    assert conciseness(t)[2] is True


def test_tensor_from_bilin_rejects_non_points():
    # a framed module is not a pairing point; the check must survive python -O
    with pytest.raises(TypeError, match="BilinPoint"):
        tensor_from_bilin(cyclic_tuple_module([QQ.from_int(0), QQ.from_int(1)], QQ))


def test_tensor_from_bilin_names_the_failed_invariant():
    b = main_component_point([QQ.from_int(0), QQ.from_int(1)],
                             Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    entries = list(b.pihat.entries)
    entries[5] = QQ.one()  # e_0 (x) e_1 now also hits the second coordinate
    bad = BilinPoint(m1=b.m1, m2=b.m2, d3=b.d3, Z=b.Z, pihat=Matrix(QQ, 2, 4, entries))
    with pytest.raises(InvalidPoint, match="invalid pairing point: X-equivariance at index 0"):
        tensor_from_bilin(bad)


# -- classification ---------------------------------------------------------------

@pytest.mark.parametrize("name,rank,border,concise,label", [
    ("mu1", 2, 2, (True, True, True), LABEL_GENERIC),
    ("mu2", 3, 2, (True, True, True), LABEL_W_TYPE),
    ("mu3", 2, 2, (False, True, True), LABEL_NON_CONCISE),
    ("mu4", 2, 2, (True, False, True), LABEL_NON_CONCISE),
])
def test_named_tensor_classification(name, rank, border, concise, label):
    for field in (QQ, F5, F2):
        cls = classify_2x2x2(named_tensor(name, field), check=field.characteristic != 2)
        assert cls.rank == rank
        assert cls.border_rank == border
        assert cls.concise == concise
        assert cls.label == label


def test_classifier_rejects_wrong_dims():
    from quotbilin.exactalg import ShapeError
    with pytest.raises(ShapeError):
        classify_2x2x2(Tensor3.zeros(QQ, (2, 2, 3)))


def test_classify_zero_and_rank_one():
    assert classify_2x2x2(Tensor3.zeros(QQ, (2, 2, 2))).label == LABEL_ZERO
    one = rank_one(QQ, [QQ.one(), QQ.zero()], [QQ.one(), QQ.zero()],
                   [QQ.one(), QQ.zero()])
    cls = classify_2x2x2(one)
    assert cls.label == LABEL_RANK_ONE and cls.rank == 1 and cls.border_rank == 1


def test_classifier_never_emits_border_rank_three():
    for t in all_tensors_f2():
        assert classify_2x2x2(t).border_rank <= 2


def test_classification_invariant_under_basis_change():
    rng = random.Random(123)
    names = ["mu1", "mu2", "mu3", "mu4"]
    for field in (F5, QQ):
        for _ in range(100):
            t = named_tensor(names[rng.randrange(4)], field)
            base = classify_2x2x2(t)
            g1 = rand_invertible(rng, field, 2)
            g2 = rand_invertible(rng, field, 2)
            g3 = rand_invertible(rng, field, 2)
            moved = classify_2x2x2(t.apply_gl(g1, g2, g3))
            assert (moved.rank, moved.border_rank, moved.concise, moved.label) == \
                (base.rank, base.border_rank, base.concise, base.label)


def test_hyperdeterminant_zero_locus_matches_pencil():
    rng = random.Random(5)
    for _ in range(200):
        t = Tensor3(F5, (2, 2, 2), [F5.sample(rng) for _ in range(8)])
        cls = classify_2x2x2(t, check=True)  # raises on disagreement
        if cls.label == LABEL_GENERIC:
            assert not F5.is_zero(hyperdeterminant_222(t))
        if cls.label == LABEL_W_TYPE:
            assert F5.is_zero(hyperdeterminant_222(t))


def reference_classify_2x2x2(t: Tensor3) -> Classification222:
    """classify_2x2x2 as it was with conciseness() taken separately from the
    three flattening ranks (six eliminations per tensor) and the pencil form
    read from the slice matrices."""
    f = t.field
    concise = conciseness(t)
    ranks = tuple(t.flattening(k).rank() for k in (1, 2, 3))
    if t.is_zero():
        return Classification222(rank=0, border_rank=0, concise=concise, label=LABEL_ZERO)
    if all(r == 1 for r in ranks):
        return Classification222(rank=1, border_rank=1, concise=concise, label=LABEL_RANK_ONE)
    if min(ranks) == 1:
        return Classification222(rank=2, border_rank=2, concise=concise,
                                 label=LABEL_NON_CONCISE)
    alpha, beta, gamma = reference_pencil_form(t)
    separable, split = _binary_quadratic_separable(f, alpha, beta, gamma)
    if separable:
        return Classification222(rank=2, border_rank=2, concise=concise,
                                 label=LABEL_GENERIC, pencil_separable=True,
                                 pencil_split=split)
    return Classification222(rank=3, border_rank=2, concise=concise,
                             label=LABEL_W_TYPE, pencil_separable=False,
                             pencil_split=split)


def tensor_entries(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2]))
    # small supports make the non-concise and zero cases common
    return st.sampled_from([0, 0, 0, 1, field.p - 1, 2])


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([GF(3), F5, QQ]), st.data())
def test_classify_derives_conciseness_from_its_ranks(field, data):
    t = Tensor3(field, (2, 2, 2), data.draw(st.lists(tensor_entries(field),
                                                     min_size=8, max_size=8)))
    cls = classify_2x2x2(t)
    assert cls.concise == conciseness(t)
    assert cls == reference_classify_2x2x2(t)


def assert_coefficient_reads_match(t: Tensor3):
    f = t.field
    assert _flattening_ranks(t) == tuple(t.flattening(k).rank() for k in (1, 2, 3))
    assert all(f.eq(x, y) for x, y in zip(_pencil_form(t), reference_pencil_form(t)))


@pytest.mark.parametrize("q", [2, 3])
def test_minor_ranks_and_pencil_form_on_every_tensor(q):
    field = GF(q)
    for ents in itertools.product(range(q), repeat=8):
        assert_coefficient_reads_match(Tensor3(field, (2, 2, 2), list(ents)))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([GF(101), QQ]), st.data())
def test_minor_ranks_and_pencil_form_match_eliminations(field, data):
    entries = data.draw(st.lists(tensor_entries(field), min_size=8, max_size=8))
    # rank-one and rank-two flattenings: a multiple of one slice in the other
    if data.draw(st.booleans()):
        c = data.draw(tensor_entries(field))
        entries[4:] = [field.mul(c, x) for x in entries[:4]]
    assert_coefficient_reads_match(Tensor3(field, (2, 2, 2), entries))


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_has_sqrt_matches_a_scan_of_the_squares(p):
    f = GF(p)
    squares = {f.mul(a, a) for a in f.elements()}
    for v in f.elements():
        assert _has_sqrt(f, v) == (v in squares)
    assert _has_sqrt(f, p + 1) and _has_sqrt(f, -1) == ((p - 1) in squares)


# -- rank bounds against brute force -------------------------------------------------

def test_flattening_bound_and_field_rank_on_all_f2_tensors():
    divergent = []
    for t in all_tensors_f2():
        cls = classify_2x2x2(t)
        max_flat = max(t.flattening(k).rank() for k in (1, 2, 3))
        assert max_flat <= cls.rank
        b = brute_force_rank_fq(t, 2, 4)
        assert b is not None
        assert cls.rank <= b
        if b != cls.rank:
            divergent.append((t, cls, b))
    # geometric rank 2 with an irreducible (non-split) separable pencil is
    # exactly where the field rank exceeds the geometric rank
    for t, cls, b in divergent:
        assert cls.label == LABEL_GENERIC
        assert cls.pencil_split is False
        assert (cls.rank, b) == (2, 3)


def test_brute_force_examples():
    assert brute_force_rank_fq(Tensor3.zeros(F2, (2, 2, 2)), 2, 3) == 0
    e = rank_one(F2, [1, 0], [1, 0], [1, 0])
    assert brute_force_rank_fq(e, 2, 3) == 1
    assert brute_force_rank_fq(named_tensor("mu1", F2), 2, 3) == 2
    assert brute_force_rank_fq(named_tensor("mu2", F2), 2, 3) == 3
    assert brute_force_rank_fq(named_tensor("mu2", F2), 2, 2) is None


def test_brute_force_cap_guard():
    from quotbilin.tensorlab import InfeasibleEnumeration
    with pytest.raises(InfeasibleEnumeration):
        brute_force_rank_fq(Tensor3.zeros(GF(5), (3, 3, 3)), 5, 2, cap=1000)


# -- unit and multiplication tensors ----------------------------------------------------

def test_unit_tensor_is_mu1():
    assert unit_tensor(2, QQ) == named_tensor("mu1", QQ)


def test_multiplication_tensor_nilpotent_is_mu2():
    m = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, 0, 1]))
    assert multiplication_tensor(m) == named_tensor("mu2", QQ)


def test_multiplication_tensor_point():
    m = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, 1]))
    t = multiplication_tensor(m)
    assert t.dims == (1, 1, 1)
    assert t.coeffs == [QQ.one()]


def test_multiplication_tensor_split_is_unit_up_to_basis():
    m = cyclic_tuple_module([QQ.from_int(0), QQ.from_int(1)], QQ)
    cls = classify_2x2x2(multiplication_tensor(m))
    assert cls.label == LABEL_GENERIC and cls.rank == 2


def test_multiplication_tensor_needs_cyclic_generator():
    m = make_degenerate(2, 2, Matrix.identity(QQ, 2))
    with pytest.raises(ValueError):
        multiplication_tensor(m)


# -- secant dimensions ---------------------------------------------------------------------

def test_secant_fills_for_two_points():
    rep = secant_dimension(2, 2, trials=5, seed=0)
    assert rep.terracini_dim == 7 == rep.ambient
    assert rep.fills_ambient
    assert all(v == 7 for v in rep.per_trial)


def test_secant_bound_blocks_three_points():
    rep = secant_dimension(3, 3, trials=5, seed=0)
    assert rep.bound == 20 < rep.ambient == 26
    assert not rep.fills_ambient
    assert rep.terracini_dim <= rep.bound


def test_secant_segre_itself():
    rep = secant_dimension(2, 1, trials=3, seed=0)
    assert rep.terracini_dim == 3


@pytest.mark.parametrize("trials", [0, -1])
def test_secant_needs_a_trial(trials):
    with pytest.raises(ValueError, match="trials"):
        secant_dimension(2, 2, trials=trials)


@pytest.mark.parametrize("d,r", [(2, 2), (3, 3)])
def test_secant_stops_at_the_first_trial_reaching_the_bound(d, r):
    rep = secant_dimension(d, r, trials=5, seed=0)
    assert rep.per_trial == [rep.bound]
    assert rep.terracini_dim == rep.bound


def test_secant_defective_case_runs_every_trial():
    # sigma_4 of P^2 x P^2 x P^2 is defective: expected 26, actual 25.
    rep = secant_dimension(3, 4, trials=5, seed=0)
    assert rep.bound == 26 == rep.ambient
    assert rep.per_trial == [25] * 5
    assert rep.terracini_dim == 25 and not rep.fills_ambient


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 5), st.sampled_from([QQ, GF(101)]))
def test_secant_per_trial_matches_the_rank_one_rows(d, r, seed, field):
    rep = secant_dimension(d, r, trials=5, seed=seed, field=field)
    assert rep.per_trial == reference_secant_per_trial(d, r, 5, seed, field)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tangent_rows_are_the_rank_one_tangents_and_span_3d_minus_2(d):
    # b is zero but for its last coordinate and c is nonzero at its first, so
    # the dropped rows are a (x) e_(d-1) (x) c and a (x) b (x) e_0.
    rng = random.Random(d)
    a = [rng.randint(-9, 9) for _ in range(d)]
    b = [0] * (d - 1) + [rng.randint(1, 9)]
    c = [rng.randint(-9, -1)] + [rng.randint(-9, 9) for _ in range(d - 1)]
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    expected = []
    for i, e in enumerate(eye):
        expected.append(rank_one(QQ, e, b, c).coeffs)
        if i != d - 1:
            expected.append(rank_one(QQ, a, e, c).coeffs)
        if i != 0:
            expected.append(rank_one(QQ, a, b, e).coeffs)
    rows = _tangent_rows(a, b, c)
    assert rows == expected
    if any(a):
        assert Matrix.from_int_rows(QQ, rows).rank() == len(rows) == 3 * d - 2


def test_tangent_rows_need_nonzero_factors():
    with pytest.raises(ValueError):
        _tangent_rows([1, 2], [0, 0], [1, 1])
    with pytest.raises(ValueError):
        _tangent_rows([1, 2], [1, 1], [0, 0])


def _nonzero_vector(field, d):
    # Over F_p: residues with zero coordinates allowed; over Q: small
    # integers of either sign, zeros included.
    elem = st.integers(-9, 9) if field is QQ else st.integers(0, field.p - 1)
    return st.lists(elem, min_size=d, max_size=d).filter(any)


@st.composite
def segre_points(draw):
    field = draw(st.sampled_from([QQ, GF(3), GF(101)]))
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, 4))
    vec = _nonzero_vector(field, d)
    return field, d, [(draw(vec), draw(vec), draw(vec)) for _ in range(r)]


@settings(deadline=None, max_examples=150)
@given(segre_points())
def test_trimmed_tangent_rows_have_the_rank_of_all_3d_rows(case):
    field, d, points = case
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    trimmed, full = [], []
    for a, b, c in points:
        trimmed += _tangent_rows(a, b, c)
        for e in eye:
            full += [rank_one(field, e, b, c).coeffs, rank_one(field, a, e, c).coeffs,
                     rank_one(field, a, b, e).coeffs]
    assert len(trimmed) == len(points) * (3 * d - 2)
    assert (Matrix.from_int_rows(field, trimmed).rank()
            == Matrix.from_rows(field, full).rank())


@pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=["Q", "F3", "F101"])
@pytest.mark.parametrize("d,r", [(2, 2), (3, 3), (4, 4), (3, 5), (3, 4)])
def test_secant_per_trial_matches_the_reference_at_seeds_0_to_2(d, r, field):
    for seed in range(3):
        rep = secant_dimension(d, r, trials=5, seed=seed, field=field)
        assert rep.per_trial == reference_secant_per_trial(d, r, 5, seed, field)


def test_terracini_rank_falls_back_to_q_when_the_prime_drops_rank():
    rows = [[1, 0, 3], [0, CERTIFICATE_PRIME, 2 * CERTIFICATE_PRIME]]
    assert _terracini_rank(GF(CERTIFICATE_PRIME), rows, 3, 2) == 1
    assert _terracini_rank(QQ, rows, 3, 2) == 2
    assert _terracini_rank(GF(5), rows, 3, 2) == 2


def test_certificate_prime_lies_above_the_q_sampling_window():
    # secant_dimension's docstring relies on every sampled coordinate being
    # a unit mod the prime.
    assert _is_prime(CERTIFICATE_PRIME)
    assert CERTIFICATE_PRIME > Q_SAMPLE_MAX


class RowsBuilt(Exception):
    pass


def _refuse_rows(*args):
    raise RowsBuilt


# Every README example and every ladder rung, with 5 trials, and the
# perfbench shapes (4, 4) and (3, 5).
ADMITTED = [(2, 2), (3, 3), (3, 4), (4, 4), (3, 5), (5, 5), (6, 7), (7, 9), (8, 11), (9, 13)]


@pytest.mark.parametrize("d,r", ADMITTED)
def test_the_default_secant_cap_admits_the_documented_shapes(monkeypatch, d, r):
    monkeypatch.setattr(tensorlab, "_tangent_rows", _refuse_rows)
    with pytest.raises(RowsBuilt):
        secant_dimension(d, r, trials=5)


@pytest.mark.parametrize("d,r,trials,cap", [
    (30, 200, 5, 2_000_000), (3, 4, 10 ** 9, 2_000_000), (9, 13, 9, 2_000_000),
    (3, 3, 1, 3 * 7 * 27 - 1),
])
def test_secant_cap_refuses_before_building_a_row(monkeypatch, d, r, trials, cap):
    monkeypatch.setattr(tensorlab, "_tangent_rows", _refuse_rows)
    with pytest.raises(InfeasibleEnumeration, match="exceed cap"):
        secant_dimension(d, r, trials=trials, cap=cap)


def test_secant_cap_counts_the_entries_of_every_trial():
    assert secant_dimension(3, 3, trials=1, cap=3 * 7 * 27).per_trial == [20]


def test_secant_monotone_in_r():
    prev = -1
    for r in range(1, 5):
        rep = secant_dimension(3, r, trials=3, seed=7)
        assert rep.terracini_dim >= prev
        assert rep.terracini_dim <= rep.bound
        prev = rep.terracini_dim


# -- serialization ---------------------------------------------------------------------------

def test_equal_tensors_hash_equal():
    a = Tensor3(F5, (1, 1, 2), [7, -1])
    b = Tensor3(F5, (1, 1, 2), [2, 4])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_tensors_over_different_fields_are_unequal():
    q, f2 = Tensor3.zeros(QQ, (1, 1, 1)), Tensor3.zeros(F2, (1, 1, 1))
    assert q not in [f2] and q != f2
    assert len({q, f2}) == 2


def test_tensor_json_round_trip():
    t = named_tensor("mu2", F5)
    obj = tensor_to_json(t)
    assert obj["dims"] == [2, 2, 2]
    assert tensor_from_json(obj) == t


# Coefficients of the named tensors as tensor_to_json wrote them before a
# tensor was stored as its third flattening; the families at t = 0 and t = 3.
NAMED_COEFFS = {
    "mu1": "10000001", "mu2": "10010100", "mu3": "10010000", "mu4": "10000100",
    "pi5_sample": "10010000",
    "mu2_t": ("10010100", "10010103"), "mu3_t": ("10010000", "10010003"),
    "mu4_t": ("10000100", "10000103"),
}


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=lambda f: f.name)
def test_named_tensor_json_is_unchanged(field):
    assert set(NAMED_COEFFS) == set(_NAMED)
    for name, coeffs in NAMED_COEFFS.items():
        t = named_tensor(name, field)
        if isinstance(coeffs, tuple):
            tensors = [t.evaluate(field.from_int(t0)) for t0 in (0, 3)]
        else:
            tensors, coeffs = [t], (coeffs,)
        for t, digits in zip(tensors, coeffs):
            expected = {"field": field.name, "dims": [2, 2, 2],
                        "coeffs": [field.fmt(field.from_int(int(c))) for c in digits]}
            assert json.dumps(tensor_to_json(t)) == json.dumps(expected)


def test_multiplication_tensor_json_is_unchanged():
    # The tuple module's cyclic basis (1, x, x^2 applied to the all-ones
    # framing) is not the standard one, so the change of basis is exercised.
    t = multiplication_tensor(cyclic_tuple_module([QQ.from_int(v) for v in (0, 1, 3)], QQ))
    assert tensor_to_json(t)["coeffs"] == [
        "1", "0", "0", "0", "1", "0", "0", "0", "1", "0", "1", "0", "0", "0", "1",
        "0", "-3", "4", "0", "0", "1", "0", "-3", "4", "0", "-12", "13"]
    t = multiplication_tensor(cyclic_module_univariate(UniPoly.from_ints(F5, [2, 3, 1, 1])))
    assert tensor_to_json(t)["coeffs"] == [
        "1", "0", "0", "0", "1", "0", "0", "0", "1", "0", "1", "0", "0", "0", "1",
        "3", "2", "4", "0", "0", "1", "3", "2", "4", "2", "1", "3"]


# -- the Matrix-backed operations against per-index references ------------------------

def field_entries(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2]))
    return st.integers(0, field.p - 1)


def draw_matrix(data, field, rows, cols):
    return Matrix(field, rows, cols, data.draw(st.lists(field_entries(field), min_size=rows * cols,
                                                        max_size=rows * cols)))


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([QQ, F2, F5]), st.tuples(*[st.integers(1, 3)] * 3), st.data())
def test_matrix_backed_operations_equal_the_per_index_references(field, dims, data):
    d1, d2, d3 = dims
    t = Tensor3(field, dims, draw_matrix(data, field, 1, d1 * d2 * d3).entries)
    u = Tensor3(field, dims, draw_matrix(data, field, 1, d1 * d2 * d3).entries)
    for factor in (1, 2, 3):
        flat = t.flattening(factor)
        ref = reference_flattening(t, factor)
        assert (flat.rows, flat.cols) == (ref.rows, ref.cols) and flat == ref
    g1, g2, g3 = (draw_matrix(data, field, d, d) for d in dims)
    moved = t.apply_gl(g1, g2, g3)
    assert moved.dims == dims and moved == reference_apply_gl(t, g1, g2, g3)
    c = data.draw(field_entries(field))
    f = field
    assert (t + u).coeffs == [f.add(a, b) for a, b in zip(t.coeffs, u.coeffs)]
    assert (t - u).coeffs == [f.sub(a, b) for a, b in zip(t.coeffs, u.coeffs)]
    assert t.scale(c).coeffs == [f.mul(c, a) for a in t.coeffs]
    assert t.is_zero() == all(f.is_zero(a) for a in t.coeffs)
    assert (t == u) == all(f.eq(a, b) for a, b in zip(t.coeffs, u.coeffs))
    shifted = Tensor3(field, dims, [a + f.characteristic for a in t.coeffs])
    assert shifted == t and hash(shifted) == hash(t)
    # _pairing_tensor reads only the dimensions and the d3 x d1*d2 pairing lift.
    point = SimpleNamespace(field=field, m1=SimpleNamespace(d=d1), m2=SimpleNamespace(d=d2),
                            d3=d3, pihat=draw_matrix(data, field, d3, d1 * d2))
    assert _pairing_tensor(point) == reference_pairing_tensor(point)
    assert _pairing_tensor(point).coeffs == reference_pairing_tensor(point).coeffs


def test_pairing_tensor_equals_the_reference_at_points():
    g = Matrix.from_int_rows(QQ, [[1, 2], [0, 1], [3, 1]])
    points = [
        main_component_point([QQ.from_int(v) for v in (0, 1, 3)], g,
                             Matrix.from_int_rows(QQ, [[1, 0], [1, 1], [2, 5]])),
        degenerate_point(2, 2, 2, Matrix.identity(QQ, 2), Matrix.identity(QQ, 2),
                         Matrix.from_int_rows(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]])),
    ]
    for b in points:
        t = tensor_from_bilin(b)
        assert t.coeffs == reference_pairing_tensor(b).coeffs
        assert t.flattening(3) == b.pihat.transpose()


def test_flattening_shape_is_checked():
    with pytest.raises(ShapeError):
        Tensor3.from_flat((2, 1, 2), Matrix.zeros(QQ, 1, 4))
    with pytest.raises(ShapeError):
        Tensor3(QQ, (2, 2, 2), [QQ.zero()] * 7)
    with pytest.raises(ShapeError):
        Tensor3.zeros(QQ, (1, 2, 2)) + Tensor3.zeros(QQ, (2, 1, 2))
