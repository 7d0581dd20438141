"""The incremental echelon engine against full re-elimination.

``EchelonBasis`` replaces loops that re-ran a full rref of a growing matrix
for every candidate vector, and ``kernel_mod_span`` the greedy choice of
tangent representatives by such a loop; these tests pin their answers to
that old behaviour: ranks, membership, kernel bases and the greedy tangent
representatives.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
import hypothesis.strategies as st

from quotbilin import quot
from quotbilin.bilin import (
    bilin_tangent,
    degenerate_point,
    extract_hom_triple,
    main_component_point,
)
from quotbilin.exactalg import (
    CERTIFICATE_PRIME,
    GF,
    QQ,
    EchelonBasis,
    Matrix,
    ShapeError,
    kernel_mod_span,
    rand_invertible,
    rank_and_kernel,
    solve,
    solve_with_rank,
)
from quotbilin.exactalg import matrix
from quotbilin.exactalg.matrix import _cleared, _eliminate, _modular_right_pivots
from quotbilin.modcore import rand_framed_module
from quotbilin.quot import quot_tangent

from helpers_echelon import ReferenceEchelonBasis, full_rref_greedy, reference_kernel

FIELDS = [QQ, GF(2), GF(3), GF(101)]


def solve_in_span(vectors, v, field):
    """Membership by one exact solve of (vectors as columns) x = v."""
    if not vectors:
        return all(field.is_zero(x) for x in v)
    a = Matrix.from_rows(field, [list(w) for w in vectors]).transpose()
    return solve(a, Matrix.column(field, list(v))) is not None


def rank_of(vectors, field):
    return Matrix.from_rows(field, [list(w) for w in vectors]).rank() if vectors else 0


def random_vectors(rng, field, count, dim, rank_cap):
    """Vectors drawn from a random subspace of dimension <= rank_cap, mixed
    with zero vectors and repeats, so spans are usually rank-deficient."""
    gens = [[field.sample(rng) for _ in range(dim)] for _ in range(rank_cap)]
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            out.append(tuple([field.zero()] * dim))
        elif kind < 0.3 and out:
            out.append(rng.choice(out))
        else:
            v = [field.zero()] * dim
            for g in gens:
                c = field.sample(rng)
                v = [field.add(a, field.mul(c, b)) for a, b in zip(v, g)]
            out.append(tuple(v))
    return out


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS), st.integers(0, 6),
       st.integers(0, 7), st.integers(0, 5))
def test_echelon_basis_matches_rank_and_solve(seed, field, dim, count, rank_cap):
    rng = random.Random(seed)
    vectors = random_vectors(rng, field, count, dim, rank_cap)
    probes = random_vectors(rng, field, 4, dim, rank_cap + 1)
    span = EchelonBasis(field, dim)
    for i, v in enumerate(vectors):
        before = vectors[:i]
        assert span.contains(v) == solve_in_span(before, v, field)
        assert span.insert(v) == (rank_of(vectors[:i + 1], field) > rank_of(before, field))
        assert len(span) == rank_of(vectors[:i + 1], field)
    assert not any(span.insert(v) for v in vectors)
    for w in probes + vectors:
        inside = solve_in_span(vectors, w, field)
        assert span.contains(w) == inside
        red = span.reduce(w)
        assert all(field.is_zero(red[pc]) for pc in span.pivots)
        # w - reduce(w) lies in the span, and reduce(w) is zero iff w does
        diff = tuple(field.sub(a, b) for a, b in zip(w, red))
        assert solve_in_span(vectors, diff, field)
        assert all(field.is_zero(x) for x in red) == inside


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS), st.integers(0, 6),
       st.integers(0, 7), st.integers(0, 5))
def test_insert_reduced_stores_what_insert_stores(seed, field, dim, count, rank_cap):
    # Storing reduce(v) is storing v: the same pivots, and the same rows up
    # to sign (over Q a primitive row has two signs; over F_p pivot 1 fixes
    # it), so every later residue is the same.
    rng = random.Random(seed)
    vectors = random_vectors(rng, field, count, dim, rank_cap)
    plain, reduced = EchelonBasis(field, dim), EchelonBasis(field, dim)
    for v in vectors:
        assert reduced.reduce(v) == plain.reduce(v)
        assert reduced.insert_reduced(reduced.reduce(v)) == plain.insert(v)
        assert reduced.pivots == plain.pivots
        for a, b in zip(reduced.rows, plain.rows):
            assert a == b if field.characteristic else a in (b, [-x for x in b])
    assert all(type(x) is int for row in reduced.rows for x in row)


def test_echelon_basis_rejects_wrong_length():
    for field in FIELDS:
        span = EchelonBasis(field, 3, [(field.one(), field.zero(), field.zero())])
        for method in (span.reduce, span.contains, span.insert):
            for v in [(field.one(), field.zero()), (field.one(),) * 4]:
                with pytest.raises(ShapeError):
                    method(v)
        assert len(span) == 1


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS), st.integers(1, 5),
       st.integers(1, 5), st.integers(0, 4))
def test_solve_with_rank_is_solve_plus_rank(seed, field, rows, cols, rank_cap):
    rng = random.Random(seed)
    a = Matrix.from_rows(field, [list(v) for v in random_vectors(rng, field, rows, cols, rank_cap)])
    b = Matrix.column(field, [field.sample(rng) for _ in range(rows)])
    x, rank = solve_with_rank(a, b)
    assert x == solve(a, b)
    assert rank == rank_and_kernel(a)[0]


# -- greedy tangent representatives ------------------------------------------------

def _main_point(field, d, seed):
    rng = random.Random(seed)
    points = [field.from_int(v) for v in rng.sample(range(-9, 10), d)]
    return main_component_point(points, rand_invertible(rng, field, d),
                                rand_invertible(rng, field, d))


def _degenerate_d3():
    pi = Matrix(QQ, 3, 9, [QQ.one() if j == 4 * i else QQ.zero()
                           for i in range(3) for j in range(9)])
    return degenerate_point(3, 3, 3, Matrix.identity(QQ, 3), Matrix.identity(QQ, 3), pi)


TANGENT_CASES = {
    "quot-Q-d3": lambda: quot_tangent(rand_framed_module(random.Random(0), QQ, 1, 3, 2)),
    "quot-Q-d4": lambda: quot_tangent(rand_framed_module(random.Random(1), QQ, 1, 4, 2)),
    "bilin-main-Q-d3": lambda: bilin_tangent(_main_point(QQ, 3, 0)),
    "bilin-main-F101-d3": lambda: bilin_tangent(_main_point(GF(101), 3, 1)),
    # d = 4: first-order systems of 128 x 144 entries, on sparse rows.
    "bilin-main-Q-d4": lambda: bilin_tangent(_main_point(QQ, 4, 0)),
    "bilin-main-F101-d4": lambda: bilin_tangent(_main_point(GF(101), 4, 1)),
    "bilin-degenerate-Q-d3": lambda: bilin_tangent(_degenerate_d3()),
}


@pytest.mark.parametrize("case", sorted(TANGENT_CASES))
def test_tangent_representatives_equal_full_rref_greedy(monkeypatch, case):
    calls = []
    engine = quot.kernel_mod_span

    def spy(m, vectors):
        nullity, reps = engine(m, vectors)
        calls.append((m, vectors, nullity, reps))
        return nullity, reps

    monkeypatch.setattr(quot, "kernel_mod_span", spy)
    report = TANGENT_CASES[case]()
    (m, gauge, nullity, reps), = calls
    kernel = reference_kernel(m)
    assert nullity == report.nullity == len(kernel)
    assert reps == full_rref_greedy(kernel, gauge, m.field)
    assert len(reps) == report.dim == len(report.basis)


@st.composite
def kernel_and_gauge(draw):
    """A random matrix over Q, F_3 or F_101, often rank-deficient, and a
    "gauge" of random combinations of its reference kernel basis; the
    combinations are dependent when there are more of them than the
    nullity, and sometimes otherwise."""
    field = draw(st.sampled_from([QQ, GF(3), GF(101)]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    vectors = random_vectors(rng, field, rows, cols, draw(st.integers(0, 5)))
    m = Matrix(field, rows, cols, [x for v in vectors for x in v])
    kernel = reference_kernel(m)
    gauge = []
    for _ in range(draw(st.integers(0, len(kernel) + 1))):
        v = [field.zero()] * cols
        for w in kernel:
            if rng.random() < 0.6:
                c = field.sample(rng)
                v = [field.add(a, field.mul(c, b)) for a, b in zip(v, w)]
        gauge.append(tuple(v))
    return m, gauge


@settings(deadline=None, max_examples=150)
@given(kernel_and_gauge())
def test_kernel_mod_span_equals_the_reference_greedy(inputs):
    m, gauge = inputs
    field = m.field
    kernel = reference_kernel(m)
    assert rank_and_kernel(m) == (m.cols - len(kernel), kernel)
    if rank_of(gauge, field) < len(gauge):
        with pytest.raises(ArithmeticError):
            kernel_mod_span(m, gauge)
    else:
        assert kernel_mod_span(m, gauge) == (len(kernel), full_rref_greedy(kernel, gauge, field))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(101)], ids=lambda f: f.name)
def test_kernel_mod_span_rejects_a_dependent_gauge(field):
    m = Matrix.from_int_rows(field, [[1, 1, 0, 0]])
    kernel = rank_and_kernel(m)[1]
    twice = tuple(field.add(x, x) for x in kernel[0])
    assert kernel_mod_span(m, [kernel[0], kernel[1]])[0] == 3
    for gauge in ([kernel[0], twice], [kernel[1], kernel[1]], [tuple([field.zero()] * 4)]):
        with pytest.raises(ArithmeticError):
            kernel_mod_span(m, gauge)


# -- the modular right pivots of an empty system's gauge ---------------------------

P = CERTIFICATE_PRIME


def _empty_system_case(restricted):
    """An empty system over Q whose gauge restricts to the given rows
    (every column is free, so restricting reverses each vector)."""
    ncols = len(restricted[0])
    return Matrix(QQ, 0, ncols, []), [tuple(reversed(row)) for row in restricted]


def _exact_kernel_mod_span(m, gauge):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "_MODULAR_GAUGE_MIN", float("inf"))
        return kernel_mod_span(m, gauge)


def _pivots_mod_p(restricted, ncols):
    return _eliminate(GF(P), [_cleared(row)[0] for row in restricted], ncols, reduced=False)[1]


def _accept_any_full_rank(restricted, ncols):
    """A mutant of ``_modular_right_pivots`` that takes every full-rank
    pivot set mod P, prefix or not."""
    pivots = _pivots_mod_p(restricted, ncols)
    if len(pivots) == len(restricted):
        return pivots
    return _eliminate(QQ, restricted, ncols, reduced=False)[1]


# Restricted gauge rows whose leading block is singular mod P but not over Q:
# the mod-P pivots skip column k - 1 and take column k, the Q pivots are the
# prefix.  With fractional entries, so the rows are cleared first.
def _p_divides_the_minor(k):
    rows = [[int(i == j) for j in range(k + 2)] for i in range(k - 1)]
    rows.append([0] * (k - 1) + [Fraction(P, 2), Fraction(1, 3), 0])
    return rows


@pytest.mark.parametrize("k", [2, 64])
def test_modular_pivots_fall_back_when_p_divides_the_leading_minor(k):
    m, gauge = _empty_system_case(_p_divides_the_minor(k))
    restricted = [list(reversed(v)) for v in gauge]
    assert _pivots_mod_p(restricted, k + 2) == list(range(k - 1)) + [k]
    assert _modular_right_pivots(restricted, k + 2) == list(range(k))
    # Q pivots 0..k-1 exclude the free columns k+1, ..., 2: e_0 and e_1 are kept.
    want = (k + 2, [tuple(int(j == i) for j in range(k + 2)) for i in (0, 1)])
    assert _exact_kernel_mod_span(m, gauge) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "_MODULAR_GAUGE_MIN", 1)
        assert kernel_mod_span(m, gauge) == want


def test_accepting_any_full_rank_modular_pivots_fails(monkeypatch):
    # The mutation the prefix rule guards against: at 64 vectors, the real
    # threshold, a rule taking the full-rank mod-P pivots keeps e_0 and e_2.
    m, gauge = _empty_system_case(_p_divides_the_minor(64))
    monkeypatch.setattr(matrix, "_modular_right_pivots", _accept_any_full_rank)
    assert kernel_mod_span(m, gauge) != _exact_kernel_mod_span(m, gauge)


def _spy_eliminations(monkeypatch):
    """Record (field, rows, columns) of every elimination."""
    calls = []
    real = matrix._eliminate

    def spy(field, rows, ncols, reduced):
        calls.append((field.name, len(rows), ncols))
        return real(field, rows, ncols, reduced)

    monkeypatch.setattr(matrix, "_eliminate", spy)
    return calls


def test_modular_prefix_takes_no_exact_elimination(monkeypatch):
    rows = [[Fraction(i + 1, j + 2) if j >= i else 0 for j in range(70)] for i in range(64)]
    m, gauge = _empty_system_case(rows)
    want = _exact_kernel_mod_span(m, gauge)
    calls = _spy_eliminations(monkeypatch)
    assert kernel_mod_span(m, gauge) == want
    # The empty system itself, then the gauge mod P only.
    assert calls == [("Q", 0, 70), (f"F:{P}", 64, 70)]


def test_modular_non_prefix_eliminates_exactly_up_to_its_last_pivot(monkeypatch):
    m, gauge = _empty_system_case(_p_divides_the_minor(64))
    calls = _spy_eliminations(monkeypatch)
    kernel_mod_span(m, gauge)
    assert calls == [("Q", 0, 66), (f"F:{P}", 64, 66), ("Q", 64, 65)]


def test_modular_pivots_only_for_large_empty_systems_over_q(monkeypatch):
    rows = [[Fraction(i + 1, j + 2) if j >= i else 0 for j in range(70)] for i in range(64)]
    m, gauge = _empty_system_case(rows)
    calls = _spy_eliminations(monkeypatch)
    kernel_mod_span(m, gauge[:63])
    kernel_mod_span(Matrix(GF(101), 0, 70, []), [[x % 101 for x in _cleared(v)[0]] for v in gauge])
    kernel_mod_span(Matrix(QQ, 1, 71, [0] * 71), [v + (0,) for v in gauge])
    assert f"F:{P}" not in {field for field, _, _ in calls}


def _gauge_entries():
    """Entries that are often zero or multiples of P (in numerator or
    denominator), so the leading block is often singular mod P, over Q or
    both."""
    return st.one_of(
        st.just(0),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7])),
        st.builds(lambda a, b: Fraction(a * P, b), st.integers(-3, 3), st.sampled_from([1, 5])),
        st.builds(lambda a: Fraction(a, P), st.integers(1, 3)),
    )


@st.composite
def empty_system_gauges(draw):
    """Up to 6 restricted rows of up to 8 rational entries; some rows are
    combinations of others, so some gauges are dependent."""
    ncols = draw(st.integers(1, 8))
    k = draw(st.integers(1, 6))
    rows = []
    for _ in range(k):
        if len(rows) >= 2 and draw(st.booleans()) and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_gauge_entries()), draw(_gauge_entries())
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(_gauge_entries(), min_size=ncols, max_size=ncols)))
    return rows


@settings(deadline=None, max_examples=300)
@given(empty_system_gauges())
def test_modular_pivots_equal_the_exact_path(rows):
    m, gauge = _empty_system_case(rows)
    kernel = reference_kernel(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "_MODULAR_GAUGE_MIN", 1)
        if rank_of(gauge, QQ) < len(gauge):
            with pytest.raises(ArithmeticError):
                kernel_mod_span(m, gauge)
            return
        got = kernel_mod_span(m, gauge)
    assert got == _exact_kernel_mod_span(m, gauge) == (m.cols, full_rref_greedy(kernel, gauge, QQ))
    # Both outcomes occur: an accepted prefix, and a fallback whose Q pivots
    # are or are not the prefix.
    exact = _eliminate(QQ, rows, m.cols, reduced=False)[1]
    assert _modular_right_pivots(rows, m.cols) == exact
    modular = _pivots_mod_p(rows, m.cols)
    prefix = list(range(len(rows)))
    event(f"mod P {'prefix' if modular == prefix else 'full rank' if len(modular) == len(rows) else 'rank deficient'}, "
          f"Q {'prefix' if exact == prefix else 'non-prefix'}")


# -- against the engine with one Field call per entry -------------------------------

def _entry(draw, field):
    """A field value as callers pass it: over F_p any int, also outside
    [0, p); over Q a Fraction, often with a denominator."""
    if field.characteristic:
        p = field.characteristic
        return draw(st.integers(-2 * p, 3 * p))
    return Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))


@st.composite
def echelon_inputs(draw):
    """A field, a dimension 0-7 and vectors mixing fresh ones, zero vectors
    and combinations of earlier ones (so that inserts are also refused)."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(0, 7))
    vectors = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combination"]))
        if kind == "zero":
            vectors.append([field.zero()] * dim)
        elif kind == "combination" and vectors:
            v = [field.zero()] * dim
            for w in draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3)):
                c = _entry(draw, field)
                v = [field.add(a, field.mul(c, b)) for a, b in zip(v, w)]
            vectors.append(v)
        else:
            vectors.append([_entry(draw, field) for _ in range(dim)])
    return field, dim, vectors


@settings(deadline=None, max_examples=150)
@given(echelon_inputs())
def test_echelon_basis_matches_the_per_entry_engine(inputs):
    field, dim, vectors = inputs
    span, ref = EchelonBasis(field, dim), ReferenceEchelonBasis(field, dim)
    for v in vectors:
        for probe in vectors:
            # Canonical residues over F_p, also where the reference passes v through.
            assert span.reduce(probe) == [field.canonical(x) for x in ref.reduce(probe)]
            assert span.contains(probe) == ref.contains(probe)
        assert span.insert(v) == ref.insert(v)
        assert len(span) == len(ref) and span.pivots == ref.pivots


TANGENT_FIELDS = {"Q": QQ, "F101": GF(101)}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("field_name", sorted(TANGENT_FIELDS))
def test_tangent_bases_equal_the_per_entry_engine(monkeypatch, field_name, seed):
    # The deformation-side tangent elimination does not use EchelonBasis; the
    # Hom side does, through the Krylov relations of kernel_presentation.
    # So compare a quot module's presentation and each bilin tangent vector
    # as a homomorphism triple, whose maps act on three presentations made there.
    field = TANGENT_FIELDS[field_name]
    module = rand_framed_module(random.Random(seed), field, 1, 4, 2)
    b = _main_point(field, 3, seed)
    basis = bilin_tangent(b).basis

    def presented():
        return quot.kernel_presentation(module), [extract_hom_triple(b, tv) for tv in basis]

    new = presented()
    built = []

    class CountedReference(ReferenceEchelonBasis):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(quot, "EchelonBasis", CountedReference)
    assert new == presented()
    assert len(built) == 1 + 3 * len(basis)  # one per presentation
