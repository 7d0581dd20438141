import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from quotbilin import quot
from quotbilin.exactalg import (
    GF,
    QQ,
    Matrix,
    UniPoly,
    rand_invertible,
    rand_matrix,
)
from quotbilin.modcore import (
    FramedModule,
    cyclic_module_univariate,
    gauge_transform,
    make_degenerate,
    make_tuple_of_points,
    rand_framed_module,
    support_univariate,
    validate_framed,
)
from quotbilin.quot import (
    NonSplitSupport,
    degenerate_grassmannian_check,
    hom_KM_univariate,
    KernelPresentation,
    kernel_presentation,
    quot2_limit_family,
    quot_dims,
    quot_tangent,
)
from helpers_kx import krylov_vectors, lay_out, row_counts, same_span

F5 = GF(5)


def diag01(field=QQ):
    return Matrix.diag(field, [field.from_int(0), field.from_int(1)])


# -- tangent space ----------------------------------------------------------------

def test_tangent_univariate_is_dr():
    m = FramedModule(1, 2, 2, (diag01(),), Matrix.identity(QQ, 2))
    rep = quot_tangent(m, check=True)
    assert rep.dim == 4 == m.d * m.r
    assert rep.nullity - rep.gauge_dim == rep.dim


def test_tangent_zero_actions_two_variables():
    m = FramedModule(2, 2, 2, (Matrix.zeros(QQ, 2, 2), Matrix.zeros(QQ, 2, 2)),
                     Matrix.identity(QQ, 2))
    assert quot_tangent(m).dim == 8


def test_tangent_rejects_invalid():
    bad = FramedModule(1, 2, 1, (diag01(),), Matrix.from_int_rows(QQ, [[1], [0]]))
    with pytest.raises(ValueError):
        quot_tangent(bad)


def test_tangent_basis_satisfies_first_order_commutation():
    rng = random.Random(5)
    m = rand_framed_module(rng, F5, 2, 2, 2)
    rep = quot_tangent(m, check=True)
    for tv in rep.basis:
        for i in range(m.n):
            for j in range(i + 1, m.n):
                lhs = tv.xdot[i] * m.X[j] + m.X[i] * tv.xdot[j]
                rhs = tv.xdot[j] * m.X[i] + m.X[j] * tv.xdot[i]
                assert lhs == rhs


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10 ** 6))
def test_tangent_gauge_invariance(seed):
    rng = random.Random(seed)
    m = rand_framed_module(rng, F5, 1, rng.randint(1, 3), rng.randint(1, 3))
    g = rand_invertible(rng, F5, m.d)
    assert quot_tangent(gauge_transform(m, g)).dim == quot_tangent(m).dim


def test_tangent_dominates_principal_dim_at_tuple_points():
    rng = random.Random(9)
    for n in (1, 2):
        for d in (2, 3):
            pts = []
            seen = set()
            while len(pts) < d:
                p = tuple(F5.sample(rng) for _ in range(n))
                if p not in seen:
                    seen.add(p)
                    pts.append(p)
            r = d
            G = rand_invertible(rng, F5, d)
            m = make_tuple_of_points(pts, G)
            assert quot_tangent(m).dim >= quot_dims(n, d, r).principal_dim


# -- kernel presentation and Hom oracle ----------------------------------------------

def test_kernel_presentation_framing_example():
    # Evaluation k[x]^2 -> S/(x^2) framed by the polynomials (x^2, x): the
    # kernel has colength 1 (the image is 1-dimensional).
    X = Matrix.from_int_rows(QQ, [[0, 0], [1, 0]])
    G = Matrix.from_int_rows(QQ, [[0, 0], [0, 1]])
    m = FramedModule(1, 2, 2, (X,), G)
    pres = kernel_presentation(m)
    assert pivot_degree_sum(pres.cols) == 1
    # both stated generating sets have this same span
    one = UniPoly.from_ints(QQ, [1])
    x = UniPoly.x(QQ)
    stated = [[one, -x], [UniPoly.zero(QQ), x]]
    assert same_span(pres.cols, stated, 2, QQ)


def test_kernel_presentation_colength_is_d_when_generating():
    m = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, -1, 1]))  # S/(x(x-1))
    pres = kernel_presentation(m)
    assert pivot_degree_sum(pres.cols) == m.d


def pivot_degree_sum(echelon):
    """Colength of the span of r echelon columns in k[x]^r: deg det."""
    return sum(col[j].degree for j, col in enumerate(echelon))


def krylov_rank(m):
    """Rank of [G, XG, ..., X^(d-1) G]: the dimension of the image of k[x]^r."""
    block, krylov = m.G, m.G
    for _ in range(m.d - 1):
        block = m.X[0] * block
        krylov = krylov.hstack(block)
    return krylov.rank()


@st.composite
def univariate_modules(draw):
    """Framed univariate modules whose framing generates, need not generate,
    provably does not generate (it lies in a proper invariant subspace), or
    is zero."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(101)]))
    d, r = draw(st.integers(0, 5)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["generating", "random", "invariant", "zero"]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    if kind == "generating":
        return rand_framed_module(rng, field, 1, d, r)
    X = rand_matrix(rng, field, d, d)
    G = rand_matrix(rng, field, d, r)
    if kind == "invariant" and d:
        # span(e_0, ..., e_{k-1}) is X-invariant and holds every framing column.
        k = rng.randrange(d)
        X = Matrix(field, d, d, [field.zero() if i >= k > j else X[i, j]
                                 for i in range(d) for j in range(d)])
        G = Matrix(field, d, r, [field.zero() if i >= k else G[i, j]
                                 for i in range(d) for j in range(r)])
    elif kind == "zero":
        G = Matrix.zeros(field, d, r)
    return FramedModule(1, d, r, (X,), G)


@settings(deadline=None, max_examples=120)
@given(univariate_modules())
def test_kernel_presentation_colength_is_krylov_rank(m):
    pres = kernel_presentation(m)
    assert len(pres.cols) == m.r
    assert pivot_degree_sum(pres.cols) == krylov_rank(m)


def _scale_first_by_x(cols, field):
    return [[UniPoly.x(field) * e for e in cols[0]]] + cols[1:]


def _drop_first(cols, field):
    return cols[1:]


def _drop_last(cols, field):
    return cols[:-1]


CERTIFIED_MODULES = [
    cyclic_module_univariate(UniPoly.from_ints(QQ, [0, -1, 1])),
    rand_framed_module(random.Random(3), GF(101), 1, 4, 2),
    FramedModule(1, 2, 2, (Matrix.identity(F5, 2),), Matrix.zeros(F5, 2, 2)),
]
CERTIFIED_IDS = ["cyclic-q", "generating-f101", "zero-framing-f5"]


# The Hom oracle reads d r off the certificate, so it must refuse a smaller
# span as the presentation does.  The presentation's cases keep the ids
# "<module>-<mutation>"; the oracle's add "-hom_KM_univariate".
SMALLER_SPAN_CASES = [
    pytest.param(module, mutate, entry, id=f"{mid}-{mutate.__name__}{suffix}")
    for entry, suffix in [(kernel_presentation, ""), (hom_KM_univariate, "-hom_KM_univariate")]
    for module, mid in zip(CERTIFIED_MODULES, CERTIFIED_IDS)
    for mutate in [_scale_first_by_x, _drop_first, _drop_last]
]


def _patch_columns(monkeypatch, mutate, run_on=True):
    """Make quot._krylov_relations return mutate(columns, P) as tags over the
    Krylov vectors of the real pass, which cover the unmutated columns only;
    with ``run_on`` those vectors go on by true powers X^m g_a as far as the
    mutated columns reach, so the tags fit their table."""
    real = quot._krylov_relations

    def patched(P):
        tags, powers = real(P)
        counts = [len(v) for v in powers]
        cols = mutate(KernelPresentation(P.field, tags, counts, powers).cols, P)
        counts = [max(k, c) for k, c in zip(counts, row_counts(cols, P.r))]
        if run_on:
            powers = krylov_vectors(P.X[0], P.G, counts)
        return lay_out(cols, counts, P.field), powers

    monkeypatch.setattr(quot, "_krylov_relations", patched)


def _patch_pass(monkeypatch, mutate):
    """Make quot._krylov_relations return mutate(tags, powers, P)."""
    real = quot._krylov_relations
    monkeypatch.setattr(quot, "_krylov_relations", lambda P: mutate(*real(P), P))


@pytest.mark.parametrize("module, mutate, entry", SMALLER_SPAN_CASES)
def test_kernel_certificate_rejects_a_smaller_span(monkeypatch, module, mutate, entry):
    # Each mutation keeps the columns inside the kernel but shrinks their span.
    entry(module)  # passes unmutated
    _patch_columns(monkeypatch, lambda cols, P: mutate(cols, P.field))
    with pytest.raises(ArithmeticError, match="echelon columns"):
        entry(module)


@pytest.mark.parametrize("module", CERTIFIED_MODULES[1:], ids=CERTIFIED_IDS[1:])
def test_kernel_certificate_rejects_columns_out_of_echelon_form(monkeypatch, module):
    # Both of [c0 + c1, c0 + c1] lie in K and their entries in rows 0 and 1
    # have the pivot degrees k0 and k1, so the colength count alone passes;
    # they span a submodule of rank 1, and only the shape check sees it.
    def summed(cols, P):
        s = [a + b for a, b in zip(cols[0], cols[1])]
        return [s, s] + cols[2:]

    _patch_columns(monkeypatch, summed)
    with pytest.raises(ArithmeticError, match="lower triangular"):
        kernel_presentation(module)


# With the zero framing K is all of k[x]^r, so no column can leave it.
@pytest.mark.parametrize("module", CERTIFIED_MODULES[:2], ids=CERTIFIED_IDS[:2])
def test_kernel_certificate_rejects_a_column_outside_the_kernel(monkeypatch, module):
    # Adding 1 to the constant term of the first pivot adds g_0 != 0 to the
    # relation's value at X, so the column leaves K.
    def perturbed(cols, P):
        one = UniPoly.const(P.field, P.field.one())
        return [[cols[0][0] + one] + cols[0][1:]] + cols[1:]

    kernel_presentation(module)  # passes unmutated
    _patch_columns(monkeypatch, perturbed)
    with pytest.raises(ArithmeticError, match="substitution check"):
        kernel_presentation(module)


def _raise_first_pivot(cols, P):
    """Add x^(k_0 + 1) to the first pivot: one power past the vectors the
    pass computed for g_0."""
    top = UniPoly(P.field, [P.field.zero()] * len(cols[0][0].coeffs) + [P.field.one()])
    return [[cols[0][0] + top] + cols[0][1:]] + cols[1:]


@pytest.mark.parametrize("module", CERTIFIED_MODULES[:2], ids=CERTIFIED_IDS[:2])
def test_kernel_certificate_rejects_a_column_past_the_krylov_vectors(monkeypatch, module):
    # Over the pass's own vectors the raised column's tag is one longer than
    # its table, so it must be refused rather than cut short; over true
    # powers run on past them, X^(k_0 + 1) g_0 != 0 joins its value at X.
    pres = kernel_presentation(module)
    assert pres.counts[0] == len(pres.cols[0][0].coeffs) == len(pres.powers[0])
    n = sum(pres.counts)
    _patch_columns(monkeypatch, _raise_first_pivot, run_on=False)
    with pytest.raises(ArithmeticError, match=f"coefficient vector 0 has {n + 1} entries "
                                              f"for a table of {n} vectors"):
        kernel_presentation(module)
    _patch_columns(monkeypatch, _raise_first_pivot)
    with pytest.raises(ArithmeticError, match="column 0 fails substitution check"):
        kernel_presentation(module)


@pytest.mark.parametrize("module", CERTIFIED_MODULES[:2], ids=CERTIFIED_IDS[:2])
def test_kernel_certificate_rejects_a_perturbed_krylov_vector(monkeypatch, module):
    # The check reads the stored vectors: column 0 has coefficient 1 at
    # X^(k_0) g_0, so adding e_0 to that stored vector adds e_0 to its value.
    def perturbed(tags, powers, P):
        top = list(powers[0][-1])
        top[0] = P.field.add(top[0], P.field.one())
        return tags, [powers[0][:-1] + [top]] + powers[1:]

    kernel_presentation(module)  # passes unmutated
    _patch_pass(monkeypatch, perturbed)
    with pytest.raises(ArithmeticError, match="kernel column 0 fails substitution check: "
                                              "its value at X is nonzero first in row 0"):
        kernel_presentation(module)


@pytest.mark.parametrize("module", CERTIFIED_MODULES, ids=CERTIFIED_IDS)
@pytest.mark.parametrize("extra", [0, 1])
def test_kernel_certificate_refuses_a_tag_longer_than_its_table(monkeypatch, module, extra):
    # A coefficient past the last stored vector has no vector to multiply:
    # refused, even when it is zero, never dropped by a short zip.
    def longer(tags, powers, P):
        return [tags[0] + [P.field.from_int(extra)]] + tags[1:], powers

    n = sum(kernel_presentation(module).counts)
    _patch_pass(monkeypatch, longer)
    with pytest.raises(ArithmeticError, match=f"coefficient vector 0 has {n + 1} entries "
                                              f"for a table of {n} vectors"):
        kernel_presentation(module)


def test_hom_oracle_cyclic_x2():
    m = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, 0, 1]))
    rep = hom_KM_univariate(m)
    assert rep.dim == 2 == m.d * m.r
    assert rep.dim == quot_tangent(m).dim


def test_hom_oracle_cyclic_split():
    m = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, -1, 1]))
    assert hom_KM_univariate(m).dim == 2


def test_hom_oracle_degenerate():
    m = make_degenerate(2, 2, Matrix.identity(QQ, 2))
    assert hom_KM_univariate(m).dim == 4


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10 ** 6))
def test_oracle_equivalence_random(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 3)
    r = rng.randint(1, 3)
    m = rand_framed_module(rng, F5, 1, d, r)
    assert quot_tangent(m).dim == hom_KM_univariate(m).dim == d * r


# -- dimension formulas -----------------------------------------------------------

@pytest.mark.parametrize("n,d,r,principal,degenerate", [
    (1, 2, 2, 4, 0),
    (2, 3, 3, 12, 0),
    (1, 2, 4, 8, 4),
])
def test_quot_dims_values(n, d, r, principal, degenerate):
    rep = quot_dims(n, d, r)
    assert rep.principal_dim == principal
    assert rep.degenerate_dim == degenerate
    assert rep.reducible_by_count is False


def test_quot_dims_degenerate_undefined_when_r_small():
    assert quot_dims(1, 3, 2).degenerate_dim is None


# -- grassmannian correspondence ---------------------------------------------------

@pytest.mark.parametrize("d,r,q,count", [
    (1, 2, 2, 3),
    (2, 3, 2, 7),
    (2, 4, 2, 35),
    (2, 3, 3, 13),
])
def test_grassmannian_counts(d, r, q, count):
    rep = degenerate_grassmannian_check(d, r, q)
    assert rep.ok
    assert rep.enumerated == count


def test_grassmannian_cap_guard():
    from quotbilin.quot import InfeasibleEnumeration
    with pytest.raises(InfeasibleEnumeration):
        degenerate_grassmannian_check(3, 6, 5, cap=1000)


# -- limit families ----------------------------------------------------------------

def _assert_family(P, expected_branch, samples=(1, 2, 3)):
    fam = quot2_limit_family(P)
    assert fam.branch == expected_branch
    f = P.field
    assert fam.evaluate(f.zero()) == P
    for t in samples:
        fiber = fam.evaluate(f.from_int(t))
        assert validate_framed(fiber).ok
        pts = _support_points(fiber)
        assert len(pts) == 2
    return fam


def _support_points(m):
    """Distinct simultaneous eigenvalue tuples of a d=2 split module."""
    vals = []
    for x in m.X:
        rep = support_univariate(FramedModule(1, m.d, m.r, (x,), m.G))
        vals.append(rep.values())
    # points are the diagonal tuples after simultaneous diagonalization; for
    # these families the per-action eigenvalues pair up in order
    pts = set()
    for k in range(m.d):
        pts.add(tuple(str(v[k]) for v in vals))
    return pts


def test_family_semisimple_branch():
    P = make_degenerate(2, 2, Matrix.identity(QQ, 2))
    fam = _assert_family(P, "semisimple")
    at1 = fam.evaluate(QQ.one())
    assert at1.X[0] == Matrix.diag(QQ, [QQ.from_int(0), QQ.from_int(1)])


def test_family_nilpotent_branch_matches_basis_form():
    P = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, 0, 1]))
    fam = _assert_family(P, "nilpotent")
    at_t = fam.evaluate(QQ.from_int(7))
    assert at_t.X[0] == Matrix.from_int_rows(QQ, [[0, 0], [1, 7]])


def test_family_distinct_branch_constant():
    P = make_tuple_of_points([QQ.from_int(0), QQ.from_int(1)], Matrix.identity(QQ, 2))
    fam = _assert_family(P, "distinct")
    assert fam.evaluate(QQ.from_int(5)) == P


def test_family_two_variables():
    E = Matrix.from_int_rows(QQ, [[0, 0], [1, 0]])
    P = FramedModule(2, 2, 1, (E, E.scale(QQ.from_int(2))),
                     Matrix.from_int_rows(QQ, [[1], [0]]))
    assert validate_framed(P).ok
    _assert_family(P, "nilpotent")


def test_family_nonsplit_rejected():
    P = cyclic_module_univariate(UniPoly.from_ints(QQ, [1, 0, 1]))
    with pytest.raises(NonSplitSupport):
        quot2_limit_family(P)


def test_family_translated_point():
    # nilpotent branch away from the origin: support at x = 3
    f = QQ
    X = Matrix.from_int_rows(f, [[3, 0], [1, 3]])
    P = FramedModule(1, 2, 1, (X,), Matrix.from_int_rows(f, [[1], [0]]))
    assert validate_framed(P).ok
    fam = quot2_limit_family(P)
    assert fam.branch == "nilpotent"
    assert fam.evaluate(f.zero()) == P
    fiber = fam.evaluate(f.one())
    rep = support_univariate(fiber)
    assert sorted(str(v) for v, _ in rep.points) == ["3", "4"]


def test_tangent_sweep_script_finds_no_mismatch():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, str(root / "scripts" / "tangent_sweep.py"), "5", "0", "F:5"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "5 samples over F:5, 0 mismatches" in run.stdout


def test_tangent_sweep_script_checks_hom_triples_over_q():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, str(root / "scripts" / "tangent_sweep.py"), "3", "0"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "3 samples over Q, 0 mismatches" in run.stdout
    assert run.stdout.count("triples=") == 3


def test_tangent_sweep_script_checks_hom_triples_over_f101():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, str(root / "scripts" / "tangent_sweep.py"), "3", "0",
                          "F:101"], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "3 samples over F:101, 0 mismatches" in run.stdout
    assert run.stdout.count("triples=") == 3


def _load_tangent_sweep(monkeypatch, argv):
    path = Path(__file__).resolve().parent.parent / "scripts" / "tangent_sweep.py"
    spec = importlib.util.spec_from_file_location("tangent_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sys, "argv", ["tangent_sweep.py", *argv])
    return sweep


def _raise_arithmetic(b, triple):
    raise ArithmeticError("cross-check failed")


@pytest.mark.parametrize("check", [lambda b, triple: False, _raise_arithmetic],
                         ids=["incompatible", "raises"])
def test_tangent_sweep_counts_a_failed_triple_check_as_a_mismatch(monkeypatch, capsys, check):
    sweep = _load_tangent_sweep(monkeypatch, ["2", "0", "F:101"])
    assert sweep.main() == 0
    monkeypatch.setattr(sweep, "hom_triple_check", check)
    assert sweep.main() == 1
    assert "2 samples over F:101, 2 mismatches" in capsys.readouterr().out
