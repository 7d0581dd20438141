import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from quotbilin.exactalg import GF, QQ, Matrix, UniPoly, rand_invertible, unipoly
from quotbilin.modcore import (
    FramedModule,
    cyclic_module_univariate,
    make_degenerate,
    rand_framed_module,
    validate_framed,
)
from quotbilin import bilin
from quotbilin.bilin import (
    BilinPoint,
    HomTriple,
    bilin_dims,
    bilin_from_json,
    bilin_tangent,
    bilin_to_json,
    degenerate_point,
    extract_hom_triple,
    factor_membership,
    factor_membership_detail,
    gauge_transform_bilin,
    hom_triple_check,
    main_component_point,
    tangent_residuals,
    validate_bilin,
    validate_pairing,
    zero_triple,
)

F3 = GF(3)
F5 = GF(5)


def canonical_main(field=QQ):
    return main_component_point([field.from_int(0), field.from_int(1)],
                                Matrix.identity(field, 2), Matrix.identity(field, 2))


def canonical_degenerate(field=QQ):
    return degenerate_point(2, 2, 2, Matrix.identity(field, 2),
                            Matrix.identity(field, 2),
                            Matrix.from_int_rows(field, [[1, 0, 0, 0], [0, 1, 0, 0]]))


from helpers_membership import random_target


# -- validation ---------------------------------------------------------------------

def test_canonical_main_point_validates():
    rep = validate_bilin(canonical_main())
    assert rep.ok and rep.failure is None


def test_perturbed_pairing_reports_residual():
    b = canonical_main()
    pihat = Matrix(QQ, 2, 4, list(b.pihat.entries))
    pihat.entries[1] = QQ.add(pihat.entries[1], QQ.one())
    bad = BilinPoint(m1=b.m1, m2=b.m2, d3=2, Z=b.Z, pihat=pihat)
    rep = validate_bilin(bad)
    assert not rep.ok
    assert rep.failure is not None
    assert rep.residual is not None and not rep.residual.is_zero()


def test_degenerate_point_validates():
    assert validate_bilin(canonical_degenerate()).ok


E12 = Matrix.from_int_rows(QQ, [[0, 1], [0, 0]])
E21 = Matrix.from_int_rows(QQ, [[0, 0], [1, 0]])


# Each change breaks one invariant of the n = 2 totally degenerate point (zero
# actions, identity framings, Pihat of rank 2); checks run in the order M1,
# M2, Z commuting, equivariance, surjectivity, and the first failed one is named.
@pytest.mark.parametrize("change,failure", [
    (lambda b: replace(b, m1=replace(b.m1, X=(E12, E21))), "M1 commuting at indices 0, 1"),
    (lambda b: replace(b, m1=replace(b.m1, G=Matrix.zeros(QQ, 2, 2))), "M1 generation"),
    (lambda b: replace(b, m2=replace(b.m2, X=(E12, E21))), "M2 commuting at indices 0, 1"),
    (lambda b: replace(b, m2=replace(b.m2, G=Matrix.zeros(QQ, 2, 2))), "M2 generation"),
    (lambda b: replace(b, Z=(E12, E21)), "Z commuting at indices 0, 1"),
    (lambda b: replace(b, Z=(b.Z[0], E12)), "X-equivariance at index 1"),
    (lambda b: replace(b, m2=replace(b.m2, X=(E12, b.m2.X[1]))), "Y-equivariance at index 0"),
    (lambda b: replace(b, pihat=Matrix.from_int_rows(QQ, [[1, 0, 0, 0], [0, 0, 0, 0]])),
     "surjectivity: Pihat has rank 1 < d3 = 2"),
], ids=["m1-commuting", "m1-generation", "m2-commuting", "m2-generation", "z-commuting",
        "x-equivariance", "y-equivariance", "surjectivity"])
def test_validation_names_the_failed_invariant(change, failure):
    b = change(degenerate_point(2, 2, 2, Matrix.identity(QQ, 2), Matrix.identity(QQ, 2),
                                Matrix.from_int_rows(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]]), n=2))
    rep = validate_bilin(b)
    assert not rep.ok and rep.failure == failure
    if not failure.startswith(("M1", "M2")):
        pairing = validate_pairing(b)
        assert not pairing.ok and pairing.failure == failure


def test_degenerate_point_rank_checks():
    with pytest.raises(ValueError):
        degenerate_point(2, 2, 2, Matrix.identity(QQ, 2), Matrix.identity(QQ, 2),
                         Matrix.from_int_rows(QQ, [[1, 0, 0, 0], [1, 0, 0, 0]]))


def test_degenerate_point_random_f5():
    rng = random.Random(3)
    d = 3
    a1 = rand_invertible(rng, F5, d)
    a2 = rand_invertible(rng, F5, d)
    while True:
        pi = Matrix(F5, d, d * d, [F5.sample(rng) for _ in range(d * d * d)])
        if pi.rank() == d:
            break
    b = degenerate_point(d, d, d, a1, a2, pi)
    assert validate_bilin(b).ok


def test_main_point_d1():
    b = main_component_point([QQ.from_int(0)], Matrix.identity(QQ, 1),
                             Matrix.identity(QQ, 1))
    assert validate_bilin(b).ok
    assert b.pihat == Matrix.identity(QQ, 1)


def test_main_point_d3():
    pts = [QQ.from_int(c) for c in (0, 1, 2)]
    b = main_component_point(pts, Matrix.identity(QQ, 3), Matrix.identity(QQ, 3))
    assert validate_bilin(b).ok


# -- membership -----------------------------------------------------------------------

def test_membership_on_main_point():
    b = canonical_main()
    rep = factor_membership_detail(b.m1, b.m2, b.target_module())
    assert rep.found and rep.solution_dim == 0
    assert rep.point.pihat == b.pihat


def test_membership_on_degenerate_point():
    b = canonical_degenerate()
    rep = factor_membership_detail(b.m1, b.m2, b.target_module())
    assert rep.found and rep.solution_dim == 0
    assert validate_bilin(rep.point).ok


def test_membership_annihilator_mismatch():
    m = make_degenerate(2, 2, Matrix.identity(QQ, 2))
    target = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, 0, 1]), r=4)
    assert validate_framed(target).ok
    assert factor_membership(m, m, target) is None


def test_membership_dimension_obstruction():
    m1 = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, -1, 1]))   # x(x-1)
    m2 = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, -2, 1]))   # x(x-2)
    target = cyclic_module_univariate(UniPoly.from_ints(QQ, [0, -1, 1]))
    assert factor_membership(m1, m2, target) is None


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10 ** 6))
@example(262)  # the tensor product has no invariant subspace of the drawn codimension
def test_membership_equivalence_random(seed):
    rng = random.Random(seed)
    m1 = rand_framed_module(rng, F3, 1, 2, 2)
    m2 = rand_framed_module(rng, F3, 1, 2, 2)
    target = random_target(rng, m1, m2)
    rep = factor_membership_detail(m1, m2, target)
    if rep.found:
        assert validate_bilin(rep.point).ok
        assert rep.solution_dim == 0
        assert rep.point.induced_framing() == target.G


def test_membership_failure_confirmed_by_brute_force():
    # all 3^8 pairing candidates violate some constraint
    rng = random.Random(12)
    m1 = rand_framed_module(rng, F3, 1, 2, 2)
    m2 = rand_framed_module(rng, F3, 1, 2, 2)
    target = None
    while target is None:
        cand = rand_framed_module(rng, F3, 1, 2, 4)
        if factor_membership(m1, m2, cand) is None:
            target = cand
    import itertools
    eye1 = Matrix.identity(F3, 2)
    eye2 = Matrix.identity(F3, 2)
    Z = target.X[0]
    found = False
    for ents in itertools.product(range(3), repeat=8):
        pihat = Matrix(F3, 2, 4, list(ents))
        if pihat * m1.X[0].kron(eye2) != Z * pihat:
            continue
        if pihat * eye1.kron(m2.X[0]) != Z * pihat:
            continue
        ok = True
        for a in range(2):
            for bb in range(2):
                ga, hb = m1.G.col(a), m2.G.col(bb)
                w = [F3.mul(ga[i], hb[j]) for i in range(2) for j in range(2)]
                if pihat.matvec(w) != list(target.G.col(a * 2 + bb)):
                    ok = False
        if ok:
            found = True
            break
    assert not found


# -- tangent space ----------------------------------------------------------------------

def test_tangent_at_canonical_main_point_is_six():
    rep = bilin_tangent(canonical_main(), check=True)
    assert rep.dim == 6
    assert rep.dim == bilin_dims(1, 2, 2, 2).main_dim


def test_tangent_at_degenerate_point_bounded_below():
    rep = bilin_tangent(canonical_degenerate(), check=True)
    assert rep.dim >= bilin_dims(1, 2, 2, 2).degenerate_dim == 4


def test_tangent_hilb_like_points():
    for n in (1, 2, 3):
        zeros = tuple(Matrix.zeros(QQ, 1, 1) for _ in range(n))
        m = FramedModule(n, 1, 1, zeros, Matrix.identity(QQ, 1))
        b = BilinPoint(m1=m, m2=m, d3=1, Z=zeros, pihat=Matrix.identity(QQ, 1))
        assert bilin_tangent(b).dim == n


def test_tangent_basis_residuals_exact():
    b = canonical_main()
    rep = bilin_tangent(b)
    assert len(rep.basis) == rep.dim
    for tv in rep.basis:
        assert tangent_residuals(b, tv)


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10 ** 6))
def test_tangent_gauge_invariance(seed):
    rng = random.Random(seed)
    b = canonical_main(F5)
    dim0 = bilin_tangent(b).dim
    g1 = rand_invertible(rng, F5, 2)
    g2 = rand_invertible(rng, F5, 2)
    g3 = rand_invertible(rng, F5, 2)
    moved = gauge_transform_bilin(b, g1, g2, g3)
    assert validate_bilin(moved).ok
    assert bilin_tangent(moved).dim == dim0


# -- hom triples --------------------------------------------------------------------------

def nilpotent_point():
    f = QQ
    nil = FramedModule(1, 2, 2, (Matrix.from_int_rows(f, [[0, 0], [1, 0]]),),
                       Matrix.identity(f, 2))
    pihat = Matrix.from_int_rows(f, [[1, 0, 0, 0], [0, 1, 1, 0]])
    return BilinPoint(m1=nil, m2=nil, d3=2, Z=nil.X, pihat=pihat)


ORACLE_POINTS = {"main": canonical_main, "nilpotent": nilpotent_point,
                 "degenerate": lambda: canonical_degenerate(GF(101))}


def test_zero_triple_passes():
    b = canonical_main()
    assert hom_triple_check(b, zero_triple(b))


def test_extracted_triples_pass():
    b = canonical_main()
    rep = bilin_tangent(b)
    for tv in rep.basis:
        assert hom_triple_check(b, extract_hom_triple(b, tv))


def test_extracted_triples_pass_nilpotent_case():
    b = nilpotent_point()
    assert validate_bilin(b).ok
    rep = bilin_tangent(b)
    for tv in rep.basis[:4]:
        assert hom_triple_check(b, extract_hom_triple(b, tv))


def test_hom_triple_check_raises_when_a_member_is_not_expressed(monkeypatch):
    # A failed solve for the vectors of K3 must not read as an incompatible
    # triple.  The solve runs on the first check at a point.
    b = canonical_main()
    triple = zero_triple(b)
    calls = []

    def no_solution(cols, height, targets, field):
        calls.append(len(targets))
        return None

    monkeypatch.setattr(bilin, "express_in_span", no_solution)
    with pytest.raises(ArithmeticError, match="express_in_span"):
        hom_triple_check(b, triple)
    assert calls == [8]  # one batched call with every member of K3


def perturbed_solve(monkeypatch, b, member):
    """Patch the batched solve to add x to the first coefficient of one
    member; returns the echelon coefficients and the perturbed ones."""
    real = bilin.express_in_span
    seen = {}

    def perturbed(cols, height, targets, field):
        solved = real(cols, height, targets, field)
        k = member % len(targets)
        seen["want"] = solved[k]
        seen["got"] = [solved[k][0] + UniPoly.x(b.field)] + solved[k][1:]
        return solved[:k] + [seen["got"]] + solved[k + 1:]

    monkeypatch.setattr(bilin, "express_in_span", perturbed)
    return seen


def first_tangent_triple(b):
    return extract_hom_triple(b, bilin_tangent(b).basis[0])


def assert_disagreement_raises(monkeypatch, member):
    clean = canonical_main()
    assert hom_triple_check(clean, first_tangent_triple(clean))  # passes unperturbed
    # Perturbed before the first check at a fresh point, where the members
    # are written in K3's basis.
    b = canonical_main()
    triple = first_tangent_triple(b)
    seen = perturbed_solve(monkeypatch, b, member)
    with pytest.raises(ArithmeticError, match=r"coefficients \[.*\] in the echelon basis "
                                              r"of K3 but \[.*\] by express_in_span") as exc:
        hom_triple_check(b, triple)
    assert f"coefficients {seen['want']} in the echelon basis" in str(exc.value)
    assert f"but {seen['got']} by express_in_span" in str(exc.value)
    # A failed cross-check keeps nothing, so the next check raises too.
    assert "_k3_coefficients" not in vars(b)
    with pytest.raises(ArithmeticError, match="express_in_span"):
        hom_triple_check(b, triple)


def test_hom_triple_check_raises_when_the_solve_disagrees_with_the_echelon(monkeypatch):
    # The generators of K3 are a basis: a truncated solve that returns other
    # coefficients than the echelon division is a fault, named with both.
    assert_disagreement_raises(monkeypatch, 0)


def test_hom_triple_check_raises_when_only_the_last_member_disagrees(monkeypatch):
    # Each member's coefficients are read back from its own column of the
    # batched solve, so a fault in the last column alone is caught too.
    assert_disagreement_raises(monkeypatch, -1)


def incompatible(triple, b):
    return HomTriple(phi1=triple.phi1 + Matrix.identity(b.field, b.m1.d), phi2=triple.phi2,
                     phi3=triple.phi3)


def test_hom_triple_check_cross_checks_members_after_an_incompatible_one(monkeypatch):
    # Incompatible on its first member, the triple still has its last member
    # cross-checked: the disagreement raises rather than reading as False,
    # when the incompatible triple is the first check at the point.
    clean = canonical_main()
    assert not hom_triple_check(clean, incompatible(first_tangent_triple(clean), clean))
    b = canonical_main()
    bad = incompatible(first_tangent_triple(b), b)
    perturbed_solve(monkeypatch, b, -1)
    with pytest.raises(ArithmeticError, match="express_in_span"):
        hom_triple_check(b, bad)


def spy_solves(monkeypatch) -> list:
    """Record the right-hand side width of every ``unipoly.solve`` call."""
    calls = []
    real = unipoly.solve

    def spy(a, rhs):
        calls.append(rhs.cols)
        return real(a, rhs)

    monkeypatch.setattr(unipoly, "solve", spy)
    return calls


@pytest.mark.parametrize("point", ["main", "degenerate"])
def test_hom_triple_check_solves_once(monkeypatch, point):
    # Every member of K3 goes into one truncated solve per point, made on
    # the first check; a second point, equal but not yet checked, adds one.
    make = ORACLE_POINTS[point]
    calls = spy_solves(monkeypatch)
    for points in (1, 2):
        b = make()
        triples = [extract_hom_triple(b, tv) for tv in bilin_tangent(b).basis]
        assert len(triples) > 1
        for triple in triples:
            assert hom_triple_check(b, triple)
            assert len(calls) == points
    assert calls[0] > 1 and calls == [calls[0]] * 2


def test_memo_leaves_equality_hash_and_json_unchanged():
    b = canonical_main()
    before = (hash(b), repr(b), bilin_to_json(b))
    assert hom_triple_check(b, first_tangent_triple(b))
    assert vars(b)["_k3_coefficients"] is not None
    fresh = canonical_main()
    assert "_k3_coefficients" not in vars(fresh) and b == fresh
    assert (hash(b), repr(b), bilin_to_json(b)) == before == (
        hash(fresh), repr(fresh), bilin_to_json(fresh))
    assert bilin_from_json(bilin_to_json(b)) == b


@pytest.mark.parametrize("point", ["main", "nilpotent", "degenerate"])
def test_memo_verdicts_match_a_cleared_memo(point):
    b = ORACLE_POINTS[point]()
    triples = [extract_hom_triple(b, tv) for tv in bilin_tangent(b).basis]
    triples += [incompatible(t, b) for t in triples]
    warm = [hom_triple_check(b, t) for t in triples]
    cold = []
    for t in triples:
        del vars(b)["_k3_coefficients"]
        cold.append(hom_triple_check(b, t))
    half = len(triples) // 2
    assert warm == cold and all(warm[:half]) and not any(warm[half:])


def test_random_triple_fails():
    rng = random.Random(7)
    b = canonical_main()
    rep = bilin_tangent(b)
    base = extract_hom_triple(b, rep.basis[0])
    bad_phi1 = Matrix(QQ, base.phi1.rows, base.phi1.cols,
                      [QQ.sample(rng) for _ in range(base.phi1.rows * base.phi1.cols)])
    bad = HomTriple(phi1=bad_phi1, phi2=base.phi2, phi3=base.phi3)
    assert not hom_triple_check(b, bad)  # the first check at the point
    assert hom_triple_check(b, base)
    assert not hom_triple_check(b, bad)  # with the coefficients kept from before


# -- dimension formulas ---------------------------------------------------------------------

@pytest.mark.parametrize("n,d,r1,r2,main,degen,by_count,by_secant,irred", [
    (1, 2, 2, 2, 6, 4, False, False, True),
    (1, 3, 3, 3, 15, 18, True, True, False),
    (5, 3, 3, 3, 27, 18, False, True, False),
])
def test_bilin_dims_table(n, d, r1, r2, main, degen, by_count, by_secant, irred):
    rep = bilin_dims(n, d, r1, r2)
    assert rep.main_dim == main
    assert rep.degenerate_dim == degen
    assert rep.reducible_by_count is by_count
    assert rep.reducible_by_secant is by_secant
    assert rep.irreducible is irred


def test_bilin_dims_degenerate_undefined():
    assert bilin_dims(1, 3, 2, 3).degenerate_dim is None


def test_reducibility_consistency_on_grid():
    # degenerate_dim > main_dim must imply the count criterion, everywhere
    for n in range(1, 4):
        for d in range(1, 5):
            for r1 in range(d, d + 3):
                for r2 in range(d, d + 3):
                    rep = bilin_dims(n, d, r1, r2)
                    if rep.degenerate_dim is not None and rep.degenerate_dim > rep.main_dim:
                        assert rep.reducible_by_count


def test_tangent_dominates_formulas_at_random_points():
    rng = random.Random(21)
    dims = bilin_dims(1, 2, 2, 2)
    for _ in range(3):
        g1 = rand_invertible(rng, F5, 2)
        g2 = rand_invertible(rng, F5, 2)
        g3 = rand_invertible(rng, F5, 2)
        main = gauge_transform_bilin(canonical_main(F5), g1, g2, g3)
        degen = gauge_transform_bilin(canonical_degenerate(F5), g1, g2, g3)
        assert bilin_tangent(main).dim >= dims.main_dim
        assert bilin_tangent(degen).dim >= dims.degenerate_dim


# -- serialization ---------------------------------------------------------------------------

def test_bilin_json_round_trip():
    b = canonical_main()
    again = bilin_from_json(bilin_to_json(b))
    assert again.pihat == b.pihat
    assert again.m1 == b.m1
    assert validate_bilin(again).ok
