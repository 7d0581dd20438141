import dataclasses
import importlib.util
import itertools
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers_census import (
    all_matrices,
    conjugacy_classes,
    is_rref,
    reference_action_census,
    reference_all_action_cross_check_kernels,
    reference_census,
    reference_cross_check_kernels,
    reference_cross_check_pairs,
    reference_invariant_subspaces,
    reference_gl2,
    reference_linked_pairs,
    reference_module_type,
    reference_bitmap_quot_classes_22,
    reference_quot_classes_22,
    unit_orbit,
)
from quotbilin.exactalg import (
    GF,
    QQ,
    AffineFamily,
    FieldError,
    InfeasibleEnumeration,
    Matrix,
    ShapeError,
    UniPoly,
    char_poly,
    gaussian_binomial,
    rand_invertible,
)
from quotbilin.modcore import (
    FramedModule,
    InvalidPoint,
    support_univariate,
    tensor_over_S,
    validate_framed,
)
from quotbilin.bilin import (
    BilinPoint,
    MembershipSystem,
    PairingValidation,
    degenerate_point,
    gauge_transform_bilin,
    main_component_point,
    validate_bilin,
    validate_pairing,
)
from quotbilin.quot import NonSplitSupport
from quotbilin.tensorlab import (
    LABEL_GENERIC,
    LABEL_NON_CONCISE,
    LABEL_W_TYPE,
    classify_2x2x2,
    tensor_from_bilin,
)
from quotbilin import cases222
from quotbilin.cases222 import (
    CaseLabel,
    ModuleType,
    census_cross_check,
    classify_point_222,
    enumerate_222,
    enumerate_quot_classes_22,
    limit_target_name,
    module_type_222,
    named_tensor,
    verify_limit,
)

F2 = GF(2)
F5 = GF(5)

# The q = 3 census as recorded at the seed commit: 117 = 3^4 + 3^3 + 3^2
# quot classes, 2154 points, no border-rank-3 tensor, no forced failure.
CENSUS_Q3_COUNTS = {
    ("CYCLIC_NILPOTENT", LABEL_W_TYPE): 432,
    ("MAIN_SPLIT", LABEL_GENERIC): 768,
    ("MIXED_12", LABEL_NON_CONCISE): 36,
    ("MIXED_21", LABEL_NON_CONCISE): 36,
    ("NON_SPLIT", LABEL_GENERIC): 300,
    ("SPLIT_MIXED_12", LABEL_NON_CONCISE): 96,
    ("SPLIT_MIXED_21", LABEL_NON_CONCISE): 96,
    ("TOTALLY_DEGENERATE", LABEL_W_TYPE): 96,
    ("TOTALLY_DEGENERATE", LABEL_GENERIC): 270,
    ("TOTALLY_DEGENERATE", LABEL_NON_CONCISE): 24,
}


def nilpotent_pair_point(field=QQ):
    nil = FramedModule(1, 2, 2,
                       (Matrix.from_int_rows(field, [[0, 0], [1, 0]]),),
                       Matrix.identity(field, 2))
    pihat = Matrix.from_int_rows(field, [[1, 0, 0, 0], [0, 1, 1, 0]])
    return BilinPoint(m1=nil, m2=nil, d3=2, Z=nil.X, pihat=pihat)


# -- named tensors ------------------------------------------------------------------

def test_named_tensor_mu1_is_unit():
    from quotbilin.tensorlab import unit_tensor
    assert named_tensor("mu1", QQ) == unit_tensor(2, QQ)


def test_named_tensor_families_evaluate_to_limits():
    for name in ("mu2_t", "mu3_t", "mu4_t"):
        fam = named_tensor(name, QQ)
        assert isinstance(fam, AffineFamily)
        target = named_tensor(limit_target_name(name), QQ)
        assert fam.evaluate(QQ.zero()) == target


def test_named_tensor_unknown_name():
    with pytest.raises(ValueError):
        named_tensor("mu9", QQ)


def test_mu4_fails_conciseness_on_second_factor():
    from quotbilin.tensorlab import conciseness
    assert conciseness(named_tensor("mu4", QQ)) == (True, False, True)


# -- limits ----------------------------------------------------------------------------

def test_verify_limit_mu2_over_f5():
    rep = verify_limit(named_tensor("mu2_t", F5), named_tensor("mu2", F5), [1, 2, 3])
    assert rep.base_matches
    for s in rep.samples:
        assert s.classification.rank == 2
        assert s.classification.concise == (True, True, True)


def test_verify_limit_mu3_rank_drop_pattern():
    rep = verify_limit(named_tensor("mu3_t", QQ),
                       named_tensor("mu3", QQ),
                       [QQ.from_int(1), QQ.from_int(2)])
    assert rep.base_matches
    for s in rep.samples:
        assert s.classification.rank == 2
        assert s.classification.concise == (True, True, True)
    from quotbilin.tensorlab import classify_2x2x2
    limit_cls = classify_2x2x2(named_tensor("mu3", QQ))
    assert limit_cls.concise[0] is False


def test_verify_limit_constant_family():
    t = named_tensor("mu1", QQ)
    fam = AffineFamily(t, t.scale(QQ.zero()))
    rep = verify_limit(fam, t, [QQ.from_int(1), QQ.from_int(4)])
    assert rep.base_matches
    for s in rep.samples:
        assert s.classification.label == LABEL_GENERIC


# -- point classification -----------------------------------------------------------------

def test_module_types():
    diag = FramedModule(1, 2, 2,
                        (Matrix.diag(QQ, [QQ.from_int(0), QQ.from_int(1)]),),
                        Matrix.identity(QQ, 2))
    assert module_type_222(diag) == ModuleType.TUPLE
    nil = FramedModule(1, 2, 2, (Matrix.from_int_rows(QQ, [[0, 0], [1, 0]]),),
                       Matrix.identity(QQ, 2))
    assert module_type_222(nil) == ModuleType.JORDAN
    semi = FramedModule(1, 2, 2, (Matrix.zeros(QQ, 2, 2),), Matrix.identity(QQ, 2))
    assert module_type_222(semi) == ModuleType.SEMISIMPLE
    comp = FramedModule(1, 2, 2, (Matrix.from_int_rows(QQ, [[0, -1], [1, 0]]),),
                        Matrix.identity(QQ, 2))
    assert module_type_222(comp) == ModuleType.NON_SPLIT


def test_module_type_rejects_other_shapes():
    # a 3-dimensional module with two support points: the d = 2 rule would
    # misread it, so it must not answer
    diag3 = FramedModule(1, 3, 3, (Matrix.diag(QQ, [QQ.from_int(v) for v in (0, 0, 1)]),),
                         Matrix.identity(QQ, 3))
    with pytest.raises(ShapeError, match="d=3"):
        module_type_222(diag3)
    bivariate = FramedModule(2, 2, 2, (Matrix.zeros(QQ, 2, 2),) * 2, Matrix.identity(QQ, 2))
    with pytest.raises(ShapeError, match="n=2"):
        module_type_222(bivariate)


def test_classify_main_point():
    b = main_component_point([QQ.from_int(0), QQ.from_int(1)],
                             Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    cls = classify_point_222(b)
    assert cls.label == CaseLabel.MAIN_SPLIT
    assert cls.tensor.label == LABEL_GENERIC
    assert cls.forced_ok


def test_classify_nilpotent_pair():
    cls = classify_point_222(nilpotent_pair_point())
    assert cls.label == CaseLabel.CYCLIC_NILPOTENT
    assert cls.tensor.label == LABEL_W_TYPE
    assert cls.tensor.rank == 3 and cls.tensor.border_rank == 2
    assert cls.forced_ok


def test_classify_degenerate_point():
    b = degenerate_point(2, 2, 2, Matrix.identity(QQ, 2), Matrix.identity(QQ, 2),
                         Matrix.from_int_rows(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    cls = classify_point_222(b)
    assert cls.label == CaseLabel.TOTALLY_DEGENERATE
    assert cls.m3_type == ModuleType.SEMISIMPLE


def test_classify_gauge_invariance():
    rng = random.Random(31)
    for point in (main_component_point([F5.from_int(0), F5.from_int(1)],
                                       Matrix.identity(F5, 2), Matrix.identity(F5, 2)),
                  nilpotent_pair_point(F5)):
        base = classify_point_222(point).label
        for _ in range(5):
            g1 = rand_invertible(rng, F5, 2)
            g2 = rand_invertible(rng, F5, 2)
            g3 = rand_invertible(rng, F5, 2)
            moved = gauge_transform_bilin(point, g1, g2, g3)
            assert classify_point_222(moved).label == base


def test_classify_non_split_raises():
    comp = FramedModule(1, 2, 2, (Matrix.from_int_rows(QQ, [[0, -1], [1, 0]]),),
                        Matrix.identity(QQ, 2))
    pihat = Matrix.from_int_rows(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]])
    # x acts on M1 (x) M2 via the first factor; need equivariant pihat, so
    # build via the tensor quotient instead
    from quotbilin.modcore import tensor_over_S
    from quotbilin.exactalg import quotient_map
    prod = tensor_over_S(comp, comp)
    assert prod.dim12 == 2
    b = BilinPoint(m1=comp, m2=comp, d3=2, Z=prod.actions, pihat=prod.q)
    assert validate_bilin(b).ok
    with pytest.raises(NonSplitSupport):
        classify_point_222(b)


def test_classify_names_the_failed_invariant():
    b = main_component_point([QQ.from_int(0), QQ.from_int(1)],
                             Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    entries = list(b.pihat.entries)
    entries[5] = QQ.one()  # e_0 (x) e_1 now also hits the second coordinate
    bad = BilinPoint(m1=b.m1, m2=b.m2, d3=b.d3, Z=b.Z, pihat=Matrix(QQ, 2, 4, entries))
    with pytest.raises(InvalidPoint, match="invalid pairing point: X-equivariance at index 0"):
        classify_point_222(bad)


def test_forced_consequences_of_main_split_need_equal_supports():
    two = [("0", 1), ("1", 1)]
    assert cases222._forced_ok(CaseLabel.MAIN_SPLIT, ModuleType.TUPLE, two, two, two)
    other = [("0", 1), ("2", 1)]
    for supports in ((other, two, two), (two, other, two), (two, two, other)):
        assert not cases222._forced_ok(CaseLabel.MAIN_SPLIT, ModuleType.TUPLE, *supports)
    assert not cases222._forced_ok(CaseLabel.MAIN_SPLIT, ModuleType.SEMISIMPLE, two, two, two)


# -- census ----------------------------------------------------------------------------------

def test_quot_classes_count_q2():
    reps = enumerate_quot_classes_22(2)
    assert len(reps) == 28
    for m in reps:
        assert validate_framed(m).ok


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_quot_classes_count_closed_form(q):
    # q^4 + q^3 + q^2 classes, as for a cell decomposition of a
    # four-dimensional Quot scheme
    assert len(enumerate_quot_classes_22(q)) == q ** 4 + q ** 3 + q ** 2


@pytest.mark.parametrize("q", [2, 3])
def test_quot_classes_are_one_per_reference_orbit(q):
    # Each representative lies in exactly one GL_2 orbit of the q^8-pair
    # enumerator, and each of its orbits holds exactly one representative.
    gl2 = [(g, g.inverse()) for g in reference_gl2(GF(q))]
    reference = reference_quot_classes_22(q)
    orbit_of = {}
    for i, m in enumerate(reference):
        for g, gi in gl2:
            assert orbit_of.setdefault((g * m.X[0] * gi, g * m.G), i) == i
    reps = enumerate_quot_classes_22(q)
    assert all(validate_framed(m).ok for m in reps)
    assert sorted(orbit_of[m.X[0], m.G] for m in reps) == list(range(len(reference)))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_closed_form_classes_equal_the_bitmap_scan_as_orbits(q):
    # Same actions in the same order with the same group sizes, and per
    # action the same set of k[X]^x-orbits.
    new = cases222._action_groups(enumerate_quot_classes_22(q))
    old = cases222._action_groups(reference_bitmap_quot_classes_22(q))
    assert list(new) == list(old)
    for X, group in new.items():
        assert len(group) == len(old[X])
        orbits = {unit_orbit(m) for m in group}
        assert len(orbits) == len(group)
        assert orbits == {unit_orbit(m) for m in old[X]}


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_companion_class_counts_match_the_algebra_type(q):
    # k[X] is F_q x F_q, F_q[e] or F_q^2 as X is a tuple of points, a Jordan
    # block or has no root: |P^1(k[X])| is (q+1)^2, q(q+1) or q^2+1.  A
    # scalar (a semisimple double point) has one class.
    want = {ModuleType.TUPLE: (q + 1) ** 2, ModuleType.JORDAN: q * (q + 1),
            ModuleType.NON_SPLIT: q * q + 1, ModuleType.SEMISIMPLE: 1}
    groups = cases222._action_groups(enumerate_quot_classes_22(q))
    assert len(groups) == q * q + q
    for X, group in groups.items():
        assert len(group) == want[cases222._action_facts(X)[0]]


@pytest.mark.parametrize("mutation, message", [
    # a pair of non-units of one maximal ideal: the columns span an eigenline
    (lambda pairs: pairs[:-1] + [((0, 0), (0, 0))], "does not generate"),
    (lambda pairs: pairs[:-1], "classes listed"),
    (lambda pairs: pairs + pairs[:1], "classes listed"),
])
def test_a_wrong_class_listing_raises(monkeypatch, mutation, message):
    real = cases222._companion_classes
    monkeypatch.setattr(cases222, "_companion_classes",
                        lambda q, roots: mutation(real(q, roots)))
    with pytest.raises(ArithmeticError, match=message):
        enumerate_quot_classes_22(3)


def test_non_unimodular_pair_in_a_split_algebra_raises(monkeypatch):
    # X = [[0, 0], [1, 1]] has roots 0 and 1; (X, X) lies in the ideal (X)
    # though neither entry is 0, so its framing does not generate.
    real = cases222._companion_classes

    def mutated(q, roots):
        pairs = real(q, roots)
        return pairs[:-1] + [((0, 1), (0, 1))] if roots == [0, 1] else pairs

    monkeypatch.setattr(cases222, "_companion_classes", mutated)
    with pytest.raises(ArithmeticError, match=r"^listed class .* does not generate "
                                              r"at action X = Matrix\(F:3, 2x2: 0 0; 1 1\)$"):
        enumerate_quot_classes_22(3)


@pytest.fixture(scope="module")
def census_q2():
    return enumerate_222(2)


def test_census_all_five_labels_nonzero(census_q2):
    by_label = {}
    for (label, _), c in census_q2.counts.items():
        by_label[label] = by_label.get(label, 0) + c
    for want in ("MAIN_SPLIT", "CYCLIC_NILPOTENT", "MIXED_12", "MIXED_21",
                 "TOTALLY_DEGENERATE"):
        assert by_label.get(want, 0) > 0


def test_census_no_border_rank_three(census_q2):
    assert census_q2.border_rank_3 == 0


def test_census_forced_consequences_hold(census_q2):
    assert census_q2.forced_failures == 0


def test_census_expected_structure(census_q2):
    # frozen counts from the exhaustive run; the degenerate fibers are the
    # 2 * gaussian_binomial(2,4,2) = 70 points over the two rational points
    counts = dict(census_q2.counts)
    assert census_q2.total_points == 308
    assert counts[("MAIN_SPLIT", LABEL_GENERIC)] == 81
    assert counts[("CYCLIC_NILPOTENT", LABEL_W_TYPE)] == 72
    assert counts[("MIXED_12", LABEL_NON_CONCISE)] == 12
    assert counts[("MIXED_21", LABEL_NON_CONCISE)] == 12
    degenerate_total = sum(c for (label, _), c in counts.items()
                           if label == "TOTALLY_DEGENERATE")
    assert degenerate_total == 70


def test_census_tensor_labels_match_case_analysis(census_q2):
    for (label, tlabel), count in census_q2.counts.items():
        if label == "MAIN_SPLIT":
            assert tlabel == LABEL_GENERIC
        if label == "CYCLIC_NILPOTENT":
            assert tlabel == LABEL_W_TYPE
        if label in ("MIXED_12", "MIXED_21", "SPLIT_MIXED_12", "SPLIT_MIXED_21"):
            assert tlabel == LABEL_NON_CONCISE


def test_census_deterministic(census_q2):
    again = enumerate_222(2)
    assert again.counts == census_q2.counts
    assert again.total_points == census_q2.total_points


def test_census_cap_guard():
    # q = 3 lists 117 classes and assembles 27 families, 144 in all, one
    # more than this cap allows
    with pytest.raises(InfeasibleEnumeration,
                       match="^144 census classes and families exceed cap 143$"):
        enumerate_222(3, cap=143)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_census_cap_counts_the_assembled_families(monkeypatch, q):
    # The cap is checked before anything is enumerated; the count it checks
    # must be the classes the census lists plus the families it assembles
    # and validates.
    calls = []
    real = cases222._validate_pairing
    monkeypatch.setattr(cases222, "_validate_pairing",
                        lambda point, lifts: calls.append(1) or real(point, lifts))
    census = enumerate_222(q)
    work = census.quot_classes + len(calls)
    assert work == q ** 4 + q ** 3 + q ** 2 + 3 * q * q
    with pytest.raises(InfeasibleEnumeration, match=f"^{work} census classes and families "):
        enumerate_222(q, cap=work - 1)
    enumerate_222(q, cap=work)


def test_census_default_caps_first_refuse_q23_and_q41():
    def work(q):
        with pytest.raises(InfeasibleEnumeration) as err:
            enumerate_222(q, cap=0)
        return int(str(err.value).split()[0])

    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
    assert [q for q in primes if work(q) > 200_000][0] == 23
    assert [q for q in primes if work(q) > 2_000_000][0] == 41
    # refused at once, before any enumeration
    with pytest.raises(InfeasibleEnumeration):
        enumerate_222(1_000_000_007)


def load_census_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "census_222.py"
    spec = importlib.util.spec_from_file_location("census_222", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_census_matches_closed_forms(q):
    # the closed forms come from the census script, whose table this checks too
    census = enumerate_222(q)
    assert census.quot_classes == q ** 4 + q ** 3 + q ** 2
    assert census.border_rank_3 == census.forced_failures == 0
    assert census.counts == load_census_script().closed_form_counts(q)
    assert census.total_points == sum(census.counts.values())


def test_census_matches_direct_membership_loop():
    assert census_cross_check(2)


def test_census_matches_direct_membership_loop_q3():
    assert census_cross_check(3)


@pytest.mark.parametrize("pair_sample", [2, 4, 7, 10])
def test_cross_check_finds_the_kernels_of_the_full_target_loop(pair_sample):
    checked = cases222._cross_check_kernels(2, pair_sample)
    chosen = [pair for pair, _ in checked]
    assert [keys for _, keys in checked] == reference_cross_check_kernels(chosen, 2)
    assert all(keys for _, keys in checked)


@pytest.mark.parametrize("pair_sample", [4, 12])
def test_cross_check_finds_the_kernels_of_the_all_action_loop_q3(pair_sample):
    checked = cases222._cross_check_kernels(3, pair_sample)
    chosen = [pair for pair, _ in checked]
    assert [keys for _, keys in checked] == reference_all_action_cross_check_kernels(chosen, 3)


@pytest.mark.parametrize("q", [2, 3])
def test_cross_check_actions_meet_each_conjugacy_class_once(q):
    actions, _ = cases222._cross_check_pairs(q, 1)
    assert len(actions) == q + q * q
    classes = conjugacy_classes(GF(q))
    assert [sum(tuple(Z.entries) in c for Z in actions) for c in classes] == [1] * len(classes)
    assert [cases222._is_scalar(Z) for Z in actions] == [True] * q + [False] * (q * q)


@pytest.mark.parametrize("q", [2, 3])
def test_rref_targets_are_the_reduced_rank_2_framings(q):
    # every 2 x 4 framing at q = 2, a sample at q = 3
    field = GF(q)
    if q == 2:
        framings = list(all_matrices(field, 2, 4))
    else:
        rng = random.Random(q)
        framings = [Matrix(field, 2, 4, [rng.randrange(q) for _ in range(8)])
                    for _ in range(400)]
        framings += [G.rref()[0] for G in framings]
    kept = 0
    for G in framings:
        reduced, pivots = G.rref()
        assert is_rref(G) == (len(pivots) == 2 and reduced == G)
        kept += is_rref(G)
    assert kept


def test_cross_check_misses_kernels_without_any_one_action(monkeypatch):
    # at pair sample 10 over F_2 each of the six actions finds a kernel
    # that no other action finds
    full = [keys for _, keys in cases222._cross_check_kernels(2, 10)]
    real = cases222._cross_check_pairs
    for drop in range(6):
        def fewer(q, pair_sample, drop=drop):
            actions, chosen = real(q, pair_sample)
            return actions[:drop] + actions[drop + 1:], chosen
        monkeypatch.setattr(cases222, "_cross_check_pairs", fewer)
        assert [keys for _, keys in cases222._cross_check_kernels(2, 10)] != full
        assert census_cross_check(2, 10) is False


def test_cross_check_misses_kernels_with_rref_targets_at_every_action(monkeypatch):
    # one target per GL_2-orbit is enough only where GL_2 fixes the action
    full = [keys for _, keys in cases222._cross_check_kernels(2, 10)]
    monkeypatch.setattr(cases222, "_is_scalar", lambda Z: True)
    assert [keys for _, keys in cases222._cross_check_kernels(2, 10)] != full
    assert census_cross_check(2, 10) is False


def test_cross_check_sees_every_lost_action_q3_from_the_script_pair_sample(monkeypatch):
    # over F_3 pair sample 20 is the smallest at which losing any one of the
    # twelve actions fails the cross-check; at 19 losing action 1 passes
    sample = load_census_script().CROSS_CHECK_PAIR_SAMPLE
    assert sample == 20
    real = cases222._cross_check_pairs
    for drop in range(12):
        def fewer(q, pair_sample, drop=drop):
            actions, chosen = real(q, pair_sample)
            return actions[:drop] + actions[drop + 1:], chosen
        monkeypatch.setattr(cases222, "_cross_check_pairs", fewer)
        assert census_cross_check(3, sample) is False
        assert census_cross_check(3, sample - 1) is (drop == 1)


@pytest.mark.parametrize("q, pair_sample", [(2, 10), (3, 12)])
def test_actions_the_characteristic_polynomial_skips_have_no_valid_target(q, pair_sample):
    actions, chosen = cases222._cross_check_pairs(q, pair_sample)
    skipped = 0
    for Z in actions:
        for m1, m2, prod in chosen:
            if cases222._may_lift(char_poly(Z), char_poly(prod.actions[0])):
                continue
            skipped += 1
            targets = MembershipSystem(m1, m2, (Z,)).consistent_targets()
            assert not any(validate_framed(FramedModule(1, 2, 4, (Z,), G)).ok for G in targets)
    assert skipped > len(actions) * len(chosen) // 2


@pytest.mark.parametrize("q, pair_sample", [(2, 10), (3, 12)])
def test_rref_targets_are_the_consistent_targets_in_rref(q, pair_sample):
    # at every listed action, scalar or not, and whether or not chi divides
    actions, chosen = cases222._cross_check_pairs(q, pair_sample)
    listed = 0
    for Z in actions:
        for m1, m2, _ in chosen:
            system = MembershipSystem(m1, m2, (Z,))
            got = [G.key() for G in cases222._rref_targets(system)]
            want = {G.key() for G in system.consistent_targets() if is_rref(G)}
            assert len(got) == len(set(got))
            assert set(got) == want
            listed += len(got)
    assert listed


@pytest.mark.parametrize("q", [2, 3])
def test_tensor_dimension_is_the_rank_of_the_defining_relations(q):
    # every action pair of the census, linked or not
    actions = list(cases222._action_groups(enumerate_quot_classes_22(q)))
    for X1 in actions:
        for X2 in actions:
            m1 = FramedModule(1, 2, 2, (X1,), Matrix.identity(GF(q), 2))
            m2 = FramedModule(1, 2, 2, (X2,), Matrix.identity(GF(q), 2))
            assert cases222._tensor_dim(X1, X2) == tensor_over_S(m1, m2).dim12


def test_cross_check_misses_kernels_when_chi_must_equal_the_products(monkeypatch):
    # a quotient's characteristic polynomial divides the product's; equality
    # holds only when the product has dimension 2
    full = [keys for _, keys in cases222._cross_check_kernels(2, 10)]
    monkeypatch.setattr(cases222, "_may_lift", lambda chi_z, chi: chi_z == chi)
    assert [keys for _, keys in cases222._cross_check_kernels(2, 10)] != full
    assert census_cross_check(2, 10) is False


@pytest.mark.parametrize("pivots", list(itertools.combinations(range(4), 2)))
def test_cross_check_misses_kernels_without_any_one_pivot_pattern(monkeypatch, pivots):
    full = [keys for _, keys in cases222._cross_check_kernels(2, 10)]
    real = cases222._rref_targets

    def fewer(system):
        return (G for G in real(system) if G.rref()[1] != pivots)

    monkeypatch.setattr(cases222, "_rref_targets", fewer)
    assert [keys for _, keys in cases222._cross_check_kernels(2, 10)] != full
    assert census_cross_check(2, 10) is False


@pytest.mark.parametrize("pair_sample", [0, -1])
def test_census_cross_check_needs_a_positive_pair_sample(pair_sample):
    with pytest.raises(ValueError, match="pair_sample"):
        census_cross_check(2, pair_sample)


@pytest.mark.parametrize("q", [2, 3])
def test_consistent_targets_are_the_targets_solve_lifts(q):
    # every target framing of every (pair, Z) at q = 2, and a sample at q = 3
    field = GF(q)
    rng = random.Random(q)
    for m1, m2, _ in cases222._cross_check_pairs(q, 3)[1]:
        for Z in all_matrices(field, 2, 2):
            system = MembershipSystem(m1, m2, (Z,))
            targets = list(system.consistent_targets())
            keys = {G.key() for G in targets}
            assert len(keys) == len(targets) == q ** (8 - len(system._checks))
            assert all(system.solve(G).found for G in targets)
            if q == 2:
                framings = list(all_matrices(field, 2, 4))
            else:
                framings = [Matrix(field, 2, 4, [rng.randrange(q) for _ in range(8)])
                            for _ in range(40)]
            for G in framings:
                assert system.solve(G).found == (G.key() in keys)


def test_consistent_targets_need_a_finite_field():
    m = FramedModule(1, 2, 2, (Matrix.zeros(QQ, 2, 2),), Matrix.identity(QQ, 2))
    with pytest.raises(FieldError):
        next(MembershipSystem(m, m, (Matrix.zeros(QQ, 2, 2),)).consistent_targets())


@pytest.mark.parametrize("q", [2, 3])
def test_invariant_subspaces_match_the_fully_checked_enumeration(q):
    # every action pair of the census, scalar and not
    field = GF(q)
    groups = cases222._action_groups(enumerate_quot_classes_22(q))
    scalar_pairs = 0
    for group1 in groups.values():
        for group2 in groups.values():
            prod = tensor_over_S(group1[0], group2[0])
            for sub_dim in range(prod.dim12 + 1):
                got = cases222._invariant_subspaces(prod.actions, prod.dim12, sub_dim, field)
                assert got == reference_invariant_subspaces(prod.actions, prod.dim12,
                                                             sub_dim, field)
            scalar_pairs += prod.dim12 == 4
    assert scalar_pairs == q


@pytest.mark.parametrize("field", [GF(3), QQ], ids=["F3", "Q"])
def test_pairing_kernel_key_depends_on_the_kernel_only(field):
    # composed = pihat * section; keys must agree exactly when the kernels do.
    section = SimpleNamespace(section=Matrix.from_int_rows(
        field, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]]))

    def key(rows):
        return cases222._pairing_kernel_key(
            SimpleNamespace(pihat=Matrix.from_int_rows(field, rows)), section)

    pihat = [[1, 0, 2, 1], [0, 1, 1, 0]]
    same_kernel = [[1, 1, 3, 1], [2, 1, 5, 2]]  # rows (r1 + r2, 2 r1 + r2)
    stacked = [[0, 0, 0, 0], [1, 0, 2, 1], [0, 2, 2, 0]]
    other = [[1, 0, 2, 1], [0, 1, 0, 0]]
    assert key(pihat) == key(same_kernel) == key(stacked)
    assert key(pihat) != key(other)
    assert key([[0, 0, 0, 0]]) != key(pihat)
    assert key([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == ()


def test_census_cross_check_fails_when_kernels_collapse(monkeypatch):
    # With every found pairing keyed alike, each pair's found count is 1,
    # short of its subspace count: the cross-check can fail.
    monkeypatch.setattr(cases222, "_pairing_kernel_key", lambda point, prod: ("same",))
    assert census_cross_check(2) is False


def test_census_matches_per_class_pair_loop_q2(census_q2):
    assert census_q2 == reference_census(2)


def test_census_q3_matches_recorded_table():
    census = enumerate_222(3)
    assert census.quot_classes == 117
    assert census.total_points == 2154
    assert census.border_rank_3 == 0
    assert census.forced_failures == 0
    assert census.counts == CENSUS_Q3_COUNTS


def test_action_table_matches_module_type_on_q3_classes():
    reps = enumerate_quot_classes_22(3)
    groups = cases222._action_groups(reps)
    assert len(groups) == 12
    assert sum(map(len, groups.values())) == len(reps)
    for X, group in groups.items():
        for m in group:
            assert m.X[0] == X
            supp = sorted(map(cases222._supp_key, support_univariate(m).points))
            assert cases222._action_facts(X) == (reference_module_type(m), supp)
            assert module_type_222(m) == reference_module_type(m)


def test_classify_point_matches_census_core_per_family_q2():
    # The census classifies each (X1, X2, kernel) family once with the first
    # class of each action; the public classifier, on the point built from
    # the last class of each action, must agree.
    groups = cases222._action_groups(enumerate_quot_classes_22(2))
    families = 0
    for X1, group1 in groups.items():
        for X2, group2 in groups.items():
            prod = tensor_over_S(group1[0], group2[0])
            if prod.dim12 < 2:
                continue
            for basis in cases222._invariant_subspaces(prod.actions, prod.dim12,
                                                       prod.dim12 - 2, F2):
                families += 1
                first = cases222._assemble_point(group1[0], group2[0], prod, basis, F2)
                last = cases222._assemble_point(group1[-1], group2[-1], prod, basis, F2)
                facts = [cases222._action_facts(X) for X in (X1, X2, first.Z[0])]
                tensor = classify_2x2x2(cases222._pairing_tensor(first))
                try:
                    core = cases222._classify_valid(tensor, *facts)
                except NonSplitSupport:
                    with pytest.raises(NonSplitSupport):
                        classify_point_222(last)
                    assert (classify_2x2x2(cases222._pairing_tensor(first)).label
                            == classify_2x2x2(tensor_from_bilin(last)).label)
                    continue
                public = classify_point_222(last)
                assert (public.label, public.tensor.label, public.forced_ok) == (
                    core.label, core.tensor.label, core.forced_ok)
                assert public.m3_type == core.m3_type
    assert families > 0


def test_census_failure_names_actions_and_kernel(monkeypatch):
    def failing(point, lifts):
        return PairingValidation(z_commutes=True, equivariant=False, surjective=True,
                                 failure="X-equivariance at index 0", residual=None)

    monkeypatch.setattr(cases222, "_validate_pairing", failing)
    # the first action pair is the scalar pair (0, 0), which is tallied, not
    # assembled; the first family assembled is 0 with the nilpotent
    # companion, whose tensor product is 2-dimensional
    with pytest.raises(ArithmeticError) as err:
        enumerate_222(2)
    assert str(err.value) == (
        "census point failed validation: X-equivariance at index 0 at actions "
        "X1 = Matrix(F:2, 2x2: 0 0; 0 0), X2 = Matrix(F:2, 2x2: 0 0; 1 0), "
        "kernel basis []")


def test_census_checks_every_family_and_classifies_each_tensor_once(monkeypatch):
    # Of the 417 families at q = 3, only the 3q^2 = 27 of the non-scalar
    # pairs are assembled and validated; the scalar pairs' 3 * 130 are
    # tallied from the plane counts.  20 classifications: 15 distinct
    # pairings and the five plane-type representatives.  45 tensor
    # products: 48 action pairs have characteristic polynomials with a
    # common factor, and the three scalar pairs among them need none.
    calls = {"_validate_pairing": 0, "classify_2x2x2": 0, "tensor_over_S": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cases222, name, counted(name, getattr(cases222, name)))
    census = enumerate_222(3)
    assert census.counts == CENSUS_Q3_COUNTS
    assert calls == {"_validate_pairing": 27, "classify_2x2x2": 20, "tensor_over_S": 45}


_CENSUS_FAILURE = re.compile(
    r"census point failed validation: .+ at actions X1 = Matrix\(F:3, 2x2: [^)]+\), "
    r"X2 = Matrix\(F:3, 2x2: [^)]+\), kernel basis \[.*\]")


def test_census_with_kronecker_factors_in_the_wrong_order_fails(monkeypatch):
    # The families are checked with the lifts tensor_over_S returns.  Built
    # in the wrong order, (1 (x) X1, X2 (x) 1), they agree with the true
    # lifts on scalar pairs and, as a set, on pairs X1 = X2, but not on a
    # scalar with a companion at its root: the census must stop there.
    real = cases222.tensor_over_S

    def wrong_order(m1, m2):
        prod = real(m1, m2)
        eye = Matrix.identity(m1.field, 2)
        lifts = tuple((eye.kron(x), y.kron(eye)) for x, y in zip(m1.X, m2.X))
        return dataclasses.replace(prod, lifts=lifts)

    monkeypatch.setattr(cases222, "tensor_over_S", wrong_order)
    with pytest.raises(ArithmeticError) as err:
        enumerate_222(3)
    assert _CENSUS_FAILURE.fullmatch(str(err.value))
    assert "-equivariance at index 0" in str(err.value)


def test_census_with_a_perturbed_pihat_fails(monkeypatch):
    real = cases222._assemble_point

    def perturbed(m1, m2, prod, basis, field):
        point = real(m1, m2, prod, basis, field)
        pihat = point.pihat + Matrix(field, point.pihat.rows, point.pihat.cols,
                                     [1] + [0] * (len(point.pihat.entries) - 1))
        return dataclasses.replace(point, pihat=pihat)

    monkeypatch.setattr(cases222, "_assemble_point", perturbed)
    with pytest.raises(ArithmeticError) as err:
        enumerate_222(3)
    assert _CENSUS_FAILURE.fullmatch(str(err.value))


def test_tensor_product_lifts_are_the_pairing_check_lifts():
    # enumerate_222 checks each family with prod.lifts; validate_pairing
    # builds the lifts from the point.  Both give the same verdict.
    field = GF(3)
    groups = cases222._action_groups(enumerate_quot_classes_22(3))
    for X1, X2 in [(a, b) for a in groups for b in groups][::7]:
        m1, m2 = groups[X1][0], groups[X2][0]
        prod = tensor_over_S(m1, m2)
        if prod.dim12 < 2:
            continue
        for basis in cases222._invariant_subspaces(prod.actions, prod.dim12,
                                                   prod.dim12 - 2, field):
            point = cases222._assemble_point(m1, m2, prod, basis, field)
            assert cases222._validate_pairing(point, prod.lifts) == validate_pairing(point)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_linked_pairs_equal_the_gcd_reference(q):
    groups = cases222._action_groups(enumerate_quot_classes_22(q))
    actions = list(groups)
    got = [(actions[i], actions[j]) for i, j in cases222._linked_pairs(actions)]
    assert got == reference_linked_pairs(groups)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_resultant_decides_a_common_factor_of_monic_quadratics(q):
    # every pair of monic quadratics x^2 + a x + b, as companion matrices
    field = GF(q)
    coeffs = list(itertools.product(range(q), repeat=2))
    companions = [Matrix(field, 2, 2, [0, -b % q, 1, -a % q]) for a, b in coeffs]
    polys = [UniPoly(field, [b, a, 1]) for a, b in coeffs]
    assert [char_poly(X) for X in companions] == polys
    want = [(i, j) for i, f in enumerate(polys) for j, g in enumerate(polys)
            if f.gcd(g).degree > 0]
    assert cases222._linked_pairs(companions) == want


@pytest.mark.parametrize("q", [2, 3, 5])
def test_census_matches_per_action_pair_reference(q):
    # The reference assembles and validates every scalar pair's families
    # instead of translating lambda = 0's, and builds every tensor product.
    assert enumerate_222(q) == reference_action_census(q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_scalar_pair_families_are_translated_zero_families(q):
    # Every (lambda*I, lambda*I) family, assembled directly, validates and has
    # the Pihat and classification of lambda = 0's family on its kernel,
    # classified with lambda's facts.
    field = GF(q)
    groups = cases222._action_groups(enumerate_quot_classes_22(q))
    eye = Matrix.identity(field, 2)
    zero = groups[eye.scale(0)][0]
    zero_prod = tensor_over_S(zero, zero)
    kernels = cases222._invariant_subspaces(zero_prod.actions, 4, 2, field)
    assert len(kernels) == gaussian_binomial(2, 4, q)
    transported = []
    for basis in kernels:
        point = cases222._assemble_point(zero, zero, zero_prod, basis, field)
        transported.append((point.pihat.key(), classify_2x2x2(cases222._pairing_tensor(point))))
    for lam in range(q):
        X = eye.scale(lam)
        m = groups[X][0]
        facts = cases222._action_facts(X)
        prod = tensor_over_S(m, m)
        assert cases222._invariant_subspaces(prod.actions, prod.dim12, 2, field) == kernels
        for basis, (key, tensor) in zip(kernels, transported):
            point = cases222._assemble_point(m, m, prod, basis, field)
            assert validate_pairing(point).ok
            assert point.Z[0] == X
            assert point.pihat.key() == key
            direct = cases222._classify_valid(
                classify_2x2x2(cases222._pairing_tensor(point)),
                facts, facts, cases222._action_facts(point.Z[0]))
            assert direct == cases222._classify_valid(tensor, facts, facts, facts)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_scalar_pair_tally_equals_the_enumerated_families(q):
    # The reference: every lambda = 0 family assembled, validated and
    # classified, one per 2-dimensional kernel of k^4.
    field = GF(q)
    zero = enumerate_quot_classes_22(q)[0]
    assert zero.X[0] == Matrix.zeros(field, 2, 2)
    enumerated = Counter(t for _, t in cases222._families(zero, zero, field, {}))
    assert cases222._scalar_pair_classes(q, field) == enumerated
    assert sum(cases222._plane_counts(q).values()) == gaussian_binomial(2, 4, q)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_plane_type_representatives_classify_to_five_classes(q):
    classes = cases222._scalar_pair_classes(q, GF(q))
    assert len(classes) == 5
    assert {(c.label, c.concise, c.pencil_split): n for c, n in classes.items()} == {
        (LABEL_NON_CONCISE, (False, True, True), None): q + 1,
        (LABEL_NON_CONCISE, (True, False, True), None): q + 1,
        (LABEL_W_TYPE, (True, True, True), True): (q - 1) * (q + 1) ** 2,
        (LABEL_GENERIC, (True, True, True), True): q * q * (q + 1) ** 2 // 2,
        (LABEL_GENERIC, (True, True, True), False): q * q * (q - 1) ** 2 // 2,
    }


@pytest.fixture(scope="module")
def action_census_q2():
    return reference_action_census(2)


@pytest.mark.parametrize("name", ["mu3", "mu4", "mu2", "mu1", "anisotropic"])
def test_census_with_a_plane_count_off_by_one_differs_from_the_reference(
        monkeypatch, action_census_q2, name):
    real = cases222._plane_counts
    monkeypatch.setattr(cases222, "_plane_counts",
                        lambda q: {**real(q), name: real(q)[name] + 1})
    assert enumerate_222(2) != action_census_q2


@pytest.mark.parametrize("q", [2, 3, 5])
def test_coprime_action_pairs_have_zero_tensor_product(q):
    # _linked_pairs drops exactly the action pairs whose product is 0.
    groups = cases222._action_groups(enumerate_quot_classes_22(q))
    actions = list(groups)
    linked = {(actions[i], actions[j]) for i, j in cases222._linked_pairs(actions)}
    skipped = 0
    for X1, group1 in groups.items():
        for X2, group2 in groups.items():
            dim12 = tensor_over_S(group1[0], group2[0]).dim12
            assert (dim12 > 0) == ((X1, X2) in linked)
            skipped += (X1, X2) not in linked
    assert skipped > 0


def test_census_validates_the_first_class_of_each_action(monkeypatch):
    # The class enumerator does not validate the scalar classes (lambda*I, I);
    # the census validates every action's first class, so one that fails
    # stops it, naming the action.
    real = cases222.validate_framed
    seen = []

    def failing_at_scalar_one(m):
        seen.append(m)
        val = real(m)
        if m.X[0] == Matrix.identity(F2, 2):
            val.ok = False
        return val

    groups = cases222._action_groups(enumerate_quot_classes_22(2))
    monkeypatch.setattr(cases222, "validate_framed", failing_at_scalar_one)
    with pytest.raises(ArithmeticError) as err:
        enumerate_222(2)
    assert str(err.value) == (
        "census class failed validation at action X = Matrix(F:2, 2x2: 1 0; 0 1)")
    # the scalar actions come first: 0, then I
    assert seen[-2:] == [group[0] for group in groups.values()][:2]


def test_cross_check_pairs_match_per_class_pair_construction():
    for pair_sample in (2, 4, 7):
        chosen = cases222._cross_check_pairs(2, pair_sample)[1]
        reference = reference_cross_check_pairs(2, pair_sample)
        assert len(chosen) == len(reference) == pair_sample
        for (m1, m2, prod), (r1, r2, rprod) in zip(chosen, reference):
            assert (m1, m2) == (r1, r2)
            assert prod == rprod


def test_census_script_reports_the_q2_census():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, str(root / "scripts" / "census_222.py"), "2"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    header = run.stdout.splitlines()[0]
    assert "308 points" in header
    assert "6 distinct actions" in header
    # the scalar pair's 35 = [4 choose 2]_2 families, enumerated
    scalar = [line for line in run.stdout.splitlines() if line.startswith("scalar pair")]
    assert len(scalar) == 1
    assert scalar[0].startswith(
        "scalar pair (0, 0): 35 families enumerated, equal to the plane counts (")


def test_census_script_fails_when_the_plane_counts_differ(monkeypatch, capsys):
    script = load_census_script()
    real = script._scalar_pair_classes
    monkeypatch.setattr(script, "_scalar_pair_classes",
                        lambda q, field: real(q, field) + Counter({LABEL_W_TYPE: 1}))
    assert script.run_census(2) is False
    assert "35 families enumerated, DIFFERENT FROM the plane counts" in capsys.readouterr().out


def test_census_script_runs_several_q_and_hashes_each_table():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, str(root / "scripts" / "census_222.py"), "2", "5"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = [line for line in run.stdout.splitlines() if "table sha256" in line]
    script = load_census_script()
    assert [line.split()[0] for line in lines] == ["F_2:", "F_5:"]
    assert [line.split()[-1] for line in lines] == [
        script.table_sha256(enumerate_222(q)) for q in (2, 5)]
    assert lines[0].split()[-1].startswith("4a296d4580567600")


# -- label vs tensor class -----------------------------------------------------------------

def test_pi5_sample_is_degenerate_fiber_tensor():
    t = named_tensor("pi5_sample", QQ)
    from quotbilin.tensorlab import classify_2x2x2, conciseness
    assert conciseness(t)[2] is True
    assert classify_2x2x2(t).rank == 2


def test_main_split_implies_concise_separable_but_not_conversely():
    # forward directions of the case analysis
    b = main_component_point([QQ.from_int(0), QQ.from_int(1)],
                             Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    cls = classify_point_222(b)
    assert cls.label == CaseLabel.MAIN_SPLIT
    assert cls.tensor.concise == (True, True, True)
    assert cls.tensor.pencil_separable is True
    cyc = classify_point_222(nilpotent_pair_point())
    assert cyc.label == CaseLabel.CYCLIC_NILPOTENT
    assert cyc.tensor.label == LABEL_W_TYPE
    # the converse fails: a totally degenerate point can carry the unit
    # tensor, since zero actions impose no constraint on the pairing
    pihat = Matrix.zeros(QQ, 2, 4)
    pihat.entries[0] = QQ.one()
    pihat.entries[7] = QQ.one()
    degen = degenerate_point(2, 2, 2, Matrix.identity(QQ, 2),
                             Matrix.identity(QQ, 2), pihat)
    dcls = classify_point_222(degen)
    assert dcls.label == CaseLabel.TOTALLY_DEGENERATE
    assert dcls.tensor.label == LABEL_GENERIC
