"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS line (visible under ``pytest -s`` or in the
captured output summary) and enforces the stated runtime budget.
"""

import itertools
import random
import time

from quotbilin.exactalg import (
    GF,
    QQ,
    Matrix,
    UniPoly,
    gaussian_binomial,
    rand_invertible,
)
from quotbilin.modcore import (
    cyclic_module_univariate,
    make_degenerate,
    make_tuple_of_points,
    rand_framed_module,
    support_univariate,
    validate_framed,
)
from quotbilin.quot import (
    degenerate_grassmannian_check,
    hom_KM_univariate,
    quot2_limit_family,
    quot_tangent,
)
from quotbilin.bilin import (
    bilin_dims,
    bilin_tangent,
    degenerate_point,
    factor_membership_detail,
    gauge_transform_bilin,
    main_component_point,
    validate_bilin,
)
from quotbilin.tensorlab import (
    LABEL_GENERIC,
    LABEL_NON_CONCISE,
    LABEL_W_TYPE,
    Tensor3,
    classify_2x2x2,
    secant_dimension,
)
from quotbilin.cases222 import enumerate_222, named_tensor, verify_limit

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.time()

    def done(self, number, message):
        elapsed = time.time() - self.start
        assert elapsed < self.seconds, f"criterion {number} exceeded {self.seconds}s"
        print(f"PASS criterion {number}: {message} ({elapsed:.2f}s)")


def test_criterion_1_dimension_tables():
    budget = Budget(1.0)
    for n in (1, 2):
        for d in (2, 3):
            for r1 in (2, 3, 4):
                for r2 in (2, 3, 4):
                    if r1 < d or r2 < d:
                        continue
                    rep = bilin_dims(n, d, r1, r2)
                    assert rep.main_dim == n * d + (r1 - 1) * d + (r2 - 1) * d
                    assert rep.degenerate_dim == \
                        (r1 - d) * d + (r2 - d) * d + (d * d - d) * d
                    assert rep.reducible_by_count == (n < d * d - 3 * d + 2)
    budget.done(1, "dimension grid n=1..2 d=2..3 r=2..4 matches all three formulas")


def test_criterion_2_quot_tangent_oracle_equivalence():
    budget = Budget(60.0)
    checked = 0
    for field, count, seed in ((F5, 30, 101), (QQ, 30, 202)):
        rng = random.Random(seed)
        for _ in range(count):
            d = rng.randint(1, 3)
            r = rng.randint(1, 3)
            m = rand_framed_module(rng, field, 1, d, r)
            tdim = quot_tangent(m).dim
            odim = hom_KM_univariate(m).dim
            assert tdim == odim == d * r
            checked += 1
    assert checked >= 50
    budget.done(2, f"{checked} univariate modules: deformation dim = Hom oracle dim = d*r")


def test_criterion_3_bilin_tangent_values_and_gauge():
    budget = Budget(30.0)
    main = main_component_point([QQ.from_int(0), QQ.from_int(1)],
                                Matrix.identity(QQ, 2), Matrix.identity(QQ, 2))
    assert bilin_tangent(main).dim == 6 == bilin_dims(1, 2, 2, 2).main_dim
    rng = random.Random(7)
    main5 = main_component_point([F5.from_int(0), F5.from_int(1)],
                                 Matrix.identity(F5, 2), Matrix.identity(F5, 2))
    for _ in range(20):
        moved = gauge_transform_bilin(main5, rand_invertible(rng, F5, 2),
                                      rand_invertible(rng, F5, 2),
                                      rand_invertible(rng, F5, 2))
        assert bilin_tangent(moved).dim == 6
    degen = degenerate_point(2, 2, 2, Matrix.identity(QQ, 2), Matrix.identity(QQ, 2),
                             Matrix.from_int_rows(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    ddim = bilin_tangent(degen).dim
    assert ddim >= 4 == bilin_dims(1, 2, 2, 2).degenerate_dim
    degen5 = degenerate_point(2, 2, 2, Matrix.identity(F5, 2), Matrix.identity(F5, 2),
                              Matrix.from_int_rows(F5, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    dim5 = bilin_tangent(degen5).dim
    for _ in range(5):
        moved = gauge_transform_bilin(degen5, rand_invertible(rng, F5, 2),
                                      rand_invertible(rng, F5, 2),
                                      rand_invertible(rng, F5, 2))
        assert bilin_tangent(moved).dim == dim5
    budget.done(3, f"main tangent 6 across 20 gauges; degenerate tangent {ddim} >= 4, gauge-stable")


def test_criterion_4_reducibility_witnesses_d3():
    budget = Budget(30.0)
    rep = bilin_dims(1, 3, 3, 3)
    assert rep.degenerate_dim == 18 > rep.main_dim == 15
    assert rep.reducible_by_count
    sec = secant_dimension(3, 3, trials=5, seed=0, field=QQ)
    assert sec.bound == 20 < sec.ambient == 26
    assert not sec.fills_ambient
    budget.done(4, "degenerate 18 > main 15 at (1,3,3,3); secant bound 20 < ambient 26, no fill")


def test_criterion_5_sigma2_fills_for_d2():
    budget = Budget(5.0)
    rep = secant_dimension(2, 2, trials=5, seed=0, field=QQ)
    assert rep.terracini_dim == 7 == rep.ambient
    assert rep.fills_ambient
    assert all(v == 7 for v in rep.per_trial)
    budget.done(5, "the first seeded trial reaches the full ambient dimension 7")


def test_criterion_6_classification_2x2x2():
    budget = Budget(60.0)
    expected = {
        "mu1": (2, 2, (True, True, True), LABEL_GENERIC),
        "mu2": (3, 2, (True, True, True), LABEL_W_TYPE),
        "mu3": (2, 2, (False, True, True), LABEL_NON_CONCISE),
        "mu4": (2, 2, (True, False, True), LABEL_NON_CONCISE),
    }
    for name, (rank, border, concise, label) in expected.items():
        cls = classify_2x2x2(named_tensor(name, QQ), check=True)
        assert (cls.rank, cls.border_rank, cls.concise, cls.label) == \
            (rank, border, concise, label)
    rng = random.Random(99)
    names = list(expected)
    for _ in range(1000):
        name = names[rng.randrange(4)]
        t = named_tensor(name, F5)
        moved = classify_2x2x2(t.apply_gl(rand_invertible(rng, F5, 2),
                                          rand_invertible(rng, F5, 2),
                                          rand_invertible(rng, F5, 2)))
        rank, border, concise, label = expected[name]
        assert (moved.rank, moved.border_rank, moved.concise, moved.label) == \
            (rank, border, concise, label)
    for ents in itertools.product(range(2), repeat=8):
        t = Tensor3(F2, (2, 2, 2), list(ents))
        assert classify_2x2x2(t).border_rank <= 2
    budget.done(6, "named tensors classify as stated; 1000 orbit samples stable; "
                   "all 256 F_2 tensors have border rank <= 2")


def test_criterion_7_limit_suite():
    budget = Budget(30.0)
    for name in ("mu2_t", "mu3_t", "mu4_t"):
        target = named_tensor(name[:-2], QQ)
        fam = named_tensor(name, QQ)
        assert fam.evaluate(QQ.zero()) == target
        rep5 = verify_limit(named_tensor(name, F5), named_tensor(name[:-2], F5),
                            [1, 2, 3])
        assert rep5.base_matches
        assert all(s.classification.rank == 2 for s in rep5.samples)
    cases = [
        make_degenerate(2, 2, Matrix.identity(QQ, 2)),
        cyclic_module_univariate(UniPoly.from_ints(QQ, [0, 0, 1])),
        make_tuple_of_points([QQ.from_int(0), QQ.from_int(1)], Matrix.identity(QQ, 2)),
    ]
    branches = set()
    for base in cases:
        fam = quot2_limit_family(base)
        branches.add(fam.branch)
        assert fam.evaluate(QQ.zero()) == base
        for t in (1, 2, 3):
            fiber = fam.evaluate(QQ.from_int(t))
            assert validate_framed(fiber).ok
            rep = support_univariate(fiber)
            assert rep.split and len(rep.points) == 2
    assert branches == {"semisimple", "nilpotent", "distinct"}
    budget.done(7, "mu2/mu3/mu4 families hit their limits exactly and stay rank 2 "
                   "at t=1,2,3; all three module branches recover the base point")


def test_criterion_8_grassmannian_correspondence():
    budget = Budget(60.0)
    for q in (2, 3):
        for d, r in ((1, 2), (2, 3), (2, 4)):
            rep = degenerate_grassmannian_check(d, r, q)
            assert rep.enumerated == rep.formula == gaussian_binomial(d, r, q)
    budget.done(8, "exhaustive degenerate-locus counts match Gaussian binomials "
                   "for (1,2),(2,3),(2,4) over F_2 and F_3")


def test_criterion_9_membership_soundness():
    budget = Budget(60.0)
    main = main_component_point([F3.from_int(0), F3.from_int(1)],
                                Matrix.identity(F3, 2), Matrix.identity(F3, 2))
    rep = factor_membership_detail(main.m1, main.m2, main.target_module())
    assert rep.found and rep.solution_dim == 0
    degen = degenerate_point(2, 2, 2, Matrix.identity(F3, 2), Matrix.identity(F3, 2),
                             Matrix.from_int_rows(F3, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    rep = factor_membership_detail(degen.m1, degen.m2, degen.target_module())
    assert rep.found and rep.solution_dim == 0
    mism = make_degenerate(2, 2, Matrix.identity(F3, 2))
    target = cyclic_module_univariate(UniPoly.from_ints(F3, [0, 0, 1]), r=4)
    assert factor_membership_detail(mism, mism, target).point is None
    m1 = cyclic_module_univariate(UniPoly.from_ints(F3, [0, -1, 1]))
    m2 = cyclic_module_univariate(UniPoly.from_ints(F3, [0, -2, 1]))
    m3 = cyclic_module_univariate(UniPoly.from_ints(F3, [0, -1, 1]))
    assert factor_membership_detail(m1, m2, m3).point is None
    rng = random.Random(40)
    from helpers_membership import random_target
    successes = 0
    for _ in range(200):
        ma = rand_framed_module(rng, F3, 1, 2, 2)
        mb = rand_framed_module(rng, F3, 1, 2, 2)
        tgt = random_target(rng, ma, mb)
        rep = factor_membership_detail(ma, mb, tgt)
        if rep.found:
            successes += 1
            assert validate_bilin(rep.point).ok
            assert rep.solution_dim == 0
            assert rep.point.induced_framing() == tgt.G
    assert successes > 0
    budget.done(9, f"membership sound on fixtures and 200 random instances "
                   f"({successes} successes, all validated, all unique)")


def test_criterion_10_census_222():
    budget = Budget(300.0)
    census = enumerate_222(2)
    by_label = {}
    for (label, _), c in census.counts.items():
        by_label[label] = by_label.get(label, 0) + c
    for want in ("MAIN_SPLIT", "CYCLIC_NILPOTENT", "MIXED_12", "MIXED_21",
                 "TOTALLY_DEGENERATE"):
        assert by_label.get(want, 0) > 0
    assert census.border_rank_3 == 0
    assert census.forced_failures == 0
    budget.done(10, f"census over F_2 complete: {census.total_points} points, "
                    f"all five labels realized, no border-rank-3 labels, "
                    f"all forced consequences hold")
