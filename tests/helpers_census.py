"""Reference census for differential tests: the per-class-pair loop, which
builds a tensor product and validates and classifies every point for each of
the quot-class pairs, the class enumerator that marks whole GL_2 orbits over
all q^8 pairs (X, G), and the module-type rule on a framed module."""

from quotbilin.bilin import validate_bilin
from quotbilin.cases222 import (
    CaseLabel,
    Census,
    ModuleType,
    _all_matrices,
    _assemble_point,
    _invariant_subspaces,
    classify_point_222,
    enumerate_quot_classes_22,
)
from quotbilin.exactalg import GF, InfeasibleEnumeration, Matrix
from quotbilin.modcore import (
    FramedModule,
    annihilator_algebra_dim,
    support_univariate,
    tensor_over_S,
    validate_framed,
)
from quotbilin.quot import NonSplitSupport
from quotbilin.tensorlab import classify_2x2x2, tensor_from_bilin


def reference_module_type(m):
    supp = support_univariate(m)
    if not supp.split:
        return ModuleType.NON_SPLIT
    if len(supp.points) == 2:
        return ModuleType.TUPLE
    alg = annihilator_algebra_dim(m)
    return ModuleType.JORDAN if alg == 2 else ModuleType.SEMISIMPLE


def reference_gl2(field) -> list[Matrix]:
    return [m for m in _all_matrices(field, 2, 2) if m.is_invertible()]


def reference_quot_classes_22(q: int) -> list[FramedModule]:
    """Representatives of rank-2, dimension-2 framed-module classes over F_q.

    Classes are orbits of valid (X, G) under simultaneous change of basis
    (g X g^-1, g G); the representative of a class is its first member in
    enumeration order.  A pair is encoded as the integer sum of its eight
    entries times powers of q, and a bitmap over all q^8 codes marks the
    whole orbit of each new representative, so every later member is
    skipped before validation.
    """
    field = GF(q)
    gl2 = [(g, g.inverse()) for g in reference_gl2(field)]
    weights = [q ** i for i in range(8)]

    def code(X: Matrix, G: Matrix) -> int:
        return sum(w * e for w, e in zip(weights, X.entries + G.entries))

    seen = bytearray(q ** 8)
    reps = []
    for X in _all_matrices(field, 2, 2):
        for G in _all_matrices(field, 2, 2):
            if seen[code(X, G)]:
                continue
            mod = FramedModule(1, 2, 2, (X,), G)
            if not validate_framed(mod).ok:
                continue
            reps.append(mod)
            for g, gi in gl2:
                seen[code(g * X * gi, g * G)] = 1
    return reps


def reference_census(q: int, cap: int = 200_000) -> Census:
    field = GF(q)
    reps = reference_quot_classes_22(q)
    if len(reps) ** 2 > cap:
        raise InfeasibleEnumeration(f"{len(reps)}^2 pairs exceeds cap {cap}")
    counts: dict = {}
    total = 0
    border3 = 0
    forced_failures = 0
    for m1 in reps:
        for m2 in reps:
            prod = tensor_over_S(m1, m2)
            if prod.dim12 < 2:
                continue
            sub_dim = prod.dim12 - 2
            for basis in _invariant_subspaces(prod.actions, prod.dim12, sub_dim, field):
                point = _assemble_point(m1, m2, prod, basis, field)
                val = validate_bilin(point)
                if not val.ok:
                    raise ArithmeticError(
                        f"census point failed validation: {val.failure or 'module/surjectivity'}")
                try:
                    cls = classify_point_222(point)
                    label = cls.label.value
                    tlabel = cls.tensor.label
                    if not cls.forced_ok:
                        forced_failures += 1
                    if cls.tensor.border_rank >= 3:
                        border3 += 1
                except NonSplitSupport:
                    label = CaseLabel.NON_SPLIT.value
                    tlabel = classify_2x2x2(tensor_from_bilin(point)).label
                counts[(label, tlabel)] = counts.get((label, tlabel), 0) + 1
                total += 1
    return Census(q=q, counts=counts, quot_classes=len(reps),
                  total_points=total, border_rank_3=border3,
                  forced_failures=forced_failures)


def reference_cross_check_pairs(q: int, pair_sample: int) -> list[tuple]:
    """The (m1, m2) pairs of the cross-check, one tensor product per pair."""
    reps = enumerate_quot_classes_22(q)
    pairs = []
    for m1 in reps:
        for m2 in reps:
            prod = tensor_over_S(m1, m2)
            if prod.dim12 >= 2:
                pairs.append((m1, m2, prod))
    step = max(1, len(pairs) // pair_sample)
    return pairs[::step][:pair_sample]
