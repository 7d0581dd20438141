"""Reference census for differential tests: the per-class-pair loop, which
builds a tensor product and validates and classifies every point for each of
the quot-class pairs, the per-action-pair loop, which assembles and validates
every (X1, X2, kernel) family of every action pair, scalar pairs included,
the class enumerator that marks whole GL_2 orbits over
all q^8 pairs (X, G), the one that scans the q^4 framings of each companion
action with a bitmap of k[X]^x-orbits, the invariant-subspace enumerator that tests every
candidate, the cross-check loop over all q^8 target framings, the one over
every consistent target of all q^4 target actions, the RREF test on a
2-row framing, the module-type rule on a framed module, and the link test
by a polynomial gcd per action pair."""

import itertools

from quotbilin.bilin import MembershipSystem, validate_bilin, validate_pairing
from quotbilin.cases222 import (
    CaseLabel,
    Census,
    ModuleType,
    _action_facts,
    _action_groups,
    _assemble_point,
    _classify_valid,
    _invariant_subspaces,
    _is_invariant,
    _pairing_kernel_key,
    classify_point_222,
    enumerate_quot_classes_22,
)
from quotbilin.exactalg import GF, InfeasibleEnumeration, Matrix, char_poly
from quotbilin.modcore import (
    FramedModule,
    annihilator_algebra_dim,
    support_univariate,
    tensor_over_S,
    validate_framed,
)
from quotbilin.quot import NonSplitSupport
from quotbilin.tensorlab import _pairing_tensor, classify_2x2x2, tensor_from_bilin


def all_matrices(field, rows, cols):
    """Every rows x cols matrix over F_p, entries in lexicographic order."""
    p = field.characteristic
    for ents in itertools.product(range(p), repeat=rows * cols):
        yield Matrix(field, rows, cols, list(ents))


def reference_module_type(m):
    supp = support_univariate(m)
    if not supp.split:
        return ModuleType.NON_SPLIT
    if len(supp.points) == 2:
        return ModuleType.TUPLE
    alg = annihilator_algebra_dim(m)
    return ModuleType.JORDAN if alg == 2 else ModuleType.SEMISIMPLE


def reference_linked_pairs(groups: dict) -> list[tuple]:
    """The action pairs (X1, X2) of the grouped classes whose characteristic
    polynomials have a common factor, in group order, by one UniPoly.gcd per
    ordered pair."""
    polys = {X: char_poly(X) for X in groups}
    return [(X1, X2) for X1 in groups for X2 in groups
            if polys[X1].gcd(polys[X2]).degree > 0]


def reference_gl2(field) -> list[Matrix]:
    return [m for m in all_matrices(field, 2, 2) if m.is_invertible()]


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
    for X in all_matrices(field, 2, 2):
        for G in all_matrices(field, 2, 2):
            if seen[code(X, G)]:
                continue
            mod = FramedModule(1, 2, 2, (X,), G)
            if not validate_framed(mod).ok:
                continue
            reps.append(mod)
            for g, gi in gl2:
                seen[code(g * X * gi, g * G)] = 1
    return reps


def reference_bitmap_quot_classes_22(q: int) -> list[FramedModule]:
    """enumerate_quot_classes_22 by a scan: the q scalar classes (lambda*I,
    I), then for each companion X = [[0, -n], [1, t]] in (n, t) order the
    first generating framing G of each k[X]^x-orbit in enumeration order, a
    bitmap over the q^4 framings marking k[X]G = {aG + bXG} for each new
    representative."""
    field = GF(q)
    eye = Matrix.identity(field, 2)
    reps = [FramedModule(1, 2, 2, (eye.scale(lam),), eye) for lam in range(q)]
    weights = (q ** 3, q ** 2, q, 1)
    for n, t in itertools.product(range(q), repeat=2):
        X = Matrix(field, 2, 2, [0, -n % q, 1, t])
        seen = bytearray(q ** 4)
        for code, ents in enumerate(itertools.product(range(q), repeat=4)):
            if seen[code]:
                continue
            mod = FramedModule(1, 2, 2, (X,), Matrix(field, 2, 2, list(ents)))
            if not validate_framed(mod).ok:
                continue
            reps.append(mod)
            XG = (X * mod.G).entries
            for a, b in itertools.product(range(q), repeat=2):
                seen[sum(w * ((a * g + b * h) % q) for w, g, h in zip(weights, ents, XG))] = 1
    return reps


def unit_orbit(m: FramedModule) -> frozenset:
    """The k[X]^x-orbit {(aI + bX) G : aI + bX invertible} of a framed
    module's framing, as entry tuples."""
    field = m.field
    q = field.characteristic
    X, G = m.X[0], m.G
    eye = Matrix.identity(field, 2)
    out = set()
    for a, b in itertools.product(range(q), repeat=2):
        g = eye.scale(a) + X.scale(b)
        if g.is_invertible():
            out.add(tuple(x % q for x in (g * G).entries))
    return frozenset(out)


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
                        f"census point failed validation: {val.failure}")
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


def reference_action_census(q: int) -> Census:
    """The census with one tensor product per action pair and every
    (X1, X2, kernel) family assembled, validated and classified, each scalar
    pair (lambda*I, lambda*I) included, counted once per class pair sharing
    it."""
    field = GF(q)
    groups = _action_groups(enumerate_quot_classes_22(q))
    facts = {X: _action_facts(X) for X in groups}
    counts: dict = {}
    total = 0
    border3 = 0
    forced_failures = 0
    for X1, group1 in groups.items():
        for X2, group2 in groups.items():
            prod = tensor_over_S(group1[0], group2[0])
            if prod.dim12 < 2:
                continue
            weight = len(group1) * len(group2)
            for basis in _invariant_subspaces(prod.actions, prod.dim12, prod.dim12 - 2, field):
                point = _assemble_point(group1[0], group2[0], prod, basis, field)
                val = validate_pairing(point)
                if not val.ok:
                    raise ArithmeticError(f"census point failed validation: {val.failure}")
                Z = point.Z[0]
                facts3 = facts[Z] if Z in facts else _action_facts(Z)
                tensor = classify_2x2x2(_pairing_tensor(point))
                try:
                    cls = _classify_valid(tensor, facts[X1], facts[X2], facts3)
                    label = cls.label.value
                    if not cls.forced_ok:
                        forced_failures += weight
                    if tensor.border_rank >= 3:
                        border3 += weight
                except NonSplitSupport:
                    label = CaseLabel.NON_SPLIT.value
                counts[(label, tensor.label)] = counts.get((label, tensor.label), 0) + weight
                total += weight
    return Census(q=q, counts=counts, quot_classes=sum(map(len, groups.values())),
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


def reference_invariant_subspaces(actions, dim: int, sub_dim: int, field) -> list[list[tuple]]:
    """Every sub_dim-dimensional subspace of F_q^dim in RREF, kept when the
    actions leave it invariant; every candidate is tested."""
    if sub_dim == 0:
        return [[]]
    p = field.characteristic
    out = []
    for pivots in itertools.combinations(range(dim), sub_dim):
        free = [(r, c) for r, pc in enumerate(pivots)
                for c in range(pc + 1, dim) if c not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * dim for _ in range(sub_dim)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            basis = [tuple(r) for r in rows]
            if _is_invariant(actions, basis, field, dim):
                out.append(basis)
    return out


def reference_cross_check_kernels(chosen, q: int) -> list[set]:
    """The cross-check's direct target loop: for each target action Z and
    each of the q^8 target framings that validates, solve every pair's
    membership system and key each lifted point by its pairing kernel."""
    field = GF(q)
    found = [set() for _ in chosen]
    for Z in all_matrices(field, 2, 2):
        systems = [MembershipSystem(m1, m2, (Z,)) for m1, m2, _ in chosen]
        for F3 in all_matrices(field, 2, 4):
            if not validate_framed(FramedModule(1, 2, 4, (Z,), F3)).ok:
                continue
            for system, (_, _, prod), keys in zip(systems, chosen, found):
                rep = system.solve(F3)
                if rep.found:
                    keys.add(_pairing_kernel_key(rep.point, prod))
    return found


def reference_all_action_cross_check_kernels(chosen, q: int) -> list[set]:
    """The cross-check's membership loop over all q^4 target actions Z,
    solving every consistent target that validates, scalar Z included."""
    field = GF(q)
    found = [set() for _ in chosen]
    for Z in all_matrices(field, 2, 2):
        for (m1, m2, prod), keys in zip(chosen, found):
            system = MembershipSystem(m1, m2, (Z,))
            for F3 in system.consistent_targets():
                if not validate_framed(FramedModule(1, 2, 4, (Z,), F3)).ok:
                    continue
                rep = system.solve(F3)
                if not rep.found:
                    raise ArithmeticError(f"consistent target {F3!r} has no pairing lift")
                keys.add(_pairing_kernel_key(rep.point, prod))
    return found


def is_rref(G) -> bool:
    """Whether a 2-row framing is in reduced row echelon form with both rows
    nonzero, read off its pivots: each row's first nonzero entry is 1, the
    second row's lies right of the first's, and the first row is 0 above
    it."""
    r0, r1 = G.row(0), G.row(1)
    p0 = next((c for c, x in enumerate(r0) if x), None)
    p1 = next((c for c, x in enumerate(r1) if x), None)
    return (p0 is not None and p1 is not None and p0 < p1
            and r0[p0] == r1[p1] == 1 and r0[p1] == 0)


def conjugacy_classes(field) -> list[frozenset]:
    """The GL_2-conjugacy classes of M_2(F_p), each a set of entry tuples."""
    gl2 = [(g, g.inverse()) for g in reference_gl2(field)]
    seen: set = set()
    classes = []
    for X in all_matrices(field, 2, 2):
        if tuple(X.entries) in seen:
            continue
        orbit = frozenset(tuple((g * X * gi).entries) for g, gi in gl2)
        seen |= orbit
        classes.append(orbit)
    return classes
