"""The complete two-points case study: dimension-2 pairing points over a line.

Named tensors and degeneration families for the five module-type cases,
point classification by the isomorphism types of the two source modules, and
the exhaustive census over a small prime field.

A module's type and support depend only on its action matrix, and the
tensor product, its invariant subspaces and the pairing (Z, Pihat) only on
the action pair (X1, X2); the framings decide only whether a class
generates.  The census therefore groups the class representatives by
action and assembles, validates and classifies each (X1, X2, kernel) family
once, counting it for every class pair that shares it.  The scalar pairs'
families, the 2-planes of M_2(k), are not assembled: they are tallied by the
type of det on the plane, from proved counts.

Two additional split-mixed labels cover pairs (tuple-of-points, semisimple
double point): such points are valid (the tensor product localizes onto the
common support) even though only one source is a tuple of points.  Their
tensors are the non-concise rank-2 types, so nothing new arises.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import mul
from dataclasses import dataclass
from enum import Enum

from .exactalg import (
    GF,
    AffineFamily,
    EchelonBasis,
    Field,
    InfeasibleEnumeration,
    Matrix,
    ShapeError,
    UniPoly,
    char_poly,
    rank_and_kernel,
)
from .modcore import (
    FramedModule,
    InvalidPoint,
    _algebra_dim,
    _support,
    tensor_over_S,
    validate_framed,
)
from .bilin import BilinPoint, MembershipSystem, _validate_pairing, validate_bilin
from .quot import NonSplitSupport
from .tensorlab import Classification222, Tensor3, _pairing_tensor, classify_2x2x2


class ModuleType(Enum):
    TUPLE = "tuple-of-points"
    JORDAN = "double-point-cyclic"
    SEMISIMPLE = "double-point-semisimple"
    NON_SPLIT = "non-split"


class CaseLabel(Enum):
    MAIN_SPLIT = "MAIN_SPLIT"
    CYCLIC_NILPOTENT = "CYCLIC_NILPOTENT"
    MIXED_12 = "MIXED_12"
    MIXED_21 = "MIXED_21"
    TOTALLY_DEGENERATE = "TOTALLY_DEGENERATE"
    SPLIT_MIXED_12 = "SPLIT_MIXED_12"
    SPLIT_MIXED_21 = "SPLIT_MIXED_21"
    NON_SPLIT = "NON_SPLIT"


_PAIR_LABELS = {
    (ModuleType.TUPLE, ModuleType.TUPLE): CaseLabel.MAIN_SPLIT,
    (ModuleType.JORDAN, ModuleType.JORDAN): CaseLabel.CYCLIC_NILPOTENT,
    (ModuleType.JORDAN, ModuleType.SEMISIMPLE): CaseLabel.MIXED_12,
    (ModuleType.SEMISIMPLE, ModuleType.JORDAN): CaseLabel.MIXED_21,
    (ModuleType.SEMISIMPLE, ModuleType.SEMISIMPLE): CaseLabel.TOTALLY_DEGENERATE,
    (ModuleType.TUPLE, ModuleType.SEMISIMPLE): CaseLabel.SPLIT_MIXED_12,
    (ModuleType.SEMISIMPLE, ModuleType.TUPLE): CaseLabel.SPLIT_MIXED_21,
}


# -- named tensors and families ------------------------------------------------

_NAMED = ("mu1", "mu2", "mu3", "mu4", "mu2_t", "mu3_t", "mu4_t", "pi5_sample")


def named_tensor(name: str, field: Field):
    """Catalogue of the dimension-2 case tensors and their degeneration
    families: each _t name is the AffineFamily mu + t * e_111 through its
    limit mu.

    mu1: split multiplication (unit) tensor; mu2: nilpotent cyclic
    multiplication, rank 3; mu3/mu4: the non-concise rank-2 pairings;
    pi5_sample: one totally degenerate pairing matrix.
    """
    one = field.one()

    def tens(entries):
        return Tensor3.from_entries(field, (2, 2, 2), entries)

    if name == "mu1":
        return tens({(0, 0, 0): one, (1, 1, 1): one})
    if name == "mu2":
        return tens({(0, 0, 0): one, (0, 1, 1): one, (1, 0, 1): one})
    if name in ("mu3", "pi5_sample"):
        return tens({(0, 0, 0): one, (0, 1, 1): one})
    if name == "mu4":
        return tens({(0, 0, 0): one, (1, 0, 1): one})
    if name in ("mu2_t", "mu3_t", "mu4_t"):
        return AffineFamily(named_tensor(limit_target_name(name), field), tens({(1, 1, 1): one}))
    raise ValueError(f"unknown tensor name {name!r}; known: {', '.join(_NAMED)}")


def limit_target_name(family_name: str) -> str:
    if not family_name.endswith("_t"):
        raise ValueError(f"{family_name!r} is not a family name")
    return family_name[:-2]


@dataclass
class LimitSample:
    t: object
    classification: Classification222


@dataclass
class LimitReport:
    base_matches: bool
    samples: list[LimitSample]

    @property
    def ok(self) -> bool:
        return self.base_matches


def verify_limit(family: AffineFamily, target: Tensor3, samples) -> LimitReport:
    """Check a degeneration family: exact equality with the target at t = 0,
    plus the classification of each sampled fiber at t != 0."""
    return LimitReport(
        base_matches=family.evaluate(target.field.zero()) == target,
        samples=[LimitSample(t=t0, classification=classify_2x2x2(family.evaluate(t0)))
                 for t0 in samples])


# -- point classification --------------------------------------------------------

@dataclass
class PointClassification:
    label: CaseLabel
    m1_type: ModuleType
    m2_type: ModuleType
    m3_type: ModuleType
    tensor: Classification222
    forced_ok: bool


def module_type_222(m: FramedModule) -> ModuleType:
    """Isomorphism type of a dimension-2 univariate module via support
    multiplicity and the dimension of the algebra generated by the action.

    The rule (two support points, else algebra dimension 2 or 1) holds only
    for n = 1 and d = 2, so other shapes raise ShapeError.
    """
    if m.n != 1 or m.d != 2:
        raise ShapeError(f"module_type_222 needs n=1 and d=2, got n={m.n}, d={m.d}")
    return _action_facts(m.X[0])[0]


def _action_facts(X: Matrix) -> tuple[ModuleType, list]:
    """Type and sorted support keys of the dimension-2 univariate module
    with action X; neither depends on the framing."""
    supp = _support(X)
    keys = sorted(map(_supp_key, supp.points))
    if not supp.split:
        return ModuleType.NON_SPLIT, keys
    if len(supp.points) == 2:
        return ModuleType.TUPLE, keys
    alg = _algebra_dim((X,))
    return (ModuleType.JORDAN if alg == 2 else ModuleType.SEMISIMPLE), keys


def classify_point_222(b: BilinPoint) -> PointClassification:
    """Case label of a valid (2,2,2; 2,2) pairing point over a line.

    Labels follow the isomorphism types of (M1, M2); the type of M3 is
    computed too and the forced consequences are verified: both MIXED cases
    force the semisimple target, the nilpotent-cyclic case forces the
    cyclic target, and the main split case forces all three modules equal
    with an isomorphism pairing.
    """
    if b.n != 1 or (b.m1.d, b.m2.d, b.d3) != (2, 2, 2):
        raise ValueError("classification needs n=1 and all dimensions 2")
    val = validate_bilin(b)
    if not val.ok:
        raise InvalidPoint(f"invalid pairing point: {val.failure}")
    return _classify_valid(classify_2x2x2(_pairing_tensor(b)),
                           *(_action_facts(X) for X in (b.m1.X[0], b.m2.X[0], b.Z[0])))


def _classify_valid(tensor: Classification222, facts1, facts2, facts3) -> PointClassification:
    """classify_point_222 of a valid point, given the classification of its
    pairing tensor and the _action_facts of the actions of M1, M2 and M3
    (that is, of Z)."""
    t1, supp1 = facts1
    t2, supp2 = facts2
    t3, supp3 = facts3
    if ModuleType.NON_SPLIT in (t1, t2, t3):
        raise NonSplitSupport("module support does not split over the field")
    label = _PAIR_LABELS[(t1, t2)]
    return PointClassification(label=label, m1_type=t1, m2_type=t2, m3_type=t3,
                               tensor=tensor,
                               forced_ok=_forced_ok(label, t3, supp1, supp2, supp3))


def _forced_ok(label: CaseLabel, t3: ModuleType, supp1, supp2, supp3) -> bool:
    """The forced consequences of the case analysis for M3's type and the
    sorted support keys of M1, M2, M3."""
    if label in (CaseLabel.MIXED_12, CaseLabel.MIXED_21,
                 CaseLabel.SPLIT_MIXED_12, CaseLabel.SPLIT_MIXED_21,
                 CaseLabel.TOTALLY_DEGENERATE):
        return t3 == ModuleType.SEMISIMPLE
    if label == CaseLabel.CYCLIC_NILPOTENT:
        return t3 == ModuleType.JORDAN
    if label == CaseLabel.MAIN_SPLIT:
        return t3 == ModuleType.TUPLE and supp1 == supp2 == supp3
    return True


def _supp_key(point_mult):
    v, m = point_mult
    return (str(v), m)


# -- census ------------------------------------------------------------------------

@dataclass
class Census:
    q: int
    counts: dict
    quot_classes: int
    total_points: int
    border_rank_3: int
    forced_failures: int

    def rows(self) -> list[tuple[str, str, int]]:
        out = []
        for (label, tlabel), c in sorted(self.counts.items()):
            out.append((label, tlabel, c))
        return out


def enumerate_quot_classes_22(q: int) -> list[FramedModule]:
    """Representatives of rank-2, dimension-2 framed-module classes over F_q.

    Classes are orbits of valid (X, G) under (g X g^-1, g G), and each meets
    one X in rational canonical form.  For the q scalars X the generating G
    are GL_2, one class, represented by G = I.  A companion X = [[0, -n],
    [1, t]] (q^2 of them, in (n, t) order after the scalars) is fixed by the
    units of A = k[X], acting by G -> gG, so its classes are the generating
    framings modulo A^x, listed by _companion_classes in closed form.

    Since X e1 = e2, the map a -> a(X) e1 identifies A with k^2, a0 + a1 X
    with the column (a0, a1), and an A-linear one: a(X) (b(X) e1) = (ab)(X)
    e1.  So a framing G is a pair (a, b) in A^2, it generates iff a and b
    generate A as an ideal (a unimodular pair), and g(X) G is (ga, gb).
    The classes are therefore the points of P^1(A): unimodular pairs modulo
    A^x.  A pair with a a unit is (1, c) up to a unit, c = b/a; otherwise,
    with b a unit, it is (m, 1) with m = a/b a non-unit; otherwise a and b
    are both non-units.  A is F_q x F_q when the characteristic polynomial
    x^2 - t x + n has two roots, F_q[e] (e^2 = 0) with one and F_q^2 with
    none.  A local ring's non-units form its maximal ideal, so two of them
    are never unimodular.  In F_q x F_q the non-units are (x, 0) and (0, y);
    a unimodular pair of them is ((x, 0), (0, y)) or ((0, y), (x, 0)) with
    x, y != 0, the unit (1/x, 1/y) takes it to (e, 1 - e) for an idempotent
    e = (1, 0) or (0, 1), and no unit moves one idempotent to the other.
    The three kinds are told apart by which of a and b is a unit, and within
    a kind the unit is 1, so each class is listed once: (1, c) for the q^2
    c in A, (m, 1) for the non-units m (0, and c(X - r) for c != 0 and each
    root r: 2q - 1, q or 1 of them) and (e, 1 - e) for the two nontrivial
    idempotents e = (X - r2)/(r1 - r2) of a split A.  That is (q+1)^2 classes
    for each of the q(q-1)/2 split companions, q(q+1) for each of the q
    Jordan ones and q^2+1 for each of the q(q-1)/2 irreducible ones; with
    the q scalar classes, q^4 + q^3 + q^2 in all.  Every listed module is
    still validated, and each companion's count is checked against its
    algebra type; either failing raises ArithmeticError.
    """
    field = GF(q)
    eye = Matrix.identity(field, 2)
    reps = [FramedModule(1, 2, 2, (eye.scale(lam),), eye) for lam in range(q)]
    expected = {2: (q + 1) ** 2, 1: q * (q + 1), 0: q * q + 1}
    for n, t in itertools.product(range(q), repeat=2):
        X = Matrix(field, 2, 2, [0, -n % q, 1, t])
        roots = [r for r in range(q) if (r * r - t * r + n) % q == 0]
        pairs = _companion_classes(q, roots)
        if len(pairs) != expected[len(roots)]:
            raise ArithmeticError(f"{len(pairs)} classes listed at action X = {X!r}, "
                                  f"expected {expected[len(roots)]}")
        for (a0, a1), (b0, b1) in pairs:
            mod = FramedModule(1, 2, 2, (X,), Matrix(field, 2, 2, [a0, b0, a1, b1]))
            if not validate_framed(mod).ok:
                raise ArithmeticError(f"listed class {mod.G!r} does not generate at "
                                      f"action X = {X!r}")
            reps.append(mod)
    return reps


def _companion_classes(q: int, roots: list[int]) -> list[tuple]:
    """P^1(A) for A = F_q[X], X a companion matrix whose characteristic
    polynomial has the given distinct roots: one unimodular pair (a, b) per
    class, each element a0 + a1 X of A written (a0, a1) (see
    enumerate_quot_classes_22)."""
    pairs = [((1, 0), c) for c in itertools.product(range(q), repeat=2)]
    nonunits = [(0, 0)] + [(-c * r % q, c) for r in roots for c in range(1, q)]
    pairs += [(a, (1, 0)) for a in nonunits]
    if len(roots) == 2:
        for r1, r2 in (roots, roots[::-1]):
            inv = pow(r1 - r2, q - 2, q)
            # e = (X - r2)/(r1 - r2) and 1 - e = (X - r1)/(r2 - r1)
            pairs.append(((-r2 * inv % q, inv), (r1 * inv % q, -inv % q)))
    return pairs


def _invariant_subspaces(actions, dim: int, sub_dim: int, field) -> list[list[tuple]]:
    """All sub_dim-dimensional invariant subspaces of F_q^dim, as RREF row
    bases.  Scalar actions leave every subspace invariant, so then none is
    tested."""
    if sub_dim == 0:
        return [[]]
    p = field.characteristic
    eye = Matrix.identity(field, dim)
    scalar = all(a == eye.scale(a[0, 0]) for a in actions)
    out = []
    for pivots in itertools.combinations(range(dim), sub_dim):
        free_positions = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, dim):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in itertools.product(range(p), repeat=len(free_positions)):
            rows = [[field.zero()] * dim for _ in range(sub_dim)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = field.one()
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = field.from_int(v)
            basis = [tuple(r) for r in rows]
            if scalar or _is_invariant(actions, basis, field, dim):
                out.append(basis)
    return out


def _is_invariant(actions, basis, field, dim: int) -> bool:
    span = EchelonBasis(field, dim, basis)
    return all(span.contains(a.matvec(list(v))) for a in actions for v in basis)


def _action_groups(reps: list[FramedModule]) -> dict:
    """The class representatives grouped by action, in order of first
    appearance."""
    groups: dict = {}
    for m in reps:
        groups.setdefault(m.X[0], []).append(m)
    return groups


def _linked_pairs(actions: list[Matrix]) -> list[tuple[int, int]]:
    """The index pairs (i, j), in order, of the 2 x 2 actions X_i, X_j whose
    characteristic polynomials have a common factor; for any other pair
    M1 (x)_S M2 = 0.  Decided by the resultant of the two polynomials (see
    enumerate_222), a few integer products per pair."""
    p = actions[0].field.characteristic
    coeffs = []
    for X in actions:
        a, b, c, d = X.entries
        coeffs.append((-(a + d), a * d - b * c))
    return [(i, j) for i, (a1, b1) in enumerate(coeffs) for j, (a2, b2) in enumerate(coeffs)
            if ((b1 - b2) ** 2 + (a1 - a2) * (a1 * b2 - a2 * b1)) % p == 0]


def enumerate_222(q: int, cap: int = 200_000) -> Census:
    """Exhaustive census of (2,2,2; 2,2) pairing points over F_q.

    Points are triples of kernels: a pair of framed-module classes plus a
    choice of invariant corank-2 subspace of their tensor product (the
    kernel of the pairing).  This enumerates exactly the solvable pairing
    lifts deduplicated by kernel equality.  Every enumerated point must
    validate; the census asserts no border-rank-3 tensor and every forced
    consequence of the case analysis.

    Any prime q runs.  cap bounds the work the census does, the q^4 + q^3 +
    q^2 quot classes it lists plus the 3q^2 (X1, X2, kernel) families it
    assembles and validates (144 at q = 3), and is checked before any work.
    M1 (x)_S M2 has dimension 4 for the q pairs (lambda*I, lambda*I), 2 for
    the 3q^2 pairs of a companion with itself or with a scalar at one of its
    roots, and less otherwise, and each pair has [dim12 choose 2]_q
    candidate kernels; but the scalar pairs' [4 choose 2]_q families each
    are tallied from five proved counts (scalar pair, below), so only the
    3q^2 kernels of the other pairs are assembled.  The default cap first
    refuses q = 23, the command line's q = 41.

    The work is done in layers.  The class representatives are grouped by
    action X (q^2 + q actions: 12 for 117 classes at q = 3), and each
    action's type and support are computed once and read once per action
    pair.  The tensor product and its invariant subspaces depend on the
    action pair (X1, X2) alone, so each pair gets at most one tensor
    product, and a pair whose characteristic polynomials are coprime gets
    none (_linked_pairs): chi_X1(x) is zero on M1 (Cayley-Hamilton) and
    invertible on M2 (with a chi_X1 + b chi_X2 = 1, a(X2) inverts
    chi_X1(X2)), and x acts on M1 (x)_S M2 through either factor, so
    chi_X1(x) is both zero and invertible there and the product is 0, which
    has no point (dim12 < 2).  That leaves 48 of the 144 action pairs at
    q = 3, and 45 tensor products, since the 3 scalar pairs need none.  Each
    other (X1, X2, kernel) family is then assembled, validated and
    classified once, with M3's facts looked up by its action Z, and counted
    len(group1) * len(group2) times, once per class pair sharing it.

    Link test.  The characteristic polynomial of a 2 x 2 action is the monic
    quadratic x^2 + a x + b with a = -tr X and b = det X.  Two monic
    polynomials have a common factor over F_q iff they have a common root
    over its algebraic closure (their gcd does not change when the field
    grows), iff their resultant prod_{f(alpha) = 0} g(alpha) is zero.  For
    f = x^2 + a1 x + b1 with roots alpha1, alpha2 and g = x^2 + a2 x + b2,
    g(alpha) = g(alpha) - f(alpha) = (a2 - a1) alpha + (b2 - b1), and
    alpha1 alpha2 = b1, alpha1 + alpha2 = -a1 give the resultant
    (b1 - b2)^2 + (a1 - a2)(a1 b2 - a2 b1).  It is an integer polynomial in
    the entries, so reducing it mod q decides the link exactly, with no
    char_poly or gcd per pair.

    Translation.  For a scalar pair (lambda*I, lambda*I) the relations
    X1 (x) 1 - 1 (x) X2 of tensor_over_S are all zero, so the tensor product
    is k^4, its q and section are those of the quotient by nothing whatever
    lambda is (q * section = I), and its action is lambda*I.  Every
    2-dimensional subspace is invariant, so the kernels are the same
    [4 choose 2]_q subspaces for every lambda, and the point _assemble_point
    builds on a kernel has the same Pihat (the kernel's quotient map times
    q) for every lambda, with Z = lambda*I.  validate_pairing of that point is
    lambda = 0's check plus an identity: Z commutes with itself; the X- and
    Y-equivariance residuals are Z Pihat - Pihat (X1 (x) 1) = lambda Pihat -
    lambda Pihat = 0 and likewise for X2; surjectivity is rank Pihat = 2,
    which does not depend on lambda.  So every lambda's family on a kernel is
    valid iff lambda = 0's is, and has that family's tensor classification
    (it reads Pihat alone), classified with lambda's own facts: M1, M2 and
    M3 all have action lambda*I.  Labels and forced consequences therefore
    still read each lambda's actions.  Its three facts are equal, so each
    distinct classification is tallied once, times its kernels.

    Scalar pair.  No lambda = 0 family is assembled either.  Each is valid:
    X1 = X2 = 0 and Z = 0, so Z commutes, both equivariance residuals are
    0 Pihat - Pihat 0 = 0, and Pihat is the kernel's quotient map k^4 -> k^2,
    of rank 2 by construction; M1 = M2 = (0, I) is the class validated below.
    Its pairing tensor has coefficient (i, j, k) = Pihat[k, 2i + j], so its
    two third-factor slices are the rows of Pihat read as 2 x 2 matrices, a
    basis of the 2-plane W = K^perp of M_2(k) = (k^2 (x) k^2)*, K the kernel;
    K -> K^perp is a bijection onto the 2-planes.  classify_2x2x2 reads the
    factor-3 rank (dim W = 2), the factor-1 rank (1 when W's members share
    a left null vector, that is a common image line), the factor-2 rank (1
    when they share a common kernel) and, on a concise tensor, whether the
    binary form det(x A + y B) = det|_W is separable and splits over k.  A
    change of basis of W substitutes the form invertibly, so all of these
    depend on W alone, through the type of det|_W, and _scalar_pair_classes
    classifies one representative per type (mu3, mu4, mu2, mu1, and slices
    I and a companion of an irreducible quadratic) weighted by
    _plane_counts.  The counts: det is a quadratic form on M_2(k) whose
    polar form B(M, N) = det(M + N) - det M - det N = m00 n11 + m11 n00 -
    m01 n10 - m10 n01 has a signed permutation as Gram matrix, so it is
    non-degenerate in every characteristic, also in 2, where B is
    alternating.  Its zeros are the rank-1 matrices u v^T, (q + 1)^2 points
    of P^3, and det(u v^T + u' v'^T) = det[u u'] det[v v'], so B(u v^T,
    u' v'^T) = 0 iff u || u' or v || v'.  A finite field is perfect, so a
    form det|_W that is not identically zero is c l^2 (inseparable: one
    rational zero, in characteristic 2 too, where it is alpha x^2 + gamma
    y^2), or has two distinct zeros, rational (split) or conjugate over
    F_q^2 (anisotropic).
    - Isotropic (det|_W = 0): in a basis u v^T, u' v'^T of rank-1 members,
      u, u' independent and v, v' independent would make the sum rank 2,
      so u || u' (W = {u w^T}, a common image, factor 1 not concise: mu3)
      or v || v' (W = {w v^T}, a common kernel, factor 2 not concise: mu4),
      not both as dim W = 2.  These are the two rulings of the quadric,
      q + 1 planes each, one per line of k^2.  A plane that is not
      isotropic has a member of rank 2, so it is concise.
    - Rank 1 (W-type): with p = [P] the zero of c l^2 and W = span(P, N),
      det(x P + y N) = x y B(P, N) + y^2 det N is a constant times a square
      iff B(P, N) = 0 and det N != 0, so these are the non-isotropic planes
      W with p in W inside p^perp, and each has one such p.  The planes
      between the line p and the 3-space p^perp are the q + 1 lines of
      p^perp / p, two of them the rulings through p: (q - 1)(q + 1)^2.
    - Split (generic, pencil_split): W = span(P1, P2) for two zeros with
      B(P1, P2) != 0, else det(x P1 + y P2) = x y B(P1, P2) vanishes.  The
      zeros in p1^perp are the two rulings through p1, 2q + 1 points, so
      q^2 choices of p2 for each of the (q + 1)^2 points p1, and each plane
      has two: q^2 (q + 1)^2 / 2.
    - Anisotropic (generic, not split): the rest, (q^2 + 1)(q^2 + q + 1) -
      2(q + 1) - (q - 1)(q + 1)^2 - q^2 (q + 1)^2 / 2 = q^2 (q - 1)^2 / 2.
      Its representative's slices I and [[0, -n], [1, t]] span a plane on
      which det(x I + y C) = x^2 + t x y + n y^2 has no rational zero,
      since x^2 - t x + n is irreducible.

    Cell polynomials (scripts/census_222.py closed_form_counts).  An action
    X has one class if scalar, and as a companion with characteristic
    polynomial chi, (q + 1)^2 classes if chi has two roots (q(q - 1)/2 such
    X), q(q + 1) if one double root (q such X) and q^2 + 1 if none
    (q(q - 1)/2 such X); see enumerate_quot_classes_22.  A cyclic M = A =
    k[x]/chi gives A (x)_S A' = k[x]/(chi, chi'), so two distinct
    companions (dim12 = deg gcd <= 1) and a scalar r I with a companion
    without the root r (dim12 = 0) give no point.  The points are:
    - X with itself: A (x)_S A = A, one kernel 0, Z = X, the pairing A's
      multiplication, weight classes(X)^2: MAIN_SPLIT generic (k x k,
      mu1) q(q - 1)/2 * (q + 1)^4, CYCLIC_NILPOTENT W-type (k[e]/e^2, mu2)
      q * q^2 (q + 1)^2 = q^3 (q + 1)^2, NON_SPLIT generic (F_q^2)
      q(q - 1)/2 * (q^2 + 1)^2.
    - r I with X at a root r, in either order: k^2 (x)_S A = k^2 (x) A/(x -
      r) = k^2, one kernel, the pairing factors through A -> k, so the
      tensor is non-concise; weight classes(X).  MIXED_12 and MIXED_21
      (X Jordan) q * q(q + 1) = q^2 (q + 1) each; SPLIT_MIXED_12 and
      SPLIT_MIXED_21 (X split, two roots) 2 * q(q - 1)/2 * (q + 1)^2 =
      q(q - 1)(q + 1)^2 each.  With the q^2 pairs of the first kind that
      is q^2 + 2(q(q - 1) + q) = 3q^2 families.
    - (lambda I, lambda I), q of them, weight 1, all TOTALLY_DEGENERATE, by
      the plane counts times q: W-type q(q - 1)(q + 1)^2, generic
      q(q^2 (q + 1)^2 + q^2 (q - 1)^2)/2 = q^3 (q^2 + 1), non-concise
      2q(q + 1).

    This still checks every assembled point, each invariant where it is
    decided.  validate_bilin(point) is m1-ok and m2-ok and
    validate_pairing(point): Z commuting, X- and Y-equivariance and
    surjectivity.  The pairing checks read only (X1, X2, Z, Pihat), and
    tensor_over_S and _assemble_point read no framing, so they depend on
    (X1, X2, kernel) alone: validate_pairing runs once per assembled family,
    with the lifts X1 (x) 1 and 1 (x) X2 that tensor_over_S built for the
    action pair, and the family's check is every member's check.  m1-ok and
    m2-ok read one class each: enumerate_quot_classes_22 validates every
    companion class it returns, and here each action's first class (the
    one every family of that action is assembled from, a scalar class
    included) is validated once more.  The types, supports, tensor and
    forced consequences read no framing either.  The tensor classification
    reads Pihat alone, so it runs once per distinct Pihat (15 at q = 3) and
    is shared by the families that have it, plus once per plane type.
    """
    field = GF(q)
    work = q ** 4 + q ** 3 + q ** 2 + 3 * q * q
    if work > cap:
        raise InfeasibleEnumeration(f"{work} census classes and families exceed cap {cap}")
    reps = enumerate_quot_classes_22(q)
    groups = _action_groups(reps)
    for X, group in groups.items():
        if not validate_framed(group[0]).ok:
            raise ArithmeticError(f"census class failed validation at action X = {X!r}")
    facts = {X: _action_facts(X) for X in groups}
    actions, members, action_facts = list(groups), list(groups.values()), list(facts.values())
    eye = Matrix.identity(field, 2)
    scalars = {eye.scale(lam) for lam in range(q)}
    census = Census(q=q, counts={}, quot_classes=len(reps), total_points=0,
                    border_rank_3=0, forced_failures=0)
    tensors: dict = {}
    scalar_classes = _scalar_pair_classes(q, field)
    for i, j in _linked_pairs(actions):
        weight = len(members[i]) * len(members[j])
        facts1, facts2 = action_facts[i], action_facts[j]
        if i == j and actions[i] in scalars:
            for tensor, count in scalar_classes.items():
                _tally(census, tensor, facts1, facts1, facts1, weight * count)
            continue
        for Z, tensor in _families(members[i][0], members[j][0], field, tensors):
            # Z is conjugate to a table action but need not equal one.
            facts3 = facts.get(Z) or _action_facts(Z)
            _tally(census, tensor, facts1, facts2, facts3, weight)
    return census


def _plane_counts(q: int) -> dict:
    """The number of 2-planes W of M_2(F_q) of each type of det|_W, keyed by
    the name of a tensor whose third-factor slices span a plane of that type
    (see enumerate_222): common image, common kernel, det|_W a nonzero
    square, split, anisotropic."""
    return {"mu3": q + 1, "mu4": q + 1, "mu2": (q - 1) * (q + 1) ** 2,
            "mu1": q * q * (q + 1) ** 2 // 2, "anisotropic": q * q * (q - 1) ** 2 // 2}


def _scalar_pair_classes(q: int, field) -> Counter:
    """The tensor classifications of lambda = 0's scalar-pair families, each
    counted by its number of kernels: _plane_counts, with each plane type
    classified on one representative.  The anisotropic one has third-factor
    slices I and the companion matrix of an irreducible x^2 - t x + n."""
    n, t = next((n, t) for n, t in itertools.product(range(q), repeat=2)
                if all((r * r - t * r + n) % q for r in range(q)))
    anisotropic = Tensor3(field, (2, 2, 2), [1, 0, 0, -n % q, 0, 1, 1, t])
    classes: Counter = Counter()
    for name, count in _plane_counts(q).items():
        rep = anisotropic if name == "anisotropic" else named_tensor(name, field)
        classes[classify_2x2x2(rep)] += count
    return classes


def _families(m1, m2, field, tensors: dict):
    """Assemble and validate each (X1, X2, kernel) family of the classes m1
    and m2, yielding its Z and the classification of its pairing tensor.
    Classifications are shared through tensors, keyed by Pihat."""
    prod = tensor_over_S(m1, m2)
    if prod.dim12 < 2:
        return
    for basis in _invariant_subspaces(prod.actions, prod.dim12, prod.dim12 - 2, field):
        point = _assemble_point(m1, m2, prod, basis, field)
        val = _validate_pairing(point, prod.lifts)
        if not val.ok:
            raise ArithmeticError(
                f"census point failed validation: {val.failure}"
                f" at actions X1 = {m1.X[0]!r}, X2 = {m2.X[0]!r}, kernel basis {basis}")
        key = point.pihat.key()
        tensor = tensors.get(key)
        if tensor is None:
            tensor = tensors[key] = classify_2x2x2(_pairing_tensor(point))
        yield point.Z[0], tensor


def _tally(census: Census, tensor: Classification222, facts1, facts2, facts3,
           weight: int) -> None:
    """Count weight points of one family, given its tensor classification and
    the _action_facts of M1, M2 and M3."""
    try:
        cls = _classify_valid(tensor, facts1, facts2, facts3)
        label = cls.label.value
        if not cls.forced_ok:
            census.forced_failures += weight
        if tensor.border_rank >= 3:
            census.border_rank_3 += weight
    except NonSplitSupport:
        label = CaseLabel.NON_SPLIT.value
    key = (label, tensor.label)
    census.counts[key] = census.counts.get(key, 0) + weight
    census.total_points += weight


def _assemble_point(m1, m2, prod, kernel_basis, field) -> BilinPoint:
    """Pairing point with kernel the given subspace of the tensor product."""
    from .exactalg import quotient_map
    dim12 = prod.dim12
    qmap, section = quotient_map(kernel_basis, field, dim12)
    d3 = qmap.rows
    Z = tuple(qmap * a * section for a in prod.actions)
    pihat = qmap * prod.q
    return BilinPoint(m1=m1, m2=m2, d3=d3, Z=Z, pihat=pihat)


def census_cross_check(q: int, pair_sample: int = 4) -> bool:
    """Validate the census enumeration against the direct target loop.

    For a few module pairs, find every valid rank-4 target framed module
    over F_q that the membership solver lifts, up to a change of basis of
    the target, deduplicate the lifted points by pairing kernel, and compare
    with the subspace count.  pair_sample below 1 raises ValueError.

    Each target action Z gives one membership system per pair.  Its solve
    finds a lift for a target framing G iff every check row (an eliminated
    equation with no unknown left) vanishes on vec(G): the check rows are
    the whole consistency condition, and a consistent target always gets a
    lift.  So the targets solve accepts are exactly the kernel of the check
    rows, which consistent_targets enumerates, each once; a target outside
    it has no lift, so a loop over all q^8 framings finds no more.

    Nor does a loop over all q^4 actions Z, or over every framing at a
    scalar Z.  If Pihat lifts (Z, G), then for g in GL_2 the map g Pihat
    lifts (g Z g^-1, g G): it sends g_a (x) h_b to g times column ab of G,
    and g Pihat (X1 (x) 1) = g Z Pihat = (g Z g^-1) g Pihat, likewise for
    1 (x) X2.  The lift is unique, (g Z g^-1, g G) is valid iff (Z, G) is,
    and ker(g Pihat section) = ker(Pihat section) as g is invertible.  So
    conjugate actions give the same keys, and every Z in M_2(F_q) is
    similar to exactly one of the q + q^2 actions in rational canonical
    form that the census groups its classes by (_cross_check_pairs).  At
    Z = lambda I every g fixes Z, so the keys are found on one target per
    GL_2-orbit {g G}.  There a target generates iff it has rank 2 (k[Z] G
    is the column space of G), and the orbit of a rank-2 G, the 2 x 4
    matrices with its row space, holds exactly one matrix in reduced row
    echelon form, rref(G).  So at a scalar action only the RREF targets are
    solved, listed directly (_rref_targets), and at every other listed
    action all consistent targets are.

    Nor is a system built where no lift can exist: Z is skipped for a pair
    unless chi(Z) divides the characteristic polynomial of the pair's
    product action prod.actions[0] (_may_lift).  If Pihat lifts a valid
    target (Z, G), Pihat section is a module map M1 (x)_S M2 -> (k^2, Z),
    since Pihat intertwines both actions with Z and vanishes on the image
    of X1 (x) 1 - 1 (x) X2.  Its image is Z-stable and holds the columns of
    G, so it holds k[Z] G = k^2: the map is onto, and (k^2, Z) is a
    quotient module of M1 (x)_S M2.  The characteristic polynomial of a
    module is the product of those of a submodule and its quotient (in a
    basis extending one of the kernel the action is block triangular), so
    chi(Z) divides chi(prod.actions[0]).  Every kept target is still
    validated as a framed module, solved, and keyed by the kernel of its
    lifted pairing.
    """
    field = GF(q)
    return all(
        len(keys) == len(_invariant_subspaces(prod.actions, prod.dim12,
                                              prod.dim12 - 2, field))
        for (_, _, prod), keys in _cross_check_kernels(q, pair_sample))


def _cross_check_kernels(q: int, pair_sample: int) -> list[tuple]:
    """The census_cross_check pairs, each with the set of pairing-kernel keys
    its membership loop finds over the listed target actions."""
    actions, chosen = _cross_check_pairs(q, pair_sample)
    found = [set() for _ in chosen]
    chis = [char_poly(prod.actions[0]) for _, _, prod in chosen]
    for Z in actions:
        rref_only = _is_scalar(Z)
        chi_z = char_poly(Z)
        for (m1, m2, prod), chi, keys in zip(chosen, chis, found):
            if not _may_lift(chi_z, chi):
                continue
            system = MembershipSystem(m1, m2, (Z,))
            for F3 in _rref_targets(system) if rref_only else system.consistent_targets():
                if not validate_framed(FramedModule(1, 2, 4, (Z,), F3)).ok:
                    continue
                rep = system.solve(F3)
                if not rep.found:
                    raise ArithmeticError(f"consistent target {F3!r} has no pairing lift")
                keys.add(_pairing_kernel_key(rep.point, prod))
    return list(zip(chosen, found))


def _may_lift(chi_z: UniPoly, chi: UniPoly) -> bool:
    """Whether chi_z, the characteristic polynomial of a target action Z,
    divides chi, that of a tensor product's action: else no target with
    action Z lifts (see census_cross_check)."""
    return (chi % chi_z).is_zero()


def _is_scalar(Z: Matrix) -> bool:
    """Whether a 2 x 2 action is lambda * I."""
    return Z[0, 1] == Z[1, 0] == 0 and Z[0, 0] == Z[1, 1]


def _rref_targets(system: MembershipSystem):
    """The consistent targets of a membership system (consistent_targets)
    in reduced row echelon form with both rows nonzero, listed without a
    filter pass.

    For pivot columns p0 < p1 those 2 x n framings are G0 + F y: G0 has 1
    at (0, p0) and (1, p1) and 0 elsewhere, and y fills the free entries
    (0, c) for c > p0, c != p1, and (1, c) for c > p1.  G is consistent iff
    the check matrix C kills its entries, C F y + C g0 = 0, so (y, 1) is a
    kernel vector of [C F | C g0].  A rank_and_kernel basis vector is 1 at
    its own non-pivot column and 0 at the others, so when the last column
    is not a pivot the last basis vector is a solution (y0, 1) and the
    others (y, 0) span the homogeneous ones; when it is a pivot every
    kernel vector ends in 0 and no target has these pivots.  Each solution
    is listed once, as the basis is independent.
    """
    checks = system.target_checks()
    field = checks.field
    p = field.characteristic
    n = checks.cols // 2
    crows = checks.row_lists()
    for p0, p1 in itertools.combinations(range(n), 2):
        free = [c for c in range(p0 + 1, n) if c != p1] + [n + c for c in range(p1 + 1, n)]
        rows = [[row[c] for c in free] + [row[p0] + row[n + p1]] for row in crows]
        _, basis = rank_and_kernel(Matrix(field, len(rows), len(free) + 1,
                                          [x for row in rows for x in row]))
        if not basis or not basis[-1][-1]:
            continue
        *homogeneous, particular = basis
        cols = list(zip(particular, *homogeneous))[:-1]
        for coeffs in itertools.product(range(p), repeat=len(homogeneous)):
            entries = [0] * (2 * n)
            entries[p0] = entries[n + p1] = 1
            for c, col in zip(free, cols):
                entries[c] = sum(map(mul, (1, *coeffs), col)) % p
            yield Matrix(field, 2, n, entries)


def _tensor_dim(X1: Matrix, X2: Matrix) -> int:
    """dim M1 (x)_S M2 for one-variable modules with actions X1 and X2: the
    cokernel of X1 (x) 1 - 1 (x) X2 that defines it (tensor_over_S)."""
    field = X1.field
    d1, d2 = X1.rows, X2.rows
    rel = X1.kron(Matrix.identity(field, d2)) - Matrix.identity(field, d1).kron(X2)
    return d1 * d2 - rel.rank()


def _cross_check_pairs(q: int, pair_sample: int) -> tuple[list, list]:
    """The target actions and the (m1, m2, tensor product) triples
    census_cross_check checks.  The actions are the census's q + q^2
    actions in rational canonical form, in class order.  The triples are
    pair_sample of the class pairs whose tensor product has dimension at
    least 2, evenly spaced in class order.  Those class pairs are counted,
    not listed: the classes of one action are consecutive, so the pairs of
    a class m1 of action i are, for each action j linked to i (_linked_pairs)
    with a product of dimension at least 2 (_tensor_dim), the classes of j
    in order.  A sampled pair is located by its index, and a product is
    computed once per action pair that a sampled class pair has."""
    if pair_sample < 1:
        raise ValueError(f"pair_sample must be at least 1, got {pair_sample}")
    groups = _action_groups(enumerate_quot_classes_22(q))
    actions = list(groups)
    members = list(groups.values())
    partners = [[] for _ in actions]
    for i, j in _linked_pairs(actions):
        if _tensor_dim(actions[i], actions[j]) >= 2:
            partners[i].append(j)
    # per_class[i]: the class pairs of each class of action i
    per_class = [sum(len(members[j]) for j in js) for js in partners]
    total = sum(len(group) * n for group, n in zip(members, per_class))
    step = max(1, total // pair_sample)
    prods: dict = {}
    chosen = []
    i = start = 0
    for index in range(0, total, step)[:pair_sample]:
        while index >= start + len(members[i]) * per_class[i]:
            start += len(members[i]) * per_class[i]
            i += 1
        a, b = divmod(index - start, per_class[i])
        for j in partners[i]:
            if b < len(members[j]):
                break
            b -= len(members[j])
        if (i, j) not in prods:
            prods[i, j] = tensor_over_S(members[i][0], members[j][0])
        chosen.append((members[i][a], members[j][b], prods[i, j]))
    return actions, chosen


def _pairing_kernel_key(point: BilinPoint, prod) -> tuple:
    """Canonical key of ker(pairing) as a subspace of the tensor product: its
    ``rank_and_kernel`` basis, which is read off rref(composed) and so
    depends only on the row space of composed, the annihilator of the
    kernel."""
    return tuple(rank_and_kernel(point.pihat * prod.section)[1])
