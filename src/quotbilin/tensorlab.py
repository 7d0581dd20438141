"""Order-3 tensors: flattenings, conciseness, rank over small fields, the
complete 2x2x2 classification, and Terracini secant dimensions.

Classification labels are geometric, i.e. stable under extending to the
algebraic closure; rank over a specific finite field may exceed the
geometric rank and is computed separately by brute force.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .exactalg import (
    CERTIFICATE_PRIME,
    EchelonBasis,
    Field,
    FieldError,
    GF,
    InfeasibleEnumeration,
    Matrix,
    QQ,
    ShapeError,
    parse_field,
    rand_nonzero_vector,
)
from .exactalg.matrix import _eliminate
from .modcore import FramedModule, InvalidPoint


class Tensor3:
    """An order-3 tensor in k^d1 (x) k^d2 (x) k^d3, stored as its third
    flattening: ``flat`` is the d1*d2 x d3 matrix whose entry (i*d2 + j, k)
    is coefficient (i, j, k), so ``coeffs`` (its entries) lists the
    coefficients in lexicographic index order.  For a pairing point this is
    the pairing lift transposed.
    """
    __slots__ = ("dims", "flat")

    def __init__(self, field: Field, dims: tuple[int, int, int], coeffs: Sequence):
        d1, d2, d3 = dims
        self.dims = (d1, d2, d3)
        self.flat = Matrix(field, d1 * d2, d3, coeffs)

    @classmethod
    def from_flat(cls, dims: tuple[int, int, int], flat: Matrix) -> "Tensor3":
        """The tensor whose third flattening is ``flat``."""
        d1, d2, d3 = dims
        if (flat.rows, flat.cols) != (d1 * d2, d3):
            raise ShapeError(f"{flat.rows}x{flat.cols} is not a flattening of {dims}")
        return cls(flat.field, dims, flat.entries)

    @property
    def field(self) -> Field:
        return self.flat.field

    @property
    def coeffs(self) -> list:
        return self.flat.entries

    @classmethod
    def zeros(cls, field: Field, dims: tuple[int, int, int]) -> "Tensor3":
        d1, d2, d3 = dims
        return cls(field, dims, [field.zero()] * (d1 * d2 * d3))

    @classmethod
    def from_entries(cls, field: Field, dims: tuple[int, int, int],
                     entries: dict[tuple[int, int, int], object]) -> "Tensor3":
        t = cls.zeros(field, dims)
        for (i, j, k), v in entries.items():
            t.coeffs[t.index(i, j, k)] = v
        return t

    def index(self, i: int, j: int, k: int) -> int:
        d1, d2, d3 = self.dims
        return (i * d2 + j) * d3 + k

    def get(self, i: int, j: int, k: int):
        return self.coeffs[self.index(i, j, k)]

    def is_zero(self) -> bool:
        return self.flat.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dims == other.dims and self.flat == other.flat

    def __hash__(self):
        return hash((self.dims, self.flat))

    def _same_dims(self, other: "Tensor3") -> tuple[int, int, int]:
        if self.dims != other.dims:
            raise ShapeError("dims mismatch")
        return self.dims

    def __add__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3.from_flat(self._same_dims(other), self.flat + other.flat)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return Tensor3.from_flat(self._same_dims(other), self.flat - other.flat)

    def scale(self, c) -> "Tensor3":
        return Tensor3.from_flat(self.dims, self.flat.scale(c))

    def flattening(self, factor: int) -> Matrix:
        """Flattening against one factor: rows are the complementary index
        pairs, columns the chosen factor, so factor-k conciseness is full
        column rank d_k."""
        d1, d2, d3 = self.dims
        if factor == 1:
            return Matrix(self.field, d1, d2 * d3, self.coeffs).transpose()
        if factor == 2:
            c = self.coeffs
            return Matrix(self.field, d1 * d3, d2,
                          [c[(i * d2 + j) * d3 + k] for i in range(d1) for k in range(d3)
                           for j in range(d2)])
        if factor == 3:
            return self.flat
        raise ValueError("factor must be 1, 2 or 3")

    def apply_gl(self, g1: Matrix, g2: Matrix, g3: Matrix) -> "Tensor3":
        """Basis change on the three factors (covariant on each):
        (g1 (x) g2) * flat * g3^T on the third flattening."""
        return Tensor3.from_flat(self.dims, g1.kron(g2) * self.flat * g3.transpose())


def rank_one(field: Field, a: Sequence, b: Sequence, c: Sequence) -> Tensor3:
    d2, d3 = len(b), len(c)
    coeffs = [field.zero()] * (len(a) * d2 * d3)
    for i, av in enumerate(a):
        if field.is_zero(av):
            continue
        for j, bv in enumerate(b):
            if field.is_zero(bv):
                continue
            ab = field.mul(av, bv)
            base = (i * d2 + j) * d3
            for k, cv in enumerate(c):
                coeffs[base + k] = field.mul(ab, cv)
    return Tensor3(field, (len(a), d2, d3), coeffs)


def conciseness(t: Tensor3) -> tuple[bool, bool, bool]:
    """Per-factor conciseness: the factor-k flattening has full rank d_k."""
    return tuple(t.flattening(k).rank() == t.dims[k - 1] for k in (1, 2, 3))


def tensor_from_bilin(b) -> Tensor3:
    """Structure tensor of a pairing point: coefficient (i, j, k) is the
    k-th coordinate of the pairing applied to basis pair (i, j)."""
    from .bilin import BilinPoint, validate_bilin
    if not isinstance(b, BilinPoint):
        raise TypeError(f"tensor_from_bilin needs a BilinPoint, got {type(b).__name__}")
    val = validate_bilin(b)
    if not val.ok:
        raise InvalidPoint(f"invalid pairing point: {val.failure}")
    return _pairing_tensor(b)


def _pairing_tensor(b) -> Tensor3:
    """tensor_from_bilin of a pairing point already known to be valid: the
    pairing lift is d3 x d1*d2, so its transpose is the third flattening."""
    return Tensor3.from_flat((b.m1.d, b.m2.d, b.d3), b.pihat.transpose())


# -- 2x2x2 classification -------------------------------------------------------

LABEL_ZERO = "zero"
LABEL_RANK_ONE = "rank-one"
LABEL_NON_CONCISE = "non-concise-pair"
LABEL_GENERIC = "generic"
LABEL_W_TYPE = "W-type"


@dataclass(frozen=True)
class Classification222:
    rank: int
    border_rank: int
    concise: tuple[bool, bool, bool]
    label: str
    pencil_separable: Optional[bool] = None
    pencil_split: Optional[bool] = None


def hyperdeterminant_222(t: Tensor3):
    """Cayley hyperdeterminant of a 2x2x2 tensor (degenerates in char 2)."""
    f = t.field
    c = {(i, j, k): t.get(i, j, k) for i in range(2) for j in range(2) for k in range(2)}

    def m(*keys):
        acc = f.one()
        for key in keys:
            acc = f.mul(acc, c[key])
        return acc

    sq = f.add(
        f.add(m((0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1)),
              m((0, 0, 1), (0, 0, 1), (1, 1, 0), (1, 1, 0))),
        f.add(m((0, 1, 0), (0, 1, 0), (1, 0, 1), (1, 0, 1)),
              m((0, 1, 1), (0, 1, 1), (1, 0, 0), (1, 0, 0))),
    )
    cross = f.zero()
    for pair in (
        ((0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)),
        ((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)),
        ((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)),
        ((0, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 0)),
        ((0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 0, 0)),
    ):
        cross = f.add(cross, m(*pair))
    quad = f.add(m((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)),
                 m((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)))
    two = f.from_int(2)
    four = f.from_int(4)
    return f.add(f.sub(sq, f.mul(two, cross)), f.mul(four, quad))


def _pencil_form(t: Tensor3):
    """Coefficients (alpha, beta, gamma) of det(x*A + y*B) for the two
    third-factor slices A, B of a 2x2x2 tensor, read off its coefficients:
    A[i, j] is coefficient (i, j, 0), at position 4i + 2j, and B[i, j] the
    next one."""
    f = t.field
    a00, b00, a01, b01, a10, b10, a11, b11 = t.coeffs
    alpha = f.sub(f.mul(a00, a11), f.mul(a01, a10))
    gamma = f.sub(f.mul(b00, b11), f.mul(b01, b10))
    beta = f.sub(
        f.add(f.mul(a00, b11), f.mul(b00, a11)),
        f.add(f.mul(a01, b10), f.mul(b01, a10)),
    )
    return alpha, beta, gamma


# The coefficient positions of the two slices along each factor: factor 1
# fixes i (positions 4i + 2j + k), factor 2 fixes j, factor 3 fixes k.
_SLICE_POSITIONS = (
    ((0, 1, 2, 3), (4, 5, 6, 7)),
    ((0, 1, 4, 5), (2, 3, 6, 7)),
    ((0, 2, 4, 6), (1, 3, 5, 7)),
)
_MINORS = tuple(itertools.combinations(range(4), 2))


def _flattening_ranks(t: Tensor3) -> tuple[int, int, int]:
    """The ranks of the three flattenings of a 2x2x2 tensor.

    The factor-k flattening has two columns, the two slices u and v along
    factor k read as vectors of length 4, so its rank is that of (u, v): 2
    when some 2x2 minor u_a v_b - u_b v_a is nonzero, else 1 when u or v is
    nonzero, else 0.  Scalars are plain ``int`` or ``Fraction`` values (see
    :mod:`.exactalg.field`), so each minor is taken with the operators and
    only its zero test goes through the field.
    """
    is_zero = t.field.is_zero
    c = t.coeffs
    ranks = []
    for upos, vpos in _SLICE_POSITIONS:
        u = [c[a] for a in upos]
        v = [c[a] for a in vpos]
        if any(not is_zero(u[a] * v[b] - u[b] * v[a]) for a, b in _MINORS):
            ranks.append(2)
        else:
            ranks.append(0 if all(is_zero(x) for x in u + v) else 1)
    return tuple(ranks)


def _discriminant(f: Field, alpha, beta, gamma):
    """beta^2 - 4 alpha gamma."""
    return f.sub(f.mul(beta, beta), f.mul(f.from_int(4), f.mul(alpha, gamma)))


def _binary_quadratic_separable(f: Field, alpha, beta, gamma) -> tuple[bool, bool]:
    """(separable over the closure, splits over the base field) for
    alpha x^2 + beta xy + gamma y^2, assumed not identically zero.

    Characteristic-aware: discriminant in char != 2, middle coefficient in
    char 2 (where the discriminant degenerates).
    """
    if f.characteristic == 2:
        separable = not f.is_zero(beta)
    else:
        separable = not f.is_zero(_discriminant(f, alpha, beta, gamma))
    # Split over the base field: roots of the dehomogenized quadratic lie in
    # the field (projective roots counted with y = 0 allowed).
    if f.is_zero(alpha):
        split = True  # root at y = 0 plus a linear factor
    elif f.characteristic == 2:
        from .exactalg import UniPoly, roots_with_multiplicity
        poly = UniPoly(f, [gamma, beta, alpha])
        _, cof = roots_with_multiplicity(poly)
        split = cof.degree <= 0
    else:
        split = _has_sqrt(f, _discriminant(f, alpha, beta, gamma))
    return separable, split


def _has_sqrt(f: Field, v) -> bool:
    if f.characteristic == 0:
        if v < 0:
            return False
        num, den = v.numerator, v.denominator
        return _int_is_square(num) and _int_is_square(den)
    # Euler's criterion: a nonzero v is a square iff v^((p-1)/2) = 1.
    p = f.characteristic
    v = f.canonical(v)
    return v == 0 or pow(v, (p - 1) // 2, p) == 1


def _int_is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def classify_2x2x2(t: Tensor3, check: bool = False) -> Classification222:
    """Full geometric classification of a 2x2x2 tensor.

    Flattening ranks decide the non-concise cases; concise tensors are split
    by separability of the binary form det(x*A + y*B) on the third-factor
    slices: separable pencils are the rank-2 orbit, inseparable ones the
    rank-3 orbit of border rank 2.  Border rank never exceeds 2 because the
    second secant of the triple Segre fills the ambient space.  Both the
    ranks and the form are read off the eight coefficients, with no
    elimination (_flattening_ranks, _pencil_form).
    """
    if t.dims != (2, 2, 2):
        raise ShapeError("classifier needs a 2x2x2 tensor")
    f = t.field
    ranks = _flattening_ranks(t)
    concise = tuple(r == d for r, d in zip(ranks, t.dims))
    if ranks[0] == 0:
        return Classification222(rank=0, border_rank=0, concise=concise, label=LABEL_ZERO)
    if all(r == 1 for r in ranks):
        return Classification222(rank=1, border_rank=1, concise=concise, label=LABEL_RANK_ONE)
    if min(ranks) == 1:
        return Classification222(rank=2, border_rank=2, concise=concise,
                                 label=LABEL_NON_CONCISE)
    alpha, beta, gamma = _pencil_form(t)
    if all(f.is_zero(v) for v in (alpha, beta, gamma)):
        raise ArithmeticError("identically singular pencil on a concise tensor")
    separable, split = _binary_quadratic_separable(f, alpha, beta, gamma)
    if check and f.characteristic != 2:
        if f.is_zero(hyperdeterminant_222(t)) != f.is_zero(_discriminant(f, alpha, beta, gamma)):
            raise ArithmeticError("hyperdeterminant disagrees with pencil discriminant")
    if separable:
        return Classification222(rank=2, border_rank=2, concise=concise,
                                 label=LABEL_GENERIC, pencil_separable=True,
                                 pencil_split=split)
    return Classification222(rank=3, border_rank=2, concise=concise,
                             label=LABEL_W_TYPE, pencil_separable=False,
                             pencil_split=split)


# -- exact rank over a small finite field ----------------------------------------

def _all_rank_one_keys(field, dims) -> list[tuple]:
    """All nonzero rank-1 tensors over a finite field, each listed once.

    First factors are normalized projectively (first nonzero coordinate 1),
    the last carries the scale.
    """
    d1, d2, d3 = dims
    p = field.characteristic

    def proj_reps(d):
        reps = []
        for vec in itertools.product(range(p), repeat=d):
            lead = next((i for i, v in enumerate(vec) if v != 0), None)
            if lead is not None and vec[lead] == 1:
                reps.append(vec)
        return reps

    def nonzero(d):
        return [v for v in itertools.product(range(p), repeat=d) if any(v)]

    keys = []
    for a in proj_reps(d1):
        for b in proj_reps(d2):
            for c in nonzero(d3):
                t = rank_one(field, list(a), list(b), list(c))
                keys.append(tuple(t.coeffs))
    return keys


def brute_force_rank_fq(t: Tensor3, q: int, rmax: int,
                        cap: int = 2_000_000) -> Optional[int]:
    """Smallest r <= rmax with a rank-r decomposition over F_q, else None.

    Breadth-first over sums of rank-1 tensors: the set of tensors of rank
    <= r is the previous layer plus one rank-1 term.  The whole coefficient
    space is materialized, so the size cap guards the product q^(d1 d2 d3).
    """
    field = GF(q)
    if t.field.characteristic != q:
        raise ValueError("tensor field does not match q")
    d1, d2, d3 = t.dims
    total = q ** (d1 * d2 * d3)
    if total > cap:
        raise InfeasibleEnumeration(f"{total} tensors exceeds cap {cap}")
    target = tuple(t.coeffs)
    zero_key = tuple([field.zero()] * (d1 * d2 * d3))
    if target == zero_key:
        return 0
    r1 = _all_rank_one_keys(field, t.dims)
    reachable = {zero_key}
    frontier = {zero_key}
    for r in range(1, rmax + 1):
        new_frontier = set()
        for base in frontier:
            for inc in r1:
                s = tuple(field.add(a, b) for a, b in zip(base, inc))
                if s not in reachable:
                    reachable.add(s)
                    new_frontier.add(s)
        if target in new_frontier:
            return r
        frontier = new_frontier
        if not frontier:
            break
    return None


# -- unit and multiplication tensors ----------------------------------------------

def unit_tensor(d: int, field: Field) -> Tensor3:
    """sum_i e_i (x) e_i (x) e_i: the split multiplication tensor."""
    one = field.one()
    return Tensor3.from_entries(field, (d, d, d), {(i, i, i): one for i in range(d)})


def multiplication_tensor(m: FramedModule, generator: int = 0) -> Tensor3:
    """Structure constants of the action algebra in the cyclic monomial basis.

    Requires the chosen framing column to be a cyclic generator; the basis is
    built greedily from monomial images of that column, and the product of
    basis vectors u_a, u_b is the monomial product evaluated on the
    generator.
    """
    f = m.field
    d = m.d
    gen = list(m.G.col(generator))
    basis_vecs: list[tuple] = []
    basis_monos: list[tuple] = []
    span = EchelonBasis(f, d)

    def absorb(vec, mono) -> bool:
        if span.insert(vec):
            basis_vecs.append(tuple(vec))
            basis_monos.append(mono)
            return True
        return False

    absorb(gen, tuple([0] * m.n))
    frontier = [(gen, tuple([0] * m.n))]
    while frontier and len(basis_vecs) < d:
        new_frontier = []
        for vec, mono in frontier:
            for i in range(m.n):
                w = m.X[i].matvec(list(vec))
                mono2 = tuple(mono[j] + (1 if j == i else 0) for j in range(m.n))
                if absorb(w, mono2):
                    new_frontier.append((w, mono2))
        frontier = new_frontier
    if len(basis_vecs) < d:
        raise ValueError("chosen column is not a cyclic generator")
    # Column a*d + b of V is the product monomial applied to the generator,
    # x^(mono_a) u_b, and coefficient (a, b, k) is entry k of its coordinates
    # B^-1 x^(mono_a) u_b in the basis B (basis vectors as columns).  So the
    # third flattening is (B^-1 V)^T = V^T (B^T)^-1, and V^T and B^T have
    # the products and the basis vectors as rows.
    products = []
    for mono in basis_monos:
        for u in basis_vecs:
            w = list(u)
            for i in range(m.n):
                for _ in range(mono[i]):
                    w = m.X[i].matvec(w)
            products.append(w)
    flat = Matrix.from_rows(f, products) * Matrix.from_rows(f, basis_vecs).inverse()
    return Tensor3.from_flat((d, d, d), flat)


# -- Terracini secant dimension ----------------------------------------------------

@dataclass
class SecantReport:
    d: int
    r: int
    ambient: int
    bound: int
    terracini_dim: int
    fills_ambient: bool
    per_trial: list[int]


# Over Q, secant_dimension samples point coordinates from 1..Q_SAMPLE_MAX: a
# window wide enough that projective collisions between sampled Segre points
# are vanishingly rare, and below CERTIFICATE_PRIME, so no sampled
# coordinate vanishes mod that prime.
Q_SAMPLE_MAX = 9973


def _tangent_rows(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> list[list[int]]:
    """3d - 2 integer rows spanning the affine tangent space of the Segre cone
    at a (x) b (x) c, as coefficient lists in lexicographic order: the rows
    e_i (x) b (x) c, a (x) e_i (x) c, a (x) b (x) e_i (i < d, interleaved in
    that order) without a (x) e_j (x) c at the first j with b_j != 0 and
    a (x) b (x) e_k at the first k with c_k != 0.

    Each dropped row is a combination of the kept ones, because
    sum_i a_i (e_i (x) b (x) c), sum_j b_j (a (x) e_j (x) c) and
    sum_k c_k (a (x) b (x) e_k) all equal a (x) b (x) c; so over Q, and over
    F_p when the coordinates are residues mod p, the kept rows span what all
    3d rows span.
    """
    if not any(b) or not any(c):
        raise ValueError("a Segre point has nonzero factors")
    d = len(a)
    dd = d * d
    j0 = next(j for j, y in enumerate(b) if y)
    k0 = next(k for k, z in enumerate(c) if z)
    bc = [y * z for y in b for z in c]
    ab = [x * y for x in a for y in b]
    rows = []
    for i in range(d):
        first = [0] * (d * dd)
        first[i * dd:(i + 1) * dd] = bc
        rows.append(first)
        if i != j0:
            second = [0] * (d * dd)
            for s, x in enumerate(a):
                second[s * dd + i * d:s * dd + (i + 1) * d] = [x * z for z in c]
            rows.append(second)
        if i != k0:
            third = [0] * (d * dd)
            third[i::d] = ab
            rows.append(third)
    return rows


def _terracini_rank(field: Field, rows: list[list[int]], ncols: int, full: int) -> int:
    """Rank over ``field`` of integer rows whose rank over Q is at most
    ``full``.  Over F_p: one elimination of the rows mod p.  Over Q: one
    elimination mod ``CERTIFICATE_PRIME``, and the exact elimination over Q
    only when that rank falls short of ``full`` (the rank mod a prime is at
    most the rank over Q, so reaching ``full`` certifies it)."""
    if field.characteristic:
        return len(_eliminate(field, rows, ncols, reduced=False)[1])
    rank = len(_eliminate(GF(CERTIFICATE_PRIME), rows, ncols, reduced=False)[1])
    if rank < full:
        rank = len(_eliminate(QQ, rows, ncols, reduced=False)[1])
    return rank


def secant_dimension(d: int, r: int, trials: int = 5, seed: int = 0,
                     field: Field = QQ, cap: int = 2_000_000) -> SecantReport:
    """Generic dimension of the r-th secant of the triple Segre of P^(d-1).

    Per trial: r random points a (x) b (x) c, tangent spaces spanned by
    replacing one factor by the full space; the projective secant dimension
    is the rank of the stacked spans minus one.  The maximum over trials is
    reported and never exceeds ``bound`` = min(ambient, r(3(d-1)+1) - 1), so
    the trials stop at the first one that reaches it: ``per_trial`` lists
    the trials run, at most ``trials`` of them.

    Each point contributes the 3d - 2 rows of ``_tangent_rows``, which span
    its tangent space.  The r(3d - 2) x d^3 rows are integers: the sampled
    coordinates over Q, their residues over F_p, where one elimination mod p
    gives the rank.  Over Q the coordinates come from 1..``Q_SAMPLE_MAX``,
    and the rank is taken mod the prime P = ``CERTIFICATE_PRIME`` first,
    and certified by the bound:

    - rank_P <= rank_Q, since a minor that is nonzero mod P is a nonzero
      integer;
    - rank_Q <= min(row count, column count) = min(r(3d - 2), d^3)
      = bound + 1;
    - so rank_P - 1 == bound proves rank_Q - 1 == bound.

    P exceeds ``Q_SAMPLE_MAX``, so every sampled coordinate is a unit mod P
    and the rows mod P are the tangent rows of the points mod P.  A trial
    whose rank mod P falls short of bound + 1 (every trial of a defective
    secant) is ranked again by the exact elimination over Q; P only decides
    how often that happens, never the answer.  The elimination mod P packs
    one 64-bit word per entry, since min(r(3d - 2), d^3) < 2^15 for every
    shape within the default cap (see ``exactalg.matrix._eliminate_packed``).

    ``InfeasibleEnumeration`` is raised, before any row is built, when
    trials * r(3d - 2) * d^3, the entries of every trial's rows, exceeds
    ``cap``.
    """
    if d < 1 or r < 1:
        raise ValueError("need d, r >= 1")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    entries = trials * r * (3 * d - 2) * d ** 3
    if entries > cap:
        raise InfeasibleEnumeration(
            f"{trials} trials of {r * (3 * d - 2)} x {d ** 3} Terracini rows "
            f"({entries} entries) exceed cap {cap}")
    rng = random.Random(seed)
    ambient = d ** 3 - 1
    bound = min(ambient, r * (3 * (d - 1) + 1) - 1)

    def sample_point():
        if field.characteristic == 0:
            return [rng.randint(1, Q_SAMPLE_MAX) for _ in range(d)]
        return rand_nonzero_vector(rng, field, d)

    per_trial = []
    for _ in range(trials):
        rows = []
        for _ in range(r):
            a = sample_point()
            b = sample_point()
            c = sample_point()
            rows += _tangent_rows(a, b, c)
        rank = _terracini_rank(field, rows, d ** 3, bound + 1)
        per_trial.append(rank - 1)
        if rank - 1 == bound:
            break
    terracini = max(per_trial)
    return SecantReport(d=d, r=r, ambient=ambient, bound=bound,
                        terracini_dim=terracini,
                        fills_ambient=(terracini == ambient),
                        per_trial=per_trial)


# -- JSON -------------------------------------------------------------------------

def tensor_to_json(t: Tensor3) -> dict:
    return {
        "field": t.field.name,
        "dims": list(t.dims),
        "coeffs": [t.field.fmt(c) for c in t.coeffs],
    }


def tensor_from_json(obj: dict) -> Tensor3:
    try:
        field = parse_field(obj["field"])
        dims = obj["dims"]
        if not (isinstance(dims, list) and len(dims) == 3
                and all(type(x) is int and x >= 0 for x in dims)):
            raise ValueError(f"dims must be three non-negative integers, got {dims!r}")
        dims = tuple(dims)
        coeffs = [field.parse(s) for s in obj["coeffs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldError(f"malformed tensor JSON: {exc}") from exc
    return Tensor3(field, dims, coeffs)
