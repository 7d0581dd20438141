"""Points of the Quot moduli of framed modules: tangent spaces and families.

The tangent space at a framed module is computed on the deformation side: the
nullity of the first-order commutation system in (Xdot, Gdot) minus the d^2
gauge directions coming from infinitesimal basis changes.  A univariate
oracle recomputes the same dimension as module homomorphisms out of the
kernel presentation, by entirely different linear algebra, its k[x] columns
kept as coefficient rows over the Krylov pass's vectors X^m g_a.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .exactalg import (
    GF,
    Field,
    AffineFamily,
    EchelonBasis,
    InfeasibleEnumeration,
    Matrix,
    ShapeError,
    UniPoly,
    gaussian_binomial,
)
from .exactalg.matrix import _adopt, _dots, _kernel_mod_span
from .modcore import FramedModule, InvalidPoint, _support, validate_framed


@dataclass
class QuotTangentVector:
    xdot: tuple[Matrix, ...]
    gdot: Matrix


@dataclass
class QuotTangentReport:
    dim: int
    nullity: int
    gauge_dim: int
    basis: list[QuotTangentVector]


def _intertwiner_rows(A: Matrix, B: Matrix, base: int = 0) -> list[dict]:
    """Rows of the operator M -> M A - B M on vec(M), row-major, one row per
    entry (k, c) of M A - B M in row-major order, each a dict of its nonzero
    entries with vec(M) at columns base, base + 1, ...

    Both the first-order commutation of an action family (A = B = X_j) and
    the equivariance of a pairing lift (A = X_i (x) 1 or 1 (x) Y_i, B = Z_i)
    are this operator.  Entries are raw field values, left unreduced.
    """
    m, n = B.rows, A.rows
    ae, be = A.entries, B.entries
    # Row (k, c): A[s, c] at (k, s) from M A, and -B[k, s] at (s, c) from B M.
    acols = [[(s, x) for s, x in enumerate(ae[c::n]) if x] for c in range(n)]
    brows = [[(s, x) for s, x in enumerate(be[k * m:(k + 1) * m]) if x] for k in range(m)]
    rows = []
    for k in range(m):
        for c in range(n):
            row = {base + k * n + s: x for s, x in acols[c]}
            for s, bv in brows[k]:
                j = base + s * n + c
                row[j] = row.get(j, 0) - bv
                if not row[j]:
                    del row[j]
            rows.append(row)
    return rows


def _commutation_rows(X: tuple[Matrix, ...], base: int) -> list[dict]:
    """First-order commutation rows: perturbing X_i, X_j must keep them
    commuting to order one, [Xdot_i, X_j] + [X_i, Xdot_j] = 0 for i < j.
    Unknown layout: vec(Xdot_i) at base + i*d*d; rows as dicts."""
    dd = X[0].rows ** 2
    rows = []
    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            # Xdot_i -> Xdot_i X_j - X_j Xdot_i, less Xdot_j -> Xdot_j X_i - X_i Xdot_j.
            ops = zip(_intertwiner_rows(X[j], X[j], base + i * dd),
                      _intertwiner_rows(X[i], X[i], base + j * dd))
            rows.extend(oi | {t: -v for t, v in oj.items()} for oi, oj in ops)
    return rows


def _unit_action(f, M: Matrix, base: int = 0, row: Optional[tuple[int, int]] = None,
                 cols: Sequence[tuple[int, int]] = ()) -> dict:
    """vec(E M - M E') for 0/1 matrices E and E' in closed form, as a dict of
    its nonzero entries with vec at columns base, base + 1, ...

    ``row`` = (a, b) means E = E_ab, and E_ab M is row b of M moved to row
    a.  Each pair (c, c') in ``cols`` is a 1 of E' at (c, c'), and M E'
    holds column c of M in column c'.  So [E_ab, X] is row=(a, b),
    cols=[(a, b)], and -Pihat (E_ab (x) 1) is cols=[((a, q), (b, q)) for
    each q], with the column pair (p, q) at p*d2 + q.  Entries moved by E
    are raw; those moved by E' are reduced mod p over F_p.
    """
    w, e, p = M.cols, M.entries, f.characteristic
    out = {}
    if row is not None:
        a, b = row
        out = {base + a * w + t: x for t, x in enumerate(e[b * w:(b + 1) * w]) if x}
    for c, c2 in cols:
        # Column c2 of the output less column c of M.
        for j, y in zip(range(base + c2, base + len(e), w), e[c::w]):
            if y or j in out:
                x = out.get(j, 0) - y
                out[j] = x % p if p else x
                if not out[j]:
                    del out[j]
    return out


def _family_gauge(f, X: tuple[Matrix, ...], a: int, b: int, base: int = 0) -> dict:
    """The gauge direction E_ab on an action family: vec([E_ab, X_i]) at base + i*d*d."""
    return {j: v for i, x in enumerate(X)
            for j, v in _unit_action(f, x, base + i * x.rows * x.rows, (a, b), [(a, b)]).items()}


def _module_gauge(P: FramedModule, a: int, b: int, base: int = 0) -> dict:
    """The gauge direction E_ab at a framed module: ([E_ab, X_i]), E_ab G."""
    return (_family_gauge(P.field, P.X, a, b, base)
            | _unit_action(P.field, P.G, base + P.n * P.d * P.d, (a, b)))


def _gauge_vectors_quot(P: FramedModule) -> list[dict]:
    """Images of the trivial deformations Delta -> (([Delta, X_i]), Delta G),
    for Delta = E_ab in (a, b) order, as dicts of their nonzero entries."""
    return [_module_gauge(P, a, b) for a in range(P.d) for b in range(P.d)]


def _tangent_tail(rows: list[dict], gauge: list[dict], f, nvars: int,
                  check: bool) -> tuple[int, list[tuple]]:
    """Nullity of a first-order system and representatives of its kernel
    modulo the gauge directions, both given as dicts of nonzero entries.

    Each gauge vector is the derivative of the basis-change orbit through
    the point: the point moved by 1 + t E_ab over k[t]/(t^2) is the point
    plus t times the vector.  The equations are invariant under a change of
    basis, so that moved point solves them to first order and the vector
    solves the first-order system: the gauge lies in the kernel.
    :func:`exactalg.matrix._kernel_mod_span` keeps the kernel basis vectors
    that are not right pivots of the gauge in kernel coordinates (its
    entries at the non-pivot columns), from one elimination of the dict rows
    and one of that restriction.  It raises ``ArithmeticError`` unless the
    restriction has rank len(gauge), which proves the gauge independent on
    every call, so dim = nullity - len(gauge) is certified with or without
    ``check``.  ``check`` also verifies directly, by sparse dot products,
    that the gauge solves the system, which the argument above and the kept
    representatives rely on.
    """
    if check:
        p = f.characteristic
        for v in gauge:
            for row in rows:
                s = sum(x * v[j] for j, x in row.items() if j in v)
                if s % p if p else s:
                    raise ArithmeticError("gauge vector violates the deformation system")
    return _kernel_mod_span(f, rows, nvars, gauge)


def quot_tangent(P: FramedModule, check: bool = False) -> QuotTangentReport:
    """Tangent dimension and basis representatives at a framed module.

    dim = nullity(first-order commutation system) - d^2; the subtraction is
    exact because the gauge map is injective at framed points (the framing
    generates), and certified on every call (see :func:`_tangent_tail`).
    With ``check`` each gauge vector is also verified to solve the system.
    """
    if not validate_framed(P).ok:
        raise InvalidPoint("invalid framed module")
    f = P.field
    d, r, n = P.d, P.r, P.n
    dd = d * d
    nvars = n * dd + d * r
    gauge = _gauge_vectors_quot(P)
    nullity, reps = _tangent_tail(_commutation_rows(P.X, 0), gauge, f, nvars, check)
    basis = [QuotTangentVector(
        xdot=tuple(_adopt(f, d, d, list(v[i * dd:(i + 1) * dd])) for i in range(n)),
        gdot=_adopt(f, d, r, list(v[n * dd:]))) for v in reps]
    return QuotTangentReport(dim=nullity - len(gauge), nullity=nullity,
                             gauge_dim=len(gauge), basis=basis)


# -- univariate kernel presentation and Hom oracle ---------------------------

@dataclass
class KernelPresentation:
    """The Hermite basis of K = ker(k[x]^r -> M) for a univariate framed
    module, in the layout of the Krylov pass that found it.

    Column j is x^(k_j) e_j - sum c_(i,m) x^m e_i over i > j, m < k_i and
    i = j, m < k_j, with k_j the Krylov index of g_j: a monic pivot of degree
    k_j in row j, zeros above it, and entries below it of lower degree than
    their row's pivot, the distinct, increasing pivot rows
    :func:`express_in_echelon` expects.  ``tags[j]`` is column j as one
    coefficient row, the x^m coefficient of row a at counts[0] + ... +
    counts[a-1] + m with counts[a] = k_a + 1, over the Krylov vectors
    ``powers[a]`` = [X^m g_a for m <= k_a] in the same order: column j's
    value at X is sum_s tags[j][s] v_s.  The vectors describe X and G, not
    K, so they take no part in == or repr; ``cols`` builds ``UniPoly``
    columns on request.
    """
    field: Field = dc_field(repr=False)
    tags: list[list]
    counts: list[int]
    powers: list[list[list]] = dc_field(compare=False, repr=False)

    @property
    def cols(self) -> list[list[UniPoly]]:
        cuts = list(itertools.accumulate(self.counts, initial=0))
        return [[UniPoly(self.field, tag[a:b]) for a, b in zip(cuts, cuts[1:])]
                for tag in self.tags]


def _combine(vecs: Sequence[Sequence], table: Sequence[list], n: int, p: int) -> list[list]:
    """sum_s vec[s] table[s] for every vec of ``vecs``, the table holding
    vectors of length n: n dot products per vec.  A vec whose length is not
    the table's is refused, never cut short."""
    # A list: unpacking an iterator resizes the argument tuple, filling tuple free lists.
    t = list(zip(*table)) or [()] * n
    for i, vec in enumerate(vecs):
        if len(vec) != len(table):
            raise ArithmeticError(f"coefficient vector {i} has {len(vec)} entries "
                                  f"for a table of {len(table)} vectors")
    return [_dots(t, vec, p) for vec in vecs]


def _evaluate(vecs: Sequence[Sequence], counts: Sequence[int], X: Matrix,
              G: Matrix) -> list[list]:
    """sum_a col[a](X) G[:, a] for columns in the layout of
    :class:`KernelPresentation`, each a row ``vec`` with counts[a]
    coefficients for row a: one power table X^m G[:, a], m < counts[a], by
    matvecs, and one dot product per output row with it (see
    :func:`_combine`).  Over Q the sums are exact."""
    p, rows, r = X.field.characteristic, X.row_lists(), G.cols
    table = []
    for a, k in enumerate(counts):
        if k:
            table.append(G.entries[a::r])
            for _ in range(k - 1):
                table.append(_dots(rows, table[-1], p))
    return _combine(vecs, table, X.rows, p)


def _krylov_relations(P: FramedModule) -> tuple[list[list], list[list[list]]]:
    """The columns of the Hermite basis of K, j = 0, ..., r - 1, as tags over
    the vectors X^m g_a, m <= k_a, that the pass computed for each a, and
    those vectors (the layout of :class:`KernelPresentation`).

    For j = r - 1 down to 0, X^l g_j for l = 0, 1, ... go into one echelon
    basis of k^d x k^(d+1), each with a unit tag in the next free slot: the
    s-th vector inserted owns slot s, and ``owner[s]`` = (i, m) says it was
    X^m g_i.  Every vector in the basis has k^d part sum tag_s X^m g_i over
    its slots, since reduction only subtracts such vectors.  When the k^d
    part of the candidate X^l g_j reduces to zero, at l = k_j <= d, its
    reduced tag is a relation X^l g_j - sum c_s X^m g_i = 0, nonzero only at
    the vectors inserted before the candidate and at the candidate itself,
    where it is 1; writing each entry at its owner's (i, m) gives column j.
    A fixed tag slot per (i, l) gives the same columns: the inserted vectors
    are independent in k^d, so X^(k_j) g_j has exactly one expression in
    them.  At most d vectors are inserted, so the basis has width 2d + 1
    rather than d + r(d + 1).
    """
    f, d, r, rows = P.field, P.d, P.r, P.X[0].row_lists()
    span = EchelonBasis(f, 2 * d + 1)
    owner = []
    relations = []
    powers = []
    for j in range(r - 1, -1, -1):
        v = list(P.G.col(j))
        powers.append([v])
        for l in range(d + 1):
            tagged = v + [f.zero()] * (d + 1)
            tagged[d + len(owner)] = f.one()
            w = span.reduce(tagged)
            if not any(w[:d]):  # reduce returns canonical values: zero is 0
                relations.append((owner + [(j, l)], w[d:d + len(owner) + 1]))
                break
            span.insert_reduced(w)
            owner.append((j, l))
            v = _dots(rows, v, f.characteristic)
            powers[-1].append(v)
    powers.reverse()
    cuts = list(itertools.accumulate(map(len, powers), initial=0))
    tags = []
    for slots, coeffs in reversed(relations):
        tag = [f.zero()] * cuts[-1]
        for (i, m), c in zip(slots, coeffs):
            tag[cuts[i] + m] = c
        tags.append(tag)
    return tags, powers


def kernel_presentation(P: FramedModule) -> KernelPresentation:
    """Present K = ker(evaluation : k[x]^r -> M), n = 1 only, by its Hermite
    basis, read off the Krylov relations of the framing.

    Certificate: the columns pass a substitution check, each value at X one
    dot product per output row of its tag with the Krylov vectors of the pass
    (see :func:`_combine`, which refuses a tag of another length), so they
    span some K' in K.  Their tags show r lower triangular columns, so K' has
    colength deg det = sum k_j, which must equal the image dimension found by
    ``krylov_span`` (= d when the framing generates), the colength of K; so
    K' = K.
    """
    if P.n != 1:
        raise ShapeError("kernel presentation is univariate only")
    r = P.r
    tags, powers = _krylov_relations(P)
    values = _combine(tags, [v for vs in powers for v in vs], P.d, P.field.characteristic)
    # The values are reduced mod p over F_p and canonical over Q: zero is 0.
    bad = next(((j, i) for j, v in enumerate(values) for i, c in enumerate(v) if c), None)
    if bad is not None:
        raise ArithmeticError("kernel column %d fails substitution check: its value at X "
                              "is nonzero first in row %d" % bad)
    # Column j's row-j entry has degree the last m at which its coefficient is nonzero.
    counts = [len(v) for v in powers]
    cuts = list(itertools.accumulate(counts, initial=0))
    degrees = [max((m for m, c in enumerate(tag[cuts[j]:cuts[j + 1]]) if c), default=-1)
               for j, tag in zip(range(r), tags)]
    triangular = all(k >= 0 and not any(tag[:cuts[j]])
                     for j, (k, tag) in enumerate(zip(degrees, tags)))
    img_dim = len(_image_basis(P))
    if len(tags) != r or not triangular or sum(degrees) != img_dim:
        raise ArithmeticError(
            f"kernel generators give {len(tags)} echelon columns of pivot degrees {degrees}; "
            f"K needs {r} lower triangular columns of colength {img_dim} (image dimension)")
    return KernelPresentation(P.field, tags, counts, powers)


def _image_basis(P: FramedModule) -> list[tuple]:
    from .modcore import krylov_span
    cols = [P.G.col(j) for j in range(P.r)]
    return krylov_span(P.X, cols, P.field, P.d)


@dataclass
class HomReport:
    dim: int


def hom_KM_univariate(P: FramedModule) -> HomReport:
    """dim Hom_{k[x]}(K, M) with K the kernel presentation of P, n = 1.

    This is the direct oracle for quot_tangent, and the certificate of
    :func:`kernel_presentation` is what makes it one: its r columns are
    proved to be a basis of K, so K is free of rank r, a homomorphism is any
    assignment of images in M to the basis, and dim = d r.  A presentation
    that fails the certificate raises instead of giving a dimension.
    """
    if P.n != 1:
        raise ShapeError("oracle is univariate only")
    return HomReport(dim=P.d * len(kernel_presentation(P).tags))


# -- dimension formulas -------------------------------------------------------

@dataclass
class QuotDims:
    n: int
    d: int
    r: int
    principal_dim: int
    degenerate_dim: Optional[int]
    reducible_by_count: bool


def quot_dims(n: int, d: int, r: int) -> QuotDims:
    """Dimension report: principal component nd + (r-1)d, degenerate locus
    (r-d)d when r >= d, and the count-based reducibility test n < 1 - d."""
    if n < 1 or d < 1 or r < 1:
        raise ValueError("need n, d, r >= 1")
    principal = n * d + (r - 1) * d
    degenerate = (r - d) * d if r >= d else None
    return QuotDims(n=n, d=d, r=r, principal_dim=principal,
                    degenerate_dim=degenerate,
                    reducible_by_count=(n < 1 - d))


@dataclass
class GrassmannianCheck:
    d: int
    r: int
    q: int
    enumerated: int
    formula: int

    @property
    def ok(self) -> bool:
        return self.enumerated == self.formula


def degenerate_grassmannian_check(d: int, r: int, q: int,
                                  cap: int = 5_000_000) -> GrassmannianCheck:
    """Count the totally degenerate locus over F_q by brute force.

    Enumerates all d x r matrices over F_q, keeps the full-rank ones, and
    canonicalizes modulo the left GL_d action by reduced row echelon form;
    the count must equal the Gaussian binomial.
    """
    if r < d:
        raise ValueError("need r >= d")
    field = GF(q)
    total = q ** (d * r)
    if total > cap:
        raise InfeasibleEnumeration(f"{total} matrices exceeds cap {cap}")
    seen = set()
    for entries in itertools.product(range(q), repeat=d * r):
        rref, piv = Matrix(field, d, r, entries).rref()
        if len(piv) == d:
            seen.add(tuple(rref.entries))
    return GrassmannianCheck(d=d, r=r, q=q, enumerated=len(seen),
                             formula=gaussian_binomial(d, r, q))


# -- the two-point limit families --------------------------------------------

@dataclass
class QuotLimitFamily:
    """A one-parameter family (X(t), G) degenerating to a base point: one
    affine family per action and a fixed framing G.

    Evaluation at 0 recovers the base point exactly; at all but finitely many
    t != 0 the fiber is a valid module supported at two distinct points.
    """
    branch: str  # "distinct" | "semisimple" | "nilpotent"
    actions: tuple[AffineFamily, ...]
    G: Matrix

    def evaluate(self, t0) -> FramedModule:
        X = tuple(a.evaluate(t0) for a in self.actions)
        return FramedModule(n=len(X), d=X[0].rows, r=self.G.cols, X=X, G=self.G)


class NonSplitSupport(ValueError):
    """Support analysis needs eigenvalues outside the computation field."""


def quot2_limit_family(P: FramedModule) -> QuotLimitFamily:
    """Degeneration family exhibiting a d = 2 module as a limit of two-point
    modules.

    Three branches: distinct support (constant family), semisimple double
    point (split one eigenvalue off by t along the first variable that can
    move), and nilpotent cyclic (realize the square of the local coordinate
    as t times the coordinate).  Requires the relevant eigenvalues to lie in
    the computation field.
    """
    if P.d != 2:
        raise ShapeError("limit families are for d = 2")
    if not validate_framed(P).ok:
        raise ValueError("invalid framed module")
    f = P.field
    n = P.n
    eye = Matrix.identity(f, 2)
    zero = Matrix.zeros(f, 2, 2)
    e22 = Matrix.diag(f, [f.zero(), f.one()])

    eigdata = []
    for x in P.X:
        supp = _support(x)
        if not supp.split:
            raise NonSplitSupport("characteristic polynomial does not split")
        eigdata.append(supp.values())

    # Distinct support: some action has two distinct eigenvalues.
    for i, ev in enumerate(eigdata):
        if not f.eq(ev[0], ev[1]):
            return QuotLimitFamily(branch="distinct",
                                   actions=tuple(AffineFamily(x, zero) for x in P.X), G=P.G)

    # Single support point c = (c_1..c_n); N_i = X_i - c_i nilpotent.
    c = [ev[0] for ev in eigdata]
    N = [P.X[i] - eye.scale(c[i]) for i in range(n)]
    if all(m.is_zero() for m in N):
        # Semisimple: X_i = c_i I.  Shift one summand by t along x_1.
        actions = tuple(AffineFamily(x, e22 if i == 0 else zero) for i, x in enumerate(P.X))
        return QuotLimitFamily(branch="semisimple", actions=actions, G=P.G)

    # Nilpotent cyclic: the maximal ideal squared kills, but not the ideal.
    # Pick u with N_k u != 0, set v = N_k u; in basis (u, v) each action is
    # c_i + a_i * [[0,0],[1,0]] and the family adds t * a_i * [[0,0],[0,1]].
    k = next(i for i in range(n) if not N[i].is_zero())
    u = None
    for cand in ([f.one(), f.zero()], [f.zero(), f.one()]):
        if not all(f.is_zero(w) for w in N[k].matvec(cand)):
            u = cand
            break
    v = N[k].matvec(u)
    B = Matrix(f, 2, 2, [u[0], v[0], u[1], v[1]])  # columns u, v
    Binv = B.inverse()
    pivot = next(p for p in range(2) if not f.is_zero(v[p]))
    coeffs = []
    for i in range(n):
        # N_i u is a multiple of v since v spans the socle
        w = N[i].matvec(u)
        coeffs.append(f.div(w[pivot], v[pivot]))
    # the slope of X_i is a_i * diag(0, 1) in basis (u, v)
    actions = tuple(AffineFamily(P.X[i], B * e22.scale(coeffs[i]) * Binv) for i in range(n))
    return QuotLimitFamily(branch="nilpotent", actions=actions, G=P.G)
