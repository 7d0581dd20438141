"""Points of the Quot moduli of framed modules: tangent spaces and families.

The tangent space at a framed module is computed on the deformation side: the
nullity of the first-order commutation system in (Xdot, Gdot) minus the d^2
gauge directions coming from infinitesimal basis changes.  A univariate
oracle recomputes the same dimension as module homomorphisms out of the
kernel presentation, by entirely different linear algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul, sub
from typing import Optional, Sequence

from .exactalg import (
    GF,
    AffineFamily,
    EchelonBasis,
    InfeasibleEnumeration,
    Matrix,
    ShapeError,
    UniPoly,
    gaussian_binomial,
    kernel_mod_span,
)
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


def _intertwiner_rows(A: Matrix, B: Matrix) -> list[list]:
    """Rows of the operator M -> M A - B M on vec(M), row-major, one row per
    entry (k, c) of M A - B M in row-major order.

    Both the first-order commutation of an action family (A = B = X_j) and
    the equivariance of a pairing lift (A = X_i (x) 1 or 1 (x) Y_i, B = Z_i)
    are this operator.  Entries are raw field values, left unreduced.
    """
    m, n = B.rows, A.rows
    ae, be = A.entries, B.entries
    rows = []
    for k in range(m):
        bk = be[k * m:(k + 1) * m]
        for c in range(n):
            row = [0] * (m * n)
            # (M A)[k,c] = sum_s M[k,s] A[s,c]
            row[k * n:(k + 1) * n] = ae[c::n]
            # -(B M)[k,c] = -sum_s B[k,s] M[s,c]
            for s, bv in enumerate(bk):
                row[s * n + c] -= bv
            rows.append(row)
    return rows


def _commutation_rows(X: tuple[Matrix, ...], base: int, nvars: int) -> list[list]:
    """First-order commutation rows: perturbing X_i, X_j must keep them
    commuting to order one, [Xdot_i, X_j] + [X_i, Xdot_j] = 0 for i < j.
    Unknown layout: vec(Xdot_i) at base + i*d*d in k^nvars."""
    dd = X[0].rows ** 2
    ops = [_intertwiner_rows(x, x) for x in X]  # Xdot -> Xdot X - X Xdot
    rows = []
    for i in range(len(X)):
        bi = base + i * dd
        for j in range(i + 1, len(X)):
            bj = base + j * dd
            for oi, oj in zip(ops[j], ops[i]):
                row = [0] * nvars
                row[bi:bi + dd] = oi
                row[bj:bj + dd] = [-v for v in oj]
                rows.append(row)
    return rows


def _unit_action(f, M: Matrix, row: Optional[tuple[int, int]] = None,
                 cols: Sequence[tuple[int, int]] = ()) -> list:
    """vec(E M - M E') for 0/1 matrices E and E' in closed form.

    ``row`` = (a, b) means E = E_ab, and E_ab M is row b of M moved to row
    a.  Each pair (c, c') in ``cols`` is a 1 of E' at (c, c'), and M E'
    holds column c of M in column c'.  So [E_ab, X] is row=(a, b),
    cols=[(a, b)], and -Pihat (E_ab (x) 1) is cols=[((a, q), (b, q)) for
    each q], with the column pair (p, q) at p*d2 + q.
    """
    w, e, p = M.cols, M.entries, f.characteristic
    out = [f.zero()] * (M.rows * w)
    if row is not None:
        a, b = row
        out[a * w:(a + 1) * w] = e[b * w:(b + 1) * w]
    for c, c2 in cols:
        # Column c2 of the output less column c of M, with no Field call per entry.
        diff = map(sub, out[c2::w], e[c::w])
        out[c2::w] = [x % p for x in diff] if p else diff
    return out


def _family_gauge(f, X: tuple[Matrix, ...], a: int, b: int) -> list:
    """The gauge direction E_ab on an action family: vec([E_ab, X_i]) for each i."""
    return list(itertools.chain.from_iterable(_unit_action(f, x, (a, b), [(a, b)]) for x in X))


def _module_gauge(P: FramedModule, a: int, b: int) -> list:
    """The gauge direction E_ab at a framed module: ([E_ab, X_i]), E_ab G."""
    return _family_gauge(P.field, P.X, a, b) + _unit_action(P.field, P.G, (a, b))


def _gauge_vectors_quot(P: FramedModule) -> list[tuple]:
    """Images of the trivial deformations Delta -> (([Delta, X_i]), Delta G),
    for Delta = E_ab in (a, b) order."""
    return [tuple(_module_gauge(P, a, b)) for a in range(P.d) for b in range(P.d)]


def _tangent_tail(rows: list[list], gauge: list[tuple], f, nvars: int,
                  check: bool) -> tuple[int, list[tuple]]:
    """Nullity of a first-order system and representatives of its kernel
    modulo the gauge directions.

    Each gauge vector is the derivative of the basis-change orbit through
    the point: the point moved by 1 + t E_ab over k[t]/(t^2) is the point
    plus t times the vector.  The equations are invariant under a change of
    basis, so that moved point solves them to first order and the vector
    solves the first-order system: the gauge lies in the kernel.
    :func:`kernel_mod_span` keeps the kernel basis vectors that are not
    right pivots of the gauge in kernel coordinates (its entries at the
    non-pivot columns), from one elimination of the system and one of that
    restriction.  It raises ``ArithmeticError`` unless the restriction has
    rank len(gauge), which proves the gauge independent on every call, so
    dim = nullity - len(gauge) is certified with or without ``check``.
    ``check`` also verifies directly that the gauge solves the system, which
    the argument above and the kept representatives rely on.
    """
    m = Matrix(f, len(rows), nvars, itertools.chain.from_iterable(rows))
    if check:
        for v in gauge:
            if not all(f.is_zero(c) for c in m.matvec(list(v))):
                raise ArithmeticError("gauge vector violates the deformation system")
    return kernel_mod_span(m, gauge)


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
    nullity, reps = _tangent_tail(_commutation_rows(P.X, 0, nvars), gauge, f, nvars, check)
    basis = [QuotTangentVector(
        xdot=tuple(Matrix(f, d, d, list(v[i * dd:(i + 1) * dd])) for i in range(n)),
        gdot=Matrix(f, d, r, list(v[n * dd:]))) for v in reps]
    return QuotTangentReport(dim=nullity - len(gauge), nullity=nullity,
                             gauge_dim=len(gauge), basis=basis)


# -- univariate kernel presentation and Hom oracle ---------------------------

@dataclass
class KernelPresentation:
    """The Hermite basis of K = ker(k[x]^r -> M) for a univariate framed module.

    ``cols`` holds r columns of k[x]^r.  Column j is x^(k_j) e_j - sum
    c_(i,m) x^m e_i over i > j, m < k_i and i = j, m < k_j, with k_j the
    Krylov index of g_j: a monic pivot of degree k_j in row j, zeros above
    it, and entries below it of lower degree than their row's pivot.  These
    are the distinct, increasing pivot rows :func:`express_in_echelon`
    expects.
    """
    cols: list[list[UniPoly]]


def _evaluate(cols: Sequence[Sequence[UniPoly]], X: Matrix, G: Matrix) -> list[list]:
    """sum_a col[a](X) G[:, a] for every column of ``cols`` at once.

    One power table serves all the columns: for each generator a, the
    vectors X^m g_a for m below the largest coefficient count in row a over
    the columns, by plain matvecs reduced mod p over F_p.  A column's value
    is then one dot product per row of its coefficients, each row zero
    padded to that count, with the transposed table; so the table covers
    any column degree, and no column costs a matrix pass.  Over Q the sums
    are exact ``int``/``Fraction`` values.
    """
    p = X.field.characteristic
    rows = X.row_lists()
    ge, r = G.entries, G.cols
    counts = [max((len(col[a].coeffs) for col in cols), default=0) for a in range(r)]
    table = []
    for a, k in enumerate(counts):
        v = ge[a::r]
        for m in range(k):
            table.append(v)
            if m + 1 < k:
                v = ([sum(map(mul, row, v)) % p for row in rows] if p
                     else [sum(map(mul, row, v)) for row in rows])
    t = list(zip(*table)) if table else [()] * X.rows
    out = []
    for col in cols:
        cvec = []
        for poly, k in zip(col, counts):
            cvec += poly.coeffs
            cvec += [0] * (k - len(poly.coeffs))
        out.append([sum(map(mul, cvec, ti)) % p for ti in t] if p
                   else [sum(map(mul, cvec, ti)) for ti in t])
    return out


def _krylov_relations(P: FramedModule) -> list[list[UniPoly]]:
    """The columns of the Hermite basis of K, j = 0, ..., r - 1.

    For j = r - 1 down to 0, X^l g_j for l = 0, 1, ... go into one echelon
    basis of k^d x k^(d+1), each with a unit tag in the next free slot: the
    s-th vector inserted owns slot s, and ``owner[s]`` = (i, m) says it was
    X^m g_i.  Every vector in the basis has k^d part sum tag_s X^m g_i over
    its slots, since reduction only subtracts such vectors.  When the k^d
    part of the candidate X^l g_j reduces to zero, at l = k_j <= d, its
    reduced tag is a relation X^l g_j - sum c_s X^m g_i = 0, and writing
    each tag at its owner's (i, m) gives the x^m coefficients of column j.

    These are the columns a fixed tag slot per (i, l) gives.  With either
    tagging, a reduced tag is nonzero only at the vectors inserted before
    the candidate and at the candidate itself, where it is 1.  The inserted
    vectors are independent in k^d, so X^(k_j) g_j has exactly one
    expression in them, and both taggings record that expression.  At most
    d vectors are inserted, so the basis has width 2d + 1 rather than
    d + r(d + 1).
    """
    f, d, r, X = P.field, P.d, P.r, P.X[0]
    span = EchelonBasis(f, 2 * d + 1)
    owner = []
    cols = []
    for j in range(r - 1, -1, -1):
        v = list(P.G.col(j))
        for l in range(d + 1):
            tagged = v + [f.zero()] * (d + 1)
            tagged[d + len(owner)] = f.one()
            w = span.reduce(tagged)
            if all(f.is_zero(c) for c in w[:d]):
                coeffs = [[f.zero()] * (d + 1) for _ in range(r)]
                for (i, m), c in zip(owner + [(j, l)], w[d:]):
                    coeffs[i][m] = c
                cols.append([UniPoly(f, cs) for cs in coeffs])
                break
            span.insert(w)
            owner.append((j, l))
            v = X.matvec(v)
    return cols[::-1]


def kernel_presentation(P: FramedModule) -> KernelPresentation:
    """Present K = ker(evaluation : k[x]^r -> M), n = 1 only, by its Hermite
    basis, read off the Krylov relations of the framing.

    Certificate: the columns pass a substitution check, all r evaluated at
    X from one power table (see :func:`_evaluate`), so they span some K' in
    K.  They are r lower triangular columns, so K' has colength deg det =
    sum k_j, which must equal the image dimension found by ``krylov_span``
    (= d when the framing generates), the colength of K; so K' = K.
    """
    if P.n != 1:
        raise ShapeError("kernel presentation is univariate only")
    f, r = P.field, P.r
    cols = _krylov_relations(P)
    for value in _evaluate(cols, P.X[0], P.G):
        if not all(f.is_zero(c) for c in value):
            raise ArithmeticError("kernel column fails substitution check")
    triangular = all(not col[j].is_zero() and all(e.is_zero() for e in col[:j])
                     for j, col in enumerate(cols))
    img_dim = len(_image_basis(P))
    colength = sum(col[j].degree for j, col in enumerate(cols))
    if len(cols) != r or not triangular or colength != img_dim:
        raise ArithmeticError(
            f"kernel generators give {len(cols)} echelon columns of pivot-degree sum {colength}; "
            f"K needs {r} lower triangular columns of colength {img_dim} (image dimension)")
    return KernelPresentation(cols=cols)


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
    return HomReport(dim=P.d * len(kernel_presentation(P).cols))


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
