"""Points of the Quot moduli of framed modules: tangent spaces and families.

The tangent space at a framed module is computed on the deformation side: the
nullity of the first-order commutation system in (Xdot, Gdot) minus the d^2
gauge directions coming from infinitesimal basis changes.  A univariate
oracle recomputes the same dimension as module homomorphisms out of the
kernel presentation, by entirely different linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exactalg import (
    GF,
    EchelonBasis,
    InfeasibleEnumeration,
    LinearSystem,
    Matrix,
    ParamMatrix,
    ShapeError,
    UniPoly,
    UniPolyMatrix,
    column_echelon,
    gaussian_binomial,
    hermite_kernel,
    roots_with_multiplicity,
    char_poly,
)
from .modcore import FramedModule, InvalidPoint, validate_framed


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


def _add_commutation_rows(sys: LinearSystem, X: tuple[Matrix, ...],
                          offsets: list[int], d: int):
    """First-order commutation rows: perturbing X_i, X_j must keep them
    commuting to order one.  Unknown layout: vec(Xdot_i) at offsets[i]."""
    f = sys.field
    n = len(X)
    for i in range(n):
        for j in range(i + 1, n):
            # Xdot_i X_j + X_i Xdot_j - Xdot_j X_i - X_j Xdot_i = 0
            for p in range(d):
                for q in range(d):
                    row = sys.new_row()
                    for s in range(d):
                        # (Xdot_i X_j)[p,q] += Xdot_i[p,s] X_j[s,q]
                        sys.add_to_row(row, offsets[i] + p * d + s, X[j][s, q])
                        # (X_i Xdot_j)[p,q] += X_i[p,s] Xdot_j[s,q]
                        sys.add_to_row(row, offsets[j] + s * d + q, X[i][p, s])
                        # -(Xdot_j X_i)[p,q]
                        sys.add_to_row(row, offsets[j] + p * d + s, f.neg(X[i][s, q]))
                        # -(X_j Xdot_i)[p,q]
                        sys.add_to_row(row, offsets[i] + s * d + q, f.neg(X[j][p, s]))


def _gauge_vectors_quot(P: FramedModule) -> list[tuple]:
    """Images of the trivial deformations Delta -> (([Delta, X_i]), Delta G)."""
    f = P.field
    d, r, n = P.d, P.r, P.n
    nvars = n * d * d + d * r
    out = []
    for a in range(d):
        for b in range(d):
            delta = Matrix.zeros(f, d, d)
            delta.entries[a * d + b] = f.one()
            vec = []
            for i in range(n):
                comm = delta * P.X[i] - P.X[i] * delta
                vec.extend(comm.entries)
            vec.extend((delta * P.G).entries)
            if len(vec) != nvars:
                raise ArithmeticError(
                    f"gauge vector has {len(vec)} entries, the system has {nvars} unknowns")
            out.append(tuple(vec))
    return out


def _basis_mod_subspace(kernel: list[tuple], subspace: list[tuple], field,
                        dim: int) -> list[tuple]:
    """Representatives extending the subspace to the full kernel span.

    Greedy in kernel order: a kernel vector is kept exactly when it is
    independent of the subspace and of the vectors kept before it.
    """
    span = EchelonBasis(field, dim, subspace)
    return [v for v in kernel if span.insert(v)]


def quot_tangent(P: FramedModule, check: bool = False) -> QuotTangentReport:
    """Tangent dimension and basis representatives at a framed module.

    dim = nullity(first-order commutation system) - d^2; the subtraction is
    exact because the gauge map is injective at framed points (the framing
    generates).  With ``check`` the gauge rank is verified explicitly.
    """
    if not validate_framed(P).ok:
        raise InvalidPoint("invalid framed module")
    f = P.field
    d, r, n = P.d, P.r, P.n
    nvars = n * d * d + d * r
    offsets = [i * d * d for i in range(n)]
    sys = LinearSystem(f, nvars)
    _add_commutation_rows(sys, P.X, offsets, d)
    kernel = sys.kernel_basis()
    nullity = len(kernel)
    gauge = _gauge_vectors_quot(P)
    gauge_dim = d * d
    if check:
        actual = Matrix.from_rows(f, [list(v) for v in gauge]).rank() if gauge else 0
        if actual != gauge_dim:
            raise ArithmeticError(f"gauge map rank {actual} != {gauge_dim}")
        m = sys.matrix()
        for v in gauge:
            if not all(f.is_zero(c) for c in m.matvec(list(v))):
                raise ArithmeticError("gauge vector violates the deformation system")
    reps = _basis_mod_subspace(kernel, gauge, f, nvars)
    basis = []
    for v in reps:
        xdot = tuple(Matrix(f, d, d, list(v[offsets[i]: offsets[i] + d * d]))
                     for i in range(n))
        gdot = Matrix(f, d, r, list(v[n * d * d:]))
        basis.append(QuotTangentVector(xdot=xdot, gdot=gdot))
    return QuotTangentReport(dim=nullity - gauge_dim, nullity=nullity,
                             gauge_dim=gauge_dim, basis=basis)


# -- univariate kernel presentation and Hom oracle ---------------------------

@dataclass
class KernelPresentation:
    """Generators of ker(k[x]^r -> M) for a univariate framed module.

    ``gens`` holds generating columns in k[x]^r; ``echelon`` is a reduced
    column-echelon basis of the same span used for membership solves.
    """
    r: int
    gens: UniPolyMatrix
    echelon: list[list[UniPoly]]


def kernel_presentation(P: FramedModule) -> KernelPresentation:
    """Present K = ker(evaluation : k[x]^r -> M), n = 1 only.

    Uses the free presentation of M by x*I - X: K is the projection to the
    first r coordinates of ker[G | X - x*I], computed by column reduction
    over k[x].  The generators pass a substitution check, so they span some
    K' inside K.  K has colength dim(image of the evaluation map) (= d when
    the framing generates) and is free of rank r, since k[x] is a PID.  The
    echelon of K' is certified to have r columns, hence to be lower
    triangular, with colength deg det = the sum of its diagonal degrees
    equal to that image dimension; a submodule of equal finite colength is
    K itself.
    """
    if P.n != 1:
        raise ShapeError("kernel presentation is univariate only")
    f = P.field
    d, r = P.d, P.r
    x = UniPoly.x(f)
    ents = []
    for i in range(d):
        for j in range(r):
            ents.append(UniPoly.const(f, P.G[i, j]))
        for j in range(d):
            e = UniPoly.const(f, P.X[0][i, j])
            if i == j:
                e = e - x
            ents.append(e)
    big = UniPolyMatrix(f, d, r + d, ents)
    ker = hermite_kernel(big)
    cols = [col[:r] for col in ker.columns()]
    cols = [c for c in cols if any(not e.is_zero() for e in c)]
    gens = UniPolyMatrix.from_columns(f, r, cols)
    ech = column_echelon(cols, r, f)
    img_dim = len(_image_basis(P))
    colength = sum(col[j].degree for j, col in enumerate(ech))
    if len(ech) != r or colength != img_dim:
        raise ArithmeticError(
            f"kernel generators give {len(ech)} echelon columns of pivot-degree sum "
            f"{colength}; K needs {r} columns of colength {img_dim} (image dimension)")
    return KernelPresentation(r=r, gens=gens, echelon=ech)


def _image_basis(P: FramedModule) -> list[tuple]:
    from .modcore import krylov_span
    cols = [P.G.col(j) for j in range(P.r)]
    return krylov_span(P.X, cols, P.field, P.d)


@dataclass
class HomReport:
    dim: int
    gens: UniPolyMatrix
    basis: list[Matrix]  # each d x s: column j = image of generator j


def hom_KM_univariate(P: FramedModule) -> HomReport:
    """dim Hom_{k[x]}(K, M) with K the kernel presentation of P, n = 1.

    A homomorphism is an assignment of images in M to the kernel generators,
    constrained by every syzygy among the generators; syzygies are computed
    by a second k[x]-kernel.  This is the direct oracle for quot_tangent.
    """
    if P.n != 1:
        raise ShapeError("oracle is univariate only")
    f = P.field
    d = P.d
    pres = kernel_presentation(P)
    s = pres.gens.cols
    if s == 0:
        return HomReport(dim=0, gens=pres.gens, basis=[])
    syz = hermite_kernel(pres.gens)
    sys = LinearSystem(f, d * s)
    X = P.X[0]
    for col in syz.columns():
        # sum_j col_j(X) . m_j = 0, one block of d rows per syzygy
        coeff_mats = [c.eval_matrix(X) for c in col]
        for p in range(d):
            row = sys.new_row()
            for j in range(s):
                for qcol in range(d):
                    sys.add_to_row(row, j * d + qcol, coeff_mats[j][p, qcol])
    kernel = sys.kernel_basis()
    basis = []
    for v in kernel:
        m = Matrix.zeros(f, d, s)
        for j in range(s):
            for i in range(d):
                m.entries[i * s + j] = v[j * d + i]
        basis.append(m)
    return HomReport(dim=len(kernel), gens=pres.gens, basis=basis)


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
    entries = [0] * (d * r)
    while True:
        m = Matrix(field, d, r, list(entries))
        rref, piv = m.rref()
        if len(piv) == d:
            seen.add(tuple(rref.entries))
        # odometer increment
        k = 0
        while k < d * r:
            entries[k] += 1
            if entries[k] < q:
                break
            entries[k] = 0
            k += 1
        if k == d * r:
            break
    return GrassmannianCheck(d=d, r=r, q=q, enumerated=len(seen),
                             formula=gaussian_binomial(d, r, q))


# -- the two-point limit families --------------------------------------------

@dataclass
class QuotLimitFamily:
    """A one-parameter family (X(t), G(t)) degenerating to a base point.

    Evaluation at 0 recovers the base point exactly; at all but finitely many
    t != 0 the fiber is a valid module supported at two distinct points.
    """
    branch: str  # "distinct" | "semisimple" | "nilpotent"
    xparams: tuple[ParamMatrix, ...]
    gparam: ParamMatrix

    def evaluate(self, t0) -> FramedModule:
        X = tuple(p.evaluate(t0) for p in self.xparams)
        G = self.gparam.evaluate(t0)
        return FramedModule(n=len(X), d=X[0].rows, r=G.cols, X=X, G=G)


class NonSplitSupport(ValueError):
    """Support analysis needs eigenvalues outside the computation field."""


def _eigen_split_2x2(x: Matrix):
    """Roots of the degree-2 characteristic polynomial, or None if nonsplit."""
    cp = char_poly(x)
    roots, cofactor = roots_with_multiplicity(cp)
    if cofactor.degree > 0:
        return None
    out = []
    for v, m in roots:
        out.extend([v] * m)
    return out


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

    eigdata = []
    for x in P.X:
        ev = _eigen_split_2x2(x)
        if ev is None:
            raise NonSplitSupport("characteristic polynomial does not split")
        eigdata.append(ev)

    # Distinct support: some action has two distinct eigenvalues.
    for i, ev in enumerate(eigdata):
        if not f.eq(ev[0], ev[1]):
            return QuotLimitFamily(
                branch="distinct",
                xparams=tuple(ParamMatrix.constant(x) for x in P.X),
                gparam=ParamMatrix.constant(P.G),
            )

    # Single support point c = (c_1..c_n); N_i = X_i - c_i nilpotent.
    c = [ev[0] for ev in eigdata]
    N = [P.X[i] - eye.scale(c[i]) for i in range(n)]
    if all(m.is_zero() for m in N):
        # Semisimple: X_i = c_i I.  Shift one summand by t along x_1.
        e_t = Matrix.zeros(f, 2, 2)
        e_t.entries[3] = f.one()  # diag(0, 1)
        xparams = []
        for i in range(n):
            linear = e_t if i == 0 else Matrix.zeros(f, 2, 2)
            xparams.append(ParamMatrix.affine(P.X[i], linear))
        return QuotLimitFamily(branch="semisimple", xparams=tuple(xparams),
                               gparam=ParamMatrix.constant(P.G))

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
    bump = Matrix.zeros(f, 2, 2)
    bump.entries[3] = f.one()  # diag(0,1) in basis (u, v)
    xparams = []
    for i in range(n):
        linear = B * bump.scale(coeffs[i]) * Binv
        xparams.append(ParamMatrix.affine(P.X[i], linear))
    return QuotLimitFamily(branch="nilpotent", xparams=tuple(xparams),
                           gparam=ParamMatrix.constant(P.G))
