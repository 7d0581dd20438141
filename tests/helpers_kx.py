"""The k[x] kernel presentation and the deformed images as the library built
them before the Krylov relations and the Horner pass: a column reduction of
the pencil [G | X - x I] over k[x], and p(X) and its directional derivative
formed as d x d matrices.  Kept as the references the new code must match."""

from quotbilin.exactalg import (
    Matrix,
    ShapeError,
    UniPoly,
    UniPolyMatrix,
    column_echelon,
    hermite_kernel,
)
from quotbilin.quot import KernelPresentation, _image_basis


def reference_kernel_presentation(P):
    """K = ker(k[x]^r -> M) as the projection to the first r coordinates of
    ker[G | X - x*I], with its column echelon certified by colength."""
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


def reference_poly_matrix_derivative(poly, X, Xdot):
    """Directional derivative of p(X) in direction Xdot:
    sum_m p_m sum_{u+v=m-1} X^u Xdot X^v."""
    f = X.field
    d = X.rows
    out = Matrix.zeros(f, d, d)
    powers = [Matrix.identity(f, d)]
    for _ in range(max(poly.degree, 0)):
        powers.append(powers[-1] * X)
    for m, c in enumerate(poly.coeffs):
        if f.is_zero(c) or m == 0:
            continue
        for u in range(m):
            out = out + (powers[u] * Xdot * powers[m - 1 - u]).scale(c)
    return out


def reference_deformed_image(gens_cols, X, G, Xdot, Gdot):
    """phi(kappa) = -(directional derivative of evaluation) applied to each
    generator column; returns d x s with column j the image of generator j."""
    f = X.field
    d = X.rows
    out_cols = []
    for col in gens_cols:
        acc = [f.zero()] * d
        for a, poly in enumerate(col):
            if poly.is_zero():
                continue
            pa = poly.eval_matrix(X)
            term = pa.matvec(list(Gdot.col(a)))
            dterm = reference_poly_matrix_derivative(poly, X, Xdot).matvec(list(G.col(a)))
            for i in range(d):
                acc[i] = f.add(acc[i], f.add(term[i], dterm[i]))
        out_cols.append([f.neg(v) for v in acc])
    ents = []
    for i in range(d):
        for c in out_cols:
            ents.append(c[i])
    return Matrix(f, d, len(out_cols), ents)
