"""The k[x] kernel presentation and the deformed images as the library built
them before: a Euclidean column reduction of the pencil [G | X - x I] over
k[x]; the Krylov relations with one tag per (generator, power) pair; and
p(X) and its directional derivative formed as d x d matrices.  Kept as the
references the new code must match.  Column sets are plain lists of lists
of ``UniPoly``."""

from quotbilin.exactalg import EchelonBasis, Matrix, ShapeError, UniPoly, express_in_echelon
from quotbilin.quot import KernelPresentation, _image_basis


def reference_kernel_columns(cols, height, f):
    """A basis of {v : sum_j v_j cols[j] = 0}: reduce the columns row by row
    against the one of lowest degree, repeating every column operation on an
    identity transform; the transform columns whose columns hit zero."""
    n = len(cols)
    acols = [list(c) for c in cols]
    ucols = [[UniPoly.const(f, f.one()) if i == j else UniPoly.zero(f)
              for i in range(n)] for j in range(n)]
    frozen = 0
    for row in range(height):
        while True:
            active = [j for j in range(frozen, n) if not acols[j][row].is_zero()]
            if len(active) <= 1:
                break
            jstar = min(active, key=lambda j: acols[j][row].degree)
            piv = acols[jstar][row]
            for j in active:
                if j == jstar:
                    continue
                q, _ = acols[j][row].divmod(piv)
                if q.is_zero():
                    continue
                acols[j] = [acols[j][i] - q * acols[jstar][i] for i in range(height)]
                ucols[j] = [ucols[j][i] - q * ucols[jstar][i] for i in range(n)]
        active = [j for j in range(frozen, n) if not acols[j][row].is_zero()]
        if active:
            j = active[0]
            acols[frozen], acols[j] = acols[j], acols[frozen]
            ucols[frozen], ucols[j] = ucols[j], ucols[frozen]
            frozen += 1
    return ucols[frozen:]


def reference_column_echelon(cols, height):
    """Columns of the same k[x]-span with distinct, increasing first nonzero
    rows, zero columns dropped."""
    work = [c for c in (list(c) for c in cols) if any(not e.is_zero() for e in c)]
    frozen = 0
    for row in range(height):
        while True:
            active = [j for j in range(frozen, len(work)) if not work[j][row].is_zero()]
            if len(active) <= 1:
                break
            jstar = min(active, key=lambda j: work[j][row].degree)
            piv = work[jstar][row]
            for j in active:
                if j == jstar:
                    continue
                q, _ = work[j][row].divmod(piv)
                if q.is_zero():
                    continue
                work[j] = [work[j][i] - q * work[jstar][i] for i in range(height)]
        work = [c for c in work if any(not e.is_zero() for e in c)]
        active = [j for j in range(frozen, len(work)) if not work[j][row].is_zero()]
        if active:
            j = active[0]
            work[frozen], work[j] = work[j], work[frozen]
            frozen += 1
    return work


def same_span(a, b, height, field):
    """Exact k[x]-span equality: each column set lies in the other's span."""
    for cols, other in ((a, b), (b, a)):
        ech = reference_column_echelon(other, height)
        if any(express_in_echelon(ech, height, col, field) is None for col in cols):
            return False
    return True


def reference_kernel_presentation(P):
    """K = ker(k[x]^r -> M) as the projection to the first r coordinates of
    ker[G | X - x*I], in column echelon form certified by colength."""
    if P.n != 1:
        raise ShapeError("kernel presentation is univariate only")
    f = P.field
    d, r = P.d, P.r
    x = UniPoly.x(f)
    pencil = [[UniPoly.const(f, P.G[i, j]) for i in range(d)] for j in range(r)]
    pencil += [[UniPoly.const(f, P.X[0][i, j]) - (x if i == j else UniPoly.zero(f))
                for i in range(d)] for j in range(d)]
    cols = [col[:r] for col in reference_kernel_columns(pencil, d, f)]
    ech = reference_column_echelon(cols, r)
    img_dim = len(_image_basis(P))
    colength = sum(col[j].degree for j, col in enumerate(ech))
    if len(ech) != r or colength != img_dim:
        raise ArithmeticError(
            f"kernel generators give {len(ech)} echelon columns of pivot-degree sum "
            f"{colength}; K needs {r} columns of colength {img_dim} (image dimension)")
    return KernelPresentation(r=r, cols=ech)


def reference_krylov_relations(P):
    """The columns of the Hermite basis of K, j = 0, ..., r - 1, with a fixed
    tag slot per (i, l).

    For j = r - 1 down to 0, [X^l g_j | unit tag at (j, l)] for l = 0, 1, ...
    go into one echelon basis of k^d x k^(r(d+1)); every vector in it has k^d
    part sum tag_(i,m) X^m g_i.  When the k^d part reduces to zero, at
    l = k_j <= d, the reduced tag holds the x^m coefficients of column j.
    """
    f, d, r, X = P.field, P.d, P.r, P.X[0]
    width = d + 1
    span = EchelonBasis(f, d + r * width)
    cols = []
    for j in range(r - 1, -1, -1):
        v = list(P.G.col(j))
        for l in range(width):
            tagged = v + [f.zero()] * (r * width)
            tagged[d + j * width + l] = f.one()
            w = span.reduce(tagged)
            if all(f.is_zero(c) for c in w[:d]):
                cols.append([UniPoly(f, w[d + i * width:d + (i + 1) * width])
                             for i in range(r)])
                break
            span.insert(w)
            v = X.matvec(v)
    return cols[::-1]


def reference_power_sum(polys, X, G):
    """sum_m X^m G c_m, with c_m the vector of x^m coefficients of ``polys``,
    by matrix powers and products: the value quot._evaluate computes for one
    column."""
    f = X.field
    out = Matrix.zeros(f, X.rows, 1)
    power = Matrix.identity(f, X.rows)
    for m in range(max(p.degree for p in polys) + 1):
        c = Matrix(f, len(polys), 1, [p.coeff(m) for p in polys])
        out = out + power * G * c
        power = power * X
    return list(out.entries)


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
