"""The k[x] kernel presentation, its evaluation and the deformed images as
the library built them before: a Euclidean column reduction of the pencil
[G | X - x I] over k[x]; the Krylov relations with one tag per (generator,
power) pair; evaluation of ``UniPoly`` columns by padding their coefficients
against one power table, and the Hom-triple check on it; and p(X) and its
directional derivative formed as d x d matrices.  Kept as the references the
new code must match.  Column sets are plain lists of lists of ``UniPoly``.
Also the layout helpers that write such columns as
:class:`quotbilin.quot.KernelPresentation` tags."""

from quotbilin.exactalg import EchelonBasis, Matrix, ShapeError, UniPoly, express_in_echelon
from quotbilin.exactalg.matrix import _dots
from quotbilin.quot import _image_basis, kernel_presentation


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


def hermite_form(ech, f):
    """The Hermite form of r lower triangular columns with nonzero diagonal:
    monic pivots, and each entry below a pivot reduced modulo that pivot by
    subtracting a multiple of its column, last column first."""
    out = {}
    for j in range(len(ech) - 1, -1, -1):
        col = [e.scale(f.inv(ech[j][j].lead())) for e in ech[j]]
        for i in range(j + 1, len(col)):
            q, _ = col[i].divmod(out[i][i])
            col = [a - q * b for a, b in zip(col, out[i])]
        out[j] = col
    return [out[j] for j in range(len(ech))]


def reference_kernel_presentation(P):
    """K = ker(k[x]^r -> M) as the projection to the first r coordinates of
    ker[G | X - x*I], in column echelon form certified by colength, and
    returned as its Hermite columns (see :func:`hermite_form`)."""
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
    return hermite_form(ech, f)


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
            pa = Matrix.zeros(f, d, d)  # poly(X) by Horner's rule
            for c in reversed(poly.coeffs):
                pa = pa * X
                for i in range(d):
                    pa.entries[i * d + i] = f.add(pa.entries[i * d + i], c)
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


def krylov_vectors(X, G, counts):
    """powers[a] = [X^m g_a for m < counts[a]], by matvecs."""
    p, rows, out = X.field.characteristic, X.row_lists(), []
    for a, k in enumerate(counts):
        vs = [list(G.col(a))][:k]
        while len(vs) < k:
            vs.append(_dots(rows, vs[-1], p))
        out.append(vs)
    return out


def lay_out(cols, counts, f):
    """The tags of ``UniPoly`` columns in the layout of KernelPresentation:
    row a's coefficients padded to counts[a], which must reach its longest
    entry."""
    tags = []
    for col in cols:
        tag = []
        for poly, k in zip(col, counts):
            assert len(poly.coeffs) <= k
            tag += list(poly.coeffs) + [f.zero()] * (k - len(poly.coeffs))
        tags.append(tag)
    return tags


def row_counts(cols, r):
    """For each row a, the largest coefficient count of a row-a entry over ``cols``."""
    return [max((len(col[a].coeffs) for col in cols), default=0) for a in range(r)]


def reference_combine(cols, tables, n, p):
    """sum_a sum_m col[a]_m tables[a][m] for every column, tables[a] holding
    row_counts vectors of length n: n dot products with the coefficients,
    each row's padded to its table."""
    t = list(zip(*[v for table in tables for v in table])) or [()] * n
    out = []
    for col in cols:
        cvec = []
        for poly, table in zip(col, tables):
            cvec += poly.coeffs
            cvec += [0] * (len(table) - len(poly.coeffs))
        out.append(_dots(t, cvec, p))
    return out


def reference_evaluate(cols, X, G):
    """sum_a col[a](X) G[:, a] for every column of ``cols`` at once, from one
    power table X^m g_a, m below the largest coefficient count in row a."""
    p = X.field.characteristic
    tables = krylov_vectors(X, G, row_counts(cols, G.cols))
    return reference_combine(cols, tables, X.rows, p)


def reference_hom_triple_check(b, triple):
    """hom_triple_check on ``UniPoly`` columns: each member of K3 written in
    K3's basis by the echelon division alone, and its image under phi3
    evaluated by :func:`reference_evaluate`."""
    f, r1, r2 = b.field, b.m1.r, b.m2.r
    height, zero = r1 * r2, UniPoly.zero(f)
    members = []
    for kappa in kernel_presentation(b.m1).cols:
        for bb in range(r2):
            members.append([kappa[i // r2] if i % r2 == bb else zero for i in range(height)])
    for kappa in kernel_presentation(b.m2).cols:
        for a in range(r1):
            members.append([kappa[i % r2] if i // r2 == a else zero for i in range(height)])
    cols3 = kernel_presentation(b.target_module()).cols
    coeffs = [express_in_echelon(cols3, height, m, f) for m in members]
    if any(c is None for c in coeffs):
        return False
    side1 = b.pihat * triple.phi1.kron(b.m2.G)
    side2 = b.pihat * b.m1.G.kron(triple.phi2)
    sides = ([list(side1.col(j * r2 + bb)) for j in range(r1) for bb in range(r2)]
             + [list(side2.col(a * r2 + j)) for j in range(r2) for a in range(r1)])
    images = reference_evaluate(coeffs, b.Z[0], triple.phi3)
    return all(all(f.eq(x, y) for x, y in zip(image, side))
               for image, side in zip(images, sides))
