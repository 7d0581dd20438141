"""Dense first-order rows and gauge vectors, as the tangent code built them
before it kept each row and gauge vector as a dict of its nonzero entries:
every row a list of ``nvars`` entries.  Kept as the references the sparse
builders must equal, nonzero entry for nonzero entry and in order."""

import itertools
from itertools import product
from operator import sub

from quotbilin.bilin import _layout
from quotbilin.modcore import kron_lifts


def reference_intertwiner_rows(A, B):
    """Rows of the operator M -> M A - B M on vec(M), row-major, one row per
    entry (k, c) of M A - B M in row-major order; raw field values."""
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


def reference_commutation_rows(X, base, nvars):
    """[Xdot_i, X_j] + [X_i, Xdot_j] = 0 for i < j, vec(Xdot_i) at base + i*d*d."""
    dd = X[0].rows ** 2
    ops = [reference_intertwiner_rows(x, x) for x in X]  # Xdot -> Xdot X - X Xdot
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


def reference_equivariance_rows(m1, m2, Z):
    """Rows of Pihat -> Pihat A_i - Z_i Pihat, A_i = X_i (x) 1, then 1 (x) Y_i."""
    rows = []
    for (xl, yl), z in zip(kron_lifts(m1.X, m2.X), Z):
        rows.extend(reference_intertwiner_rows(xl, z))
        rows.extend(reference_intertwiner_rows(yl, z))
    return rows


def reference_first_order_rows(b):
    """The first-order system at a pairing point: commutation for the three
    action families, then the linearised double equivariance."""
    offsets, nvars = _layout(b)
    d1, d2, d3 = b.m1.d, b.m2.d, b.d3
    dim = d1 * d2
    pe = b.pihat.entries
    rows = (reference_commutation_rows(b.m1.X, offsets["xdot"], nvars)
            + reference_commutation_rows(b.m2.X, offsets["ydot"], nvars)
            + reference_commutation_rows(b.Z, offsets["zdot"], nvars))
    p0 = offsets["pihatdot"]
    entries = product(range(b.n), ("x", "y"), range(d3), range(dim))
    for (i, side, k, c), op in zip(entries, reference_equivariance_rows(b.m1, b.m2, b.Z)):
        row = [0] * nvars
        row[p0:p0 + d3 * dim] = op
        p, q = divmod(c, d2)
        if side == "x":
            xb = offsets["xdot"] + i * d1 * d1
            for u in range(d1):
                row[xb + u * d1 + p] = pe[k * dim + u * d2 + q]
        else:
            yb = offsets["ydot"] + i * d2 * d2
            for u in range(d2):
                row[yb + u * d2 + q] = pe[k * dim + p * d2 + u]
        zb = offsets["zdot"] + i * d3 * d3
        for s in range(d3):
            row[zb + k * d3 + s] = -pe[s * dim + c]
        rows.append(row)
    return rows


def reference_unit_action(f, M, row=None, cols=()):
    """vec(E M - M E') for 0/1 matrices E = E_row and E' with 1s at ``cols``."""
    w, e, p = M.cols, M.entries, f.characteristic
    out = [f.zero()] * (M.rows * w)
    if row is not None:
        a, b = row
        out[a * w:(a + 1) * w] = e[b * w:(b + 1) * w]
    for c, c2 in cols:
        diff = map(sub, out[c2::w], e[c::w])
        out[c2::w] = [x % p for x in diff] if p else diff
    return out


def reference_family_gauge(f, X, a, b):
    return list(itertools.chain.from_iterable(
        reference_unit_action(f, x, (a, b), [(a, b)]) for x in X))


def reference_module_gauge(P, a, b):
    return reference_family_gauge(P.field, P.X, a, b) + reference_unit_action(P.field, P.G, (a, b))


def reference_dense_gauge_quot(P):
    """The closed-form Quot gauge as dense tuples, E_ab in (a, b) order."""
    return [tuple(reference_module_gauge(P, a, b)) for a in range(P.d) for b in range(P.d)]


def reference_dense_gauge_bilin(b):
    """The closed-form pairing gauge as dense tuples: Delta1, Delta2, Delta3."""
    f = b.field
    d1, d2, d3 = b.m1.d, b.m2.d, b.d3
    offsets, _ = _layout(b)
    y0, z0, p0 = offsets["ydot"], offsets["zdot"], offsets["pihatdot"]
    zero = [f.zero()]
    out = [tuple(reference_module_gauge(b.m1, a, c) + zero * (p0 - y0)
                 + reference_unit_action(f, b.pihat, cols=[(a * d2 + q, c * d2 + q)
                                                           for q in range(d2)]))
           for a in range(d1) for c in range(d1)]
    out += [tuple(zero * y0 + reference_module_gauge(b.m2, a, c) + zero * (p0 - z0)
                  + reference_unit_action(f, b.pihat, cols=[(p * d2 + a, p * d2 + c)
                                                            for p in range(d1)]))
            for a in range(d2) for c in range(d2)]
    out += [tuple(zero * z0 + reference_family_gauge(f, b.Z, a, c)
                  + reference_unit_action(f, b.pihat, (a, c)))
            for a in range(d3) for c in range(d3)]
    return out
