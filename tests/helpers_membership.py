"""Shared generator of random membership targets for pairing tests, and the
per-target elimination ``MembershipSystem`` must match."""

from quotbilin.exactalg import Matrix, quotient_map, same_field, solve_with_rank
from quotbilin.modcore import rand_framed_module, tensor_over_S
from quotbilin.bilin import BilinPoint
from quotbilin.cases222 import _invariant_subspaces


def assemble_from_kernel(m1, m2, kernel_basis):
    field = m1.field
    prod = tensor_over_S(m1, m2)
    qmap, section = quotient_map(kernel_basis, field, prod.dim12)
    Z = tuple(qmap * a * section for a in prod.actions)
    return BilinPoint(m1=m1, m2=m2, d3=qmap.rows, Z=Z, pihat=qmap * prod.q)


def random_target(rng, m1, m2):
    """Half genuine quotients of the tensor product, half arbitrary valid
    rank-4 framed modules (which mostly fail to factor).

    A genuine quotient of the drawn dimension need not exist (the tensor
    product may have no invariant subspace of that codimension); the
    arbitrary branch is used then."""
    field = m1.field
    prod = tensor_over_S(m1, m2)
    if rng.random() < 0.5 and prod.dim12 >= 1:
        want = rng.randint(1, prod.dim12)
        cut = prod.dim12 - want
        subs = _invariant_subspaces(prod.actions, prod.dim12, cut, field)
        if subs:
            basis = subs[rng.randrange(len(subs))]
            return assemble_from_kernel(m1, m2, basis).target_module()
    return rand_framed_module(rng, field, 1, 2, 4)


def reference_membership(m1, m2, m3framed):
    """Build [A | b] for one target and solve it; returns
    (found, reason, solution_dim, pihat entries or None)."""
    f = same_field(m1.field, m2.field, m3framed.field)
    d1, d2, d3 = m1.d, m2.d, m3framed.d
    dim = d1 * d2
    nvars = d3 * dim
    rows = []
    rhs = []
    for a in range(m1.r):
        ga = m1.G.col(a)
        for bcol in range(m2.r):
            hb = m2.G.col(bcol)
            w = [f.zero()] * dim
            for i in range(d1):
                if f.is_zero(ga[i]):
                    continue
                for j in range(d2):
                    w[i * d2 + j] = f.mul(ga[i], hb[j])
            target_col = m3framed.G.col(a * m2.r + bcol)
            for k in range(d3):
                row = [f.zero()] * nvars
                for c in range(dim):
                    row[k * dim + c] = w[c]
                rows.append(row)
                rhs.append(target_col[k])
    eye1 = Matrix.identity(f, d1)
    eye2 = Matrix.identity(f, d2)
    for i in range(m1.n):
        for mat in (m1.X[i].kron(eye2), eye1.kron(m2.X[i])):
            z = m3framed.X[i]
            for k in range(d3):
                for c in range(dim):
                    row = [f.zero()] * nvars
                    for s in range(dim):
                        row[k * dim + s] = f.add(row[k * dim + s], mat[s, c])
                    for s in range(d3):
                        row[s * dim + c] = f.sub(row[s * dim + c], z[k, s])
                    rows.append(row)
                    rhs.append(f.zero())
    x, rank = solve_with_rank(Matrix.from_rows(f, rows), Matrix.column(f, rhs))
    if x is None:
        return False, "no pairing lift: target does not factor", None, None
    return True, None, nvars - rank, list(x.entries)
