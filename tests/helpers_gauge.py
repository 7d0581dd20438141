"""Dense-product gauge vectors, as the tangent code built them before the
closed forms: each unit matrix E_ab is formed and multiplied out.  Kept as
the reference the closed-form gauges must equal, vector for vector."""

from quotbilin.bilin import _layout
from quotbilin.exactalg import Matrix


def reference_gauge_vectors_quot(P):
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


def reference_gauge_vectors_bilin(b):
    """Simultaneous infinitesimal basis changes (Delta1, Delta2, Delta3)."""
    f = b.field
    n = b.n
    d1, d2, d3 = b.m1.d, b.m2.d, b.d3
    offsets, nvars = _layout(b)
    eye1 = Matrix.identity(f, d1)
    eye2 = Matrix.identity(f, d2)
    out = []

    def unit(d, a, bb):
        m = Matrix.zeros(f, d, d)
        m.entries[a * d + bb] = f.one()
        return m

    def pack(delta1, delta2, delta3):
        vec = [f.zero()] * nvars

        def put(name, mat, block, dsize):
            base = offsets[name] + block * dsize * dsize if name in ("xdot", "ydot", "zdot") else offsets[name]
            for idx, val in enumerate(mat.entries):
                vec[base + idx] = val

        for i in range(n):
            put("xdot", delta1 * b.m1.X[i] - b.m1.X[i] * delta1, i, d1)
            put("ydot", delta2 * b.m2.X[i] - b.m2.X[i] * delta2, i, d2)
            put("zdot", delta3 * b.Z[i] - b.Z[i] * delta3, i, d3)
        put("gdot", delta1 * b.m1.G, 0, 0)
        put("hdot", delta2 * b.m2.G, 0, 0)
        pihd = delta3 * b.pihat - b.pihat * (delta1.kron(eye2) + eye1.kron(delta2))
        put("pihatdot", pihd, 0, 0)
        return tuple(vec)

    z1 = Matrix.zeros(f, d1, d1)
    z2 = Matrix.zeros(f, d2, d2)
    z3 = Matrix.zeros(f, d3, d3)
    for a in range(d1):
        for bb in range(d1):
            out.append(pack(unit(d1, a, bb), z2, z3))
    for a in range(d2):
        for bb in range(d2):
            out.append(pack(z1, unit(d2, a, bb), z3))
    for a in range(d3):
        for bb in range(d3):
            out.append(pack(z1, z2, unit(d3, a, bb)))
    return out
