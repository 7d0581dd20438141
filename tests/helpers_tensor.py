"""Per-index tensor operations, as tensorlab built them before a tensor was
stored as its third flattening: every entry is read with ``get`` and every
output entry is assembled on its own.  Kept as the reference the
Matrix-backed operations must equal, with the Terracini rank as it was
taken before the rows became plain integers ranked modulo a prime."""

import random

from quotbilin.exactalg import Matrix, rand_nonzero_vector
from quotbilin.tensorlab import Tensor3, rank_one


def reference_flattening(t: Tensor3, factor: int) -> Matrix:
    """Rows are the complementary index pairs, columns the chosen factor."""
    d1, d2, d3 = t.dims
    f = t.field
    if factor == 1:
        ents = [t.get(i, j, k) for j in range(d2) for k in range(d3) for i in range(d1)]
        return Matrix(f, d2 * d3, d1, ents)
    if factor == 2:
        ents = [t.get(i, j, k) for i in range(d1) for k in range(d3) for j in range(d2)]
        return Matrix(f, d1 * d3, d2, ents)
    if factor == 3:
        ents = [t.get(i, j, k) for i in range(d1) for j in range(d2) for k in range(d3)]
        return Matrix(f, d1 * d2, d3, ents)
    raise ValueError("factor must be 1, 2 or 3")


def reference_slice3(t: Tensor3, k: int) -> Matrix:
    d1, d2, _ = t.dims
    return Matrix(t.field, d1, d2, [t.get(i, j, k) for i in range(d1) for j in range(d2)])


def reference_pencil_form(t: Tensor3):
    """(alpha, beta, gamma) of det(x*A + y*B) for the third-factor slices
    A = reference_slice3(t, 0) and B = reference_slice3(t, 1) of a 2x2x2
    tensor, read from the two slice matrices."""
    f = t.field
    a = reference_slice3(t, 0)
    b = reference_slice3(t, 1)
    alpha = f.sub(f.mul(a[0, 0], a[1, 1]), f.mul(a[0, 1], a[1, 0]))
    gamma = f.sub(f.mul(b[0, 0], b[1, 1]), f.mul(b[0, 1], b[1, 0]))
    beta = f.sub(
        f.add(f.mul(a[0, 0], b[1, 1]), f.mul(b[0, 0], a[1, 1])),
        f.add(f.mul(a[0, 1], b[1, 0]), f.mul(b[0, 1], a[1, 0])),
    )
    return alpha, beta, gamma


def reference_apply_gl(t: Tensor3, g1: Matrix, g2: Matrix, g3: Matrix) -> Tensor3:
    """Coefficient (i, j, k) is the sum of g1[i, a] g2[j, b] g3[k, c] t[a, b, c]."""
    d1, d2, d3 = t.dims
    f = t.field
    out = Tensor3.zeros(f, t.dims)
    for i in range(d1):
        for j in range(d2):
            for k in range(d3):
                acc = f.zero()
                for a in range(d1):
                    for b in range(d2):
                        for c in range(d3):
                            acc = f.add(acc, f.mul(f.mul(g1[i, a], g2[j, b]),
                                                   f.mul(g3[k, c], t.get(a, b, c))))
                out.coeffs[out.index(i, j, k)] = acc
    return out


def reference_pairing_tensor(b) -> Tensor3:
    """Coefficient (i, j, k) is entry (k, i*d2 + j) of the pairing lift."""
    d1, d2, d3 = b.m1.d, b.m2.d, b.d3
    t = Tensor3.zeros(b.field, (d1, d2, d3))
    for i in range(d1):
        for j in range(d2):
            for k in range(d3):
                t.coeffs[t.index(i, j, k)] = b.pihat[k, i * d2 + j]
    return t


def reference_secant_per_trial(d: int, r: int, trials: int, seed: int, field) -> list[int]:
    """``secant_dimension``'s per_trial as it was computed over ``Fraction``
    and field values: every tangent row a ``rank_one`` coefficient list,
    the stacked rows ranked by ``Matrix.rank``, the same sampling and the
    same stop at the first trial that reaches the bound."""
    rng = random.Random(seed)
    bound = min(d ** 3 - 1, r * (3 * (d - 1) + 1) - 1)

    def sample_point():
        if field.characteristic == 0:
            return [field.from_int(rng.randint(1, 9973)) for _ in range(d)]
        return rand_nonzero_vector(rng, field, d)

    per_trial = []
    for _ in range(trials):
        rows = []
        for _ in range(r):
            a, b, c = sample_point(), sample_point(), sample_point()
            eye = Matrix.identity(field, d)
            for i in range(d):
                rows.append(rank_one(field, list(eye.col(i)), b, c).coeffs)
                rows.append(rank_one(field, a, list(eye.col(i)), c).coeffs)
                rows.append(rank_one(field, a, b, list(eye.col(i))).coeffs)
        per_trial.append(Matrix.from_rows(field, rows).rank() - 1)
        if per_trial[-1] == bound:
            break
    return per_trial
