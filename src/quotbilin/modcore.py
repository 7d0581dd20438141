"""Framed modules: commuting action matrices plus a generator framing.

A finite-dimensional module over k[x_1..x_n] is n commuting d x d matrices;
the framing is a d x r matrix whose columns are the images of the free
generators e_1..e_r, so the module is a quotient of the rank-r free module
exactly when the framing columns generate under the action (Krylov closure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .exactalg import (
    EchelonBasis,
    Field,
    Matrix,
    ShapeError,
    UniPoly,
    char_poly,
    json_int,
    matrix_from_json,
    matrix_to_json,
    quotient_map,
    rand_matrix,
    roots_with_multiplicity,
    same_field,
)


class InvalidPoint(ValueError):
    """A framed module or pairing point fails validation."""


@dataclass(frozen=True)
class FramedModule:
    n: int
    d: int
    r: int
    X: tuple[Matrix, ...]
    G: Matrix

    def __post_init__(self):
        if self.n < 1 or self.d < 0 or self.r < 1:
            raise ShapeError("need n >= 1, d >= 0, r >= 1")
        if len(self.X) != self.n:
            raise ShapeError(f"expected {self.n} action matrices, got {len(self.X)}")
        for x in self.X:
            if (x.rows, x.cols) != (self.d, self.d):
                raise ShapeError("action matrix shape mismatch")
        if (self.G.rows, self.G.cols) != (self.d, self.r):
            raise ShapeError("framing shape mismatch")
        same_field(*(m.field for m in (*self.X, self.G)))

    @property
    def field(self) -> Field:
        return self.G.field

    def __eq__(self, other):
        if not isinstance(other, FramedModule):
            return NotImplemented
        return self.field == other.field and self.X == other.X and self.G == other.G

    def __hash__(self):
        return hash((self.X, self.G))


@dataclass
class FramedValidation:
    ok: bool
    commutes: bool
    generates: bool
    commutator_witness: Optional[tuple[int, int]] = None
    invariant_subspace: Optional[list[tuple]] = None

    def __bool__(self):
        return self.ok


def krylov_span(X: Sequence[Matrix], vectors: Sequence[Sequence], field: Field,
                d: int) -> list[tuple]:
    """Basis of the smallest X-invariant subspace containing the vectors.

    Multiplies by each action matrix until the dimension stabilizes (at
    most d rounds, since it strictly grows) or the span is all of k^d.  In
    each round an action multiplies only the basis vectors added since its
    previous pass: its images of older vectors were offered already and lie
    in the span, so skipping them changes no insert, and the basis is the
    one of multiplying the whole basis every round.  On k[x]/(x^d) that is
    d - 1 products instead of d(d - 1)/2.
    """
    basis: list[tuple] = []
    span = EchelonBasis(field, d)

    def candidates():
        yield from vectors
        done = [0] * len(X)
        grown = True
        while grown:
            size = len(basis)
            for a, x in enumerate(X):
                start, done[a] = done[a], len(basis)
                for v in basis[start:done[a]]:
                    yield x.matvec(list(v))
            grown = len(basis) > size

    for w in candidates():
        if span.insert(w):
            basis.append(tuple(w))
            if len(basis) == d:
                break
    return basis


def validate_framed(m: FramedModule) -> FramedValidation:
    """Check pairwise commutation and framing generation, with witnesses."""
    field = m.field
    commutes = True
    witness = None
    for i in range(m.n):
        for j in range(i + 1, m.n):
            if m.X[i] * m.X[j] != m.X[j] * m.X[i]:
                commutes = False
                witness = (i, j)
                break
        if not commutes:
            break
    cols = [m.G.col(j) for j in range(m.r)]
    basis = krylov_span(m.X, cols, field, m.d)
    generates = len(basis) == m.d
    return FramedValidation(
        ok=commutes and generates,
        commutes=commutes,
        generates=generates,
        commutator_witness=witness,
        invariant_subspace=None if generates else basis,
    )


@dataclass
class TensorProductResult:
    """The module M1 (x)_S M2 presented as a quotient of k^(d1*d2).

    ``q`` is the full-row-rank surjection onto the quotient, ``section`` a
    right inverse of it, and ``actions`` the induced commuting action on the
    quotient (computed from the first factor; equivariance makes the second
    factor act identically).  ``lifts`` holds kron_lifts(X, Y) of the two
    modules' actions, from which the relations were built.
    """
    dim12: int
    q: Matrix
    section: Matrix
    actions: tuple[Matrix, ...]
    lifts: tuple[tuple[Matrix, Matrix], ...]


def kron_lifts(X: Sequence[Matrix], Y: Sequence[Matrix]) -> tuple[tuple[Matrix, Matrix], ...]:
    """The pairs (X_i (x) 1, 1 (x) Y_i): how X_i (d1 x d1) and Y_i (d2 x d2)
    act on k^(d1*d2) = k^d1 (x) k^d2, for i = 1..n (n >= 1)."""
    field = X[0].field
    eye1 = Matrix.identity(field, X[0].rows)
    eye2 = Matrix.identity(field, Y[0].rows)
    return tuple((x.kron(eye2), eye1.kron(y)) for x, y in zip(X, Y))


def tensor_over_S(m1: FramedModule, m2: FramedModule) -> TensorProductResult:
    """Tensor product of framed modules over the polynomial ring.

    Computed as the cokernel of sum_i Im(X_i (x) 1 - 1 (x) Y_i) inside
    k^(d1*d2).
    """
    if m1.n != m2.n:
        raise ShapeError("variable count mismatch")
    field = same_field(m1.field, m2.field)
    dim = m1.d * m2.d
    lifts = kron_lifts(m1.X, m2.X)
    span_vectors = []
    for xl, yl in lifts:
        rel = xl - yl
        for j in range(dim):
            col = rel.col(j)
            if not all(field.is_zero(c) for c in col):
                span_vectors.append(col)
    q, section = quotient_map(span_vectors, field, dim)
    actions = tuple(q * xl * section for xl, _ in lifts)
    return TensorProductResult(dim12=q.rows, q=q, section=section, actions=actions, lifts=lifts)


def annihilator_algebra_dim(m: FramedModule) -> int:
    """Dimension of the unital matrix algebra generated by the actions."""
    return _algebra_dim(m.X)


def _algebra_dim(actions: tuple[Matrix, ...]) -> int:
    """annihilator_algebra_dim of any module with these (n >= 1) actions.

    The algebra is the smallest subspace of d x d matrices that holds I and
    is closed under B -> X_i B; on row-major vec(B) that map is X_i (x) I.
    """
    field = actions[0].field
    d = actions[0].rows
    eye = Matrix.identity(field, d)
    return len(krylov_span(tuple(x.kron(eye) for x in actions), [eye.entries], field, d * d))


@dataclass
class SupportReport:
    """Multiset of action eigenvalues for a univariate module.

    ``points`` lists (eigenvalue, multiplicity); ``split`` is False when the
    characteristic polynomial has an irreducible factor over the computation
    field, in which case the listed points are incomplete.
    """
    split: bool
    points: tuple[tuple[object, int], ...]

    def values(self) -> list:
        out = []
        for v, m in self.points:
            out.extend([v] * m)
        return out


def support_univariate(m: FramedModule) -> SupportReport:
    if m.n != 1:
        raise ShapeError("support computation is univariate only")
    return _support(m.X[0])


def _support(X: Matrix) -> SupportReport:
    """support_univariate of any module with the single action X."""
    cp = char_poly(X)
    roots, cofactor = roots_with_multiplicity(cp)
    split = cofactor.degree <= 0
    return SupportReport(split=split, points=tuple(roots))


def make_tuple_of_points(points: Sequence, G: Matrix) -> FramedModule:
    """Framed module supported on d distinct points with diagonal actions.

    ``points`` is a sequence of n-tuples of field values (bare values allowed
    when n = 1); the framing G must generate, which for distinct points means
    every row of G is nonzero.
    """
    field = G.field
    norm = []
    for p in points:
        if isinstance(p, (list, tuple)):
            norm.append(tuple(p))
        else:
            norm.append((p,))
    n = len(norm[0])
    if any(len(p) != n for p in norm):
        raise ShapeError("inconsistent point dimensions")
    d = len(norm)
    for i in range(d):
        for j in range(i + 1, d):
            if all(field.eq(a, b) for a, b in zip(norm[i], norm[j])):
                raise ValueError(f"duplicate points at positions {i}, {j}")
    X = tuple(Matrix.diag(field, [p[i] for p in norm]) for i in range(n))
    mod = FramedModule(n=n, d=d, r=G.cols, X=X, G=G)
    report = validate_framed(mod)
    if not report.ok:
        raise ValueError("framing does not generate the tuple-of-points module")
    return mod


def cyclic_tuple_module(points: Sequence, field: Field) -> FramedModule:
    """Cyclic tuple-of-points module: r = 1, all-ones framing."""
    d = len(points)
    G = Matrix(field, d, 1, [field.one()] * d)
    return make_tuple_of_points(points, G)


def make_degenerate(d: int, r: int, A: Matrix, n: int = 1) -> FramedModule:
    """Totally degenerate module at the origin: zero actions, framing A.

    Requires rank A = d (hence r >= d); the module is d copies of the residue
    field at the origin.
    """
    field = A.field
    if (A.rows, A.cols) != (d, r):
        raise ShapeError("framing shape mismatch")
    if A.rank() != d:
        raise ValueError(f"framing rank {A.rank()} < {d}: not surjective")
    X = tuple(Matrix.zeros(field, d, d) for _ in range(n))
    return FramedModule(n=n, d=d, r=r, X=X, G=A)


def cyclic_module_univariate(f: UniPoly, r: int = 1) -> FramedModule:
    """The module k[x]/(f) with companion-matrix action, framed by 1, 0, ...

    Extra framing columns beyond the first are zero; the first column is the
    cyclic generator 1 in the monomial basis.
    """
    field = f.field
    fm = f.monic()
    d = fm.degree
    if d < 1:
        raise ValueError("need deg f >= 1")
    comp = Matrix.zeros(field, d, d)
    for i in range(1, d):
        comp.entries[i * d + (i - 1)] = field.one()
    for i in range(d):
        comp.entries[i * d + (d - 1)] = field.neg(fm.coeff(i))
    G = Matrix.zeros(field, d, r)
    G.entries[0] = field.one()
    return FramedModule(n=1, d=d, r=r, X=(comp,), G=G)


def gauge_transform(m: FramedModule, g: Matrix) -> FramedModule:
    """Change of basis of the underlying space: (X, G) -> (g X g^-1, g G)."""
    ginv = g.inverse()
    return FramedModule(n=m.n, d=m.d, r=m.r,
                        X=tuple(g * x * ginv for x in m.X),
                        G=g * m.G)


def rand_framed_module(rng: random.Random, field: Field, n: int, d: int, r: int,
                       max_tries: int = 200) -> FramedModule:
    """Random valid framed module; univariate needs no commutation search."""
    for _ in range(max_tries):
        if n == 1:
            X = (rand_matrix(rng, field, d, d),)
        else:
            # Commuting tuples: polynomials in one random matrix plus scalars.
            base = rand_matrix(rng, field, d, d)
            X = []
            for _ in range(n):
                a, b = field.sample(rng), field.sample(rng)
                X.append(base.scale(a) + Matrix.identity(field, d).scale(b))
            X = tuple(X)
        G = rand_matrix(rng, field, d, r)
        mod = FramedModule(n=n, d=d, r=r, X=X, G=G)
        if validate_framed(mod).ok:
            return mod
    raise RuntimeError("failed to sample a valid framed module")


# -- JSON --------------------------------------------------------------------

def framed_to_json(m: FramedModule) -> dict:
    return {
        "n": m.n,
        "d": m.d,
        "r": m.r,
        "X": [matrix_to_json(x) for x in m.X],
        "G": matrix_to_json(m.G),
    }


def framed_from_json(obj: dict) -> FramedModule:
    try:
        return FramedModule(
            n=json_int(obj["n"], "n"),
            d=json_int(obj["d"], "d"),
            r=json_int(obj["r"], "r"),
            X=tuple(matrix_from_json(x) for x in obj["X"]),
            G=matrix_from_json(obj["G"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed framed module JSON: {exc}") from exc
