"""Points of the bilinear-pairing moduli: two framed modules plus a pairing.

A point is a pair of framed modules M1, M2 together with a surjection
pi : M1 (x)_S M2 ->> M3.  The pairing is stored as its lift Pihat on the full
k-linear tensor product k^(d1*d2); double equivariance with the target action
forces Pihat to factor through the tensor product over the polynomial ring.
The induced framing of M3 (columns Pihat(g_a (x) h_b)) makes the target a
framed module of rank r1*r2 and is never stored separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import product
from operator import mul
from typing import Iterator, Optional

from . import quot
from .exactalg import (
    FieldError,
    Matrix,
    ShapeError,
    UniPoly,
    express_in_echelon,
    express_in_span,
    json_int,
    matrix_from_json,
    matrix_to_json,
    rank_and_kernel,
    rational,
    same_field,
)
from .exactalg.matrix import _adopt, _cleared, _dots, _eliminate
from .modcore import (
    FramedModule,
    FramedValidation,
    InvalidPoint,
    framed_from_json,
    framed_to_json,
    kron_lifts,
    make_degenerate,
    make_tuple_of_points,
    validate_framed,
)
from .quot import (
    _commutation_rows,
    _family_gauge,
    _intertwiner_rows,
    _module_gauge,
    _unit_action,
    kernel_presentation,
)


@dataclass(frozen=True)
class BilinPoint:
    m1: FramedModule
    m2: FramedModule
    d3: int
    Z: tuple[Matrix, ...]
    pihat: Matrix

    def __post_init__(self):
        if self.m1.n != self.m2.n:
            raise ShapeError("variable count mismatch")
        if len(self.Z) != self.m1.n:
            raise ShapeError("target action count mismatch")
        for z in self.Z:
            if (z.rows, z.cols) != (self.d3, self.d3):
                raise ShapeError("target action shape mismatch")
        if (self.pihat.rows, self.pihat.cols) != (self.d3, self.m1.d * self.m2.d):
            raise ShapeError("pairing lift shape mismatch")
        same_field(self.m1.field, self.m2.field,
                   *(z.field for z in self.Z), self.pihat.field)

    @property
    def n(self) -> int:
        return self.m1.n

    @property
    def field(self):
        return self.pihat.field

    def induced_framing(self) -> Matrix:
        """Framing of M3 indexed by generator pairs: column (a,b) at position
        a*r2 + b is Pihat(g_a (x) h_b)."""
        return self.pihat * self.m1.G.kron(self.m2.G)

    def target_module(self) -> FramedModule:
        """M3 as a framed module of rank r1*r2 with the induced framing."""
        return FramedModule(n=self.n, d=self.d3, r=self.m1.r * self.m2.r,
                            X=self.Z, G=self.induced_framing())

    @cached_property
    def _k3_coefficients(self) -> Optional[list[list[UniPoly]]]:
        """The coefficients in K3's basis of the members of K3 that
        :func:`hom_triple_check` compares, in its order, or None when some
        member is not in K3 (univariate only).  Computed on the first check
        at the point; not a field, so it takes no part in ==, hash, repr or
        the JSON form.

        The members are kappa (x) e for generators kappa of K1 and free basis
        vectors e of F2, then e (x) kappa for F1 and K2.  Every member is
        written in K3's basis twice: by the echelon division, one member at a
        time (a failed division means the member is not in K3), and by one
        truncated k[x] solve of all the members against the same generators.
        The generators are a basis, so both must give the same coefficients.
        Raises ArithmeticError, and stores nothing, when the solve finds no
        solution or writes any member differently.
        """
        f = self.field
        r1, r2 = self.m1.r, self.m2.r
        height = r1 * r2
        zero = UniPoly.zero(f)
        vecs = []
        # K1 (x) F2 side
        for kappa in kernel_presentation(self.m1).cols:
            for bb in range(r2):
                vec = [zero] * height
                for a in range(r1):
                    vec[a * r2 + bb] = kappa[a]
                vecs.append(vec)
        # F1 (x) K2 side
        for kappa in kernel_presentation(self.m2).cols:
            for a in range(r1):
                vec = [zero] * height
                for bb in range(r2):
                    vec[a * r2 + bb] = kappa[bb]
                vecs.append(vec)
        cols3 = kernel_presentation(self.target_module()).cols
        coeffs = [express_in_echelon(cols3, height, vec, f) for vec in vecs]
        if any(c is None for c in coeffs):
            return None
        solved = express_in_span(cols3, height, vecs, f)
        if solved is None:
            raise ArithmeticError(
                f"all {len(vecs)} vectors of K3 have coefficients in the echelon basis of K3 "
                f"but express_in_span against the same basis finds no solution")
        for c, s in zip(coeffs, solved):
            if s != c:
                raise ArithmeticError(
                    f"a vector of K3 has coefficients {c} in the echelon basis of K3 "
                    f"but {s} by express_in_span against the same basis")
        return coeffs


@dataclass
class BilinValidation:
    ok: bool
    m1_ok: bool
    m2_ok: bool
    z_commutes: bool
    equivariant: bool
    surjective: bool
    failure: Optional[str] = None
    residual: Optional[Matrix] = None

    def __bool__(self):
        return self.ok


@dataclass
class PairingValidation:
    """The point invariants that read only the actions and Pihat: the Z_i
    commute, Pihat is X- and Y-equivariant, and Pihat is surjective."""
    z_commutes: bool
    equivariant: bool
    surjective: bool
    failure: Optional[str] = None
    residual: Optional[Matrix] = None

    @property
    def ok(self) -> bool:
        return self.z_commutes and self.equivariant and self.surjective


def validate_pairing(b: BilinPoint) -> PairingValidation:
    """Check the invariants of a point that do not read the framings.

    ``failure`` names the first failed check (Z commuting, X- or
    Y-equivariance, surjectivity); equivariance failures carry a residual.
    """
    return _validate_pairing(b, kron_lifts(b.m1.X, b.m2.X))


def _validate_pairing(b: BilinPoint, lifts) -> PairingValidation:
    """validate_pairing(b), given lifts = kron_lifts(b.m1.X, b.m2.X), which
    depend on the actions alone and so can be shared by the points of one
    action pair (see TensorProductResult.lifts)."""
    failure = None
    z_comm = True
    for i in range(b.n):
        for j in range(i + 1, b.n):
            if z_comm and b.Z[i] * b.Z[j] != b.Z[j] * b.Z[i]:
                z_comm, failure = False, f"Z commuting at indices {i}, {j}"
    equivariant = True
    residual = None
    for i, (xl, yl) in enumerate(lifts):
        zp = b.Z[i] * b.pihat
        resx = b.pihat * xl - zp
        if not resx.is_zero():
            equivariant, residual = False, resx
            failure = failure or f"X-equivariance at index {i}"
            break
        resy = b.pihat * yl - zp
        if not resy.is_zero():
            equivariant, residual = False, resy
            failure = failure or f"Y-equivariance at index {i}"
            break
    rank = b.pihat.rank()
    surjective = rank == b.d3
    if not surjective:
        failure = failure or f"surjectivity: Pihat has rank {rank} < d3 = {b.d3}"
    return PairingValidation(z_commutes=z_comm, equivariant=equivariant,
                             surjective=surjective, failure=failure, residual=residual)


def _module_failure(name: str, v: FramedValidation) -> Optional[str]:
    if not v.commutes:
        i, j = v.commutator_witness
        return f"{name} commuting at indices {i}, {j}"
    if not v.generates:
        return f"{name} generation"
    return None


def validate_bilin(b: BilinPoint) -> BilinValidation:
    """Check all point invariants: both framed modules, then
    :func:`validate_pairing`; ``failure`` names the first failed check."""
    v1 = validate_framed(b.m1)
    v2 = validate_framed(b.m2)
    pv = validate_pairing(b)
    return BilinValidation(ok=v1.ok and v2.ok and pv.ok, m1_ok=v1.ok, m2_ok=v2.ok,
                           z_commutes=pv.z_commutes, equivariant=pv.equivariant,
                           surjective=pv.surjective,
                           failure=(_module_failure("M1", v1) or _module_failure("M2", v2)
                                    or pv.failure),
                           residual=pv.residual)


# -- membership ----------------------------------------------------------------

@dataclass
class MembershipReport:
    found: bool
    point: Optional[BilinPoint]
    solution_dim: Optional[int]
    reason: Optional[str] = None


def _equivariance_rows(m1: FramedModule, m2: FramedModule,
                       Z: tuple[Matrix, ...]) -> list[list]:
    """Rows of Pihat -> Pihat A_i - Z_i Pihat on vec(Pihat), with A_i = X_i (x) 1
    and then 1 (x) Y_i for each i, entry (k, c) within each."""
    rows = []
    for (xl, yl), z in zip(kron_lifts(m1.X, m2.X), Z):
        rows.extend(_intertwiner_rows(xl, z))
        rows.extend(_intertwiner_rows(yl, z))
    return rows


class MembershipSystem:
    """The pairing-lift equations of (M1, M2, Z), eliminated once, ready to
    be solved for any target framing G.

    Unknowns are the entries of Pihat (d3 x d1*d2, row-major).  The framing
    rows say Pihat sends each g_a (x) h_b to column (a, b) of G; the
    equivariance rows say Pihat intertwines both module actions with Z.  The
    matrix A of these equations depends on (M1, M2, Z) only; G is the
    right-hand side, and only of the framing rows.  So [A | E], with E the
    identity on the f = r1*r2*d3 framing rows and zero on the others, is
    reduced once; its right block T turns g = vec(G), in framing-row order,
    into the reduced right-hand side T g.  A target is consistent iff the
    rows past rank(A) give zero; the solution with every free variable zero
    then puts entry i of T g at the pivot column of row i.  It is the
    solution rref([A | b]) gives, since T b = rref(A) x0 whenever A x0 = b.
    """

    def __init__(self, m1: FramedModule, m2: FramedModule, Z: tuple[Matrix, ...]):
        if m1.n != m2.n or m1.n != len(Z):
            raise ShapeError("variable count mismatch")
        f = same_field(m1.field, m2.field, *(z.field for z in Z))
        d1, d2, d3 = m1.d, m2.d, Z[0].rows
        if any((z.rows, z.cols) != (d3, d3) for z in Z):
            raise ShapeError("target action shape mismatch")
        self.m1, self.m2, self.Z = m1, m2, tuple(Z)
        self.field, self.d3 = f, d3
        dim = d1 * d2
        nvars = d3 * dim
        nab = m1.r * m2.r
        nf = nab * d3
        rows = []
        # Framing rows, (a, b, k) in order: (Pihat (g_a (x) h_b))[k] = G[k, (a, b)].
        # Column a*r2 + b of G1 (x) G2 is g_a (x) h_b.
        gh = m1.G.kron(m2.G).entries
        for ab in range(nab):
            w = gh[ab::nab]
            for k in range(d3):
                row = [0] * (nvars + nf)
                row[k * dim:(k + 1) * dim] = w
                row[nvars + ab * d3 + k] = 1
                rows.append(row)
        # Equivariance rows: Pihat (X_i (x) 1) = Z_i Pihat and the
        # second-factor twin.
        pad = [0] * nf
        rows.extend(row + pad for row in _equivariance_rows(m1, m2, self.Z))
        work, pivots = _eliminate(f, rows, nvars + nf, reduced=True)
        rank = sum(1 for pc in pivots if pc < nvars)
        self.nvars = nvars
        self.rank = rank
        # Over F_p each pivot is 1; over Q row i is primitive, with pivot pv.
        self._solved = [(pc, work[i][pc], work[i][nvars:])
                        for i, pc in enumerate(pivots[:rank])]
        self._checks = [work[i][nvars:] for i in range(rank, len(pivots))]

    def solve(self, G: Matrix) -> MembershipReport:
        """The pairing lift sending g_a (x) h_b to column (a, b) of G."""
        nab = self.m1.r * self.m2.r
        if G.cols != nab:
            raise ShapeError("target framing rank must be r1*r2")
        if G.rows != self.d3:
            raise ShapeError("target framing shape mismatch")
        f = same_field(self.field, G.field)
        p = f.characteristic
        ge = G.entries
        g = [x for ab in range(nab) for x in ge[ab::nab]]
        den = 1
        if not p:
            # vec(G) = g / den with g an integer row, so every product is an int.
            g, den = _cleared(g)
        for t in self._checks:
            s = sum(map(mul, t, g))
            if (s % p) if p else s:
                return MembershipReport(found=False, point=None, solution_dim=None,
                                        reason="no pairing lift: target does not factor")
        x = [f.zero()] * self.nvars
        for pc, pv, t in self._solved:
            s = sum(map(mul, t, g))
            x[pc] = s % p if p else rational(s, pv * den)
        pihat = Matrix(f, self.d3, self.m1.d * self.m2.d, x)
        point = BilinPoint(m1=self.m1, m2=self.m2, d3=self.d3, Z=self.Z, pihat=pihat)
        return MembershipReport(found=True, point=point,
                                solution_dim=self.nvars - self.rank)

    def target_checks(self) -> Matrix:
        """The check rows (the rows of T past rank(A)) as a matrix on the
        entries of G in row-major order: :meth:`solve` finds a lift for G iff
        this matrix kills them."""
        nab = self.m1.r * self.m2.r
        d3 = self.d3
        # vec(G) holds G[k, ab] at ab*d3 + k; G's entries are row-major.
        order = [ab * d3 + k for k in range(d3) for ab in range(nab)]
        return Matrix(self.field, len(self._checks), nab * d3,
                      [t[i] for t in self._checks for i in order])

    def consistent_targets(self) -> Iterator[Matrix]:
        """Every target framing G that :meth:`solve` finds a lift for, each
        once, over a finite field.

        solve finds a lift iff every check row t (a row of T past rank(A))
        gives t . vec(G) = 0, so these targets are exactly the kernel of
        :meth:`target_checks`.  Over F_q that kernel is the q^k combinations
        of a basis of k vectors, all distinct.  It is enumerated whether or
        not a target is a valid framing; over Q it is infinite unless zero,
        so Q raises.
        """
        f = self.field
        p = f.characteristic
        if not p:
            raise FieldError("consistent targets are enumerated over a finite field only")
        checks = self.target_checks()
        _, basis = rank_and_kernel(checks)
        cols = [[v[i] for v in basis] for i in range(checks.cols)]
        for coeffs in product(range(p), repeat=len(basis)):
            yield Matrix(f, self.d3, checks.cols // self.d3,
                         [sum(map(mul, coeffs, col)) % p for col in cols])


def factor_membership_detail(m1: FramedModule, m2: FramedModule,
                             m3framed: FramedModule) -> MembershipReport:
    """Solve for the pairing lift realizing a target framed module.

    Unknowns are the entries of Pihat; equations say Pihat sends each
    g_a (x) h_b to the matching framing column of the target and intertwines
    both module actions with the target action.  A solution exists iff the
    target quotient factors through M1 (x)_S M2; it is then unique because
    the generator pair tensors generate the full tensor product.

    The matrix A of these equations depends on (M1, M2, Z); the target
    framing G is the right-hand side.  A loop over many targets that share
    (M1, M2, Z) should build one :class:`MembershipSystem` and call its
    ``solve`` for each target framing.
    """
    return MembershipSystem(m1, m2, m3framed.X).solve(m3framed.G)


def factor_membership(m1: FramedModule, m2: FramedModule,
                      m3framed: FramedModule) -> Optional[BilinPoint]:
    return factor_membership_detail(m1, m2, m3framed).point


# -- tangent space --------------------------------------------------------------

@dataclass
class BilinTangentVector:
    xdot: tuple[Matrix, ...]
    gdot: Matrix
    ydot: tuple[Matrix, ...]
    hdot: Matrix
    zdot: tuple[Matrix, ...]
    pihatdot: Matrix


@dataclass
class BilinTangentReport:
    dim: int
    nullity: int
    gauge_dim: int
    basis: list[BilinTangentVector]


def _layout(b: BilinPoint):
    n = b.n
    d1, d2, d3 = b.m1.d, b.m2.d, b.d3
    r1, r2 = b.m1.r, b.m2.r
    dim = d1 * d2
    sizes = {
        "xdot": n * d1 * d1,
        "gdot": d1 * r1,
        "ydot": n * d2 * d2,
        "hdot": d2 * r2,
        "zdot": n * d3 * d3,
        "pihatdot": d3 * dim,
    }
    offsets = {}
    pos = 0
    for name in ("xdot", "gdot", "ydot", "hdot", "zdot", "pihatdot"):
        offsets[name] = pos
        pos += sizes[name]
    return offsets, pos


def _first_order_rows(b: BilinPoint, offsets, nvars: int) -> list[list]:
    """The first-order system at a pairing point: commutation for the three
    action families plus the linearised double equivariance
    Pihatdot A_i + Pihat Adot_i = Zdot_i Pihat + Z_i Pihatdot,
    once with A = X (x) 1 and once with A = 1 (x) Y."""
    d1, d2, d3 = b.m1.d, b.m2.d, b.d3
    dim = d1 * d2
    pe = b.pihat.entries
    rows = (_commutation_rows(b.m1.X, offsets["xdot"], nvars)
            + _commutation_rows(b.m2.X, offsets["ydot"], nvars)
            + _commutation_rows(b.Z, offsets["zdot"], nvars))
    p0 = offsets["pihatdot"]
    entries = product(range(b.n), ("x", "y"), range(d3), range(dim))
    for (i, side, k, c), op in zip(entries, _equivariance_rows(b.m1, b.m2, b.Z)):
        row = [0] * nvars
        row[p0:p0 + d3 * dim] = op
        p, q = divmod(c, d2)
        if side == "x":
            # (Pihat (Xdot_i (x) 1))[k,(p,q)] = sum_u Pihat[k,(u,q)] Xdot_i[u,p]
            xb = offsets["xdot"] + i * d1 * d1
            for u in range(d1):
                row[xb + u * d1 + p] = pe[k * dim + u * d2 + q]
        else:
            # (Pihat (1 (x) Ydot_i))[k,(p,q)] = sum_u Pihat[k,(p,u)] Ydot_i[u,q]
            yb = offsets["ydot"] + i * d2 * d2
            for u in range(d2):
                row[yb + u * d2 + q] = pe[k * dim + p * d2 + u]
        # -(Zdot_i Pihat)[k,c] = -sum_s Zdot_i[k,s] Pihat[s,c]
        zb = offsets["zdot"] + i * d3 * d3
        for s in range(d3):
            row[zb + k * d3 + s] = -pe[s * dim + c]
        rows.append(row)
    return rows


def _gauge_vectors_bilin(b: BilinPoint) -> list[tuple]:
    """Simultaneous infinitesimal basis changes (Delta1, Delta2, Delta3), each
    running over the units E_ac in (a, c) order, first Delta1, then Delta2,
    then Delta3.  The pairing lift moves by Delta3 Pihat - Pihat (Delta1 (x) 1
    + 1 (x) Delta2)."""
    f = b.field
    d1, d2, d3 = b.m1.d, b.m2.d, b.d3
    offsets, _ = _layout(b)
    y0, z0, p0 = offsets["ydot"], offsets["zdot"], offsets["pihatdot"]
    zero = [f.zero()]
    out = [tuple(_module_gauge(b.m1, a, c) + zero * (p0 - y0)
                 + _unit_action(f, b.pihat, cols=[(a * d2 + q, c * d2 + q) for q in range(d2)]))
           for a in range(d1) for c in range(d1)]
    out += [tuple(zero * y0 + _module_gauge(b.m2, a, c) + zero * (p0 - z0)
                  + _unit_action(f, b.pihat, cols=[(p * d2 + a, p * d2 + c) for p in range(d1)]))
            for a in range(d2) for c in range(d2)]
    out += [tuple(zero * z0 + _family_gauge(f, b.Z, a, c) + _unit_action(f, b.pihat, (a, c)))
            for a in range(d3) for c in range(d3)]
    return out


def bilin_tangent(b: BilinPoint, check: bool = False) -> BilinTangentReport:
    """Tangent dimension at a pairing point, on the deformation side.

    Combined system: first-order commutation for the three action families
    plus first-order double equivariance; dim = nullity - (d1^2 + d2^2 +
    d3^2), the gauge being injective at valid points.
    """
    val = validate_bilin(b)
    if not val.ok:
        raise InvalidPoint(f"invalid pairing point: {val.failure}")
    offsets, nvars = _layout(b)
    gauge = _gauge_vectors_bilin(b)
    nullity, reps = quot._tangent_tail(_first_order_rows(b, offsets, nvars), gauge,
                                       b.field, nvars, check)
    basis = [_unpack_tangent(b, offsets, v) for v in reps]
    return BilinTangentReport(dim=nullity - len(gauge), nullity=nullity,
                              gauge_dim=len(gauge), basis=basis)


def _unpack_tangent(b: BilinPoint, offsets, v: tuple) -> BilinTangentVector:
    f = b.field
    n = b.n
    d1, d2, d3 = b.m1.d, b.m2.d, b.d3
    r1, r2 = b.m1.r, b.m2.r
    dim = d1 * d2

    def grab(name, count, rows, cols):
        base = offsets[name]
        mats = []
        for i in range(count):
            size = rows * cols
            mats.append(_adopt(f, rows, cols, list(v[base + i * size: base + (i + 1) * size])))
        return mats

    return BilinTangentVector(
        xdot=tuple(grab("xdot", n, d1, d1)),
        gdot=grab("gdot", 1, d1, r1)[0],
        ydot=tuple(grab("ydot", n, d2, d2)),
        hdot=grab("hdot", 1, d2, r2)[0],
        zdot=tuple(grab("zdot", n, d3, d3)),
        pihatdot=grab("pihatdot", 1, d3, dim)[0],
    )


def tangent_residuals(b: BilinPoint, tv: BilinTangentVector) -> bool:
    """Re-check both first-order systems on a tangent vector, exactly."""
    for X, Xd in ((b.m1.X, tv.xdot), (b.m2.X, tv.ydot), (b.Z, tv.zdot)):
        for i in range(b.n):
            for j in range(i + 1, b.n):
                lhs = Xd[i] * X[j] + X[i] * Xd[j]
                rhs = Xd[j] * X[i] + X[j] * Xd[i]
                if lhs != rhs:
                    return False
    lifts = zip(kron_lifts(b.m1.X, b.m2.X), kron_lifts(tv.xdot, tv.ydot))
    for i, ((xl, yl), (xdl, ydl)) in enumerate(lifts):
        rhs = tv.zdot[i] * b.pihat + b.Z[i] * tv.pihatdot
        if tv.pihatdot * xl + b.pihat * xdl != rhs:
            return False
        if tv.pihatdot * yl + b.pihat * ydl != rhs:
            return False
    return True


# -- homomorphism-triple oracle (univariate) -----------------------------------

def _deformed_image(pres, X: Matrix, Xdot: Matrix, Gdot: Matrix) -> Matrix:
    """phi(kappa) = -(directional derivative of evaluation) applied to each
    generator column of the presentation ``pres``; returns d x s with column
    j the image of generator j.

    Along (Xdot, gdot), X^m g has derivative w_m, with w_0 = gdot and
    w_(m+1) = Xdot X^m g + X w_m = [Xdot | X] [X^m g; w_m]: one d x 2d matvec
    per step, X^m g read from ``pres.powers`` (see :func:`quot._evaluate`).
    """
    f, d, p, rows = X.field, X.rows, X.field.characteristic, X.row_lists()
    brows = [xd + x for xd, x in zip(Xdot.row_lists(), rows)]
    tables = []
    for a, k in enumerate(quot._counts(pres.cols, Gdot.cols)):
        table = [Gdot.entries[a::Gdot.cols]]
        for v in quot._krylov(rows, p, pres.powers[a], max(k - 1, 0)):
            table.append(_dots(brows, v + table[-1], p))
        tables.append(table[:k])
    images = quot._combine(pres.cols, tables, d, p)
    return Matrix(f, d, len(images), [f.neg(v[i]) for i in range(d) for v in images])


@dataclass
class HomTriple:
    phi1: Matrix  # d1 x r1
    phi2: Matrix  # d2 x r2
    phi3: Matrix  # d3 x r1*r2


def extract_hom_triple(b: BilinPoint, tv: BilinTangentVector) -> HomTriple:
    """Translate a deformation-side tangent vector into maps on the three
    kernel presentations (univariate only)."""
    if b.n != 1:
        raise ShapeError("hom triples are univariate only")
    phi1 = _deformed_image(kernel_presentation(b.m1), b.m1.X[0], tv.xdot[0], tv.gdot)
    phi2 = _deformed_image(kernel_presentation(b.m2), b.m2.X[0], tv.ydot[0], tv.hdot)
    # M3's framing Pihat (G (x) H) (see target_module) deforms with (Pihat, G, H).
    G, H = b.m1.G, b.m2.G
    gh = G.kron(H)
    m3 = FramedModule(n=1, d=b.d3, r=b.m1.r * b.m2.r, X=b.Z, G=b.pihat * gh)
    f3dot = tv.pihatdot * gh + b.pihat * (tv.gdot.kron(H) + G.kron(tv.hdot))
    phi3 = _deformed_image(kernel_presentation(m3), b.Z[0], tv.zdot[0], f3dot)
    return HomTriple(phi1=phi1, phi2=phi2, phi3=phi3)


def hom_triple_check(b: BilinPoint, triple: HomTriple) -> bool:
    """Compatibility of a homomorphism triple with the pairing (univariate).

    On generators kappa of K1 and free basis vectors e of F2 (and the
    mirror), the image of kappa (x) e under phi3 must equal the pairing
    applied to (phi1 kappa) (x) p2(e); both sides are evaluated in M3.

    The image under phi3 is read off the coefficients writing kappa (x) e in
    K3's basis.  Those depend on the point only, not on the maps, so they are
    computed and cross-checked on the first check at the point (see
    ``BilinPoint._k3_coefficients``); per triple, only the pairing sides and
    the members' images under phi3 remain, all from one power table of Z on
    phi3's columns (see :func:`quot._evaluate`), with no pass over Z per
    member.  Raises ArithmeticError when the cross-check fails, so that a
    failed solve never reads as incompatible; a disagreement is caught on
    every member, even one after a member that fails its compatibility check.
    """
    if b.n != 1:
        raise ShapeError("hom triples are univariate only")
    coeffs = b._k3_coefficients
    if coeffs is None:
        return False
    f = b.field
    # K1 and K2 have r1 and r2 generators (kernel_presentation's certificate).
    r1, r2 = b.m1.r, b.m2.r
    # Column jgen*r2 + bb is Pihat((phi1 kappa_jgen) (x) h_bb); column
    # a*r2 + jgen is Pihat(g_a (x) (phi2 kappa_jgen)).
    side1 = b.pihat * triple.phi1.kron(b.m2.G)
    side2 = b.pihat * b.m1.G.kron(triple.phi2)
    sides = ([side1.col(jgen * r2 + bb) for jgen in range(r1) for bb in range(r2)]
             + [side2.col(a * r2 + jgen) for jgen in range(r2) for a in range(r1)])
    images = quot._evaluate(coeffs, b.Z[0], triple.phi3)
    return all(all(f.eq(x, y) for x, y in zip(image, side))
               for image, side in zip(images, sides))


def zero_triple(b: BilinPoint) -> HomTriple:
    """The zero homomorphism triple at a point (univariate).  K1, K2 and K3
    are free of ranks r1, r2 and r1*r2 (kernel_presentation's certificate),
    so the maps are d x r zero matrices."""
    f, r1, r2 = b.field, b.m1.r, b.m2.r
    return HomTriple(
        phi1=Matrix.zeros(f, b.m1.d, r1),
        phi2=Matrix.zeros(f, b.m2.d, r2),
        phi3=Matrix.zeros(f, b.d3, r1 * r2),
    )


# -- canonical constructors -----------------------------------------------------

def main_component_point(points, G1: Matrix, G2: Matrix) -> BilinPoint:
    """Canonical pairing point over a tuple of points.

    All three modules are the tuple-of-points module; the pairing is
    componentwise multiplication in the diagonal basis, the multiplication
    of the split algebra.
    """
    f = same_field(G1.field, G2.field)
    m1 = make_tuple_of_points(points, G1)
    m2 = make_tuple_of_points(points, G2)
    d = m1.d
    pihat = Matrix.zeros(f, d, d * d)
    for k in range(d):
        pihat.entries[k * d * d + (k * d + k)] = f.one()
    return BilinPoint(m1=m1, m2=m2, d3=d, Z=m1.X, pihat=pihat)


def degenerate_point(d: int, r1: int, r2: int, A1: Matrix, A2: Matrix,
                     Pi: Matrix, n: int = 1) -> BilinPoint:
    """Totally degenerate pairing point: zero actions everywhere, full-rank
    framings A1, A2 and a full-rank d x d^2 pairing matrix."""
    f = same_field(A1.field, A2.field, Pi.field)
    m1 = make_degenerate(d, r1, A1, n=n)
    m2 = make_degenerate(d, r2, A2, n=n)
    if (Pi.rows, Pi.cols) != (d, d * d):
        raise ShapeError("pairing matrix must be d x d^2")
    if Pi.rank() != d:
        raise ValueError("pairing matrix must have full rank d")
    Z = tuple(Matrix.zeros(f, d, d) for _ in range(n))
    return BilinPoint(m1=m1, m2=m2, d3=d, Z=Z, pihat=Pi)


# -- dimension formulas ----------------------------------------------------------

@dataclass
class DimensionReport:
    n: int
    d: int
    r1: int
    r2: int
    main_dim: int
    degenerate_dim: Optional[int]
    reducible_by_count: bool
    reducible_by_secant: bool
    irreducible: bool
    reasons: dict = dc_field(default_factory=dict)


def bilin_dims(n: int, d: int, r1: int, r2: int) -> DimensionReport:
    """Dimension and reducibility report for equal target dimensions.

    main = nd + (r1-1)d + (r2-1)d; degenerate = (r1-d)d + (r2-d)d + (d^2-d)d
    when both framing ranks reach d.  Count-based reducibility compares the
    two; the secant route applies whenever d >= 3 with framing ranks >= d;
    d <= 2 is irreducible for every n.
    """
    if n < 1 or d < 1 or r1 < 1 or r2 < 1:
        raise ValueError("need positive parameters")
    main = n * d + (r1 - 1) * d + (r2 - 1) * d
    has_degenerate = r1 >= d and r2 >= d
    degenerate = (r1 - d) * d + (r2 - d) * d + (d * d - d) * d if has_degenerate else None
    threshold = d * d - 3 * d + 2
    red_count = has_degenerate and n < threshold
    red_secant = has_degenerate and d >= 3
    irreducible = d <= 2
    reasons = {
        "count_threshold": threshold,
        "count": f"n = {n} {'<' if n < threshold else '>='} d^2-3d+2 = {threshold}"
                 + ("" if has_degenerate else " (degenerate locus absent: r_i < d)"),
        "secant": ("d >= 3 with r_i >= d: the d-th secant of the triple Segre "
                   "cannot fill the ambient space" if red_secant else
                   "no secant obstruction for d <= 2" if d <= 2 else
                   "degenerate locus absent: r_i < d"),
        "irreducible": "d <= 2: every pairing tensor has minimal border rank"
                       if irreducible else "reducible route available",
    }
    return DimensionReport(n=n, d=d, r1=r1, r2=r2, main_dim=main,
                           degenerate_dim=degenerate,
                           reducible_by_count=red_count,
                           reducible_by_secant=red_secant,
                           irreducible=irreducible, reasons=reasons)


# -- gauge -----------------------------------------------------------------------

def gauge_transform_bilin(b: BilinPoint, g1: Matrix, g2: Matrix, g3: Matrix) -> BilinPoint:
    """Simultaneous change of basis on the three underlying spaces."""
    from .modcore import gauge_transform
    m1 = gauge_transform(b.m1, g1)
    m2 = gauge_transform(b.m2, g2)
    g3inv = g3.inverse()
    Z = tuple(g3 * z * g3inv for z in b.Z)
    pihat = g3 * b.pihat * g1.inverse().kron(g2.inverse())
    return BilinPoint(m1=m1, m2=m2, d3=b.d3, Z=Z, pihat=pihat)


# -- JSON ------------------------------------------------------------------------

def bilin_to_json(b: BilinPoint) -> dict:
    return {
        "M1": framed_to_json(b.m1),
        "M2": framed_to_json(b.m2),
        "d3": b.d3,
        "Z": [matrix_to_json(z) for z in b.Z],
        "Pihat": matrix_to_json(b.pihat),
    }


def bilin_from_json(obj: dict) -> BilinPoint:
    try:
        return BilinPoint(
            m1=framed_from_json(obj["M1"]),
            m2=framed_from_json(obj["M2"]),
            d3=json_int(obj["d3"], "d3"),
            Z=tuple(matrix_from_json(z) for z in obj["Z"]),
            pihat=matrix_from_json(obj["Pihat"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed pairing point JSON: {exc}") from exc
