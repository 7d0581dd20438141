"""Univariate polynomials over an exact field and k[x]-combinations of columns.

Polynomials are coefficient tuples, lowest degree first, with no trailing
zeros.  A set of columns in k[x]^height is a plain list of lists of
:class:`UniPoly`; framed modules' kernels come as such columns, in Hermite
form, from the Krylov relations of the framing.

:func:`express_in_echelon` divides a target by columns with distinct,
increasing pivot rows.  One layout, :func:`_shifted_coefficients`, turns
x^b * column into a coefficient vector for the truncated system of the k[x]
solve :func:`express_in_span`, which solves a whole batch of targets against
the same columns in one elimination per degree bound.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .field import Field, FieldError, rational, same_field
from .matrix import Matrix, ShapeError, solve


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence):
        coeffs = list(coeffs)
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def const(cls, field: Field, value) -> "UniPoly":
        return cls(field, [value])

    @classmethod
    def from_ints(cls, field: Field, ints: Sequence[int]) -> "UniPoly":
        return cls(field, [field.from_int(n) for n in ints])

    @classmethod
    def x(cls, field: Field) -> "UniPoly":
        return cls(field, [field.zero(), field.one()])

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, [])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self):
        if not self.coeffs:
            raise ZeroDivisionError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero()

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        f = self.field
        if len(self.coeffs) != len(other.coeffs) or (f is not other.field and f != other.field):
            return False
        return all(f.eq(a, b) for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.field.name, tuple(map(self.field.canonical, self.coeffs))))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        f = same_field(self.field, other.field)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(f, [f.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        f = same_field(self.field, other.field)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(f, [f.sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        f = same_field(self.field, other.field)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(f)
        out = [f.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if f.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return UniPoly(f, out)

    def scale(self, c) -> "UniPoly":
        f = self.field
        return UniPoly(f, [f.mul(c, a) for a in self.coeffs])

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        f = same_field(self.field, other.field)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(f), self
        quo = [f.zero()] * (dq + 1)
        inv_lead = f.inv(other.lead())
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if f.is_zero(top):
                continue
            c = f.mul(top, inv_lead)
            quo[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] = f.sub(rem[k + i], f.mul(c, b))
        return UniPoly(f, quo), UniPoly(f, rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lead()))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def eval(self, point):
        f = self.field
        acc = f.zero()
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, point), c)
        return acc

    def eval_matrix(self, m: Matrix) -> Matrix:
        """Evaluate at a square matrix argument."""
        f = same_field(self.field, m.field)
        acc = Matrix.zeros(f, m.rows, m.cols)
        for c in reversed(self.coeffs):
            acc = acc * m
            for i in range(m.rows):
                acc.entries[i * m.cols + i] = f.add(acc.entries[i * m.cols + i], c)
        return acc

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if self.field.is_zero(c):
                continue
            cs = self.field.fmt(c)
            if i == 0:
                terms.append(cs)
            elif i == 1:
                terms.append(f"{cs}*x" if cs != "1" else "x")
            else:
                terms.append(f"{cs}*x^{i}" if cs != "1" else f"x^{i}")
        return " + ".join(terms)


def rational_roots(p: UniPoly) -> list:
    """Roots of ``p`` lying in its coefficient field, without multiplicity.

    Over Q uses the rational root bound after clearing denominators; over a
    prime field scans all residues (guarded against huge moduli).
    """
    f = p.field
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    roots = []
    if f.characteristic == 0:
        denom = math.lcm(*(c.denominator for c in p.coeffs))
        ints = [int(c * denom) for c in p.coeffs]
        while ints and ints[0] == 0:
            ints = ints[1:]
            zero = f.zero()
            if not any(f.eq(r, zero) for r in roots):
                roots.append(zero)
        if not ints:
            return roots
        for num in _divisors(abs(ints[0])):
            for den in _divisors(abs(ints[-1])):
                for cand in (rational(num, den), rational(-num, den)):
                    if p.eval(cand) == 0 and cand not in roots:
                        roots.append(cand)
        return roots
    if f.characteristic > 50021:
        raise FieldError("root scan unsupported for moduli above 50021")
    for a in f.elements():
        if f.is_zero(p.eval(a)):
            roots.append(a)
    return roots


def roots_with_multiplicity(p: UniPoly) -> tuple[list[tuple], UniPoly]:
    """Split off all linear factors over the base field.

    Returns ``([(root, multiplicity), ...], cofactor)`` with the cofactor
    having no roots in the field; the polynomial splits iff the cofactor is
    constant.
    """
    f = p.field
    out = []
    rem = p
    for r in rational_roots(p):
        mult = 0
        lin = UniPoly(f, [f.neg(r), f.one()])
        while True:
            q, s = rem.divmod(lin)
            if not s.is_zero():
                break
            rem = q
            mult += 1
        if mult:
            out.append((r, mult))
    return out, rem


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def char_poly(m: Matrix) -> UniPoly:
    """Characteristic polynomial det(x*I - m), by Berkowitz's division-free
    algorithm, O(d^4) field operations.

    Write the trailing block m[k:, k:] as [[a, R], [C, M]].  The coefficient
    vector of its characteristic polynomial, highest degree first, is T times
    that of M, where T is the lower triangular Toeplitz matrix with first
    column (1, -a, -R C, -R M C, -R M^2 C, ...).  Starting from the empty
    block (polynomial 1), k runs from d - 1 down to 0.
    """
    f = m.field
    n = m.rows
    if m.cols != n:
        raise ShapeError("characteristic polynomial of non-square matrix")

    def dot(u, w):
        acc = f.zero()
        for x, y in zip(u, w):
            acc = f.add(acc, f.mul(x, y))
        return acc

    poly = [f.one()]
    for k in range(n - 1, -1, -1):
        rest = range(k + 1, n)
        R = [m[k, j] for j in rest]
        M = [[m[i, j] for j in rest] for i in rest]
        v = [m[i, k] for i in rest]  # M^j C, from j = 0
        col = [f.one(), f.neg(m[k, k])]
        for _ in rest:
            col.append(f.neg(dot(R, v)))
            v = [dot(row, v) for row in M]
        poly = [dot(col[i::-1], poly) for i in range(len(poly) + 1)]
    return UniPoly(f, poly[::-1])


# -- k[x]-combinations of columns -------------------------------------------

def _shifted_coefficients(cols: Sequence[Sequence[UniPoly]], height: int,
                          max_degree: int, shifts: Sequence[int], field: Field
                          ) -> list[list]:
    """Coefficient vectors of x^b * col for b < shifts[j], column by column.

    The coefficient of x^a in entry i sits at ``i * (max_degree + 1) + a``:
    ``height`` blocks of ``max_degree + 1`` coefficients, lowest degree first.
    Every shifted entry must have degree at most ``max_degree``.
    """
    block = max_degree + 1
    zero = field.zero()
    out = []
    for col, count in zip(cols, shifts):
        for b in range(count):
            vec = [zero] * (height * block)
            for i, e in enumerate(col):
                base = i * block + b
                vec[base: base + len(e.coeffs)] = e.coeffs
            out.append(vec)
    return out


def express_in_echelon(echelon_cols: Sequence[Sequence[UniPoly]], height: int,
                       target: Sequence[UniPoly], field: Field
                       ) -> Optional[list[UniPoly]]:
    """Coefficients writing ``target`` as a k[x]-combination of echelon columns.

    Requires nonzero columns whose first nonzero rows are distinct and
    increasing, such as the Hermite basis of a kernel presentation.  Returns
    None when the target is not in the span (detected by a failed exact
    division or a nonzero residual).
    """
    pivots = []
    for col in echelon_cols:
        for i in range(height):
            if not col[i].is_zero():
                pivots.append(i)
                break
    rem = list(target)
    coeffs = []
    for col, pr in zip(echelon_cols, pivots):
        q, r = rem[pr].divmod(col[pr])
        if not r.is_zero():
            return None
        coeffs.append(q)
        if not q.is_zero():
            rem = [rem[i] - q * col[i] for i in range(height)]
    if any(not e.is_zero() for e in rem):
        return None
    return coeffs


def express_in_span(cols: Sequence[Sequence[UniPoly]], height: int,
                    targets: Sequence[Sequence[UniPoly]], field: Field
                    ) -> Optional[list[list[UniPoly]]]:
    """Coefficients writing each target as a k[x]-combination of any columns.

    Solved by truncated linear algebra: coefficient degrees are searched up to
    a bound grown a few times, and every target is solved at once, in one
    ``solve(A, B)`` per bound with one column of B per target.  The bounds
    come from the largest target degree, so a one-element list is the
    one-target solve.  The result is all or none: the list of coefficient
    lists, one per target, from the first bound at which every target is
    expressed, or None when no bound expresses them all.  For kernel
    presentations of finite-dimensional modules the solution degrees are
    tiny, so the first bound almost always suffices.

    At a given bound, a target's answer does not depend on the other targets.
    In rref([A | B]) a pivot found in a column b_k of B lies in a row y with
    y A = 0, and y b_j = y A x_j = 0 for every consistent column b_j, so
    eliminating with that row leaves the consistent columns untouched; the
    rows with pivots in A are those of rref(A), and each x_j is read off them
    as it would be from rref([A | b_j]) alone.  For k[x]-independent columns
    (a kernel presentation) the solution is unique, so it does not depend on
    the bound either and the batch returns the one-target answers.

    When the columns are square (``len(cols) == height``) the last bound is
    at least Cramer's ``tdeg + (height - 1) * maxdeg``: for independent
    columns the solution is unique, its entries are det(A_j) / det(A) and
    have at most that degree, so None proves that some target is not in the
    span.
    """
    maxdeg = max((e.degree for col in cols for e in col), default=0)
    tdeg = max((e.degree for target in targets for e in target), default=0)
    bounds = [tdeg + maxdeg + 2, tdeg + maxdeg + 6, tdeg + maxdeg + 10]
    if len(cols) == height:
        bounds[-1] = max(bounds[-1], tdeg + (height - 1) * maxdeg)
    nt = len(targets)
    for bound in bounds:
        ncoef = bound + 1
        outdeg = bound + maxdeg
        nrows = height * (outdeg + 1)
        images = _shifted_coefficients(cols, height, outdeg, [ncoef] * len(cols), field)
        rhs = _shifted_coefficients(targets, height, outdeg, [1] * nt, field)
        # One row per output coefficient, one column per unknown coefficient
        # (in A) or per target (in B).
        a = Matrix(field, nrows, len(images), [v[k] for k in range(nrows) for v in images])
        b = Matrix(field, nrows, nt, [v[k] for k in range(nrows) for v in rhs])
        sol = solve(a, b)
        if sol is not None:
            # Row j * ncoef + c of sol holds the x^c coefficient of column j.
            x = sol.entries
            return [[UniPoly(field, x[j * ncoef * nt + t:(j + 1) * ncoef * nt:nt])
                     for j in range(len(cols))] for t in range(nt)]
    return None
