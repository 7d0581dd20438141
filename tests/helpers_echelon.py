"""Reference implementations the elimination engines must match.

``ReferenceEchelonBasis`` is the incremental echelon basis as the library
built it before its rows became plain ``int`` rows: one ``Field`` call per
entry, pivot-1 rows of field values over Q and F_p alike.
``reference_rref`` is textbook Gauss-Jordan elimination through the
``Field`` interface, one method call per entry.
``reference_kernel`` is the kernel basis read off ``Matrix.rref``, and
``full_rref_greedy`` the tangent representative choice by re-eliminating the
growing matrix, as the library computed both before the kernel vectors were
read off the elimination rows in free coordinates."""

from fractions import Fraction
from typing import Sequence

from quotbilin.exactalg import Field, Matrix, ShapeError


def is_canonical_rational(x) -> bool:
    """Whether ``x`` is a Q value in its one form: an ``int`` (not a
    ``bool``) when it is integral, else a ``Fraction`` with denominator > 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def reference_rref(m):
    """Gauss-Jordan elimination through ``Field`` methods."""
    f = m.field
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    for pc in range(m.cols):
        pr = len(pivots)
        found = next((i for i in range(pr, m.rows) if not f.is_zero(rows[i][pc])), None)
        if found is None:
            continue
        rows[pr], rows[found] = rows[found], rows[pr]
        inv = f.inv(rows[pr][pc])
        rows[pr] = [f.mul(inv, x) for x in rows[pr]]
        for i in range(m.rows):
            c = rows[i][pc]
            if i != pr and not f.is_zero(c):
                rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
    return [f.canonical(x) for row in rows for x in row], tuple(pivots)


def reference_kernel(m: Matrix) -> list[tuple]:
    """Right kernel basis of ``m`` read off rref(m): vector a is 1 at the
    a-th non-pivot column, zero at the other non-pivot columns, and minus
    the rref entry of that column at each pivot column."""
    f = m.field
    r, pivots = m.rref()
    pivset = set(pivots)
    basis = []
    for fc in (j for j in range(m.cols) if j not in pivset):
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(r[i, fc])
        basis.append(tuple(v))
    return basis


def full_rref_greedy(kernel, subspace, field):
    """The original representative choice: keep a kernel vector when the full
    rref of the stacked rows gains rank."""
    rows = [list(v) for v in subspace]
    rank = Matrix.from_rows(field, rows).rank() if rows else 0
    reps = []
    for v in kernel:
        trial = rows + [list(v)]
        new_rank = Matrix.from_rows(field, trial).rank()
        if new_rank > rank:
            rows, rank = trial, new_rank
            reps.append(v)
    return reps


class ReferenceEchelonBasis:
    """Incrementally grown basis of a subspace of ``k^dim``, in semi-echelon form.

    Each stored row has a pivot entry 1 at its first nonzero column and a zero
    at the pivot column of every earlier row.  Reducing a vector is then one
    pass over the rows in insertion order, O(rank * dim) field operations, so
    "does this vector extend the span" costs no re-elimination of the span.
    ``insert`` accepts a vector exactly when it is independent of the vectors
    inserted before it, which keeps greedy basis choices identical to
    comparing ranks of the growing matrix.
    """

    __slots__ = ("field", "dim", "rows", "pivots")

    def __init__(self, field: Field, dim: int, vectors: Sequence[Sequence] = ()):
        self.field = field
        self.dim = dim
        self.rows: list[list] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.insert(v)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> list:
        """``v`` minus the combination of stored rows that clears every pivot
        column; zero exactly when ``v`` lies in the span."""
        if len(v) != self.dim:
            raise ShapeError(f"vector of length {len(v)} in a span of k^{self.dim}")
        f = self.field
        w = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = w[pc]
            if f.is_zero(c):
                continue
            for j in range(pc, self.dim):
                if not f.is_zero(row[j]):
                    w[j] = f.sub(w[j], f.mul(c, row[j]))
        return w

    def contains(self, v: Sequence) -> bool:
        return all(self.field.is_zero(x) for x in self.reduce(v))

    def insert(self, v: Sequence) -> bool:
        """Add ``v`` to the span; False (and no change) if it already lies in it."""
        return self.insert_reduced(self.reduce(v))

    def insert_reduced(self, w: Sequence) -> bool:
        """Add ``w``, already reduced against the rows, scaled to pivot 1;
        False (and no change) if it is zero."""
        f = self.field
        pc = next((j for j, x in enumerate(w) if not f.is_zero(x)), None)
        if pc is None:
            return False
        inv = f.inv(w[pc])
        self.rows.append([f.mul(inv, x) for x in w])
        self.pivots.append(pc)
        return True
