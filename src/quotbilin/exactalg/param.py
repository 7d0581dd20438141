"""Matrices and order-3 tensors with entries polynomial in a parameter t.

Families of this shape house explicit degenerations: entries are UniPoly in
t, so the limit at t -> 0 is literal evaluation at 0 and sampling at t != 0
is evaluation elsewhere.
"""

from __future__ import annotations

from typing import Sequence

from .field import Field, same_field
from .matrix import Matrix, ShapeError
from .unipoly import UniPoly


class ParamMatrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence[UniPoly]):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ShapeError("entry count mismatch")
        for e in entries:
            same_field(field, e.field)
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def constant(cls, m: Matrix) -> "ParamMatrix":
        return cls(m.field, m.rows, m.cols, [UniPoly.const(m.field, e) for e in m.entries])

    @classmethod
    def affine(cls, const: Matrix, linear: Matrix) -> "ParamMatrix":
        """The family const + t * linear."""
        f = same_field(const.field, linear.field)
        if (const.rows, const.cols) != (linear.rows, linear.cols):
            raise ShapeError("shape mismatch")
        ents = [UniPoly(f, [a, b]) for a, b in zip(const.entries, linear.entries)]
        return cls(f, const.rows, const.cols, ents)

    def evaluate(self, t0) -> Matrix:
        return Matrix(self.field, self.rows, self.cols,
                      [e.eval(t0) for e in self.entries])


class ParamTensor:
    """A tensor family stored, like Tensor3, as its d1*d2 x d3 third
    flattening, here a ParamMatrix."""
    __slots__ = ("dims", "flat")

    def __init__(self, field: Field, dims: tuple[int, int, int], coeffs: Sequence[UniPoly]):
        d1, d2, d3 = dims
        self.dims = (d1, d2, d3)
        self.flat = ParamMatrix(field, d1 * d2, d3, coeffs)

    @property
    def field(self) -> Field:
        return self.flat.field

    @property
    def coeffs(self) -> list:
        return self.flat.entries

    def evaluate(self, t0):
        from ..tensorlab import Tensor3
        return Tensor3.from_flat(self.dims, self.flat.evaluate(t0))


def evaluate_param(family, t0):
    """Entrywise evaluation of a ParamMatrix or ParamTensor at t = t0."""
    if isinstance(family, (ParamMatrix, ParamTensor)):
        return family.evaluate(t0)
    raise TypeError(f"cannot evaluate {type(family).__name__}")
