"""Affine one-parameter families of matrices and order-3 tensors.

Every degeneration the library builds is a line base + t * slope through its
limit: evaluation at t = 0 recovers ``base`` exactly and sampling at t != 0
gives the nearby fibers.
"""

from __future__ import annotations

from .field import same_field
from .matrix import Matrix, ShapeError


def _shape(x) -> str:
    """``Matrix 2x2`` or ``Tensor3 2x2x2``."""
    dims = (x.rows, x.cols) if isinstance(x, Matrix) else x.dims
    return f"{type(x).__name__} {'x'.join(map(str, dims))}"


class AffineFamily:
    """The family base + t * slope: ``base`` and ``slope`` are two Matrix or
    two Tensor3 of the same shape over the same field."""
    __slots__ = ("base", "slope")

    def __init__(self, base, slope):
        same_field(base.field, slope.field)
        if _shape(base) != _shape(slope):
            raise ShapeError(f"family base is a {_shape(base)}, slope a {_shape(slope)}")
        self.base = base
        self.slope = slope

    def evaluate(self, t0):
        return self.base + self.slope.scale(t0)
