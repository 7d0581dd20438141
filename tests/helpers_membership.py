"""Shared generator of random membership targets for pairing tests."""

from quotbilin.exactalg import quotient_map
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
