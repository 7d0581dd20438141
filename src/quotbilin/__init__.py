"""Exact-arithmetic library for moduli points of framed modules.

Framed modules over polynomial rings, their tensor-product pairings, tangent
spaces by first-order deformation, component-dimension and reducibility
formulas, the complete 2x2x2 tensor classification, and Terracini secant
dimensions, all over Q or a prime field.
"""

# cli is not imported here: ``python -m quotbilin.cli`` would find it in
# sys.modules before running it as __main__, and warn.
from . import bilin, cases222, exactalg, modcore, quot, tensorlab
from .exactalg import GF, QQ, Matrix, UniPoly, parse_field
from .modcore import (
    FramedModule,
    annihilator_algebra_dim,
    cyclic_module_univariate,
    cyclic_tuple_module,
    make_degenerate,
    make_tuple_of_points,
    support_univariate,
    tensor_over_S,
    validate_framed,
)
from .quot import (
    degenerate_grassmannian_check,
    hom_KM_univariate,
    quot2_limit_family,
    quot_dims,
    quot_tangent,
)
from .bilin import (
    BilinPoint,
    bilin_dims,
    bilin_tangent,
    degenerate_point,
    factor_membership,
    hom_triple_check,
    main_component_point,
    validate_bilin,
)
from .tensorlab import (
    Tensor3,
    brute_force_rank_fq,
    classify_2x2x2,
    conciseness,
    multiplication_tensor,
    secant_dimension,
    tensor_from_bilin,
    unit_tensor,
)
from .cases222 import CaseLabel, classify_point_222, enumerate_222, named_tensor, verify_limit

__version__ = "0.1.0"
