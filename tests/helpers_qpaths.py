"""The Q entry paths as the library wrote them with one Python step per
entry, before they moved to C calls: ``_primitive`` tested every entry's type
before clearing denominators, ``QQ.parse`` read every string through
``Fraction`` and ``matrix_to_json`` formatted every entry through
``Field.fmt``.  Kept as the references the fast paths must equal."""

from fractions import Fraction
from math import gcd, lcm


def reference_primitive(row):
    """The rational row scaled to a primitive integer row (coprime entries)."""
    if all(type(x) is int for x in row):
        ints = list(row)
    else:
        den = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def reference_parse_q(s):
    a = Fraction(s)
    return a.numerator if a.denominator == 1 else a


def reference_matrix_to_json(m):
    return {
        "field": m.field.name,
        "rows": m.rows,
        "cols": m.cols,
        "entries": [m.field.fmt(x) for x in m.entries],
    }
