"""The Q entry paths as the library wrote them with one Python step per
entry, before they moved to C calls: ``_primitive`` tested every entry's type
before clearing denominators, ``QQ.parse`` read every string through
``Fraction`` and ``matrix_to_json`` formatted every entry through
``Field.fmt``.  Kept as the references the fast paths must equal.  One rule
was added to ``QQ.parse`` since: a string whose exponent k has |k| at or past
``sys.get_int_max_str_digits()`` is refused, since 10**|k| would have more
digits than ``int`` reads from a string (0 means no limit)."""

import re
import sys
from fractions import Fraction
from math import gcd, lcm

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


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
    if isinstance(s, str):
        m = _EXPONENT.search(s)
        limit = sys.get_int_max_str_digits()
        if m and limit and abs(int(m.group(1))) >= limit:
            raise ValueError(f"the exponent of {s!r} is past the digit limit {limit}")
    a = Fraction(s)
    return a.numerator if a.denominator == 1 else a


def reference_matrix_to_json(m):
    return {
        "field": m.field.name,
        "rows": m.rows,
        "cols": m.cols,
        "entries": [m.field.fmt(x) for x in m.entries],
    }
