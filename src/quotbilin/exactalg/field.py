"""Exact scalar arithmetic over the rationals and prime fields.

A scalar is a raw Python value paired with the :class:`Field` that knows how
to operate on it: over Q an ``int`` when it is integral and a reduced
``fractions.Fraction`` otherwise, over F_p an ``int`` in ``[0, p)``.  Every
operation is exact; nothing here ever rounds.  ``int`` and ``Fraction``
compare and hash alike (``hash(Fraction(n)) == hash(n)``), so a sum such as
``Fraction(1, 2) + Fraction(1, 2)`` may stay a ``Fraction`` without breaking
equality; the values this package builds by division go through
:func:`rational`, which gives the ``int`` form whenever it can.  Prime-field
inverses use Fermat's little theorem.

Fields serialize to the strings ``"Q"`` and ``"F:<p>"``; elements serialize
to ``"num/den"`` (or ``"num"``) over Q and to decimal strings in ``[0, p)``
over F_p.
"""

from __future__ import annotations

import random
from fractions import Fraction


class FieldError(ValueError):
    """Malformed field spec, mixed-field operands, or unsupported modulus."""


# Miller-Rabin with the first 13 primes as bases has no strong pseudoprime
# below this bound (Sorenson and Webster, 2015), so it decides primality there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ``FieldError`` for n >= _MR_BOUND."""
    if n >= _MR_BOUND:
        raise FieldError(f"modulus {n} is too large: primality is decided below {_MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for q in _MR_BASES:
        x = pow(q, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rational(num: int, den: int):
    """The rational num/den (den != 0): an ``int`` when it is integral, else
    a reduced ``Fraction``."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


class Field:
    """Common interface for exact computation fields."""

    name: str
    characteristic: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def canonical(self, a):
        """The representative of ``a`` shared by every element equal to it,
        so that hashing it agrees with :meth:`eq`."""
        raise NotImplementedError

    def fmt(self, a) -> str:
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    def sample(self, rng: random.Random):
        """A random element, small enough to keep exact arithmetic cheap."""
        raise NotImplementedError

    def sample_nonzero(self, rng: random.Random):
        while True:
            a = self.sample(rng)
            if not self.is_zero(a):
                return a

    def elements(self):
        """Iterate all field elements (finite fields only)."""
        raise FieldError(f"cannot enumerate elements of {self.name}")

    def __repr__(self):
        return self.name


class RationalField(Field):
    name = "Q"
    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return rational(a.denominator, a.numerator)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0 in Q")
        return rational(a.numerator * b.denominator, a.denominator * b.numerator)

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def canonical(self, a):
        return a

    def fmt(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse(self, s):
        # int(s, 10) reads the integer strings without Fraction's regex and
        # raises for the rest; the base makes it refuse non-strings, which
        # Fraction reads exactly (int(2.5) would truncate).  Fraction would
        # read true as 1, and raises ZeroDivisionError on "5/0": both are
        # malformed input, so both raise ValueError.
        try:
            return int(s, 10)
        except (TypeError, ValueError):
            if type(s) is bool:
                raise ValueError(f"an element of Q must be a number or a string, got {s!r}") from None
            try:
                a = Fraction(s)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {s!r}") from None
            return a.numerator if a.denominator == 1 else a

    def sample(self, rng, bound: int = 4):
        return rng.randint(-bound, bound)


class PrimeField(Field):
    characteristic: int

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F:{p}"

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def canonical(self, a):
        return a % self.p

    def fmt(self, a):
        return str(a % self.p)

    def parse(self, s):
        """An integer string, a JSON integer or an integral JSON number, mod
        p; ``int`` alone would truncate 2.7 and read true as 1."""
        t = type(s)
        if t is str or t is int or (t is float and s.is_integer()):
            return int(s) % self.p
        raise ValueError(f"an element of {self.name} must be an integer, got {s!r}")

    def sample(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def parse_field(spec: str) -> Field:
    """Parse a field spec string: ``"Q"`` or ``"F:<p>"``; anything that is
    not a string (a JSON null, number, bool, list or object) is malformed."""
    if not isinstance(spec, str):
        raise FieldError(f"a field spec must be a string, got {spec!r}")
    if spec == "Q":
        return QQ
    if spec.startswith("F:"):
        try:
            p = int(spec[2:])
        except ValueError as exc:
            raise FieldError(f"bad field spec {spec!r}") from exc
        return GF(p)
    raise FieldError(f"bad field spec {spec!r}")


def same_field(*fields: Field) -> Field:
    """Check all arguments are the same field and return it."""
    first = fields[0]
    for f in fields[1:]:
        if f is not first and f != first:
            raise FieldError(f"mixed fields: {first.name} vs {f.name}")
    return first
