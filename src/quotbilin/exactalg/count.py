"""Subspace counting over finite fields, and the error raised when an
exhaustive enumeration would exceed its cap."""

from __future__ import annotations

from math import isqrt

from .field import _is_prime


class InfeasibleEnumeration(RuntimeError):
    """An exhaustive search would exceed the configured cap."""


def _integer_root(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q >= 1 and k >= 2, by Newton's method from
    above on integers."""
    if k == 2:
        return isqrt(q)
    x = 1 << -(-q.bit_length() // k)  # 2^ceil(bits/k) > q ** (1/k)
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_prime_power(q: int) -> bool:
    """Whether q = p^e for a prime p and e >= 1.

    Tries k = floor(log2 q) down to 2 and stops at the first exact integer
    k-th root r, taking r = q (k = 1) if there is none: q = p^e exactly when
    r is prime, for k is then e (a k > e gives no exact root).  So the cost
    is at most log2 q integer roots and one Miller-Rabin test, which raises
    ``FieldError`` for r too large to decide (see :func:`.field._is_prime`).
    """
    if q < 2:
        return False
    for k in range(q.bit_length() - 1, 1, -1):
        r = _integer_root(q, k)
        if r ** k == q:
            return _is_prime(r)
    return _is_prime(q)


def gaussian_binomial(d: int, r: int, q: int) -> int:
    """Number of d-dimensional quotients of F_q^r (equivalently subspaces).

    Evaluates prod_{i=0}^{d-1} (q^(r-i) - 1) / (q^(d-i) - 1) with exact
    integer arithmetic.
    """
    if d < 0 or r < 0 or d > r:
        raise ValueError(f"need 0 <= d <= r, got d={d}, r={r}")
    if not is_prime_power(q):
        raise ValueError(f"q={q} is not a prime power")
    num = 1
    den = 1
    for i in range(d):
        num *= q ** (r - i) - 1
        den *= q ** (d - i) - 1
    if num % den:
        raise ArithmeticError(
            f"Gaussian binomial [{r} choose {d}]_{q}: {num} not divisible by {den}")
    return num // den
