"""Subspace counting over finite fields, and the error raised when an
exhaustive enumeration would exceed its cap."""

from __future__ import annotations


class InfeasibleEnumeration(RuntimeError):
    """An exhaustive search would exceed the configured cap."""


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True  # q itself prime


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
