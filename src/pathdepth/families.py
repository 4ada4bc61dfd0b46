"""Constructors for the path/cycle ideal families and their constants.

I(n, m) is the m-path ideal of the path graph P_n; J(n, m) the m-path
ideal of the cycle graph C_n.  The numeric companions are the closed-form
depth value phi(n, m, t), the cycle constants (d, t0, alpha, r, s) and the
witness monomials used for colon reductions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .monomials import Monomial, MonomialIdeal

__all__ = [
    "CycleColonData",
    "NoWitnessParameters",
    "path_ideal",
    "cycle_ideal",
    "phi",
    "t0_alpha",
    "witness_w",
    "witness_l1",
    "u_ideal",
]


class NoWitnessParameters(ValueError):
    """No t0 <= n-1 admits a positive alpha with m*t0 = alpha*n + d."""


def path_ideal(n, m):
    """(x_1..x_m, x_2..x_{m+1}, ..., x_{n-m+1}..x_n), n-m+1 generators."""
    if not 1 <= m <= n:
        raise ValueError("path_ideal requires 1 <= m <= n, got (%d, %d)" % (n, m))
    gens = [
        Monomial.from_support(range(i, i + m), n) for i in range(1, n - m + 2)
    ]
    return MonomialIdeal(n, gens)


def cycle_ideal(n, m):
    """The n generators given by m cyclically consecutive variables."""
    if not 2 <= m < n:
        raise ValueError("cycle_ideal requires 2 <= m < n, got (%d, %d)" % (n, m))
    gens = [
        Monomial.from_support(((i + j - 1) % n + 1 for j in range(m)), n)
        for i in range(1, n + 1)
    ]
    return MonomialIdeal(n, gens)


def phi(n, m, t):
    """Closed-form depth of S/I(n,m)^t; exact integer arithmetic only."""
    if not (1 <= m <= n and t >= 1):
        raise ValueError(
            "phi requires 1 <= m <= n and t >= 1, got (%d, %d, %d)" % (n, m, t)
        )
    if t > n + 1 - m:
        return m - 1
    q = n - t + 2
    return q - q // (m + 1) - -(-q // (m + 1))


@dataclass(frozen=True)
class CycleColonData:
    """Cycle constants: d = gcd(n, m), m*t0 = alpha*n + d with t0 <= n-1
    maximal and alpha >= 1, r = n/d, s = m/d."""

    n: int
    m: int
    d: int
    t0: int
    alpha: int
    r: int
    s: int


def t0_alpha(n, m):
    """Scan t0 from n-1 downward; the first valid value is the maximal one."""
    if not 2 <= m < n:
        raise ValueError("t0_alpha requires 2 <= m < n, got (%d, %d)" % (n, m))
    d = math.gcd(n, m)
    for t0 in range(n - 1, 0, -1):
        num = m * t0 - d
        if num > 0 and num % n == 0:
            alpha = num // n
            if alpha >= 1:
                return CycleColonData(n, m, d, t0, alpha, n // d, m // d)
    raise NoWitnessParameters(
        "no t0 in [1, %d] with positive alpha for (n, m) = (%d, %d)" % (n - 1, n, m)
    )


def witness_w(n, m, t):
    """w_t = (x_1...x_n)^alpha * (x_1...x_m)^(t - t0); requires t >= t0."""
    data = t0_alpha(n, m)
    if t < data.t0:
        raise ValueError("witness_w requires t >= t0 = %d, got t = %d" % (data.t0, t))
    w = Monomial.from_support(range(1, n + 1), n) ** data.alpha
    head = Monomial.from_support(range(1, m + 1), n) ** (t - data.t0)
    return w * head


def witness_l1(n, t):
    """x_1^(t-1) ... x_{n-1}^(t-1) * x_n^(n-2); requires n >= 2, t >= n-1."""
    if n < 2 or t < n - 1:
        raise ValueError("witness_l1 requires n >= 2 and t >= n - 1")
    return Monomial(tuple([t - 1] * (n - 1) + [n - 2]))


def u_ideal(n, d):
    """Intersection of the d residue-class variable primes mod d."""
    if d < 2:
        raise ValueError("u_ideal requires d >= 2")
    if n % d != 0:
        raise ValueError("u_ideal requires d | n, got (%d, %d)" % (n, d))
    return functools.reduce(
        MonomialIdeal.intersect,
        (MonomialIdeal.variable_prime(range(c, n + 1, d), n) for c in range(1, d + 1)),
    )
