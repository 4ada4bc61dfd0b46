"""Exact arithmetic for monomials and monomial ideals over a field.

Monomials are exponent vectors in a fixed ambient variable count; ideals
carry their unique minimal generating set in a canonical (lexicographic)
order, so equality of ideals is equality of generator tuples.  Everything
is immutable and safe to share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "AmbientMismatchError",
    "Monomial",
    "MonomialIdeal",
    "parse_monomial",
    "parse_ideal",
]


class AmbientMismatchError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


@dataclass(frozen=True, order=True)
class Monomial:
    """A monomial x^a, stored as its exponent vector.

    The all-zero vector is the unit monomial 1.  Ordering is lexicographic
    on exponent vectors, which is the canonical generator order.
    """

    exponents: tuple

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent in %r" % (exps,))
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def unit(cls, n):
        return cls((0,) * n)

    @classmethod
    def variable(cls, i, n):
        """x_i in an n-variable ring, 1-indexed."""
        if not 1 <= i <= n:
            raise ValueError("variable index %d out of range [1, %d]" % (i, n))
        return cls(tuple(1 if j == i - 1 else 0 for j in range(n)))

    @classmethod
    def from_support(cls, indices, n):
        """Squarefree monomial with the given 1-indexed support."""
        idx = set(indices)
        return cls(tuple(1 if j + 1 in idx else 0 for j in range(n)))

    @property
    def n_vars(self):
        return len(self.exponents)

    def degree(self):
        return sum(self.exponents)

    def support(self):
        """1-indexed variable indices with positive exponent."""
        return tuple(i + 1 for i, e in enumerate(self.exponents) if e > 0)

    def is_unit(self):
        return all(e == 0 for e in self.exponents)

    def _check_ambient(self, other):
        if len(self.exponents) != len(other.exponents):
            raise AmbientMismatchError(
                "monomials in %d and %d variables"
                % (len(self.exponents), len(other.exponents))
            )

    def __mul__(self, other):
        self._check_ambient(other)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        return Monomial(tuple(e * k for e in self.exponents))

    def lcm(self, other):
        self._check_ambient(other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def gcd(self, other):
        self._check_ambient(other)
        return Monomial(tuple(min(a, b) for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other):
        self._check_ambient(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def colon(self, u):
        """self / gcd(self, u): the generator image under (I : u)."""
        self._check_ambient(u)
        return Monomial(tuple(max(a - b, 0) for a, b in zip(self.exponents, u.exponents)))

    def __str__(self):
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append("x%d" % (i + 1))
            elif e > 1:
                parts.append("x%d^%d" % (i + 1, e))
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return "Monomial(%r)" % (self.exponents,)


def _minimal_monomials(raw):
    """Unique minimal elements of a set of monomials under divisibility.

    Duplicates are dropped; equal-degree distinct monomials never divide
    one another, so only strictly smaller degrees need checking.
    """
    mons = sorted(set(raw), key=lambda m: (m.degree(), m.exponents))
    kept = []
    for u in mons:
        du = u.degree()
        if any(v.divides(u) for v in kept if v.degree() < du):
            continue
        kept.append(u)
    return kept


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal with its canonical minimal generating set.

    The zero ideal has no generators; the whole ring is represented by the
    single generator 1.  The constructor minimalizes, dedupes and sorts,
    so any two equal ideals compare equal as dataclasses.
    """

    n_vars: int
    gens: tuple

    def __init__(self, n_vars, gens=()):
        gens = tuple(gens)
        for g in gens:
            if g.n_vars != n_vars:
                raise AmbientMismatchError(
                    "generator in %d variables, ring has %d" % (g.n_vars, n_vars)
                )
        if any(g.is_unit() for g in gens):
            canonical = (Monomial.unit(n_vars),)
        else:
            canonical = tuple(sorted(_minimal_monomials(gens)))
        object.__setattr__(self, "n_vars", int(n_vars))
        object.__setattr__(self, "gens", canonical)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    @classmethod
    def whole_ring(cls, n):
        return cls(n, (Monomial.unit(n),))

    @classmethod
    def principal(cls, u):
        return cls(u.n_vars, (u,))

    @classmethod
    def maximal(cls, n):
        """The irrelevant maximal ideal (x_1, ..., x_n)."""
        return cls(n, tuple(Monomial.variable(i, n) for i in range(1, n + 1)))

    @classmethod
    def variable_prime(cls, indices, n):
        """Prime ideal generated by the variables with 1-indexed indices."""
        return cls(n, tuple(Monomial.variable(i, n) for i in indices))

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.gens

    def is_whole_ring(self):
        return len(self.gens) == 1 and self.gens[0].is_unit()

    def contains(self, u):
        """Membership: some generator divides u."""
        return any(g.divides(u) for g in self.gens)

    def is_complete_intersection(self):
        """True iff the minimal generators have pairwise disjoint supports.

        The zero ideal is vacuously a complete intersection.
        """
        seen = set()
        for g in self.gens:
            if g.is_unit():
                return False
            sup = set(g.support())
            if sup & seen:
                return False
            seen |= sup
        return True

    # -- arithmetic ----------------------------------------------------

    def _check_ambient(self, other):
        if self.n_vars != other.n_vars:
            raise AmbientMismatchError(
                "ideals in %d and %d variables" % (self.n_vars, other.n_vars)
            )

    def __add__(self, other):
        self._check_ambient(other)
        return MonomialIdeal(self.n_vars, self.gens + other.gens)

    def __mul__(self, other):
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.n_vars)
        return MonomialIdeal(
            self.n_vars, tuple(g * h for g in self.gens for h in other.gens)
        )

    def power(self, t):
        """t-th power; t = 0 gives the whole ring."""
        if t < 0:
            raise ValueError("negative power")
        result = MonomialIdeal.whole_ring(self.n_vars)
        # iterated product keeps every intermediate generating set minimal
        for _ in range(t):
            result = result * self
        return result

    def intersect(self, other):
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.n_vars)
        return MonomialIdeal(
            self.n_vars, tuple(g.lcm(h) for g in self.gens for h in other.gens)
        )

    def colon(self, u):
        """(I : u) for a monomial u."""
        if u.n_vars != self.n_vars:
            raise AmbientMismatchError(
                "monomial in %d variables, ideal in %d" % (u.n_vars, self.n_vars)
            )
        return MonomialIdeal(self.n_vars, tuple(g.colon(u) for g in self.gens))

    def scale(self, u):
        """The product u * I for a monomial u."""
        return MonomialIdeal(self.n_vars, tuple(u * g for g in self.gens))

    # -- ring maps -----------------------------------------------------

    def restrict(self, k):
        """Intersection with the subring on the first k variables.

        Keeps the generators supported on x_1..x_k, re-indexed to ambient k.
        """
        if not 1 <= k < self.n_vars:
            raise ValueError("k=%d out of range [1, %d)" % (k, self.n_vars))
        kept = [
            Monomial(g.exponents[:k])
            for g in self.gens
            if all(e == 0 for e in g.exponents[k:])
        ]
        return MonomialIdeal(k, kept)

    def extend(self, extra):
        """The extension ideal I*S' in a ring with `extra` more variables."""
        if extra < 0:
            raise ValueError("extra must be >= 0")
        pad = (0,) * extra
        return MonomialIdeal(
            self.n_vars + extra, tuple(Monomial(g.exponents + pad) for g in self.gens)
        )

    def polarize(self):
        """Standard polarization: returns (squarefree ideal, added variables).

        Variable i with maximal exponent e_i across the generators consumes
        e_i - 1 fresh variables, appended after the original n in (variable,
        slot) order.  Projective dimension is preserved.
        """
        n = self.n_vars
        caps = [0] * n
        for g in self.gens:
            for i, e in enumerate(g.exponents):
                caps[i] = max(caps[i], e)
        added = sum(max(c - 1, 0) for c in caps)
        # slot j >= 2 of variable i lives at position offset[i] + (j - 2)
        offset = []
        pos = n
        for c in caps:
            offset.append(pos)
            pos += max(c - 1, 0)
        new_gens = []
        for g in self.gens:
            exps = [0] * (n + added)
            for i, e in enumerate(g.exponents):
                if e >= 1:
                    exps[i] = 1
                for j in range(2, e + 1):
                    exps[offset[i] + j - 2] = 1
            new_gens.append(Monomial(tuple(exps)))
        return MonomialIdeal(n + added, new_gens), added

    # -- misc ----------------------------------------------------------

    def lcm_of_gens(self):
        """lcm of all minimal generators (unit for the zero ideal)."""
        top = Monomial.unit(self.n_vars)
        for g in self.gens:
            top = top.lcm(g)
        return top

    def __str__(self):
        if self.is_zero():
            return "0"
        return ", ".join(str(g) for g in self.gens)

    def __repr__(self):
        return "MonomialIdeal(%d, [%s])" % (self.n_vars, str(self))


_TOKEN = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_monomial(text, n):
    """Parse the interchange grammar, e.g. 'x1^2*x3' or '1'."""
    text = text.strip()
    if text == "1":
        return Monomial.unit(n)
    exps = [0] * n
    for token in text.split("*"):
        m = _TOKEN.match(token.strip())
        if m is None:
            raise ValueError("bad monomial token %r" % token)
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise ValueError("variable index %d out of range [1, %d]" % (i, n))
        exps[i - 1] += int(m.group(2) or 1)
    return Monomial(tuple(exps))


def parse_ideal(text, n):
    """Parse a comma-separated generator list; '0' is the zero ideal."""
    text = text.strip()
    if text == "0" or not text:
        return MonomialIdeal.zero(n)
    return MonomialIdeal(n, tuple(parse_monomial(t, n) for t in text.split(",")))
