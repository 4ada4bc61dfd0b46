"""Exact arithmetic for monomials and monomial ideals over a field, the
kernel layer under the depth and Stanley-depth engines.

Monomials are exponent vectors in a fixed ambient variable count; ideals
carry their unique minimal generating set in a canonical (lexicographic)
order, so equality of ideals is equality of generator tuples.  Everything
is immutable and safe to share; exponents and variable counts must be
integers (`operator.index`), so a float raises TypeError.

Ideal arithmetic runs on exponent tuples.  Sums, products, powers, colons
and intersections pass their candidates once through `_minimal`, which
keeps a tuple iff the bitset of the candidates below it (`_dividing` over
`_below_bitsets` rows, which the engines read too) is its own bit.  Maps
that keep a minimal set minimal only order their tuples.

The engines' boxes of exponent vectors are bitsets too, bit r standing
for the point of lex rank r, and one record (`_Box`) and one builder
(`_build_box`) serve both: the lcm-lattice box of the depth engine and the
Stanley-depth box.  Each given point sets one seed bit, the only step per
point; the points above some seed are the seed closed upward by a few
masked shifts per axis (`_up`), over "x_i >= c" patterns
(`_at_least_patterns`) built only at the ranks that the shifts and the
engines read.  `_count_classes` sorts a bitset's points by how many of
some patterns hold them (a poset point's label), and `_box_points` reads
a bitset's points off the box in lex order through `_selectors`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, chain, compress, product
from operator import add, index, mul, sub

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
        exps = tuple(map(index, self.exponents))
        if min(exps, default=0) < 0:
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
        return _monomial(tuple(map(add, self.exponents, other.exponents)))

    def __pow__(self, k):
        if index(k) < 0:
            raise ValueError("negative power")
        return _monomial(tuple(e * k for e in self.exponents))

    def lcm(self, other):
        self._check_ambient(other)
        return _monomial(tuple(map(max, self.exponents, other.exponents)))

    def gcd(self, other):
        self._check_ambient(other)
        return _monomial(tuple(map(min, self.exponents, other.exponents)))

    def divides(self, other):
        self._check_ambient(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def colon(self, u):
        """self / gcd(self, u): the generator image under (I : u)."""
        self._check_ambient(u)
        return _monomial(tuple(max(a - b, 0) for a, b in zip(self.exponents, u.exponents)))

    def __str__(self):
        return "*".join(
            "x%d" % (i + 1) if e == 1 else "x%d^%d" % (i + 1, e)
            for i, e in enumerate(self.exponents) if e
        ) or "1"

    def __repr__(self):
        return "Monomial(%r)" % (self.exponents,)


def _monomial(exponents):
    """Monomial(exponents) for a tuple of non-negative ints, unchecked."""
    m = object.__new__(Monomial)
    object.__setattr__(m, "exponents", exponents)
    return m


# _AT_MOST[v] translates an exponent byte x into the digit "1" when x <= v
# and "0" otherwise
_AT_MOST = tuple(b"1" * (v + 1) + b"0" * (255 - v) for v in range(256))


def _below_bitsets(vectors, caps=None):
    """below[i][v], v = 0..caps[i]: bitset of the vectors with x_i exponent <= v.

    Bit j stands for vectors[j].  caps[i] must be at least the largest
    exponent of x_i and defaults to it, which bounds every lcm-lattice
    element.  A column whose cap fits in a byte is one byte string, last
    vector first, and each of its rows is that string translated by
    `_AT_MOST[v]` into binary digits and read as one int, so no step runs
    per vector in Python.  A wider column puts each vector's digit in the
    bucket of its exponent and reads one string of binary digits per
    exponent that occurs; a row at any other value repeats the row below.
    """
    columns = list(zip(*vectors))
    if caps is None:
        caps = [max(column) for column in columns]
    below = []
    for column, cap in zip(columns, caps):
        if cap < len(_AT_MOST):
            digits = bytes(column[::-1])
            below.append([int(digits.translate(_AT_MOST[v]), 2) for v in range(cap + 1)])
            continue
        by_value = [[] for _ in range(cap + 1)]
        for d, e in enumerate(reversed(column)):
            by_value[e].append(d)
        digits = bytearray(b"0" * len(column))
        row, bits = [], 0
        for positions in by_value:
            if positions:
                for d in positions:
                    digits[d] = 49  # ord("1")
                bits = int(digits, 2)
            row.append(bits)
        below.append(row)
    return below


def _dividing(exponents, below):
    """Bitset of the vectors below x^exponents in every coordinate.

    For generator rows this is the set of generators dividing x^exponents,
    non-zero iff x^exponents lies in the ideal; each exponent must be at
    most its row's cap.
    """
    bits = -1
    for row, e in zip(below, exponents):
        bits &= row[e]
    return bits


def _at_least_patterns(wanted, span, step, size):
    """{c: bitset of the points with x_i >= c} for each c in `wanted`, in a
    box of `size` points, bit r standing for the point of lex rank r,
    where x_i takes the ranks 0..span-1 and a step +1 in x_i is a shift by
    `step`; c = span gives 0.

    The patterns have period L = span * step.  With R the bitset of the
    multiples of L below size, made by doubling in log2(size / L) shifts,
    x_i >= c is (R << L) - (R << c * step): in each period, the bits from
    c * step up.  So one coordinate costs one R and each c two shifts and
    a subtraction, none a step per bit in Python.
    """
    period = span * step
    repeats, covered = 1, period
    while covered < size:
        repeats |= repeats << covered
        covered *= 2
    repeats &= (1 << size) - 1
    return {c: (repeats << period) - (repeats << c * step) for c in wanted}


@dataclass
class _Box:
    """A box of vectors as bitsets, bit r standing for the point of lex
    rank r: coordinate i takes values[i], a step +1 in its rank is a
    shift by strides[i], `every` holds all points, at_least[i][c] those
    with x_i at rank c or above for c = 1, the powers of two below the
    span and the top rank, `seed` one bit per given point and `inside`
    the points above some seed point (`_build_box`)."""

    values: list
    strides: list
    every: int
    at_least: list
    seed: int
    inside: int


def _build_box(values, seeds):
    """The `_Box` over values[i] in coordinate i, seeded at the points of
    rank tuples `seeds`.

    Each seed sets one bit of a `bytearray`, the only step per seed.
    `inside` is the seed closed upward along every axis (`_up`), so no
    bitset over the box is built per seed, and the "x_i >= c" patterns
    (`_at_least_patterns`) are built only at the ranks that `_up` and the
    engines read, about log2(span) of them per coordinate.
    """
    spans = [len(vs) for vs in values]
    strides = list(accumulate(spans[:0:-1], mul, initial=1))[::-1]
    size = strides[0] * spans[0]
    at_least = []
    for span, step in zip(spans, strides):
        wanted, k = {1, span - 1}, 2
        while k < span:
            wanted.add(k)
            k *= 2
        at_least.append(_at_least_patterns(wanted, span, step, size))
    seed = bytearray(size + 7 >> 3)
    for g in seeds:
        r = sum(map(mul, g, strides))
        seed[r >> 3] |= 1 << (r & 7)
    seed = int.from_bytes(seed, "little")
    # `inside` starts as the seed, which `_up` closes
    box = _Box(values, strides, (1 << size) - 1, at_least, seed, seed)
    box.inside = _up(box, seed, range(len(spans)))
    return box


def _up(box, bits, axes):
    """`bits` closed upward along each axis i in `axes`: a point is held
    iff bits holds it or one below it in x_i with the other coordinates
    equal.

    X |= (X << k * strides[i]) & at_least[i][k] for k = 1, 2, 4, ...
    below the span makes X hold every point with a set bit at most 2k - 1
    ranks below it in x_i, and the mask drops what a shift carries into
    the next run of x_i: a few masked shifts per axis.
    """
    for i in axes:
        span, step, ge = len(box.values[i]), box.strides[i], box.at_least[i]
        k = 1
        while k < span:
            bits |= (bits << k * step) & ge[k]
            k *= 2
    return bits


def _box_points(box, bits):
    """The points of the box in `bits`, as tuples of values in lex order,
    read off the box through `_selectors`."""
    return list(compress(product(*box.values), _selectors(bits)))


def _count_classes(patterns, among):
    """exactly[k], k = 0..len(patterns): the bits of `among` set in exactly
    k of the bitsets `patterns`, a bit-sliced count."""
    exactly = [among] + [0] * len(patterns)
    for i, bits in enumerate(patterns):
        for k in range(i + 1, 0, -1):
            exactly[k] = (exactly[k] & ~bits) | (exactly[k - 1] & bits)
        exactly[0] &= ~bits
    return exactly


# binary digits to the bytes 0 and 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _selectors(bits):
    """One byte per bit of `bits` up to its highest set one, lowest first,
    1 where it is set: selectors for `itertools.compress`."""
    return format(bits, "b").encode().translate(_DIGIT_VALUES)[::-1]


def _minimal(vectors):
    """The minimal elements of a collection of exponent tuples under the
    componentwise order, distinct and in lex order.

    A vector is kept iff the only candidate below it is itself: one AND
    of `_below_bitsets` rows per vector, no step per pair in Python.  A
    column whose largest exponent is past the byte path is first replaced
    by the ranks of its values, which keeps the order between the vectors
    and bounds its rows by the number of vectors, not by that exponent.
    """
    vectors = sorted(set(vectors))
    if len(vectors) < 2:
        return vectors
    columns = list(zip(*vectors))
    caps = list(map(max, columns))
    keys = vectors
    if max(caps) >= len(_AT_MOST):
        columns = [_ranks(c) if cap >= len(_AT_MOST) else c for c, cap in zip(columns, caps)]
        caps = list(map(max, columns))
        keys = list(zip(*columns))
    below = _below_bitsets(keys, caps)
    return [v for v, key in zip(vectors, keys) if _dividing(key, below).bit_count() == 1]


def _ranks(column):
    """Each value of `column` replaced by its index among the distinct values."""
    rank = {v: r for r, v in enumerate(sorted(set(column)))}
    return tuple(map(rank.__getitem__, column))


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
        n_vars = index(n_vars)
        by_exponents = {g.exponents: g for g in gens}
        for e in by_exponents:
            if len(e) != n_vars:
                raise AmbientMismatchError(
                    "generator in %d variables, ring has %d" % (len(e), n_vars)
                )
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "gens", tuple(map(by_exponents.get, _minimal(by_exponents))))

    @classmethod
    def _of(cls, n_vars, vectors):
        """The ideal whose minimal generators in lex order have exponents `vectors`."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "n_vars", n_vars)
        object.__setattr__(ideal, "gens", tuple(map(_monomial, vectors)))
        return ideal

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    @classmethod
    def whole_ring(cls, n):
        return cls(n, (Monomial.unit(n),))

    @classmethod
    def principal(cls, u):
        return cls._of(u.n_vars, (u.exponents,))

    @classmethod
    def maximal(cls, n):
        """The irrelevant maximal ideal (x_1, ..., x_n)."""
        return cls.variable_prime(range(1, n + 1), n)

    @classmethod
    def variable_prime(cls, indices, n):
        """Prime ideal generated by the variables with 1-indexed indices."""
        return cls._of(index(n), sorted({Monomial.variable(i, n).exponents for i in indices}))

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
        supports = [g.support() for g in self.gens]
        return all(supports) and len(set(chain(*supports))) == sum(map(len, supports))

    # -- arithmetic ----------------------------------------------------

    def _check_ambient(self, other):
        if self.n_vars != other.n_vars:
            raise AmbientMismatchError(
                "ideals in %d and %d variables" % (self.n_vars, other.n_vars)
            )

    def _exponents(self):
        return [g.exponents for g in self.gens]

    def __add__(self, other):
        self._check_ambient(other)
        return MonomialIdeal._of(self.n_vars, _minimal(self._exponents() + other._exponents()))

    def __mul__(self, other):
        self._check_ambient(other)
        sums = [tuple(map(add, a, b)) for a in self._exponents() for b in other._exponents()]
        return MonomialIdeal._of(self.n_vars, _minimal(sums))

    def power(self, t):
        """t-th power; t = 0 gives the whole ring."""
        if t < 0:
            raise ValueError("negative power")
        if t == 0:
            return MonomialIdeal.whole_ring(self.n_vars)
        base = vectors = self._exponents()
        for _ in range(t - 1):
            vectors = _minimal([tuple(map(add, a, b)) for a in vectors for b in base])
        return MonomialIdeal._of(self.n_vars, vectors)

    def intersect(self, other):
        self._check_ambient(other)
        lcms = [tuple(map(max, a, b)) for a in self._exponents() for b in other._exponents()]
        return MonomialIdeal._of(self.n_vars, _minimal(lcms))

    def colon(self, u):
        """(I : u) for a monomial u."""
        if u.n_vars != self.n_vars:
            raise AmbientMismatchError(
                "monomial in %d variables, ideal in %d" % (u.n_vars, self.n_vars)
            )
        w, zero = u.exponents, (0,) * self.n_vars
        quotients = [tuple(map(max, map(sub, a, w), zero)) for a in self._exponents()]
        return MonomialIdeal._of(self.n_vars, _minimal(quotients))

    def scale(self, u):
        """The product u * I for a monomial u."""
        # adding u keeps both minimality and lex order
        return MonomialIdeal._of(self.n_vars, [(u * g).exponents for g in self.gens])

    # -- ring maps -----------------------------------------------------

    def restrict(self, k):
        """Intersection with the subring on the first k variables.

        Keeps the generators supported on x_1..x_k, re-indexed to ambient k.
        """
        if not 1 <= k < self.n_vars:
            raise ValueError("k=%d out of range [1, %d)" % (k, self.n_vars))
        return MonomialIdeal._of(k, [a[:k] for a in self._exponents() if not any(a[k:])])

    def extend(self, extra):
        """The extension ideal I*S' in a ring with `extra` more variables."""
        if extra < 0:
            raise ValueError("extra must be >= 0")
        pad = (0,) * extra
        return MonomialIdeal._of(self.n_vars + extra, [a + pad for a in self._exponents()])

    def polarize(self):
        """Standard polarization: returns (squarefree ideal, added variables).

        Variable i with maximal exponent e_i across the generators consumes
        e_i - 1 fresh variables, appended after the original n in (variable,
        slot) order.  Projective dimension is preserved, and so is
        divisibility between generators, so the image is minimal.
        """
        caps = self.lcm_of_gens().exponents
        # tails[i][e]: the fresh variables, slots 2..caps[i], of x_i^e
        tails = [[(1,) * (e - 1) + (0,) * (c - max(e, 1)) for e in range(c + 1)] for c in caps]
        ones = (1,) * self.n_vars
        polarized = sorted(
            tuple(map(min, a, ones)) + tuple(chain(*map(list.__getitem__, tails, a)))
            for a in self._exponents()
        )
        added = sum(max(c - 1, 0) for c in caps)
        return MonomialIdeal._of(self.n_vars + added, polarized), added

    # -- misc ----------------------------------------------------------

    def lcm_of_gens(self):
        """lcm of all minimal generators (unit for the zero ideal)."""
        return _monomial(tuple(map(max, zip(*self._exponents()))) or (0,) * self.n_vars)

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
