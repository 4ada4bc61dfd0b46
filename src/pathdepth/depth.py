"""Exact depth of S/I via multigraded Betti numbers.

The candidate multidegrees are the elements of the lcm lattice of the
minimal generators, and for each multidegree a the Betti number
beta_{i,a}(S/I) is the reduced homology rank, in dimension i-2 and
characteristic 0, of the Koszul strand complex at a.  That complex is
homotopy equivalent to the order complex of the open interval below a in
the lcm lattice; the tests compute that homology directly as a
cross-check on small inputs.  depth = n - pd by Auslander-Buchsbaum.

`betti` builds the whole table.  `depth_quotient` needs only the last
nonzero row, pd = max{i : beta_{i,a} != 0}.  Since beta_{i,a} = 0 for
i > s = |supp(a)|, the walk examines the lattice elements by decreasing
support, computes only the homology that could raise pd, and stops once
no element left can.  It starts at pd = 1, from the generators, and
examines every element of support at least pd + 1, its top row
beta_{s,a} among the dimensions it asks; that row is non-zero iff the
complex at a is the boundary of the simplex on the support.

Where the lattice is read off its box, depth is first looked at from
below, by local cohomology, with no lattice, face or rank: depth =
min{i : H^i_m(S/I) != 0}, and by Takayama's formula every degree of H^0
and H^1 is a box point whose degree complex is {empty face} or, for H^1,
disconnected, all tested at once by masked shifts of the box's bitset of
points in I (`_box_low_depth`).  A depth of 0 or 1 ends the call there;
J(8,6)^7, depth 1 on a box of 2^24 points, takes about 1 s where the
walk took 25 s.  Otherwise pd <= n - 2, and the same walk runs with that
cap: the cones, whose Betti numbers all vanish, are found first for
every point at once by n^2 masked shifts (`_box_cones`), only the other
lattice points are decoded and walked, no homology above Betti index
n - 2 is asked, and the walk stops once pd reaches n - 2.  On J(7,3)^3
it reads the facets of 165 elements where it read 1,297, 1,100 of them
cones, and on J(8,2)^4 of 20 where it read 873.
`max_ideal_associated` reads no homology either: on the box the degrees
of H^0, the socle's w being the tops of their ranges, and where the
lattice is grown plainly the row i = n, off the facets of each
full-support element, the complex being the boundary of the simplex iff
it has exactly n facets of n - 1 vertices each (`_socle_row`).
Ranks come from fraction-free integer elimination.

Both `betti` and the walk read each Koszul strand complex off its facets
first (`_facets`, `_strand_homology`).  The complex is the union of one
simplex per generator dividing x^a, so its facets come from splitting
the bitset of those generators on the support rows.  By the nerve
theorem it has the reduced homology of the nerve of its facets: when the
facets share a vertex it is a cone and builds no face, with f facets it
has no homology above dimension f - 2, and otherwise its faces are grown
off the facet-vertex incidence from the smaller side (`_strand_faces`):
the nerve's when f is below the support size, its own when it is not.

The hot loops run on flat data: bitsets and exponent tuples.  The
lattice is read off one bitset over the box of the vectors whose every
coordinate is 0 or some generator's exponent there (`_lcm_box`), the
kernel layer's box record that the Stanley-depth engine builds too
(`monomials._build_box`): one seed bit per generator, the only step per
generator, and the points in I that seed closed upward by a few masked
shifts per axis (`monomials._up`).  A nonzero point is in the lattice
iff each of its positive coordinates is reached by a generator below
it, that is, iff for every i its x_i is 0 or it lies in the seed closed
along every axis but i; those closures share their prefixes and are
made only where a reader asks for the lattice (`_box_lattice`).  A
reader decodes off the box only the points it reads
(`monomials._box_points`).  On a few generators, or where that box is
large for their number, the lattice is instead grown one generator at a
time, each new one lcm-ed with every element so far (`_plain_closure`);
`_lcm_box` picks the path from the number of generators and the size of
the box.  Faces, on either side of the incidence, are vertex bitmasks
grown off bitsets (`_grow_faces`), and the boundary maps flip bits.  The
bitsets of generators are the kernel layer's rows
(`monomials._below_bitsets` and `_dividing`), the ones ideal arithmetic
minimalizes with.  Monomials appear only in what the public functions
take and return.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce
from itertools import combinations, compress, product
from math import gcd, prod
from operator import and_, methodcaller

from .monomials import (
    Monomial, _below_bitsets, _box_points, _build_box, _dividing, _selectors, _up,
)

__all__ = [
    "DEFAULT_POLARIZATION_CAP",
    "UnitIdealError",
    "PolarizationCapError",
    "LcmLattice",
    "BettiTable",
    "DepthResult",
    "build_lcm_lattice",
    "reduced_homology",
    "betti",
    "depth_quotient",
    "depth_via_polarization",
    "max_ideal_associated",
]


class UnitIdealError(ValueError):
    """S/I = 0 has no depth; the unit ideal is rejected."""


class PolarizationCapError(RuntimeError):
    """Polarized variable count exceeds the configured cap."""


# ---------------------------------------------------------------------
# exact linear algebra


def rank_exact(columns):
    """Rank over Q of a sparse integer matrix given as columns {row: coeff}.

    Fraction-free integer elimination, exact and in characteristic 0.  A
    column whose lowest row r holds a stored pivot column's lowest entry is
    reduced by work := p*work - c*pivot, with p and c the pivot's and the
    column's entries at r divided by their gcd; that clears row r and keeps
    every entry an integer.  A column whose lowest row holds no pivot is
    divided by the gcd of its entries and stored as that row's pivot.
    """
    pivots = {}
    for col in columns:
        work = {r: c for r, c in col.items() if c}
        while work:
            r = min(work)
            piv = pivots.get(r)
            if piv is None:
                g = gcd(*work.values())
                if g != 1:
                    work = {k: v // g for k, v in work.items()}
                pivots[r] = work
                break
            p, c = piv[r], work[r]
            g = gcd(p, c)
            p, c = p // g, c // g
            if p != 1:
                work = {k: p * v for k, v in work.items()}
            for k, v in piv.items():
                val = work.get(k, 0) - c * v
                if val:
                    work[k] = val
                else:
                    del work[k]
    return len(pivots)


# ---------------------------------------------------------------------
# reduced simplicial homology


def _boundary_rank(faces, lower):
    """Rank of the boundary map from `faces`, all of one dimension d >= 0,
    to `lower`, the (d-1)-faces, [0] for d = 0; faces are vertex bitmasks.

    The facet of f that drops its j-th lowest vertex is f with that bit
    flipped, and it enters the column with sign (-1)^j."""
    index = {f: i for i, f in enumerate(lower)}
    columns = []
    for f in faces:
        column = {}
        sign = 1
        rest = f
        while rest:
            low = rest & -rest
            column[index[f ^ low]] = sign
            sign = -sign
            rest ^= low
        columns.append(column)
    return rank_exact(columns)


def _homology_from_top(faces, floor=-1, ceiling=None):
    """(d, reduced homology rank in dimension d), char 0, for d from the
    top dimension of the complex, or from `ceiling` where that is lower,
    down to floor.

    `faces` holds the nonempty faces as vertex bitmasks, each once.  Each
    boundary rank is taken once, as its dimension is reached, so a caller
    that stops early computes no rank below the last dimension it read,
    and the empty face, whose boundary is zero, takes none.  Under a
    ceiling c the first rank taken is that of the boundary out of
    dimension c + 1, which the rank at c needs; none above it is taken.
    """
    by_dim = {-1: [0]}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim) if ceiling is None else min(max(by_dim), ceiling)
    rank_above = _boundary_rank(by_dim[top + 1], by_dim[top]) if top + 1 in by_dim else 0
    for d in range(top, floor - 1, -1):
        rank = _boundary_rank(by_dim[d], by_dim[d - 1]) if d >= 0 else 0
        yield d, len(by_dim[d]) - rank - rank_above
        rank_above = rank


def reduced_homology(faces):
    """Reduced homology ranks (char 0) of a simplicial complex.

    `faces` holds the nonempty faces as iterables of vertices; the empty
    face is implicit.  Returns {dim: rank} with only nonzero ranks, where
    the complex {empty face} has rank 1 in dimension -1.
    """
    index = {}
    masks = set()
    for f in faces:
        mask = 0
        for v in f:
            mask |= 1 << index.setdefault(v, len(index))
        masks.add(mask)
    masks.discard(0)
    return {d: r for d, r in reversed(list(_homology_from_top(masks))) if r}


# ---------------------------------------------------------------------
# lcm lattice


@dataclass(frozen=True)
class LcmLattice:
    """Divisibility poset of all lcms of nonempty generator subsets.

    The bottom element is formal (the unit monomial is not stored); the
    top is the lcm of all generators.
    """

    n_vars: int
    elements: tuple


def _lcm_box(exponent_tuples):
    """The box of exponent tuples where the lattice is read off it, or None
    where the closure is grown plainly (`_plain_closure`): the
    `monomials._Box` of the vectors whose every coordinate is 0 or some
    tuple's value there, coordinate i taking the sorted values[i] as its
    ranks, seeded at the distinct tuples, so that `inside` holds the
    points in the ideal.

    The box is taken when there are at least _BOX_MIN_GENS distinct tuples
    and it has at most min(2^(|G| + _BOX_SHIFT), _BOX_CEILING) points, |G|
    the number of distinct tuples.  The lattice has at most 2^|G| - 1
    elements, so the plain closure takes at most |G| * 2^|G| lcms.  The
    rule reads only the number of tuples and of values per coordinate, so
    a box that fails it builds no pattern.
    """
    gens = set(exponent_tuples)
    if len(gens) >= _BOX_MIN_GENS:
        values = [sorted(set(column) | {0}) for column in zip(*gens)]
        if prod(map(len, values)) <= min(1 << len(gens) + _BOX_SHIFT, _BOX_CEILING):
            ranks = [{v: c for c, v in enumerate(vs)} for vs in values]
            return _build_box(values, [tuple(map(dict.__getitem__, ranks, g)) for g in gens])
    return None


# The plain closure costs less on a few tuples, where building the box's
# patterns outweighs it, and unlike the box it does not grow with the
# number of variables and of distinct exponents.
_BOX_MIN_GENS = 6
_BOX_SHIFT = 4
_BOX_CEILING = 1 << 24


def _lcm_closure(exponent_tuples):
    """(elements, box): the closure of exponent tuples under componentwise
    max, in lex order, and the box it was read off (`_box_lattice`), or
    None where it was grown plainly (`_lcm_box`)."""
    box = _lcm_box(exponent_tuples)
    if box is None:
        return _plain_closure(exponent_tuples), None
    return _box_points(box, _box_lattice(box)), box


def _plain_closure(exponent_tuples):
    """Closure of exponent tuples under componentwise max, in lex order,
    grown one tuple g at a time: C becomes C + {g} + {lcm(c, g) : c in C},
    which keeps C closed, and a g already in C adds nothing."""
    closure = set()
    for g in exponent_tuples:
        if g not in closure:
            closure |= {tuple(map(max, c, g)) for c in closure}
            closure.add(g)
    return sorted(closure)


def _box_lattice(box):
    """The bitset of the lcm lattice's points in the box of `_lcm_box`.

    A nonzero a in the box is the lcm of the generators below it iff each
    positive a_i is reached by one of them, some g <= a with g_i = a_i,
    that is, iff for every i, a_i = 0 or a lies in T_i, the seed closed
    upward along every axis but i (`monomials._up`).  The T_i share their
    prefix closures: the seed closed along the axes below i is kept and
    closed along i once more for the next.  The zero vector passes every
    i, and it is in the lattice iff it is a generator, a seed bit.  A
    reader that the box's local cohomology answers (`_box_low_depth`)
    never builds it.
    """
    n = len(box.values)
    lattice, prefix = box.every, box.seed
    for i, ge in enumerate(box.at_least):
        # box.every ^ ge[1]: the points with x_i = 0
        lattice &= _up(box, prefix, range(i + 1, n)) | (box.every ^ ge[1])
        prefix = _up(box, prefix, (i,))
    return lattice & ~1 | box.seed & 1


def _lower(bits, step, positive):
    """L_i(bits): a is held iff bits holds a one rank lower in x_i where
    a_i > 0 (the points `positive`, "x_i >= 1"), and a itself where a_i = 0;
    a step of one rank in x_i is a shift by `step`.

    Every generator's exponents are values of the box, so a vector is in I
    iff the box point that rounds each of its coordinates down is, and
    a_i - 1 rounds down to the value one rank below a_i: with U the points
    in I, L_i U holds a iff x^(a - e_i) is in I where a_i > 0."""
    return bits ^ ((bits ^ (bits << step)) & positive)


def _box_cones(box):
    """The bitset of the box points whose Koszul strand complex is a cone,
    so that beta_{i,a}(S/I) = 0 for every i, read for every point a in I
    at once (the bits of the points outside I mean nothing).

    Vertex i of the support is an apex iff x^(a - tau) in I implies
    x^(a - tau - e_i) in I for every tau in supp(a) - {i}, the facet test
    reduce(and_, _facets(a, below)) != 0.  With U = `inside` and L_j the
    lowering of `_lower`, x^(a - tau) is in I iff L_tau U holds a, so the
    a that some tau refutes for i are those of V_i = U & ~L_i U closed
    under X -> X | L_j X once for each j != i: each j once, as tau is a
    set, and L_j at a with a_j = 0 is the identity.  a is a cone iff it
    lies outside that closure for some i with a_i > 0: n^2 masked shifts.
    """
    axes = [(step, ge[1]) for step, ge in zip(box.strides, box.at_least)]
    cones = 0
    for i, (step, ge1) in enumerate(axes):
        refuted = box.inside & ~_lower(box.inside, step, ge1)
        for other in axes[:i] + axes[i + 1:]:
            refuted |= _lower(refuted, *other)
        cones |= ge1 & ~refuted
    return cones


def _raise(box, bits, i):
    """R_i(bits), for a bitset over the box: a is held iff bits holds a
    with x_i moved to its top rank, the top slice copied down to every
    rank of x_i.

    The top slice is moved to rank 0 and copied upward: a copy that holds
    ranks 0..k-1 shifted by k ranks holds k..2k-1, and the last shift,
    by span - k, ends at the top rank, so no shift leaves its run of x_i
    and none needs a mask."""
    span, step = len(box.values[i]), box.strides[i]
    bits = (bits & box.at_least[i][span - 1]) >> (span - 1) * step
    k = 1
    while 2 * k <= span:
        bits |= bits << k * step
        k *= 2
    if k < span:
        bits |= bits << (span - k) * step
    return bits


def _box_void_degrees(box):
    """(zero, one, raised): the box points a with no top coordinate (zero)
    and with exactly one (one) whose degree complex is {empty face}, and
    raised[j] = R_j, `inside` raised in x_j (`_raise`).

    By Takayama's formula, in the degree-complex form of Minh and Trung,
    dim H^i_m(S/I)_a = dim H~_(i - |G_a| - 1)(Delta_a) for a in Z^n, where
    G_a = {j : a_j < 0} and F, off G_a, is a face of Delta_a iff x^a is not
    in I localized at the x_j with j in F + G_a.  Delta_a depends on a_j
    only through which generator exponents exceed it, and it is a cone
    where a_j is at least the largest exponent of x_j.  So every degree
    that counts is a box point, rank c of x_j below the top standing for
    the exponents from the c-th value up to one below the next, and the
    top rank for a_j < 0: F is a face iff a is outside R_(F + G_a), and
    R_j is the identity at a point whose x_j is at the top.  Delta_a =
    {empty face} iff a is outside U and inside R_j for every j off G_a:
    with G_a empty the degrees of H^0 = H^0_m(S/I), with |G_a| = 1 some of
    those of H^1.
    """
    raised = [_raise(box, box.inside, i) for i in range(len(box.values))]
    void = box.every & ~box.inside
    # zero: the points with no top coordinate so far, one: exactly one
    zero, one = box.every, 0
    for bits, vs, ge in zip(raised, box.values, box.at_least):
        top = ge[len(vs) - 1]
        void &= bits | top
        one = (one & ~top) | (zero & top)
        zero &= ~top
    return void & zero, void & one, raised


def _box_disconnected(box, raised):
    """Whether some box point a with no top coordinate has a disconnected
    degree complex Delta_a (`_box_void_degrees`), a non-zero H^1_m(S/I)_a.

    The vertices of Delta_a are the j with a outside R_j, and its edges the
    {j, k} with a outside R_jk, R_j raised in x_k; an edge is built only
    where some point has both its ends.  Every point starts from its
    lowest vertex, and what it reaches grows along its edges, for all
    points at once, until it holds every vertex or a round adds nothing:
    at most n rounds."""
    inner = box.every
    for vs, ge in zip(box.values, box.at_least):
        inner &= ~ge[len(vs) - 1]
    vertices = [inner & ~bits for bits in raised]
    # neighbours[k]: (j, the points where {j, k} is an edge)
    neighbours = [[] for _ in vertices]
    for j, k in combinations(range(len(vertices)), 2):
        if vertices[j] & vertices[k]:
            edge = ~_raise(box, raised[j], k)
            neighbours[j].append((k, edge))
            neighbours[k].append((j, edge))
    reach, seen = [], 0
    for bits in vertices:
        reach.append(bits & ~seen)
        seen |= bits
    while reach != vertices:
        grown = False
        for k, around in enumerate(neighbours):
            bits = reach[k]
            for j, edge in around:
                bits |= reach[j] & edge
            if bits != reach[k]:
                reach[k], grown = bits, True
        if not grown:
            return True
    return False


def _box_low_depth(box):
    """min(depth(S/I), 2), from the box's local cohomology in degrees 0
    and 1, with no lattice, facet or rank: depth 0 iff H^0 != 0, and depth
    1 iff not and H^1 != 0, that is, some point with one top coordinate
    has Delta_a = {empty face} or some point with none has a disconnected
    Delta_a (`_box_void_degrees`, `_box_disconnected`)."""
    zero, one, raised = _box_void_degrees(box)
    if zero:
        return 0
    return 1 if one or _box_disconnected(box, raised) else 2


def build_lcm_lattice(ideal):
    """Closure of the minimal generators under pairwise lcm."""
    if ideal.is_zero() or ideal.is_whole_ring():
        raise ValueError("lcm lattice needs a proper nonzero ideal")
    elements, _ = _lcm_closure([g.exponents for g in ideal.gens])
    return LcmLattice(ideal.n_vars, tuple(Monomial(e) for e in elements))


# ---------------------------------------------------------------------
# Betti numbers and depth


@dataclass(frozen=True)
class BettiTable:
    """Finitely supported map (homological index, multidegree) -> rank."""

    n_vars: int
    entries: dict

    def total(self, i):
        return sum(r for (j, _), r in self.entries.items() if j == i)

    def projective_dimension(self):
        return max(i for (i, _) in self.entries)


def _facets(exponents, below):
    """The facets of the Koszul strand complex at a, as vertex bitmasks.

    tau is a face iff some generator m dividing x^a has m_i <= a_i - 1 for
    every i in tau, so the complex is the union of the simplices
    T(m) = {i : m_i < a_i}.  Splitting the bitset of those generators
    (`monomials._dividing`) on the row below[i][a_i - 1] of each support
    index i, the generators in the row first, groups them by T(m), with
    one step per group and row, and lists the T(m) in decreasing lex order
    on the support, so every simplex comes after all of its supersets: it
    is a facet iff it lies in no facet listed before it.  The complex of a
    generator is {empty face}, whose one facet is 0.
    """
    groups = [(0, _dividing(exponents, below))]
    for i, e in enumerate(exponents):
        if not e:
            continue
        row = below[i][e - 1]
        split = []
        for simplex, gens in groups:
            inside = gens & row
            if inside:
                split.append((simplex | 1 << i, inside))
            if inside != gens:
                split.append((simplex, gens ^ inside))
        groups = split
    facets = []
    for simplex, _ in groups:
        for facet in facets:
            if simplex & facet == simplex:
                break
        else:
            facets.append(simplex)
    return facets


def _grow_faces(face, start, current, vertex, holds, faces):
    """Append to `faces` the faces extending `face` by vertices from `start` on.

    The faces are those of one side of an incidence: vertex[k] is the bit
    of the k-th vertex and holds[k] the bitset of the other side's
    elements incident to it, so a face is kept while the AND of `current`
    with the `holds` of its vertices stays non-zero.  A module-level
    recursion, so that no closure refers to itself and the walk leaves no
    reference cycle behind.
    """
    for k in range(start, len(holds)):
        nxt = current & holds[k]
        if nxt:
            child = face | vertex[k]
            faces.append(child)
            _grow_faces(child, k + 1, nxt, vertex, holds, faces)


def _strand_faces(facets, support):
    """The faces of the complex with these facets, or of their nerve when
    f is below the support size s: the two sides of the facet-vertex
    incidence, with the same reduced homology by Dowker's theorem.  On the
    nerve side vertex k is facet k and holds its vertices; on the complex
    side vertex i is a support index and holds the facets containing it.
    """
    if len(facets) < len(support):
        vertex, holds = [1 << k for k in range(len(facets))], facets
    else:
        vertex = [1 << i for i in support]
        holds = [sum(1 << k for k, f in enumerate(facets) if f >> i & 1) for i in support]
    faces = []
    _grow_faces(0, 0, -1, vertex, holds, faces)
    return faces


def _strand_homology(exponents, below, floor, ceiling=None):
    """(d, reduced homology rank in dimension d) of the Koszul strand complex
    at a, char 0, from its top dimension, or from `ceiling` where that is
    lower (`_homology_from_top`), down to floor, or none at all where its
    facets show that every such rank vanishes.

    The facets come first (`_facets`), and no face is built when they
    meet in a vertex, since the complex is then a cone, nor when there
    are f <= floor + 1 of them: by the nerve theorem the complex has the
    reduced homology of the nerve of its facets, and the nerve, a proper
    subcomplex of the simplex on f vertices, has none above dimension
    f - 2.  Otherwise the faces are grown off the facet-vertex incidence
    from its smaller side (`_strand_faces`).
    """
    facets = _facets(exponents, below)
    if reduce(and_, facets) or len(facets) - 2 < floor:
        return ()
    support = [i for i, e in enumerate(exponents) if e]
    return _homology_from_top(_strand_faces(facets, support), floor, ceiling)


def _reader_rows(ideal):
    """(box, elements, below), what the depth readers start from, for a
    proper nonzero ideal: `box` the box where the lattice is read off it
    (`_lcm_box`) and `elements` None, so that a reader decodes only the
    points it reads (`monomials._box_points`), or `box` None and
    `elements` the plainly grown lattice in lex order; and the
    generators' `_below_bitsets` rows.  On the box both readers start
    from its local cohomology (`_box_void_degrees`), and only
    `depth_quotient`, where depth >= 2, reads its lattice (`_box_lattice`);
    neither reader makes a top-row pass on either path, as the walk reads
    each element's top row itself and off the box the socle is read off
    the facets (`_socle_row`)."""
    vectors = [g.exponents for g in ideal.gens]
    below = _below_bitsets(vectors)
    box = _lcm_box(vectors)
    elements = _plain_closure(vectors) if box is None else None
    return box, elements, below


def _socle_row(elements, below):
    """The elements a of full support n = len(a) with beta_{n,a}(S/I) != 0,
    in their order.

    beta_{n,a} != 0 iff the Koszul strand complex at a is the boundary of
    the simplex on [n]: every (n-1)-subset is a face and [n] is not, the
    socle test x^(a - 1) not in I and x^(a - 1 + e_j) in I for every j.
    Read off the facets (`_facets`), that is exactly n facets of n - 1
    vertices each, so no face is built."""
    socle = []
    for a in elements:
        if all(a):
            facets = _facets(a, below)
            n = len(a)
            if len(facets) == n and all(f.bit_count() == n - 1 for f in facets):
                socle.append(a)
    return socle


def betti(ideal):
    """Multigraded Betti table of S/I; beta_0 = 1 at the unit multidegree."""
    if ideal.is_whole_ring():
        raise UnitIdealError("Betti table of the zero module is undefined")
    n = ideal.n_vars
    entries = {(0, Monomial.unit(n)): 1}
    if ideal.is_zero():
        return BettiTable(n, entries)
    lattice = build_lcm_lattice(ideal)
    below = _below_bitsets([g.exponents for g in ideal.gens])
    for a in lattice.elements:
        ranks = [(d, r) for d, r in _strand_homology(a.exponents, below, -1) if r]
        for d, r in reversed(ranks):
            entries[(d + 2, a)] = r
    return BettiTable(n, entries)


@dataclass(frozen=True)
class DepthResult:
    """depth + pd = n_vars (Auslander-Buchsbaum); method records the route."""

    depth: int
    pd: int
    n_vars: int
    method: str

    def __post_init__(self):
        if self.depth + self.pd != self.n_vars:
            raise ValueError(
                "depth %d + pd %d != n_vars %d" % (self.depth, self.pd, self.n_vars)
            )
        if not 0 <= self.depth <= self.n_vars:
            raise ValueError("depth %d outside [0, %d]" % (self.depth, self.n_vars))

    def as_dict(self):
        return asdict(self)


def depth_quotient(ideal):
    """Exact depth(S/I) = n - pd(S/I); the zero ideal has depth n.

    pd = max{i : beta_{i,a} != 0} is read off the top of the Betti table
    without building the rest of it.  beta_{i,a} = 0 for i > s = |supp(a)|,
    so the walk goes over the lattice by decreasing support, in lex order
    within one, examines only the elements whose support could raise pd,
    and asks `_strand_homology` only for the dimensions >= pd - 1 (Betti
    index > pd), which builds no face for a cone or for a complex with at
    most pd facets; it stops at the first element whose support cannot
    raise pd.  pd starts at 1, from the generators, and every element of
    support at least pd + 1 is examined, its top row among the dimensions
    asked.  Where the lattice is read off its box, the local cohomology of
    S/I in degrees 0 and 1 comes first (`_box_low_depth`), and depth 0 or
    1 is returned with no lattice built.  Otherwise pd <= n - 2: the cones
    are found for every point at once (`_box_cones`), so that the walk
    reads the facets of the other elements only, no dimension above n - 4
    (Betti index n - 2) is asked, and the walk stops once pd reaches n - 2.
    """
    if ideal.is_whole_ring():
        raise UnitIdealError("depth of S/S is undefined")
    n = ideal.n_vars
    if ideal.is_zero():
        return DepthResult(n, 0, n, "lattice")
    box, elements, below = _reader_rows(ideal)
    # an element is examined while its support is above pd and pd is below
    # `most`, the largest pd left possible
    pd, most = 1, n
    if box is not None:
        low = _box_low_depth(box)
        if low < 2:
            return DepthResult(low, n - low, n, "lattice")
        most = n - 2
        # the walk reads no cone, so none is decoded, and no point at all
        # where pd cannot rise
        elements = _box_points(box, _box_lattice(box) & ~_box_cones(box)) if pd < most else []
    # by decreasing support size, lex order within one: the sort is stable
    elements.sort(key=methodcaller("count", 0))
    for a in elements:
        if n - a.count(0) <= pd or pd == most:
            break
        # Betti index at most `most`: homology in dimension most - 2 and below
        d = next((d for d, r in _strand_homology(a, below, pd - 1, most - 2) if r), None)
        if d is not None:
            pd = d + 2
    return DepthResult(n - pd, pd, n, "lattice")


# variable cap of the polarized ring unless the caller passes another one:
# library calls, the engine-agreement claim and the command line alike
DEFAULT_POLARIZATION_CAP = 14


def depth_via_polarization(ideal, cap=DEFAULT_POLARIZATION_CAP):
    """Cross-check oracle: pd of the polarized (squarefree) ideal.

    Polarization preserves projective dimension, so
    depth(S/I) = n_vars - pd(polarization).  The polarized ring has
    n + sum(max(c_i - 1, 0)) variables, c_i the largest exponent of x_i
    among the generators; the cap is checked on that count, before the
    polarized ideal is built.
    """
    if ideal.is_whole_ring():
        raise UnitIdealError("depth of S/S is undefined")
    n = ideal.n_vars
    if ideal.is_zero():
        return DepthResult(n, 0, n, "polarization")
    polarized_vars = n + sum(max(c - 1, 0) for c in ideal.lcm_of_gens().exponents)
    if polarized_vars > cap:
        raise PolarizationCapError(
            "polarized ring has %d variables, cap is %d" % (polarized_vars, cap)
        )
    polarized, _ = ideal.polarize()
    pd = betti(polarized).projective_dimension()
    return DepthResult(n - pd, pd, n, "polarization")


def max_ideal_associated(ideal):
    """Whether the maximal ideal is associated to S/I (depth 0), with a witness.

    beta_{n,a}(S/I) is the dimension of the socle of S/I in degree a - 1,
    so the top row of the Betti table lists every monomial w with w not
    in I and x_j*w in I for all j, and each a = w + 1 lies in the lcm
    lattice.  Off the box those a are read with no homology, as the
    full-support elements whose facets make the boundary of the simplex
    (`_socle_row`).  On the box the socle is read off H^0_m(S/I), the
    torsion of S/I, whose degrees come in ranges, one per box point
    (`_box_void_degrees`): a torsion monomial of largest degree is in the
    socle, as x_j*w outside I would be torsion of larger degree, and a
    socle monomial is the top of its range, so the tops of the ranges
    give the same w.  The answer is (False, None) when there are none, and
    otherwise (True, w) for the w of largest degree, ties going to the
    smallest exponent tuple.
    """
    if ideal.is_zero() or ideal.is_whole_ring():
        raise ValueError("needs a proper nonzero ideal")
    box, elements, below = _reader_rows(ideal)
    if box is None:
        socle = [tuple(e - 1 for e in a) for a in _socle_row(elements, below)]
    else:
        # each torsion range read at its top, one below the next value of
        # each coordinate; the top rank, a_j < 0, holds no torsion
        highest = [[v - 1 for v in vs[1:]] + [None] for vs in box.values]
        socle = list(compress(product(*highest), _selectors(_box_void_degrees(box)[0])))
    if not socle:
        return False, None
    return True, Monomial(min(socle, key=lambda w: (-sum(w), w)))
