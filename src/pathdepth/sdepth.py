"""Exact Stanley depth of S/I via interval partitions of the HVZ poset.

The characteristic poset holds the exponent vectors a <= g (componentwise,
g defaulting to the exponent of lcm(G(I))) with x^a outside I.  A Stanley
decomposition with sdepth >= k corresponds to a partition of the poset
into intervals [a, b] whose label |{i : b_i = g_i}| is at least k; the
search is an exact cover over interval candidates, decided from high k
downward.  A budget exhaustion is an error, never a wrong answer.

The kernel runs on bitsets.  The box of the vectors a <= g (`_box`) is
the kernel layer's box record, the one the depth engine's lcm lattice is
read off too (`monomials._build_box`): one seed bit per generator, the
only step per generator, closed upward by a few masked shifts per axis
into the points in I, whose complement is the poset.  `build_poset`, the
one route to a poset, reads the points off it in lex order
(`monomials._box_points`), sorted stably by degree, and the sweep bound,
which the poset carries (`CharacteristicPoset.sweep`).  Each poset
builds its rows over its points (`CharacteristicPoset.below` and `.up`), its label classes and
each k's admissible tops once, and every k's search, the bounds and the
symmetry finder read them.  Admissible tops and interval cells are ANDs
of such rows (`monomials._dividing`, the kernel layer's), and one
first-uncovered exact cover, a loop over an explicit stack
(`_exact_cover`), runs both the search and the symmetry finder.  The
pre-check and candidate construction are charged in the units of the
linear scans they replace, so an instance runs out in the same phase,
with the same message, as under them; construction is charged in closed
form for every point before any list is built, and a point's candidate
list is built only when the search first branches there.  The search
pays one node per covering it visits, revisits included: the subtree
below a covering depends on the covering alone, so a memo local to the
call keeps the nodes of each refuted subtree (`_remember`), and a revisit
is charged that count at once instead of being searched again, wherever
the charge passes neither the pause nor the limit.  The memo holds fewer
than _MEMO_ENTRIES subtrees: when it fills, its floor, the least cost it
records, doubles and the cheaper entries go, so the costliest subtrees
stay.  Every count, pause and message is the one a search without the
memo gives.

The descent starts at min(sweep, Hilbert): the sweep bound is the
smallest label of a maximal point, above which no k can pass, so a
depth-0 quotient gets sdepth 0 with no search; it is read off the box
bitset the points come from.  The Hilbert bound, computed only when the
sweep bound is at least 2, is the largest d with (1-t)^d H(S/I; t)
nonnegative, which no Stanley decomposition can beat; H is counted off
the poset's (degree, label) classes, the one shape path that the colon
bound takes too.  At each k >= 2 the search pauses once, on passing
node_budget // 100 nodes, or stops if it runs out before, and three
tools that settle some k cheaply get their turn.
The colon-Hilbert bound, computed once per call: sdepth(S/I) <=
sdepth(S/(I : x^a)) (the paper's Lemma 1.4), and the Hilbert bound of
each colon is read off the points above a, once per distinct multiset of
shapes; a bound below k ends k, and the descent goes on from the bound.
The symmetry finder: a permutation of the variables in the dihedral
group of the cycle that fixes G(I) and g maps a partition to a
partition, so a search over the orbits of intervals of one cyclic
subgroup may find an invariant partition, which decides k.  It runs the
search's loop, memo included, over lists of orbit unions charged as they
are built; every list of a refuted subtree is built by then, so its memo
records search nodes only.  An ideal with such a symmetry gives the
finder node_budget // 20 units out of the search's nodes.  A finder that
finds nothing refutes nothing.  The most-constrained search, at a pause
only: an exact cover over the search's candidate masks, which it builds
itself, that branches on the uncovered point the fewest live intervals
hold, on node_budget // 10 units out of the search's nodes.  A partition
it finds decides k, and its None, an exhaustion, refutes k; running out
of units refutes nothing.  At a pause on a budget of 100 or more it
splits the poset: where x_i^{g_i} lies in I no point reaches g_i, x_i
adds to no label, and the poset is the disjoint union of its layers
a_i = c.  A partition of the poset restricts to one of each layer, so
the poset has a partition at k exactly when every layer has one, and the
search keeps the masks that lie in one layer and covers the layers in
turn on the same units.  The pause itself is a bare signal: the search
hands nothing out, and when no tool settles k it resumes, or its budget
error is raised.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from itertools import product as _cartesian
from math import comb, prod
from operator import eq, itemgetter, lt, xor

from .monomials import (
    Monomial, _below_bitsets, _box_points, _build_box, _count_classes, _dividing, _selectors,
)

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_POSET_CAP",
    "PosetCapError",
    "SearchBudgetError",
    "CharacteristicPoset",
    "PosetInterval",
    "StanleyPartition",
    "SdepthResult",
    "build_poset",
    "has_partition_min_label",
    "sdepth_quotient",
    "verify_partition",
    "partition_to_decomposition",
]


# node budget of every search unless the caller passes another one: library
# calls, the claim registry and the command line alike
DEFAULT_BUDGET = 2_000_000


class PosetCapError(RuntimeError):
    """Characteristic poset larger than the configured cap."""


class SearchBudgetError(RuntimeError):
    """Exact-cover search exhausted its node budget before deciding."""


@dataclass(frozen=True)
class CharacteristicPoset:
    """Points a <= g with x^a not in I, ordered componentwise.

    Down-closed: the complement of a monomial ideal is closed under
    divisibility.  `points` is sorted by (degree, lex), a linear extension
    of the componentwise order.  `sweep` is the sweep bound, the smallest
    label of a maximal point: no k above it admits a partition.
    """

    n_vars: int
    g: tuple
    points: tuple
    sweep: int

    def label(self, b):
        return sum(map(eq, b, self.g))

    @cached_property
    def label_classes(self):
        """label_classes[L], L = 0..n_vars: the bitset of the points of
        label L, a bit-sliced count of the up rows at g_i, built once."""
        capped = [row[gi] for row, gi in zip(self.up, self.g)]
        return _count_classes(capped, (1 << len(self.points)) - 1)

    @cached_property
    def below(self):
        """`_below_bitsets` rows of the points at cap g, built once: bit j
        stands for points[j]."""
        return _below_bitsets(self.points, self.g)

    @cached_property
    def up(self):
        """up[i][v]: the points with x_i exponent >= v, built once."""
        return _at_least(self.below)

    @cached_property
    def admissible(self):
        """k -> `_admissible_tops(self, k)`, each built once."""
        return {}

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class PosetInterval:
    """[a, b] with a <= b componentwise and b (hence all of [a,b]) in the poset."""

    a: tuple
    b: tuple


@dataclass(frozen=True)
class StanleyPartition:
    intervals: tuple

    def min_label(self, poset):
        return min(poset.label(iv.b) for iv in self.intervals)


@dataclass(frozen=True)
class SdepthResult:
    """sdepth(S/I), the poset it was decided on and its interval partition."""

    sdepth: int
    poset: CharacteristicPoset
    partition: StanleyPartition


# box-size cap of every characteristic poset unless the caller passes another
# one: library calls and the command line alike
DEFAULT_POSET_CAP = 100_000


def build_poset(ideal, g=None, cap=DEFAULT_POSET_CAP):
    """The exponent vectors a <= g outside I, sorted by (degree, lex), and
    their sweep bound.

    g must be a multiple of lcm(G(I)); it defaults to the lcm.  The points
    and the sweep bound are both read off the box (`_box`): its points
    outside I in lex order (`monomials._box_points`), then sorted stably
    by degree.  The poset builds its rows and its label classes, one
    bitset of points per label, once, when first read.
    """
    box = _box(ideal, g, cap)
    g, bound = tuple(vs[-1] for vs in box.values), _sweep_bound(box)
    points = _box_points(box, box.every ^ box.inside)
    del box  # its bitsets go before the sort's keys come
    points.sort(key=sum)
    return CharacteristicPoset(len(g), g, tuple(points), bound)


def _box(ideal, g=None, cap=DEFAULT_POSET_CAP):
    """The `monomials._Box` of the vectors a <= g, x_i taking the values
    0..g_i, which are their own ranks, seeded at the generators: `inside`
    holds the points in I and every ^ inside those of the poset.

    The cap is checked on the box's size before anything is built.
    """
    if ideal.is_zero() or ideal.is_whole_ring():
        raise ValueError("needs a proper nonzero ideal")
    lcm = ideal.lcm_of_gens()
    if g is None:
        g = lcm
    cap_vec = g.exponents
    if len(cap_vec) != ideal.n_vars:
        raise ValueError("g has %d variables, the ideal %d" % (len(cap_vec), ideal.n_vars))
    if any(map(lt, cap_vec, lcm.exponents)):
        # below the lcm a point no longer decides membership of its cone
        raise ValueError("g = %s is not a multiple of lcm(G(I)) = %s" % (g, lcm))
    size = prod(e + 1 for e in cap_vec)
    if size > cap:
        raise PosetCapError("box of size %d exceeds cap %d" % (size, cap))
    return _build_box([range(e + 1) for e in cap_vec], [h.exponents for h in ideal.gens])


def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _sweep_bound(box):
    """Smallest label of a maximal point of the poset of a box (`_box`).

    A maximal point is its own only admissible top, and every point lies
    below a maximal one, so this is the largest k at which every point
    has an admissible top: no partition reaches a larger min label.  It is
    0 exactly when a socle monomial of S/I exists, i.e. when depth is 0.

    It is computed bit-parallel over the box: a point is maximal when no
    step up in an uncapped coordinate stays outside I, and its label
    counts the capped coordinates, whose classes `monomials._count_classes`
    sorts out.
    """
    members = box.every ^ box.inside
    # the points with x_i = g_i, its top rank
    capped = [ge[len(vs) - 1] for vs, ge in zip(box.values, box.at_least)]
    blocked = 0
    for row, step in zip(capped, box.strides):
        blocked |= (members >> step) & ~row
    return next(label for label, bits in enumerate(_count_classes(capped, members & ~blocked)) if bits)


def _hilbert_bound(poset, upto):
    """Largest d <= upto with (1-t)^d H(S/I; t) nonnegative: sdepth <= d.

    A Stanley decomposition with every |Z| >= d gives (1-t)^d H a sum of
    t^deg / (1-t)^(|Z|-d), so d bounds sdepth from above (the easy
    direction of Hilbert depth).  For g >= lcm each poset point p stands
    for the monomials agreeing with it below g, so H = sum_p
    t^|p| / (1-t)^label(p), which `_shape_bound` reads off the counts of
    the (degree, label) shapes: the colon bound's shapes at a = 0.
    """
    shapes = _colon_shapes(_shape_classes(poset), poset.up, (0,) * poset.n_vars)
    return _shape_bound(shapes, poset.n_vars, upto)


def _shape_bound(shapes, n, upto):
    """The Hilbert bound of the poset whose shapes are counted in `shapes`.

    `shapes` maps (degree, label) to a count.  K = (1-t)^n H is a
    polynomial.  The coefficients of K/(1-t)^r are prefix sums, r levels
    deep, of K's; a scan stops at the first negative one of level r, or at
    the first j >= deg K where every level is >= 0: past deg K level 1 is
    constant and each level is a running sum of the one below, so none
    turns negative again.  The scan ends because K = (1-t)^(n-dim) Q,
    Q(1) > 0.
    """
    K = [0] * (max(deg for deg, _ in shapes) + n + 1)
    for (deg, label), count in shapes.items():
        for i in range(n - label + 1):
            K[deg + i] += (-1) ** i * comb(n - label, i) * count
    while len(K) > 1 and not K[-1]:
        K.pop()
    # K(0) = 1 and K(1) = 0 for I != 0, so K itself (d = n) has a negative
    for d in range(min(upto, n - 1), 0, -1):
        r = n - d
        levels = [0] * r
        j = 0
        while True:
            x = K[j] if j < len(K) else 0
            for i in range(r):
                x = levels[i] = levels[i] + x
            if x < 0:
                break
            if j >= len(K) - 1 and min(levels) >= 0:
                return d
            j += 1
    return 0


def _at_least(below):
    """rows[i][v]: the vectors with x_i exponent >= v, from `_below_bitsets`
    rows; below's last row, at v = g_i, holds all of them."""
    return [[row[-1]] + [row[-1] ^ r for r in row[:-1]] for row in below]


def _shape_classes(poset):
    """(degree, label, bitset of the points of that shape), nonempty ones.

    A degree is a run of bits, as the points are sorted by degree, and its
    end is found by bisection; the labels are the poset's label classes.
    """
    points, exactly = poset.points, poset.label_classes
    classes = []
    start = 0
    while start < len(points):
        deg = sum(points[start])
        end = bisect_right(points, deg, start, key=sum)
        span = (1 << end) - (1 << start)
        classes.extend((deg, label, span & bits) for label, bits in enumerate(exactly) if span & bits)
        start = end
    return classes


def _colon_shapes(classes, up, a):
    """The shapes of the poset of S/(I : x^a) with cap g - a, or None when
    x^a lies in I.

    That poset is up(a) = {p >= a}, shifted by a: a point keeps its label
    and loses |a| degrees.  Each shape is counted as the popcount of up(a)
    ANDed with a class bitset; no class below degree |a| meets up(a).
    """
    mask = _dividing(a, up)
    if not mask:
        return None
    shift = sum(a)
    shapes = {}
    for deg, label, bits in classes:
        if deg >= shift:
            count = (mask & bits).bit_count()
            if count:
                shapes[deg - shift, label] = count
    return shapes


def _colon_bound(poset, upto):
    """min(upto, the smallest Hilbert bound of S/(I : x^a)): sdepth <= it.

    sdepth(S/I) <= sdepth(S/(I : u)) for every monomial u outside I (the
    paper's Lemma 1.4), and the Hilbert bound caps the latter.  a ranges
    over the powers x_i^j, j <= g_i, then the squarefree vectors of two or
    more variables of the support of g, and the scan stops at 1, which
    depth >= 1 guarantees.  A colon whose shapes an earlier one already
    had is skipped: its bound is no lower.
    """
    classes = _shape_classes(poset)
    best = upto
    seen = set()
    for a in _colon_exponents(poset.g):
        if best <= 1:
            break
        shapes = _colon_shapes(classes, poset.up, a)
        if shapes is None:
            continue
        key = frozenset(shapes.items())
        if key not in seen:
            seen.add(key)
            best = _shape_bound(shapes, poset.n_vars, best)
    return best


def _colon_exponents(g):
    """The powers x_i^j, j <= g_i, then the squarefree vectors of two or
    more variables of the support of g."""
    n = len(g)
    support = [i for i, gi in enumerate(g) if gi]
    for i in support:
        for j in range(1, g[i] + 1):
            yield tuple(j if x == i else 0 for x in range(n))
    for choice in _cartesian((0, 1), repeat=len(support)):
        if sum(choice) >= 2:
            a = [0] * n
            for i, bit in zip(support, choice):
                a[i] = bit
            yield tuple(a)


def has_partition_min_label(poset, k, node_budget=DEFAULT_BUDGET):
    """A StanleyPartition with every interval label >= k, or None.

    Canonical exact-cover search: points are scanned in a fixed linear
    extension, and the first uncovered point must be the bottom of the
    interval covering it, which makes the search complete and free of
    duplicate states.  None is returned only after exhaustion; running out
    of budget raises SearchBudgetError instead, and a node_budget below 1
    raises ValueError.

    The admissible tops of p (tops b >= p with label >= k) are the AND of
    per-coordinate bitsets over the tops, and the interval [p, b] is the
    bitset up(p) & down(b) over the points.  The budget is charged in the
    units of a linear scan of the tops: the pre-check pays the 1-based
    position of p's first admissible top, and candidate construction pays
    one per top plus the size of each admissible interval, for every
    point.  That charge is taken in closed form (`_candidate_charge`)
    before any interval is built, and it relies on the poset being
    down-closed, as `CharacteristicPoset` promises: then every point
    below a top b takes b as an admissible top.  A point's candidate list
    is built when the search first branches there, so most lists of a
    decided search are never built.

    The search is `_exact_cover`, the loop over an explicit stack that the
    symmetry finder runs too.  It pays one node per visited covering, the
    root and every revisit included, and a revisit of a refuted covering
    is charged, from a memo local to the call, the nodes its subtree took
    instead of being searched again, wherever that charge stays short of
    the node where the search stops.  The intervals of the partition
    returned are read off the differences of successive coverings.
    """
    return _advance(_search(poset, k, node_budget))[1]


def _advance(search):
    """Run a `_search` generator on: (True, None) at its pause, or (False,
    its answer) at its end."""
    try:
        next(search)
    except StopIteration as end:
        return False, end.value
    return True, None


def _candidate_charge(npts, tops):
    """The units of building every candidate list: one per (point, top)
    pair, plus the cells of each interval [p, b], b an admissible top of p.

    In a down-closed poset the points p <= b are the whole box below b, so
    the intervals under b hold prod_i (b_i+1)(b_i+2)/2 cells between them.
    """
    return npts * len(tops) + sum(prod((x + 1) * (x + 2) // 2 for x in b) for b in tops)


# the memo of refuted coverings that `_exact_cover` and `_most_constrained`
# keep for one call holds fewer than _MEMO_ENTRIES of them (`_remember`)
_MEMO_ENTRIES = 16_384


def _remember(sizes, floor, covering, cost):
    """Record in the memo `sizes` that `covering` was refuted at `cost`
    nodes or units, if cost >= floor; the floor after.

    A memo that reaches _MEMO_ENTRIES doubles its floor and drops every
    entry below it, until it holds fewer: the costliest refuted subtrees,
    whose revisits save the most, are the ones kept.  Each call of a
    search starts with an empty memo at floor 1.
    """
    if cost >= floor:
        sizes[covering] = cost
        while len(sizes) >= _MEMO_ENTRIES:
            floor *= 2
            # the full table goes before the kept entries fill a new one,
            # so that the two are never held at once
            coverings, costs = list(sizes), list(sizes.values())
            sizes.clear()
            sizes.update((c, size) for c, size in zip(coverings, costs) if size >= floor)
    return floor


def _admissible_tops(poset, k):
    """The points of label >= k, in the order of `points`, and their
    `_at_least` rows at cap g: the admissible tops of a point p are the
    bits of `_dividing(p, rows)`; built once per poset and k."""
    if k not in poset.admissible:
        # the classes are disjoint, so their sum is their OR
        tops = list(compress(poset.points, _selectors(sum(poset.label_classes[k:]))))
        poset.admissible[k] = tops, _at_least(_below_bitsets(tops, poset.g))
    return poset.admissible[k]


def _intervals(poset, admissible, p, downs):
    """The candidate masks at p: the intervals up(p) & down(b) over p's
    admissible tops b, read off `admissible`, the (tops, top_rows) of
    `_admissible_tops` at k, largest first, ties in the order of the
    tops.  `downs` keeps each down(b) built, by the top's index."""
    tops, top_rows = admissible
    up = _dividing(p, poset.up)
    masks = []
    for j in _bits(_dividing(p, top_rows)):
        down = downs.get(j)
        if down is None:
            down = downs[j] = _dividing(tops[j], poset.below)
        masks.append(up & down)
    masks.sort(key=int.bit_count, reverse=True)
    return masks


def _search(poset, k, node_budget, reserve=0, pause=None):
    """`has_partition_min_label` as a generator that may pause once.

    The pre-check and candidate construction are charged as in
    `has_partition_min_label`; the search itself stops at
    node_budget - reserve nodes, and the messages name node_budget.
    When `pause` is given it yields once, a bare signal, on passing
    `pause` search nodes, and resumes where it stopped; its answer is its
    return value.  A point's list of candidate masks is `_intervals`,
    built when the search first branches there, so the search holds only
    the lists it branches on.
    """
    points = poset.points
    npts = len(points)
    if node_budget < 1:
        raise ValueError("node_budget must be at least 1, got %r" % (node_budget,))
    if k < 0 or k > poset.n_vars:
        raise ValueError("k out of range")
    if k == 0:
        return StanleyPartition(tuple(PosetInterval(a, a) for a in points))
    admissible = tops, top_rows = _admissible_tops(poset, k)
    if not tops:
        # no point has an admissible top
        return None
    # cheap complete pre-check: a point with no admissible top decides
    # the answer without building any interval masks
    work = 0
    for p in points:
        found = _dividing(p, top_rows)
        if not found:
            return None
        work += (found & -found).bit_length()
        # a comparison is far cheaper than a search node; scale accordingly
        if work > 10 * node_budget:
            raise SearchBudgetError(
                "exceeded %d comparisons in the admissible-top pre-check"
                % (10 * node_budget)
            )
    # candidate construction is the quadratic part; it shares the budget
    if work + _candidate_charge(npts, tops) > node_budget:
        raise SearchBudgetError("exceeded %d nodes building interval candidates" % node_budget)
    downs = {}
    candidates = [None] * npts

    def build(i, allowance):
        """The candidate masks at points[i], stored in `candidates`; they
        were charged before the search, so they cost no units here."""
        candidates[i] = _intervals(poset, admissible, points[i], downs)
        return 0

    # the root is a node; candidate construction has charged more already
    coverings, _ = yield from _exact_cover(
        candidates, build, 1, node_budget - reserve, pause, "exceeded %d search nodes" % node_budget
    )
    return None if coverings is None else _read_off(points, coverings)


def _exact_cover(candidates, build, nodes, limit, pause, exhausted):
    """The canonical first-uncovered exact cover that `_search` and
    `_invariant_partition` drive, as a generator whose return value is
    (the coverings on the path to the full one, or None after exhaustion,
    the units left of `limit`).

    Each frame branches on the first point its covering leaves uncovered,
    over that point's masks in `candidates`, skipping those that meet the
    covering.  A point's list is built by `build(i, allowance)` when the
    search first branches there; it returns the units it spent, past
    `allowance` of which it may stop short, and they come off the pause
    and the limit, so `nodes` counts search nodes alone.  The search
    pays one node per covering it visits, revisits included, on top of
    the `nodes` it starts with.  On passing `pause` nodes it yields once,
    with no value, and resumes; past `limit` units it raises
    SearchBudgetError(exhausted).

    The subtree below a covering depends on the covering alone (its first
    uncovered point and that point's list), so when a frame other than
    the root is exhausted, a memo local to the call records the nodes its
    subtree took, at or above a floor that doubles whenever the memo
    fills (`_remember`).  Every list of an exhausted subtree is built,
    so its nodes are all that searching it again costs, and a revisit is
    charged them at once instead, unless that would pass the node where
    the search stops, which it then reaches by searching as before.
    """
    full = (1 << len(candidates)) - 1
    # the node count at which the loop next stops: the pause, then the limit
    stop = limit if pause is None else min(pause, limit)
    covered = nxt = 0
    entry = nodes  # the node count at which the current frame opened
    stack = []  # the (covered, options, entry) of the frames below the current one
    sizes, floor = {}, 1  # refuted covering -> the nodes below it; the least recorded
    while True:
        # open the frame of `covered` at nxt, its first uncovered point
        options = candidates[nxt]
        if options is None:
            spent = build(nxt, limit - nodes)
            stop -= spent
            limit -= spent
            if nodes > limit:
                raise SearchBudgetError(exhausted)
            options = candidates[nxt]
        options = iter(options)
        while True:
            for mask in options:
                if mask & covered:
                    continue
                nodes += 1
                if nodes > stop:
                    if stop == limit:
                        raise SearchBudgetError(exhausted)
                    yield
                    stop = limit
                child = covered | mask
                if child == full:
                    return [frame[0] for frame in stack] + [covered, full], limit - nodes
                size = sizes.get(child)
                if size is not None and nodes + size <= stop:
                    # a refuted revisit, charged what searching it again would
                    # cost, when that stops neither at the pause nor the limit
                    nodes += size
                    continue
                stack.append((covered, options, entry))
                covered, entry = child, nodes
                break
            else:
                if not stack:
                    return None, limit - nodes
                floor = _remember(sizes, floor, covered, nodes - entry)
                covered, options, entry = stack.pop()
                continue
            break
        nxt = ((covered + 1) & ~covered).bit_length() - 1


def _read_off(points, coverings):
    """The partition whose intervals are the differences of successive
    coverings: an interval's bottom is its first point in the order, its
    top its last."""
    return StanleyPartition(
        tuple(
            PosetInterval(points[(m & -m).bit_length() - 1], points[m.bit_length() - 1])
            for m in map(xor, coverings, coverings[1:])
        )
    )


def _symmetry_groups(ideal, g):
    """The nontrivial cyclic subgroups of the dihedral stabilizer of G(I)
    and g, largest first, each as the powers of its first generator met.

    The dihedral group of the cycle x_1, ..., x_n permutes the variables;
    a permutation h acts on exponent vectors as v -> (v[h[0]], ...,
    v[h[n-1]]).  One that fixes the minimal generators fixes I, hence the
    poset and its labels, so the image of a partition is a partition.
    One scan over the 2n permutations, rotation by s then reflection at s
    for each s, generates each subgroup at its first generator; groups of
    one size keep that order.
    """
    n = ideal.n_vars
    gens = {h.exponents for h in ideal.gens}
    identity = tuple(range(n))
    groups = {}  # element set -> the group, as generated by its first generator
    for s in range(n):
        for perm in (tuple((i + s) % n for i in range(n)), tuple((s - i) % n for i in range(n))):
            act = itemgetter(*perm)
            if perm == identity or act(g) != g or any(act(v) not in gens for v in gens):
                continue
            group = [identity]
            power = perm
            while power != identity:
                group.append(power)
                power = tuple(power[i] for i in perm)
            groups.setdefault(frozenset(group), group)
    return sorted(groups.values(), key=len, reverse=True)


def _orbit(p, b, acts):
    """The distinct images of the interval [p, b], as sorted (bottom, top) pairs."""
    return sorted({(act(p), act(b)) for act in acts})


def _orbit_candidates(p, acts, tops, top_rows, below, up, allowance):
    """(cells, top b) for the orbits of intervals [p, b] that an invariant
    partition may use at p, largest first, and the units spent finding
    them: past `allowance` units the scan stops, with the list cut short.

    `acts` are the group's elements as itemgetters.  A top b qualifies
    only if every element fixing p fixes b: otherwise [p, b] and its image
    share p.  Its orbit must then consist of pairwise disjoint intervals.
    Each admissible top scanned costs a unit, and each orbit built its
    cell count.
    """
    fixing = [act for act in acts if act(p) == p]
    units = 0
    out = []
    for j in _bits(_dividing(p, top_rows)):
        units += 1
        b = tops[j]
        if any(act(b) != b for act in fixing):
            continue
        union = cells = 0
        for a, c in _orbit(p, b, acts):
            mask = _dividing(a, up) & _dividing(c, below)
            union |= mask
            cells += mask.bit_count()
        units += cells
        if units > allowance:
            break
        if union.bit_count() == cells:
            out.append((union, b))
    out.sort(key=lambda mo: -mo[0].bit_count())
    return out, units


def _invariant_partition(poset, k, groups, budget):
    """A partition with every label >= k that one of `groups` fixes, or None.

    Each group in turn gets the canonical loop of `has_partition_min_label`
    (`_exact_cover`, its memo included) over the orbits of intervals: the
    first uncovered point is the bottom of every interval of the orbit
    chosen for it, and the covered set stays invariant.  A point's list of
    orbit unions is built when the search first branches there, charged
    the units `_orbit_candidates` counts; the groups share `budget` units,
    one per search node plus those.  Every list of a refuted subtree is
    built by the time it is refuted, so its memo records search nodes
    only.  Each difference of successive coverings is an orbit union,
    mapped back to its orbit through the top recorded for that union.
    None refutes nothing: the groups may only admit no invariant
    partition, or the units run out.
    """
    points = poset.points
    tops, top_rows = _admissible_tops(poset, k)
    if not tops:
        return None
    exhausted = "exceeded %d units in the symmetry finder" % budget
    left = budget
    for group in groups:
        acts = [itemgetter(*h) for h in group]
        lists = [None] * len(points)
        top_of = {}  # orbit union -> the top b of the first [p, b] listed with it

        def build(i, allowance):
            found, spent = _orbit_candidates(
                points[i], acts, tops, top_rows, poset.below, poset.up, allowance
            )
            lists[i] = [union for union, _ in found]
            for union, b in found:
                top_of.setdefault(union, b)
            return spent

        try:
            _, (coverings, left) = _advance(_exact_cover(lists, build, 0, left, None, exhausted))
        except SearchBudgetError:
            return None
        if coverings is not None:
            return StanleyPartition(
                tuple(
                    PosetInterval(a, c)
                    for m in map(xor, coverings, coverings[1:])
                    for a, c in _orbit(points[(m & -m).bit_length() - 1], top_of[m], acts)
                )
            )
    return None


def _bits(mask):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _fewest(free, live, contain):
    """(the live intervals holding the point of `free` that the fewest of
    them hold, the number of points examined); the scan goes up from the
    lowest point and stops at a count of 0 or 1."""
    best = least = None
    examined = 0
    while free:
        low = free & -free
        examined += 1
        here = contain[low.bit_length() - 1] & live
        count = here.bit_count()
        if best is None or count < least:
            best, least = here, count
            if count <= 1:
                break
        free ^= low
    return best, examined


def _contain(points, masks, among):
    """contain[q]: the bitset of the intervals among `masks` that hold
    points[q], bit i standing for masks[i], for each index q in `among`,
    in its order.  The masks must lie among those points.

    q lies in [p, b] iff p_i <= q_i <= b_i for every i, so contain[q] is
    an AND over the coordinates of two rows over the intervals: those
    whose bottom (a mask's lowest bit) is <= q_i, and those whose top (its
    highest bit) is >= q_i.
    """
    held = [points[q] for q in among]
    caps = [max(column) for column in zip(*held)]
    low = _below_bitsets([points[(m & -m).bit_length() - 1] for m in masks], caps)
    high = _at_least(_below_bitsets([points[m.bit_length() - 1] for m in masks], caps))
    return [_dividing(q, low) & _dividing(q, high) for q in held]


def _most_constrained(poset, k, units, axes):
    """A StanleyPartition with every interval label >= k, or None.

    Most-constrained exact cover (Knuth, "Dancing Links"): branch on the
    uncovered point that the fewest live intervals hold, larger intervals
    first.  The intervals are `_search`'s candidate masks at k, built by
    `_intervals`.

    Along a split axis i in `axes` (`_split_axes`) no point reaches g_i,
    x_i adds to no label, and the poset is the disjoint union of its
    layers a_i = c, c < g_i, layer c the poset of S/((I : x_i^c) + (x_i))
    shifted by c (Propositions 3.2 and 3.3 walk this colon ladder).  An
    interval [p, b] of a partition at k meets layer c in [p, b] with p_i
    and b_i set to c, which has b's label and a top below b.  So a
    partition at k restricts to one of each block, the points on which
    every axis is constant, and the poset has one exactly when every block
    does: the masks kept are those inside the block of their bottom, the
    blocks are covered one after another, lowest point first, and a block
    with no cover refutes k as an exhaustion of the whole poset does.
    With no axes the poset is one block.  Each block is one component of
    its masks: once every point p has an admissible top b, as after the
    search's pre-check, the block's restriction of [p, b] is kept, and so
    is [m, its top], m the block's lowest point, which lies below all of it.

    Each block has its own index: its masks, largest first, ties in the
    order of their bottoms, then of their tops, which is the order of the
    masks of every block sorted together, restricted to the block.
    contain[q] is the bitset of the intervals of q's block that hold q,
    built per coordinate by `_contain` over the block's points alone; the
    live intervals are one bitset as wide as the block's list, and
    choosing an interval keeps the live ones disjoint from it: the
    complement of its conflict row, the OR of contain[q] over its points
    q, built the first time the interval is chosen and kept for the call.

    Building the masks, contain, the blocks and the conflict rows is not
    charged: candidate construction has charged every (point, top) pair
    and cell.  The search is charged one unit per uncovered point examined
    and the cell count of each interval chosen, across the blocks.  None
    is returned only after exhaustion, a complete refutation; past `units`
    it raises SearchBudgetError, which refutes nothing.

    The live intervals are those disjoint from the covering, so the units
    below a covering depend on it alone, not on the cells of the interval
    that led into it.  As in `_search`, a memo local to the call records
    the units of each refuted subtree (`_remember`), and a revisit is
    charged the interval's cells plus those units at once, wherever that
    stays within `units`.
    """
    points = poset.points
    admissible = _admissible_tops(poset, k)
    blocks = [(1 << len(points)) - 1] * len(points)  # the block of each point
    for i in axes:
        up = poset.up[i]
        layers = [row & ~above for row, above in zip(up, up[1:])]
        blocks = [block & layers[p[i]] for block, p in zip(blocks, points)]
    downs = {}
    indices = {}  # block -> (its points' indices, its masks), lowest point first
    for q, (p, block) in enumerate(zip(points, blocks)):
        among, masks = indices.setdefault(block, ([], []))
        among.append(q)
        masks.extend(m for m in _intervals(poset, admissible, p, downs) if m & block == m)
    contain = [0] * len(points)  # each point's row over its own block's masks
    for among, masks in indices.values():
        # a stable sort, so each block keeps the order of the global one
        masks.sort(key=int.bit_count, reverse=True)
        for q, row in zip(among, _contain(points, masks, among)):
            contain[q] = row
    spent = 0
    sizes, floor = {}, 1  # refuted covering -> the units spent below it; the least recorded

    def cover(full, masks):
        """The coverings on the path to the block `full`, over its `masks`, or None."""
        nonlocal spent, floor
        every = live = (1 << len(masks)) - 1
        disjoint = [None] * len(masks)  # i -> the intervals that miss masks[i], once chosen
        options, examined = _fewest(full, live, contain)
        spent += examined
        stack = [(0, live, _bits(options), 0)]  # (covered, live, options, entry)
        while stack:
            if spent > units:
                raise SearchBudgetError("exceeded %d units in the most-constrained search" % units)
            covered, live, options, _ = stack[-1]
            for i in options:
                mask = masks[i]
                child = covered | mask
                if child == full:
                    return [frame[0] for frame in stack] + [full]
                cells = mask.bit_count()
                size = sizes.get(child)
                if size is not None and spent + cells + size <= units:
                    # a refuted revisit, charged what searching it again would cost
                    spent += cells + size
                    continue
                entry = spent + cells
                keep = disjoint[i]
                if keep is None:
                    dead = 0
                    for q in _bits(mask):
                        dead |= contain[q]
                    keep = disjoint[i] = every ^ dead
                live &= keep
                options, examined = _fewest(full ^ child, live, contain)
                spent = entry + examined
                stack.append((child, live, _bits(options), entry))
                break
            else:
                covered, _, _, entry = stack.pop()
                if stack:
                    # live is every interval disjoint from the covering, so the
                    # subtree's units depend on the covering alone; the cells of
                    # the interval that led in depend on the path and stay out
                    floor = _remember(sizes, floor, covered, spent - entry)
        return None

    intervals = []
    for block, (_, masks) in indices.items():
        coverings = cover(block, masks)
        if coverings is None:
            return None
        intervals.extend(_read_off(points, coverings).intervals)
    return StanleyPartition(tuple(intervals))


def _split_axes(poset):
    """The coordinates i along which the poset splits into layers a_i = c,
    c < g_i: no point reaches g_i, as x_i^{g_i} lies in I, and some point
    has a_i >= 1.  Read off the poset's up rows."""
    return [i for i, (gi, row) in enumerate(zip(poset.g, poset.up)) if gi and row[1] and not row[gi]]


def sdepth_quotient(ideal, g=None, cap=DEFAULT_POSET_CAP, node_budget=DEFAULT_BUDGET):
    """Exact sdepth(S/I): largest k admitting an interval partition.

    The poset comes from `build_poset`, the module global, with its sweep
    bound, and the descent starts at min(sweep, Hilbert), above which no
    k can pass.
    At each k >= 2 the search pauses once, on passing node_budget // 100
    nodes, or stops when it runs out earlier, and three tools get a turn,
    in order.  The colon-Hilbert bound (`_colon_bound`, computed once) may
    show k out of reach, and the descent goes on from the bound.  The
    symmetry finder (`_invariant_partition`) gets node_budget // 20 units
    when the ideal has a symmetry, and a partition it finds decides k.  At
    a pause, the most-constrained search (`_most_constrained`) gets
    node_budget // 10 units over the search's candidate masks, which it
    builds: a partition it finds decides k, and its None, an exhaustion,
    refutes k.  On a poset that splits into layers (`_split_axes`) it
    covers the layers one after another, once the pause comes past node
    0, at a budget of 100 or more.  The search's nodes stop short by the
    units of the finders.  When none of the tools settles k, the search
    resumes, or its budget error is raised.
    """
    poset = build_poset(ideal, g, cap)
    top = poset.sweep
    if top >= 2:
        # a positive sweep bound means depth >= 1, hence sdepth >= 1, so
        # at sweep bound 1 no bound can shorten the descent
        top = _hilbert_bound(poset, top)
    groups = _symmetry_groups(ideal, poset.g) if top >= 2 else []
    share = node_budget // 20 if groups else 0
    units = node_budget // 10
    pause = node_budget // 100
    bound = None
    k = top
    while k >= 2:
        search = _search(poset, k, node_budget, share + units, pause)
        try:
            paused, partition = _advance(search)
            failure = None
        except SearchBudgetError as error:
            paused, partition, failure = False, None, error
        # at most once per k: the search pauses once, and a failure ends it
        if paused or failure:
            if bound is None:
                bound = _colon_bound(poset, k)
            if bound < k:
                k = bound
                continue
            if groups:
                partition = _invariant_partition(poset, k, groups, share)
            if partition is None and paused:
                # under a budget of 100 the pause comes at node 0, and the
                # turn covers the whole poset as one block
                axes = _split_axes(poset) if pause else ()
                try:
                    partition = _most_constrained(poset, k, units, axes)
                    if partition is None:
                        k -= 1  # an exhaustion: no partition at k
                        continue
                except SearchBudgetError:
                    pass  # out of units, which refutes nothing
            if partition is None:
                if failure:
                    raise failure
                _, partition = _advance(search)
        if partition is not None:
            return SdepthResult(k, poset, partition)
        k -= 1
    if k == 1:
        partition = has_partition_min_label(poset, 1, node_budget=node_budget)
        if partition is not None:
            return SdepthResult(1, poset, partition)
    return SdepthResult(0, poset, has_partition_min_label(poset, 0, node_budget=node_budget))


def verify_partition(poset, partition):
    """Independent certificate check: (ok, reason).

    Checks interval validity, pairwise disjointness, exact coverage, and
    returns the recomputed min label in the reason on success.
    """
    point_set = set(poset.points)
    seen = set()
    for iv in partition.intervals:
        if not _leq(iv.a, iv.b):
            return False, "interval bottom above top"
        if iv.b not in point_set:
            return False, "interval top not in poset"
        for c in _cartesian(*(range(lo, hi + 1) for lo, hi in zip(iv.a, iv.b))):
            if c not in point_set:
                return False, "interval leaves the poset"
            if c in seen:
                return False, "overlapping intervals"
            seen.add(c)
    if seen != point_set:
        return False, "coverage gap"
    return True, "min label %d" % partition.min_label(poset)


def partition_to_decomposition(partition, g):
    """Stanley summands: interval [a, b] -> (x^a, {i : b_i = g_i})."""
    cap = g.exponents if isinstance(g, Monomial) else tuple(g)
    out = []
    for iv in partition.intervals:
        zs = tuple(i + 1 for i, (bi, gi) in enumerate(zip(iv.b, cap)) if bi == gi)
        out.append((Monomial(iv.a), zs))
    return out
