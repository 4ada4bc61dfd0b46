"""Exact Stanley depth of S/I via interval partitions of the HVZ poset.

The characteristic poset holds the exponent vectors a <= g (componentwise,
g defaulting to the exponent of lcm(G(I))) with x^a outside I.  A Stanley
decomposition with sdepth >= k corresponds to a partition of the poset
into intervals [a, b] whose label |{i : b_i = g_i}| is at least k; the
search is an exact cover over interval candidates, decided from high k
downward.  A budget exhaustion is an error, never a wrong answer.

The kernel runs on bitsets.  The poset is built by walking the box one
variable at a time with the Betti engine's generator bitsets
(`depth._below_bitsets`).  The descent starts at min(sweep, Hilbert): the
sweep bound is the smallest label of a maximal point, above which no k
can pass, so a depth-0 quotient gets sdepth 0 with no search; the Hilbert
bound, read off the poset's Hilbert series and computed only when the
sweep bound is at least 2, is the largest d with (1-t)^d H(S/I; t)
nonnegative, which no Stanley decomposition can beat.  Admissible tops
and interval cells are ANDs of per-coordinate bitsets, and the exact
cover runs as a loop over an explicit stack that remembers no refuted
covering.  The pre-check and candidate construction are charged in the
units of the linear scans they replace, so an instance runs out in the
same phase, with the same message, as under them; the search pays one
node per covering it visits, revisits included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product as _cartesian
from math import comb
from operator import lt

from .depth import _below_bitsets
from .monomials import Monomial

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
    of the componentwise order.
    """

    n_vars: int
    g: tuple
    points: tuple

    def label(self, b):
        return sum(1 for bi, gi in zip(b, self.g) if bi == gi)

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
    sdepth: int
    poset_size: int
    partition: StanleyPartition


# box-size cap of every characteristic poset unless the caller passes another
# one: library calls and the command line alike
DEFAULT_POSET_CAP = 100_000


def build_poset(ideal, g=None, cap=DEFAULT_POSET_CAP):
    """The exponent vectors a <= g outside I, sorted by (degree, lex).

    g must be a multiple of lcm(G(I)); it defaults to the lcm.

    The box is walked variable by variable, carrying the AND of the
    `_below_bitsets` rows of the prefix: the generators that still fit
    under it.  A point lies outside I iff that AND is zero at its last
    variable, and once it is zero every completion of the prefix does.
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
    size = 1
    for e in cap_vec:
        size *= e + 1
    if size > cap:
        raise PosetCapError("box of size %d exceeds cap %d" % (size, cap))
    rows = _below_bitsets([h.exponents for h in ideal.gens], cap_vec)
    ranges = [range(e + 1) for e in cap_vec]
    last = len(cap_vec) - 1
    points = []

    def walk(prefix, i, fitting):
        if not fitting:
            points.extend(prefix + rest for rest in _cartesian(*ranges[i:]))
        elif i == last:
            # the rows grow with v, so the points end at the first hit
            for v, row in enumerate(rows[i]):
                if fitting & row:
                    break
                points.append(prefix + (v,))
        else:
            for v, row in enumerate(rows[i]):
                walk(prefix + (v,), i + 1, fitting & row)

    walk((), 0, -1)
    points.sort(key=lambda a: (sum(a), a))
    return CharacteristicPoset(ideal.n_vars, cap_vec, tuple(points))


def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _sweep_bound(poset):
    """Smallest label of a maximal poset point.

    A maximal point is its own only admissible top, and every point lies
    below a maximal one, so this is the largest k at which every point
    has an admissible top: no partition reaches a larger min label.  It is
    0 exactly when a socle monomial of S/I exists, i.e. when depth is 0.
    """
    members = set(poset.points)
    bound = poset.n_vars
    for p in poset.points:
        label = 0
        for i, (x, gi) in enumerate(zip(p, poset.g)):
            if x == gi:
                label += 1
            elif p[:i] + (x + 1,) + p[i + 1:] in members:
                break
        else:
            bound = min(bound, label)
    return bound


def _hilbert_bound(poset, upto):
    """Largest d <= upto with (1-t)^d H(S/I; t) nonnegative: sdepth <= d.

    A Stanley decomposition with every |Z| >= d gives (1-t)^d H a sum of
    t^deg / (1-t)^(|Z|-d), so d bounds sdepth from above (the easy
    direction of Hilbert depth).  For g >= lcm each poset point p stands
    for the monomials agreeing with it below g, so H = sum_p
    t^|p| / (1-t)^label(p), and K = (1-t)^n H is a polynomial.  The
    coefficients of K/(1-t)^r are prefix sums, r levels deep, of K's; a
    scan stops at the first negative one of level r, or at the first
    j >= deg K where every level is >= 0: past deg K level 1 is constant
    and each level is a running sum of the one below, so none turns
    negative again.  The scan ends because K = (1-t)^(n-dim) Q, Q(1) > 0.
    """
    n = poset.n_vars
    shapes = Counter((sum(p), poset.label(p)) for p in poset.points)
    K = [0] * (sum(poset.g) + n + 1)
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


def has_partition_min_label(poset, k, node_budget=DEFAULT_BUDGET):
    """A StanleyPartition with every interval label >= k, or None.

    Canonical exact-cover search: points are scanned in a fixed linear
    extension, and the first uncovered point must be the bottom of the
    interval covering it, which makes the search complete and free of
    duplicate states.  None is returned only after exhaustion; running out
    of budget raises SearchBudgetError instead.

    The admissible tops of p (tops b >= p with label >= k) are the AND of
    per-coordinate bitsets over the tops, and the interval [p, b] is the
    bitset up(p) & down(b) over the points.  The budget is charged in the
    units of a linear scan of the tops: the pre-check pays the 1-based
    position of p's first admissible top, and candidate construction pays
    one per top plus the size of each admissible interval.

    The search is a loop over an explicit stack of (covered, first
    uncovered point, candidate iterator) frames, and that stack, the
    chosen path and the candidate masks are all it holds: it keeps no
    record of refuted coverings, so a covering reached along two paths
    is searched twice.  It pays one node per visited covering, the root
    and every revisit included.  Intervals are built only for the
    partition returned.
    """
    points = poset.points
    npts = len(points)
    if k < 0 or k > poset.n_vars:
        raise ValueError("k out of range")
    if k == 0:
        return StanleyPartition(tuple(PosetInterval(a, a) for a in points))
    tops = [b for b in points if poset.label(b) >= k]
    if not tops:
        # no point has an admissible top
        return None

    def at_least(below):
        # rows[i][v]: the vectors with x_i exponent >= v; below's last row,
        # at v = g_i, holds all of them
        return [[row[-1]] + [row[-1] ^ r for r in row[:-1]] for row in below]

    top_rows = at_least(_below_bitsets(tops, poset.g))

    def admissible(p):
        found = -1
        for row, v in zip(top_rows, p):
            found &= row[v]
        return found

    # cheap complete pre-check: a point with no admissible top decides
    # the answer without building any interval masks
    work = 0
    for p in points:
        found = admissible(p)
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
    work += npts * len(tops)
    too_many = "exceeded %d nodes building interval candidates" % node_budget
    if work > node_budget:
        raise SearchBudgetError(too_many)
    below = _below_bitsets(points, poset.g)
    up_rows = at_least(below)
    full = (1 << npts) - 1
    downs = {}
    candidates = []
    for p in points:
        up = full
        for row, v in zip(up_rows, p):
            up &= row[v]
        found = admissible(p)
        cand = []
        while found:
            low = found & -found
            found ^= low
            j = low.bit_length() - 1
            down = downs.get(j)
            if down is None:
                down = full
                for row, v in zip(below, tops[j]):
                    down &= row[v]
                downs[j] = down
            mask = up & down
            work += mask.bit_count()
            if work > node_budget:
                raise SearchBudgetError(too_many)
            cand.append((mask, tops[j]))
        cand.sort(key=lambda mb: -mb[0].bit_count())
        candidates.append(cand)
    del downs, below, up_rows  # the search needs only the masks
    exhausted = "exceeded %d search nodes" % node_budget
    nodes = 1  # the root; candidate construction has charged more already
    chosen = []  # the (first, top) choices on the path to the innermost frame
    stack = [(0, 0, iter(candidates[0]))]
    while stack:
        covered, first, options = stack[-1]
        for mask, top in options:
            if mask & covered:
                continue
            child = covered | mask
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetError(exhausted)
            chosen.append((first, top))
            if child == full:
                return StanleyPartition(
                    tuple(PosetInterval(points[f], b) for f, b in chosen)
                )
            nxt = ((child + 1) & ~child).bit_length() - 1
            stack.append((child, nxt, iter(candidates[nxt])))
            break
        else:
            stack.pop()
            if stack:
                chosen.pop()
    return None


def sdepth_quotient(ideal, g=None, cap=DEFAULT_POSET_CAP, node_budget=DEFAULT_BUDGET):
    """Exact sdepth(S/I): largest k admitting an interval partition.

    The descent starts at min(sweep, Hilbert), above which no k can pass.
    """
    poset = build_poset(ideal, g=g, cap=cap)
    top = _sweep_bound(poset)
    if top >= 2:
        # a positive sweep bound means depth >= 1, hence sdepth >= 1, so
        # at sweep bound 1 no bound can shorten the descent
        top = _hilbert_bound(poset, top)
    for k in range(top, 0, -1):
        partition = has_partition_min_label(poset, k, node_budget=node_budget)
        if partition is not None:
            return SdepthResult(k, len(poset), partition)
    return SdepthResult(
        0, len(poset), has_partition_min_label(poset, 0, node_budget=node_budget)
    )


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
