"""Exact Stanley depth of S/I via interval partitions of the HVZ poset.

The characteristic poset holds the exponent vectors a <= g (componentwise,
g defaulting to the exponent of lcm(G(I))) with x^a outside I.  A Stanley
decomposition with sdepth >= k corresponds to a partition of the poset
into intervals [a, b] whose label |{i : b_i = g_i}| is at least k; the
search is an exact cover over interval candidates, decided from high k
downward.  A budget exhaustion is an error, never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian

from .monomials import Monomial

__all__ = [
    "DEFAULT_BUDGET",
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


def build_poset(ideal, g=None, cap=100000):
    """Enumerate the box below g and keep the exponent vectors outside I."""
    if ideal.is_zero() or ideal.is_whole_ring():
        raise ValueError("needs a proper nonzero ideal")
    if g is None:
        g = ideal.lcm_of_gens()
    cap_vec = g.exponents
    size = 1
    for e in cap_vec:
        size *= e + 1
    if size > cap:
        raise PosetCapError("box of size %d exceeds cap %d" % (size, cap))
    gens = [h.exponents for h in ideal.gens]
    points = [
        a
        for a in _cartesian(*(range(e + 1) for e in cap_vec))
        if not any(all(x <= y for x, y in zip(h, a)) for h in gens)
    ]
    points.sort(key=lambda a: (sum(a), a))
    return CharacteristicPoset(ideal.n_vars, cap_vec, tuple(points))


def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _interval_mask(poset, index, a, b):
    mask = 0
    cells = 0
    for exps in _cartesian(*(range(lo, hi + 1) for lo, hi in zip(a, b))):
        mask |= 1 << index[exps]
        cells += 1
    return mask, cells


# most refuted coverings the search remembers; past it, states are re-searched
_MEMO_CAP = 500_000


def has_partition_min_label(poset, k, node_budget=DEFAULT_BUDGET):
    """A StanleyPartition with every interval label >= k, or None.

    Canonical exact-cover search: points are scanned in a fixed linear
    extension, and the first uncovered point must be the bottom of the
    interval covering it, which makes the search complete and free of
    duplicate states.  None is returned only after exhaustion; running out
    of budget raises SearchBudgetError instead.
    """
    points = poset.points
    npts = len(points)
    if k < 0 or k > poset.n_vars:
        raise ValueError("k out of range")
    if k == 0:
        return StanleyPartition(tuple(PosetInterval(a, a) for a in points))
    index = {a: i for i, a in enumerate(points)}
    labels = [poset.label(a) for a in points]
    tops = [points[i] for i in range(npts) if labels[i] >= k]
    # cheap complete pre-check: a point with no admissible top decides
    # the answer without building any interval masks
    work = 0
    for p in points:
        found = False
        for b in tops:
            work += 1
            if _leq(p, b):
                found = True
                break
        if not found:
            return None
        # a comparison is far cheaper than a search node; scale accordingly
        if work > 10 * node_budget:
            raise SearchBudgetError(
                "exceeded %d comparisons in the admissible-top pre-check"
                % (10 * node_budget)
            )
    # candidate construction is the quadratic part; it shares the budget
    candidates = []
    for i, p in enumerate(points):
        cand = []
        for b in tops:
            work += 1
            if _leq(p, b):
                mask, cells = _interval_mask(poset, index, p, b)
                work += cells
                cand.append((mask, b))
            if work > node_budget:
                raise SearchBudgetError(
                    "exceeded %d nodes building interval candidates" % node_budget
                )
        if not cand:
            return None
        cand.sort(key=lambda mb: -mb[0].bit_count())
        candidates.append(cand)
    full = (1 << npts) - 1
    dead = set()
    nodes = 0

    def search(covered, chosen):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetError("exceeded %d search nodes" % node_budget)
        if covered == full:
            return True
        if covered in dead:
            return False
        free = ~covered & full
        first = (free & -free).bit_length() - 1
        for mask, b in candidates[first]:
            if mask & covered:
                continue
            chosen.append(PosetInterval(points[first], b))
            if search(covered | mask, chosen):
                return True
            chosen.pop()
        if len(dead) < _MEMO_CAP:
            dead.add(covered)
        return False

    chosen = []
    if search(0, chosen):
        return StanleyPartition(tuple(chosen))
    return None


def sdepth_quotient(ideal, g=None, cap=100000, node_budget=DEFAULT_BUDGET):
    """Exact sdepth(S/I): largest k admitting an interval partition."""
    poset = build_poset(ideal, g=g, cap=cap)
    k_hi = max(poset.label(a) for a in poset.points)
    for k in range(k_hi, 0, -1):
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
