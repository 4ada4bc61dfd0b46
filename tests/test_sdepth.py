"""Characteristic poset, interval partitions, and Stanley depth."""

import gc
import random
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import product as cartesian
from math import ceil, comb, factorial, prod
from operator import itemgetter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pathdepth import sdepth
from pathdepth.depth import betti, depth_quotient
from pathdepth.families import cycle_ideal, path_ideal
from pathdepth.monomials import (
    Monomial,
    MonomialIdeal,
    _at_least_patterns,
    _below_bitsets,
    parse_ideal,
)
from pathdepth.sdepth import (
    DEFAULT_BUDGET,
    CharacteristicPoset,
    PosetCapError,
    PosetInterval,
    SdepthResult,
    SearchBudgetError,
    StanleyPartition,
    _admissible_tops,
    _at_least,
    _box,
    _candidate_charge,
    _colon_bound,
    _colon_exponents,
    _colon_shapes,
    _contain,
    _hilbert_bound,
    _invariant_partition,
    _most_constrained,
    _shape_bound,
    _shape_classes,
    _split_axes,
    _sweep_bound,
    _symmetry_groups,
    build_poset,
    has_partition_min_label,
    partition_to_decomposition,
    sdepth_quotient,
    verify_partition,
)

# tuple-scan oracles: the engine before its bitset kernel ---------------


def box_scan_poset(ideal, g=None, cap=100000):
    """Reference poset: every point of the box tested against every
    generator, and the sweep bound found by `scan_sweep_bound`."""
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
        for a in cartesian(*(range(e + 1) for e in cap_vec))
        if not any(all(x <= y for x, y in zip(h, a)) for h in gens)
    ]
    points.sort(key=lambda a: (sum(a), a))
    unswept = CharacteristicPoset(ideal.n_vars, cap_vec, tuple(points), None)
    return replace(unswept, sweep=scan_sweep_bound(unswept))


def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _interval_mask(poset, index, a, b):
    mask = 0
    cells = 0
    for exps in cartesian(*(range(lo, hi + 1) for lo, hi in zip(a, b))):
        mask |= 1 << index[exps]
        cells += 1
    return mask, cells


def precheck_passes(poset, k):
    """Reference pre-check without a budget: every point has an admissible top."""
    tops = [b for b in poset.points if poset.label(b) >= k]
    return all(any(_leq(p, b) for b in tops) for p in poset.points)


def linear_scan_has_partition(poset, k, node_budget=DEFAULT_BUDGET, *, memo_cap):
    """Reference search: linear scans of the tops, masks cell by cell.

    The exact-cover search is a recursion that remembers at most
    `memo_cap` refuted coverings (None: every one) and cuts off the
    subtree below each remembered one.  At memo_cap=0 it walks the
    engine's tree, with the engine's budget units and messages.
    """
    points = poset.points
    npts = len(points)
    if k == 0:
        return StanleyPartition(tuple(PosetInterval(a, a) for a in points))
    index = {a: i for i, a in enumerate(points)}
    tops = [b for b in points if poset.label(b) >= k]
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
        if work > 10 * node_budget:
            raise SearchBudgetError(
                "exceeded %d comparisons in the admissible-top pre-check"
                % (10 * node_budget)
            )
    candidates = []
    for p in points:
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
        if memo_cap is None or len(dead) < memo_cap:
            dead.add(covered)
        return False

    chosen = []
    if search(0, chosen):
        return StanleyPartition(tuple(chosen))
    return None


# memo-free predecessors: the exact covers and the symmetry finder before
# they charged a refuted revisit its recorded cost instead of searching it
# again ---------------------------------------------------------------


def memo_free_search(poset, k, node_budget, reserve=0, pause=None):
    """`sdepth._search` as it was when it searched every revisit again: the
    same pre-check and candidate charges, lists, pause and messages."""
    points = poset.points
    npts = len(points)
    if node_budget < 1:
        raise ValueError("node_budget must be at least 1, got %r" % (node_budget,))
    if k < 0 or k > poset.n_vars:
        raise ValueError("k out of range")
    if k == 0:
        return StanleyPartition(tuple(PosetInterval(a, a) for a in points))
    tops = [b for b in points if poset.label(b) >= k]
    if not tops:
        return None
    top_rows = _at_least(_below_bitsets(tops, poset.g))

    def admissible(p):
        found = -1
        for row, v in zip(top_rows, p):
            found &= row[v]
        return found

    work = 0
    for p in points:
        found = admissible(p)
        if not found:
            return None
        work += (found & -found).bit_length()
        if work > 10 * node_budget:
            raise SearchBudgetError(
                "exceeded %d comparisons in the admissible-top pre-check" % (10 * node_budget)
            )
    if work + _candidate_charge(npts, tops) > node_budget:
        raise SearchBudgetError("exceeded %d nodes building interval candidates" % node_budget)
    below, up_rows = poset.below, poset.up
    full = (1 << npts) - 1
    candidates = [None] * npts

    def build(i):
        up = full
        for row, v in zip(up_rows, points[i]):
            up &= row[v]
        cand = []
        for j in bit_positions(admissible(points[i])):
            down = full
            for row, v in zip(below, tops[j]):
                down &= row[v]
            cand.append(up & down)
        cand.sort(key=int.bit_count, reverse=True)
        candidates[i] = cand
        return cand

    limit = node_budget - reserve
    stop = limit if pause is None else min(pause, limit)
    nodes = 1
    covered = 0
    options = iter(build(0))
    stack = []
    while True:
        for mask in options:
            if mask & covered:
                continue
            nodes += 1
            if nodes > stop:
                if stop == limit:
                    raise SearchBudgetError("exceeded %d search nodes" % node_budget)
                yield
                stop = limit
            child = covered | mask
            if child == full:
                coverings = [c for c, _ in stack] + [covered, full]
                return StanleyPartition(
                    tuple(
                        PosetInterval(points[(m & -m).bit_length() - 1], points[m.bit_length() - 1])
                        for m in (b ^ a for a, b in zip(coverings, coverings[1:]))
                    )
                )
            stack.append((covered, options))
            covered = child
            nxt = ((child + 1) & ~child).bit_length() - 1
            cand = candidates[nxt]
            options = iter(build(nxt) if cand is None else cand)
            break
        else:
            if not stack:
                return None
            covered, options = stack.pop()


def bit_positions(mask):
    """The positions of the set bits of `mask`, lowest first, as a list."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def first_fewest(free, live, contain):
    """The most-constrained point scan over a list of the points of `free`:
    (the live intervals holding the first point that the fewest of them
    hold, the number of points examined), stopping at a count of 0 or 1."""
    best, examined = None, 0
    for q in bit_positions(free):
        examined += 1
        here = contain[q] & live
        if best is None or here.bit_count() < best.bit_count():
            best = here
            if best.bit_count() <= 1:
                break
    return best, examined


def memo_free_most_constrained(points, candidates, units):
    """`sdepth._most_constrained` as it was when it searched every revisit
    again: the same order, units and message, with its own point scan."""
    masks = sorted((mask for cand in candidates for mask in cand), key=int.bit_count, reverse=True)
    contain = _contain(points, masks, range(len(points)))
    full = (1 << len(points)) - 1
    live = (1 << len(masks)) - 1
    options, spent = first_fewest(full, live, contain)
    chosen = []
    stack = [(0, live, iter(bit_positions(options)))]
    while stack:
        if spent > units:
            raise SearchBudgetError("exceeded %d units in the most-constrained search" % units)
        covered, live, options = stack[-1]
        for i in options:
            mask = masks[i]
            chosen.append(mask)
            child = covered | mask
            if child == full:
                return StanleyPartition(
                    tuple(
                        PosetInterval(points[(m & -m).bit_length() - 1], points[m.bit_length() - 1])
                        for m in chosen
                    )
                )
            dead = 0
            for q in bit_positions(mask):
                dead |= contain[q]
            live &= ~dead
            options, examined = first_fewest(full ^ child, live, contain)
            spent += mask.bit_count() + examined
            stack.append((child, live, iter(bit_positions(options))))
            break
        else:
            stack.pop()
            if stack:
                chosen.pop()
    return None


def stack_invariant_partition(poset, k, groups, budget):
    """`sdepth._invariant_partition` as it was when it ran its own stack
    loop, without the memo: the same orbit lists, units and partitions."""
    points = poset.points
    full = (1 << len(points)) - 1
    tops = [b for b in points if poset.label(b) >= k]
    if not tops:
        return None
    top_rows = _at_least(_below_bitsets(tops, poset.g))
    units = 0
    for group in groups:
        acts = [itemgetter(*h) for h in group]
        lists = {}
        chosen = []  # the (bottom, top) of each orbit on the path to the innermost frame
        stack = []
        child = nxt = 0
        while True:
            options = lists.get(nxt)
            if options is None:
                options, spent = sdepth._orbit_candidates(
                    points[nxt], acts, tops, top_rows, poset.below, poset.up, budget - units
                )
                units += spent
                if units > budget:
                    return None
                lists[nxt] = options
            stack.append((child, points[nxt], iter(options)))
            while stack:
                covered, p, options = stack[-1]
                for mask, b in options:
                    if not mask & covered:
                        break
                else:
                    stack.pop()
                    if stack:
                        chosen.pop()
                    continue
                units += 1
                if units > budget:
                    return None
                chosen.append((p, b))
                child = covered | mask
                if child == full:
                    return StanleyPartition(
                        tuple(
                            PosetInterval(a, c)
                            for p, b in chosen
                            for a, c in sdepth._orbit(p, b, acts)
                        )
                    )
                nxt = ((child + 1) & ~child).bit_length() - 1
                break
            else:
                break
    return None


def max_label_descent(ideal, node_budget=DEFAULT_BUDGET):
    """Reference sdepth: the descent from the largest label, on the oracles."""
    poset = box_scan_poset(ideal)
    for k in range(max(poset.label(a) for a in poset.points), 0, -1):
        partition = linear_scan_has_partition(poset, k, node_budget, memo_cap=0)
        if partition is not None:
            return SdepthResult(k, poset, partition)
    return SdepthResult(0, poset, linear_scan_has_partition(poset, 0, node_budget, memo_cap=0))


def betti_hilbert_bound(ideal, upto):
    """Reference Hilbert-depth bound from the Betti table's K-polynomial.

    K(t) = sum (-1)^i beta_{i,a} t^|a|.  The coefficient of t^j in
    K/(1-t)^r is sum_e K_e C(j - e + r - 1, r - 1); past deg K it is a
    polynomial in j, whose real roots lie below the Cauchy bound
    1 + max |c_i / c_lead|.  So every j up to there and the sign of the
    leading coefficient decide whether all coefficients are >= 0.
    """
    K = {}
    for (i, a), rank in betti(ideal).entries.items():
        K[a.degree()] = K.get(a.degree(), 0) + (-1) ** i * rank
    deg = max(K)

    def nonnegative(r):
        tail = [Fraction(0)] * r
        for e, c in K.items():
            poly = [Fraction(c, factorial(r - 1))]
            for s in range(1, r):
                # times (j + s - e)
                poly = [
                    (poly[i - 1] if i else 0) + (s - e) * (poly[i] if i < len(poly) else 0)
                    for i in range(len(poly) + 1)
                ]
            for i, x in enumerate(poly):
                tail[i] += x
        while tail and not tail[-1]:
            tail.pop()
        if tail and tail[-1] < 0:
            return False
        reach = deg
        if tail:
            reach = max(deg, ceil(1 + max((abs(x / tail[-1]) for x in tail[:-1]), default=0)))
        return all(
            sum(c * comb(j - e + r - 1, r - 1) for e, c in K.items() if e <= j) >= 0
            for j in range(reach + 1)
        )

    return max(d for d in range(upto + 1) if nonnegative(ideal.n_vars - d))


def scan_sweep_bound(poset):
    """Reference sweep bound: a set of the points, and a tuple built per
    coordinate test, as the bound was found before it was read off the
    box's bitsets."""
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


def counter_hilbert_bound(poset, upto):
    """Reference Hilbert bound: the (degree, label) shapes counted point by
    point, as before they were counted off the shape classes."""
    shapes = Counter(zip(map(sum, poset.points), map(poset.label, poset.points)))
    return _shape_bound(shapes, poset.n_vars, upto)


def scan_colon_bound(poset, upto):
    """Reference colon bound: every colon's shapes bounded, those equal to
    an earlier colon's included."""
    classes = _shape_classes(poset)
    best = upto
    for a in _colon_exponents(poset.g):
        if best <= 1:
            break
        shapes = _colon_shapes(classes, poset.up, a)
        if shapes is not None:
            best = _shape_bound(shapes, poset.n_vars, best)
    return best


def _outcome(run):
    try:
        return run()
    except SearchBudgetError as e:
        return "budget: %s" % e


@st.composite
def small_ideals(draw, n_max=4, exp_max=2, gens_max=4):
    n = draw(st.integers(1, n_max))
    gens = []
    for _ in range(draw(st.integers(1, gens_max))):
        exps = tuple(draw(st.integers(0, exp_max)) for _ in range(n))
        if any(exps):
            gens.append(Monomial(exps))
    if not gens:
        gens = [Monomial(tuple([1] + [0] * (n - 1)))]
    return MonomialIdeal(n, gens)


def cone_loop_members(ideal, g):
    """Reference poset bitset over the box of the vectors a <= g, bit r
    standing for the point of lex rank r: the points under no generator's
    up-cone, each cone an AND of "x_i >= h_i" patterns over the support of
    h, one generator at a time, the box's members before the seed's
    closure."""
    spans = [e + 1 for e in g]
    strides = [prod(spans[i + 1:]) for i in range(len(spans))]
    size = prod(spans)
    inside = 0
    for h in ideal.gens:
        cone = (1 << size) - 1
        for i, e in enumerate(h.exponents):
            if e:
                cone &= _at_least_patterns({e}, spans[i], strides[i], size)[e]
        inside |= cone
    return ((1 << size) - 1) ^ inside


@given(small_ideals(), st.lists(st.integers(0, 1), min_size=4, max_size=4))
@example(parse_ideal("x1*x2, x2^2", 3), [0, 0, 0])  # x3 in no generator: a span of 1
@example(parse_ideal("x1^4*x2, x2^8", 2), [1, 0])  # spans 6 and 9
@example(parse_ideal("x1^6, x2^5*x3, x1*x3^4", 3), [0, 0, 0])  # spans 7, 6 and 5
@example(parse_ideal("x1^257*x2, x2^2", 2), [0, 1])  # an exponent above 255
@example(parse_ideal("x1*x2, x2^2*x3", 3), [3, 0, 2])  # g 3 and 2 above the lcm
@settings(max_examples=60, deadline=None)
def test_bitset_kernel_matches_tuple_scan_oracles(ideal, bump):
    # identical points, in the same order, for g = lcm and for a g above
    # it, and the box's members against the per-generator cones
    lcm = ideal.lcm_of_gens().exponents
    above = Monomial(tuple(e + b for e, b in zip(lcm, bump)))
    posets = []
    for g in (None, above):
        poset = build_poset(ideal, g=g)
        assert poset == box_scan_poset(ideal, g=g)
        box = _box(ideal, g)
        assert box.every ^ box.inside == cone_loop_members(ideal, poset.g)
        posets.append(poset)
    # the same partition, the same None or the same budget message, at
    # every k and at budgets that stop each phase
    for poset in posets:
        for k in range(ideal.n_vars + 1):
            for budget in (1, 50, 2000, DEFAULT_BUDGET):
                got = _outcome(lambda: has_partition_min_label(poset, k, budget))
                want = _outcome(
                    lambda: linear_scan_has_partition(poset, k, budget, memo_cap=0)
                )
                assert got == want, (str(ideal), poset.g, k, budget)


def test_search_kernel_matches_memo_free_oracle():
    # I(4,2)^2 refutes k = 2 in 1987 search nodes, where a memo of every
    # refuted covering took 349; the six-variable ideal refutes k = 4 and
    # revisits coverings on the way
    ideals = (
        path_ideal(4, 2).power(2),
        parse_ideal("x2*x3*x5*x6, x2*x3*x4*x6, x1*x5, x1*x4*x6", 6),
        cycle_ideal(5, 3),
        parse_ideal("x1^2, x1*x2, x2*x3^2", 3),
    )
    posets = [build_poset(ideal) for ideal in ideals]
    for poset in posets:
        for k in range(1, poset.n_vars + 1):
            for budget in (1, 2, 5, 50, 1912, 1913, 1950, 1986, 1987, 2000):
                got = _outcome(lambda: has_partition_min_label(poset, k, budget))
                want = _outcome(
                    lambda: linear_scan_has_partition(poset, k, budget, memo_cap=0)
                )
                assert got == want, (poset.g, k, budget)
    # every revisit costs its node: the refutation needs all 1987
    assert "search nodes" in _outcome(lambda: has_partition_min_label(posets[0], 2, 1986))
    assert has_partition_min_label(posets[0], 2, 1987) is None
    # (J(6,4)^2, x6^2) at k = 2: no partition within the default budget
    x6 = Monomial.variable(6, 6)
    poset = build_poset(cycle_ideal(6, 4).power(2) + MonomialIdeal.principal(x6 ** 2))
    assert _outcome(lambda: has_partition_min_label(poset, 2)) == (
        "budget: exceeded 2000000 search nodes"
    )


# _MEMO_ENTRIES: 1, which evicts every record at once; 2 and 8, which
# evict in mid-search on the small posets; the default; and a cap no
# search reaches, so the floor stays at 1
MEMO_SETTINGS = (1, 2, 8, None, 1 << 30)


@contextmanager
def memo_setting(setting):
    with pytest.MonkeyPatch.context() as patch:
        if setting is not None:
            patch.setattr(sdepth, "_MEMO_ENTRIES", setting)
        yield


@given(st.integers(1, 8), st.lists(st.integers(0, 300), max_size=60))
@settings(max_examples=200, deadline=None)
def test_remember_keeps_the_costliest_entries_under_the_cap(cap, costs):
    # covering i refuted at costs[i]: after each call the memo holds fewer
    # than cap entries, exactly those of the costs so far at or above the
    # floor, and the floor, a power of two, doubled only on a full memo; at
    # cap 1 every record is evicted at once, and the loop ends
    with memo_setting(cap):
        sizes, floor = {}, 1
        for i, cost in enumerate(costs):
            floor = sdepth._remember(sizes, floor, i, cost)
            assert len(sizes) < cap
            assert sizes == {j: c for j, c in enumerate(costs[: i + 1]) if c >= floor}
            assert floor & (floor - 1) == 0
            assert floor == 1 or sum(c >= floor // 2 for c in costs[: i + 1]) >= cap
            if cap == 1:
                assert sizes == {} and floor > cost


def test_memo_keeps_the_costliest_refuted_subtrees():
    # every exhausted frame but the root goes through `_remember`: with
    # the costliest subtrees kept, the canonical search of (J(6,4)^2, x6^2)
    # runs out at k = 2 after 136,250 of them
    exhausted = 0
    remember = sdepth._remember

    def counted(*args):
        nonlocal exhausted
        exhausted += 1
        return remember(*args)

    x6 = Monomial.variable(6, 6)
    poset = build_poset(cycle_ideal(6, 4).power(2) + MonomialIdeal.principal(x6 ** 2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdepth, "_remember", counted)
        assert _outcome(lambda: has_partition_min_label(poset, 2)) == (
            "budget: exceeded 2000000 search nodes"
        )
    assert exhausted == 136_250


def _least(holds):
    """The least n in 1..DEFAULT_BUDGET at which the monotone `holds` is
    true, by bisection; holds(DEFAULT_BUDGET) is taken to be true."""
    short, enough = 0, DEFAULT_BUDGET
    while enough - short > 1:
        mid = (short + enough) // 2
        if holds(mid):
            enough = mid
        else:
            short = mid
    return enough


def _trace(search):
    """A `_search` generator run to its end: [whether it paused, then its
    answer], or its budget message where it ran out."""
    steps = []
    try:
        paused, answer = sdepth._advance(search)
        steps.append(paused)
        steps.append(sdepth._advance(search)[1] if paused else answer)
    except SearchBudgetError as e:
        steps.append("budget: %s" % e)
    return steps


def _search_matches_predecessor(poset, k, fractions):
    """Whether `_search`, under every memo setting, traces as
    `memo_free_search` does at k: unpaused at budget 1, on each side of
    the fewest nodes that decide, and at the default; paused at no node,
    at each of `fractions` of the search's nodes and on each side of its
    last one; and with the limit, set by a reserve, on each side of that
    node, with and without the pause."""

    def oracle(budget, reserve=0, pause=None):
        return _trace(memo_free_search(poset, k, budget, reserve, pause))

    calls = [(DEFAULT_BUDGET, 0, None)]
    if not isinstance(oracle(DEFAULT_BUDGET)[-1], str):
        needed = _least(lambda budget: not isinstance(oracle(budget)[-1], str))
        # the search's nodes: the least pause that the search never reaches
        nodes = _least(lambda pause: not oracle(DEFAULT_BUDGET, 0, pause)[0])
        pauses = (0, *(int(f * nodes) for f in fractions), nodes - 1, nodes)
        calls += [(budget, 0, None) for budget in {1, max(needed - 1, 1), needed}]
        calls += [(DEFAULT_BUDGET, 0, pause) for pause in pauses]
        calls += [
            (DEFAULT_BUDGET, DEFAULT_BUDGET - limit, pause)
            for limit in (nodes - 1, nodes)
            for pause in (None, *pauses)
        ]
    want = [oracle(*call) for call in calls]
    for setting in MEMO_SETTINGS:
        with memo_setting(setting):
            if [_trace(sdepth._search(poset, k, *call)) for call in calls] != want:
                return False
    return True


@given(small_ideals(), st.floats(0, 1))
@settings(max_examples=40, deadline=None)
def test_search_matches_its_memo_free_predecessor(ideal, fraction):
    # a refuted revisit charged its recorded cost leaves every node count,
    # pause, budget message and partition as searching it again did
    poset = build_poset(ideal)
    for k in range(ideal.n_vars + 1):
        assert _search_matches_predecessor(poset, k, [fraction]), (str(ideal), k)


def test_search_matches_its_memo_free_predecessor_on_larger_posets():
    # posets of 21 to 50 points whose refutations revisit coverings, I(4,2)^2
    # at k = 2 across its 1,987 nodes
    for ideal in (
        path_ideal(4, 2).power(2),
        parse_ideal("x2*x3*x5*x6, x2*x3*x4*x6, x1*x5, x1*x4*x6", 6),
        cycle_ideal(5, 3),
    ):
        poset = build_poset(ideal)
        for k in range(1, ideal.n_vars + 1):
            assert _search_matches_predecessor(poset, k, [0.3, 0.7]), (str(ideal), k)


# the memo search refutes k = 2 here within the default budget, which the
# engine, charged for every revisit, runs out of
REVISITING = parse_ideal("x2^2*x3^2, x1*x2^2*x3*x4^2, x1^2*x3*x4^2, x1^2*x3^2*x4", 4)


@given(small_ideals())
@example(REVISITING)
@settings(max_examples=60, deadline=None)
def test_search_decides_as_the_memo_search_did(ideal):
    # a remembered covering cuts off only a subtree already refuted, and
    # the memo search pays nothing for a revisit, so wherever the engine
    # decides, the search that remembered every refuted covering finds the
    # same partition, or None; where the engine runs out, the memo-free
    # search, whose nodes it counts, runs out with the same message
    poset = build_poset(ideal)
    for k in range(ideal.n_vars + 1):
        got = _outcome(lambda: has_partition_min_label(poset, k))
        if isinstance(got, str):
            want = _outcome(lambda: linear_scan_has_partition(poset, k, memo_cap=0))
        else:
            want = linear_scan_has_partition(poset, k, memo_cap=None)
        assert got == want, (str(ideal), k)


def test_memo_search_refutes_where_the_engine_runs_out():
    # each revisit of a refuted covering costs the engine the nodes of its
    # subtree, so it refutes k = 2 only at 10,000,000 nodes
    poset = build_poset(REVISITING)
    assert linear_scan_has_partition(poset, 2, memo_cap=None) is None
    assert _outcome(lambda: has_partition_min_label(poset, 2)) == (
        "budget: exceeded %d search nodes" % DEFAULT_BUDGET
    )
    assert has_partition_min_label(poset, 2, node_budget=10_000_000) is None
    assert sdepth_quotient(REVISITING).sdepth == 1


@given(small_ideals(), st.sampled_from([50, 2000, DEFAULT_BUDGET]))
@settings(max_examples=40, deadline=None)
def test_sweep_start_keeps_every_decided_answer(ideal, budget):
    # where the descent from the largest label decides, the sweep-bound
    # start gives the same result; it may only decide more
    want = _outcome(lambda: max_label_descent(ideal, budget))
    if isinstance(want, SdepthResult):
        assert sdepth_quotient(ideal, node_budget=budget) == want


@given(small_ideals(n_max=3, gens_max=3))
@settings(max_examples=40, deadline=None)
def test_sweep_bound_against_exhaustive_search(ideal):
    poset = build_poset(ideal)
    bound = _sweep_bound(_box(ideal))
    passing = [k for k in range(ideal.n_vars + 1) if precheck_passes(poset, k)]
    assert bound == max(passing)
    decided = max(k for k in range(ideal.n_vars + 1) if exhaustive_has_partition(poset, k))
    assert decided <= bound
    assert decided <= _hilbert_bound(poset, ideal.n_vars - 1)
    assert sdepth_quotient(ideal).sdepth == decided
    assert (bound == 0) == (depth_quotient(ideal).depth == 0)


def test_sweep_bound_on_ladder_instances():
    # tight at sdepth 3 for J(6,3)^2, above sdepth 1 for I(4,2)^3, and 0 at
    # depth 0 for J(5,4)^4
    for ideal, bound in (
        (cycle_ideal(6, 3).power(2), 3),
        (path_ideal(4, 2).power(3), 2),
        (cycle_ideal(5, 4).power(4), 0),
    ):
        assert _sweep_bound(_box(ideal)) == bound, str(ideal)


@st.composite
def bound_ideals(draw):
    """Small ideals, some with a pure power of every variable (depth 0) and
    some with the nonzero exponents of one variable raised to 255 or more."""
    ideal = draw(small_ideals(n_max=3))
    n = ideal.n_vars
    gens = [h.exponents for h in ideal.gens]
    if draw(st.booleans()):
        gens += [tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(n)) for i in range(n)]
    if draw(st.booleans()):
        wide = draw(st.integers(0, n - 1))
        shift = draw(st.integers(254, 298))
        gens = [tuple(e + shift if i == wide and e else e for i, e in enumerate(v)) for v in gens]
    return MonomialIdeal(n, [Monomial(v) for v in gens])


@given(bound_ideals(), st.data())
@settings(max_examples=60, deadline=None)
def test_bounds_match_their_scan_oracles(ideal, data):
    # the points read off the box bitset, the box-order sweep, the Hilbert
    # bound off the shape classes and the colon bound that skips repeated
    # shapes, against the scans they replace, for g = lcm and for a g above
    # it, on columns up to 299 wide
    lcm = ideal.lcm_of_gens().exponents
    above = Monomial(tuple(e + data.draw(st.integers(0, 1)) for e in lcm))
    upto = data.draw(st.integers(0, ideal.n_vars))
    for g in (None, above):
        poset = build_poset(ideal, g=g)
        where = (str(ideal), poset.g, upto)
        assert poset == box_scan_poset(ideal, g=g), where
        assert _sweep_bound(_box(ideal, g)) == scan_sweep_bound(poset), where
        assert _hilbert_bound(poset, upto) == counter_hilbert_bound(poset, upto), where
        assert _colon_bound(poset, upto) == scan_colon_bound(poset, upto), where


def test_bounds_match_their_scan_oracles_on_ladder_instances():
    # J(7,3)^3 (10,460 points), where rotations make most of the 141
    # colons repeat an earlier one's shapes, and I(7,3)^3 (12,550)
    for ideal in (cycle_ideal(7, 3).power(3), path_ideal(7, 3).power(3)):
        poset = build_poset(ideal)
        box = _box(ideal)
        assert box.every ^ box.inside == cone_loop_members(ideal, poset.g), str(ideal)
        assert _sweep_bound(box) == scan_sweep_bound(poset), str(ideal)
        assert _hilbert_bound(poset, 6) == counter_hilbert_bound(poset, 6), str(ideal)
        assert _colon_bound(poset, 6) == scan_colon_bound(poset, 6), str(ideal)


def assert_label_classes_match(poset):
    """Each label class holds exactly the points of its label, and the
    admissible tops at each k are the points of label >= k, in order."""
    labels = list(map(poset.label, poset.points))
    assert len(poset.label_classes) == poset.n_vars + 1
    for label, bits in enumerate(poset.label_classes):
        assert [bits >> j & 1 for j in range(len(labels))] == [x == label for x in labels]
        assert bits >> len(labels) == 0
    for k in range(poset.n_vars + 1):
        tops = [b for b in poset.points if poset.label(b) >= k]
        assert _admissible_tops(poset, k)[0] == tops, k


@given(bound_ideals(), st.data())
@settings(max_examples=60, deadline=None)
def test_labels_match_the_label_of_each_point(ideal, data):
    # for g = lcm, for a g above it, and for a g with a coordinate at 0
    # outside the ideal's support, which is at its cap at every point
    lcm = ideal.lcm_of_gens().exponents
    above = Monomial(tuple(e + data.draw(st.integers(0, 1)) for e in lcm))
    for g in (None, above):
        assert_label_classes_match(build_poset(ideal, g=g))
    wider = MonomialIdeal(ideal.n_vars + 1, [Monomial(h.exponents + (0,)) for h in ideal.gens])
    assert_label_classes_match(build_poset(wider))


def test_labels_in_many_variables():
    # squarefree in 16 variables, a poset of 2,207 points with labels up to
    # 8; and (x1x2) in 300 variables, labels above 255 from the 298
    # coordinates with g_i = 0
    poset = build_poset(cycle_ideal(16, 2))
    assert len(poset) == 2207
    assert_label_classes_match(poset)
    assert max(i for i, bits in enumerate(poset.label_classes) if bits) == 8
    poset = build_poset(parse_ideal("x1*x2", 300))
    assert_label_classes_match(poset)
    assert [i for i, bits in enumerate(poset.label_classes) if bits] == [298, 299]
    assert list(map(poset.label, poset.points)) == [298, 299, 299]


def test_sweep_bound_with_one_wide_exponent_builds_few_patterns():
    # x1^20000*x2: a box of 40,002 points.  Patterns only at rank 1, the
    # powers of two below the span and the top rank, 16 for x1, keep the
    # box pass and the sweep to a few dozen 40,002-bit ints, where one
    # pattern per value of x1 would take about 100 MB
    ideal = MonomialIdeal(2, [Monomial((20000, 1))])
    tracemalloc.start()
    try:
        box = _box(ideal)
        bound = _sweep_bound(box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bound == scan_sweep_bound(build_poset(ideal)) == 1
    assert peak < 4_000_000, peak
    assert box.every ^ box.inside == cone_loop_members(ideal, (20000, 1))


def test_colon_bound_bounds_each_shape_multiset_once(monkeypatch):
    # J(7,3)^3's 141 colons have 19 distinct shape multisets, and the bound
    # never falls to 1, so each of the 19 is bounded once and no other is
    poset = build_poset(cycle_ideal(7, 3).power(3))
    classes = _shape_classes(poset)
    every = [_colon_shapes(classes, poset.up, a) for a in _colon_exponents(poset.g)]
    distinct = {frozenset(shapes.items()) for shapes in every if shapes is not None}
    assert (len(every), len(distinct)) == (141, 19)
    bounded = []
    bound = sdepth._shape_bound

    def recorded(shapes, n, upto):
        bounded.append(frozenset(shapes.items()))
        return bound(shapes, n, upto)

    monkeypatch.setattr(sdepth, "_shape_bound", recorded)
    assert _colon_bound(poset, 6) == 2
    assert len(bounded) == 19 and set(bounded) == distinct


def test_rows_are_built_once_per_poset(monkeypatch):
    # J(6,4)^2 is searched at k = 3, bounded by its colons, then searched
    # and decided by the finder at k = 2: one box pass gives its points and
    # its sweep bound, and one set of rows over its points serves them all
    built, boxes = [], []
    rows, box = sdepth._below_bitsets, sdepth._build_box

    def counted(vectors, caps=None):
        built.append(vectors)
        return rows(vectors, caps)

    def counted_box(*args):
        boxes.append(args)
        return box(*args)

    monkeypatch.setattr(sdepth, "_below_bitsets", counted)
    monkeypatch.setattr(sdepth, "_build_box", counted_box)
    ideal = cycle_ideal(6, 4).power(2)
    assert sdepth_quotient(ideal).sdepth == 2
    assert len(boxes) == 1
    assert built.count(build_poset(ideal).points) == 1


def test_sdepth_quotient_builds_its_poset_through_build_poset(monkeypatch):
    # a wrapper on the module global, as a tracer places one, sees the
    # engine's own build, and the poset it returns is the one decided on
    built = []
    original = sdepth.build_poset

    def counted(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sdepth, "build_poset", counted)
    result = sdepth_quotient(cycle_ideal(6, 4).power(2))
    assert len(built) == 1
    assert result.poset is built[0] and result.poset.sweep == 3


def test_admissible_tops_are_built_once_per_k(monkeypatch):
    # at k = 2 the search pauses and the symmetry finder decides J(6,4)^2:
    # both read the tops of label >= 2 and their rows, built once
    built, tops = [], sdepth._admissible_tops
    rows = sdepth._below_bitsets

    def counted(vectors, caps=None):
        built.append(tuple(vectors))
        return rows(vectors, caps)

    monkeypatch.setattr(sdepth, "_below_bitsets", counted)
    calls = []
    monkeypatch.setattr(sdepth, "_admissible_tops", lambda p, k: calls.append(k) or tops(p, k))
    result = sdepth_quotient(cycle_ideal(6, 4).power(2))
    assert result.sdepth == 2 and calls.count(2) == 2
    assert len(built) == len(set(built))
    assert set(result.poset.admissible) == set(calls)


def test_benchmark_ladder_skips_keep_their_budget_phase():
    # benchmark/workloads.py::SDEPTH_LADDER lists these five instances as
    # skips in a named phase at its budget of 500,000, and counts a skip in
    # any other phase as a failed operation, while an instance a later
    # engine decides must carry a certificate that verifies.  The
    # colon-Hilbert bound caps J(6,4)^2 and I(5,3)^2 at 2, where the first
    # has a partition fixed by the rotation by two steps and the canonical
    # search decides the second; the most-constrained search decides
    # I(5,2)^3 at 2; the other two still run out before any search
    for ideal in (
        cycle_ideal(6, 4).power(2),
        path_ideal(5, 3).power(2),
        path_ideal(5, 2).power(3),
    ):
        result = sdepth_quotient(ideal, node_budget=500_000)
        assert result.sdepth == 2, str(ideal)
        poset = build_poset(ideal)
        assert verify_partition(poset, result.partition) == (True, "min label 2")
    for ideal, phase in (
        (cycle_ideal(7, 3).power(3), "pre-check"),
        (path_ideal(7, 3).power(3), "interval candidates"),
    ):
        got = _outcome(lambda: sdepth_quotient(ideal, node_budget=500_000))
        assert phase in got, (str(ideal), got)


def test_depth_zero_is_decided_without_a_search():
    # J(6,5)^5: 46194 points; sweep bound 0, so the k = 0 partition answers
    # at a budget that no k >= 1 pre-check would fit in
    result = sdepth_quotient(cycle_ideal(6, 5).power(5), node_budget=1)
    assert result.sdepth == 0
    assert len(result.poset) == 46194


# Hilbert-depth bound -------------------------------------------------


def _lemma_2_4_colon(n, m, t):
    u = Monomial.from_support(range(n - m + 1, n), n) ** t
    return cycle_ideal(n, m).power(t).colon(u)


@given(small_ideals(), st.data())
@settings(max_examples=60, deadline=None)
def test_hilbert_bound_matches_betti_k_polynomial(ideal, data):
    # the poset's Hilbert series against the Betti table's, for g = lcm and
    # for a g above it, and the cap `upto`
    n = ideal.n_vars
    want = betti_hilbert_bound(ideal, n - 1)
    lcm = ideal.lcm_of_gens().exponents
    above = Monomial(tuple(e + data.draw(st.integers(0, 1)) for e in lcm))
    for g in (None, above):
        assert _hilbert_bound(build_poset(ideal, g=g), n - 1) == want, (str(ideal), g)
    upto = data.draw(st.integers(0, n - 1))
    assert _hilbert_bound(build_poset(ideal), upto) == min(upto, want)


def test_hilbert_bound_on_ladder_instances():
    # below the sweep bound for I(6,3)^2 (4), I(4,2)^3 (2) and the V of
    # Lemma 2.4 at (7,2,3) (3); equal to it for J(6,4)^2
    for ideal, bound in (
        (path_ideal(6, 3).power(2), 3),
        (path_ideal(4, 2).power(3), 1),
        (cycle_ideal(6, 4).power(2), 3),
        (_lemma_2_4_colon(7, 2, 3), 2),
    ):
        assert _hilbert_bound(build_poset(ideal), ideal.n_vars - 1) == bound, str(ideal)


def test_hilbert_bound_reads_past_a_negative_lower_level():
    # (x1, x2) in three variables: K = (1-t)^2.  At d = 1 level 1 of
    # K/(1-t)^2 reads 1, -1, 0, 0, ..., negative below deg K = 2, while
    # level 2 reads 1, 0, 0, ...; so d = 1 holds, and d = 2, whose last
    # level is that level 1, fails
    assert _hilbert_bound(build_poset(parse_ideal("x1, x2", 3)), 2) == 1


def test_descent_starts_at_the_smaller_bound(monkeypatch):
    calls = []
    search = sdepth._search
    monkeypatch.setattr(
        sdepth,
        "_search",
        lambda poset, k, *budget: calls.append(k) or search(poset, k, *budget),
    )
    # V at (7,2,3): sweep 3, Hilbert 2, and k = 2 is decided; I(4,2)^3:
    # sweep 2, Hilbert 1
    assert sdepth_quotient(_lemma_2_4_colon(7, 2, 3)).sdepth == 2
    assert sdepth_quotient(path_ideal(4, 2).power(3)).sdepth == 1
    assert calls == [2, 1]
    # a sweep bound of 1 needs no Hilbert bound
    monkeypatch.setattr(sdepth, "_hilbert_bound", None)
    calls.clear()
    assert sdepth_quotient(parse_ideal("x1*x2", 2)).sdepth == 1
    assert calls == [1]


# colon-Hilbert bound -------------------------------------------------


@given(small_ideals(), st.data())
@settings(max_examples=60, deadline=None)
def test_colon_shapes_are_read_off_the_poset(ideal, data):
    # the points above a, shifted by a, are the poset of S/(I : x^a) with
    # cap g - a: the same shapes as a poset built from the colon, and none
    # when x^a lies in I
    lcm = ideal.lcm_of_gens().exponents
    g = tuple(e + data.draw(st.integers(0, 1)) for e in lcm)
    poset = build_poset(ideal, g=Monomial(g))
    classes = _shape_classes(poset)
    a = tuple(data.draw(st.integers(0, gi)) for gi in g)
    got = _colon_shapes(classes, poset.up, a)
    colon = ideal.colon(Monomial(a))
    if colon.is_whole_ring():
        assert got is None
    else:
        rebuilt = build_poset(colon, g=Monomial(tuple(x - y for x, y in zip(g, a))))
        assert got == Counter((sum(p), rebuilt.label(p)) for p in rebuilt.points)


def test_colon_exponents_are_powers_then_squarefree():
    # x3 has exponent 0 in g, so no colon involves it
    assert list(_colon_exponents((2, 1, 0, 1))) == [
        (1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1),
        (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 0), (1, 1, 0, 1),
    ]


@given(small_ideals(n_max=3, gens_max=3))
@settings(max_examples=40, deadline=None)
def test_colon_bound_is_never_below_the_exhaustive_sdepth(ideal):
    n = ideal.n_vars
    poset = build_poset(ideal)
    bound = _colon_bound(poset, n)
    decided = max(k for k in range(n + 1) if exhaustive_has_partition(poset, k))
    assert bound >= decided
    # the bound of the colons built from scratch, which the scan may stop
    # short of once it reaches 1
    g = poset.g
    want = min(
        [n]
        + [
            _hilbert_bound(build_poset(colon, g=Monomial(tuple(x - y for x, y in zip(g, a)))), n)
            for a in _colon_exponents(g)
            for colon in [ideal.colon(Monomial(a))]
            if not colon.is_whole_ring()
        ]
    )
    assert bound == want or max(bound, want) <= 1


def test_colon_bound_on_ladder_instances():
    # below min(sweep, Hilbert) = 3 for J(6,4)^2 (at a = (1,...,1)) and
    # I(5,3)^2 (at x3^2), and 1 for the 65-point small-random ideal 0/2#974,
    # whose k = 2 the canonical search refutes only in 13.4M nodes
    for ideal, bound in (
        (cycle_ideal(6, 4).power(2), 2),
        (path_ideal(5, 3).power(2), 2),
        (parse_ideal("x2^2*x3^2*x4, x1*x2^2*x3*x4^2, x1^2*x4^2, x1^2*x2*x3^2*x4", 4), 1),
        (path_ideal(6, 3).power(2), 3),
    ):
        poset = build_poset(ideal)
        assert _colon_bound(poset, 3) == bound, str(ideal)


# symmetry finder -----------------------------------------------------


def _dihedral(n):
    """The rotations and reflections of the n-cycle, as index tuples."""
    return sorted(
        {tuple((i + s) % n for i in range(n)) for s in range(n)}
        | {tuple((s - i) % n for i in range(n)) for s in range(n)}
    )


def _act(perm, v):
    return tuple(v[j] for j in perm)


@st.composite
def symmetric_ideals(draw, n_max=4, exp_max=2, gens_max=3):
    """Small ideals closed under a nontrivial dihedral permutation."""
    n = draw(st.integers(2, n_max))
    perm = draw(st.sampled_from([h for h in _dihedral(n) if h != tuple(range(n))]))
    gens = set()
    for _ in range(draw(st.integers(1, gens_max))):
        v = tuple(draw(st.integers(0, exp_max)) for _ in range(n))
        while any(v) and v not in gens:
            gens.add(v)
            v = _act(perm, v)
    assume(gens)
    return MonomialIdeal(n, [Monomial(v) for v in gens])


def two_pass_symmetry_groups(ideal, g):
    """Reference symmetry groups: the stabilizer listed first, then each
    element's cyclic subgroup kept unless a listed group has its element
    set, as the groups were found before one pass built them."""
    n = ideal.n_vars
    gens = {h.exponents for h in ideal.gens}
    identity = tuple(range(n))
    stabilizer = []
    for s in range(n):
        for perm in (tuple((i + s) % n for i in range(n)), tuple((s - i) % n for i in range(n))):
            if perm == identity or perm in stabilizer:
                continue
            act = itemgetter(*perm)
            if act(g) == g and all(act(v) in gens for v in gens):
                stabilizer.append(perm)
    groups = []
    for perm in stabilizer:
        group = [identity]
        while True:
            power = tuple(group[-1][i] for i in perm)
            if power == identity:
                break
            group.append(power)
        if set(group) not in [set(other) for other in groups]:
            groups.append(group)
    groups.sort(key=len, reverse=True)
    return groups


def test_symmetry_groups_match_their_two_pass_oracle():
    # the same groups, each with its elements in the same order, in the same
    # order, on the cycle and path families and their squares up to n = 8,
    # at g = lcm and at a g that breaks the symmetry, and on seeded random
    # ideals, half of them closed under a dihedral permutation
    families = [cycle_ideal(n, m) for n in range(3, 9) for m in range(2, n)]
    families += [path_ideal(n, m) for n in range(2, 9) for m in range(1, n + 1)]
    ideals = [ideal.power(t) for ideal in families for t in (1, 2)]
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(2, 7)
        gens = {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))}
        if rng.random() < 0.5:
            perm = rng.choice(_dihedral(n))
            for v in list(gens):
                w = _act(perm, v)
                while w != v:
                    gens.add(w)
                    w = _act(perm, w)
        gens.discard((0,) * n)
        if gens:
            ideals.append(MonomialIdeal(n, [Monomial(v) for v in gens]))
    nontrivial = 0
    for ideal in ideals:
        lcm = ideal.lcm_of_gens().exponents
        for g in (lcm, (lcm[0] + 1,) + lcm[1:]):
            groups = _symmetry_groups(ideal, g)
            assert groups == two_pass_symmetry_groups(ideal, g), (str(ideal), g)
            nontrivial += bool(groups)
    assert nontrivial > 100


def test_symmetry_groups_of_the_families():
    # J(6,4)^2: the dihedral group of order 12, whose cyclic subgroups are
    # C6, C3 and seven of order 2 (the half turn and six reflections);
    # I(5,3)^2: the reversal; a g off the symmetry, or none at all: nothing
    J2 = cycle_ideal(6, 4).power(2)
    assert [len(h) for h in _symmetry_groups(J2, J2.lcm_of_gens().exponents)] == [
        6, 3, 2, 2, 2, 2, 2, 2, 2,
    ]
    I2 = path_ideal(5, 3).power(2)
    assert _symmetry_groups(I2, I2.lcm_of_gens().exponents) == [
        [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)]
    ]
    assert _symmetry_groups(I2, (3, 2, 2, 2, 2)) == []
    assert _symmetry_groups(parse_ideal("x1*x2^2", 2), (1, 2)) == []


@given(symmetric_ideals())
@settings(max_examples=40, deadline=None)
def test_invariant_partitions_verify_and_are_fixed_by_their_group(ideal):
    n = ideal.n_vars
    poset = build_poset(ideal)
    groups = _symmetry_groups(ideal, poset.g)
    assert groups
    gens = {h.exponents for h in ideal.gens}
    for group in groups:
        assert all({_act(h, v) for v in gens} == gens for h in group)
        for k in range(1, n + 1):
            partition = _invariant_partition(poset, k, [group], DEFAULT_BUDGET)
            if partition is None:
                continue
            assert verify_partition(poset, partition)[0], (str(ideal), group, k)
            assert partition.min_label(poset) >= k
            intervals = {(iv.a, iv.b) for iv in partition.intervals}
            for h in group:
                assert {(_act(h, a), _act(h, b)) for a, b in intervals} == intervals


@given(symmetric_ideals(n_max=3))
@settings(max_examples=40, deadline=None)
def test_symmetric_ideals_get_the_exhaustive_sdepth(ideal):
    # at budgets whose checkpoints (3 and 20 nodes) let the colon bound
    # and the finder run at most k, and at the default, which decides
    poset = build_poset(ideal)
    decided = max(
        k for k in range(ideal.n_vars + 1) if exhaustive_has_partition(poset, k)
    )
    for budget in (300, 2000, DEFAULT_BUDGET):
        result = _outcome(lambda: sdepth_quotient(ideal, node_budget=budget))
        if budget == DEFAULT_BUDGET or isinstance(result, SdepthResult):
            assert result.sdepth == decided, (str(ideal), budget)
            assert verify_partition(poset, result.partition)[0]
            assert result.partition.min_label(poset) >= decided
    # and with every search at k >= 2 paused at its first node, so that
    # the finder runs on 100,000 units wherever the colon bound allows
    search = sdepth._search

    def eager(poset, k, node_budget, reserve=0, pause=None):
        return search(poset, k, node_budget, reserve, None if pause is None else 0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdepth, "_search", eager)
        result = sdepth_quotient(ideal)
    assert result.sdepth == decided, str(ideal)
    assert verify_partition(poset, result.partition)[0]
    assert result.partition.min_label(poset) >= decided


@given(symmetric_ideals())
@example(parse_ideal("x2*x3^2*x4, x1*x2*x3*x4", 4))
@example(cycle_ideal(6, 5))
@settings(max_examples=40, deadline=None)
def test_finder_matches_its_stack_predecessor(ideal):
    # the finder on the shared loop and memo gives the same intervals in the
    # same order, or None, as its own stack loop did, under every memo
    # setting: at every k from 2 up to the sweep bound, at fixed budgets
    # and on each side of the fewest units that find a partition.  In the
    # two examples the partition found at those fewest units comes after
    # a refuted revisit whose subtree built lists: charged their units
    # again, it would not be found
    poset = build_poset(ideal)
    groups = _symmetry_groups(ideal, poset.g)
    for k in range(2, _sweep_bound(_box(ideal)) + 1):
        budgets = {1, 10, 100, 1000, DEFAULT_BUDGET}
        if stack_invariant_partition(poset, k, groups, DEFAULT_BUDGET) is not None:
            needed = _least(lambda budget: stack_invariant_partition(poset, k, groups, budget) is not None)
            budgets |= {max(needed - 1, 1), needed}
        for budget in sorted(budgets):
            want = stack_invariant_partition(poset, k, groups, budget)
            for setting in MEMO_SETTINGS:
                with memo_setting(setting):
                    got = _invariant_partition(poset, k, groups, budget)
                assert got == want, (str(ideal), k, budget, setting)


def _out_of_units(poset, k, units, axes):
    raise SearchBudgetError("exceeded %d units in the most-constrained search" % units)


@given(symmetric_ideals())
@settings(max_examples=40, deadline=None)
def test_failed_invariant_search_leaves_the_canonical_descent(ideal):
    # a finder that finds nothing refutes nothing: with the most-constrained
    # search out of units too, the answer is the canonical descent's on the
    # nodes the search keeps (300 less the finder's 15 and that search's
    # 30), wherever that descent decides
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdepth, "_invariant_partition", lambda *args: None)
        patch.setattr(sdepth, "_most_constrained", _out_of_units)
        got = _outcome(lambda: sdepth_quotient(ideal, node_budget=300))
    want = _outcome(lambda: max_label_descent(ideal, 300 - 300 // 20 - 300 // 10))
    if isinstance(want, SdepthResult):
        assert got == want, str(ideal)


@given(small_ideals(), st.sampled_from([50, 2000, DEFAULT_BUDGET]))
@settings(max_examples=40, deadline=None)
def test_symmetry_free_ideals_search_on_the_whole_budget(ideal, budget):
    # no finder runs and no search gives up nodes for one: the search keeps
    # all but the most-constrained search's tenth, so with that search out
    # of units the answer is the canonical descent's on those nodes
    # wherever that decides
    assume(not _symmetry_groups(ideal, ideal.lcm_of_gens().exponents))
    reserves = []
    search = sdepth._search

    def recorded(poset, k, node_budget, reserve=0, pause=None):
        reserves.append((k, reserve))
        return search(poset, k, node_budget, reserve, pause)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdepth, "_search", recorded)
        patch.setattr(sdepth, "_invariant_partition", None)
        patch.setattr(sdepth, "_most_constrained", _out_of_units)
        got = _outcome(lambda: sdepth_quotient(ideal, node_budget=budget))
    # k <= 1 runs through has_partition_min_label, on the whole budget
    assert all(reserve == (budget // 10 if k >= 2 else 0) for k, reserve in reserves)
    want = _outcome(lambda: max_label_descent(ideal, budget - budget // 10))
    if isinstance(want, SdepthResult):
        assert got == want, str(ideal)


def test_finder_decides_j_6_4_squared_with_the_half_rotation_group():
    # C6 admits no invariant partition at k = 2, C3 does; the budget error
    # of a search whose finder finds nothing names the caller's budget
    J2 = cycle_ideal(6, 4).power(2)
    poset = build_poset(J2)
    c6, c3 = _symmetry_groups(J2, poset.g)[:2]
    assert _invariant_partition(poset, 2, [c6], DEFAULT_BUDGET) is None
    partition = _invariant_partition(poset, 2, [c3], DEFAULT_BUDGET)
    assert verify_partition(poset, partition) == (True, "min label 2")
    assert _invariant_partition(poset, 2, [c6, c3], 1000) is None
    # C6's refutation and C3's partition take 20,688 units between them
    assert _invariant_partition(poset, 2, [c6, c3], 20_687) is None
    partition = _invariant_partition(poset, 2, [c6, c3], 20_688)
    assert verify_partition(poset, partition) == (True, "min label 2")
    # at 20,000 the finder's 1,000 units do not reach C3's partition, and
    # k = 2 runs out building candidates, as the search would on its own
    assert _outcome(lambda: sdepth_quotient(J2, node_budget=20_000)) == (
        "budget: exceeded 20000 nodes building interval candidates"
    )


# most-constrained search ---------------------------------------------


def _candidate_table(poset, k):
    """`eager_candidate_table` at k where `_search` pauses on its first
    node, as it does once its pre-check passes, or None where it decides
    before any search node."""
    paused, _ = sdepth._advance(sdepth._search(poset, k, DEFAULT_BUDGET, 0, 0))
    return eager_candidate_table(poset, k) if paused else None


def _turn_masks(poset, k, axes=()):
    """The masks that `_most_constrained` searches at k, in its order: one
    list per block, those it hands to `_contain`, blocks in the order of
    the calls."""
    handed = []
    contain = sdepth._contain

    def recorded(points, masks, among):
        handed.append(masks)
        return contain(points, masks, among)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdepth, "_contain", recorded)
        _outcome(lambda: _most_constrained(poset, k, 0, axes))
    return handed


def set_most_constrained(poset, k, units):
    """Reference most-constrained search over sets of points.

    The engine's order and units without its bitsets: the intervals
    [p, b] sorted by size, then by p and b in the poset order; the
    uncovered point held by the fewest live intervals, the first such in
    the order, with the scan stopping at 0 or 1; one unit per point
    examined, plus the cells of each interval chosen, checked before a
    covering is searched.
    """
    points = poset.points
    order = {a: i for i, a in enumerate(points)}
    intervals = sorted(
        (
            (frozenset(c for c in points if _leq(p, c) and _leq(c, b)), p, b)
            for p in points
            for b in points
            if _leq(p, b) and poset.label(b) >= k
        ),
        key=lambda ipb: (-len(ipb[0]), order[ipb[1]], order[ipb[2]]),
    )
    spent = 0

    def fewest(uncovered, live):
        nonlocal spent
        best = None
        for q in sorted(uncovered, key=order.get):
            spent += 1
            here = [i for i in live if q in intervals[i][0]]
            if best is None or len(here) < len(best):
                best = here
                if len(here) <= 1:
                    break
        return best

    def search(uncovered, live, options, chosen):
        nonlocal spent
        if spent > units:
            raise SearchBudgetError("exceeded %d units in the most-constrained search" % units)
        for i in options:
            cells, p, b = intervals[i]
            chosen.append(PosetInterval(p, b))
            rest = uncovered - cells
            if not rest:
                return True
            kept = [j for j in live if not intervals[j][0] & cells]
            nxt = fewest(rest, kept)
            spent += len(cells)
            if search(rest, kept, nxt, chosen):
                return True
            chosen.pop()
        return False

    live = list(range(len(intervals)))
    chosen = []
    if search(frozenset(points), live, fewest(frozenset(points), live), chosen):
        return StanleyPartition(tuple(chosen))
    return None


def eager_candidate_table(poset, k):
    """Reference table: every point's candidate masks built up front, as
    `_search` built them before its lists were built on first branch.

    Assumes every point has an admissible top at k.
    """
    points = poset.points
    tops = [b for b in points if poset.label(b) >= k]
    top_rows = _at_least(_below_bitsets(tops, poset.g))
    below = _below_bitsets(points, poset.g)
    up_rows = _at_least(below)
    full = (1 << len(points)) - 1
    downs = {}
    candidates = []
    for p in points:
        up = full
        for row, v in zip(up_rows, p):
            up &= row[v]
        found = -1
        for row, v in zip(top_rows, p):
            found &= row[v]
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
            cand.append(up & down)
        cand.sort(key=lambda mask: -mask.bit_count())
        candidates.append(cand)
    return candidates


def bit_transpose(points, masks):
    """Reference contain[q]: the intervals among `masks` holding points[q],
    set one bit per cell."""
    nbytes = len(masks) // 8 + 1
    contain = [bytearray(nbytes) for _ in points]
    for i, mask in enumerate(masks):
        byte, bit = i >> 3, 1 << (i & 7)
        for q in range(mask.bit_length()):
            if mask >> q & 1:
                contain[q][byte] |= bit
    return [int.from_bytes(row, "little") for row in contain]


def _sorted_masks(table):
    """The masks of a candidate table in `_most_constrained`'s order."""
    return sorted((mask for cand in table for mask in cand), key=int.bit_count, reverse=True)


@given(small_ideals(), st.data())
@settings(max_examples=60, deadline=None)
def test_turn_masks_are_the_eager_table_in_order(ideal, data):
    # the turn builds the eager table's masks, in the order that keeps
    # every certificate, for g = lcm and for a g above it, wherever the
    # search pauses
    lcm = ideal.lcm_of_gens().exponents
    above = Monomial(tuple(e + data.draw(st.integers(0, 1)) for e in lcm))
    for g in (None, above):
        poset = build_poset(ideal, g=g)
        for k in range(1, ideal.n_vars + 1):
            table = _candidate_table(poset, k)
            if table is not None:
                assert _turn_masks(poset, k) == [_sorted_masks(table)], (str(ideal), g, k)


@given(small_ideals(), st.data())
@settings(max_examples=60, deadline=None)
def test_paused_search_resumes_to_its_unpaused_answer(ideal, data):
    # the pause is a bare signal: whichever node the search pauses at, it
    # resumes to the answer it gives unpaused, for g = lcm and a g above it
    lcm = ideal.lcm_of_gens().exponents
    above = Monomial(tuple(e + data.draw(st.integers(0, 1)) for e in lcm))
    pause = data.draw(st.integers(0, 30))
    for g in (None, above):
        poset = build_poset(ideal, g=g)
        for k in range(1, ideal.n_vars + 1):
            search = sdepth._search(poset, k, DEFAULT_BUDGET, 0, pause)
            if sdepth._advance(search)[0]:
                want = (False, has_partition_min_label(poset, k))
                assert sdepth._advance(search) == want, (str(ideal), g, k, pause)


@given(small_ideals(), st.data())
@settings(max_examples=60, deadline=None)
def test_candidate_charge_counts_every_pair_and_cell(ideal, data):
    # one unit per (point, top) pair plus the cells of every admissible
    # interval, counted one by one, for g = lcm and for a g above it
    lcm = ideal.lcm_of_gens().exponents
    above = Monomial(tuple(e + data.draw(st.integers(0, 1)) for e in lcm))
    for g in (None, above):
        poset = build_poset(ideal, g=g)
        for k in range(1, ideal.n_vars + 1):
            tops = [b for b in poset.points if poset.label(b) >= k]
            cells = sum(
                prod(y - x + 1 for x, y in zip(p, b))
                for p in poset.points
                for b in tops
                if _leq(p, b)
            )
            want = len(poset.points) * len(tops) + cells
            assert _candidate_charge(len(poset.points), tops) == want, (str(ideal), g, k)


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_contain_matches_the_bit_transpose(ideal):
    poset = build_poset(ideal)
    for k in range(1, ideal.n_vars + 1):
        table = _candidate_table(poset, k)
        if table is not None:
            masks = _sorted_masks(table)
            every = range(len(poset.points))
            assert _contain(poset.points, masks, every) == bit_transpose(poset.points, masks)


def test_lazy_table_and_contain_on_i_5_2_cubed():
    # 538 points and 6,624 intervals at k = 2, where the search pauses
    # after building 20 of the lists itself and the turn builds its own
    poset = build_poset(path_ideal(5, 2).power(3))
    [masks] = _turn_masks(poset, 2)
    assert masks == _sorted_masks(eager_candidate_table(poset, 2))
    assert len(masks) == 6624
    assert _contain(poset.points, masks, range(len(poset.points))) == bit_transpose(poset.points, masks)


def _units_to_test(run):
    """No units, the most units on which `run(units)` runs out and one
    more, and the default."""
    enough = _least(lambda units: not isinstance(_outcome(lambda: run(units)), str))
    return (0, enough - 1, enough, DEFAULT_BUDGET)


def _matches_set_reference(poset, k):
    """Whether the engine and `set_most_constrained` give the same
    partition, None or message at k, at each of the engine's
    `_units_to_test`."""
    if _candidate_table(poset, k) is None:
        return True
    return all(
        _outcome(lambda: _most_constrained(poset, k, units, ()))
        == _outcome(lambda: set_most_constrained(poset, k, units))
        for units in _units_to_test(lambda units: _most_constrained(poset, k, units, ()))
    )


def _matches_memo_free_predecessor(poset, k):
    """Whether the engine, under every memo setting, and
    `memo_free_most_constrained` give the same partition, None or message
    at k, at each of the latter's `_units_to_test`."""
    table = _candidate_table(poset, k)
    if table is None:
        return True

    def oracle(units):
        return memo_free_most_constrained(poset.points, table, units)

    want = {units: _outcome(lambda: oracle(units)) for units in _units_to_test(oracle)}
    for setting in MEMO_SETTINGS:
        with memo_setting(setting):
            for units, outcome in want.items():
                if _outcome(lambda: _most_constrained(poset, k, units, ())) != outcome:
                    return False
    return True


@given(small_ideals())
@settings(max_examples=40, deadline=None)
def test_most_constrained_search_matches_its_memo_free_predecessor(ideal):
    # a refuted revisit is charged its recorded units, without the cells of
    # the interval that led into it, only where the charge stays in units
    poset = build_poset(ideal)
    for k in range(1, ideal.n_vars + 1):
        assert _matches_memo_free_predecessor(poset, k), (str(ideal), k)


def test_most_constrained_search_matches_its_memo_free_predecessor_on_larger_posets():
    # I(4,2)^2 refutes k = 2 in 2,821 units, revisiting coverings
    for ideal in (
        path_ideal(4, 2).power(2),
        parse_ideal("x2*x3*x5*x6, x2*x3*x4*x6, x1*x5, x1*x4*x6", 6),
        cycle_ideal(5, 3),
        cycle_ideal(4, 2).power(2),
    ):
        poset = build_poset(ideal)
        for k in range(2, ideal.n_vars + 1):
            assert _matches_memo_free_predecessor(poset, k), (str(ideal), k)


@given(small_ideals())
@settings(max_examples=40, deadline=None)
def test_most_constrained_search_matches_the_set_reference(ideal):
    poset = build_poset(ideal)
    for k in range(1, ideal.n_vars + 1):
        assert _matches_set_reference(poset, k), (str(ideal), k)


def test_most_constrained_search_matches_the_set_reference_on_larger_posets():
    # 21 to 50 points, where the scan for the fewest live intervals stops
    # early at a count of 1 before the last uncovered point
    for ideal in (
        path_ideal(4, 2).power(2),
        parse_ideal("x2*x3*x5*x6, x2*x3*x4*x6, x1*x5, x1*x4*x6", 6),
        cycle_ideal(5, 3),
        path_ideal(5, 3),
        cycle_ideal(4, 2).power(2),
    ):
        poset = build_poset(ideal)
        for k in range(2, ideal.n_vars + 1):
            assert _matches_set_reference(poset, k), (str(ideal), k)


@given(small_ideals(n_max=3, gens_max=3))
@settings(max_examples=60, deadline=None)
def test_most_constrained_search_against_exhaustive_search(ideal):
    # a partition it finds verifies with min label >= k, and its None, an
    # exhaustion, agrees with the brute-force search
    poset = build_poset(ideal)
    for k in range(1, ideal.n_vars + 1):
        if _candidate_table(poset, k) is None:
            continue
        partition = _most_constrained(poset, k, DEFAULT_BUDGET, ())
        if partition is None:
            assert not exhaustive_has_partition(poset, k), (str(ideal), k)
        else:
            assert verify_partition(poset, partition)[0], (str(ideal), k)
            assert partition.min_label(poset) >= k


@given(small_ideals(), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_most_constrained_search_out_of_units_refutes_nothing(ideal, units):
    # a refutation pays for the root's point, an interval and the next
    # point, 3 units at least: below that the search runs out, or finds a
    # poset that is one interval, and never returns None
    poset = build_poset(ideal)
    for k in range(1, ideal.n_vars + 1):
        if _candidate_table(poset, k) is None:
            continue
        try:
            partition = _most_constrained(poset, k, units, ())
        except SearchBudgetError as error:
            assert str(error) == "exceeded %d units in the most-constrained search" % units
            continue
        assert partition is not None, (str(ideal), k, units)
        assert verify_partition(poset, partition)[0]
        assert len(partition.intervals) == 1


def test_most_constrained_exhaustion_refutes_k_without_resuming():
    # (x1x2, x3x4) has sdepth 2; with every search paused at its first node,
    # the finder finding nothing and the most-constrained search claiming
    # an exhaustion, the descent leaves k = 2 for 1 at once
    search = sdepth._search

    def eager(poset, k, node_budget, reserve=0, pause=None):
        return search(poset, k, node_budget, reserve, None if pause is None else 0)

    ideal = parse_ideal("x1*x2, x3*x4", 4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdepth, "_search", eager)
        patch.setattr(sdepth, "_invariant_partition", lambda *args: None)
        patch.setattr(sdepth, "_most_constrained", lambda *args: None)
        assert sdepth_quotient(ideal).sdepth == 1
        patch.setattr(sdepth, "_most_constrained", _out_of_units)
        assert sdepth_quotient(ideal).sdepth == 2


def test_most_constrained_search_decides_the_colon_ladder():
    # I(5,2)^3 and I(5,4)J'(6,4), J' = (J(6,4) : x6) in five variables, run
    # the canonical search out of its default budget at k = 2, and the
    # most-constrained search decides both; on (J(6,4)^2, x6^2) it runs
    # over the layers a6 = 0 and a6 = 1, and decides it too
    x6 = Monomial.variable(6, 6)
    jprime = cycle_ideal(6, 4).colon(x6).restrict(5)
    ideals = (
        path_ideal(5, 2).power(3),
        path_ideal(5, 4) * jprime,
        cycle_ideal(6, 4).power(2) + MonomialIdeal.principal(x6 ** 2),
    )
    for ideal in ideals:
        result = sdepth_quotient(ideal)
        assert result.sdepth == 2, str(ideal)
        assert verify_partition(build_poset(ideal), result.partition) == (True, "min label 2")


# split posets: the turn over layers ------------------------------------


@st.composite
def split_ideals(draw, n_max=3, gens_max=3):
    """Small ideals with a pure power x_i^c, c >= 2, among their generators,
    extended by up to two variables, which raise every label and leave
    the poset's points as they are."""
    ideal = draw(small_ideals(n_max=n_max, gens_max=gens_max))
    n = ideal.n_vars
    i = draw(st.integers(0, n - 1))
    power = Monomial(tuple(draw(st.integers(2, 3)) if j == i else 0 for j in range(n)))
    return MonomialIdeal(n, [*ideal.gens, power]).extend(draw(st.integers(0, 2)))


@st.composite
def layered_ideals(draw, n_max=3):
    """J + x*(u) + (x^2) in one more variable x, J drawn with a generator
    in two or more variables and u outside J: the layers a_x = 0 and 1,
    the posets of S/J and S/(J + (u)), are two different blocks that
    mostly take several intervals each, so that each block chooses
    conflict rows of its own, where `split_ideals` mostly draws blocks
    that one interval covers."""
    n = draw(st.integers(2, n_max))
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    mixed = draw(exponents.filter(lambda e: sum(map(bool, e)) >= 2))
    inner = MonomialIdeal(n, [Monomial(e) for e in (mixed, draw(exponents)) if any(e)])
    u = draw(exponents.filter(lambda e: any(e) and not inner.contains(Monomial(e))))
    x = Monomial.variable(n + 1, n + 1)
    return inner.extend(1) + MonomialIdeal(n + 1, [Monomial(u + (0,)) * x, x ** 2])


def union_find_components(npts, masks):
    """Reference components: the points joined mask by mask, as bitsets
    sorted by their lowest point."""
    parent = list(range(npts))

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for mask in masks:
        held = [j for j in range(npts) if mask >> j & 1]
        for j in held[1:]:
            parent[root(j)] = root(held[0])
    parts = {}
    for j in range(npts):
        parts[root(j)] = parts.get(root(j), 0) | 1 << j
    return sorted(parts.values(), key=lambda part: part & -part)


def _layers_of(poset):
    """The nonempty blocks of points on which every split axis is constant,
    as bitsets sorted by their lowest point."""
    axes = _split_axes(poset)
    blocks = {}
    for j, p in enumerate(poset.points):
        key = tuple(p[i] for i in axes)
        blocks[key] = blocks.get(key, 0) | 1 << j
    return sorted(blocks.values(), key=lambda part: part & -part)


def _inside_layers(poset, masks):
    """The masks whose bottom and top agree on every split axis, in order."""
    points, axes = poset.points, _split_axes(poset)
    return [
        mask
        for mask in masks
        if all(points[(mask & -mask).bit_length() - 1][i] == points[mask.bit_length() - 1][i] for i in axes)
    ]


@given(split_ideals())
@example(parse_ideal("x3^2, x2*x3", 4))
@settings(max_examples=60, deadline=None)
def test_layer_blocks_are_the_components_of_their_masks(ideal):
    # wherever the search pauses, each block of points on which every
    # split axis is constant is one component, as union-find joins them,
    # of the table's masks inside the layers, and the turn searches each
    # block over its own list, those masks inside it in the table's order,
    # the lists together exactly those masks; the whole table is one
    # component, as every [p, b] meets [0, b]
    poset = build_poset(ideal)
    points, axes = poset.points, _split_axes(poset)
    assume(axes)
    for k in range(1, poset.sweep + 1):
        table = _candidate_table(poset, k)
        if table is None:
            continue
        masks = _sorted_masks(table)
        assert union_find_components(len(points), masks) == [(1 << len(points)) - 1]
        inside = _inside_layers(poset, masks)
        blocks = _layers_of(poset)
        assert union_find_components(len(points), inside) == blocks, (str(ideal), k)
        lists = _turn_masks(poset, k, axes)
        want = [[mask for mask in inside if mask & block == mask] for block in blocks]
        assert lists == want, (str(ideal), k)
        assert sorted(mask for kept in lists for mask in kept) == sorted(inside), (str(ideal), k)


@given(split_ideals(), st.sampled_from([0, 5, 50, DEFAULT_BUDGET]))
@example(parse_ideal("x3^2, x2*x3", 4), DEFAULT_BUDGET)
@settings(max_examples=60, deadline=None)
def test_layer_partitions_verify_and_their_none_refutes_k(ideal, units):
    # every partition the layers give verifies on the whole poset with min
    # label >= k and keeps each split axis constant on each interval; a
    # None comes only where the brute-force search finds no partition,
    # and on the default budget exactly there: the restriction of a
    # partition to a layer is a partition of the layer
    poset = build_poset(ideal)
    axes = _split_axes(poset)
    assume(axes)
    for k in range(1, ideal.n_vars + 1):
        if _candidate_table(poset, k) is None:
            continue
        try:
            partition = _most_constrained(poset, k, units, axes)
        except SearchBudgetError as error:
            assert str(error) == "exceeded %d units in the most-constrained search" % units
            assert units < DEFAULT_BUDGET
            continue
        exists = exhaustive_has_partition(poset, k)
        if partition is None:
            assert not exists, (str(ideal), k, units)
        else:
            assert verify_partition(poset, partition)[0], (str(ideal), k, units)
            assert partition.min_label(poset) >= k
            assert all(iv.a[i] == iv.b[i] for iv in partition.intervals for i in axes)
            # and the blocks are covered one after another, lowest point first
            order = {p: j for j, p in enumerate(poset.points)}
            layers = _layers_of(poset)
            blocks = [
                next(n for n, b in enumerate(layers) if b >> order[iv.a] & 1) for iv in partition.intervals
            ]
            assert blocks == sorted(blocks), (str(ideal), k, units)
        if units == DEFAULT_BUDGET:
            assert (partition is not None) == exists, (str(ideal), k)


def one_index_most_constrained(poset, k, units, axes):
    """`sdepth._most_constrained` as it was when one index over every
    block's masks served the whole poset: contain[q] and the live
    intervals over all of them, sorted together, and an interval's
    conflict row ORed again at each choice.  The same blocks, order,
    units, memo and messages, with its own point scan."""
    points = poset.points
    admissible = _admissible_tops(poset, k)
    blocks = [(1 << len(points)) - 1] * len(points)
    for i in axes:
        up = poset.up[i]
        layers = [row & ~above for row, above in zip(up, up[1:])]
        blocks = [block & layers[p[i]] for block, p in zip(blocks, points)]
    downs = {}
    kept = (
        m
        for p, block in zip(points, blocks)
        for m in sdepth._intervals(poset, admissible, p, downs)
        if m & block == m
    )
    masks = sorted(kept, key=int.bit_count, reverse=True)
    contain = _contain(points, masks, range(len(points)))
    spent = 0
    sizes, floor = {}, 1

    def cover(full):
        nonlocal spent, floor
        live = (1 << len(masks)) - 1
        options, examined = first_fewest(full, live, contain)
        spent += examined
        stack = [(0, live, iter(bit_positions(options)), 0)]
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
                    spent += cells + size
                    continue
                entry = spent + cells
                dead = 0
                for q in bit_positions(mask):
                    dead |= contain[q]
                live &= ~dead
                options, examined = first_fewest(full ^ child, live, contain)
                spent = entry + examined
                stack.append((child, live, iter(bit_positions(options)), entry))
                break
            else:
                covered, _, _, entry = stack.pop()
                if stack:
                    floor = sdepth._remember(sizes, floor, covered, spent - entry)
        return None

    intervals = []
    for block in dict.fromkeys(blocks):
        coverings = cover(block)
        if coverings is None:
            return None
        intervals.extend(sdepth._read_off(points, coverings).intervals)
    return StanleyPartition(tuple(intervals))


def _matches_one_index_predecessor(poset, k, axes):
    """Whether the engine and `one_index_most_constrained` give the same
    partition, None or message at k over `axes`, under every memo setting,
    at each of the latter's `_units_to_test` under that setting."""
    if _candidate_table(poset, k) is None:
        return True

    def oracle(units):
        return one_index_most_constrained(poset, k, units, axes)

    for setting in MEMO_SETTINGS:
        with memo_setting(setting):
            for units in _units_to_test(oracle):
                got = _outcome(lambda: _most_constrained(poset, k, units, axes))
                if got != _outcome(lambda: oracle(units)):
                    return False
    return True


@given(st.one_of(layered_ideals(), split_ideals(), small_ideals()))
@example(parse_ideal("x3^2, x2*x3", 4))
@example(parse_ideal("x3^2, x1*x2*x3, x1*x2^2", 3))
@settings(max_examples=60, deadline=None)
def test_most_constrained_search_matches_its_one_index_predecessor(ideal):
    # an index per block, with its conflict rows kept, searches in the
    # order and at the units of one index over every block, on the split
    # axes and on none; in the second example each of the two layers is
    # covered by two intervals or more, so a block that read a conflict
    # row of the other block's index would go wrong at k = 1
    poset = build_poset(ideal)
    for axes in dict.fromkeys(((), tuple(_split_axes(poset)))):
        for k in range(1, ideal.n_vars + 1):
            assert _matches_one_index_predecessor(poset, k, axes), (str(ideal), k, axes)


def test_most_constrained_search_matches_its_one_index_predecessor_on_larger_posets():
    # 29 to 45 points in two or three layers, each covered by several
    # intervals, so that a block reads conflict rows it built itself
    for ideal in (
        path_ideal(4, 2).power(2) + MonomialIdeal.principal(Monomial.variable(4, 4) ** 2),
        cycle_ideal(4, 2).power(2) + MonomialIdeal.principal(Monomial.variable(4, 4) ** 3),
        cycle_ideal(5, 3) + MonomialIdeal.principal(Monomial.variable(5, 5) ** 3),
    ):
        poset = build_poset(ideal)
        for axes in ((), tuple(_split_axes(poset))):
            for k in range(1, ideal.n_vars + 1):
                assert _matches_one_index_predecessor(poset, k, axes), (str(ideal), k, axes)


@given(split_ideals(n_max=4, gens_max=4), st.sampled_from([100, 300, 2000]))
@example(parse_ideal("x3^2, x2*x3", 4), 100)
@example(parse_ideal("x4^2, x2*x3*x4", 4), 100)
@settings(max_examples=40, deadline=None)
def test_layers_out_of_units_leave_the_canonical_descent(ideal, budget):
    # running out of units refutes nothing: with the layers out of units,
    # and the symmetry finder finding nothing, the answer is the canonical
    # descent's on the nodes the search keeps, wherever that decides
    lcm = ideal.lcm_of_gens().exponents
    reserve = budget // 10 + (budget // 20 if _symmetry_groups(ideal, lcm) else 0)
    turn = sdepth._most_constrained

    def layers_out_of_units(poset, k, units, axes):
        return (_out_of_units if axes else turn)(poset, k, units, axes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdepth, "_invariant_partition", lambda *args: None)
        patch.setattr(sdepth, "_most_constrained", layers_out_of_units)
        got = _outcome(lambda: sdepth_quotient(ideal, node_budget=budget))
    want = _outcome(lambda: max_label_descent(ideal, budget - reserve))
    if isinstance(want, SdepthResult):
        assert got == want, str(ideal)


def _layer_calls(ideal, node_budget):
    """The number of `_most_constrained` turns over split axes that
    `sdepth_quotient` makes, and its outcome."""
    calls = []
    turn = sdepth._most_constrained

    def counted(poset, k, units, axes):
        if axes:
            calls.append(axes)
        return turn(poset, k, units, axes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdepth, "_most_constrained", counted)
        outcome = _outcome(lambda: sdepth_quotient(ideal, node_budget=node_budget))
    return len(calls), outcome


def test_layer_exhaustion_refutes_k_as_the_whole_search_does():
    # (I(4,2)^2, x5^2): its layers a5 = 0 and a5 = 1 are both the poset
    # of I(4,2)^2, which has no partition at k = 2; the layers refute
    # k = 2 on 2,841 units, and the canonical search does by exhaustion
    # (on 10,000,000 nodes, as its memo charges each revisit)
    x5 = Monomial.variable(5, 5)
    ideal = path_ideal(4, 2).power(2).extend(1) + MonomialIdeal.principal(x5 ** 2)
    poset = build_poset(ideal)
    assert _split_axes(poset) == [4] and poset.sweep == 2
    assert _most_constrained(poset, 2, 2841, [4]) is None
    assert _outcome(lambda: _most_constrained(poset, 2, 2840, [4])) == (
        "budget: exceeded 2840 units in the most-constrained search"
    )
    assert has_partition_min_label(poset, 2, node_budget=10_000_000) is None


def test_layer_exhaustion_refutes_k_without_resuming():
    # (x3^2, x2x3) in four variables has sdepth 2, and at a budget of 100
    # its search pauses at k = 2 for the layers: their None, an
    # exhaustion, leaves k = 2 for 1 at once, and their running out of
    # units leaves it to the search
    ideal = parse_ideal("x3^2, x2*x3", 4)
    turns = []

    def layers_refute(poset, k, units, axes):
        turns.append(axes)
        return None

    def layers_out_of_units(poset, k, units, axes):
        turns.append(axes)
        return _out_of_units(poset, k, units, axes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdepth, "_most_constrained", layers_refute)
        assert sdepth_quotient(ideal, node_budget=100).sdepth == 1
        patch.setattr(sdepth, "_most_constrained", layers_out_of_units)
        assert sdepth_quotient(ideal, node_budget=100).sdepth == 2
    assert turns == [[2], [2]]


def test_layer_finder_never_runs_on_the_benchmark_ladder():
    # benchmark/workloads.py::SDEPTH_LADDER: no poset of the eleven
    # splits, so none pays for the finder at the ladder's budget; the sum
    # ideal of prop-3.3 at (6,4,2) splits along x6, and the finder runs
    ladder = [
        (cycle_ideal if name == "J" else path_ideal)(n, m).power(t)
        for name, n, m, t in (
            ("J", 6, 3, 2), ("I", 6, 3, 2), ("I", 4, 2, 3), ("J", 5, 3, 3),
            ("J", 7, 4, 2), ("J", 5, 4, 4), ("J", 6, 4, 2), ("I", 5, 3, 2),
            ("I", 5, 2, 3), ("I", 7, 3, 3), ("J", 7, 3, 3),
        )
    ]
    for ideal in ladder:
        assert _split_axes(build_poset(ideal)) == [], str(ideal)
        assert _layer_calls(ideal, 500_000)[0] == 0, str(ideal)
    x6 = Monomial.variable(6, 6)
    ideal = cycle_ideal(6, 4).power(2) + MonomialIdeal.principal(x6 ** 2)
    assert _split_axes(build_poset(ideal)) == [5]
    calls, result = _layer_calls(ideal, DEFAULT_BUDGET)
    assert calls == 1 and result.sdepth == 2


def test_layers_take_no_turn_under_a_budget_of_100():
    # under a budget of 100 the search pauses at node 0, and the
    # whole-poset search keeps the turn: on (x3^2, x2x3) in four variables
    # it takes [1, x3], across the layers a3 = 0 and a3 = 1; at 100 the
    # layers take the turn, and every interval keeps a3
    ideal = parse_ideal("x3^2, x2*x3", 4)
    poset = build_poset(ideal)
    assert _split_axes(poset) == [2] and not _symmetry_groups(ideal, poset.g)
    calls, result = _layer_calls(ideal, 99)
    assert calls == 0 and result.sdepth == 2
    assert PosetInterval((0, 0, 0, 0), (0, 0, 1, 0)) in result.partition.intervals
    calls, result = _layer_calls(ideal, 100)
    assert calls == 1 and result.sdepth == 2
    assert all(iv.a[2] == iv.b[2] for iv in result.partition.intervals)
    assert verify_partition(poset, result.partition) == (True, "min label 2")


def test_budget_below_one_is_rejected():
    # a budget of 1 is valid (see the depth-0 test above); below it is an
    # error in the arguments, not an exhaustion
    ideal = path_ideal(4, 2)
    poset = build_poset(ideal)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="node_budget must be at least 1"):
            sdepth_quotient(ideal, node_budget=budget)
        for k in (0, 2):
            with pytest.raises(ValueError, match="node_budget must be at least 1"):
                has_partition_min_label(poset, k, budget)


# poset construction --------------------------------------------------


def test_build_poset_leaves_no_reference_cycle():
    # the box pass and its read-off build no closure that refers to
    # itself, so with the collector off one poset leaves nothing behind
    ideal = cycle_ideal(6, 4).power(2)
    gc.collect()
    gc.disable()
    try:
        assert len(build_poset(ideal)) == 650
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_poset_of_single_edge():
    I = parse_ideal("x1*x2", 2)
    p = build_poset(I)
    assert p.g == (1, 1)
    assert set(p.points) == {(0, 0), (1, 0), (0, 1)}
    assert p.label((1, 0)) == 1
    assert p.label((0, 0)) == 0


def test_poset_respects_explicit_cap_vector():
    I = parse_ideal("x1*x2", 2)
    p = build_poset(I, g=Monomial((2, 2)))
    assert (2, 0) in p.points and (1, 1) not in p.points


def test_poset_cap_error():
    I = parse_ideal("x1^9*x2^9*x3^9", 3)
    with pytest.raises(PosetCapError):
        build_poset(I, cap=100)


def test_poset_rejects_g_off_the_lcm():
    # g = x1 below lcm = x1^2 used to give sdepth 2 for S/(x1^2), which is 1
    I = MonomialIdeal(2, [Monomial((2, 0))])
    for g in (Monomial((1, 0)), Monomial((2,)), Monomial((2, 0, 0))):
        with pytest.raises(ValueError):
            build_poset(I, g=g)
        with pytest.raises(ValueError):
            sdepth_quotient(I, g=g)
    assert sdepth_quotient(I, g=Monomial((3, 1))).sdepth == 1


def test_poset_rejects_trivial_ideals():
    with pytest.raises(ValueError):
        build_poset(MonomialIdeal.zero(2))
    with pytest.raises(ValueError):
        build_poset(MonomialIdeal.whole_ring(2))


# partition search ----------------------------------------------------


def exhaustive_has_partition(poset, k):
    """Reference exact-cover decision by brute force over all intervals."""
    points = list(poset.points)
    intervals = []
    for a in points:
        for b in points:
            if all(x <= y for x, y in zip(a, b)) and poset.label(b) >= k:
                cells = frozenset(
                    c
                    for c in cartesian(*(range(lo, hi + 1) for lo, hi in zip(a, b)))
                )
                intervals.append(cells)
    target = frozenset(points)

    def cover(remaining):
        if not remaining:
            return True
        cell = min(remaining)
        for iv in intervals:
            if cell in iv and iv <= remaining:
                if cover(remaining - iv):
                    return True
        return False

    return cover(target)


def test_partition_search_matches_exhaustive_oracle():
    instances = [
        parse_ideal("x1*x2", 2),
        parse_ideal("x1*x2, x2*x3", 3),
        parse_ideal("x1^2, x1*x2", 2),
        cycle_ideal(4, 2),
        MonomialIdeal.maximal(3),
    ]
    for I in instances:
        poset = build_poset(I)
        for k in range(0, I.n_vars + 1):
            got = has_partition_min_label(poset, k) is not None
            assert got == exhaustive_has_partition(poset, k), (str(I), k)


def test_sdepth_reference_values():
    assert sdepth_quotient(parse_ideal("x1*x2", 2)).sdepth == 1
    assert sdepth_quotient(MonomialIdeal.maximal(3)).sdepth == 0
    assert sdepth_quotient(parse_ideal("x1*x2, x2*x3", 3)).sdepth == 1
    # disjoint complete intersection: sdepth = depth = 2
    assert sdepth_quotient(parse_ideal("x1*x2, x3*x4", 4)).sdepth == 2


def test_sdepth_k_zero_always_succeeds():
    poset = build_poset(parse_ideal("x1*x2", 2))
    part = has_partition_min_label(poset, 0)
    assert part is not None
    assert verify_partition(poset, part)[0]


def test_budget_error_is_raised_not_answered():
    I = path_ideal(5, 2)
    with pytest.raises(SearchBudgetError):
        sdepth_quotient(I, node_budget=2)


def test_cap_vector_does_not_change_sdepth():
    # robustness of the decision under enlarging the box from g to g + 1
    for I in (
        parse_ideal("x1*x2", 2),
        parse_ideal("x1^2, x1*x2", 2),
        parse_ideal("x1*x2, x2*x3", 3),
    ):
        base = sdepth_quotient(I).sdepth
        g = I.lcm_of_gens()
        bumped = Monomial(tuple(e + 1 for e in g.exponents))
        poset = build_poset(I, g=bumped)
        ks = [
            k
            for k in range(I.n_vars, -1, -1)
            if has_partition_min_label(poset, k) is not None
        ]
        assert max(ks) == base


# certificates --------------------------------------------------------


def test_every_sdepth_result_carries_a_valid_certificate():
    for I in (
        parse_ideal("x1*x2", 2),
        cycle_ideal(4, 2),
        cycle_ideal(5, 3),
        path_ideal(4, 2).power(2),
        MonomialIdeal.maximal(2).power(2),
    ):
        result = sdepth_quotient(I)
        poset = build_poset(I)
        assert result.poset == poset
        ok, why = verify_partition(poset, result.partition)
        assert ok, why
        assert result.partition.min_label(poset) >= result.sdepth


def test_verify_partition_rejects_bad_certificates():
    poset = build_poset(parse_ideal("x1*x2", 2))
    gap = StanleyPartition((PosetInterval((0, 0), (1, 0)),))
    ok, why = verify_partition(poset, gap)
    assert not ok and "gap" in why
    overlap = StanleyPartition(
        (
            PosetInterval((0, 0), (1, 0)),
            PosetInterval((0, 0), (0, 1)),
        )
    )
    ok, why = verify_partition(poset, overlap)
    assert not ok and "overlap" in why
    outside = StanleyPartition((PosetInterval((0, 0), (1, 1)),))
    ok, why = verify_partition(poset, outside)
    assert not ok


def test_partition_to_decomposition_summands():
    I = parse_ideal("x1*x2", 2)
    result = sdepth_quotient(I)
    summands = partition_to_decomposition(result.partition, I.lcm_of_gens())
    covered = set()
    for mono, zs in summands:
        assert all(1 <= z <= 2 for z in zs)
        covered.add(mono.exponents)
    assert covered <= set(build_poset(I).points)


# agreement with depth on known families ------------------------------


def test_stanley_inequality_on_small_instances():
    for I in (
        parse_ideal("x1*x2", 2),
        parse_ideal("x1*x2, x2*x3", 3),
        cycle_ideal(4, 2),
        cycle_ideal(5, 2),
        path_ideal(4, 2).power(2),
    ):
        assert sdepth_quotient(I).sdepth >= depth_quotient(I).depth


@given(small_ideals(n_max=3, gens_max=3))
@settings(max_examples=25, deadline=None)
def test_stanley_inequality_random(I):
    assert sdepth_quotient(I).sdepth >= depth_quotient(I).depth


def test_bitset_kernel_matches_oracles_in_every_budget_phase():
    # I(5,3)^2 at k = 3: budgets that end in the pre-check, in candidate
    # construction and in the search, and one that refutes k = 4
    poset = build_poset(path_ideal(5, 3).power(2))
    for k, budget, phase in (
        (3, 5, "pre-check"),
        (3, 1000, "candidates"),
        (3, 100_000, "search nodes"),
        (4, DEFAULT_BUDGET, None),
    ):
        got = _outcome(lambda: has_partition_min_label(poset, k, budget))
        assert got == _outcome(
            lambda: linear_scan_has_partition(poset, k, budget, memo_cap=0)
        )
        assert (got is None) if phase is None else (phase in got), got
    # the units themselves: a budget one below what a phase is charged runs
    # out in that phase, and the charged budget gets past it
    tops = [b for b in poset.points if poset.label(b) >= 3]
    precheck = sum(
        next(i for i, b in enumerate(tops) if _leq(p, b)) + 1 for p in poset.points
    )
    cells = sum(
        prod(y - x + 1 for x, y in zip(p, b))
        for p in poset.points
        for b in tops
        if _leq(p, b)
    )
    charged = precheck + len(poset.points) * len(tops) + cells
    for budget, phase in (
        (-(-precheck // 10) - 1, "pre-check"),
        (-(-precheck // 10), "candidates"),
        (charged - 1, "candidates"),
    ):
        assert phase in _outcome(lambda: has_partition_min_label(poset, 3, budget))
    assert "candidates" not in _outcome(lambda: has_partition_min_label(poset, 3, charged))
