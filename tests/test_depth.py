"""Exact homology, Betti numbers, and depth."""

import gc
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import comb
from operator import and_, or_

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pathdepth.depth import (
    DepthResult,
    PolarizationCapError,
    UnitIdealError,
    _box_cones,
    _box_lattice,
    _box_low_depth,
    _facets,
    _homology_from_top,
    _lcm_box,
    _lcm_closure,
    _plain_closure,
    _raise,
    _reader_rows,
    _socle_row,
    _strand_faces,
    _strand_homology,
    betti,
    build_lcm_lattice,
    depth_quotient,
    depth_via_polarization,
    max_ideal_associated,
    rank_exact,
    reduced_homology,
)
from pathdepth import depth as depth_module
from pathdepth.families import cycle_ideal, path_ideal, phi
from pathdepth.monomials import (
    Monomial,
    MonomialIdeal,
    _at_least_patterns,
    _below_bitsets,
    _box_points,
    _build_box,
    _dividing,
    parse_ideal,
)

# linear algebra ------------------------------------------------------


def fraction_rank(columns):
    """Reference oracle: rank over Q by rational elimination on Fraction entries."""
    pivots = {}
    rank = 0
    for col in columns:
        work = {r: Fraction(c) for r, c in col.items() if c}
        while work:
            r = min(work)
            if r in pivots:
                piv = pivots[r]
                factor = work[r] / piv[r]
                for pr, pc in piv.items():
                    val = work.get(pr, Fraction(0)) - factor * pc
                    if val:
                        work[pr] = val
                    else:
                        work.pop(pr, None)
            else:
                pivots[r] = work
                rank += 1
                break
    return rank


def test_rank_exact_small_matrices():
    assert rank_exact([]) == 0
    assert rank_exact([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert rank_exact([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2
    # integer arithmetic that would break floating-point elimination
    cols = [{0: 10**30, 1: 1}, {0: 10**30 + 1, 1: 1}]
    assert rank_exact(cols) == 2
    # a generator of columns, as the walk passes them
    assert rank_exact({0: 2, 1: 2 * k} for k in range(3)) == 2


sparse_columns = st.lists(
    st.dictionaries(st.integers(0, 7), st.integers(-3, 3), max_size=6), max_size=9
)


@given(sparse_columns, st.data())
@settings(max_examples=100, deadline=None)
def test_rank_exact_matches_fraction_oracle(columns, data):
    if columns:
        columns += data.draw(st.lists(st.sampled_from(columns), max_size=3))  # duplicates
    columns += [{}, {r: 0 for r in range(3)}]  # an empty and a zero column
    columns = data.draw(st.permutations(columns))
    before = [dict(c) for c in columns]
    assert rank_exact(columns) == fraction_rank(columns)
    assert columns == before  # the input columns are not touched


# simplicial homology -------------------------------------------------


def naive_homology(faces):
    """Dense brute-force reduced homology, as an independent oracle."""
    from fractions import Fraction

    all_faces = {tuple(sorted(f)) for f in faces}
    closed = set()
    for f in all_faces:
        for r in range(1, len(f) + 1):
            closed.update(combinations(f, r))
    by_dim = {}
    for f in closed:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for d in by_dim:
        by_dim[d].sort()
    if not closed:
        return {-1: 1}
    top = max(by_dim)
    ranks_of_boundary = {}
    for d in range(0, top + 1):
        rows = {f: i for i, f in enumerate(by_dim.get(d - 1, [()]))}
        matrix = []
        for f in by_dim.get(d, []):
            col = [Fraction(0)] * len(rows)
            if d == 0:
                col[0] = Fraction(1)
            else:
                for j in range(d + 1):
                    col[rows[f[:j] + f[j + 1:]]] += Fraction(-1 if j % 2 else 1)
            matrix.append(col)
        # dense elimination
        rank = 0
        m = [list(c) for c in matrix]
        cols_n = len(m)
        rows_n = len(rows)
        pivot_row = 0
        for c in range(cols_n):
            pr = None
            for r in range(pivot_row, rows_n):
                if m[c][r]:
                    pr = r
                    break
            if pr is None:
                continue
            m[c][pivot_row], m[c][pr] = m[c][pr], m[c][pivot_row]
            for c2 in range(c + 1, cols_n):
                m[c2][pivot_row], m[c2][pr] = m[c2][pr], m[c2][pivot_row]
            for c2 in range(c + 1, cols_n):
                if m[c2][pivot_row]:
                    factor = m[c2][pivot_row] / m[c][pivot_row]
                    for r in range(rows_n):
                        m[c2][r] -= factor * m[c][r]
            rank += 1
            pivot_row += 1
        ranks_of_boundary[d] = rank
    ranks_of_boundary[top + 1] = 0
    out = {}
    h = 1 - ranks_of_boundary[0]
    if h:
        out[-1] = h
    for d in range(0, top + 1):
        r = len(by_dim.get(d, [])) - ranks_of_boundary[d] - ranks_of_boundary[d + 1]
        if r:
            out[d] = r
    return out


def test_homology_of_known_complexes():
    # circle: boundary of a triangle
    circle = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert reduced_homology(circle) == {1: 1}
    # two points
    assert reduced_homology([(1,), (2,)]) == {0: 1}
    # solid triangle is contractible
    solid = circle + [(1, 2, 3)]
    assert reduced_homology(solid) == {}
    # empty complex (only the empty face)
    assert reduced_homology([]) == {-1: 1}
    # vertices of any hashable kind, faces as any iterables, read once
    assert reduced_homology(iter([["a"], {"b"}, ("c",), ("a", "c")])) == {0: 1}
    # 2-sphere: boundary of a tetrahedron
    verts = (1, 2, 3, 4)
    sphere = [f for r in (1, 2, 3) for f in combinations(verts, r)]
    assert reduced_homology(sphere) == {2: 1}


@given(st.sets(st.frozensets(st.integers(1, 5), min_size=1, max_size=3), max_size=8))
@settings(max_examples=40, deadline=None)
def test_homology_matches_naive_oracle(gen_faces):
    closed = set()
    for f in gen_faces:
        for r in range(1, len(f) + 1):
            closed.update(combinations(sorted(f), r))
    assert reduced_homology(closed) == naive_homology(closed)


def set_cone(faces, vertices):
    """Reference oracle: some vertex v has f + {v} in the complex for every
    nonempty face f without v, by set lookups on tuple faces."""
    face_set = {frozenset(f) for f in faces}
    for v in vertices:
        if all(f | {v} in face_set for f in face_set if v not in f):
            return True
    return False


def face_mask(face):
    return sum(1 << v for v in face)


def _is_cone(faces, vertices):
    """True if some vertex v has f + {v} in the complex for every face f.

    `faces` holds the nonempty faces of a complex as vertex bitmasks, each
    once.  Dropping v maps the faces that contain v one-to-one into the
    faces without v together with the empty face, and v is a cone point
    iff that map is onto: iff v lies in (len(faces) + 1) / 2 faces.  The
    face-count cone test the engine ran before it read cones off facets,
    kept as the oracle of that facet test.
    """
    total = len(faces) + 1
    return any(2 * (sum(map((1 << v).__and__, faces)) >> v) == total for v in vertices)


@given(st.sets(st.frozensets(st.integers(0, 5), min_size=1, max_size=4), max_size=6))
@settings(max_examples=100, deadline=None)
def test_cone_count_matches_set_definition(gen_faces):
    closed = set()
    for f in gen_faces:
        for r in range(1, len(f) + 1):
            closed.update(combinations(sorted(f), r))
    vertices = sorted({v for f in closed for v in f}) + [6]  # and one outside
    masks = [face_mask(f) for f in closed]
    if closed:
        assert _is_cone(masks, vertices) == set_cone(closed, vertices)
    else:
        # {empty face} has homology in dimension -1: never a cone
        assert not _is_cone(masks, vertices)
    assert not _is_cone(masks, [])


# lcm lattice ---------------------------------------------------------


def lattice_top(lattice):
    """The lcm of all elements: the lcm of all generators."""
    best = lattice.elements[0]
    for e in lattice.elements[1:]:
        best = best.lcm(e)
    return best


def lattice_below(lattice, top):
    """Elements strictly dividing `top`: the open interval (bottom, top)."""
    return [e for e in lattice.elements if e != top and e.divides(top)]


def open_interval_homology(lattice, top):
    """Oracle for the Betti numbers: reduced homology of the order complex
    of the open interval below top, whose faces are the chains of lattice
    elements strictly dividing top.  Exponential in the interval size."""
    if top not in set(lattice.elements):
        raise ValueError("top element not in lattice")
    elems = sorted(lattice_below(lattice, top), key=lambda m: (m.degree(), m.exponents))
    above = [
        [j for j in range(i + 1, len(elems)) if elems[i].divides(elems[j])]
        for i in range(len(elems))
    ]
    faces = []

    def grow(chain, last):
        faces.append(tuple(chain))
        for j in above[last]:
            chain.append(j)
            grow(chain, j)
            chain.pop()

    for i in range(len(elems)):
        grow([i], i)
    return reduced_homology(faces)


def test_lcm_lattice_of_two_edges():
    I = parse_ideal("x1*x2, x2*x3", 3)
    lat = build_lcm_lattice(I)
    assert set(str(e) for e in lat.elements) == {"x1*x2", "x2*x3", "x1*x2*x3"}
    top = lattice_top(lat)
    assert str(top) == "x1*x2*x3"
    assert len(lattice_below(lat, top)) == 2


def test_open_interval_homology_of_square_cycle():
    # the 4-cycle edge ideal: open interval under the top has a circle
    I = cycle_ideal(4, 2)
    lat = build_lcm_lattice(I)
    assert open_interval_homology(lat, lattice_top(lat)) == {1: 1}


def test_open_interval_agrees_with_koszul_betti():
    for I in (
        parse_ideal("x1*x2, x2*x3", 3),
        cycle_ideal(4, 2),
        parse_ideal("x1^2, x1*x2, x2^3", 2),
        path_ideal(5, 3),
    ):
        table = betti(I)
        lat = build_lcm_lattice(I)
        for a in lat.elements:
            expected = {
                i - 2: r for (i, b), r in table.entries.items() if b == a and i >= 1
            }
            got = {
                d: r for d, r in open_interval_homology(lat, a).items()
            }
            assert got == expected, (str(I), str(a))


# lcm closures and bitset Koszul strands against the Monomial oracle


def scalar_lcm_closure(exponent_tuples):
    """Reference oracle: the closure of exponent tuples under componentwise
    max, in lex order, one packed word per tuple and one step per pair.

    Each tuple is packed into one int, x_1 in the highest field; a field
    holds w = max_exponent.bit_length() value bits under one guard bit G.
    Per field, (a | G) - b keeps its guard bit iff a_i >= b_i and never
    borrows from the next field, so the guards, spread over the value
    bits, select the larger of each pair of exponents.
    """
    n = len(exponent_tuples[0])
    w = max(max(t) for t in exponent_tuples).bit_length()
    shifts = [(n - 1 - i) * (w + 1) for i in range(n)]
    guard = sum(1 << (s + w) for s in shifts)
    gens = {sum(e << s for e, s in zip(t, shifts)) for t in exponent_tuples}
    elements = set(gens)
    frontier = gens
    while frontier:
        fresh = set()
        for a in frontier:
            ag = a | guard
            for b in gens:
                ge = (ag - b) & guard
                keep = ge - (ge >> w)
                fresh.add((a & keep) | (b & ~keep))
        frontier = fresh - elements
        elements |= frontier
    mask = (1 << w) - 1
    return [tuple((m >> s) & mask for s in shifts) for m in sorted(elements)]


# 8 variables with exponents up to 200: in the oracle's packing, 8 fields
# of 9 bits, a 72-bit word
WIDE = [
    (200, 3, 0, 0, 0, 0, 0, 1),
    (0, 0, 150, 2, 0, 0, 0, 1),
    (0, 0, 0, 0, 199, 1, 100, 0),
    (0, 17, 0, 0, 0, 0, 1, 200),
    (1, 1, 1, 1, 1, 1, 1, 1),
]


@st.composite
def exponent_vectors(draw, n_max=8, max_size=7):
    n = draw(st.integers(1, n_max))
    top = draw(st.sampled_from([1, 3, 9, 200, 255, 256, 300]))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, top)] * n), min_size=1, max_size=max_size))
    if not any(map(any, vectors)):
        vectors[0] = (top,) * n
    return vectors


# the six (base, t, depth) of benchmark/workloads.py::DEPTH_LADDER
DEPTH_LADDER = (
    (path_ideal(7, 3), 3, phi(7, 3, 3)),
    (cycle_ideal(6, 3), 2, 3),
    (cycle_ideal(6, 4), 2, 1),
    (cycle_ideal(7, 3), 3, 2),
    (cycle_ideal(6, 4), 5, 1),
    (cycle_ideal(6, 5), 5, 0),
)
LADDER_VECTORS = [[g.exponents for g in base.power(t).gens] for base, t, _ in DEPTH_LADDER]


@given(exponent_vectors())
@example([(5,)])  # one variable, one generator
@example([(1, 0, 2)])  # one generator
@example([(3,), (7,), (1,)])  # one variable
@example([(300, 0), (0, 256), (255, 255)])  # exponents above 255
@example(WIDE)  # a word wider than 64 bits
@example([(1,) * 32, (1, 0) * 16])  # a word of exactly 64 bits
@settings(max_examples=150, deadline=None)
def test_plain_closure_matches_scalar_oracle(vectors):
    # called directly, whichever path `_lcm_closure` would pick
    assert _plain_closure(vectors) == scalar_lcm_closure(vectors)


def with_examples(*cases):
    """`hypothesis.example` once per case, in the order given."""

    def decorate(test):
        for case in reversed(cases):
            test = example(case)(test)
        return test

    return decorate


BOX_EXAMPLES = (
    [(1,), (0,)],  # the zero vector among the inputs
    [(0, 0, 0)],  # the zero vector alone
    [(0, 0), (1, 2), (2, 1)],
    [(3,), (7,), (1,), (4,), (9,), (2,)],  # one variable, six tuples
    [(300, 0), (0, 256), (255, 255), (1, 299), (256, 1), (2, 2)],  # exponents above 255
    WIDE,
    *LADDER_VECTORS,  # the depth ladder, each on the box
)


# the box rule's constants that send every input to the box
ON_THE_BOX = (("_BOX_MIN_GENS", 1), ("_BOX_SHIFT", 64), ("_BOX_CEILING", 1 << 64))


def lcm_box(vectors):
    """The box of `_lcm_box` built whichever path `_lcm_closure` would pick."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in ON_THE_BOX:
            patch.setattr(depth_module, name, value)
        return _lcm_box(vectors)


def every_rank_patterns(box):
    """at_least[i][c], the points with x_i at rank c or above, for every
    rank c = 0..span of every axis, where the box itself builds only the
    ranks its readers need."""
    size = box.every.bit_length()
    return [
        _at_least_patterns(range(len(vs) + 1), len(vs), step, size)
        for vs, step in zip(box.values, box.strides)
    ]


def row_loop_lattice(box, vectors):
    """Reference lattice, one up-cone bitset per generator: the lattice
    read before the seed's prefix closures.

    A nonzero a in the box is the lcm of the generators below it iff each
    positive a_i is reached by one of them, some g <= a with g_i = a_i.
    The up-cone of g is an AND of "x_i >= g_i" patterns over its support,
    and the cones are ORed into one row per coordinate and rank: row[i][c]
    holds the points above some g with g_i at rank c.  The points of
    coordinate i that pass are those with x_i = 0 and, for each c > 0,
    those of row[i][c] with x_i at rank c; the lattice is the AND of those
    sets over i, the zero vector in it iff it is a generator.
    """
    at_least = every_rank_patterns(box)
    rows = [[0] * len(vs) for vs in box.values]
    for g in set(vectors):
        steps = [(i, box.values[i].index(e)) for i, e in enumerate(g) if e]
        cone = box.every
        for i, c in steps:
            cone &= at_least[i][c]
        for i, c in steps:
            rows[i][c] |= cone
    lattice = -1
    for row, ge in zip(rows, at_least):
        # ge[c] ^ ge[c + 1]: the points with x_i at rank c
        passed = ge[0] ^ ge[1]
        for c in range(1, len(row)):
            passed |= row[c] & (ge[c] ^ ge[c + 1])
        lattice &= passed
    if all(map(any, vectors)):
        lattice &= ~1
    return lattice


@given(exponent_vectors(n_max=5, max_size=10))
@with_examples(*BOX_EXAMPLES)
@settings(max_examples=150, deadline=None)
def test_box_closure_matches_scalar_oracle(vectors):
    # on the box whichever path `_lcm_closure` would pick: the prefix
    # closures against the per-generator row loop, and the points against
    # the scalar closure
    box = lcm_box(vectors)
    lattice = _box_lattice(box)
    assert lattice == row_loop_lattice(box, vectors)
    assert _box_points(box, lattice) == scalar_lcm_closure(vectors)


def top_row(exponents, below):
    """Reference: whether beta_{s,a}(S/I) != 0 for s = |supp(a)|, the top
    index at a, one lattice element at a time.

    The Koszul strand complex at a lives on the s vertices of the support,
    so its homology in dimension s - 2 is non-zero (and then 1) iff it is
    the boundary of the simplex: every (s-1)-subset of the support is a
    face and the support is not.  tau is a face iff the bitset of the
    generators dividing x^a ANDed with the rows below[i][a_i - 1] of tau is
    non-zero; prefix ANDs of those rows and one suffix AND test all s
    subsets with 2s ANDs.
    """
    bits = _dividing(exponents, below)
    step = [below[i][e - 1] for i, e in enumerate(exponents) if e]
    prefix = [bits]
    for row in step:
        bits &= row
        prefix.append(bits)
    if bits:
        return False
    suffix = -1
    for k in range(len(step) - 1, -1, -1):
        if not prefix[k] & suffix:
            return False
        suffix &= step[k]
    return True


def top_rows(ideal):
    """Reference: (elements, top), the lcm lattice in lex order and top[s],
    s >= 1, its points of support size s with beta_{s,a}(S/I) != 0, in
    lex order, by `top_row` on each element on either path of
    `_lcm_closure`; top[0] is not read."""
    vectors = [g.exponents for g in ideal.gens]
    elements, _ = _lcm_closure(vectors)
    below = _below_bitsets(vectors)
    top = [[] for _ in range(ideal.n_vars + 1)]
    for a in elements:
        if top_row(a, below):
            top[support_size(a)].append(a)
    return elements, top


def test_closure_path_choice(monkeypatch):
    # the box needs >= 6 distinct tuples and at most min(2^(|G| + 4), 2^24)
    # points; the depth ladder takes it and small ideals the plain closure,
    # so the benchmark runs a workload on each side of the rule.  It takes
    # every box of at most min(16 |G|^2, 2^17) points for |G| >= 6
    assert all(min(16 * g * g, 1 << 17) <= min(1 << g + 4, 1 << 24) for g in range(6, 100))
    taken = []

    def recording(name, build):
        def record(*args):
            taken.append(name)
            return build(*args)

        return record

    monkeypatch.setattr(depth_module, "_build_box", recording("box", lambda *args: "box"))
    for vectors in LADDER_VECTORS:
        assert _lcm_box(vectors) == "box"
    assert taken == ["box"] * 6
    # 200 tuples in 8 variables with values 1..4: 5^8 points, under the ceiling
    rng = random.Random(0)
    ceiling = rng.sample(list(product(range(1, 5), repeat=8)), 200)
    assert all(len(set(column)) == 4 for column in zip(*ceiling))
    taken.clear()
    assert _lcm_box(ceiling) == "box"
    assert taken == ["box"]
    # 5 generators, and the same 5 twice: the rule counts distinct tuples
    fewer = [g.exponents for g in cycle_ideal(5, 2).gens]
    # 8 variables with distinct exponents: 6 tuples, a box of 7^8 > 2^10 points
    distinct = [tuple(8 * j + i + 1 for i in range(8)) for j in range(6)]
    # a chain of 24 tuples, so the ceiling binds: a box of 25^6 > 2^24 points
    # around a lattice that is the chain itself
    chain = [(j,) * 6 for j in range(1, 25)]
    taken.clear()
    for vectors in (fewer, fewer * 2, distinct, chain):
        assert _lcm_box(vectors) is None
    assert taken == []
    # on the box `depth_quotient` reads its lattice where the local
    # cohomology leaves depth >= 2, and `max_ideal_associated` never; on the
    # plain closure neither reads a box; `betti` reads the lattice of each
    # box it takes
    lattices = []

    def building(box):
        lattices.append(box)
        return _box_lattice(box)

    monkeypatch.setattr(depth_module, "_build_box", recording("box", _build_box))
    monkeypatch.setattr(depth_module, "_plain_closure", recording("plain", _plain_closure))
    monkeypatch.setattr(depth_module, "_box_lattice", building)
    taken.clear()
    for base, t, depth in DEPTH_LADDER:
        ideal = base.power(t)
        assert depth_quotient(ideal).depth == depth
        assert max_ideal_associated(ideal)[0] == (depth == 0)
    assert taken == ["box"] * 12
    assert len(lattices) == sum(depth >= 2 for _, _, depth in DEPTH_LADDER) == 3
    lattices.clear()
    taken.clear()
    assert depth_quotient(cycle_ideal(5, 2)).depth == 2
    assert max_ideal_associated(cycle_ideal(5, 2)) == (False, None)
    assert taken == ["plain"] * 2
    assert lattices == []
    taken.clear()
    assert betti(cycle_ideal(6, 4).power(2)).projective_dimension() == 5
    assert betti(cycle_ideal(5, 2)).projective_dimension() == 3
    assert depth_via_polarization(cycle_ideal(6, 3)).depth == 3
    assert taken == ["box", "plain", "box"]
    assert len(lattices) == 2


def monomial_lcm_closure(ideal):
    """Reference oracle: the lcm closure over Monomial objects, lex-sorted."""
    gens = ideal.gens
    elements = set(gens)
    frontier = set(gens)
    while frontier:
        fresh = set()
        for a in frontier:
            for g in gens:
                m = a.lcm(g)
                if m not in elements:
                    elements.add(m)
                    fresh.add(m)
        frontier = fresh
    return tuple(sorted(elements))


def _membership_oracle(ideal):
    gens = [g.exponents for g in ideal.gens]
    cache = {}

    def member(exps):
        hit = cache.get(exps)
        if hit is None:
            hit = any(all(a <= b for a, b in zip(g, exps)) for g in gens)
            cache[exps] = hit
        return hit

    return member


def membership_koszul_faces(exponents, member):
    """Reference oracle: Koszul strand faces by a membership test per face.

    tau is a face iff x^(a - tau) is in the ideal; returns the faces in DFS
    order, the support, and whether x^a itself is in the ideal.
    """
    support = [i for i, e in enumerate(exponents) if e > 0]
    faces = []

    def grow(face, start, current):
        for k in range(start, len(support)):
            i = support[k]
            nxt = current[:i] + (current[i] - 1,) + current[i + 1:]
            if member(nxt):
                face.append(i)
                faces.append(tuple(face))
                grow(face, k + 1, nxt)
                face.pop()

    if member(exponents):
        grow([], 0, exponents)
        return faces, support, True
    return faces, support, False


def oracle_betti_entries(ideal):
    """Betti entries of S/I from the oracles above, in the engine's order."""
    entries = {(0, Monomial.unit(ideal.n_vars)): 1}
    member = _membership_oracle(ideal)
    for a in monomial_lcm_closure(ideal):
        faces, support, in_ideal = membership_koszul_faces(a.exponents, member)
        if not in_ideal:
            continue
        if faces and set_cone(faces, support):
            continue
        for d, r in reduced_homology(faces).items():
            entries[(d + 2, a)] = r
    return entries


def assert_matches_oracle(ideal):
    lattice = build_lcm_lattice(ideal)
    assert lattice.elements == monomial_lcm_closure(ideal)
    vectors = [g.exponents for g in ideal.gens]
    elements, _ = _lcm_closure(vectors)
    assert elements == scalar_lcm_closure(vectors)
    below = _below_bitsets(vectors)
    member = _membership_oracle(ideal)
    for a in lattice.elements:
        faces, support, in_ideal = membership_koszul_faces(a.exponents, member)
        assert in_ideal
        # the complex side of the face generator, in the oracle's DFS order:
        # s empty facets leave the complex as it is and make f >= s
        facets = _facets(a.exponents, below) + [0] * len(support)
        masks = [face_mask(f) for f in faces]
        assert _strand_faces(facets, support) == masks, str(a)
    # same entries in the same order, not only the same map
    assert list(betti(ideal).entries.items()) == list(oracle_betti_entries(ideal).items())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_engine_matches_monomial_oracle(data):
    n = data.draw(st.integers(1, 6))
    gens = []
    for _ in range(data.draw(st.integers(1, 6))):
        exps = tuple(data.draw(st.integers(0, 9)) for _ in range(n))
        if any(exps):
            gens.append(Monomial(exps))
    if not gens:
        gens = [Monomial.variable(1, n)]
    assert_matches_oracle(MonomialIdeal(n, gens))
    # the rows against their definition, at the largest exponents and above
    vectors = [g.exponents for g in gens]
    largest = [max(column) for column in zip(*vectors)]
    extra = data.draw(st.integers(1, 3))
    for caps in (None, largest, [c + extra for c in largest]):
        below = _below_bitsets(vectors, caps)
        assert [len(row) - 1 for row in below] == list(caps or largest)
        for i, row in enumerate(below):
            for v, bits in enumerate(row):
                assert bits >> len(vectors) == 0
                for j, t in enumerate(vectors):
                    assert bool(bits >> j & 1) == (t[i] <= v)


def bucket_below_bitsets(vectors, caps=None):
    """Reference rows: each vector's digit set in the bucket of its exponent,
    and one string of binary digits read per row, as the rows were built
    before they were translated from bytes."""
    count = len(vectors)
    if caps is None:
        caps = [max(column) for column in zip(*vectors)]
    below = []
    for i, cap in enumerate(caps):
        by_value = [[] for _ in range(cap + 1)]
        for j, t in enumerate(vectors):
            by_value[t[i]].append(count - 1 - j)
        digits = bytearray(b"0" * count)
        row = []
        for positions in by_value:
            for d in positions:
                digits[d] = 49  # ord("1")
            row.append(int(digits, 2))
        below.append(row)
    return below


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_rows_match_the_bucket_builder(data):
    # columns that fit in a byte and columns with exponents of 256 and
    # more, at the largest exponents and at explicit caps above them, on
    # either side of 255
    n = data.draw(st.integers(1, 4))
    top = data.draw(st.sampled_from([3, 255, 256, 300]))
    vectors = data.draw(
        st.lists(st.tuples(*[st.integers(0, top)] * n), min_size=1, max_size=12)
    )
    largest = [max(column) for column in zip(*vectors)]
    extra = data.draw(st.lists(st.integers(0, 300), min_size=n, max_size=n))
    for caps in (None, largest, [c + e for c, e in zip(largest, extra)]):
        assert _below_bitsets(vectors, caps) == bucket_below_bitsets(vectors, caps)


def test_packed_engine_matches_oracle_on_wide_fields():
    # 7 value bits per field
    assert_matches_oracle(parse_ideal("x1^100, x2^100, x3^100", 3))
    assert_matches_oracle(parse_ideal("x1^100*x2, x2^64*x3^127, x1^63*x3", 3))
    # exponents up to 200 in 8 variables, a 72-bit word in the scalar oracle
    assert_matches_oracle(MonomialIdeal(8, [Monomial(t) for t in WIDE]))


def test_packed_engine_matches_oracle_on_fourteen_variables():
    # squarefree in 14 variables, the default polarization cap
    I = path_ideal(14, 7)
    assert I.n_vars == 14
    assert_matches_oracle(I)


# Betti numbers -------------------------------------------------------


def test_betti_of_maximal_ideal_is_binomial():
    for n in (1, 2, 3, 4):
        table = betti(MonomialIdeal.maximal(n))
        for i in range(0, n + 1):
            assert table.total(i) == comb(n, i)
        assert table.projective_dimension() == n


def test_betti_of_two_adjacent_edges():
    table = betti(parse_ideal("x1*x2, x2*x3", 3))
    assert table.total(1) == 2
    assert table.total(2) == 1
    assert table.projective_dimension() == 2


def test_betti_rejects_unit_ideal():
    with pytest.raises(UnitIdealError):
        betti(MonomialIdeal.whole_ring(2))


# depth ---------------------------------------------------------------


def test_depth_reference_values():
    assert depth_quotient(MonomialIdeal.zero(3)).depth == 3
    assert depth_quotient(MonomialIdeal.maximal(4)).depth == 0
    assert depth_quotient(parse_ideal("x1*x2", 2)).depth == 1
    # complete intersection of two disjoint edges in 4 variables
    assert depth_quotient(parse_ideal("x1*x2, x3*x4", 4)).depth == 2
    assert depth_quotient(cycle_ideal(4, 2)).depth == 1


def test_depth_result_invariant():
    r = depth_quotient(parse_ideal("x1*x2, x2*x3", 3))
    assert r.depth + r.pd == r.n_vars == 3
    assert r.as_dict()["method"] == "lattice"


def test_depth_rejects_unit_ideal():
    with pytest.raises(UnitIdealError):
        depth_quotient(MonomialIdeal.whole_ring(2))


def test_depth_result_rejects_broken_invariant():
    # a raised error, not an assert, so the check survives python -O
    with pytest.raises(ValueError):
        DepthResult(2, 2, 3, "x")
    with pytest.raises(ValueError):
        DepthResult(-1, 4, 3, "x")


@st.composite
def small_ideals(draw, n_max=6, gens_max=6, exponent_max=3):
    n = draw(st.integers(1, n_max))
    gens = []
    for _ in range(draw(st.integers(1, gens_max))):
        exps = tuple(draw(st.integers(0, exponent_max)) for _ in range(n))
        if any(exps):
            gens.append(Monomial(exps))
    return MonomialIdeal(n, gens or [Monomial.variable(1, n)])


@st.composite
def box_ideals(draw):
    """Ideals that the box rule takes, with at least 6 minimal generators:
    6 to 12 distinct vectors of one degree d, which no other divides, and
    up to 4 of larger degree, in 3 to 5 variables with exponents <= 3.
    `small_ideals` reaches the box in about 1 draw of 100."""
    n = draw(st.integers(3, 5))
    vectors = list(product(range(4), repeat=n))
    d = draw(st.integers(3, 3 * n - 3))
    gens = draw(st.lists(st.sampled_from([v for v in vectors if sum(v) == d]),
                         min_size=6, max_size=12, unique=True))
    gens += draw(st.lists(st.sampled_from([v for v in vectors if sum(v) > d]), max_size=4))
    assume(_lcm_closure(gens)[1] is not None)
    return MonomialIdeal(n, [Monomial(v) for v in gens])


@given(st.one_of(small_ideals(), box_ideals()))
@settings(max_examples=80, deadline=None)
def test_closure_paths_agree(ideal):
    # each path forced through the rule's constants: the box on every input,
    # then the plain closure on every input, with the same lattice, depth
    # and witness
    vectors = [g.exponents for g in ideal.gens]
    seen = []
    for ceiling in (1 << 64, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(depth_module, "_BOX_MIN_GENS", 1)
            patch.setattr(depth_module, "_BOX_SHIFT", 64)
            patch.setattr(depth_module, "_BOX_CEILING", ceiling)
            elements, box = _lcm_closure(vectors)
            assert (box is None) == (ceiling == 0)
            seen.append((elements, depth_quotient(ideal), max_ideal_associated(ideal)))
    assert seen[0] == seen[1]


@given(st.one_of(small_ideals(), box_ideals()))
@settings(max_examples=80, deadline=None)
def test_walk_pd_matches_full_betti_table(ideal):
    assert depth_quotient(ideal).pd == betti(ideal).projective_dimension()
    polarized, _ = ideal.polarize()
    # within depth_via_polarization's default cap, which bounds the table's cost
    if polarized.n_vars <= 14:
        assert depth_quotient(polarized).pd == betti(polarized).projective_dimension()


def support_size(exponents):
    return sum(1 for e in exponents if e)


def walk_oracle(ideal):
    """The multidegrees the walk must examine, and its pd, from the full table.

    Lattice elements go by decreasing support size, ties in lex order.
    On either path pd starts at 1 (the generators), each element with
    support at least pd + 1 is examined and may raise pd, its top row
    included, and the walk stops at the first element with a smaller
    support.  Where the box rule takes the lattice, the walk knows its
    cones before it reads any facet, so it examines none of the elements
    whose Koszul strand complex the membership oracle finds to be a cone;
    there it examines nothing where depth <= 1, which the box's local
    cohomology decides first, and it stops once pd reaches n - 2, the
    largest pd of depth >= 2.
    """
    top = {}
    for (i, a), _ in betti(ideal).entries.items():
        top[a.exponents] = max(top.get(a.exponents, 0), i)
    vectors = [g.exponents for g in ideal.gens]
    elements = sorted(scalar_lcm_closure(vectors), key=lambda a: -support_size(a))
    on_box = _lcm_closure(vectors)[1] is not None
    member = _membership_oracle(ideal)
    n = ideal.n_vars
    pd, most = 1, n
    if on_box:
        if n - max(top.values()) <= 1:
            return [], max(top.values())
        most = n - 2
    examined = []
    for a in elements:
        if support_size(a) <= pd or pd == most:
            break
        if on_box:
            faces, support, _ = membership_koszul_faces(a, member)
            if _is_cone([face_mask(f) for f in faces], support):
                continue
        examined.append(a)
        pd = max(pd, top.get(a, 0))
    return examined, pd


def walk(ideal):
    """The multidegrees depth_quotient examines, in order, and its pd.

    An element is examined when its facets are read, the first step for
    every element the walk reaches: on the plain closure cone or not, on
    the box only where the box's cone mask does not hold it."""
    examined = []
    original = depth_module._facets

    def recording(exponents, below):
        examined.append(exponents)
        return original(exponents, below)

    depth_module._facets = recording
    try:
        pd = depth_quotient(ideal).pd
    finally:
        depth_module._facets = original
    return examined, pd


@given(st.one_of(small_ideals(n_max=5, gens_max=5), box_ideals()))
# box walks that read more facets than they would if they examined only
# support pd + 2 and up: random draws rarely tell the two rules apart
@example(path_ideal(7, 3).power(3))
@example(cycle_ideal(6, 3).power(2))
@example(cycle_ideal(7, 3).power(3))
@settings(max_examples=60, deadline=None)
def test_walk_examines_only_elements_that_can_raise_pd(ideal):
    assert walk(ideal) == walk_oracle(ideal)


@given(st.one_of(small_ideals(), box_ideals()))
@example(cycle_ideal(7, 3).power(3))  # the walk's costliest ladder instance
@example(cycle_ideal(6, 5).power(5))  # depth 0: depth_quotient builds no mask
@settings(max_examples=60, deadline=None)
def test_box_cones_match_the_facet_and_membership_cone_tests(ideal):
    # every input forced onto the box: on each lattice element the mask
    # holds a iff its facets share a vertex and iff the membership oracle's
    # faces make a cone; depth_quotient builds the mask and the lattice
    # once where the walk has work (depth >= 2 and n > 3, so that pd = 1
    # is below n - 2) and never elsewhere, so no lattice at depth <= 1, and
    # `max_ideal_associated` builds neither
    vectors = [g.exponents for g in ideal.gens]
    below = _below_bitsets(vectors)
    member = _membership_oracle(ideal)
    built, read = [], []

    def building(box):
        built.append(box)
        return _box_cones(box)

    def reading(box):
        read.append(box)
        return _box_lattice(box)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(depth_module, "_BOX_MIN_GENS", 1)
        patch.setattr(depth_module, "_BOX_SHIFT", 64)
        patch.setattr(depth_module, "_BOX_CEILING", 1 << 64)
        box = _lcm_box(vectors)
        lattice = _box_lattice(box)
        cones = set(_box_points(box, lattice & _box_cones(box)))
        for a in _box_points(box, lattice):
            faces, support, _ = membership_koszul_faces(a, member)
            on_facets = bool(reduce(and_, _facets(a, below)))
            assert (a in cones) == on_facets == _is_cone([face_mask(f) for f in faces], support), a
        patch.setattr(depth_module, "_box_cones", building)
        patch.setattr(depth_module, "_box_lattice", reading)
        depth = depth_quotient(ideal).depth
        assert len(built) == len(read) == (depth >= 2 and ideal.n_vars > 3)
        built.clear()
        read.clear()
        max_ideal_associated(ideal)
        assert read == []
        build_lcm_lattice(ideal)
        betti(ideal)
        assert built == []


def test_walk_stops_at_the_largest_support():
    # off the box pd starts at 1: the top element's top row gives pd = n,
    # and no element of smaller support is examined after it
    assert walk(MonomialIdeal.maximal(4)) == ([(1, 1, 1, 1)], 4)
    # two disjoint edges: the top gives pd 2, and the edges, of support
    # 2 < 2 + 1, are not examined
    assert walk(parse_ideal("x1*x2, x3*x4", 4)) == ([(1, 1, 1, 1)], 2)
    # (2, 2, 1), first in lex order, gives pd 2 and (2, 2, 2)'s top row pd = n
    assert walk(parse_ideal("x1^2*x3, x2^2, x3^2", 3)) == ([(2, 2, 1), (2, 2, 2)], 3)
    # on the box J(6,5)^5 has depth 0, which the local cohomology decides
    # before any top row is reached: no facets are read
    assert walk(cycle_ideal(6, 5).power(5)) == ([], 6)


@given(small_ideals(n_max=4, gens_max=5), st.booleans())
@settings(max_examples=80, deadline=None)
def test_top_row_is_the_homology_in_the_top_dimension(ideal, polarize):
    # beta_{s,a} != 0, s = |supp(a)|, read off rows equals the homology of
    # the Koszul strand complex, built by the membership oracle
    if polarize:
        ideal, _ = ideal.polarize()
        if ideal.n_vars > 10:
            return
    below = _below_bitsets([g.exponents for g in ideal.gens])
    member = _membership_oracle(ideal)
    for a in monomial_lcm_closure(ideal):
        faces, support, _ = membership_koszul_faces(a.exponents, member)
        top = reduced_homology(faces).get(len(support) - 2, 0)
        assert top_row(a.exponents, below) == bool(top), str(a)


@given(st.one_of(small_ideals(), box_ideals()))
@settings(max_examples=80, deadline=None)
def test_socle_off_the_facets_matches_the_top_row_oracle(ideal):
    # every input forced off the box: on each full-support lattice element
    # the facet test (n facets of n - 1 vertices each) is the top row, and
    # max_ideal_associated reads the facets of those elements alone
    n = ideal.n_vars
    read = []
    facets_of = depth_module._facets

    def reading(exponents, below):
        read.append(exponents)
        return facets_of(exponents, below)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(depth_module, "_BOX_CEILING", 0)
        box, elements, below = _reader_rows(ideal)
        assert box is None
        full = [a for a in elements if all(a)]
        for a in full:
            assert (_socle_row([a], below) == [a]) == top_row(a, below), a
        assert _socle_row(elements, below) == [a for a in full if top_row(a, below)]
        patch.setattr(depth_module, "_facets", reading)
        assoc, _ = max_ideal_associated(ideal)
    assert read == full
    assert assoc == any(top_row(a, below) for a in full) == (depth_quotient(ideal).depth == 0)


# local cohomology on the box


def cone_union(box, vectors):
    """Reference U: the OR over the generators of their up-cones in the
    box, each an AND of "x_i >= g_i" patterns, one generator at a time,
    on patterns built at every rank (`every_rank_patterns`)."""
    at_least = every_rank_patterns(box)
    inside = 0
    for g in vectors:
        cone = box.every
        for i, e in enumerate(g):
            if e:
                cone &= at_least[i][box.values[i].index(e)]
        inside |= cone
    return inside


def raised_by_ranks(bits, span, step, ge):
    """Reference R_i: the top slice of x_i shifted down to each rank c of
    x_i in turn and cut to the points with x_i = c, on patterns `ge` built
    at every rank (`every_rank_patterns`)."""
    top = bits & ge[span - 1]
    return reduce(or_, ((top >> (span - 1 - c) * step) & (ge[c] ^ ge[c + 1]) for c in range(span)))


@given(exponent_vectors(n_max=5, max_size=10))
@with_examples(*BOX_EXAMPLES)
@settings(max_examples=150, deadline=None)
def test_box_inside_matches_the_per_generator_cones(vectors):
    # on the box whichever path `_lcm_closure` would pick: U against the
    # generators' cones, and each axis's raise of U and of the points
    # outside U against the shift of its top slice to every rank
    box = lcm_box(vectors)
    assert box.inside == cone_union(box, vectors)
    outside = box.every & ~box.inside
    ranks = every_rank_patterns(box)
    for i, (values, step, ge) in enumerate(zip(box.values, box.strides, ranks)):
        for bits in (box.inside, outside):
            assert _raise(box, bits, i) == raised_by_ranks(bits, len(values), step, ge)


def top_row_witness(ideal):
    """Reference witness: the socle monomial w = a - 1 of largest degree,
    ties to the smallest tuple, over the full-support top row (`top_rows`)."""
    socle = [tuple(e - 1 for e in a) for a in top_rows(ideal)[1][ideal.n_vars]]
    return Monomial(min(socle, key=lambda w: (-sum(w), w))) if socle else None


def assert_low_depth_matches_the_walk(ideal):
    """The box's local cohomology against the Betti walk over the plainly
    grown lattice, and `max_ideal_associated` on the box against the
    full-support top row; returns min(depth, 2)."""
    box = lcm_box([g.exponents for g in ideal.gens])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(depth_module, "_BOX_CEILING", 0)
        depth = min(depth_quotient(ideal).depth, 2)
    with pytest.MonkeyPatch.context() as patch:
        for name, value in ON_THE_BOX:
            patch.setattr(depth_module, name, value)
        witness = max_ideal_associated(ideal)
    assert _box_low_depth(box) == depth, str(ideal)
    w = top_row_witness(ideal)
    assert witness == (w is not None, w), str(ideal)
    return depth


def test_box_low_depth_matches_the_walk_on_random_ideals():
    # 2,000 ideals in 1-6 variables with 1-10 generators and exponents <= 3,
    # each forced onto the box: 584 of depth 0, 516 of depth 1, 900 deeper
    rng = random.Random(0)
    seen = [0, 0, 0]
    for _ in range(2000):
        n = rng.randint(1, 6)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 10))]
        gens = [Monomial(g) for g in gens if any(g)] or [Monomial.variable(1, n)]
        seen[assert_low_depth_matches_the_walk(MonomialIdeal(n, gens))] += 1
    assert seen == [584, 516, 900]


def test_box_low_depth_matches_the_walk_on_the_family_powers():
    # every I(n,m)^t and J(n,m)^t with n <= 7 and t <= 3 that the box rule takes
    seen = [0, 0, 0]
    for n in range(2, 8):
        bases = [path_ideal(n, m) for m in range(1, n + 1)]
        bases += [cycle_ideal(n, m) for m in range(2, n)]
        for base, t in product(bases, (1, 2, 3)):
            ideal = base.power(t)
            if _lcm_box([g.exponents for g in ideal.gens]) is not None:
                seen[assert_low_depth_matches_the_walk(ideal)] += 1
    assert sum(seen) == 72 and min(seen) > 0, seen


@given(st.sets(st.frozensets(st.integers(0, 6), min_size=1, max_size=5), max_size=8))
@settings(max_examples=100, deadline=None)
def test_homology_under_a_ceiling_is_the_uncapped_homology_below_it(gen_faces):
    # `_homology_from_top` with a ceiling yields the uncapped (d, rank) for
    # every d from the ceiling down, at every floor; `betti` asks no ceiling
    masks = list({
        face_mask(c) for f in gen_faces for r in range(1, len(f) + 1) for c in combinations(f, r)
    })
    whole = list(_homology_from_top(masks))
    top = whole[0][0]
    for ceiling in range(-1, top + 2):
        for floor in range(-1, ceiling + 1):
            got = list(_homology_from_top(masks, floor, ceiling))
            assert got == [(d, r) for d, r in whole if floor <= d <= ceiling], (ceiling, floor)


# facets and nerves of the Koszul strand complexes


def maximal_faces(faces):
    """Reference: the maximal faces of the complex whose nonempty faces are
    the tuples `faces`, as sorted bitmasks; {empty face} has the one facet 0."""
    masks = [face_mask(f) for f in faces] or [0]
    return sorted(m for m in masks if not any(m != o and m & o == m for o in masks))


def nerve_faces(facets):
    """Reference: the sets of facet indices whose facets share a vertex, by
    trying every subset."""
    return [
        subset
        for r in range(1, len(facets) + 1)
        for subset in combinations(range(len(facets)), r)
        if reduce(and_, (facets[k] for k in subset))
    ]


@given(small_ideals(n_max=5, gens_max=6), st.booleans())
@example(MonomialIdeal.maximal(4), False)  # simplex boundaries, f = s: the complex side
@example(cycle_ideal(5, 2), False)  # squarefree, with a circle at the top
@example(parse_ideal("x1*x2, x3*x4", 4), False)  # f = 2 < s = 4 at (1,1,1,1): the nerve side
@settings(max_examples=80, deadline=None)
def test_facet_kernel_matches_the_face_oracles(ideal, polarize):
    # random ideals and their polarizations in up to 10 variables, against
    # the faces of the membership oracle
    if polarize:
        ideal, _ = ideal.polarize()
        if ideal.n_vars > 10:
            return
    below = _below_bitsets([g.exponents for g in ideal.gens])
    member = _membership_oracle(ideal)
    for a in monomial_lcm_closure(ideal):
        faces, support, _ = membership_koszul_faces(a.exponents, member)
        facets = _facets(a.exponents, below)
        assert len(set(facets)) == len(facets), str(a)
        assert sorted(facets) == maximal_faces(faces), str(a)
        # the facets meet iff the face-count oracle finds a cone point
        assert bool(reduce(and_, facets)) == _is_cone([face_mask(f) for f in faces], support)
        homology = reduced_homology(faces)
        # the nerve theorem, and no homology above dimension f - 2
        assert reduced_homology(nerve_faces(facets)) == homology, str(a)
        assert all(d <= len(facets) - 2 for d in homology), str(a)
        # the engine's route at every floor the walk or the table can ask
        for floor in range(-1, len(support)):
            got = {d: r for d, r in _strand_homology(a.exponents, below, floor) if r}
            assert got == {d: r for d, r in homology.items() if d >= floor}, (str(a), floor)


def test_no_face_is_built_for_a_cone(monkeypatch):
    # every face is grown after the facets of its element are read, and
    # only for an element whose facets share no vertex
    facets_of = depth_module._facets
    grow = depth_module._grow_faces
    last = []

    def reading(exponents, below):
        facets = facets_of(exponents, below)
        last[:] = [reduce(and_, facets)]
        return facets

    def growing(*args):
        assert last == [0]
        return grow(*args)

    monkeypatch.setattr(depth_module, "_facets", reading)
    monkeypatch.setattr(depth_module, "_grow_faces", growing)
    for ideal in (cycle_ideal(6, 4).power(2), path_ideal(5, 3).power(2), MonomialIdeal.maximal(4)):
        depth_quotient(ideal)
        betti(ideal)


def test_walk_builds_few_faces_on_the_costliest_ladder_instance(monkeypatch):
    # J(7,3)^3: the walk reaches 1,297 elements, all of support 7, and the
    # box's cone mask holds 1,100 of them; of the other 197, none a cone,
    # it reads the facets of 165 before pd reaches n - 2 = 5, the most that
    # depth >= 2 leaves, which take 3,646 faces; the whole 197 took 4,837,
    # and growing every complex before any cone test took 103,538
    reached = []
    built = []
    facets_of = depth_module._facets
    homology = depth_module._homology_from_top

    def reading(exponents, below):
        facets = facets_of(exponents, below)
        reached.append(bool(reduce(and_, facets)))
        return facets

    def counting(faces, floor=-1, ceiling=None):
        built.append(len(faces))
        return homology(faces, floor, ceiling)

    monkeypatch.setattr(depth_module, "_facets", reading)
    monkeypatch.setattr(depth_module, "_homology_from_top", counting)
    assert depth_quotient(cycle_ideal(7, 3).power(3)).depth == 2
    assert (len(reached), sum(reached)) == (165, 0)
    assert sum(built) == 3646
    # J(8,2)^4 (depth 2): 20 facet reads and 1,531 faces, where the walk
    # without the cap read 873 and built 118,992
    reached.clear()
    built.clear()
    assert depth_quotient(cycle_ideal(8, 2).power(4)).depth == 2
    assert (len(reached), sum(built)) == (20, 1531)


def test_depth_ladder_pins():
    # the six instances and depths pinned by benchmark/workloads.py::DEPTH_LADDER,
    # so that a wrong early stop of the walk fails here before the benchmark
    assert [depth_quotient(base.power(t)).depth for base, t, _ in DEPTH_LADDER] == [
        depth for _, _, depth in DEPTH_LADDER
    ]


def test_depth_quotient_leaves_no_reference_cycle():
    # the Koszul faces are grown by a module-level recursion, not a closure
    # that refers to itself, so with the collector off none of the three
    # entry points leaves anything behind for it to collect, on the box
    # (J(6,4)^2) or on the plain closure (`WIDE`)
    ideal = cycle_ideal(6, 4).power(2)
    wide = MonomialIdeal(8, [Monomial(t) for t in WIDE])
    gc.collect()
    gc.disable()
    try:
        assert depth_quotient(ideal).depth == 1
        assert gc.collect() == 0
        assert betti(ideal).projective_dimension() == 5
        assert gc.collect() == 0
        assert max_ideal_associated(ideal) == (False, None)
        assert max_ideal_associated(wide) == (False, None)
        assert gc.collect() == 0
    finally:
        gc.enable()


# polarization cross-check --------------------------------------------


def test_polarization_preserves_projective_dimension():
    I = parse_ideal("x1^2, x1*x2", 2)
    assert depth_via_polarization(I).depth == depth_quotient(I).depth


def test_polarization_agrees_on_cycle_square():
    J = cycle_ideal(6, 3)
    assert depth_via_polarization(J).depth == depth_quotient(J).depth


def test_polarization_cap():
    with pytest.raises(PolarizationCapError):
        depth_via_polarization(parse_ideal("x1^10, x2^10", 2), cap=4)
    # the cap is inclusive: 2 + 2 + 2 variables
    assert depth_via_polarization(parse_ideal("x1^3, x2^3", 2), cap=6).depth == 0


def test_polarization_cap_fires_before_polarizing(monkeypatch):
    def refuse(self):
        raise AssertionError("polarize() called past the cap")

    monkeypatch.setattr(MonomialIdeal, "polarize", refuse)
    with pytest.raises(PolarizationCapError, match="^polarized ring has 20 variables, cap is 4$"):
        depth_via_polarization(parse_ideal("x1^10, x2^10", 2), cap=4)
    with pytest.raises(PolarizationCapError, match="has 15 variables, cap is 14"):
        depth_via_polarization(cycle_ideal(5, 3).power(3), cap=14)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_polarization_agreement_random(data):
    n = data.draw(st.integers(1, 3))
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        exps = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
        if any(exps):
            gens.append(Monomial(exps))
    if not gens:
        gens = [Monomial(tuple([1] + [0] * (n - 1)))]
    I = MonomialIdeal(n, gens)
    assert depth_via_polarization(I).depth == depth_quotient(I).depth


# associated maximal ideal --------------------------------------------


def box_scan_witness(ideal):
    """Reference oracle: scan the box below lcm(G(I)) - (1,...,1).

    Candidates go by descending degree, then ascending exponent tuple; the
    first w with w not in I and x_j*w in I for every j is returned, or None.
    """
    n = ideal.n_vars
    top = ideal.lcm_of_gens().exponents
    candidates = sorted(product(*(range(max(e, 1)) for e in top)), key=lambda a: -sum(a))
    for exps in candidates:
        w = Monomial(exps)
        if ideal.contains(w):
            continue
        if all(ideal.contains(w * Monomial.variable(j, n)) for j in range(1, n + 1)):
            return w
    return None


def test_max_ideal_associated_with_witness():
    assoc, witness = max_ideal_associated(MonomialIdeal.maximal(2))
    assert assoc
    assert witness == Monomial((0, 0))
    assoc, witness = max_ideal_associated(parse_ideal("x1*x2", 2))
    assert not assoc and witness is None


def test_max_ideal_associated_witness_certifies():
    I = cycle_ideal(4, 3).power(3)
    assoc, w = max_ideal_associated(I)
    assert assoc
    assert w is not None
    assert not I.contains(w)
    for j in range(1, 5):
        assert I.contains(w * Monomial.variable(j, 4))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_max_ideal_associated_matches_box_scan(data):
    n = data.draw(st.integers(1, 4))
    gens = []
    for _ in range(data.draw(st.integers(1, 4))):
        exps = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
        if any(exps):
            gens.append(Monomial(exps))
    if not gens:
        gens = [Monomial.variable(1, n)]
    I = MonomialIdeal(n, gens)
    w = box_scan_witness(I)
    assert max_ideal_associated(I) == (w is not None, w)
    assert (w is not None) == (depth_quotient(I).depth == 0)


@given(st.one_of(small_ideals(), box_ideals()))
@settings(max_examples=80, deadline=None)
def test_max_ideal_associated_matches_top_betti_row(ideal):
    n = ideal.n_vars
    row = {a.exponents: r for (i, a), r in betti(ideal).entries.items() if i == n}
    assert set(row.values()) <= {1}  # each socle degree is one-dimensional
    socle = [tuple(e - 1 for e in a) for a in row]
    witness = Monomial(min(socle, key=lambda w: (-sum(w), w))) if socle else None
    assert max_ideal_associated(ideal) == (bool(socle), witness)


def test_max_ideal_associated_witness_beyond_any_box_cap():
    # the box below the lcm has 10^6 points; the lcm lattice has 7
    assoc, w = max_ideal_associated(parse_ideal("x1^100, x2^100, x3^100", 3))
    assert assoc
    assert str(w) == "x1^99*x2^99*x3^99"
