"""Monomial and monomial-ideal arithmetic."""

import os
import subprocess
import sys
from functools import reduce
from itertools import product as cartesian

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathdepth
from pathdepth import monomials
from pathdepth.families import cycle_ideal, path_ideal, t0_alpha
from pathdepth.monomials import (
    AmbientMismatchError,
    Monomial,
    MonomialIdeal,
    _minimal,
    parse_ideal,
    parse_monomial,
)


def _minimal_monomials(raw):
    """Unique minimal elements of a set of monomials under divisibility.

    The pairwise minimalization the bitset kernel replaced, kept as its
    oracle.  Duplicates are dropped; equal-degree distinct monomials never
    divide one another, so only strictly smaller degrees need checking.
    """
    mons = sorted(set(raw), key=lambda m: (m.degree(), m.exponents))
    kept = []
    for u in mons:
        du = u.degree()
        if any(v.divides(u) for v in kept if v.degree() < du):
            continue
        kept.append(u)
    return kept


def oracle_gens(raw):
    """The canonical generator tuple of the ideal that `raw` generates."""
    return tuple(sorted(_minimal_monomials(raw)))


def oracle_power(ideal, t):
    gens = (Monomial.unit(ideal.n_vars),)
    for _ in range(t):
        gens = oracle_gens([g * h for g in gens for h in ideal.gens])
    return gens

# strategies ----------------------------------------------------------

exponent_vectors = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.integers(min_value=0, max_value=3), min_size=n, max_size=n
    ).map(tuple)
)


@st.composite
def ideals(draw, n_max=4, max_exp=3, allow_trivial=False):
    n = draw(st.integers(min_value=1, max_value=n_max))
    k = draw(st.integers(min_value=0 if allow_trivial else 1, max_value=4))
    gens = []
    for _ in range(k):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(n)
        )
        if any(exps) or allow_trivial:
            gens.append(Monomial(exps))
    if not allow_trivial and not gens:
        gens = [Monomial(tuple([1] + [0] * (n - 1)))]
    return MonomialIdeal(n, gens)


@st.composite
def monomials_in(draw, n, max_exp=3):
    return Monomial(
        tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(n))
    )


def box_below(exps):
    return [Monomial(a) for a in cartesian(*(range(e + 1) for e in exps))]


# monomial basics -----------------------------------------------------


def test_monomial_str_and_parse_round_trip():
    m = parse_monomial("x1^2*x3", 3)
    assert m.exponents == (2, 0, 1)
    assert str(m) == "x1^2*x3"
    assert str(Monomial.unit(2)) == "1"
    assert parse_monomial("1", 2) == Monomial.unit(2)


def test_monomial_operations():
    a = Monomial((2, 0, 1))
    b = Monomial((1, 1, 0))
    assert (a * b).exponents == (3, 1, 1)
    assert (a ** 2).exponents == (4, 0, 2)
    assert a.lcm(b).exponents == (2, 1, 1)
    assert a.gcd(b).exponents == (1, 0, 0)
    assert a.degree() == 3
    assert a.support() == (1, 3)
    assert b.divides(a.lcm(b))
    assert not a.divides(b)


def test_colon_of_monomials():
    g = Monomial((2, 3, 0))
    u = Monomial((1, 5, 2))
    assert g.colon(u).exponents == (1, 0, 0)


def test_ambient_mismatch_is_rejected():
    with pytest.raises(AmbientMismatchError):
        Monomial((1, 0)) * Monomial((1, 0, 0))
    with pytest.raises(AmbientMismatchError):
        MonomialIdeal(2, [Monomial((1, 0, 0))])


# canonical form ------------------------------------------------------


def test_generators_are_minimal_and_sorted():
    I = parse_ideal("x1^2, x1^3, x2*x1^2, x2", 2)
    assert I == parse_ideal("x2, x1^2", 2)
    assert list(I.gens) == sorted(I.gens, key=lambda m: m.exponents)


def test_zero_and_whole_ring():
    assert MonomialIdeal.zero(3).is_zero()
    assert parse_ideal("0", 3).is_zero()
    whole = MonomialIdeal(2, [Monomial((0, 0))])
    assert whole.is_whole_ring()
    assert not MonomialIdeal.zero(2).is_whole_ring()
    assert not parse_ideal("x1, x2", 2).is_whole_ring()


@given(ideals())
def test_minimalize_is_idempotent(I):
    # the constructor minimalizes: rebuilding from the generators is the identity
    assert MonomialIdeal(I.n_vars, I.gens) == I
    assert MonomialIdeal(I.n_vars, I.gens + I.gens).gens == I.gens


# arithmetic ----------------------------------------------------------


def test_sum_product_power_examples():
    I = parse_ideal("x1*x2", 2)
    J = parse_ideal("x2^2", 2)
    assert I + J == parse_ideal("x1*x2, x2^2", 2)
    assert I * J == parse_ideal("x1*x2^3", 2)
    assert I.power(3) == parse_ideal("x1^3*x2^3", 2)
    assert I.power(0).is_whole_ring()


@given(ideals(n_max=3, max_exp=2), st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=2))
@settings(max_examples=30, deadline=None)
def test_power_additivity(I, a, b):
    assert I.power(a) * I.power(b) == I.power(a + b)


@given(ideals(n_max=3, max_exp=2))
@settings(max_examples=40, deadline=None)
def test_intersection_agrees_with_membership(I):
    J = I.power(2)
    K = I.intersect(J)
    for m in box_below(I.lcm_of_gens().lcm(J.lcm_of_gens()).exponents):
        assert K.contains(m) == (I.contains(m) and J.contains(m))


def test_intersection_example():
    A = parse_ideal("x1", 2)
    B = parse_ideal("x2", 2)
    assert A.intersect(B) == parse_ideal("x1*x2", 2)


def test_colon_example():
    I = parse_ideal("x1^2*x2, x2^3", 2)
    assert I.colon(Monomial((0, 1))) == parse_ideal("x1^2, x2^2", 2)


@given(ideals(n_max=3, max_exp=2), exponent_vectors, exponent_vectors)
@settings(max_examples=40, deadline=None)
def test_colon_composition(I, ue, ve):
    n = I.n_vars
    u = Monomial(tuple((ue * n)[:n]))
    v = Monomial(tuple((ve * n)[:n]))
    assert I.colon(u).colon(v) == I.colon(u * v)


@given(ideals(n_max=3, max_exp=2), exponent_vectors)
@settings(max_examples=40, deadline=None)
def test_colon_membership_pointwise(I, ue):
    n = I.n_vars
    u = Monomial(tuple((ue * n)[:n]))
    C = I.colon(u)
    for m in box_below(I.lcm_of_gens().exponents):
        assert C.contains(m) == I.contains(m * u)


# scale / restrict / extend ------------------------------------------


def test_scale_and_lemma_guard_certificate():
    base = parse_ideal("x1, x2^2", 2)
    u = Monomial((1, 1))
    I = base.scale(u)
    # the guard certifying I = u * (I : u)
    assert I == I.colon(u).scale(u)
    assert I.colon(u) == base


def test_restrict_extend_round_trip():
    I = parse_ideal("x1*x2, x2^2", 2)
    assert I.extend(2).n_vars == 4
    assert I.extend(2).restrict(2) == I


def test_restrict_drops_generators_with_tail_support():
    I = parse_ideal("x1*x2, x2*x3", 3)
    assert I.restrict(2) == parse_ideal("x1*x2", 2)


# polarization --------------------------------------------------------


def test_polarize_squarefree_is_identity_like():
    I = parse_ideal("x1*x2, x2*x3", 3)
    P, added = I.polarize()
    assert added == 0
    assert P == I


def test_polarize_splits_exponents():
    I = parse_ideal("x1^2, x1*x2", 2)
    P, added = I.polarize()
    assert added == 1
    assert P.n_vars == 3
    # x1^2 -> x1 * (first slot of x1); x1*x2 unchanged
    assert P == parse_ideal("x1*x3, x1*x2", 3)


# complete intersections ----------------------------------------------


def test_complete_intersection_detection():
    assert parse_ideal("x1*x2, x3", 3).is_complete_intersection()
    assert not parse_ideal("x1*x2, x2*x3", 3).is_complete_intersection()


# the bitset kernel against the pairwise oracle ------------------------


@st.composite
def ideal_pairs(draw):
    """(I, J, u) in one ring: zero, unit and one-generator ideals included,
    and exponents past 255, where the rows take their bucket path."""
    n = draw(st.integers(min_value=1, max_value=4))
    top = draw(st.sampled_from([1, 3, 300]))
    vector = st.tuples(*[st.integers(0, top)] * n).map(Monomial)
    raw = st.lists(vector, max_size=6)
    return (
        MonomialIdeal(n, draw(raw)),
        MonomialIdeal(n, draw(raw)),
        draw(vector),
    )


@given(ideal_pairs(), st.integers(min_value=0, max_value=3))
@example((MonomialIdeal.zero(2), parse_ideal("x1*x2", 2), Monomial((1, 0))), 2)
@example((MonomialIdeal.whole_ring(2), parse_ideal("x1^300", 2), Monomial((0, 0))), 3)
@example((parse_ideal("x1^256*x2, x2^300", 2), parse_ideal("x1^255", 2), Monomial((1, 299))), 2)
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_the_pairwise_oracle(pair, t):
    I, J, u = pair
    assert I.gens == oracle_gens(I.gens) and J.gens == oracle_gens(J.gens)
    assert (I + J).gens == oracle_gens(I.gens + J.gens)
    assert (I * J).gens == oracle_gens([g * h for g in I.gens for h in J.gens])
    assert I.intersect(J).gens == oracle_gens([g.lcm(h) for g in I.gens for h in J.gens])
    assert I.colon(u).gens == oracle_gens([g.colon(u) for g in I.gens])
    assert I.power(t).gens == oracle_power(I, t)


@given(st.lists(st.lists(st.integers(0, 300), min_size=3, max_size=3), max_size=8))
@settings(max_examples=60, deadline=None)
def test_constructor_matches_the_pairwise_oracle(vectors):
    # duplicates and the unit included; the constructor keeps its caller's
    # monomials
    raw = [Monomial(v) for v in vectors] * 2
    ideal = MonomialIdeal(3, raw)
    assert ideal.gens == oracle_gens(raw)
    assert all(any(g is m for m in raw) for g in ideal.gens)


@st.composite
def wide_vectors(draw):
    """Exponent tuples whose columns reach 3, 255, 256 or 50,000, so that
    columns on the byte path sit beside columns that are ranked first."""
    tops = draw(st.lists(st.sampled_from([3, 255, 256, 50_000]), min_size=1, max_size=4))
    column = st.tuples(*[st.integers(0, top) for top in tops])
    vectors = draw(st.lists(column, max_size=8))
    # equal values in a wide column, which share a rank
    return vectors + draw(st.lists(st.sampled_from(vectors), max_size=3)) if vectors else vectors


@given(wide_vectors())
@example([(50_000, 0), (0, 50_000), (49_999, 1), (1, 49_999), (50_000, 50_000), (256, 256)])
@settings(max_examples=150, deadline=None)
def test_minimal_ranks_wide_columns_as_the_pairwise_oracle(vectors):
    raw = [Monomial(v) for v in vectors]
    assert _minimal(vectors) == [g.exponents for g in oracle_gens(raw)]


def test_minimal_builds_rows_no_longer_than_the_vectors(monkeypatch):
    # a ranked column holds at most one value per vector, so its rows stay
    # on the byte path, however large its exponents
    caps = []
    rows = monomials._below_bitsets

    def recording(vectors, cap=None):
        caps.append(cap)
        return rows(vectors, cap)

    monkeypatch.setattr(monomials, "_below_bitsets", recording)
    vectors = [(50_000, 7, 0), (0, 3, 49_999), (25_000, 200, 1), (1, 0, 50_000), (9, 9, 9), (50_000, 0, 0)]
    assert _minimal(vectors) == [
        (0, 3, 49_999), (1, 0, 50_000), (9, 9, 9), (25_000, 200, 1), (50_000, 0, 0)
    ]
    # five distinct values in each wide column, ranked 0..4
    assert caps == [[4, 200, 4]]
    # columns that fit in a byte keep their exponents
    caps.clear()
    assert _minimal([(255, 1), (3, 2)]) == [(3, 2), (255, 1)]
    assert caps == [[255, 2]]


def test_ladder_and_lemma_1_10_powers_match_the_oracle():
    # the powers of the benchmark's two ladders, and J(n,m)^t at t0 and
    # t0 + 1 as lemma-1.10 builds them for n <= 6
    powers = [
        (path_ideal(7, 3), 3), (cycle_ideal(6, 3), 2), (cycle_ideal(6, 4), 2),
        (cycle_ideal(7, 3), 3), (cycle_ideal(6, 4), 5), (cycle_ideal(6, 5), 5),
        (path_ideal(6, 3), 2), (path_ideal(4, 2), 3), (cycle_ideal(5, 3), 3),
        (cycle_ideal(7, 4), 2), (cycle_ideal(5, 4), 4), (path_ideal(5, 3), 2),
        (path_ideal(5, 2), 3),
    ]
    for n in range(3, 7):
        for m in range(2, n):
            t0 = t0_alpha(n, m).t0
            powers += [(cycle_ideal(n, m), t0), (cycle_ideal(n, m), t0 + 1)]
    for base, t in powers:
        assert base.power(t).gens == oracle_power(base, t), (base, t)


@given(ideals(n_max=4, max_exp=3, allow_trivial=True), st.data())
@settings(max_examples=80, deadline=None)
def test_order_only_maps_equal_the_constructor(I, data):
    # polarize, extend, restrict, scale and the constructors below build no
    # divisibility pass: their generators are already minimal and sorted
    n = I.n_vars
    u = data.draw(monomials_in(n))

    def canonical(J):
        return MonomialIdeal(J.n_vars, J.gens) == J

    if not I.is_zero():
        assert canonical(I.polarize()[0])
    assert canonical(I.extend(data.draw(st.integers(0, 2))))
    if n > 1:
        assert canonical(I.restrict(data.draw(st.integers(1, n - 1))))
    assert canonical(I.scale(u))
    indices = data.draw(st.lists(st.integers(1, n), max_size=5))
    assert canonical(MonomialIdeal.variable_prime(indices, n))
    assert MonomialIdeal.variable_prime(indices, n) == MonomialIdeal(
        n, [Monomial.variable(i, n) for i in indices]
    )
    assert canonical(MonomialIdeal.maximal(n))
    assert MonomialIdeal.principal(u) == MonomialIdeal(n, [u])


def test_ideal_operations_on_zero_and_unit_ideals():
    zero, unit = MonomialIdeal.zero(2), MonomialIdeal.whole_ring(2)
    I = parse_ideal("x1^2, x1*x2", 2)
    assert zero.power(0) == unit and zero.power(3) == zero
    assert unit.power(4) == unit
    assert I * zero == zero and I * unit == I
    assert I + zero == I and I + unit == unit
    assert I.intersect(zero) == zero and I.intersect(unit) == I
    assert I.colon(Monomial((2, 0))) == unit
    assert zero.polarize() == (zero, 0)
    assert reduce(MonomialIdeal.__add__, [MonomialIdeal.principal(g) for g in I.gens]) == I


def test_non_integral_exponents_raise_type_error():
    # they used to be truncated by int(): x1*x2^2, (x1) and a 2-variable ring
    with pytest.raises(TypeError):
        Monomial((1.5, 2))
    with pytest.raises(TypeError):
        MonomialIdeal(2, [Monomial((1.9, 0)), Monomial((1, 1))])
    with pytest.raises(TypeError):
        MonomialIdeal(2.5, [])


def test_kernel_modules_import_alone_in_a_fresh_interpreter():
    # the bitset rows live in the kernel layer; a module imported first
    # must not need one that imports it back
    src = os.path.dirname(os.path.dirname(pathdepth.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for module in ("pathdepth.monomials", "pathdepth.depth", "pathdepth.sdepth"):
        run = subprocess.run(
            [sys.executable, "-c", "import %s" % module], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
