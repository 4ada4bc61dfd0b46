"""Monomial and monomial-ideal arithmetic."""

from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdepth.monomials import (
    AmbientMismatchError,
    Monomial,
    MonomialIdeal,
    parse_ideal,
    parse_monomial,
)

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
