"""Path/cycle ideal constructors and their numeric companions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdepth.families import (
    NoWitnessParameters,
    cycle_ideal,
    path_ideal,
    phi,
    t0_alpha,
    u_ideal,
    witness_l1,
    witness_w,
)
from pathdepth.monomials import MonomialIdeal, parse_ideal


def test_path_ideal_examples():
    assert path_ideal(4, 2) == parse_ideal("x1*x2, x2*x3, x3*x4", 4)
    assert path_ideal(3, 3) == parse_ideal("x1*x2*x3", 3)
    assert path_ideal(3, 1) == parse_ideal("x1, x2, x3", 3)
    assert len(path_ideal(7, 3).gens) == 5


def test_cycle_ideal_examples():
    assert cycle_ideal(4, 2) == parse_ideal("x1*x2, x2*x3, x3*x4, x4*x1", 4)
    assert len(cycle_ideal(6, 3).gens) == 6
    assert cycle_ideal(6, 3) == parse_ideal(
        "x1*x2*x3, x2*x3*x4, x3*x4*x5, x4*x5*x6, x5*x6*x1, x6*x1*x2", 6
    )


def test_family_argument_validation():
    with pytest.raises(ValueError):
        path_ideal(3, 4)
    with pytest.raises(ValueError):
        cycle_ideal(4, 4)
    with pytest.raises(ValueError):
        cycle_ideal(4, 1)


def test_phi_closed_form_values():
    assert phi(5, 4, 2) == 3
    assert phi(5, 3, 1) == 3
    assert phi(5, 3, 2) == 2
    assert phi(6, 3, 1) == 4
    # stable regime: t > n + 1 - m
    assert phi(5, 3, 4) == 2
    assert phi(4, 2, 100) == 1
    # outside the domain: I(3,5) has no generator and S/I(3,5) is all of S
    with pytest.raises(ValueError):
        phi(3, 5, 1)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=11),
)
@settings(max_examples=200, deadline=None)
def test_phi_is_nonincreasing_in_t(n, m, t):
    if m > n:
        m = n
    assert phi(n, m, t) >= phi(n, m, t + 1)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
@settings(max_examples=100, deadline=None)
def test_phi_stabilizes_at_m_minus_1(n, m):
    if m > n:
        m = n
    assert phi(n, m, n + 2 - m) == m - 1


def test_t0_alpha_satisfies_defining_equation():
    for n in range(3, 8):
        for m in range(2, n):
            data = t0_alpha(n, m)
            assert data.d == math.gcd(n, m)
            assert m * data.t0 == data.alpha * n + data.d
            assert data.alpha >= 1
            assert 1 <= data.t0 <= n - 1
            # maximality: no larger t0 works
            for t0 in range(data.t0 + 1, n):
                num = m * t0 - data.d
                assert not (num > 0 and num % n == 0)


def test_t0_example_from_cycle_6_4():
    data = t0_alpha(6, 4)
    assert (data.d, data.t0, data.alpha) == (2, 5, 3)


def test_witness_w_degree_and_membership():
    n, m = 6, 3
    data = t0_alpha(n, m)
    w = witness_w(n, m, data.t0)
    assert w.degree() == n * data.alpha
    with pytest.raises(ValueError):
        witness_w(n, m, data.t0 - 1)


def test_witness_l1_shape():
    w = witness_l1(4, 3)
    assert w.exponents == (2, 2, 2, 2)
    assert w.degree() == (4 - 1) * 3 - 1
    with pytest.raises(ValueError):
        witness_l1(4, 2)


def test_u_ideal_is_intersection_of_residue_primes():
    U = u_ideal(4, 2)
    odd = MonomialIdeal.variable_prime((1, 3), 4)
    even = MonomialIdeal.variable_prime((2, 4), 4)
    assert U == odd.intersect(even)
    with pytest.raises(ValueError):
        u_ideal(5, 2)


def test_t0_alpha_rejects_bad_parameters():
    with pytest.raises(ValueError):
        t0_alpha(4, 4)
    with pytest.raises(ValueError):
        t0_alpha(4, 1)
    assert issubclass(NoWitnessParameters, ValueError)
