"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(visible on the terminal, bypassing capture) and asserts with exact
integers -- no tolerances anywhere.
"""

import pytest

from pathdepth.claims import (
    check_engine_agreement,
    check_inmt,
    check_inmt2,
    check_lemma_1_2,
    check_lemma_1_4,
    check_lemma_1_5,
    check_lemma_1_6,
    check_lucky,
    check_phi,
    check_t1,
    check_t212,
    check_t3,
    run_example_1,
    run_example_2,
)
from pathdepth.depth import depth_quotient
from pathdepth.families import cycle_ideal, t0_alpha
from pathdepth.monomials import Monomial, MonomialIdeal
from pathdepth.sdepth import build_poset, sdepth_quotient, verify_partition


def announce(capsys, number, name, ok):
    with capsys.disabled():
        print("criterion %d (%s): %s" % (number, name, "PASS" if ok else "FAIL"))


def test_criterion_1_worked_example_cycle_6_3(capsys):
    J2 = cycle_ideal(6, 3).power(2)
    depth = depth_quotient(J2).depth
    result = sdepth_quotient(J2, node_budget=5_000_000)
    cert_ok, _ = verify_partition(build_poset(J2), result.partition)
    replay = run_example_1()
    ok = (
        depth == 3
        and result.sdepth == 3
        and cert_ok
        and replay.verdict == "pass"
    )
    announce(capsys, 1, "depth and sdepth of S/J(6,3)^2 are exactly 3", ok)
    assert depth == 3
    assert result.sdepth == 3
    assert cert_ok
    assert replay.verdict == "pass", replay.reason


def test_criterion_2_worked_example_cycle_6_4(capsys):
    J = cycle_ideal(6, 4)
    J2 = J.power(2)
    depth = depth_quotient(J2).depth
    full = Monomial.from_support(range(1, 7), 6)
    colon = J2.colon(full)
    expected_colon = MonomialIdeal.variable_prime((1, 3, 5), 6).intersect(
        MonomialIdeal.variable_prime((2, 4, 6), 6)
    )
    jprime = J.colon(Monomial.variable(6, 6)).restrict(5)
    expected_jprime = MonomialIdeal(
        5,
        [
            Monomial.from_support(s, 5)
            for s in ((1, 2, 3), (3, 4, 5), (4, 5, 1), (5, 1, 2))
        ],
    )
    replay = run_example_2()
    ok = (
        depth == 1
        and colon == expected_colon
        and jprime == expected_jprime
        and replay.verdict == "pass"
    )
    announce(capsys, 2, "depth of S/J(6,4)^2 is exactly 1 with intermediates", ok)
    assert depth == 1
    assert colon == expected_colon
    assert jprime == expected_jprime
    assert replay.verdict == "pass", replay.reason


def test_criterion_3_path_grid_depth_formula(capsys):
    reports = []
    for n in range(1, 8):
        for m in range(1, n + 1):
            reports.append(check_phi(n, m, 3, with_sdepth=(n <= 5)))
    failed = [r for r in reports if r.verdict != "pass"]
    skipped = [r for r in reports if r.values.get("skipped")]
    cell = next(r for r in reports if r.params == {"n": 5, "m": 3, "t_max": 3})
    record = cell.values.get("discrepancy_5_3_2")
    ok = (
        not failed
        and not skipped
        and record == {"formula": 2, "printed": 3, "oracle_depth": 2}
    )
    announce(
        capsys, 3, "depth = phi on the full grid; sdepth in its bracket for n <= 5", ok
    )
    assert not failed, [r.reason for r in failed]
    assert not skipped, [r.values["skipped"] for r in skipped]
    assert record == {"formula": 2, "printed": 3, "oracle_depth": 2}


def test_criterion_4_near_maximal_cycle_powers(capsys):
    small = [check_t1(4, 3), check_t1(5, 4), check_t1(5, 2)]
    big = check_t1(6, 5)
    values_ok = (
        small[0].values.get("depth_J_n_n-1") == 0
        and small[0].values.get("sdepth_J_n_n-1") == 0
        and small[1].values.get("depth_J_n_n-1") == 0
        and small[1].values.get("sdepth_J_n_n-1") == 0
        and small[2].values.get("depth_J_n_n-2") == 0
        and small[2].values.get("sdepth_J_n_n-2") == 0
        and big.values.get("depth_J_n_n-2") == 1
    )
    # J(6,5)^5 has depth 0, so its sdepth 0 is decided, never skipped
    big_maximal_ok = big.values.get("sdepth_J_n_n-1") == 0 and not any(
        "sdepth J(n,n-1)^t" in entry for entry in big.values.get("skipped", ())
    )
    # sdepth at n = 6 is either an exact value in [1, 3] or an explicit skip
    s = big.values.get("sdepth_J_n_n-2")
    sdepth_ok = (s is not None and 1 <= s <= 3) or any(
        "sdepth J(n,n-2)^t" in entry for entry in big.values.get("skipped", ())
    )
    no_small_skips = not any(r.values.get("skipped") for r in small)
    ok = (
        values_ok
        and big_maximal_ok
        and sdepth_ok
        and no_small_skips
        and all(r.verdict == "pass" for r in small)
        and big.verdict == "pass"
    )
    announce(capsys, 4, "near-maximal cycle powers: depth/sdepth values", ok)
    assert all(r.verdict == "pass" for r in small), [r.reason for r in small]
    assert no_small_skips
    assert big.verdict == "pass", big.reason
    assert values_ok
    assert big_maximal_ok, big.values
    assert sdepth_ok


def test_criterion_5_colon_identities(capsys):
    reports = []
    for n in range(3, 8):
        for m in range(2, n):
            t0 = t0_alpha(n, m).t0
            reports.append(check_lucky(n, m, t0))
            reports.append(check_lucky(n, m, t0 + 1))
    for n in range(3, 9):
        for m in range(2, n):
            for t in (1, 2):
                reports.append(check_inmt2(n, m, t))
    for (n, m) in ((6, 3), (6, 4), (7, 3)):
        for k in (1, 2):
            reports.append(check_inmt(n, m, 2, k))
    failed = [r for r in reports if r.verdict != "pass"]
    announce(capsys, 5, "colon identities hold as exact ideal equalities", not failed)
    assert not failed, [(r.claim_id, r.params, r.reason) for r in failed]


def test_criterion_6_upper_bounds_on_cycle_grid(capsys):
    reports = []
    for n in range(3, 8):
        for m in range(2, n):
            for t in (1, 2, 3):
                reports.append(check_t212(n, m, t))
                if n >= 2 * m + 1:
                    reports.append(check_t3(n, m, t))
    failed = [r for r in reports if r.verdict != "pass"]
    announce(capsys, 6, "depth upper bounds hold on the cycle grid", not failed)
    assert not failed, [(r.claim_id, r.params, r.reason) for r in failed]


def test_criterion_7_property_suites(capsys):
    reports = [
        check_lemma_1_2(seed=0),
        check_engine_agreement(seed=0),
        check_lemma_1_4(seed=0),
        check_lemma_1_5(seed=0),
        check_lemma_1_6(seed=0),
    ]
    failed = [r for r in reports if r.verdict != "pass"]
    observed = [o for r in reports for o in r.observed]
    violations = [(text, d, s) for (text, d, s) in observed if s < d]
    ok = not failed and not violations and observed
    announce(
        capsys, 7, "property suites and the Stanley inequality on all instances",
        bool(ok),
    )
    assert not failed, [(r.claim_id, r.reason) for r in failed]
    assert observed, "no quotient had both invariants computed"
    assert not violations, violations
