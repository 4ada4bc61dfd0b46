"""Claim registry: reports, exact-sequence bounds, and spot checks."""

import io
import json

import pytest

from pathdepth import claims
from pathdepth.claims import (
    ClaimReport,
    SesTriple,
    check_inmt,
    check_inmt2,
    check_l1,
    check_lemma_1_2,
    check_lucky,
    check_phi,
    check_t1,
    check_t3,
    check_t212,
    check_teo_iran,
    run_claims,
    ses_depth_bounds,
)
from pathdepth.cli import EXIT_OK, main
from pathdepth.families import cycle_ideal, path_ideal
from pathdepth.monomials import MonomialIdeal, parse_ideal
from pathdepth.sdepth import DEFAULT_BUDGET, PosetInterval, SdepthResult, StanleyPartition


def test_ses_depth_bounds_fills_missing_slots():
    t = ses_depth_bounds(SesTriple(depth_u=3, depth_n=2))
    assert t.bounds["depth_m"] == 2
    assert t.rules["depth_m"] == "depth-lemma-1"
    t = ses_depth_bounds(SesTriple(depth_m=2, depth_n=1))
    assert t.bounds["depth_u"] == 2
    t = ses_depth_bounds(SesTriple(depth_u=3, depth_m=2))
    assert t.bounds["depth_n"] == 2
    assert t.rules["depth_n"] == "depth-lemma-3"


def test_ses_depth_bounds_never_overwrites_known_values():
    t = ses_depth_bounds(SesTriple(depth_u=3, depth_m=2, depth_n=5))
    assert t.bounds == {}
    assert t.depth_n == 5


def test_ses_sdepth_rule():
    t = ses_depth_bounds(SesTriple(depth_u=1, depth_n=1, sdepth_u=2, sdepth_n=3))
    assert t.bounds["sdepth_m"] == 2
    assert t.rules["sdepth_m"] == "rauf"


def test_ses_requires_two_known_depths():
    with pytest.raises(ValueError):
        ses_depth_bounds(SesTriple(depth_u=1))


def test_partition_depth_claim_passes():
    report = check_lemma_1_2(seed=7)
    assert report.verdict == "pass"
    assert report.values["instances"] > 15


def test_phi_claim_shape_and_discrepancy_record():
    report = check_phi(5, 3, 2, with_sdepth=True)
    assert report.verdict == "pass"
    assert report.values["discrepancy_5_3_2"] == {
        "formula": 2,
        "printed": 3,
        "oracle_depth": 2,
    }
    assert report.values["sdepth_bracket_t2"] == [2, 3]
    # both decided bracket quotients reach the Stanley-inequality report
    I = path_ideal(5, 3)
    assert report.observed == [(str(I), 3, 3), (str(I.power(2)), 2, 2)]


def test_phi_bracket_needs_a_certificate_of_its_sdepth(monkeypatch):
    # the engine's sdepth and poset with the singleton partition: a valid
    # partition of min label 0 certifies no bracket, so the check raises
    engine = claims.sdepth_quotient

    def singletons(ideal, node_budget):
        result = engine(ideal, node_budget=node_budget)
        points = [PosetInterval(a, a) for a in result.poset.points]
        return SdepthResult(result.sdepth, result.poset, StanleyPartition(tuple(points)))

    monkeypatch.setattr(claims, "sdepth_quotient", singletons)
    claims._sdepth.cache_clear()
    try:
        with pytest.raises(AssertionError, match="certificate of min label 0"):
            check_phi(4, 2, 2, with_sdepth=True)
    finally:
        claims._sdepth.cache_clear()


def test_colon_witness_claim():
    assert check_lucky(6, 3, 5).verdict == "pass"
    assert check_lucky(5, 2, 3).verdict == "pass"
    with pytest.raises(ValueError):
        check_lucky(6, 3, 1)


def test_tail_colon_identity_claim():
    assert check_inmt2(5, 2, 1).verdict == "pass"
    assert check_inmt2(7, 3, 2).params["branch"] == "n >= 2m+1"


def test_reduction_identities_claim():
    for (n, m, t, k), (s_big, s_small) in (((6, 3, 2, 1), (3, 2)), ((7, 3, 2, 1), (4, 3))):
        report = check_inmt(n, m, t, k)
        assert report.verdict == "pass"
        assert (report.values["sdepth_J"], report.values["sdepth_Jprime"]) == (s_big, s_small)
    with pytest.raises(ValueError):
        check_inmt(6, 3, 2, 3)


def test_reduction_identities_keep_a_decided_sdepth_beside_a_skip():
    # at this budget sdepth(S/J(6,3)^2) runs out building candidates while
    # sdepth(S'/J'^2) = 2 is decided: the report keeps the decided value and
    # skips only the +1 inequality that needs both
    report = check_inmt(6, 3, 2, 1, node_budget=30_000)
    assert report.verdict == "pass"
    assert report.values["sdepth_Jprime"] == 2
    assert "sdepth_J" not in report.values
    (skip,) = report.values["skipped"]
    assert skip.startswith("sdepth(S/J^t) ("), skip


def test_upper_bound_claims():
    assert check_t212(6, 3, 2).verdict == "pass"
    assert check_t3(7, 3, 1).verdict == "pass"
    with pytest.raises(ValueError):
        check_t3(5, 3, 1)


def test_near_maximal_path_claims():
    assert check_l1(4, 3).verdict == "pass"
    assert check_t1(4, 3).verdict == "pass"


def test_disjoint_sum_depth_claim():
    I = parse_ideal("x1*x2", 2)
    L = MonomialIdeal.variable_prime((1, 2), 2)
    assert check_teo_iran(I, L, 2).verdict == "pass"
    with pytest.raises(ValueError):
        check_teo_iran(I, parse_ideal("x1*x2, x2*x3", 3), 1)


def test_run_claims_rejects_unknown_ids():
    with pytest.raises(KeyError):
        run_claims(["no-such-claim"])


def test_run_claims_rejects_unknown_config_keys():
    # a misspelt setting raises instead of running the default grid
    with pytest.raises(ValueError, match="nmax"):
        run_claims(["lemma-2.3"], config={"nmax": 3, "t_max": 1})
    with pytest.raises(ValueError, match="budget, nmax"):
        run_claims(["lemma-2.3"], config={"nmax": 3, "budget": 10})


def test_run_claims_appends_stanley_report():
    reports = run_claims(["lemma-2.3"], config={"n_max": 4, "t_max": 1})
    assert reports[-1].claim_id == "stanley-inequality"
    assert reports[-1].verdict == "pass"
    assert all(isinstance(r, ClaimReport) for r in reports)


def test_library_and_cli_default_grids_agree():
    # one definition of the registry defaults: a library run with no config
    # checks the grid `pathdepth verify` checks with no options
    out = io.StringIO()
    assert main(["verify", "lemma-2.3", "--format", "json"], out=out) == EXIT_OK
    from_cli = json.loads(out.getvalue())["reports"]
    from_library = json.loads(json.dumps([r.as_dict() for r in run_claims(["lemma-2.3"])]))
    assert len(from_library) == len(from_cli)
    assert from_library == from_cli


def test_run_claims_parallel_matches_serial():
    config = {"n_max": 4, "t_max": 1, "seed": 0}
    serial = run_claims(["lemma-2.3", "theorem-1.11"], config=config, jobs=1)
    parallel = run_claims(["lemma-2.3", "theorem-1.11"], config=config, jobs=4)
    assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]


def test_reports_serialize():
    report = check_inmt2(4, 2, 1)
    d = report.as_dict()
    assert d["claim_id"] == "lemma-2.3"
    assert d["verdict"] == "pass"
    assert set(d) == {"claim_id", "params", "values", "relation", "verdict", "reason"}


def test_registry_covers_expected_claims():
    expected = {
        "lemma-1.2",
        "lemma-1.4",
        "lemma-1.5",
        "lemma-1.6",
        "lemma-1.7",
        "lemma-1.10",
        "lemma-2.1",
        "lemma-2.3",
        "lemma-2.4",
        "lemma-3.1",
        "theorem-1.8",
        "theorem-1.9",
        "theorem-1.11",
        "theorem-2.2",
        "theorem-2.5",
        "prop-3.2",
        "prop-3.3",
        "example-3.4",
        "example-3.5",
        "engine-agreement",
    }
    assert expected == set(claims.CLAIM_IDS)


def test_verify_budget_reaches_lemma_2_4():
    reports = run_claims(["lemma-2.4"], config={"node_budget": 1000})
    (report,) = [r for r in reports if r.params == {"n": 7, "m": 2, "t": 3}]
    assert report.values["skipped"]
    assert "2000000" not in report.reason


def test_verify_budget_reaches_lemma_3_1():
    out = io.StringIO()
    assert main(["verify", "lemma-3.1", "--budget", "1000"], out=out) == EXIT_OK
    document = json.loads(out.getvalue())
    assert document["run"]["failed"] == 0
    lemma = [r for r in document["reports"] if r["claim_id"] == "lemma-3.1"]
    assert len(lemma) == 6
    for report in lemma:
        assert report["verdict"] == "pass"
        assert report["values"]["skipped"]
        assert "1000" in report["reason"] and "2000000" not in report["reason"]


def test_small_budget_skips_theorem_2_2_without_failing():
    reports = [check_t1(n, t, node_budget=1000) for (n, t) in ((4, 3), (5, 4), (5, 2))]
    assert all(r.verdict == "pass" for r in reports), [r.reason for r in reports]
    assert any(r.values.get("skipped") for r in reports)


def test_verify_budget_reaches_theorem_2_2(monkeypatch):
    seen = []

    def fake_check_t1(n, t, node_budget):
        seen.append(node_budget)
        return ClaimReport("theorem-2.2", {"n": n, "t": t}, {}, "", "pass")

    monkeypatch.setattr(claims, "check_t1", fake_check_t1)
    run_claims(["theorem-2.2"], config={"node_budget": 1000})
    assert seen == [1000] * 4


def test_worked_examples_skip_within_tiny_budget(monkeypatch):
    ran = []
    record = claims._Checks.expect
    monkeypatch.setattr(
        claims._Checks,
        "expect",
        lambda self, name, ok: ran.append(name) or record(self, name, ok),
    )
    reports = run_claims(["example-3.4", "example-3.5"], config={"node_budget": 10})
    examples = [r for r in reports if r.claim_id.startswith("example-")]
    assert [r.verdict for r in examples] == ["pass", "pass"], [r.reason for r in examples]
    assert all(r.values["skipped"] for r in examples)
    # the replayed sdepth bound needs both outer sdepths, and one is skipped
    assert "depth(S'/W) >= 2 (replayed)" in ran
    assert "sdepth(S'/W) >= 2 (replayed)" not in ran
    assert main(["verify", "example-3.4", "--budget", "10"], out=io.StringIO()) == EXIT_OK


def test_stanley_inequality_report_counts_every_observation():
    reports = run_claims(["lemma-1.7"], config={"node_budget": 1000})
    (lemma, stanley) = reports
    assert lemma.observed
    assert stanley.values["quotients_checked"] == len(lemma.observed)
    assert "observed" not in lemma.as_dict()


def test_sdepth_skip_runs_the_engine_once(monkeypatch):
    calls = []
    search = claims.sdepth_quotient

    def counted(ideal, node_budget):
        calls.append(node_budget)
        return search(ideal, node_budget=node_budget)

    monkeypatch.setattr(claims, "sdepth_quotient", counted)
    checks = claims._Checks(777)
    J2 = cycle_ideal(6, 4).power(2)
    assert checks.sdepth("J(6,4)^2", J2) is None
    assert checks.sdepth("J(6,4)^2", J2) is None
    assert calls == [777]
    assert len(checks.skipped) == 2
    assert checks.skipped[0] == checks.skipped[1]


def test_sdepth_value_must_be_its_certificates_min_label(monkeypatch):
    # a valid partition of min label 1 does not certify sdepth 2; the check
    # raises, so it also runs under python -O
    engine = claims.sdepth_quotient

    def overclaimed(ideal, node_budget):
        result = engine(ideal, node_budget=node_budget)
        return SdepthResult(result.sdepth + 1, result.poset, result.partition)

    monkeypatch.setattr(claims, "sdepth_quotient", overclaimed)
    with pytest.raises(AssertionError, match="sdepth 2 with a certificate of min label 1"):
        claims._sdepth.__wrapped__(parse_ideal("x1*x2, x2*x3", 3), DEFAULT_BUDGET)


def test_sdepth_memo_is_keyed_by_budget():
    J2 = cycle_ideal(6, 3).power(2)
    decided = claims._Checks()
    assert decided.sdepth("J(6,3)^2", J2) == 3
    tiny = claims._Checks(10)
    assert tiny.sdepth("J(6,3)^2", J2) is None
    assert tiny.skipped and not tiny.observed


def test_lemma_2_4_colon_sdepth_is_decided_at_the_hilbert_bound():
    # sweep bound 3, Hilbert bound 2: k = 3 is never searched, and k = 2
    # finds a verified partition within the default budget
    report = claims.check_intermed(7, 2, 3)
    assert report.verdict == "pass"
    assert report.values["sdepth"] == 2
    assert "skipped" not in report.values
