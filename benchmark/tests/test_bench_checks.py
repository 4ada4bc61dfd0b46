"""Answer checks: a skip counts only where the instance list allows it."""

import pathdepth as pd

import workloads


def ops_by_label(ops):
    return {op.label: op for op in ops}


def test_a_skip_on_a_decided_instance_fails():
    ladder = ops_by_label(workloads.sdepth_ladder(0, tiny=True))
    tally = ladder["J(6,3)^2"].check(pd.SearchBudgetError("exceeded 500000 search nodes"))
    assert (tally.failed, tally.skipped) == (1, 0)
    tally = ladder["I(4,2)^3"].check(pd.PosetCapError("poset too large"))
    assert (tally.failed, tally.skipped) == (1, 0)
    depth = ops_by_label(workloads.depth_ladder(0, tiny=True))
    tally = depth["J(6,4)^2"].check(pd.SearchBudgetError("exceeded 500000 search nodes"))
    assert (tally.failed, tally.skipped) == (1, 0)


def test_a_listed_skip_must_run_out_in_its_listed_phase():
    op = ops_by_label(workloads.sdepth_ladder(0, tiny=True))["I(5,3)^2"]
    tally = op.check(pd.SearchBudgetError("exceeded 500000 search nodes"))
    assert (tally.failed, tally.skipped, tally.phases) == (0, 1, {"search": 1})
    tally = op.check(pd.SearchBudgetError("exceeded 500000 nodes building interval candidates"))
    assert (tally.failed, tally.skipped) == (1, 0)
    tally = op.check(pd.SearchBudgetError("budget gone in some new phase"))
    assert (tally.failed, tally.skipped) == (1, 0)


def test_a_listed_skip_that_is_decided_passes_on_its_certificate(monkeypatch):
    # as if a later engine decided J(6,3)^2, listed here as a search skip
    monkeypatch.setattr(workloads, "SDEPTH_LADDER_TINY", (("J", 6, 3, 2, "search"),))
    (op,) = workloads.sdepth_ladder(0, tiny=True)
    tally = op.check(op.call())
    assert (tally.attempted, tally.failed, tally.skipped) == (1, 0, 0)


def test_an_unexpected_exception_fails_everywhere():
    for ops in (workloads.depth_ladder(0, tiny=True), workloads.sdepth_ladder(0, tiny=True),
                workloads.small_random(0, tiny=True)):
        tally = ops[0].check(ValueError("boom"))
        assert (tally.failed, tally.skipped) == (1, 0)
