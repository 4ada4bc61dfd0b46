"""Span arithmetic on synthetic spans: percentiles, self time, per-layer metrics."""

import pytest

from spans import Tracer, budget_phase, layer_metrics, percentile, self_times


def span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_percentile_interpolates_between_closest_ranks():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 99) == pytest.approx(99.01)
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 100.0
    assert percentile([7.0], 99) == 7.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_children_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: 1..6 covered, not 6
        span("c", 8.0, 12.0, parent=0),  # clipped to the parent's end
        span("leaf", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 3.0, 4.0, 1.0])


def test_layer_metrics_from_a_synthetic_registry_pass():
    spans = [
        span("cli.main", 0.0, 20.0),
        span("claims.run", 1.0, 19.0, parent=0),
        span("claims.claim:lemma-1.2", 2.0, 10.0, parent=1),
        span("depth.quotient", 3.0, 6.0, parent=2),
        span("depth.betti", 3.5, 5.5, parent=3),
        span("depth.lattice", 3.5, 4.0, parent=4, size=7),
        span("depth.homology", 4.0, 5.0, parent=4),
        span("sdepth.quotient", 6.0, 9.0, parent=2, key="I"),
        span("sdepth.partition", 6.5, 8.5, parent=7, outcome="decided", key="p"),
        span("claims.claim:prop-3.3", 10.0, 18.0, parent=1),
        span("sdepth.quotient", 11.0, 13.0, parent=9, key="I"),
        span("sdepth.partition", 11.0, 13.0, parent=10, outcome="skip:search", key="p"),
        span("sdepth.partition", 13.0, 14.0, parent=9, outcome="skip:other", key="q"),
        span("monomials.power", 14.0, 15.0, parent=9),
        span("depth.polarization", 15.0, 17.0, parent=9),
    ]
    m = layer_metrics(spans, claim_ids=("lemma-1.2", "prop-3.3", "lemma-1.4"))
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["claims.claim_s.lemma-1.2"] == pytest.approx(8.0 - 3.0 - 3.0)
    assert m["claims.claim_s.prop-3.3"] == pytest.approx(8.0 - 2.0 - 1.0 - 1.0 - 2.0)
    assert m["claims.claim_s.lemma-1.4"] == 0.0
    assert m["depth.betti_self_s"] == pytest.approx(0.5)
    assert m["depth.lattice_s"] == pytest.approx(0.5)
    assert m["depth.lattice_size"] == 7
    assert m["depth.homology_calls"] == 1
    assert m["depth.polarization_s"] == pytest.approx(2.0)
    assert m["monomials.power_calls"] == 1
    assert m["sdepth.partition_calls"] == 3
    assert m["sdepth.decided_ratio"] == pytest.approx(1 / 3)
    assert (m["sdepth.skip_search"], m["sdepth.skip_other"]) == (1, 1)
    assert (m["sdepth.skip_precheck"], m["sdepth.skip_candidates"]) == (0, 0)
    # engine calls are the ones a claim makes directly
    assert m["claims.depth_engine_calls"] == 2
    assert m["claims.sdepth_engine_calls"] == 3
    assert m["claims.sdepth_repeat_ratio"] == pytest.approx(1 / 3)


def test_budget_phase_reads_the_message_and_never_raises():
    assert budget_phase("exceeded 5000000 comparisons in the admissible-top pre-check") == "precheck"
    assert budget_phase("exceeded 500000 nodes building interval candidates") == "candidates"
    assert budget_phase("exceeded 500000 search nodes") == "search"
    assert budget_phase("budget gone in some new phase") == "other"


def test_tracer_records_nesting_folds_monomials_and_keeps_exceptions():
    tracer = Tracer()
    calls = []

    def inner(x):
        calls.append(x)
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return traced_mul(x) + traced_inner(x)

    traced_inner = tracer.wrap("depth.homology", inner, lambda args, out: {"x": args["x"]})
    traced_mul = tracer.wrap("monomials.arith", lambda x: x)
    traced_power = tracer.wrap("monomials.power", lambda x: traced_mul(x))
    traced_outer = tracer.wrap("depth.betti", outer)

    assert traced_outer(2) == 4  # inactive: nothing recorded
    assert tracer.spans == []
    tracer.active = True
    traced_outer(3)
    traced_power(5)
    with pytest.raises(ValueError):
        traced_inner(-1)
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [
        ("depth.betti", None),
        ("monomials.arith", 0),
        ("depth.homology", 0),
        ("monomials.power", None),  # its multiplication is folded into it
        ("depth.homology", None),
    ]
    assert tracer.spans[2]["attrs"] == {"x": 3}
    assert tracer.spans[4]["attrs"] == {"x": -1}
    assert all(s["end"] >= s["start"] for s in tracer.spans)
    assert calls == [2, 3, -1]
