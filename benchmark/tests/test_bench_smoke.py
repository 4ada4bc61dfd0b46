"""Tiny-size runs of every workload through the real pass processes."""

import json
import shutil

import pytest

import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads_and_units_the_runner_uses():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    for m in SPEC["per_layer"]:
        assert m["unit"] == spans.metric_unit(m["name"])
    assert SPEC["command"][:2] == ["python3", "benchmark/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    lines, result = run.measure(workload, seed=1, seconds=1, trace=0, tiny=True, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for name in names:
        assert result["metrics"][name]["value"] > 0
    assert any(line.strip().startswith("fail_ratio 0.000000") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    lines, result = run.measure(workload, seed=1, seconds=1, trace=1, tiny=True, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0, lines
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    trace = json.loads((tmp_path / ("trace-%s-seed1.json" % workload)).read_text())
    assert trace["spans"] and {"name", "start", "end", "parent"} <= set(trace["spans"][0])


def test_registry_digests_are_compared_only_between_runs_of_the_same_sources(
    tmp_path, monkeypatch
):
    root = tmp_path / "checkout"
    shutil.copytree(run.ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(run, "ROOT", root)
    out = tmp_path / "out"
    run.measure("registry", seed=2, seconds=1, trace=0, tiny=True, out_dir=out)
    # stand-in for output that a change to the sources legitimately moved
    store = out / "digests.json"
    store.write_text(json.dumps({key: "0" * 64 for key in json.loads(store.read_text())}))

    lines, result = run.measure("registry", seed=2, seconds=1, trace=0, tiny=True, out_dir=out)
    assert not result["correct"]  # same sources, different output
    assert result["failed"] == result["attempted"]

    with open(root / "src" / "pathdepth" / "cli.py", "a") as f:
        f.write("\n# changed\n")
    lines, result = run.measure("registry", seed=2, seconds=1, trace=0, tiny=True, out_dir=out)
    assert result["correct"] and result["failed"] == 0, lines


def test_source_digest_follows_every_library_file(tmp_path):
    package = tmp_path / "src" / "pathdepth"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("x = 1\n")
    before = run.source_digest(tmp_path)
    (package / "cli.py").write_text("x = 2\n")
    assert run.source_digest(tmp_path) != before


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "depth-ladder", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
