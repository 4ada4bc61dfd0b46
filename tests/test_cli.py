"""Command-line interface: output formats, determinism, exit codes."""

import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import pathdepth
from pathdepth.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    EXPORT_DIALECTS,
    build_parser,
    export_ideal,
    main,
    parse_exported,
)
from pathdepth.families import cycle_ideal, path_ideal
from pathdepth.monomials import MonomialIdeal, parse_ideal


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_phi_command():
    code, text = run_cli("phi", "5", "4", "2")
    assert code == EXIT_OK
    assert text.strip() == "3"


def test_family_commands_print_generators():
    code, text = run_cli("ipath", "4", "2")
    assert code == EXIT_OK
    assert text.strip() == str(path_ideal(4, 2))
    code, text = run_cli("jcycle", "5", "3", "--power", "2", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(text)
    assert len(rows) == len(cycle_ideal(5, 3).power(2).gens)


def test_t0_command_csv():
    code, text = run_cli("t0", "6", "4", "--format", "csv")
    assert code == EXIT_OK
    assert text.splitlines()[0] == "n,m,d,t0,alpha,r,s"
    assert text.splitlines()[1] == "6,4,2,5,3,3,2"


def test_depth_command_on_family_and_raw_ideal():
    code, text = run_cli(
        "depth", "--family", "jcycle", "--n", "6", "--m", "3", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(text)[0]["depth"] == 3
    code, text = run_cli(
        "depth", "--ideal", "x1*x2, x2*x3", "--nvars", "3", "--format", "json"
    )
    assert json.loads(text)[0]["depth"] == 1


def test_depth_polarization_method_agrees():
    args = ["--ideal", "x1^2, x1*x2", "--nvars", "2", "--format", "json"]
    _, a = run_cli("depth", *args)
    _, b = run_cli("depth", *args, "--method", "polarization")
    assert json.loads(a)[0]["depth"] == json.loads(b)[0]["depth"]


def test_sdepth_command_with_certificate():
    code, text = run_cli(
        "sdepth",
        "--ideal",
        "x1*x2",
        "--nvars",
        "2",
        "--certificate",
        "--format",
        "json",
    )
    assert code == EXIT_OK
    assert '"sdepth": 1' in text
    assert "K[" in text


def test_exit_codes_are_distinguishable():
    # budget exhaustion
    code, _ = run_cli(
        "sdepth", "--family", "ipath", "--n", "5", "--m", "2", "--budget", "2"
    )
    assert code == EXIT_BUDGET
    # usage: unknown claim id
    code, _ = run_cli("verify", "no-such-claim")
    assert code == EXIT_USAGE
    # usage: missing or incomplete ideal specification
    for argv in (("depth",), ("depth", "--family", "jcycle", "--m", "3"),
                 ("depth", "--ideal", "x1")):
        code, _ = run_cli(*argv)
        assert code == EXIT_USAGE, argv
    # usage: a budget that is not a positive integer
    for budget in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            run_cli("sdepth", "--family", "ipath", "--n", "4", "--m", "2",
                    "--budget", budget)
        assert exc.value.code == EXIT_USAGE, budget
    # usage: phi outside 1 <= m <= n
    code, _ = run_cli("phi", "3", "5", "1")
    assert code == EXIT_USAGE
    # usage: verify grid options and job counts that are not positive, and
    # an option verify does not have
    for option, value in (("--n-max", "-1"), ("--t-max", "0"), ("--jobs", "0"),
                          ("--sdepth-n-max", "5")):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "lemma-2.3", option, value)
        assert exc.value.code == EXIT_USAGE, option
    # usage: table grid bounds that are not positive, or that leave no instance
    for argv in (("--n-max", "0"), ("--t-max", "0"), ("--n-max", "-3")):
        with pytest.raises(SystemExit) as exc:
            run_cli("table", "--family", "ipath", *argv)
        assert exc.value.code == EXIT_USAGE, argv
    code, text = run_cli("table", "--family", "ipath", "--n-max", "1")
    assert (code, text) == (EXIT_USAGE, "")
    # usage: caps that are not positive are not budget exhaustion
    for argv in (
        ("depth", "--method", "polarization", "--polarization-cap", "-1"),
        ("depth", "--method", "polarization", "--polarization-cap", "0"),
        ("sdepth", "--poset-cap", "0"),
        ("sdepth", "--poset-cap", "-2"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--family", "ipath", "--n", "3", "--m", "2")
        assert exc.value.code == EXIT_USAGE, argv
    with pytest.raises(SystemExit) as exc:
        run_cli("table", "--family", "ipath", "--n-max", "3", "--sdepth",
                "--poset-cap", "0")
    assert exc.value.code == EXIT_USAGE
    # a positive cap that is too small is still budget exhaustion
    code, _ = run_cli("depth", "--method", "polarization", "--polarization-cap",
                      "2", "--family", "ipath", "--n", "3", "--m", "2")
    assert code == EXIT_BUDGET
    # valid options whose grid is empty: the claim is reported as skipped
    code, text = run_cli("verify", "theorem-2.5", "--n-max", "4")
    assert code == EXIT_OK
    run = json.loads(text)
    assert run["run"]["skipped"] == 1
    (report, _) = run["reports"]
    assert report["claim_id"] == "theorem-2.5"
    assert report["verdict"] == "skipped"
    assert "n_max=4" in report["reason"]
    assert EXIT_OK != EXIT_FAIL != EXIT_BUDGET != EXIT_USAGE


def test_unknown_claim_message_is_printed_without_quotes(capsys):
    # run_claims raises KeyError, whose str() would be the quoted repr;
    # --all rejects an unknown id beside it too, and `all` is no claim id
    for argv, unknown in ((["verify", "no-such-claim"], "no-such-claim"),
                          (["verify", "--all", "nonsense"], "nonsense"),
                          (["verify", "all"], "all")):
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown claim ids: %s\n" % unknown


@pytest.mark.parametrize(
    "argv",
    [
        ("depth", "--method", "polarization", "--polarization-cap", "2"),
        # the box of I(4,2) has 16 points
        ("sdepth", "--poset-cap", "3"),
        ("sdepth", "--budget", "2"),
    ],
)
def test_cap_or_budget_error_exits_3_with_one_budget_line(argv, capsys):
    assert main([*argv, "--family", "ipath", "--n", "4", "--m", "2"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("budget: ")
    assert captured.err == line + "\n"


def test_json_and_csv_output_is_deterministic():
    argv = ("table", "--family", "ipath", "--n-max", "4", "--format", "csv")
    _, first = run_cli(*argv)
    _, second = run_cli(*argv)
    assert first == second
    argv = ("verify", "lemma-2.3", "--n-max", "4", "--format", "json")
    _, first = run_cli(*argv)
    _, second = run_cli(*argv)
    assert first == second


def test_table_contains_phi_column_matching_depth():
    code, text = run_cli(
        "table", "--family", "ipath", "--n-max", "4", "--t-max", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    for row in json.loads(text):
        assert row["depth"] == row["phi"]


def test_verify_reports_seed_and_passes():
    code, text = run_cli("verify", "lemma-1.2", "--seed", "11", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(text)
    assert data["run"]["seed"] == 11
    assert data["run"]["failed"] == 0
    code, text = run_cli("verify", "lemma-2.3", "--n-max", "4", "--format", "md")
    assert code == EXIT_OK
    assert text.startswith("seed=0 node_budget=")


def test_verify_header_counts_reports_that_passed_with_skips():
    # a tiny budget skips the worked examples' Stanley depths, not their reports
    argv = ("verify", "example-3.4", "example-3.5", "--budget", "10")
    code, text = run_cli(*argv, "--format", "json")
    assert code == EXIT_OK
    data = json.loads(text)
    partly = [
        r for r in data["reports"]
        if r["verdict"] != "skipped" and r["values"].get("skipped")
    ]
    assert len(partly) >= 2
    assert data["run"]["skipped"] == 0
    assert data["run"]["partly_skipped"] == len(partly)
    counts = "reports=%d failed=0 skipped=0 partly_skipped=%d\n" % (
        len(data["reports"]), len(partly))
    for fmt in ("csv", "md"):
        code, text = run_cli(*argv, "--format", fmt)
        assert code == EXIT_OK
        assert text.startswith("seed=0 node_budget=10 " + counts), fmt
    _, text = run_cli("verify", "lemma-2.3", "--n-max", "4")
    assert json.loads(text)["run"]["partly_skipped"] == 0


def test_export_round_trip_both_dialects():
    for ideal in (
        parse_ideal("x1^2*x2, x3", 3),
        cycle_ideal(5, 3),
        path_ideal(4, 2).power(2),
    ):
        for dialect in ("cocoa", "macaulay2"):
            script = export_ideal(ideal, dialect)
            assert parse_exported(script) == ideal


@pytest.mark.parametrize("dialect", EXPORT_DIALECTS)
@pytest.mark.parametrize(
    "argv, ideal, bodies",
    [
        (("--ideal", "0", "--nvars", "3"), MonomialIdeal.zero(3), ("0", "0")),
        # a zeroth power is the whole ring
        (("--ideal", "x1*x2", "--nvars", "2", "--power", "0"),
         MonomialIdeal.whole_ring(2), ("1", "1")),
        # two-digit indices and exponents: x1 must not be read inside x12
        (("--ideal", "x12^10*x3, x1*x2", "--nvars", "12"),
         parse_ideal("x3*x12^10, x1*x2", 12),
         ("x[3]*x[12]^10, x[1]*x[2]", "x_3*x_12^10, x_1*x_2")),
    ],
)
def test_export_round_trip_edge_cases(argv, ideal, bodies, dialect):
    code, text = run_cli("export", *argv, "--dialect", dialect)
    assert code == EXIT_OK
    assert "ideal(%s);" % dict(zip(EXPORT_DIALECTS, bodies))[dialect] in text
    assert parse_exported(text) == ideal


def test_export_command_output():
    code, text = run_cli(
        "export", "--family", "jcycle", "--n", "4", "--m", "2",
        "--dialect", "macaulay2",
    )
    assert code == EXIT_OK
    assert text.startswith("S = QQ[x_1..x_4];")
    assert parse_exported(text) == cycle_ideal(4, 2)
    code, text = run_cli(
        "export", "--ideal", "x1^2", "--nvars", "2", "--dialect", "cocoa"
    )
    assert code == EXIT_OK
    assert "x[1]^2" in text


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "lemma-1.7", "lemma-2.3", "--n-max", "5", "--t-max", "2",
         "--format", "json"),
        ("sdepth", "--family", "jcycle", "--n", "6", "--m", "3", "--power", "2",
         "--certificate"),
        # decided by the colon-Hilbert bound and the symmetry finder
        ("sdepth", "--family", "jcycle", "--n", "6", "--m", "4", "--power", "2",
         "--certificate"),
        # decided by the most-constrained search
        ("sdepth", "--family", "ipath", "--n", "5", "--m", "2", "--power", "3",
         "--certificate"),
        # an exponent above 255: the bitset rows of x1 cannot be read off bytes
        ("sdepth", "--ideal", "x1^300*x2, x2^2", "--nvars", "2", "--certificate"),
    ],
)
def test_output_is_unchanged_under_python_optimize(argv):
    # python -O drops assert statements: no invariant and no answer may rest on one
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(pathlib.Path(pathdepth.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "pathdepth.cli", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    code, text = run_cli(*argv)
    assert code == EXIT_OK
    assert optimized.stdout == text


@pytest.mark.parametrize(
    "argv",
    [
        # fails while writing: the certificate overflows the stdout buffer
        ("sdepth", "--ideal", "x1^300*x2, x2^2", "--nvars", "2", "--certificate"),
        # fails when the buffered line is flushed
        ("phi", "5", "4", "2"),
    ],
)
def test_stdout_closed_by_its_reader_ends_quietly(argv):
    # `pathdepth sdepth ... | head -5`: the reader goes away before the
    # output is written, and the command ends with no traceback
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(pathlib.Path(pathdepth.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pathdepth.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    try:
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.stderr.close()
    assert stderr == b""
    assert code == EXIT_FAIL


def test_pinned_output_table_is_well_formed():
    # each line of the table that `python .github/pins.py` checks: a unique
    # output name, an exit code, a SHA-256 and arguments the parser takes;
    # nothing is run
    runner = pathlib.Path(__file__).resolve().parents[1] / ".github" / "pins.py"
    spec = importlib.util.spec_from_file_location("pins", runner)
    pins = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pins)
    table = list(pins.pins())
    names = [name for name, _, _, _ in table]
    assert len(set(names)) == len(names) > 0
    for name, code, digest, args in table:
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET), name
        assert re.fullmatch("[0-9a-f]{64}", digest), name
        build_parser().parse_args(args)
