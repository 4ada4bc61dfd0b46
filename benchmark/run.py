"""pathdepth benchmark: one command for the four workloads, every answer checked.

    python3 benchmark/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from ./src.
Each measured pass runs in a fresh single-threaded interpreter
(`worker.py`).  With --trace 0, passes repeat until --seconds is used up and
the end-to-end metrics are medians over passes; set-up is sampled at least
SETUP_SAMPLES times.  With --trace 1, one untraced and one traced pass give
the per-layer metrics and the tracing overhead.  A summary goes to stdout,
then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import metric_unit, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("depth-ladder", "sdepth-ladder", "registry", "small-random")
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A pass could not be run or did not report."""


def spawn(config, deadline):
    """Run worker.py on `config` in a fresh interpreter; its report plus timings."""
    env = dict(os.environ)
    env.pop("PATHDEPTH_NODE_BUDGET", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles; nothing is written to src
    argv = [sys.executable, str(BENCH / "worker.py"), json.dumps(config)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass did not finish in time" % config["workload"])
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            "%s worker exited with code %d" % (config["workload"], proc.returncode)
        )
    report = json.loads(lines[-1])
    report["raw_setup_s"] = report["ready"] - start
    report["setup_s"] = (report["raw_setup_s"] - report["setup_spent"]) * report["setup_scale"]
    report["duration_s"] = time.monotonic() - start
    return report


def source_digest(root=None):
    """SHA-256 over the library's sources, so that digests of different code never meet."""
    src = (root or ROOT) / "src" / "pathdepth"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _check_digests(workload, seed, tiny, passes, out_dir):
    """Runs of the same sources at the same seed must print byte-identical
    output; a pass whose digests differ from the first recorded ones fails."""
    store_path = out_dir / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    key = "%s:%d:%s:%s" % (workload, seed, "tiny" if tiny else "full", source_digest())
    for p in passes:
        tally = p["tally"]
        if not tally["digests"]:
            continue
        digest = json.dumps(tally["digests"], sort_keys=True)
        store.setdefault(key, digest)
        if digest != store[key]:
            tally["failures"].append("output digest differs from an earlier run at seed %d" % seed)
            tally["failed"] = tally["attempted"]
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))


def measure(workload, seed, seconds, trace, tiny=False, out_dir=OUT):
    """Run one workload; returns (summary lines, result object)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    base = {"workload": workload, "seed": seed, "draw": 0, "tiny": tiny, "mode": "pass",
            "traced": False, "trace_file": None}
    if trace:
        trace_file = out_dir / ("trace-%s-seed%d.json" % (workload, seed))
        passes = [
            spawn(base, deadline),
            spawn(dict(base, traced=True, trace_file=str(trace_file)), deadline),
        ]
    else:
        passes = []
        begin = time.monotonic()
        while True:
            passes.append(spawn(dict(base, draw=len(passes)), deadline))
            typical = statistics.median(p["duration_s"] for p in passes)
            if time.monotonic() - begin + typical > seconds:
                break
        setups = passes[:]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(dict(base, mode="setup", draw=len(setups)), deadline))
    _check_digests(workload, seed, tiny, passes, out_dir)

    attempted = sum(p["tally"]["attempted"] for p in passes)
    failed = sum(p["tally"]["failed"] for p in passes)
    skipped = sum(p["tally"]["skipped"] for p in passes)
    phases = {}
    for p in passes:
        for phase, n in p["tally"]["phases"].items():
            phases[phase] = phases.get(phase, 0) + n
    ops = len(passes[0]["op_ms"])

    if trace:
        plain, traced = passes
        values = dict(traced["layers"])
        values["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
        values["skip_ratio"] = skipped / attempted
        values["header_skipped"] = traced["tally"]["header_skipped"]
        metrics = {k: {"value": v, "unit": metric_unit(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "op_p50_ms": statistics.median(percentile(p["op_ms"], 50) for p in passes),
            "op_p99_ms": statistics.median(percentile(p["op_ms"], 99) for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    if trace:
        head = "one untraced and one traced pass of %d ops" % ops
    else:
        head = "%d passes of %d ops (metrics are medians over passes); set-up sampled %d times" % (
            len(passes), ops, len(setups))
    lines = ["%s seed=%d trace=%d: %s" % (workload, seed, trace, head)]
    for name, m in metrics.items():
        lines.append("  %-32s %14.6f %s" % (name, m["value"], m["unit"]))
    if not trace:
        lines.append("  uncalibrated: setup_s %.6f s, wall_s %.6f s (medians)" % (
            statistics.median(p["raw_setup_s"] for p in setups),
            statistics.median(p["raw_wall_s"] for p in passes)))
    lines.append("  skip_ratio %.6f fraction: %d of %d skipped (%s)" % (
        skipped / attempted, skipped, attempted,
        ", ".join("%s %d" % kv for kv in sorted(phases.items())) or "no skips"))
    lines.append("  fail_ratio %.6f fraction: %d of %d failed" % (
        failed / attempted, failed, attempted))
    if workload == "registry":
        lines.append("  verify header 'skipped': %d; reports with values.skipped: %d per pass"
                     % (passes[0]["tally"]["header_skipped"],
                        passes[0]["tally"]["skipped"]))
    for p in passes:
        for failure in p["tally"]["failures"][:10]:
            lines.append("  FAILED: " + failure)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pathdepth" / "__init__.py").is_file():
        sys.stderr.write("error: no pathdepth sources under %s\n" % (ROOT / "src"))
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            lines, result = measure(name, args.seed, args.seconds, args.trace)
        except BenchError as e:
            sys.stderr.write("error: %s\n" % e)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
