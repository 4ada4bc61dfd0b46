"""One pass of one workload, in a fresh interpreter.

Usage: worker.py CONFIG_JSON, where the config holds workload, seed, draw,
mode ("pass" or "setup"), traced, tiny and trace_file.  The last stdout line is a
JSON object with the pass's measurements.  `claims` keeps its engine caches
in module globals, so every pass starts cold in a process of its own.
"""

import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

from spans import Tracer, install, layer_metrics, metric_unit

# The host's speed is not steady: it drops by up to 1.8x for spells of a
# fraction of a second to a few seconds, and drifts over minutes.  So times
# are calibrated against reference(), a fixed computation that does not call
# pathdepth.  A SpeedProbe runs it every PERIOD_S all through the pass, inside
# the library calls too, and each timed call is scaled by the mean speed the
# probe saw during it (and WINDOW_S either side).  Values read as seconds on a
# host where one reference() call takes REFERENCE_S.  Uncalibrated times are
# printed on the summary lines.
REFERENCE_S = 0.002  # one reference() call on a 2-CPU x86-64 VM, Python 3.11
PERIOD_S = 0.1
BURST_S = 0.002
WINDOW_S = 0.1
SETUP_PROBE_S = 0.1

_REFERENCE_GENS = (
    (0, 2, 0, 1, 0, 1), (1, 1, 2, 1, 0, 0), (1, 0, 1, 1, 2, 0), (2, 1, 1, 2, 0, 2),
    (0, 1, 0, 0, 0, 2), (2, 0, 1, 2, 0, 1), (2, 0, 2, 0, 1, 1), (2, 0, 1, 0, 2, 0),
)


def reference():
    """Work shaped like the library's kernels: an lcm closure over exponent
    tuples, then exact rational elimination of a sparse 10x10 matrix."""
    elements = set(_REFERENCE_GENS)
    frontier = set(_REFERENCE_GENS)
    while frontier:
        fresh = set()
        for a in frontier:
            for g in _REFERENCE_GENS:
                m = tuple(x if x > y else y for x, y in zip(a, g))
                if m not in elements:
                    elements.add(m)
                    fresh.add(m)
        frontier = fresh
    pivots = {}
    for i in range(10):
        work = {j: Fraction((i * j + 1) % 5) for j in range(10) if (i * j + 1) % 5}
        while work:
            r = min(work)
            if r not in pivots:
                pivots[r] = work
                break
            factor = work[r] / pivots[r][r]
            for pr, pc in pivots[r].items():
                value = work.get(pr, 0) - factor * pc
                if value:
                    work[pr] = value
                else:
                    work.pop(pr, None)
    return len(elements), len(pivots)


class SpeedProbe:
    """Samples the host's speed every PERIOD_S of wall time from a SIGALRM handler.

    Python runs the handler between bytecodes, so a long library call is
    sampled all along.  The handler's own time is kept in `spent`, to be
    taken out of the timed calls.
    """

    def __init__(self):
        self.times, self.speeds = [], []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()  # the pass's heap must not slow the reference down
        start = perf_counter()
        calls = 0
        while True:
            reference()
            calls += 1
            end = perf_counter()
            if end - start >= BURST_S:
                break
        if enabled:
            gc.enable()
        self.times.append(start)
        self.speeds.append(REFERENCE_S * calls / (end - start))
        self.spent += perf_counter() - start

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self, lo, hi):
        """Mean speed over the samples taken from lo - WINDOW_S to hi + WINDOW_S.

        The samples are evenly spaced in wall time, so their mean speed is
        the work done per second over the interval.
        """
        i = bisect_left(self.times, lo - WINDOW_S)
        j = bisect_right(self.times, hi + WINDOW_S)
        chosen = self.speeds[i:j] or self.speeds[max(0, i - 1):i + 1]
        return sum(chosen) / len(chosen)


def setup_speed():
    """Host speed right after set-up: the median over SETUP_PROBE_S of
    back-to-back reference() calls, the first one left out as a warm-up.

    Set-up is too short for the probe to sample it, and the host stays in
    one speed for spells longer than set-up plus this sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    reference()
    times = []
    start = perf_counter()
    while perf_counter() - start < SETUP_PROBE_S:
        t = perf_counter()
        reference()
        times.append(perf_counter() - t)
    if enabled:
        gc.enable()
    return REFERENCE_S / statistics.median(times)


def run_pass(config):
    probe = SpeedProbe()
    import workloads  # set-up: importing pathdepth and making the inputs

    ops = workloads.WORKLOADS[config["workload"]](
        config["seed"], config["draw"], config["tiny"]
    )
    result = {"ready": time.monotonic(), "setup_spent": probe.spent,
              "setup_scale": setup_speed()}
    if config["mode"] == "setup":
        probe.stop()
        return result
    tracer = Tracer()
    if config["traced"]:
        install(tracer)
    gc.freeze()  # the inputs live all pass; keep them out of every collection
    raw, timed, intervals = [], [], []  # intervals: (start, end) of each timed call
    tally = workloads.Tally()
    for op in ops:
        gc.collect()  # untimed: what the previous answer check left behind
        tracer.active = config["traced"]
        spent = probe.spent
        start = perf_counter()
        try:
            out = op.call()
        except Exception as e:
            out = e
        # The op's own reference cycles (the search closures and their memo
        # sets) are freed inside the timed region: the program pays for them
        # too.  Left to the collector, they are freed at points that move with
        # every earlier allocation, which makes peak RSS erratic.
        gc.collect()
        end = perf_counter()
        tracer.active = False
        raw.append(end - start)
        timed.append(end - start - (probe.spent - spent))
        intervals.append((start, end))
        if isinstance(out, Exception) and not isinstance(
            out, (workloads.pd.SearchBudgetError, workloads.pd.PosetCapError)
        ):
            traceback.print_exception(type(out), out, out.__traceback__, file=sys.stderr)
        tally.add(op.check(out))
    time.sleep(WINDOW_S)  # the probe samples the window after the last call
    probe.stop()
    scaled = [t * probe.speed(lo, hi) for t, (lo, hi) in zip(timed, intervals)]
    result.update({
        "raw_wall_s": sum(raw),
        "wall_s": sum(scaled),
        "op_ms": [1000.0 * t for t in scaled],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tally": tally.__dict__,
    })
    if config["traced"]:
        # span times include the probe's share; scale them like the whole pass
        scale = sum(scaled) / sum(raw)
        layers = layer_metrics(tracer.spans, workloads.REGISTRY_CLAIMS)
        result["layers"] = {
            k: v * scale if metric_unit(k) == "s" else v for k, v in layers.items()
        }
        with open(config["trace_file"], "w") as f:
            json.dump({"config": config, "spans": tracer.spans}, f)
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
