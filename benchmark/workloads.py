"""The benchmark's four workloads: inputs, the timed calls, and the answer checks.

Every workload builds a list of operations.  An operation's `call` is the
timed library work; its `check` runs afterwards, outside the timed region,
and turns the call's result (or the exception it raised) into a tally of
attempted, failed and skipped answers.  Library functions are always looked
up through their modules at call time, so that a traced pass sees the
wrappers `spans.install` puts there.

Why each workload exists, its fixed budgets, instances, expected values and
seed handling are listed in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import pathdepth as pd
from pathdepth import cli

from spans import budget_phase

SDEPTH_BUDGET = 500_000
REGISTRY_BUDGET = 2_000_000
RANDOM_IDEALS = 1000
# A search that runs out of RANDOM_BUDGET costs about as much as the costliest
# decided op (0.1-0.2 s), so the rare small ideal whose search blows up does
# not decide a pass's wall time; at SDEPTH_BUDGET one such ideal took 1 s of
# a 5 s pass, and whether a seed drew one swung wall_s by 20 %.
RANDOM_BUDGET = 50_000


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    skipped: int = 0
    phases: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    header_skipped: int = 0  # registry: the `skipped` counts in the verify headers
    digests: dict = field(default_factory=dict)  # registry: claim id -> output SHA-256

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)

    def skip(self, phase):
        self.skipped += 1
        self.phases[phase] = self.phases.get(phase, 0) + 1

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.skipped += other.skipped
        for phase, n in other.phases.items():
            self.phases[phase] = self.phases.get(phase, 0) + n
        self.failures.extend(other.failures)
        self.header_skipped += other.header_skipped
        self.digests.update(other.digests)


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Tally]


def _family(name, n, m):
    return pd.path_ideal(n, m) if name == "I" else pd.cycle_ideal(n, m)


def _label(name, n, m, t):
    return "%s(%d,%d)^%d" % (name, n, m, t)


def _exception(tally, label, exc, expected=None):
    """Count a budget or cap exhaustion as a skip; any other exception fails.

    `expected` is what the instance must give: an int value, which no skip
    may replace, or the budget phase that must be the one to run out.
    """
    if isinstance(exc, pd.SearchBudgetError):
        phase = budget_phase(str(exc))
    elif isinstance(exc, pd.PosetCapError):
        phase = "cap"
    else:
        tally.fail("%s: unexpected %s: %s" % (label, type(exc).__name__, exc))
        return
    if isinstance(expected, int):
        tally.fail("%s: skipped (%s), expected %d" % (label, phase, expected))
    elif expected is not None and phase != expected:
        tally.fail("%s: skipped in phase %s, expected %s" % (label, phase, expected))
    else:
        tally.skip(phase)


def _certificate_errors(ideal, result, label):
    """Why the sdepth certificate is unacceptable, or None when it verifies."""
    poset = pd.build_poset(ideal)
    ok, why = pd.verify_partition(poset, result.partition)
    if not ok:
        return "%s: certificate rejected: %s" % (label, why)
    g = poset.g
    min_label = min(
        sum(1 for bi, gi in zip(iv.b, g) if bi == gi) for iv in result.partition.intervals
    )
    if min_label != result.sdepth:
        return "%s: certificate min label %d, sdepth %d" % (label, min_label, result.sdepth)
    return None


# ---------------------------------------------------------------------
# depth-ladder: power, then depth through the Betti engine

# (family, n, m, t, depth).  I values are phi(n, m, t); J(6,3)^2, J(6,4)^2,
# J(6,4)^5 and J(6,5)^5 come from the paper's Examples 3.4/3.5 and Theorem
# 2.2; J(7,3)^3 is pinned from the engine as first committed.
DEPTH_LADDER = (
    ("I", 7, 3, 3, None),
    ("J", 6, 3, 2, 3),
    ("J", 6, 4, 2, 1),
    ("J", 7, 3, 3, 2),
    ("J", 6, 4, 5, 1),
    ("J", 6, 5, 5, 0),
)
DEPTH_LADDER_TINY = (("I", 4, 2, 2, None), ("J", 6, 3, 2, 3), ("J", 6, 4, 2, 1))


def depth_ladder(seed, draw=0, tiny=False):
    ops = []
    for name, n, m, t, expected in DEPTH_LADDER_TINY if tiny else DEPTH_LADDER:
        label = _label(name, n, m, t)
        if expected is None:
            expected = pd.phi(n, m, t)
        base = _family(name, n, m)

        def call(base=base, t=t):
            return pd.depth_quotient(base.power(t))

        def check(out, label=label, expected=expected):
            tally = Tally(attempted=1)
            if isinstance(out, Exception):
                _exception(tally, label, out, expected)
            elif out.depth != expected:
                tally.fail("%s: depth %d, expected %d" % (label, out.depth, expected))
            return tally

        ops.append(Op(label, call, check))
    return ops


# ---------------------------------------------------------------------
# sdepth-ladder: exact Stanley depth at one fixed node budget

# (family, n, m, t, sdepth or the budget phase that skips at SDEPTH_BUDGET).
# Decided values are pinned from the engine as first committed; a skip on one
# of them fails.  A listed skip must run out in its listed phase, unless a
# later engine decides the instance, which is then checked by its certificate.
SDEPTH_LADDER = (
    ("J", 6, 3, 2, 3),
    ("I", 6, 3, 2, 3),
    ("I", 4, 2, 3, 1),
    ("J", 5, 3, 3, 0),
    ("J", 7, 4, 2, 0),
    ("J", 5, 4, 4, 0),
    ("J", 6, 4, 2, "search"),
    ("I", 5, 3, 2, "search"),
    ("I", 5, 2, 3, "search"),
    ("I", 7, 3, 3, "candidates"),
    ("J", 7, 3, 3, "precheck"),
)
SDEPTH_LADDER_TINY = (("J", 6, 3, 2, 3), ("I", 4, 2, 3, 1), ("I", 5, 3, 2, "search"))


def sdepth_ladder(seed, draw=0, tiny=False):
    ops = []
    for name, n, m, t, expected in SDEPTH_LADDER_TINY if tiny else SDEPTH_LADDER:
        label = _label(name, n, m, t)
        ideal = _family(name, n, m).power(t)

        def call(ideal=ideal):
            return pd.sdepth_quotient(ideal, node_budget=SDEPTH_BUDGET)

        def check(out, ideal=ideal, label=label, expected=expected):
            tally = Tally(attempted=1)
            if isinstance(out, Exception):
                _exception(tally, label, out, expected)
                return tally
            error = _certificate_errors(ideal, out, label)
            if error:
                tally.fail(error)
            elif isinstance(expected, int) and out.sdepth != expected:
                tally.fail("%s: sdepth %d, expected %d" % (label, out.sdepth, expected))
            return tally

        ops.append(Op(label, call, check))
    return ops


# ---------------------------------------------------------------------
# registry: `pathdepth verify` in-process, JSON output

# Every claim id but theorem-2.2 (over 50 s, and its instances already run in
# both ladders) and prop-3.2 (about 20 s), so that one pass fits a run.  The
# claims' own seed stays 0: the seeded claims move the points at which the
# collector frees prop-3.3's search memo, and peak RSS with them (153 to 224 MB).
REGISTRY_SEED = 0
REGISTRY_CLAIMS = (
    "engine-agreement", "example-3.4", "example-3.5", "lemma-1.10", "lemma-1.2",
    "lemma-1.4", "lemma-1.5", "lemma-1.6", "lemma-1.7", "lemma-2.1", "lemma-2.3",
    "lemma-2.4", "lemma-3.1", "prop-3.3", "theorem-1.11", "theorem-1.8",
    "theorem-1.9", "theorem-2.5",
)
REGISTRY_CLAIMS_TINY = ("lemma-1.2", "lemma-2.1", "theorem-1.8")


def registry(seed, draw=0, tiny=False):
    """One `verify <claim-id>` per op, all in one process, so that the claims
    share the engine caches as a single `verify` does."""
    n_max, t_max = (4, 1) if tiny else (6, 2)
    ops = []
    for claim_id in REGISTRY_CLAIMS_TINY if tiny else REGISTRY_CLAIMS:
        argv = [
            "verify", claim_id, "--n-max", str(n_max), "--t-max", str(t_max),
            "--budget", str(REGISTRY_BUDGET), "--seed", str(REGISTRY_SEED),
            "--jobs", "1", "--format", "json",
        ]

        def call(argv=argv):
            out = io.StringIO()
            code = cli.main(list(argv), out=out)
            return code, out.getvalue()

        def check(out, claim_id=claim_id):
            tally = Tally(attempted=1)
            if isinstance(out, Exception):
                _exception(tally, claim_id, out)
                return tally
            code, text = out
            try:
                document = json.loads(text)
                reports, header = document["reports"], document["run"]
            except (ValueError, KeyError) as e:
                tally.fail("%s: unreadable JSON output: %s" % (claim_id, e))
                return tally
            tally.attempted = len(reports)
            for report in reports:
                if report["verdict"] == "fail":
                    tally.fail("%s %s: fail: %s" % (
                        report["claim_id"], json.dumps(report["params"], sort_keys=True),
                        report["reason"]))
                if report["values"].get("skipped"):
                    tally.skip("report")
            if code != cli.EXIT_OK and not tally.failed:
                tally.fail("%s: exit code %d" % (claim_id, code))
            tally.header_skipped = header["skipped"]
            tally.digests[claim_id] = hashlib.sha256(text.encode()).hexdigest()
            return tally

        ops.append(Op(claim_id, call, check))
    return ops


# ---------------------------------------------------------------------
# small-random: many tiny ideals through both depth routes and sdepth


def random_ideals(seed, draw, count):
    """Ideals in 2-5 variables with 1-5 generators of exponents at most 2.

    The (variables, generators) cells are visited in turn and only the
    exponents are random, so that every seed and draw has the same mix of
    sizes.  The passes of one run take draws 0, 1, 2, ... of the run's seed,
    so that a run covers more ideals than one pass.
    """
    rng = random.Random("%d/%d" % (seed, draw))
    ideals = []
    while len(ideals) < count:
        i = len(ideals)
        n, n_gens = 2 + i % 4, 1 + (i // 4) % 5
        exps = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(n_gens)]
        gens = [pd.Monomial(e) for e in exps if any(e)]
        if gens:
            ideals.append(pd.MonomialIdeal(n, gens))
    return ideals


def small_random(seed, draw=0, tiny=False):
    ops = []
    for i, ideal in enumerate(random_ideals(seed, draw, 30 if tiny else RANDOM_IDEALS)):
        label = "#%d %s" % (i, ideal)

        def call(ideal=ideal):
            lattice = pd.depth_quotient(ideal)
            polarized = pd.depth_via_polarization(ideal)
            try:
                stanley = pd.sdepth_quotient(ideal, node_budget=RANDOM_BUDGET)
            except (pd.SearchBudgetError, pd.PosetCapError) as e:
                stanley = e
            return lattice, polarized, stanley

        def check(out, ideal=ideal, label=label):
            tally = Tally(attempted=1)
            if isinstance(out, Exception):
                _exception(tally, label, out)
                return tally
            lattice, polarized, stanley = out
            if lattice.depth != polarized.depth:
                tally.fail("%s: depth %d, polarization depth %d"
                           % (label, lattice.depth, polarized.depth))
            elif isinstance(stanley, Exception):
                _exception(tally, label, stanley)
            else:
                error = _certificate_errors(ideal, stanley, label)
                if error:
                    tally.fail(error)
                elif stanley.sdepth < lattice.depth:
                    tally.fail("%s: sdepth %d < depth %d"
                               % (label, stanley.sdepth, lattice.depth))
            return tally

        ops.append(Op(label, call, check))
    return ops


WORKLOADS = {
    "depth-ladder": depth_ladder,
    "sdepth-ladder": sdepth_ladder,
    "registry": registry,
    "small-random": small_random,
}
