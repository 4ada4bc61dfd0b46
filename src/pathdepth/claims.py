"""One checkable operation per registered claim.

Every check computes both sides of a stated identity, bound, or value
with the exact engines and returns a ClaimReport.  Nothing here depends
on an unproved statement: verdicts follow from computed integers and
canonical ideal equality only.  Claims outside a budget are skipped with
a reason, never passed or failed.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass, field, fields

from .depth import (
    DEFAULT_POLARIZATION_CAP,
    PolarizationCapError,
    depth_quotient,
    depth_via_polarization,
    max_ideal_associated,
)
from .families import cycle_ideal, path_ideal, phi, t0_alpha, u_ideal, witness_w, witness_l1
from .monomials import Monomial, MonomialIdeal, parse_ideal
from .sdepth import (
    DEFAULT_BUDGET,
    PosetCapError,
    SearchBudgetError,
    sdepth_quotient,
    verify_partition,
)

__all__ = [
    "ClaimReport",
    "SesTriple",
    "ses_depth_bounds",
    "check_lemma_1_2",
    "check_lemma_1_4",
    "check_lemma_1_5",
    "check_lemma_1_6",
    "check_lemma_1_7",
    "check_engine_agreement",
    "check_phi",
    "check_lucky",
    "check_l1",
    "check_t1",
    "check_inmt2",
    "check_intermed",
    "check_t3",
    "check_t212",
    "check_teo_iran",
    "check_inmt",
    "check_obsy",
    "check_obsy2",
    "run_example_1",
    "run_example_2",
    "CLAIM_IDS",
    "run_claims",
]


@dataclass
class ClaimReport:
    """Machine-checkable verdict tying one registered claim to computed values."""

    claim_id: str
    params: dict
    values: dict
    relation: str
    verdict: str  # pass | fail | skipped
    reason: str = ""
    # (ideal text, depth, sdepth) whenever the claim computed both
    observed: list = field(default_factory=list, compare=False)

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


# ---------------------------------------------------------------------
# shared plumbing: engine memos and the per-report check accumulator


@functools.cache
def _depth(ideal):
    return depth_quotient(ideal).depth


@functools.cache
def _sdepth(ideal, node_budget):
    """(sdepth, None) once its certificate verifies, or (None, skip reason)."""
    try:
        result = sdepth_quotient(ideal, node_budget=node_budget)
    except (SearchBudgetError, PosetCapError) as e:
        return None, str(e)
    ok, why = verify_partition(result.poset, result.partition)
    if not ok:
        raise AssertionError("invalid sdepth certificate: %s" % why)
    label = result.partition.min_label(result.poset)
    if label != result.sdepth:
        raise AssertionError(
            "sdepth %d with a certificate of min label %d" % (result.sdepth, label)
        )
    return result.sdepth, None


class _Checks:
    """Checks, budget skips and sdepth observations for one report; the route from a
    claim to sdepth_quotient."""

    def __init__(self, node_budget=DEFAULT_BUDGET):
        self.node_budget = node_budget
        self.failed = []
        self.skipped = []
        self.observed = []
        self.count = 0

    def expect(self, name, ok):
        self.count += 1
        if not ok:
            self.failed.append(name)
        return ok

    def skip(self, name, why):
        self.skipped.append("%s (%s)" % (name, why))

    def sdepth(self, name, ideal, values=None, key=None):
        """Exact sdepth(S/I) with a verified certificate, or None after a skip.

        A decided value is also stored as values[key] when values is given.
        """
        value, why = _sdepth(ideal, self.node_budget)
        if value is None:
            self.skip(name, why)
        else:
            self.observed.append((str(ideal), _depth(ideal), value))
            if values is not None:
                values[key] = value
        return value

    def expect_depth_and_sdepth(self, name, ideal, value):
        """Check depth(S/I) = value, under `name`, then sdepth(S/I) = value
        unless the search is skipped, under `name` with its first "depth"
        read as "sdepth"; the sdepth or None."""
        self.expect(name, _depth(ideal) == value)
        sdepth_name = name.replace("depth", "sdepth", 1)
        s = self.sdepth(sdepth_name, ideal)
        if s is not None:
            self.expect(sdepth_name, s == value)
        return s

    def report(self, claim_id, params, values, relation):
        if self.failed:
            verdict, reason = "fail", "failed: " + "; ".join(self.failed)
        elif self.count == 0 and self.skipped:
            verdict, reason = "skipped", "; ".join(self.skipped)
        else:
            verdict = "pass"
            reason = ("skipped: " + "; ".join(self.skipped)) if self.skipped else ""
        values = dict(values)
        if self.skipped:
            values["skipped"] = self.skipped
        return ClaimReport(claim_id, params, values, relation, verdict, reason, self.observed)


# ---------------------------------------------------------------------
# short exact sequences


@dataclass
class SesTriple:
    """Depth/sdepth data for 0 -> U -> M -> N -> 0 plus derived lower bounds.

    Known exact values are never overwritten; the Depth Lemma (and its
    Stanley-depth analogue) fills `bounds` for the missing slots, and
    `rules` records which rule fired.
    """

    depth_u: int | None = None
    depth_m: int | None = None
    depth_n: int | None = None
    sdepth_u: int | None = None
    sdepth_m: int | None = None
    sdepth_n: int | None = None
    bounds: dict = field(default_factory=dict)
    rules: dict = field(default_factory=dict)


def ses_depth_bounds(triple):
    """Fill in the three Depth Lemma lower bounds and the sdepth bound."""
    known = sum(v is not None for v in (triple.depth_u, triple.depth_m, triple.depth_n))
    if known < 2:
        raise ValueError("under-specified triple: need two of three depths")
    if triple.depth_m is None:
        triple.bounds["depth_m"] = min(triple.depth_n, triple.depth_u)
        triple.rules["depth_m"] = "depth-lemma-1"
    if triple.depth_u is None:
        triple.bounds["depth_u"] = min(triple.depth_m, triple.depth_n + 1)
        triple.rules["depth_u"] = "depth-lemma-2"
    if triple.depth_n is None:
        triple.bounds["depth_n"] = min(triple.depth_u - 1, triple.depth_m)
        triple.rules["depth_n"] = "depth-lemma-3"
    if (
        triple.sdepth_m is None
        and triple.sdepth_u is not None
        and triple.sdepth_n is not None
    ):
        triple.bounds["sdepth_m"] = min(triple.sdepth_u, triple.sdepth_n)
        triple.rules["sdepth_m"] = "rauf"
    return triple


# ---------------------------------------------------------------------
# preliminaries


def _set_partitions(items):
    """All set partitions of a list, as tuples of blocks."""
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield ((head,),) + part
        for i, block in enumerate(part):
            yield part[:i] + (block + (head,),) + part[i + 1:]


def check_lemma_1_2(seed):
    """depth of S modulo an intersection of block-primes is (#blocks - 1)."""
    n_max, n_random, samples = 5, 6, 15
    checks = _Checks()
    tried = 0
    for n in range(1, n_max + 1):
        for part in _set_partitions(list(range(1, n + 1))):
            U = functools.reduce(
                MonomialIdeal.intersect, (MonomialIdeal.variable_prime(b, n) for b in part)
            )
            checks.expect(
                "n=%d partition %s" % (n, part), _depth(U) == len(part) - 1
            )
            tried += 1
    rng = random.Random(seed)
    for _ in range(samples):
        n = n_random
        d = rng.randint(1, n)
        assignment = list(range(d)) + [rng.randrange(d) for _ in range(n - d)]
        rng.shuffle(assignment)
        blocks = [tuple(i + 1 for i, b in enumerate(assignment) if b == j) for j in range(d)]
        U = functools.reduce(
            MonomialIdeal.intersect, (MonomialIdeal.variable_prime(b, n) for b in blocks)
        )
        checks.expect("n=%d random d=%d" % (n, d), _depth(U) == d - 1)
        tried += 1
    return checks.report(
        "lemma-1.2",
        {"n_max": n_max, "n_random": n_random, "samples": samples, "seed": seed},
        {"instances": tried},
        "depth(S/intersection of block primes) = #blocks - 1",
    )


def _random_ideal(rng):
    """Seeded proper nonzero monomial ideal with small exponents."""
    n_max, max_exp, max_gens = 4, 2, 4
    while True:
        n = rng.randint(1, n_max)
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            exps = tuple(rng.randint(0, max_exp) for _ in range(n))
            if any(exps):
                gens.append(Monomial(exps))
        if gens:
            return MonomialIdeal(n, gens)


def _random_monomial_outside(rng, ideal):
    max_exp, tries = 2, 50
    for _ in range(tries):
        exps = tuple(rng.randint(0, max_exp) for _ in range(ideal.n_vars))
        u = Monomial(exps)
        if not ideal.contains(u):
            return u
    return Monomial.unit(ideal.n_vars)


def _compare(checks, i, I, tag, other, holds):
    """The #i depth check, the two sdepths and, when both are decided, the
    sdepth check of holds(invariant of I, invariant of other)."""
    checks.expect("depth #%d" % i, holds(_depth(I), _depth(other)))
    s_i = checks.sdepth("sdepth I #%d" % i, I)
    s_o = checks.sdepth("sdepth %s #%d" % (tag, i), other)
    if s_i is not None and s_o is not None:
        checks.expect("sdepth #%d" % i, holds(s_i, s_o))


def check_lemma_1_4(seed, node_budget=DEFAULT_BUDGET):
    """Colon monotonicity: depth and sdepth never drop under (I : u), u not in I."""
    samples = 50
    rng = random.Random(seed)
    checks = _Checks(node_budget)
    for i in range(samples):
        I = _random_ideal(rng)
        u = _random_monomial_outside(rng, I)
        _compare(checks, i, I, "C", I.colon(u), lambda a, c: c >= a)
    return checks.report(
        "lemma-1.4",
        {"samples": samples, "seed": seed},
        {},
        "depth/sdepth(S/(I:u)) >= depth/sdepth(S/I) for u outside I",
    )


def check_lemma_1_5(seed, node_budget=DEFAULT_BUDGET):
    """Colon equality under the certified hypothesis I = u*(I : u)."""
    samples = 50
    rng = random.Random(seed)
    checks = _Checks(node_budget)
    for i in range(samples):
        base = _random_ideal(rng)
        exps = tuple(rng.randint(0, 2) for _ in range(base.n_vars))
        u = Monomial(exps)
        I = base.scale(u)
        C = I.colon(u)
        checks.expect("guard #%d" % i, I == C.scale(u))
        _compare(checks, i, I, "C", C, operator.eq)
    return checks.report(
        "lemma-1.5",
        {"samples": samples, "seed": seed},
        {},
        "depth/sdepth(S/(I:u)) = depth/sdepth(S/I) when I = u*(I:u)",
    )


def check_lemma_1_6(seed, node_budget=DEFAULT_BUDGET):
    """A fresh variable raises depth and sdepth by exactly one."""
    samples = 50
    rng = random.Random(seed)
    checks = _Checks(node_budget)
    for i in range(samples):
        I = _random_ideal(rng)
        _compare(checks, i, I, "E", I.extend(1), lambda a, e: e == a + 1)
    return checks.report(
        "lemma-1.6",
        {"samples": samples, "seed": seed},
        {},
        "extension by one variable adds exactly 1 to depth and sdepth",
    )


def check_lemma_1_7(seed, node_budget=DEFAULT_BUDGET):
    """depth = 0, sdepth = 0 and maximal-ideal association are equivalent."""
    samples = 30
    rng = random.Random(seed)
    checks = _Checks(node_budget)
    zeros = 0
    for i in range(samples):
        I = _random_ideal(rng)
        d = _depth(I)
        s = checks.sdepth("sdepth #%d" % i, I)
        if s is not None:
            checks.expect("depth=0 iff sdepth=0 #%d" % i, (d == 0) == (s == 0))
        assoc, witness = max_ideal_associated(I)
        checks.expect("depth=0 iff m associated #%d" % i, (d == 0) == assoc)
        if assoc:
            n = I.n_vars
            ok = not I.contains(witness) and all(
                I.contains(witness * Monomial.variable(j, n)) for j in range(1, n + 1)
            )
            checks.expect("witness certifies (I : w) = m #%d" % i, ok)
        zeros += d == 0
    return checks.report(
        "lemma-1.7",
        {"samples": samples, "seed": seed},
        {"depth_zero_instances": zeros},
        "m in Ass(S/I) iff depth(S/I) = 0 iff sdepth(S/I) = 0",
    )


def check_engine_agreement(seed):
    """depth via the Betti table equals depth via polarization."""
    samples = 50
    rng = random.Random(seed)
    checks = _Checks()
    instances = [_random_ideal(rng) for _ in range(samples)]
    named = [
        ("I(4,2)^2", path_ideal(4, 2).power(2)),
        ("I(5,3)^2", path_ideal(5, 3).power(2)),
        ("J(5,3)", cycle_ideal(5, 3)),
        ("J(6,3)", cycle_ideal(6, 3)),
        ("J(6,3)^2", cycle_ideal(6, 3).power(2)),
        ("J(6,4)^2", cycle_ideal(6, 4).power(2)),
    ]
    skipped_named = []
    for i, I in enumerate(instances + [ideal for _, ideal in named]):
        try:
            polarized = depth_via_polarization(I)
        except PolarizationCapError as e:
            if i < samples:
                checks.skip("instance #%d" % i, str(e))
            else:
                skipped_named.append(named[i - samples][0])
            continue
        checks.expect("instance #%d" % i, _depth(I) == polarized.depth)
    return checks.report(
        "engine-agreement",
        {"samples": samples, "seed": seed, "cap": DEFAULT_POLARIZATION_CAP},
        {
            "instances": samples + len(named) - len(skipped_named),
            "named_beyond_cap": skipped_named,
        },
        "lattice depth = polarization depth on every instance within cap",
    )


def check_phi(n, m, t_max, with_sdepth=False, node_budget=DEFAULT_BUDGET):
    """depth(S/I(n,m)^t) equals the closed form; sdepth within its bracket.

    The bracket phi(n,m,t) <= sdepth <= phi(n,m,1) is read off the exact
    sdepth and its verified certificate.
    """
    checks = _Checks(node_budget)
    values = {}
    for t in range(1, t_max + 1):
        It = path_ideal(n, m).power(t)
        d = _depth(It)
        f = phi(n, m, t)
        values["depth_t%d" % t] = d
        values["phi_t%d" % t] = f
        checks.expect("depth=phi at t=%d" % t, d == f)
        if with_sdepth:
            hi = phi(n, m, 1)
            s = checks.sdepth("sdepth bracket t=%d" % t, It)
            if s is not None:
                checks.expect("sdepth >= phi(n,m,t) at t=%d" % t, s >= f)
                if hi < n:
                    checks.expect("sdepth <= phi(n,m,1) at t=%d" % t, s <= hi)
                values["sdepth_bracket_t%d" % t] = [f, hi]
        if (n, m, t) == (5, 3, 2):
            # the value printed alongside the worked example disagrees with
            # both the closed form and the engine; record all three
            values["discrepancy_5_3_2"] = {
                "formula": f,
                "printed": 3,
                "oracle_depth": d,
            }
    return checks.report(
        "theorem-1.9",
        {"n": n, "m": m, "t_max": t_max},
        values,
        "depth = phi(n,m,t); phi(n,m,t) <= sdepth <= phi(n,m,1)",
    )


def check_lucky(n, m, t):
    """(J^t : w_t) is the maximal ideal (d=1) or U(n,d) (d>1); w_t not in J^t."""
    data = t0_alpha(n, m)
    if t < data.t0:
        raise ValueError("requires t >= t0 = %d" % data.t0)
    checks = _Checks()
    Jt = cycle_ideal(n, m).power(t)
    w = witness_w(n, m, t)
    colon = Jt.colon(w)
    expected = MonomialIdeal.maximal(n) if data.d == 1 else u_ideal(n, data.d)
    checks.expect("w_t not in J^t", not Jt.contains(w))
    checks.expect("(J^t : w_t) = expected", colon == expected)
    return checks.report(
        "lemma-1.10",
        {"n": n, "m": m, "t": t, "d": data.d, "t0": data.t0, "alpha": data.alpha},
        {"colon": str(colon), "expected": str(expected)},
        "(J^t : w_t) = m if d=1 else U(n,d)",
    )


def check_l1(n, t):
    """Associated-prime membership for J(n,n-1)^t and J(n,n-2)^t."""
    checks = _Checks()
    values = {}
    if n >= 2 and t >= n - 1:
        Jt = cycle_ideal(n, n - 1).power(t)
        assoc, witness = max_ideal_associated(Jt)
        values["m_in_ass_J_n_n-1"] = assoc
        values["witness"] = str(witness) if assoc else None
        checks.expect("m in Ass(S/J(n,n-1)^t)", assoc)
        w = witness_l1(n, t)
        checks.expect("w_t not in J^t", not Jt.contains(w))
        checks.expect("(J^t : w_t) = m", Jt.colon(w) == MonomialIdeal.maximal(n))
        checks.expect("deg w_t = (n-1)t - 1", w.degree() == (n - 1) * t - 1)
    if n >= 3 and n % 2 == 1 and t >= (n - 1) // 2:
        Jt = cycle_ideal(n, n - 2).power(t)
        assoc, _ = max_ideal_associated(Jt)
        values["m_in_ass_J_n_n-2_odd"] = assoc
        checks.expect("m in Ass(S/J(n,n-2)^t), n odd", assoc)
    if n >= 4 and n % 2 == 0:
        Jt = cycle_ideal(n, n - 2).power(t)
        assoc, _ = max_ideal_associated(Jt)
        values["m_in_ass_J_n_n-2_even"] = assoc
        checks.expect("m not in Ass(S/J(n,n-2)^t), n even", not assoc)
    return checks.report(
        "lemma-2.1",
        {"n": n, "t": t},
        values,
        "maximal-ideal membership in Ass per parity and range",
    )


def check_t1(n, t, node_budget=DEFAULT_BUDGET):
    """Theorem on depth/sdepth of J(n,n-1)^t and J(n,n-2)^t at t >= n-1."""
    checks = _Checks(node_budget)
    values = {}

    def clause(m, depth_name, depth, sdepth_name, lo, hi):
        Jt = cycle_ideal(n, m).power(t)
        tag = "n-%d" % (n - m)
        d = values["depth_J_n_" + tag] = _depth(Jt)
        checks.expect(depth_name, d == depth)
        s = checks.sdepth("sdepth J(n,%s)^t" % tag, Jt, values, "sdepth_J_n_" + tag)
        if s is not None:
            checks.expect(sdepth_name, lo <= s <= hi)

    if n >= 2 and t >= n - 1:
        clause(n - 1, "depth(S/J(n,n-1)^t) = 0", 0, "sdepth(S/J(n,n-1)^t) = 0", 0, 0)
    if n >= 4 and n % 2 == 1 and t >= (n - 1) // 2:
        clause(n - 2, "depth = 0 (n odd)", 0, "sdepth = 0 (n odd)", 0, 0)
    if n >= 4 and n % 2 == 0 and t >= n - 1:
        clause(n - 2, "depth = 1 (n even)", 1, "1 <= sdepth <= n/2 (n even)", 1, n // 2)
    return checks.report(
        "theorem-2.2",
        {"n": n, "t": t},
        values,
        "depth/sdepth values for the two near-maximal path lengths",
    )


def _tail_colon(n, m, t):
    """Lemma 2.3's colon (J(n,m)^t : (x_{n-m+1} ... x_{n-1})^t)."""
    u = Monomial.from_support(range(n - m + 1, n), n) ** t
    return cycle_ideal(n, m).power(t).colon(u)


def check_inmt2(n, m, t):
    """Colon of J(n,m)^t by the t-th power of the (m-1)-fold tail product."""
    if not (n > m >= 2 and t >= 1):
        raise ValueError("requires n > m >= 2 and t >= 1")
    checks = _Checks()
    lhs = _tail_colon(n, m, t)
    pair = MonomialIdeal.variable_prime((n - m, n), n)
    if n <= 2 * m:
        rhs = pair.power(t)
        branch = "n <= 2m"
    else:
        rhs = (path_ideal(n - m - 1, m).extend(m + 1) + pair).power(t)
        branch = "n >= 2m+1"
    checks.expect("exact ideal equality", lhs == rhs)
    return checks.report(
        "lemma-2.3",
        {"n": n, "m": m, "t": t, "branch": branch},
        {"lhs_gens": len(lhs.gens), "rhs_gens": len(rhs.gens)},
        "(J^t : tail^t) matches the branch formula",
    )


def check_intermed(n, m, t, node_budget=DEFAULT_BUDGET):
    """Depth of S/V for the Lemma-2.3 colon V, against the two-branch value."""
    if not (n >= 2 * m + 1 and m >= 2 and t >= 1):
        raise ValueError("requires n >= 2m+1, m >= 2, t >= 1")
    checks = _Checks(node_budget)
    V = _tail_colon(n, m, t)
    d = _depth(V)
    expected = phi(n, m, t) if t <= n - 2 * m else 2 * (m - 1)
    checks.expect("depth(S/V) = branch value", d == expected)
    values = {"depth": d, "expected": expected}
    s = checks.sdepth("sdepth(S/V)", V, values, "sdepth")
    if s is not None:
        checks.expect("sdepth >= depth", s >= d)
    return checks.report(
        "lemma-2.4",
        {"n": n, "m": m, "t": t},
        values,
        "depth(S/V) = phi(n,m,t) if t <= n-2m else 2(m-1); sdepth >= depth",
    )


def check_t3(n, m, t):
    """Three-branch upper bound for depth(S/J^t) when n >= 2m+1."""
    if not (n >= 2 * m + 1 and m >= 2 and t >= 1):
        raise ValueError("requires n >= 2m+1")
    checks = _Checks()
    d = _depth(cycle_ideal(n, m).power(t))
    if t <= n - 2 * m:
        bound, branch = phi(n, m, t), "t <= n-2m"
    elif t <= n - m:
        bound, branch = phi(n - 1, m, t) + 1, "n-2m+1 <= t <= n-m"
    else:
        bound, branch = m, "t >= n-m+1"
    checks.expect("depth <= bound", d <= bound)
    return checks.report(
        "theorem-2.5",
        {"n": n, "m": m, "t": t, "branch": branch},
        {"depth": d, "bound": bound},
        "depth(S/J^t) <= branch bound",
    )


def check_t212(n, m, t):
    """depth(S/J(n,m)^t) <= phi(n-1,m,t) + 1."""
    if not (2 <= m < n and t >= 1):
        raise ValueError("requires 2 <= m < n")
    checks = _Checks()
    d = _depth(cycle_ideal(n, m).power(t))
    bound = phi(n - 1, m, t) + 1
    checks.expect("depth <= phi(n-1,m,t)+1", d <= bound)
    return checks.report(
        "theorem-1.11",
        {"n": n, "m": m, "t": t},
        {"depth": d, "bound": bound},
        "depth(S/J^t) <= phi(n-1,m,t) + 1",
    )


def check_teo_iran(I_small, L, t, node_budget=DEFAULT_BUDGET):
    """Depth of powers of I + L for a complete-intersection L in fresh variables."""
    if not L.is_complete_intersection():
        raise ValueError("L must be a complete intersection")
    checks = _Checks(node_budget)
    p = I_small.n_vars
    n2 = L.n_vars
    dim_l = n2 - len(L.gens)
    combined = I_small.extend(n2) + MonomialIdeal(
        p + n2, tuple(Monomial((0,) * p + g.exponents) for g in L.gens)
    )
    lhs = _depth(combined.power(t))
    depths = [_depth(I_small.power(i)) for i in range(1, t + 1)]
    rhs = min(depths) + dim_l
    checks.expect("depth equality", lhs == rhs)
    values = {"depth": lhs, "min_depth_powers": min(depths), "dim_l": dim_l}
    s = checks.sdepth("sdepth(S/(I+L)^t)", combined.power(t), values, "sdepth")
    small = [
        checks.sdepth("sdepth(S'/I^%d)" % i, I_small.power(i))
        for i in range(1, t + 1)
    ]
    if s is not None and None not in small:
        checks.expect("sdepth chain", min(small) + dim_l <= s <= p + dim_l)
    return checks.report(
        "theorem-1.8",
        {"I": str(I_small), "L": str(L), "t": t},
        values,
        "depth(S/(I+L)^t) = min_i depth(S'/I^i) + dim(S''/L); sdepth chain",
    )


def _cycle_reduction(n, m):
    """J, J' = (J : x_n) in the first n-1 variables, and I = I(n-1, m)."""
    J = cycle_ideal(n, m)
    xn = Monomial.variable(n, n)
    Jprime = J.colon(xn).restrict(n - 1)
    I = path_ideal(n - 1, m)
    return J, Jprime, I, xn


def check_inmt(n, m, t, k, node_budget=DEFAULT_BUDGET):
    """The four colon/sum identities relating J^t to I and J' = (J : x_n)."""
    if not 1 <= k <= t:
        raise ValueError("requires 1 <= k <= t")
    checks = _Checks(node_budget)
    J, Jprime, I, xn = _cycle_reduction(n, m)
    Jt = J.power(t)
    xn_pow_k = MonomialIdeal.principal(xn ** k)
    lhs1 = Jt + xn_pow_k
    rhs1 = I.extend(1).power(t + 1 - k) * J.power(k - 1) + xn_pow_k
    checks.expect("(J^t, x_n^k) = (I^{t+1-k} J^{k-1}, x_n^k)", lhs1 == rhs1)
    xn_ideal = MonomialIdeal.principal(xn)
    lhs2 = Jt.colon(xn ** (k - 1)) + xn_ideal
    rhs2 = I.extend(1).power(t + 1 - k) * Jprime.extend(1).power(k - 1) + xn_ideal
    checks.expect(
        "((J^t : x_n^{k-1}), x_n) = (I^{t+1-k} J'^{k-1}, x_n)", lhs2 == rhs2
    )
    checks.expect(
        "(J^t, x_n) = (I^t, x_n)", Jt + xn_ideal == I.extend(1).power(t) + xn_ideal
    )
    checks.expect(
        "(J^t : x_n^t) = J'^t S", Jt.colon(xn ** t) == Jprime.power(t).extend(1)
    )
    d_big = _depth(Jt)
    d_small = _depth(Jprime.power(t))
    checks.expect("depth(S/J^t) <= depth(S'/J'^t) + 1", d_big <= d_small + 1)
    values = {"depth_J": d_big, "depth_Jprime": d_small}
    s_big = checks.sdepth("sdepth(S/J^t)", Jt, values, "sdepth_J")
    s_small = checks.sdepth("sdepth(S'/J'^t)", Jprime.power(t), values, "sdepth_Jprime")
    if s_big is not None and s_small is not None:
        checks.expect("sdepth(S/J^t) <= sdepth(S'/J'^t) + 1", s_big <= s_small + 1)
    return checks.report(
        "lemma-3.1",
        {"n": n, "m": m, "t": t, "k": k},
        values,
        "colon/sum identities and the +1 inequalities",
    )


def _ladder(I, Jprime, t, first):
    """{k: I^{t+1-k} J'^{k-1}} for k = first..t, the ideals of the d_k."""
    return {k: I.power(t + 1 - k) * Jprime.power(k - 1) for k in range(first, t + 1)}


def check_obsy(n, m, t, node_budget=DEFAULT_BUDGET):
    """The d_k / s_k inequalities from the colon short exact sequences."""
    checks = _Checks(node_budget)
    J, Jprime, I, xn = _cycle_reduction(n, m)
    Jt = J.power(t)
    colons = [Jt.colon(xn ** k) for k in range(t + 1)]
    ladder = _ladder(I, Jprime, t, 1)
    colon_depth = [_depth(colon) for colon in colons]
    d = {k: _depth(ideal) for k, ideal in ladder.items()}
    values = {"d_k": d, "colon_depth": colon_depth}
    for k in range(1, t + 1):
        checks.expect(
            "d_%d >= depth(S/(J^t : x_n^%d)) - 1" % (k, k - 1),
            d[k] >= colon_depth[k - 1] - 1,
        )
        if colon_depth[k] > colon_depth[k - 1]:
            checks.expect(
                "conditional: d_%d = depth(S/(J^t : x_n^%d))" % (k, k - 1),
                d[k] == colon_depth[k - 1],
            )
    checks.expect("d_1 = phi(n-1,m,t)", d[1] == phi(n - 1, m, t))
    colon_sdepth = [
        checks.sdepth("sdepth colon k=%d" % k, colon) for k, colon in enumerate(colons)
    ]
    s = {k: checks.sdepth("s_%d" % k, ideal) for k, ideal in ladder.items()}
    values["s_k"] = s
    values["colon_sdepth"] = colon_sdepth
    for k in range(1, t + 1):
        if (
            colon_sdepth[k] is not None
            and colon_sdepth[k - 1] is not None
            and s[k] is not None
            and colon_sdepth[k] > colon_sdepth[k - 1]
        ):
            checks.expect(
                "conditional: s_%d <= sdepth(S/(J^t : x_n^%d))" % (k, k - 1),
                s[k] <= colon_sdepth[k - 1],
            )
    if s.get(1) is not None:
        checks.expect("s_1 >= d_1", s[1] >= d[1])
    return checks.report(
        "prop-3.2",
        {"n": n, "m": m, "t": t},
        values,
        "d_k >= depth(S/(J^t:x_n^{k-1})) - 1 plus the conditional clauses",
    )


def check_obsy2(n, m, t, node_budget=DEFAULT_BUDGET):
    """Bounds tying depth(S/J^t) to (J^t, x_n^t) and the d_k ladder."""
    checks = _Checks(node_budget)
    J, Jprime, I, xn = _cycle_reduction(n, m)
    Jt = J.power(t)
    sum_ideal = Jt + MonomialIdeal.principal(xn ** t)
    d_sum = _depth(sum_ideal)
    d_full = _depth(Jt)
    ladder = _ladder(I, Jprime, t, 2)
    d = {k: _depth(ideal) for k, ideal in ladder.items()}
    lower = min([phi(n - 1, m, t)] + list(d.values()))
    checks.expect("depth(S/(J^t,x_n^t)) >= min{phi(n-1,m,t), d_2..d_t}", d_sum >= lower)
    checks.expect("depth(S/J^t) <= depth(S/(J^t,x_n^t)) + 1", d_full <= d_sum + 1)
    # conditional (4): hypothesis on the colon by x_n^t (eq-copacel sequence)
    colon = Jt.colon(xn ** t)
    d_colon = _depth(colon)
    hypothesis = d_colon > d_full
    values = {
        "depth_sum": d_sum,
        "depth_full": d_full,
        "depth_colon": d_colon,
        "d_k": d,
        "lower": lower,
        "hypothesis_4": hypothesis,
    }
    if hypothesis:
        checks.expect("conditional: depth(S/J^t) >= depth(S/(J^t,x_n^t))", d_full >= d_sum)
    s_sum = checks.sdepth("sdepth sum", sum_ideal, values, "sdepth_sum")
    s = {k: checks.sdepth("s_%d" % k, ideal) for k, ideal in ladder.items()}
    if s_sum is not None and None not in s.values():
        s_lower = min([phi(n - 1, m, t)] + list(s.values()))
        checks.expect(
            "sdepth(S/(J^t,x_n^t)) >= min{phi(n-1,m,t), s_2..s_t}",
            s_sum >= s_lower,
        )
    s_full = checks.sdepth("sdepth full", Jt)
    s_colon = checks.sdepth("sdepth colon", colon)
    if None not in (s_full, s_colon, s_sum) and s_colon > s_full:
        checks.expect(
            "conditional: sdepth(S/J^t) >= sdepth(S/(J^t,x_n^t))",
            s_full >= s_sum,
        )
    return checks.report(
        "prop-3.3",
        {"n": n, "m": m, "t": t},
        values,
        "lower bound via the d_k ladder and the +1 inequality",
    )


# ---------------------------------------------------------------------
# worked-example replays


def run_example_1(node_budget=DEFAULT_BUDGET):
    """Replay of the J(6,3)^2 computation, every printed intermediate included."""
    checks = _Checks(node_budget)
    values = {}
    J, Jprime, I, x6 = _cycle_reduction(6, 3)
    J2 = J.power(2)
    checks.expect(
        "J' printed generators",
        Jprime == parse_ideal("x1*x2, x2*x3*x4, x4*x5, x5*x1", 5),
    )
    checks.expect(
        "(J^2 : x6^2) = J'^2 S", J2.colon(x6 ** 2) == Jprime.power(2).extend(1)
    )
    d_i2 = _depth(I.power(2))
    values["depth_I2"] = d_i2
    checks.expect("depth(S'/I^2) = phi(5,3,2)", d_i2 == phi(5, 3, 2))
    values["phi_5_3_2"] = {"formula": phi(5, 3, 2), "printed": 3}
    IJp = I * Jprime
    x3 = Monomial.variable(3, 5)
    L = parse_ideal("x1*x2, x2*x4, x4*x5", 5) * Jprime
    checks.expect("IJ' = x3 * L", IJp == L.scale(x3))
    checks.expect("Lemma-1.5 guard IJ' = x3*(IJ':x3)", IJp == IJp.colon(x3).scale(x3))
    checks.expect(
        "depth(S'/IJ') = depth(S'/L)", _depth(IJp) == _depth(L)
    )
    u234 = Monomial.from_support((2, 3, 4), 5)
    Lc = L.colon(u234)
    expected_lc = MonomialIdeal.variable_prime((1, 4), 5).intersect(
        MonomialIdeal.variable_prime((2, 5), 5)
    )
    checks.expect("(L : x2x3x4) = (x1,x4) cap (x2,x5)", Lc == expected_lc)
    checks.expect_depth_and_sdepth("depth(S'/(L:x2x3x4)) = 2", Lc, 2)
    W = L + MonomialIdeal.principal(u234)
    checks.expect(
        "W printed generators",
        W
        == parse_ideal(
            "x2*x3*x4, x1*x2*x4*x5, x1^2*x2*x5, x1^2*x2^2, x2*x4^2*x5,"
            " x1*x2^2*x4, x4^2*x5^2, x1*x4*x5^2",
            5,
        ),
    )
    u245 = Monomial.from_support((2, 4, 5), 5)
    Wc = W.colon(u245)
    checks.expect("(W : x2x4x5) = (x3,x4,x1)", Wc == MonomialIdeal.variable_prime((1, 3, 4), 5))
    s_wc = checks.expect_depth_and_sdepth("depth(S'/(W:x2x4x5)) = 2", Wc, 2)
    # the sum ideal pairs with the colon by the same monomial x2x4x5
    Ws = W + MonomialIdeal.principal(u245)
    checks.expect(
        "(W, x2x4x5) printed generators",
        Ws
        == parse_ideal(
            "x2*x4*x5, x2*x3*x4, x1*x4*x5^2, x4^2*x5^2, x1*x2^2*x4,"
            " x1^2*x2^2, x1^2*x2*x5",
            5,
        ),
    )
    s_ws = checks.expect_depth_and_sdepth("depth(S'/(W,x2x4x5)) = 2", Ws, 2)
    # SES bound replay (0 -> S'/(W:u) -> S'/W -> S'/(W,u) -> 0 with
    # u = x2x4x5): depth/sdepth of S'/W and then S'/L are >= 2; the sdepth
    # bound exists only when both outer sdepths were decided
    triple = ses_depth_bounds(
        SesTriple(depth_u=_depth(Wc), depth_n=_depth(Ws), sdepth_u=s_wc, sdepth_n=s_ws)
    )
    checks.expect("depth(S'/W) >= 2 (replayed)", triple.bounds["depth_m"] >= 2)
    if "sdepth_m" in triple.bounds:
        checks.expect("sdepth(S'/W) >= 2 (replayed)", triple.bounds["sdepth_m"] >= 2)
    checks.expect("depth(S'/W) >= 2 (engine)", _depth(W) >= 2)
    d1 = _depth(IJp)
    s1 = checks.sdepth("s_1 >= 2", IJp, values, "s_1")
    values["d_1"] = d1
    checks.expect("d_1 >= 2", d1 >= 2)
    if s1 is not None:
        checks.expect("s_1 >= 2", s1 >= 2)
    d2 = _depth(Jprime.power(2))
    values["d_2"] = d2
    checks.expect("d_2 = depth(S'/J'^2) >= 2", d2 >= 2)
    # the (L, x4) and K = (L : x4) detour
    x4 = Monomial.variable(4, 5)
    Lx4 = L + MonomialIdeal.principal(x4)
    checks.expect(
        "(L, x4) = (x1^2 x2 (x2,x5), x4)",
        Lx4 == parse_ideal("x1^2*x2^2, x1^2*x2*x5, x4", 5),
    )
    checks.expect_depth_and_sdepth("depth(S'/(L,x4)) = 2", Lx4, 2)
    K = L.colon(x4)
    Kc = K.colon(x3)
    checks.expect(
        "(K : x3) printed generators",
        Kc
        == parse_ideal(
            "x1*x2^2, x1*x2*x5, x1*x5^2, x2^2*x4, x2*x4*x5, x4*x5^2", 5
        ),
    )
    Ks = K + MonomialIdeal.principal(x3)
    checks.expect(
        "(K, x3) printed generators",
        Ks == parse_ideal("x3, x1*x2^2, x1*x2*x5, x1*x5^2, x2*x4*x5, x4*x5^2", 5),
    )
    checks.expect_depth_and_sdepth("depth(S'/(K:x3)) = 2", Kc, 2)
    checks.expect_depth_and_sdepth("depth(S'/(K,x3)) = 1", Ks, 1)
    checks.expect("depth(S'/K) >= 1", _depth(K) >= 1)
    # final values
    d_final = _depth(J2)
    values["depth_final"] = d_final
    checks.expect("depth(S/J^2) >= 2 (chain)", d_final >= 2)
    checks.expect("depth(S/J^2) = 3", d_final == 3)
    s_final = checks.sdepth("sdepth(S/J^2)", J2, values, "sdepth_final")
    if s_final is not None:
        checks.expect("sdepth(S/J^2) = 3", s_final == 3)
    return checks.report(
        "example-3.4",
        {"n": 6, "m": 3, "t": 2},
        values,
        "every printed intermediate of the J(6,3)^2 computation",
    )


def run_example_2(node_budget=DEFAULT_BUDGET):
    """Replay of the J(6,4)^2 computation down to depth(S/J^2) = 1."""
    checks = _Checks(node_budget)
    values = {}
    J, Jprime, I, x6 = _cycle_reduction(6, 4)
    J2 = J.power(2)
    checks.expect(
        "J' printed generators",
        Jprime == parse_ideal("x1*x2*x3, x3*x4*x5, x4*x5*x1, x5*x1*x2", 5),
    )
    d_i2 = _depth(I.power(2))
    values["depth_I2"] = d_i2
    checks.expect("depth(S'/I^2) = phi(5,4,2) = 3", d_i2 == 3 == phi(5, 4, 2))
    IJp = I * Jprime
    u = Monomial.from_support((2, 3, 4), 5)
    L = MonomialIdeal.variable_prime((1, 5), 5) * Jprime
    checks.expect("IJ' = x2x3x4 * L", IJp == L.scale(u))
    checks.expect("Lemma-1.5 guard", IJp == IJp.colon(u).scale(u))
    checks.expect("depth(S'/IJ') = depth(S'/L)", _depth(IJp) == _depth(L))
    x3 = Monomial.variable(3, 5)
    Lc = L.colon(x3)
    checks.expect(
        "(L : x3) = (x1,x5)(x1x2, x4x5)",
        Lc
        == MonomialIdeal.variable_prime((1, 5), 5)
        * parse_ideal("x1*x2, x4*x5", 5),
    )
    Ls = L + MonomialIdeal.principal(x3)
    expected_ls = parse_ideal("x1*x5", 5).gens[0]
    checks.expect(
        "(L, x3) = x1x5(x1,x5)(x2,x4) + (x3)",
        Ls
        == (
            MonomialIdeal.variable_prime((1, 5), 5)
            * MonomialIdeal.variable_prime((2, 4), 5)
        ).scale(expected_ls)
        + MonomialIdeal.principal(x3),
    )
    # the two 4-variable model computations (variables x1, x2, x4, x5)
    A = MonomialIdeal.variable_prime((1, 4), 4) * MonomialIdeal.variable_prime((2, 3), 4)
    checks.expect_depth_and_sdepth("model depth (x1,x5)(x2,x4) = 1", A, 1)
    B = MonomialIdeal.variable_prime((1, 4), 4) * parse_ideal("x1*x2, x3*x4", 4)
    checks.expect_depth_and_sdepth("model depth (x1,x5)(x1x2,x4x5) = 2", B, 2)
    checks.expect_depth_and_sdepth("depth(S'/(L,x3)) = 1", Ls, 1)
    checks.expect_depth_and_sdepth("depth(S'/(L:x3)) = 3", Lc, 3)
    checks.expect("depth(S'/L) >= 1", _depth(L) >= 1)
    d2 = _depth(Jprime.power(2))
    values["depth_Jprime2"] = d2
    checks.expect("depth(S'/J'^2) >= 2", d2 >= 2)
    full = Monomial.from_support(range(1, 7), 6)
    colon = J2.colon(full)
    expected = MonomialIdeal.variable_prime((1, 3, 5), 6).intersect(
        MonomialIdeal.variable_prime((2, 4, 6), 6)
    )
    checks.expect("(J^2 : x1..x6) = (x1,x3,x5) cap (x2,x4,x6)", colon == expected)
    checks.expect("depth of the colon quotient = 1", _depth(colon) == 1)
    d_final = _depth(J2)
    values["depth_final"] = d_final
    checks.expect("depth(S/J^2) = 1", d_final == 1)
    # the computed sdepth is reported, not claimed
    s_final = checks.sdepth("sdepth(S/J^2)", J2, values, "sdepth_final_computed")
    if s_final is not None:
        checks.expect("sdepth >= depth", s_final >= d_final)
    return checks.report(
        "example-3.5",
        {"n": 6, "m": 4, "t": 2},
        values,
        "every printed intermediate of the J(6,4)^2 computation",
    )


# ---------------------------------------------------------------------
# registry


def _run_config(config=None):
    """A registry run's settings: `config` over the defaults.

    The one definition of the defaults: run_claims fills every caller's
    config from it, and the `verify` command takes its option defaults
    from it.  A key that is not one of them raises ValueError.
    """
    defaults = {"seed": 0, "node_budget": DEFAULT_BUDGET, "n_max": 7, "t_max": 3}
    unknown = sorted(set(config or ()) - set(defaults))
    if unknown:
        raise ValueError("unknown config keys: %s" % ", ".join(unknown))
    return {**defaults, **(config or {})}


def _grid_lucky(config):
    out = []
    for n in range(3, config["n_max"] + 1):
        for m in range(2, n):
            t0 = t0_alpha(n, m).t0
            for t in (t0, t0 + 1):
                out.append(check_lucky(n, m, t))
    return out


def _cycle_grid(config):
    """(n, m, t) with 3 <= n <= n_max, 2 <= m < n and 1 <= t <= t_max."""
    return [
        (n, m, t)
        for n in range(3, config["n_max"] + 1)
        for m in range(2, n)
        for t in range(1, config["t_max"] + 1)
    ]


CLAIM_IDS = {
    "lemma-1.2": lambda config: [check_lemma_1_2(config["seed"])],
    "lemma-1.4": lambda config: [check_lemma_1_4(config["seed"], config["node_budget"])],
    "lemma-1.5": lambda config: [check_lemma_1_5(config["seed"], config["node_budget"])],
    "lemma-1.6": lambda config: [check_lemma_1_6(config["seed"], config["node_budget"])],
    "lemma-1.7": lambda config: [check_lemma_1_7(config["seed"], config["node_budget"])],
    "engine-agreement": lambda config: [check_engine_agreement(config["seed"])],
    "theorem-1.9": lambda config: [
        check_phi(
            n, m, config["t_max"], with_sdepth=(n <= 5), node_budget=config["node_budget"]
        )
        for n in range(1, config["n_max"] + 1)
        for m in range(1, n + 1)
    ],
    "lemma-1.10": _grid_lucky,
    "lemma-2.1": lambda config: [check_l1(4, 3), check_l1(5, 2), check_l1(6, 1), check_l1(6, 2)],
    "theorem-2.2": lambda config: [
        check_t1(n, t, node_budget=config["node_budget"])
        for (n, t) in ((4, 3), (5, 4), (5, 2), (6, 5))
    ],
    "lemma-2.3": lambda config: [check_inmt2(n, m, t) for (n, m, t) in _cycle_grid(config)],
    "lemma-2.4": lambda config: [
        check_intermed(n, m, t, node_budget=config["node_budget"])
        for (n, m, t) in ((7, 3, 1), (7, 3, 2), (8, 3, 1), (7, 2, 2), (7, 2, 3))
    ],
    # Theorem 2.5 is stated for n >= 2m + 1 only
    "theorem-2.5": lambda config: [
        check_t3(n, m, t) for (n, m, t) in _cycle_grid(config) if n >= 2 * m + 1
    ],
    "theorem-1.11": lambda config: [check_t212(n, m, t) for (n, m, t) in _cycle_grid(config)],
    "theorem-1.8": lambda config: [
        check_teo_iran(I, L, t, node_budget=config["node_budget"])
        for (I, L, t) in (
            (parse_ideal("x1*x2", 2), parse_ideal("x1", 1), 2),
            (path_ideal(3, 2), MonomialIdeal.variable_prime((1, 2), 2), 2),
            (parse_ideal("x1", 1), MonomialIdeal.variable_prime((1,), 2), 1),
        )
    ],
    "lemma-3.1": lambda config: [
        check_inmt(n, m, 2, k, node_budget=config["node_budget"])
        for (n, m) in ((6, 3), (6, 4), (7, 3))
        for k in (1, 2)
    ],
    "prop-3.2": lambda config: [
        check_obsy(n, m, 2, node_budget=config["node_budget"]) for (n, m) in ((6, 3), (6, 4))
    ],
    "prop-3.3": lambda config: [
        check_obsy2(n, m, 2, node_budget=config["node_budget"]) for (n, m) in ((6, 3), (6, 4))
    ],
    "example-3.4": lambda config: [run_example_1(node_budget=config["node_budget"])],
    "example-3.5": lambda config: [run_example_2(node_budget=config["node_budget"])],
}


def run_claims(claim_ids, config=None, jobs=1):
    """Run the requested claims and append the Stanley-inequality report.

    Settings missing from `config` take the registry defaults of
    `_run_config`.  Reports are aggregated deterministically by claim id
    regardless of the execution schedule.
    """
    config = _run_config(config)
    unknown = [c for c in claim_ids if c not in CLAIM_IDS]
    if unknown:
        raise KeyError("unknown claim ids: %s" % ", ".join(unknown))
    ordered = sorted(set(claim_ids))
    results = {}
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {c: pool.submit(CLAIM_IDS[c], config) for c in ordered}
            for c in ordered:
                results[c] = futures[c].result()
    else:
        for c in ordered:
            results[c] = CLAIM_IDS[c](config)
    # a grid that the options leave empty still reports the claim
    grid = {k: config[k] for k in ("n_max", "t_max")}
    empty = "no instance in the grid for " + ", ".join("%s=%s" % kv for kv in grid.items())
    reports = [
        r
        for c in ordered
        for r in results[c] or [ClaimReport(c, grid, {}, "", "skipped", empty)]
    ]
    observed = [o for r in reports for o in r.observed]
    violations = [
        {"ideal": text, "depth": d, "sdepth": s} for (text, d, s) in observed if s < d
    ]
    reports.append(
        ClaimReport(
            "stanley-inequality",
            {"claims": ordered},
            {"quotients_checked": len(observed), "violations": violations},
            "sdepth >= depth on every quotient computed in this run",
            "pass" if not violations else "fail",
            "" if not violations else "counterexample to the verified cases",
        )
    )
    return reports
