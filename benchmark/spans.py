"""In-memory spans around the library's layer boundaries, and their arithmetic.

A traced pass wraps the public functions of `pathdepth.monomials`, `depth`,
`sdepth`, `claims` and `cli` from the outside: the library itself is not
changed.  Each wrapped call made while the tracer is active records one
span {name, start, end, parent, attrs}; spans stay in memory until the pass
ends, when `layer_metrics` derives self times and counts from them.
"""

from __future__ import annotations

import hashlib
import inspect
from time import perf_counter

# SearchBudgetError messages name the phase that ran out of budget.  An
# unrecognised message is counted as "other" rather than failing the run.
_PHASES = (
    ("admissible-top pre-check", "precheck"),
    ("interval candidates", "candidates"),
    ("search nodes", "search"),
)

# Calls of one of these functions from inside another of them are part of the
# enclosing span (power multiplies ideals; that work is power's, not arith's).
_FOLDED = ("monomials.",)


def budget_phase(message):
    """Phase named by a SearchBudgetError message: precheck, candidates, search or other."""
    for needle, phase in _PHASES:
        if needle in message:
            return phase
    return "other"


def metric_unit(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s") or name.startswith("claims.claim_s."):
        return "s"
    if name.endswith("_ratio"):
        return "fraction"
    return "count"


def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_times(spans):
    """Per span: duration minus the part of [start, end] its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, span["start"]), min(hi, span["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span["end"] - span["start"] - covered)
    return out


class Tracer:
    """Records spans for wrapped calls while `active` is true."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []

    def wrap(self, name, fn, attrs_of=None):
        """`fn` recording a span called `name`.

        attrs_of(arguments, outcome) gives the span's attrs from the bound
        arguments (defaults applied) and the return value or raised exception.
        """
        folded = name.startswith(_FOLDED)
        signature = inspect.signature(fn) if attrs_of is not None else None

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            if folded and parent is not None:
                if self.spans[parent]["name"].startswith(_FOLDED):
                    return fn(*args, **kwargs)
            span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "attrs": {}}
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            outcome = None
            span["start"] = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as e:
                outcome = e
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
                if attrs_of is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["attrs"] = attrs_of(bound.arguments, outcome)

        wrapper.__wrapped__ = fn
        return wrapper


# ---------------------------------------------------------------------
# what each wrapped function records; parameters are read with .get so that
# a renamed or added parameter in the library does not break a traced run


def _key(*parts):
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:16]


def _lattice_attrs(arguments, out):
    return {"size": len(out.elements)} if hasattr(out, "elements") else {}


def _poset_attrs(arguments, out):
    return {"size": len(out.points)} if hasattr(out, "points") else {}


def _partition_attrs(arguments, out):
    if not isinstance(out, Exception):
        outcome = "decided"
    elif type(out).__name__ == "SearchBudgetError":
        outcome = "skip:" + budget_phase(str(out))
    else:
        outcome = "error"
    poset = arguments.get("poset")
    points = getattr(poset, "points", ())
    key = _key(getattr(poset, "g", None), len(points), hash(tuple(points)), arguments.get("k"),
               arguments.get("node_budget"))
    return {"outcome": outcome, "key": key}


def _sdepth_quotient_attrs(arguments, out):
    ideal = arguments.get("ideal")
    gens = [g.exponents for g in getattr(ideal, "gens", ())]
    return {"key": _key(getattr(ideal, "n_vars", None), gens, arguments.get("node_budget"),
                        arguments.get("cap"))}


def install(tracer):
    """Wrap the layer functions in their modules and in every namespace that imported them.

    `claims` and `cli` bind engine functions by name, and `betti` and
    `sdepth_quotient` reach their siblings through module globals, so a
    wrapper replaces each binding of the original function object.
    """
    import pathdepth
    from pathdepth import claims, cli, depth, families, monomials, sdepth

    namespaces = (pathdepth, monomials, families, depth, sdepth, claims, cli)
    functions = (
        (depth, "build_lcm_lattice", "depth.lattice", _lattice_attrs),
        (depth, "reduced_homology", "depth.homology", None),
        (depth, "betti", "depth.betti", None),
        (depth, "depth_quotient", "depth.quotient", None),
        (depth, "depth_via_polarization", "depth.polarization", None),
        (sdepth, "build_poset", "sdepth.poset", _poset_attrs),
        (sdepth, "has_partition_min_label", "sdepth.partition", _partition_attrs),
        (sdepth, "sdepth_quotient", "sdepth.quotient", _sdepth_quotient_attrs),
        (sdepth, "verify_partition", "sdepth.verify", None),
        (claims, "run_claims", "claims.run", None),
        (cli, "main", "cli.main", None),
    )
    for module, attr, name, attrs_of in functions:
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, attrs_of)
        for ns in namespaces:
            if ns.__dict__.get(attr) is original:
                setattr(ns, attr, wrapped)
    ideal = monomials.MonomialIdeal
    ideal.power = tracer.wrap("monomials.power", ideal.power)
    for attr in ("__add__", "__mul__", "colon", "intersect", "scale"):
        setattr(ideal, attr, tracer.wrap("monomials.arith", getattr(ideal, attr)))
    for claim_id, run in list(claims.CLAIM_IDS.items()):
        claims.CLAIM_IDS[claim_id] = tracer.wrap("claims.claim:" + claim_id, run)


# ---------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans, claim_ids=()):
    """Per-layer self times (s), counts and ratios derived from one pass's spans."""
    own = self_times(spans)
    time_of, calls_of, size_of = {}, {}, {}
    for span, t in zip(spans, own):
        name = span["name"]
        time_of[name] = time_of.get(name, 0.0) + t
        calls_of[name] = calls_of.get(name, 0) + 1
        size_of[name] = size_of.get(name, 0) + span["attrs"].get("size", 0)

    outcomes = {}
    for span in spans:
        if span["name"] == "sdepth.partition":
            outcome = span["attrs"]["outcome"]
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    partition_calls = calls_of.get("sdepth.partition", 0)

    def from_claim(span):
        parent = span["parent"]
        return parent is not None and spans[parent]["name"].startswith("claims.claim:")

    depth_engine = sdepth_engine = sdepth_repeats = 0
    tried = set()
    for span in spans:
        if not from_claim(span):
            continue
        if span["name"] in ("depth.quotient", "depth.polarization"):
            depth_engine += 1
        elif span["name"] in ("sdepth.quotient", "sdepth.partition"):
            sdepth_engine += 1
            key = (span["name"], span["attrs"]["key"])
            sdepth_repeats += key in tried
            tried.add(key)

    metrics = {
        "monomials.power_s": time_of.get("monomials.power", 0.0),
        "monomials.power_calls": calls_of.get("monomials.power", 0),
        "monomials.arith_s": time_of.get("monomials.arith", 0.0),
        "monomials.arith_calls": calls_of.get("monomials.arith", 0),
        "depth.lattice_s": time_of.get("depth.lattice", 0.0),
        "depth.lattice_size": size_of.get("depth.lattice", 0),
        "depth.homology_s": time_of.get("depth.homology", 0.0),
        "depth.homology_calls": calls_of.get("depth.homology", 0),
        "depth.betti_self_s": time_of.get("depth.betti", 0.0),
        # the whole polarization route, its Betti table included
        "depth.polarization_s": sum(
            s["end"] - s["start"] for s in spans if s["name"] == "depth.polarization"
        ),
        "sdepth.poset_s": time_of.get("sdepth.poset", 0.0),
        "sdepth.poset_size": size_of.get("sdepth.poset", 0),
        "sdepth.partition_s": time_of.get("sdepth.partition", 0.0),
        "sdepth.partition_calls": partition_calls,
        "sdepth.decided_ratio": (
            outcomes.get("decided", 0) / partition_calls if partition_calls else 0.0
        ),
        "sdepth.skip_precheck": outcomes.get("skip:precheck", 0),
        "sdepth.skip_candidates": outcomes.get("skip:candidates", 0),
        "sdepth.skip_search": outcomes.get("skip:search", 0),
        "sdepth.skip_other": outcomes.get("skip:other", 0),
        "sdepth.verify_s": time_of.get("sdepth.verify", 0.0),
        "claims.depth_engine_calls": depth_engine,
        "claims.sdepth_engine_calls": sdepth_engine,
        "claims.sdepth_repeat_ratio": sdepth_repeats / sdepth_engine if sdepth_engine else 0.0,
        "cli.self_s": time_of.get("cli.main", 0.0),
    }
    for claim_id in claim_ids:
        metrics["claims.claim_s." + claim_id] = time_of.get("claims.claim:" + claim_id, 0.0)
    return metrics
