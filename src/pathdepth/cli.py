"""Command-line interface.

Subcommands construct the ideal families, evaluate the closed forms,
run the exact depth/sdepth engines, tabulate grids, verify the claim
registry, and export ideals to computer-algebra systems.

Exit codes: 0 success, 1 verification failure (or standard output closed
by its reader before the command finished writing), 2 usage error, 3
budget or cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import asdict

from . import claims
from .depth import (
    DEFAULT_POLARIZATION_CAP,
    PolarizationCapError,
    depth_quotient,
    depth_via_polarization,
)
from .families import cycle_ideal, path_ideal, phi, t0_alpha
from .monomials import parse_ideal
from .sdepth import (
    DEFAULT_BUDGET,
    DEFAULT_POSET_CAP,
    PosetCapError,
    SearchBudgetError,
    partition_to_decomposition,
    sdepth_quotient,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _positive_int(text):
    """A positive integer, or an argparse error (exit 2).

    Reads --budget, --jobs, the --n-max/--t-max grid bounds of verify and
    table, --polarization-cap and --poset-cap.
    """
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer, got %r" % text)
    return value


# ---------------------------------------------------------------------
# deterministic renderers


def render_rows(rows, fmt, out):
    """Rows of {column: scalar} as json, csv, or a markdown table."""
    if fmt == "json":
        out.write(json.dumps(rows, sort_keys=True, indent=2))
        out.write("\n")
        return
    columns = []
    for row in rows:
        for c in row:
            if c not in columns:
                columns.append(c)
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])
        return
    if fmt == "md":
        out.write("| " + " | ".join(columns) + " |\n")
        out.write("|" + "|".join([" --- "] * len(columns)) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(str(row.get(c, "")) for c in columns) + " |\n")
        return
    raise ValueError("unknown format %r" % fmt)


# ---------------------------------------------------------------------
# ideal input


def _family(name, n, m):
    """I(n, m) for "ipath", J(n, m) for "jcycle"."""
    return path_ideal(n, m) if name == "ipath" else cycle_ideal(n, m)


def _ideal_from_args(args):
    if args.family is not None:
        if args.n is None or args.m is None:
            raise ValueError("--family requires --n and --m")
        return _family(args.family, args.n, args.m).power(args.power)
    if args.ideal is None or args.nvars is None:
        raise ValueError("provide either --family with --n/--m, or --ideal with --nvars")
    return parse_ideal(args.ideal, args.nvars).power(args.power)


def _add_ideal_args(sub):
    sub.add_argument("--family", choices=("ipath", "jcycle"))
    sub.add_argument("--n", type=int)
    sub.add_argument("--m", type=int)
    sub.add_argument("--ideal", help="comma-separated monomials, e.g. 'x1^2*x2, x3'")
    sub.add_argument("--nvars", type=int, help="ambient variable count for --ideal")
    sub.add_argument("--power", type=int, default=1)


# ---------------------------------------------------------------------
# export and its round-trip parser

EXPORT_DIALECTS = ("cocoa", "macaulay2")


def export_ideal(ideal, dialect):
    """A script that defines S and I: the interchange text of I, with x<i>
    written x[i] (CoCoA) or x_i (Macaulay2)."""
    if dialect == "cocoa":
        script, var = "use S ::= QQ[x[1..%d]];\nI := ideal(%s);\n", r"x[\1]"
    elif dialect == "macaulay2":
        script, var = "S = QQ[x_1..x_%d];\nI = ideal(%s);\n", r"x_\1"
    else:
        raise ValueError("unknown dialect %r" % dialect)
    return script % (ideal.n_vars, re.sub(r"x(\d+)", var, str(ideal)))


def parse_exported(text):
    """Re-parse a script produced by export_ideal; returns the ideal."""
    ring = re.search(r"x[\[_]1\.\.(?:x_)?(\d+)", text)
    if not ring:
        raise ValueError("cannot find ring declaration")
    body = re.search(r"ideal\((.*)\)", text, re.S)
    if not body:
        raise ValueError("cannot find ideal(...)")
    inner = re.sub(r"x[\[_](\d+)\]?", r"x\1", body.group(1))
    return parse_ideal(inner, int(ring.group(1)))


# ---------------------------------------------------------------------
# subcommand handlers


def _cmd_family(args, out):
    ideal = _family(args.command, args.n, args.m).power(args.power)
    if args.format == "text":
        out.write(str(ideal) + "\n")
    else:
        rows = [{"generator": str(g), "degree": g.degree()} for g in ideal.gens]
        render_rows(rows, args.format, out)
    return EXIT_OK


def _cmd_phi(args, out):
    out.write("%d\n" % phi(args.n, args.m, args.t))
    return EXIT_OK


def _cmd_t0(args, out):
    render_rows([asdict(t0_alpha(args.n, args.m))], args.format, out)
    return EXIT_OK


def _cmd_depth(args, out):
    ideal = _ideal_from_args(args)
    if args.method == "polarization":
        result = depth_via_polarization(ideal, cap=args.polarization_cap)
    else:
        result = depth_quotient(ideal)
    render_rows([result.as_dict()], args.format, out)
    return EXIT_OK


def _cmd_sdepth(args, out):
    ideal = _ideal_from_args(args)
    result = sdepth_quotient(ideal, cap=args.poset_cap, node_budget=args.budget)
    row = {"sdepth": result.sdepth, "poset_size": len(result.poset)}
    render_rows([row], args.format, out)
    if args.certificate:
        for mono, zs in partition_to_decomposition(result.partition, result.poset.g):
            out.write(
                "%s * K[%s]\n"
                % (mono, ", ".join("x%d" % i for i in zs) if zs else "")
            )
    return EXIT_OK


def _cmd_table(args, out):
    rows = []
    budget_hit = False
    for n in range(2, args.n_max + 1):
        m_lo = 1 if args.family == "ipath" else 2
        m_hi = n if args.family == "ipath" else n - 1
        for m in range(m_lo, m_hi + 1):
            for t in range(1, args.t_max + 1):
                ideal = _family(args.family, n, m).power(t)
                row = {"n": n, "m": m, "t": t, "phi": phi(n, m, t),
                       "depth": depth_quotient(ideal).depth}
                if args.sdepth:
                    try:
                        row["sdepth"] = sdepth_quotient(
                            ideal, cap=args.poset_cap, node_budget=args.budget
                        ).sdepth
                    except (PosetCapError, SearchBudgetError):
                        row["sdepth"] = "budget"
                        budget_hit = True
                rows.append(row)
    if not rows:
        raise ValueError("no instance in the grid for n_max=%d" % args.n_max)
    render_rows(rows, args.format, out)
    return EXIT_BUDGET if budget_hit else EXIT_OK


def _cmd_verify(args, out):
    # `run_claims` rejects an unknown id, whether or not --all is given
    ids = sorted(set(args.claims).union(claims.CLAIM_IDS if args.all else ()))
    if not ids:
        sys.stderr.write("no claims selected; use --all or list claim ids\n")
        return EXIT_USAGE
    config = {
        "seed": args.seed,
        "node_budget": args.budget,
        "n_max": args.n_max,
        "t_max": args.t_max,
    }
    reports = claims.run_claims(ids, config=config, jobs=args.jobs)
    rows = [
        {
            "claim_id": r.claim_id,
            "params": json.dumps(r.params, sort_keys=True),
            "verdict": r.verdict,
            "reason": r.reason,
        }
        for r in reports
    ]
    header = {
        "seed": args.seed,
        "node_budget": args.budget,
        "claims": ids,
        "reports": len(rows),
        "failed": sum(r.verdict == "fail" for r in reports),
        "skipped": sum(r.verdict == "skipped" for r in reports),
        # reports with a verdict that still dropped sub-checks over a budget
        "partly_skipped": sum(
            r.verdict != "skipped" and bool(r.values.get("skipped")) for r in reports
        ),
    }
    if args.format == "json":
        out.write(
            json.dumps(
                {"run": header, "reports": [r.as_dict() for r in reports]},
                sort_keys=True,
                indent=2,
                default=str,
            )
        )
        out.write("\n")
    else:
        counts = ("reports", "failed", "skipped", "partly_skipped")
        out.write(
            "seed=%d node_budget=%d %s\n"
            % (args.seed, args.budget, " ".join("%s=%d" % (c, header[c]) for c in counts))
        )
        render_rows(rows, args.format, out)
    return EXIT_FAIL if header["failed"] else EXIT_OK


def _cmd_export(args, out):
    ideal = _ideal_from_args(args)
    script = export_ideal(ideal, args.dialect)
    if parse_exported(script) != ideal:
        sys.stderr.write("internal error: exported script does not round-trip\n")
        return EXIT_FAIL
    out.write(script)
    return EXIT_OK


# ---------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pathdepth",
        description="exact depth and Stanley depth of powers of path ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt_arg(p, default="json", extra=()):
        p.add_argument("--format", choices=("json", "csv", "md") + tuple(extra), default=default)

    for name, graph in (("ipath", "path"), ("jcycle", "cycle")):
        p = sub.add_parser(name, help="m-path ideal of the %s graph" % graph)
        p.add_argument("n", type=int)
        p.add_argument("m", type=int)
        p.add_argument("--power", type=int, default=1)
        fmt_arg(p, default="text", extra=("text",))
        p.set_defaults(func=_cmd_family)

    p = sub.add_parser("phi", help="closed-form depth value")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("t0", help="cycle witness constants d, t0, alpha")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    fmt_arg(p)
    p.set_defaults(func=_cmd_t0)

    p = sub.add_parser("depth", help="exact depth of S/I")
    _add_ideal_args(p)
    p.add_argument("--method", choices=("lattice", "polarization"), default="lattice")
    p.add_argument("--polarization-cap", type=_positive_int, default=DEFAULT_POLARIZATION_CAP)
    fmt_arg(p)
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("sdepth", help="exact Stanley depth of S/I")
    _add_ideal_args(p)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--poset-cap", type=_positive_int, default=DEFAULT_POSET_CAP)
    p.add_argument("--certificate", action="store_true")
    fmt_arg(p)
    p.set_defaults(func=_cmd_sdepth)

    p = sub.add_parser("table", help="grid of depth/phi (optionally sdepth)")
    p.add_argument("--family", choices=("ipath", "jcycle"), required=True)
    p.add_argument("--n-max", type=_positive_int, default=6)
    p.add_argument("--t-max", type=_positive_int, default=2)
    p.add_argument("--sdepth", action="store_true")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--poset-cap", type=_positive_int, default=DEFAULT_POSET_CAP)
    fmt_arg(p, default="csv")
    p.set_defaults(func=_cmd_table)

    defaults = claims._run_config()
    p = sub.add_parser("verify", help="run the claim registry")
    p.add_argument("claims", nargs="*", metavar="CLAIM_ID")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=defaults["seed"])
    p.add_argument("--budget", type=_positive_int, default=defaults["node_budget"])
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--n-max", type=_positive_int, default=defaults["n_max"])
    p.add_argument("--t-max", type=_positive_int, default=defaults["t_max"])
    fmt_arg(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="emit a computer-algebra script")
    _add_ideal_args(p)
    p.add_argument("--dialect", choices=EXPORT_DIALECTS, required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None, out=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args, out or sys.stdout)
        if out is None:
            sys.stdout.flush()
        return code
    except (ValueError, KeyError) as e:
        # str() of a KeyError is the repr of its message
        message = e.args[0] if isinstance(e, KeyError) and e.args else e
        sys.stderr.write("error: %s\n" % (message,))
        return EXIT_USAGE
    except (PolarizationCapError, PosetCapError, SearchBudgetError) as e:
        sys.stderr.write("budget: %s\n" % e)
        return EXIT_BUDGET
    except BrokenPipeError:
        if out is not None:
            raise
        # the reader closed stdout early (`| head`): point stdout at devnull,
        # so that the flush at exit raises no second error, and end quietly
        # with the status Python gives a broken pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
