"""Command-line front end.

Subcommands cover every computation in the library: the binomial-gcd
functions, carry counts, the upper and lower index bounds, cup-power
admissibility, exact cohomology of a cellular complex loaded from JSON, the
mod-r connecting map, and fixture emission.  Every subcommand takes --json to
emit a machine-readable envelope {command, inputs, result, citations}.

Exit codes: 0 on success, 1 on a domain error (one ``error:`` line on
stderr), 2 on a usage error, 3 when an internal consistency check fails (one
``internal error:`` line on stderr; a defect in perindex, not in the input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# homology and ahss, the Smith-normal-form engine, are imported by the file
# commands that use them: a bounds query never loads them.
from . import bounds
from .numtheory import kummer_carries, m_closed, n_func
from .stable_tables import load_exponent_table

_FIXTURE_HELP = "fixture names: bzr-R-D, sphere-N, rp-N (e.g. bzr-2-9, sphere-4, rp-2)"


def _entry_dict(entry) -> dict:
    return {"value": entry.value, "provenance": entry.provenance}


def _report_dict(report: bounds.BoundReport) -> dict:
    return {
        "bound": report.bound,
        "known": report.known,
        "kind": report.kind,
        "theorem": report.theorem,
        "factors": [
            {"index": j, **_entry_dict(entry)} for j, entry in report.factors
        ],
        "partial_product": report.partial_product,
        "assumptions": list(report.assumptions),
    }


def _group_dict(g: homology.CohomologyGroup) -> dict:
    return {"degree": g.degree, "free_rank": g.free_rank, "torsion": list(g.torsion)}


def _report_lines(report: bounds.BoundReport) -> list[str]:
    lines = [f"{report.describe()}   [{report.theorem}]"]
    for j, entry in report.factors:
        shown = entry.value if entry.known else "unknown"
        lines.append(f"  j={j}: {shown} ({entry.provenance})")
    lines.extend(f"  note: {a}" for a in report.assumptions)
    return lines


def _load_table(args):
    path = getattr(args, "tables", None)
    return load_exponent_table(path) if path else None


def _cmd_m(args):
    value = m_closed(args.a, args.s)
    return value, [str(value)], ["binomial-gcd"]


def _cmd_n(args):
    value = n_func(args.b, args.s)
    return value, [str(value)], ["degree-forcing-function"]


def _cmd_kummer(args):
    value = kummer_carries(args.p, args.a, args.b)
    return value, [str(value)], ["base-p-carry-count"]


def _cmd_upper_bound(args):
    table = _load_table(args)
    if args.prime_power:
        report = bounds.upper_bound_prime_power(args.dim, args.period)
    else:
        report = bounds.upper_bound_product(args.dim, args.period, table)
    return _report_dict(report), _report_lines(report), [report.theorem]


def _cmd_lower_bound(args):
    report = bounds.lower_bound_skeleton(args.period, args.skeleton)
    return _report_dict(report), _report_lines(report), [report.theorem]


def _cmd_sandwich(args):
    lower = bounds.lower_bound_skeleton(args.period, args.skeleton)
    upper = bounds.upper_bound_product(args.skeleton + 1, args.period)
    lines = _report_lines(lower) + _report_lines(upper)
    if upper.known:
        if upper.bound % lower.bound != 0:
            raise RuntimeError(
                f"sandwich violated: lower bound {lower.bound} does not divide "
                f"upper bound {upper.bound}"
            )
        lines.append(f"coherent: {lower.bound} | {upper.bound}")
    else:
        lines.append("upper bound unknown; divisibility not checked")
    payload = {"lower": _report_dict(lower), "upper": _report_dict(upper)}
    return payload, lines, [lower.theorem, upper.theorem]


def _cmd_pu_order(args):
    value = bounds.pu_eta_power_order(args.n, args.s)
    return value, [str(value)], [bounds.TAG_PU_ORDER]


def _parse_orders(text: str) -> bounds.OrdersProfile:
    try:
        orders = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--orders must be comma-separated integers: {exc}") from exc
    return bounds.OrdersProfile(orders[0], orders)


def _cmd_admissible(args):
    profile = _parse_orders(args.orders)
    ok = bounds.degree_admissible(args.degree, profile)
    return ok, ["admissible" if ok else "not admissible"], [bounds.TAG_OBSTRUCTION]


def _cmd_min_degree(args):
    profile = _parse_orders(args.orders)
    result = bounds.min_admissible_degree(profile, args.cap)
    if result is None:
        line = f"none-found (the least admissible degree exceeds the cap {args.cap})"
        return None, [line], [bounds.TAG_OBSTRUCTION]
    return result, [str(result)], [bounds.TAG_OBSTRUCTION, "degree-forcing-function"]


def _cmd_per_ind_check(args):
    ok = bounds.check_per_ind_consistency(args.per, args.ind)
    line = "consistent" if ok else "inconsistent: per must divide ind and share its primes"
    return ok, [line], [bounds.TAG_CONSISTENCY]


def _cmd_cohomology(args):
    from . import homology
    complex_ = homology.load_chain_complex(args.file)
    degrees = [args.degree] if args.degree is not None else list(range(complex_.top_dim + 1))
    groups = []
    for k in degrees:
        if args.mod is not None:
            groups.append(homology.cohomology_mod(complex_, k, args.mod))
        else:
            groups.append(homology.cohomology_Z(complex_, k))
    coeff = f"Z/{args.mod}" if args.mod is not None else "Z"
    lines = [f"H^{g.degree}({complex_.name or 'X'}; {coeff}) = {g}" for g in groups]
    payload = [_group_dict(g) for g in groups]
    if args.degree is not None:
        payload = payload[0]
    return payload, lines, ["smith-normal-form"]


def _cmd_bockstein(args):
    from . import homology
    complex_ = homology.load_chain_complex(args.file)
    beta = homology.bockstein(complex_, args.degree, args.mod)
    lines = [
        f"beta: H^{beta.degree}(X; Z/{beta.modulus}) -> H^{beta.degree + 1}(X; Z)",
        f"source: {beta.source}",
        f"target: {beta.target}",
        f"matrix (target generators x source generators): {beta.matrix.to_lists()}",
    ]
    payload = {
        "degree": beta.degree,
        "modulus": beta.modulus,
        "source": _group_dict(beta.source),
        "target": _group_dict(beta.target),
        "matrix": beta.matrix.to_lists(),
        "source_orders": list(beta.source_orders),
        "target_orders": list(beta.target_orders),
    }
    return payload, lines, ["coefficient-bockstein"]


def _cmd_ahss_bound(args):
    from . import ahss, homology
    if (args.file is None) == (args.shape is None):
        raise ValueError("provide exactly one of FILE (a chain complex) or --shape FILE")
    if args.file is not None:
        if args.period is None:
            raise ValueError("--period is required with a chain-complex FILE")
        complex_ = homology.load_chain_complex(args.file)
        # refused here, before the cohomology of every degree is computed
        bounds.check_dimension(complex_.top_dim)
        shape = ahss.TwistedShape.from_complex(complex_, args.period)
    else:
        shape = ahss.load_twisted_shape(args.shape)
        if args.period is not None and args.period != shape.r:
            raise ValueError(
                f"--period {args.period} disagrees with the shape file period {shape.r}"
            )
    table = _load_table(args)
    report = ahss.best_upper_bound(shape, table)
    payload = {
        "shape": shape.to_json_dict(),
        "bound": _report_dict(report),
    }
    return payload, _report_lines(report), [report.theorem, ahss.TAG_AHSS, bounds.TAG_PRODUCT]


def _build_fixture(name: str) -> homology.ChainComplex:
    from . import homology
    tokens = name.split("-")
    if not all(tok.isdigit() for tok in tokens[1:]):
        raise ValueError(f"unknown fixture name {name!r}; {_FIXTURE_HELP}")
    if tokens[0] == "bzr" and len(tokens) == 3:
        return homology.bzr_skeleton_complex(int(tokens[1]), int(tokens[2]))
    if tokens[0] == "sphere" and len(tokens) == 2:
        return homology.sphere_complex(int(tokens[1]))
    if tokens[0] == "rp" and len(tokens) == 2:
        return homology.rp_complex(int(tokens[1]))
    raise ValueError(f"unknown fixture name {name!r}; {_FIXTURE_HELP}")


def _cmd_fixtures(args):
    from . import homology
    payload = homology.chain_complex_to_json(_build_fixture(args.name))
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return payload, [f"wrote {args.out}"], []
    return payload, [text], []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perindex",
        description="Exact divisibility bounds for the topological period-index problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        return p

    p = add("m", "gcd of the binomial coefficients C(a,1..s)")
    p.add_argument("a", type=int)
    p.add_argument("s", type=int)

    p = add("n", "the divisor forced on any degree whose binomial gcd retains b")
    p.add_argument("b", type=int)
    p.add_argument("s", type=int)

    p = add("kummer", "carries when adding a and b in base p")
    p.add_argument("p", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add("upper-bound", "upper bound on the index from dimension and period")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--period", type=int, required=True)
    # the half-dimension bound reads no exponent table
    bound = p.add_mutually_exclusive_group()
    bound.add_argument(
        "--prime-power",
        action="store_true",
        help="use the half-dimension bound (period must be a prime power, 2l > d+1)",
    )
    bound.add_argument("--tables", help="JSON file extending the stable exponent tables")

    p = add("lower-bound", "lower bound from the universal-space skeleton")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--skeleton", type=int, required=True)

    p = add("sandwich", "both bounds for the skeleton class; asserts lower | upper")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--skeleton", type=int, required=True)

    p = add("pu-order", "order of the s-th cup power of the degree-2 generator")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)

    p = add("admissible", "can a degree-N algebra carry these cup-power orders")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--orders", required=True, help="comma-separated cup-power orders o1,o2,...")

    p = add("min-degree", "smallest admissible degree up to a cap")
    p.add_argument("--orders", required=True, help="comma-separated cup-power orders o1,o2,...")
    p.add_argument("--cap", type=int, required=True)

    p = add("per-ind-check", "per | ind with equal prime support")
    p.add_argument("per", type=int)
    p.add_argument("ind", type=int)

    p = add("cohomology", "exact cohomology of a chain complex JSON file")
    p.add_argument("file")
    p.add_argument("--mod", type=int, help="coefficients Z/R instead of Z")
    p.add_argument("--degree", type=int, help="single degree instead of all")

    p = add("bockstein", "connecting map of the mod-r coefficient sequence")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mod", type=int, required=True)

    p = add("ahss-bound", "combined upper bound from concrete cohomology")
    p.add_argument("file", nargs="?", help="chain complex JSON (requires --period)")
    p.add_argument("--shape", help="twisted shape JSON {d, r, h}")
    p.add_argument("--period", type=int)
    p.add_argument("--tables", help="JSON file extending the stable exponent tables")

    p = add("fixtures", "emit built-in complexes as JSON")
    p.add_argument("action", choices=["emit"])
    p.add_argument("name", help=_FIXTURE_HELP)
    p.add_argument("--out", help="write to a file instead of stdout")

    return parser


def _inputs_dict(args) -> dict:
    skip = {"command", "json"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# The parser main builds on its first call and reuses: parsing reads it and
# never changes it, and building it costs ten times more than most queries.
# It holds no handler; main looks up _cmd_<command> in the module when it
# dispatches, so a handler replaced after the first call is the one that runs.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        payload, lines, citations = handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.json:
        envelope = {
            "command": args.command,
            "inputs": _inputs_dict(args),
            "result": payload,
            "citations": citations,
        }
        print(json.dumps(envelope, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


def console_main() -> None:
    # stdout closed early: exit 1 quietly, on devnull so the flush at exit cannot fail
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
