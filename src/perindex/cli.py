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

import functools
import json
import os
import sys
from types import SimpleNamespace

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
    text = _json_text(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return payload, [f"wrote {args.out}"], []
    return payload, [text], []


# The grammar of every subcommand, declared once: its help line, then each
# argument as (name, add_argument keywords), in the order the parser adds
# them after --json.  A tuple of arguments is a mutually exclusive group.
# build_parser builds argparse from this table, and _read reads a
# well-formed command line from it alone.
_JSON = ("--json", {"action": "store_true", "help": "emit a JSON envelope"})
_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}
_ORDERS = ("--orders", {"required": True, "help": "comma-separated cup-power orders o1,o2,..."})
_TABLES = ("--tables", {"help": "JSON file extending the stable exponent tables"})
_GRAMMAR = {
    "m": ("gcd of the binomial coefficients C(a,1..s)", [("a", _INT), ("s", _INT)]),
    "n": (
        "the divisor forced on any degree whose binomial gcd retains b",
        [("b", _INT), ("s", _INT)],
    ),
    "kummer": (
        "carries when adding a and b in base p",
        [("p", _INT), ("a", _INT), ("b", _INT)],
    ),
    "upper-bound": (
        "upper bound on the index from dimension and period",
        [
            ("--dim", _REQUIRED_INT),
            ("--period", _REQUIRED_INT),
            # the half-dimension bound reads no exponent table
            (
                (
                    "--prime-power",
                    {
                        "action": "store_true",
                        "help": "use the half-dimension bound (period must be a prime power, 2l > d+1)",
                    },
                ),
                _TABLES,
            ),
        ],
    ),
    "lower-bound": (
        "lower bound from the universal-space skeleton",
        [("--period", _REQUIRED_INT), ("--skeleton", _REQUIRED_INT)],
    ),
    "sandwich": (
        "both bounds for the skeleton class; asserts lower | upper",
        [("--period", _REQUIRED_INT), ("--skeleton", _REQUIRED_INT)],
    ),
    "pu-order": (
        "order of the s-th cup power of the degree-2 generator",
        [("n", _INT), ("s", _INT)],
    ),
    "admissible": (
        "can a degree-N algebra carry these cup-power orders",
        [("--degree", _REQUIRED_INT), _ORDERS],
    ),
    "min-degree": ("smallest admissible degree up to a cap", [_ORDERS, ("--cap", _REQUIRED_INT)]),
    "per-ind-check": ("per | ind with equal prime support", [("per", _INT), ("ind", _INT)]),
    "cohomology": (
        "exact cohomology of a chain complex JSON file",
        [
            ("file", {}),
            ("--mod", {"type": int, "help": "coefficients Z/R instead of Z"}),
            ("--degree", {"type": int, "help": "single degree instead of all"}),
        ],
    ),
    "bockstein": (
        "connecting map of the mod-r coefficient sequence",
        [("file", {}), ("--degree", _REQUIRED_INT), ("--mod", _REQUIRED_INT)],
    ),
    "ahss-bound": (
        "combined upper bound from concrete cohomology",
        [
            ("file", {"nargs": "?", "help": "chain complex JSON (requires --period)"}),
            ("--shape", {"help": "twisted shape JSON {d, r, h}"}),
            ("--period", _INT),
            _TABLES,
        ],
    ),
    "fixtures": (
        "emit built-in complexes as JSON",
        [
            ("action", {"choices": ["emit"]}),
            ("name", {"help": _FIXTURE_HELP}),
            ("--out", {"help": "write to a file instead of stdout"}),
        ],
    ),
}


def _groups(command: str):
    """command's arguments, --json first, each as a group: a tuple that
    holds one argument, or the two or more of a mutually exclusive group."""
    for entry in (_JSON, *_GRAMMAR[command][1]):
        yield (entry,) if isinstance(entry[0], str) else entry


def build_parser() -> argparse.ArgumentParser:
    """The perindex argparse parser, built from _GRAMMAR."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="perindex",
        description="Exact divisibility bounds for the topological period-index problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _GRAMMAR.items():
        p = sub.add_parser(command, help=help_text)
        for group in _groups(command):
            adder = p.add_mutually_exclusive_group() if len(group) > 1 else p
            for name, keywords in group:
                adder.add_argument(name, **keywords)
    return parser


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


@functools.cache
def _reading(command: str):
    """What _read needs of command's grammar: the namespace defaults in
    argparse's order, a map from each option's spelling to (dest, takes a
    value, type, choices, the dests of its exclusive rivals), the required
    options' dests, and the positionals as (dest, type, choices, optional)."""
    defaults = {"command": command}
    options, required, positionals = {}, set(), []
    for group in _groups(command):
        for name, keywords in group:
            dest = _dest(name)
            flag = keywords.get("action") == "store_true"
            convert, choices = keywords.get("type"), keywords.get("choices")
            if name.startswith("-"):
                rivals = tuple(_dest(other) for other, _ in group if other != name)
                options[name] = (dest, not flag, convert, choices, rivals)
                if keywords.get("required"):
                    required.add(dest)
            else:
                positionals.append((dest, convert, choices, keywords.get("nargs") == "?"))
            defaults[dest] = False if flag else None
    return defaults, options, frozenset(required), positionals


def _read(argv: list[str]):
    """The namespace argparse gives argv, read from _GRAMMAR without argparse,
    or None when argv is not well formed.  Well formed: a subcommand, then
    tokens each of which is the exact spelling of one of its options, given
    once and without an exclusive rival, the value after an option that
    takes one, or a positional; no value or positional is empty or starts
    with "-".  Every positional and required option is present, and every
    type conversion and choice holds.  An optional positional is taken only
    as the first token: after an option, argparse versions may differ."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    defaults, options, required, positionals = _reading(argv[0])
    values = dict(defaults)
    given = set()
    count = 0
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        i += 1
        if token in options:
            dest, takes_value, convert, choices, rivals = options[token]
            if dest in given or not given.isdisjoint(rivals):
                return None
            given.add(dest)
            if not takes_value:
                values[dest] = True
                continue
            if i == end:
                return None
            token = argv[i]
            i += 1
        elif count < len(positionals) and (i == 2 or not positionals[count][3]):
            dest, convert, choices, _ = positionals[count]
            count += 1
        else:
            return None
        if not token or token[0] == "-":
            return None
        if convert is not None:
            try:
                token = convert(token)
            except (TypeError, ValueError):
                return None
        if choices is not None and token not in choices:
            return None
        values[dest] = token
    if not required <= given or any(not optional for *_, optional in positionals[count:]):
        return None
    return SimpleNamespace(**values)


def _inputs_dict(args) -> dict:
    skip = {"command", "json"}
    return {k: v for k, v in vars(args).items() if k not in skip}


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, without the standard
    library's pure-Python encoder, which json.dumps runs whenever indent is
    set.  Dicts with string keys, lists and tuples are written here, and so
    are strings, ints, booleans and None; any other value, such as a float
    or a dict with a key that is not a string, is left to json.dumps."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append the text of obj to out; newline is the line break and indent
    that precede obj's closing bracket.  Strings never hold a raw line
    break, as json escapes it, so json.dumps text is re-indented by
    replacing each line break."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        separator, comma = inner, "," + inner
        out.append("[")
        for item in obj:
            out.append(separator)
            _write_json(item, inner, out)
            separator = comma
        out.append(newline + "]")
    elif isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        separator, comma = inner, "," + inner
        out.append("{")
        for key, value in obj.items():
            out.append(separator)
            out.append(_encode_str(key))
            out.append(": ")
            _write_json(value, inner, out)
            separator = comma
        out.append(newline + "}")
    else:
        out.append(json.dumps(obj, indent=2).replace("\n", newline))


# A well-formed command line, such as every query of the bounds-cli
# benchmark, is read by _read and never builds a parser or imports argparse.
# Any other (help, a usage error, --opt=value, an abbreviation, "--", a
# repeated option, a value that starts with "-") goes unchanged to _PARSER,
# which main builds on its first such call and reuses: parsing reads it and
# never changes it.  Both give the same namespace, in the same order, so
# main's output and exit code do not depend on which one read the line.
# Reading kummer 2 4 4 --json takes about 2.5 us against argparse's 22 us,
# and the median bounds-cli call fell from 0.126 to 0.059 ms (ten 35 s runs
# each, shared 2-vCPU host, CPython 3.11).  The parser holds no handler;
# main looks up _cmd_<command> in the module when it dispatches, so a
# handler replaced after the first call is the one that runs.
_PARSER: argparse.ArgumentParser | None = None


def _parse_args(argv):
    global _PARSER
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        if _PARSER is None:
            _PARSER = build_parser()
        args = _PARSER.parse_args(argv)
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
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
        print(_json_text(envelope))
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
