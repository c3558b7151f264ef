"""CLI tests: output shapes, JSON envelopes, golden schema, exit codes."""

import contextlib
import functools
import io
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perindex import ahss, bounds, cli, numtheory
from perindex.bounds import KIND_UPPER, MAX_DIM, TAG_PRODUCT, BoundReport
from perindex.cli import main
from perindex.homology import MAX_CELLS, bzr_skeleton_complex, chain_complex_to_json
from perindex.numtheory import factorize

from brute_force import m_oracle, n_oracle


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one main call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_m_command(capsys):
    code, out, _ = run(capsys, "m", "4", "2")
    assert code == 0
    assert out.strip() == "2"


def test_m_golden_envelope(capsys):
    assert run_json(capsys, "m", "4", "2") == {
        "command": "m",
        "inputs": {"a": 4, "s": 2},
        "result": 2,
        "citations": ["binomial-gcd"],
    }


def test_n_and_kummer(capsys):
    assert run(capsys, "n", "2", "2")[1].strip() == "4"
    assert run(capsys, "kummer", "2", "4", "4")[1].strip() == "1"


def test_upper_bound_human_output(capsys):
    code, out, _ = run(capsys, "upper-bound", "--dim", "6", "--period", "2")
    assert code == 0
    assert "ind divides 64" in out
    assert "stable-exponent-product" in out
    for j, value in enumerate([2, 2, 8, 2, 1], start=1):
        assert f"j={j}: {value}" in out


def test_upper_bound_golden_envelope(capsys):
    doc = run_json(capsys, "upper-bound", "--dim", "6", "--period", "2")
    assert doc["result"] == {
        "bound": 64,
        "known": True,
        "kind": "upper",
        "theorem": "stable-exponent-product",
        "factors": [
            {"index": 1, "value": 2, "provenance": "formula-range"},
            {"index": 2, "value": 2, "provenance": "shipped-table"},
            {"index": 3, "value": 8, "provenance": "shipped-table"},
            {"index": 4, "value": 2, "provenance": "shipped-table"},
            {"index": 5, "value": 1, "provenance": "shipped-table"},
        ],
        "partial_product": 64,
        "assumptions": [],
    }


def test_envelope_roundtrips_exactly(capsys):
    first = run_json(capsys, "upper-bound", "--dim", "8", "--period", "2")
    second = run_json(capsys, "upper-bound", "--dim", "8", "--period", "2")
    assert first == second
    assert first["result"]["bound"] is None
    assert first["result"]["partial_product"] == 64


def test_lower_bound(capsys):
    code, out, _ = run(capsys, "lower-bound", "--period", "2", "--skeleton", "5")
    assert code == 0
    assert "4 divides ind" in out


def test_sandwich(capsys):
    code, out, _ = run(capsys, "sandwich", "--period", "2", "--skeleton", "5")
    assert code == 0
    assert "4 divides ind" in out
    assert "ind divides 64" in out
    assert "coherent: 4 | 64" in out


def test_sandwich_violation_is_an_internal_error(capsys, monkeypatch):
    # both bounds come from the period and the skeleton alone, so a lower
    # bound that does not divide the upper one is a defect, not bad input
    monkeypatch.setattr(
        bounds, "upper_bound_product", lambda d, r: BoundReport(6, KIND_UPPER, TAG_PRODUCT)
    )
    code, out, err = run(capsys, "sandwich", "--period", "2", "--skeleton", "5")
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "internal error: RuntimeError: sandwich violated: lower bound 4 does not divide "
        "upper bound 6"
    ]


def test_prime_power_flag_and_hypothesis_failure(capsys):
    code, out, _ = run(capsys, "upper-bound", "--dim", "4", "--period", "3", "--prime-power")
    assert code == 0
    assert "ind divides 9" in out
    code, _, err = run(capsys, "upper-bound", "--dim", "6", "--period", "9", "--prime-power")
    assert code == 1
    assert "HypothesisViolatedError" in err
    code, out, err = run(capsys, "upper-bound", "--dim", "3", "--period", "6", "--prime-power")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: HypothesisViolatedError: prime-power bound needs a prime-power period, got 6"
    ]


def test_prime_power_bound_refuses_a_table(tmp_path, capsys):
    # the half-dimension bound reads no table, so accepting one would hide that
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"table": [{"r": 3, "j": 2, "invariant_factors": [3]}]}))
    code, out, _ = run(capsys, "upper-bound", "--dim", "4", "--period", "3", "--tables", str(path))
    assert code == 0
    assert "ind divides" in out
    for flags in (["--prime-power", "--tables", str(path)], ["--tables", str(path), "--prime-power"]):
        code, out, err = run(capsys, "upper-bound", "--dim", "4", "--period", "3", *flags)
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["upper-bound", "--dim", str(MAX_DIM + 1), "--period", "2"],
        ["upper-bound", "--dim", str(MAX_DIM + 1), "--period", str(2**61 - 1), "--prime-power"],
        ["sandwich", "--period", "2", "--skeleton", str(MAX_DIM)],
        ["ahss-bound", "--shape"],
        ["ahss-bound", "--period", "2"],
    ],
)
def test_dimension_above_the_cap_is_refused(tmp_path, capsys, monkeypatch, argv):
    path = tmp_path / "doc.json"
    if argv[-1] == "--shape":
        groups = [{"free_rank": 1}] + [{}] * (MAX_DIM + 1)
        path.write_text(json.dumps({"d": MAX_DIM + 1, "r": 2, "h": groups}))
        argv = argv + [str(path)]
    elif argv[0] == "ahss-bound":
        path.write_text(json.dumps(chain_complex_to_json(bzr_skeleton_complex(2, MAX_DIM + 1))))
        argv = argv + [str(path)]

        def no_cohomology(*args):  # the refusal must come before any group is computed
            raise AssertionError("cohomology computed before the dimension check")

        monkeypatch.setattr(ahss, "cohomology_Z", no_cohomology)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: ValueError: dimension {MAX_DIM + 1} exceeds the limit of {MAX_DIM}"
    ]


def test_dimension_at_the_cap_is_accepted(capsys):
    code, out, err = run(capsys, "upper-bound", "--dim", str(MAX_DIM), "--period", "2")
    assert code == 0, err
    assert "upper bound unknown" in out


def test_repeated_table_row_is_refused(tmp_path, capsys):
    # resolved by row order, the two rows would give 243 here and 27 swapped
    path = tmp_path / "tables.json"
    rows = [{"r": 3, "j": 5, "invariant_factors": [3]}, {"r": 3, "j": 5, "invariant_factors": [27]}]
    path.write_text(json.dumps({"table": rows}))
    code, out, err = run(capsys, "upper-bound", "--dim", "7", "--period", "3", "--tables", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: ValueError: table has more than one row for (r=3, j=5)"
    ]


def test_large_support_checks_are_exact(tmp_path, capsys):
    m, n = 2**2203 - 1, 2**2281 - 1  # Mersenne primes, beyond is_prime's exact bound
    code, out, err = run(capsys, "per-ind-check", str(m), str(m * n))
    assert (code, err) == (0, "")
    assert out.startswith("inconsistent")
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"table": [{"r": 2, "j": 7, "invariant_factors": [m * n]}]}))
    code, out, err = run(capsys, "upper-bound", "--dim", "8", "--period", "2", "--tables", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert "prime support outside that of r" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["upper-bound", "--dim", "six", "--period", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "m", "0", "1")
    assert code == 1
    assert "ValueError" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    def failing_check(args):
        raise RuntimeError("Smith decomposition failed: U A V != D")

    monkeypatch.setattr(cli, "_cmd_m", failing_check)
    code, out, err = run(capsys, "m", "4", "2")
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["internal error: RuntimeError: Smith decomposition failed: U A V != D"]


@pytest.mark.parametrize("period", ["10000000000000061", "2305843009213693951"])
def test_upper_bound_large_prime_period(capsys, period):
    code, out, err = run(capsys, "upper-bound", "--dim", "5", "--period", period)
    assert code == 0, err
    assert "ind divides" in out


def test_upper_bound_uncertifiable_period_is_refused(capsys):
    # a strong pseudoprime to every base up to 41: it can be neither certified nor trusted
    code, out, err = run(capsys, "upper-bound", "--dim", "5", "--period", "3317044064679887385961981")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_pu_order_and_admissible(capsys):
    assert run(capsys, "pu-order", "4", "2")[1].strip() == "2"
    assert run(capsys, "admissible", "--degree", "4", "--orders", "2,2")[1].strip() == "admissible"
    code, out, _ = run(capsys, "admissible", "--degree", "2", "--orders", "2,2")
    assert out.strip() == "not admissible"
    assert code == 0


def test_min_degree(capsys):
    assert run(capsys, "min-degree", "--orders", "2,2", "--cap", "100")[1].strip() == "4"
    code, out, _ = run(capsys, "min-degree", "--orders", "7,7", "--cap", "6")
    assert code == 0
    assert "none-found" in out
    assert "exceeds the cap 6" in out


def test_min_degree_past_the_cap_factors_nothing(capsys, monkeypatch):
    # r divides the forced divisor, so an r past the cap answers before any
    # order is factored; rho cannot split this semiprime within its budget
    factored = []

    def counted(a):
        factored.append(a)
        return factorize(a)

    monkeypatch.setattr(numtheory, "factorize", counted)
    hard = 2787593149816327892763980872944807277756691
    code, out, _ = run(capsys, "min-degree", "--orders", f"{hard},{hard}", "--cap", "5")
    assert code == 0
    assert out.strip() == "none-found (the least admissible degree exceeds the cap 5)"
    assert factored == []


def test_hard_degrees_and_periods_are_answered(capsys):
    # rho cannot split hard within its budget; m, n and the skeleton bound
    # read lcm(1..s) and factor nothing
    hard = 2787593149816327892763980872944807277756691
    degree = 4 * hard
    for argv in (("m", str(degree), "2"), ("pu-order", str(degree), "2")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), err
        assert out == "5575186299632655785527961745889614555513382\n"
        assert int(out) == m_oracle(degree, 2)
    for b, s in ((hard, 2), (degree, 5)):
        code, out, err = run(capsys, "n", str(b), str(s))
        assert (code, err) == (0, ""), err
        assert int(out) == n_oracle(b, s)
    result = run_json(capsys, "lower-bound", "--period", str(hard), "--skeleton", "5")["result"]
    assert result["bound"] == n_oracle(hard, 2) == hard


def test_per_ind_check(capsys):
    assert run(capsys, "per-ind-check", "2", "8")[1].strip() == "consistent"
    assert "inconsistent" in run(capsys, "per-ind-check", "2", "6")[1]


def test_cohomology_command(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(chain_complex_to_json(bzr_skeleton_complex(2, 6))))
    code, out, _ = run(capsys, "cohomology", str(path))
    assert code == 0
    assert "H^0" in out and "= Z" in out
    assert "H^2" in out and "Z/2" in out

    doc = run_json(capsys, "cohomology", str(path), "--degree", "2")
    assert doc["result"] == {"degree": 2, "free_rank": 0, "torsion": [2]}

    doc = run_json(capsys, "cohomology", str(path), "--mod", "2", "--degree", "1")
    assert doc["result"] == {"degree": 1, "free_rank": 0, "torsion": [2]}


def test_cohomology_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cell_counts": [1, 1], "boundaries": [[1], [1]]}))
    code, _, err = run(capsys, "cohomology", str(path))
    assert code == 1
    assert "ComplexFormatError" in err
    code, _, err = run(capsys, "cohomology", str(tmp_path / "missing.json"))
    assert code == 1


@pytest.mark.parametrize(
    "argv, document",
    [
        (["ahss-bound", "--shape"], {"d": 3, "r": 2, "h": [{"free_rank": "1"}, {}, {}, {}]}),
        (["ahss-bound", "--shape"], {"d": 3, "r": 2, "h": [{"free_rank": 1, "torsion": 2}, {}, {}, {}]}),
        (
            ["upper-bound", "--dim", "8", "--period", "2", "--tables"],
            {"table": [{"r": 2, "j": 6, "invariant_factors": ["2"]}]},
        ),
    ],
)
def test_wrongly_typed_documents_are_domain_errors(tmp_path, capsys, argv, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ValueError: ")


def test_cohomology_refuses_huge_cell_counts_at_once(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"cell_counts": [10**12, 0], "boundaries": [[]]}))
    code, out, err = run(capsys, "cohomology", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ComplexFormatError:") and "more than the limit" in err


def test_bockstein_command(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(chain_complex_to_json(bzr_skeleton_complex(2, 6))))
    doc = run_json(capsys, "bockstein", str(path), "--degree", "1", "--mod", "2")
    assert doc["result"]["matrix"] == [[1]]
    assert doc["result"]["source"]["torsion"] == [2]
    assert doc["result"]["target"]["torsion"] == [2]


def test_ahss_bound_from_complex_and_shape(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(chain_complex_to_json(bzr_skeleton_complex(2, 6))))
    code, out, _ = run(capsys, "ahss-bound", str(path), "--period", "2")
    assert code == 0
    assert "ind divides 2" in out

    shape_path = tmp_path / "shape.json"
    shape_path.write_text(
        json.dumps(
            {
                "d": 6,
                "r": 2,
                "h": [
                    {"free_rank": 1, "torsion": []},
                    {"free_rank": 0, "torsion": []},
                    {"free_rank": 0, "torsion": []},
                    {"free_rank": 0, "torsion": [2]},
                    {"free_rank": 0, "torsion": []},
                    {"free_rank": 0, "torsion": [4]},
                    {"free_rank": 0, "torsion": []},
                ],
            }
        )
    )
    doc = run_json(capsys, "ahss-bound", "--shape", str(shape_path))
    assert doc["result"]["bound"]["bound"] == 8

    code, _, err = run(capsys, "ahss-bound", str(path))
    assert code == 1 and "--period" in err
    code, _, err = run(capsys, "ahss-bound", "--shape", str(shape_path), "--period", "3")
    assert code == 1 and "disagrees" in err


def test_every_subcommand_emits_a_parseable_envelope(tmp_path, capsys):
    complex_path = tmp_path / "c.json"
    complex_path.write_text(json.dumps(chain_complex_to_json(bzr_skeleton_complex(2, 6))))
    invocations = [
        ["m", "4", "2"],
        ["n", "2", "2"],
        ["kummer", "2", "4", "4"],
        ["upper-bound", "--dim", "6", "--period", "2"],
        ["upper-bound", "--dim", "4", "--period", "3", "--prime-power"],
        ["lower-bound", "--period", "2", "--skeleton", "5"],
        ["sandwich", "--period", "2", "--skeleton", "5"],
        ["pu-order", "4", "2"],
        ["admissible", "--degree", "4", "--orders", "2,2"],
        ["min-degree", "--orders", "2,2", "--cap", "100"],
        ["per-ind-check", "2", "8"],
        ["cohomology", str(complex_path)],
        ["bockstein", str(complex_path), "--degree", "1", "--mod", "2"],
        ["ahss-bound", str(complex_path), "--period", "2"],
        ["fixtures", "emit", "sphere-2"],
    ]
    for argv in invocations:
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0, err
        doc = json.loads(out)
        assert set(doc) == {"command", "inputs", "result", "citations"}, argv
        assert doc["command"] == argv[0]
        # the envelope is written exactly as json.dumps(indent=2) writes it
        assert out == json.dumps(doc, indent=2) + "\n", argv
    code, out, _ = run(capsys, "fixtures", "emit", "bzr-2-6")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# Ints up to the interpreter's default limit of 4,300 digits for int-to-str
# conversion, strings of any code point, lone surrogates and control
# characters included.
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(10**4290, 10**4300 - 1).flatmap(lambda n: st.sampled_from((n, -n)))
    | st.text(st.characters(exclude_categories=()))
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=3), inner, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_writer_leaves_other_values_to_json():
    # floats and dicts with keys that are not strings, nested, are
    # re-indented to their depth
    value = {"a": [1.5, {1: [2.0, {None: True}], "b": []}], "c": {}, "d": (float("inf"),)}
    assert cli._json_text(value) == json.dumps(value, indent=2)
    for bad in (10**4300, [{"x": 10**4300}]):
        with pytest.raises(ValueError):
            json.dumps(bad, indent=2)
        with pytest.raises(ValueError):
            cli._json_text(bad)
    with pytest.raises(TypeError):
        cli._json_text({"x": [object()]})


def _sample(keywords, k: int) -> str:
    """A value of the k-th argument, unlike any other argument's."""
    return keywords.get("choices", [str(k) if keywords.get("type") is int else f"f{k}.json"])[0]


def _well_formed(command: str) -> list[list[str]]:
    """Argvs of command that main reads without argparse: every option given,
    in every order, with each member of an exclusive group or none of them,
    with and without --json, and the positionals interleaved in every way; an
    optional positional is given as the first token or left out."""
    option_sets, positionals = [[]], []
    ks = itertools.count(2)
    for group in cli._groups(command):
        chunks = [[name] if keywords.get("action") else [name, _sample(keywords, next(ks))]
                  for name, keywords in group if name.startswith("-")]
        positionals += [(_sample(keywords, next(ks)), keywords.get("nargs") == "?")
                        for name, keywords in group if not name.startswith("-")]
        if chunks:
            choices = chunks + [None] if len(chunks) > 1 or chunks[0] == ["--json"] else chunks
            option_sets = [s + [c] for s in option_sets for c in choices if c] + [
                s for s in option_sets if None in choices
            ]
    argvs = []
    for chunks in option_sets:
        for order in itertools.permutations(chunks):
            if positionals and positionals[0][1]:
                argvs += [[command, *head, *itertools.chain(*order)]
                          for head in ([], [positionals[0][0]])]
                continue
            places = range(len(order) + 1)
            for slots in itertools.combinations_with_replacement(places, len(positionals)):
                argv = [command]
                for place in places:
                    argv += [value for (value, _), slot in zip(positionals, slots) if slot == place]
                    argv += order[place] if place < len(order) else []
                argvs.append(argv)
    return argvs


# Tokens that int() reads as argparse's type=int does: any Unicode decimal
# digits, surrounding white space, underscores between digits.
WELL_FORMED = [argv for command in cli._GRAMMAR for argv in _well_formed(command)] + [
    ["m", "\u0664", "2"],
    ["m", " 4", "1_0"],
    ["fixtures", "emit", "x y", "--out", "a=b"],
]
# Every argv that main leaves to argparse: help, usage errors and other
# spellings.
DEFERRED = [
    ["upper-bound", "--period=2", "--dim", "6", "--prime-power"],
    ["upper-bound", "--di", "6", "--period", "2"],
    ["m", "--", "4", "2"],
    ["m", "4", "--", "-2"],
    ["upper-bound", "--dim", "6", "--dim", "7", "--period", "2"],
    ["m", "4", "2", "--json", "--json"],
    ["upper-bound", "--prime-power", "--dim", "6", "--prime-power", "--period", "2"],
    ["upper-bound", "--dim", "-3", "--period", "2"],
    ["kummer", "2", "-4", "4"],
    ["fixtures", "emit", "rp-3", "--out", "-"],
    ["upper-bound", "--prime-power", "--tables", "t.json", "--dim", "6", "--period", "2"],
    ["upper-bound", "--dim", "6", "--period", "2", "--tables", "t.json", "--prime-power"],
    ["upper-bound", "--dim", "six", "--period", "2"],
    ["upper-bound", "--dim", "6"],
    ["cohomology", "c.json", "--mod"],
    ["fixtures", "show", "rp-3"],
    ["ahss-bound", "--period", "2", "c.json"],
    ["ahss-bound", "c.json", "d.json"],
    ["m", "-h"],
    ["upper-bound", "--dim", "6", "--help"],
    ["m", "", "2"],
    ["fixtures", "emit", ""],
    ["--json", "m", "4", "2"],
    ["--help"],
    ["m", "4", "2", "--bogus"],
    ["m", "4", "2", "5", "6"],
    ["m", "4"],
    [],
    ["no-such-command"],
    ["upper"],
]
PARSE_CASES = WELL_FORMED + DEFERRED


@functools.cache
def _argparse_parser():
    return cli.build_parser()


def _outcome(parse_args, argv):
    """The namespace's items in order, or the exit code, and the output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = list(vars(parse_args(list(argv))).items())
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_CASES)
def test_subcommand_parse_matches_the_top_level_parse(monkeypatch, argv):
    """main reads a well-formed argv from the grammar table and leaves any
    other to argparse; either way the namespace, in its order, or the exit
    code and output, are those of the parser's own parse_args."""
    assert (cli._read(argv) is None) == (argv in DEFERRED)
    monkeypatch.setattr(cli, "_PARSER", _argparse_parser())
    assert _outcome(cli._parse_args, argv) == _outcome(cli._PARSER.parse_args, argv)


# the subcommands' own option spellings, values, and tokens that argparse
# alone may read
ARGV_TOKENS = sorted(
    {name for command in cli._GRAMMAR for group in cli._groups(command) for name, _ in group
     if name.startswith("-")}
    | {"4", "2", "c.json", "emit", "2,2", "", "-3", "six", "--", "-", "-h", "--di", "--period=2"}
)


@settings(max_examples=400)
@given(st.sampled_from(sorted(cli._GRAMMAR)), st.lists(st.sampled_from(ARGV_TOKENS), max_size=8))
def test_reading_matches_argparse_on_any_argv(command, tokens):
    argv = [command, *tokens]
    parser = _argparse_parser()
    assert _outcome(lambda v: cli._read(v) or parser.parse_args(v), argv) == _outcome(
        parser.parse_args, argv
    )


def test_fixtures_emit(tmp_path, capsys):
    code, out, _ = run(capsys, "fixtures", "emit", "bzr-2-9")
    assert code == 0
    doc = json.loads(out)
    assert doc["cell_counts"] == [1] * 10

    out_path = tmp_path / "s.json"
    code, _, _ = run(capsys, "fixtures", "emit", "sphere-3", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["cell_counts"] == [1, 0, 0, 1]

    code, out, _ = run(capsys, "fixtures", "emit", "rp-2")
    assert json.loads(out)["boundaries"] == [[0], [2]]

    code, _, err = run(capsys, "fixtures", "emit", "torus-2")
    assert code == 1
    assert "unknown fixture" in err


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader closes the pipe after its first read; the 560 KB document
    # is far more than a pipe holds, so the console script's writes fail
    root = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        f"import sys; sys.path.insert(0, {root!r}); "
        "from perindex.cli import console_main; console_main()"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "fixtures", "emit", "bzr-2-20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


@pytest.mark.parametrize("name", [f"sphere-{MAX_CELLS}", f"rp-{MAX_CELLS}", f"bzr-3-{MAX_CELLS}"])
def test_fixtures_with_too_many_degrees_are_refused_at_once(capsys, name):
    code, out, err = run(capsys, "fixtures", "emit", name)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: ComplexFormatError: the complex has {MAX_CELLS + 1} degrees, "
        f"more than the limit of {MAX_CELLS}"
    ]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # well-formed command lines, a domain error among them, build no parser;
    # the first usage error builds one, which every later one reuses
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    for argv in (["m", "4", "2"], ["upper-bound", "--dim", "6", "--period", "2", "--json"],
                 ["m", "0", "1"]):
        for _ in range(3):
            run(capsys, *argv)
    assert builds == [] and cli._PARSER is None
    for argv in (["m", "four", "2"], ["m", "4", "2"], ["upper-bound", "--dim", "6"]) * 2:
        run(capsys, *argv)
    assert len(builds) == 1


def test_reused_parser_gives_the_output_of_a_fresh_one(tmp_path, capsys, monkeypatch):
    complex_path = tmp_path / "c.json"
    complex_path.write_text(json.dumps(chain_complex_to_json(bzr_skeleton_complex(2, 6))))
    commands = [
        ["m", "4", "2"],
        ["upper-bound", "--dim", "6", "--period", "2"],
        ["upper-bound", "--dim", "six", "--period", "2"],  # usage error
        ["sandwich", "--period", "2", "--skeleton", "5"],
        ["no-such-command"],  # usage error
        ["--help"],
        ["sandwich", "--help"],
        ["m", "0", "1"],  # domain error
        ["upper-bound", "--dim", "3", "--period", "6", "--prime-power"],  # domain error
        ["cohomology", str(complex_path), "--mod", "2"],
        ["fixtures", "emit", "rp-3"],
    ]
    argvs = [argv + mode for argv in commands for mode in ([], ["--json"])]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(capsys, *argv))
    assert {code for code, _, _ in fresh} == {0, 1, 2}
    monkeypatch.setattr(cli, "_PARSER", None)
    for _ in range(2):
        assert [run(capsys, *argv) for argv in argvs] == fresh
