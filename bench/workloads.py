"""The benchmark's three workloads: seeded inputs, the ops, and their checks.

Every workload runs in blocks.  A block has a fixed composition of op kinds
and sizes; the seed draws the parameters inside each slot and the order of
the slots.  Runs cover whole blocks only, so a run's mix of cheap and costly
ops does not depend on where the clock stopped.  Each block is a small run
of its own: its p50 and p90 fall inside one class of ops, never on the border
between two, so per-block figures are comparable across blocks.

An op is (label, run, check): ``run`` is timed and calls perindex through
module attributes looked up at call time, so a traced run sees the wrappers;
``check`` is untimed and compares the result with oracles.py, which never
calls perindex.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import oracles as orc


class OracleError(AssertionError):
    """An op returned a result that disagrees with its oracle."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def _groups(result) -> list[tuple[int, tuple[int, ...]]]:
    return [(g.free_rank, tuple(g.torsion)) for g in result]


def _json_group(g: dict) -> tuple[int, tuple[int, ...]]:
    """A group as a CLI envelope gives it, {"free_rank", "torsion"}."""
    return (g["free_rank"], tuple(g["torsion"]))


# --- shared oracles for bounds ----------------------------------------------

# Exponents of the reduced stable homotopy of B Z/2 in degrees 1..5, the
# literature values the program ships (2-primary stable stems through 5).
BZ2_EXPONENTS = {1: 2, 2: 2, 3: 8, 4: 2, 5: 1}


def expected_exponent(r: int, j: int, table: dict | None = None) -> int | None:
    """The exponent the documented rules give for (r, j), None if unknown:
    l**n in odd degrees j < 2l - 2 and 1 in even ones, the shipped B Z/2
    values, then the extension table; composite r multiplies its coprime
    prime-power components."""
    factors = orc.factor_small(r)
    if len(factors) == 1:
        (ell, n), = factors.items()
        if j < 2 * ell - 2:
            return ell**n if j % 2 else 1
        if r == 2 and j in BZ2_EXPONENTS:
            return BZ2_EXPONENTS[j]
        return (table or {}).get((r, j))
    if table and (r, j) in table:
        return table[(r, j)]
    out = 1
    for ell, n in factors.items():
        part = expected_exponent(ell**n, j, table)
        if part is None:
            return None
        out *= part
    return out


def expected_product_bound(d: int, r: int, table=None, factors=None) -> int | None:
    """prod_{j=1}^{d-1} e_j, or None when an entry is unknown.  ``factors``
    gives the factorization of a large r so it need not be found again."""
    if factors is not None and all(2 * ell - 2 > d - 1 for ell in factors):
        return r ** len(range(1, d, 2))
    values = [expected_exponent(r, j, table) for j in range(1, d)]
    return None if None in values else math.prod(values)


def expected_best_bound(d: int, r: int, h) -> int:
    """gcd of the odd-torsion bound, the stable-exponent product (when known)
    and the prime-power half-dimension bound (when 2l > d+1)."""
    if d < 3:
        ahss = 1
    else:
        ahss = r
        for k in range(5, d + 1, 2):
            top = h[k][1][-1] if h[k][1] else 1
            ahss *= orc.r_primary_part(top, r)
    known = [ahss]
    product = expected_product_bound(d, r)
    if product is not None:
        known.append(product)
    factors = orc.factor_small(r)
    if len(factors) == 1:
        (ell, k), = factors.items()
        if 2 * ell > d + 1:
            known.append(r ** (d // 2))
    return math.gcd(*known)


def _check_report(report: dict, kind: str, bound: int | None) -> None:
    _expect(report["kind"] == kind, f"report kind {report['kind']!r}, expected {kind!r}")
    _expect(report["bound"] == bound, f"bound {report['bound']}, expected {bound}")
    _expect(report["known"] == (bound is not None), "known flag disagrees with the bound")
    if bound is not None and report["factors"]:
        product = math.prod(f["value"] for f in report["factors"])
        _expect(product == bound, "bound is not the product of its factors")


# --- cohomology-products -----------------------------------------------------

FIXTURE_PERIODS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
SHAPE_PERIODS = (7, 11, 13)
# Dimensions of the factors in one block: four 2-fold products (15-30 ms
# each, p50 falls on them) and one 3-fold product (0.2-0.3 s, the top fifth
# of the block, so p90 falls on it).
TWO_FOLD_DIMS = ((4, 5), (3, 8), (4, 6), (5, 5))
THREE_FOLD_DIMS = ((4, 4, 4),)


class CohomologyProducts:
    """Each op loads one product complex from its JSON text and computes
    integral and mod-r cohomology in every degree, one Bockstein, the twisted
    shape and the best upper bound."""

    name = "cohomology-products"

    def __init__(self, perindex, seed: int, workdir: str):
        self.homology = perindex.homology
        self.ahss = perindex.ahss
        self.seed = seed
        self.cells: dict[str, int] = {}

    def block(self, index: int) -> list[tuple]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        slots = [tuple(d) for d in TWO_FOLD_DIMS + THREE_FOLD_DIMS]
        rng.shuffle(slots)
        block = []
        for dims in slots:
            periods = [rng.choice(FIXTURE_PERIODS) for _ in dims]
            doc = orc.bzr_document(periods[0], dims[0])
            h = orc.bzr_cohomology(periods[0], dims[0])
            for r, dim in zip(periods[1:], dims[1:]):
                doc = orc.tensor_document(doc, orc.bzr_document(r, dim))
                h = orc.kunneth(h, orc.bzr_cohomology(r, dim))
            top = len(h) - 1
            key = f"{len(dims)}-fold/{max(doc['cell_counts'])}-cells"
            self.cells[key] = self.cells.get(key, 0) + 1
            block.append(self._op({
                "text": json.dumps(doc),
                "factors": len(dims),
                "top": top,
                "h": h,
                "mod": periods[0],
                "beta_degree": top // 2,
                "shape_period": rng.choice(SHAPE_PERIODS),
            }))
        return block

    def _op(self, item: dict) -> tuple:
        homology, ahss = self.homology, self.ahss

        def run():
            c = homology.chain_complex_from_json(json.loads(item["text"]))
            degrees = range(c.top_dim + 1)
            h_z = [homology.cohomology_Z(c, k) for k in degrees]
            h_mod = [homology.cohomology_mod(c, k, item["mod"]) for k in degrees]
            beta = homology.bockstein(c, item["beta_degree"], item["mod"])
            shape = ahss.TwistedShape.from_complex(c, item["shape_period"])
            best = ahss.best_upper_bound(shape)
            return h_z, h_mod, beta, shape, best

        def check(result):
            h_z, h_mod, beta, shape, best = result
            h = item["h"]
            _expect(_groups(h_z) == h, "integral cohomology disagrees with Kunneth")
            h_r = orc.uct_mod(h, item["mod"])
            _expect(_groups(h_mod) == h_r, "mod-r cohomology disagrees with the UCT")
            k = item["beta_degree"]
            _expect(_groups([beta.source]) == [h_r[k]], "Bockstein source is not H^k(Z/r)")
            _expect(_groups([beta.target]) == [h[k + 1]], "Bockstein target is not H^(k+1)(Z)")
            _expect(_groups(shape.h) == h, "twisted shape groups disagree with Kunneth")
            r, d = item["shape_period"], item["top"]
            _expect(best.bound == expected_best_bound(d, r, h), "best upper bound is wrong")
            product = expected_product_bound(d, r)
            _expect(product is None or product % best.bound == 0,
                    "best upper bound does not divide the stable-exponent product")
            _expect(best.bound % r == 0, "best upper bound is not a multiple of the period")

        return (f"{item['factors']}-fold", run, check)

    def properties(self, blocks: int) -> dict:
        per_block = len(TWO_FOLD_DIMS) + len(THREE_FOLD_DIMS)
        return {
            "ops": blocks * per_block,
            "share_3_fold": len(THREE_FOLD_DIMS) / per_block,
            "max_cells_per_degree_histogram": dict(sorted(self.cells.items())),
        }


# --- snf-dense ---------------------------------------------------------------

# (rows, cols) of one block: p50 falls on the 28 x 28 slot and p90 on the
# 48 x 48 one, the top fifth of the block.
DENSE_SHAPES = ((8, 10), (20, 24), (28, 28), (36, 32), (48, 48))
ENTRY_SPAN = 9


class SnfDense:
    """Each op is one smith_normal_form call on a fresh seeded dense matrix."""

    name = "snf-dense"

    def __init__(self, perindex, seed: int, workdir: str):
        self.homology = perindex.homology
        self.seed = seed

    def _matrices(self, index: int) -> list[list[list[int]]]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        shapes = list(DENSE_SHAPES)
        rng.shuffle(shapes)
        return [
            [[rng.randint(-ENTRY_SPAN, ENTRY_SPAN) for _ in range(n)] for _ in range(m)]
            for m, n in shapes
        ]

    def block(self, index: int) -> list[tuple]:
        return [self._op(rows) for rows in self._matrices(index)]

    def _op(self, rows: list[list[int]]) -> tuple:
        homology = self.homology
        matrix = homology.IntMatrix(len(rows), len(rows[0]), rows)

        def check(snf):
            diag = snf.diagonal()
            _expect(diag[0] == math.gcd(*(x for row in rows for x in row)),
                    "d_1 is not the gcd of the entries")
            rank, det = orc.rank_and_det(rows)
            _expect(snf.rank == rank, f"rank {snf.rank}, expected {rank}")
            if det is not None and rank == len(rows):
                _expect(math.prod(diag) == abs(det), "invariant factors do not multiply to |det|")

        return (f"{matrix.rows}x{matrix.cols}", lambda: homology.smith_normal_form(matrix), check)

    def properties(self, blocks: int) -> dict:
        shapes: dict[str, int] = {}
        for m, n in DENSE_SHAPES:
            key = f"{m}x{n}"
            shapes[key] = shapes.get(key, 0) + blocks
        return {
            "ops": blocks * len(DENSE_SHAPES),
            "entry_range": [-ENTRY_SPAN, ENTRY_SPAN],
            "share_square": sum(m == n for m, n in DENSE_SHAPES) / len(DENSE_SHAPES),
            "shape_histogram": shapes,
        }


# --- bounds-cli --------------------------------------------------------------

SMALL_SLOTS = (
    "upper", "upper-prime-power", "upper-prime-power-refused", "upper-tables",
    "lower", "sandwich", "min-degree", "admissible", "m-or-n", "kummer",
    "pu-order-or-per-ind", "file",
)
# One large period per stratum and turn: two primes, two semiprimes whose
# factors lie in [1e5, 1e6), set by the smaller factor (trial division
# stops there).  Each stratum is narrow, so that its trial division costs
# about the same on every draw: the cost of a block then hardly depends on
# which periods it drew.
LARGE_STRATA = (
    ("prime", 10**9, 125 * 10**7),
    ("prime", 8 * 10**10, 10**11),
    ("semiprime", 10**5, 125 * 10**3),
    ("semiprime", 72 * 10**4, 9 * 10**5),
)
# Each block holds every slot and stratum twice, so that the cost of its
# eight large periods varies less from block to block.
BLOCK_TURNS = 2
# Commands that factor a large period once; per-ind-check, which factors
# it twice, runs with small periods only.
LARGE_COMMANDS = ("upper", "lower", "sandwich", "m", "n", "pu-order")
FILE_COMMANDS = ("ahss-shape", "ahss-complex", "cohomology", "bockstein")
TABLE_ROWS = {  # (r, j) -> invariant factors of the degree-j group, all r-primary
    (3, j): [3, 9] if j % 2 else [3] for j in range(4, 12)
} | {
    (5, j): [25] if j % 2 else [] for j in range(8, 12)
} | {
    (9, j): [3, 27] if j % 2 else [9] for j in range(4, 12)
}


class BoundsCli:
    """Each op is one in-process ``cli.main(argv + ["--json"])`` with stdout
    and stderr captured; about a quarter carry a large period."""

    name = "bounds-cli"

    def __init__(self, perindex, seed: int, workdir: str):
        self.cli = perindex.cli
        self.seed = seed
        self.files = {}
        self.h69 = orc.bzr_cohomology(6, 9)
        self.h660 = orc.bzr_cohomology(6, 60)
        self.shape_doc = {
            "d": 9, "r": 3,
            "h": [{"free_rank": f, "torsion": list(t)} for f, t in orc.bzr_cohomology(9, 9)],
        }
        self.table = {rj: max(f, default=1) for rj, f in TABLE_ROWS.items()}
        documents = {
            "bzr-6-60": orc.bzr_document(6, 60),
            "bzr-6-9": orc.bzr_document(6, 9),
            "shape": self.shape_doc,
            "tables": {"table": [
                {"r": r, "j": j, "invariant_factors": f} for (r, j), f in TABLE_ROWS.items()
            ]},
        }
        for key, doc in documents.items():
            path = os.path.join(workdir, f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.files[key] = path
        self.used_periods: set[int] = set()

    # --- inputs --------------------------------------------------------------

    def _large_period(self, rng, kind: str, lo: int, hi: int) -> tuple[int, dict]:
        while True:
            if kind == "prime":
                p = orc.random_prime(rng, lo, hi)
                n, factors = p, {p: 1}
            else:
                p = orc.random_prime(rng, lo, hi)
                q = orc.random_prime(rng, p + 1, 10**6)
                n, factors = p * q, {p: 1, q: 1}
            if n not in self.used_periods:
                self.used_periods.add(n)
                return n, factors

    def block(self, index: int) -> list[tuple]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        ops = []
        for turn in range(index * BLOCK_TURNS, (index + 1) * BLOCK_TURNS):
            ops += [self._small(slot, rng, turn) for slot in SMALL_SLOTS]
            for kind, lo, hi in LARGE_STRATA:
                period, factors = self._large_period(rng, kind, lo, hi)
                ops.append(self._large(rng.choice(LARGE_COMMANDS), period, factors, rng))
        rng.shuffle(ops)
        return ops

    # --- ops -------------------------------------------------------------------

    def _op(self, label: str, argv: list[str], check, expect_rc: int = 0) -> tuple:
        cli = self.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv + ["--json"])
                except SystemExit as exc:
                    rc = exc.code
            return rc, out.getvalue(), err.getvalue()

        def checked(result):
            rc, out, err = result
            _expect(rc == expect_rc, f"{argv}: exit {rc}, expected {expect_rc}: {err.strip()}")
            if expect_rc:
                lines = err.strip().splitlines()
                _expect(out == "" and len(lines) == 1 and lines[0].startswith("error: "),
                        f"{argv}: a refusal must print one error line and no result")
                check(lines[0])
                return
            envelope = json.loads(out)
            _expect(envelope["command"] == argv[0], f"{argv}: envelope names {envelope['command']}")
            _expect(isinstance(envelope["citations"], list), f"{argv}: citations missing")
            try:
                check(envelope["result"])
            except OracleError as exc:
                raise OracleError(f"{argv}: {exc}") from None

        return (label, run, checked)

    def _small(self, slot: str, rng, index: int) -> tuple:
        if slot == "upper":
            d, r = rng.randint(3, 12), rng.randint(2, 30)
            bound = expected_product_bound(d, r)
            return self._op("upper", ["upper-bound", "--dim", str(d), "--period", str(r)],
                            lambda res: _check_report(res, "upper", bound))
        if slot == "upper-prime-power":
            ell = rng.choice((5, 7, 11, 13))
            k = rng.randint(1, 3)
            d = rng.randint(3, 2 * ell - 2)
            return self._op("upper-prime-power",
                            ["upper-bound", "--dim", str(d), "--period", str(ell**k), "--prime-power"],
                            lambda res: _check_report(res, "upper", (ell**k) ** (d // 2)))
        if slot == "upper-prime-power-refused":
            ell = rng.choice((2, 3, 5))
            k = rng.randint(1, 3)
            d = rng.randint(2 * ell - 1, 12)
            return self._op("upper-prime-power-refused",
                            ["upper-bound", "--dim", str(d), "--period", str(ell**k), "--prime-power"],
                            lambda line: _expect("HypothesisViolatedError" in line, line),
                            expect_rc=1)
        if slot == "upper-tables":
            d, r = rng.randint(5, 12), rng.choice((3, 5, 9, 15, 45))
            bound = expected_product_bound(d, r, self.table)
            return self._op("upper-tables",
                            ["upper-bound", "--dim", str(d), "--period", str(r),
                             "--tables", self.files["tables"]],
                            lambda res: _check_report(res, "upper", bound))
        if slot == "lower":
            r, a = rng.randint(2, 60), rng.randint(3, 15)
            bound = orc.n_oracle(orc.factor_small(r), (a - 1) // 2)
            return self._op("lower", ["lower-bound", "--period", str(r), "--skeleton", str(a)],
                            lambda res: _check_report(res, "lower", bound))
        if slot == "sandwich":
            r, a = rng.randint(2, 60), rng.randint(3, 15)
            return self._sandwich("sandwich", r, orc.factor_small(r), a)
        if slot == "min-degree":
            r, s = rng.randint(2, 24), rng.randint(1, 3)
            orders = [r] + [rng.choice([o for o in range(1, r + 1) if r % o == 0]) for _ in range(s - 1)]
            cap = rng.randint(20, 300)
            lcm = math.lcm(*(orc.n_oracle(orc.factor_small(o), i) for i, o in enumerate(orders, 1)))
            expected = max(2, lcm) if max(2, lcm) <= cap else None

            def check_min(res):
                _expect(res == expected, f"min degree {res}, expected {expected}")
                if res is not None:
                    _expect(all(orc.m_oracle(res, i) % o == 0 for i, o in enumerate(orders, 1)),
                            f"degree {res} is not admissible")

            return self._op("min-degree", ["min-degree", "--orders", ",".join(map(str, orders)),
                                           "--cap", str(cap)], check_min)
        if slot == "admissible":
            r, s = rng.randint(2, 24), rng.randint(1, 4)
            orders = [r] + [rng.choice([o for o in range(1, r + 1) if r % o == 0]) for _ in range(s - 1)]
            n = rng.randint(2, 400)
            expected = all(orc.m_oracle(n, i) % o == 0 for i, o in enumerate(orders, 1))
            return self._op("admissible", ["admissible", "--degree", str(n), "--orders",
                                           ",".join(map(str, orders))],
                            lambda res: _expect(res is expected, f"admissible {res}, expected {expected}"))
        if slot == "m-or-n":
            a, s = rng.randint(2, 5000), rng.randint(1, 12)
            if index % 2:
                return self._m_or_n("m", a, orc.factor_small(a), s)
            return self._m_or_n("n", a, orc.factor_small(a), s)
        if slot == "kummer":
            p = rng.choice((2, 3, 5, 7, 11, 13, 97))
            a, b = rng.randint(0, 10**6), rng.randint(0, 10**6)
            expected = orc.kummer_oracle(p, a, b)
            return self._op("kummer", ["kummer", str(p), str(a), str(b)],
                            lambda res: _expect(res == expected, f"carries {res}, expected {expected}"))
        if slot == "pu-order-or-per-ind":
            if index % 2:
                n, s = rng.randint(2, 5000), rng.randint(1, 12)
                return self._m_or_n("pu-order", n, orc.factor_small(n), s)
            per = rng.randint(2, 500)
            ind = per * rng.choice((1, 2, 3, 4, 6, 9))
            expected = ind % per == 0 and set(orc.factor_small(per)) == set(orc.factor_small(ind))
            return self._op("per-ind-check", ["per-ind-check", str(per), str(ind)],
                            lambda res: _expect(res is expected, f"{res}, expected {expected}"))
        return self._file(FILE_COMMANDS[index % len(FILE_COMMANDS)], rng)

    def _sandwich(self, label, r, factors, a) -> tuple:
        lower = orc.n_oracle(factors, (a - 1) // 2)
        upper = expected_product_bound(a + 1, r, factors=factors)

        def check(res):
            _check_report(res["lower"], "lower", lower)
            _check_report(res["upper"], "upper", upper)
            _expect(upper is None or upper % lower == 0, "lower bound does not divide upper bound")

        return self._op(label, ["sandwich", "--period", str(r), "--skeleton", str(a)], check)

    def _m_or_n(self, command, a, factors, s) -> tuple:
        expected = orc.n_oracle(factors, s) if command == "n" else orc.m_oracle(a, s)
        return self._op(command, [command, str(a), str(s)],
                        lambda res: _expect(res == expected, f"{res}, expected {expected}"))

    def _large(self, command, period, factors, rng) -> tuple:
        label = f"large-{command}"
        if command == "upper":
            d = rng.randint(3, 12)
            bound = expected_product_bound(d, period, factors=factors)
            return self._op(label, ["upper-bound", "--dim", str(d), "--period", str(period)],
                            lambda res: _check_report(res, "upper", bound))
        if command == "lower":
            a = rng.randint(3, 15)
            bound = orc.n_oracle(factors, (a - 1) // 2)
            return self._op(label, ["lower-bound", "--period", str(period), "--skeleton", str(a)],
                            lambda res: _check_report(res, "lower", bound))
        if command == "sandwich":
            return self._sandwich(label, period, factors, rng.randint(3, 15))
        s = rng.randint(1, 12)
        op = self._m_or_n(command, period, factors, s)
        return (label,) + op[1:]

    def _file(self, command, rng) -> tuple:
        if command == "ahss-shape":
            h = [_json_group(g) for g in self.shape_doc["h"]]
            bound = expected_best_bound(9, 3, h)

            def check(res):
                _expect(res["shape"] == self.shape_doc, "shape echoed incorrectly")
                _check_report(res["bound"], "upper", bound)

            return self._op("ahss-shape", ["ahss-bound", "--shape", self.files["shape"]], check)
        if command == "ahss-complex":
            r = rng.choice((2, 3, 6, 31, 37))
            bound = expected_best_bound(60, r, self.h660)

            def check(res):
                _expect([_json_group(g) for g in res["shape"]["h"]] == self.h660,
                        "cohomology of bzr-6-60 is wrong")
                _check_report(res["bound"], "upper", bound)

            return self._op("ahss-complex", ["ahss-bound", self.files["bzr-6-60"],
                                             "--period", str(r)], check)
        if command == "cohomology":
            argv = ["cohomology", self.files["bzr-6-9"]]
            expected = self.h69
            if rng.random() < 0.5:
                r = rng.choice((2, 3, 4, 6, 9))
                argv += ["--mod", str(r)]
                expected = orc.uct_mod(self.h69, r)

            def check(res):
                _expect([_json_group(g) for g in res] == expected,
                        "cohomology of bzr-6-9 is wrong")

            return self._op("cohomology", argv, check)
        k, r = rng.randint(0, 8), rng.choice((2, 3, 4, 6, 9))
        source, target = orc.uct_mod(self.h69, r)[k], self.h69[k + 1]

        def check(res):
            _expect(_json_group(res["source"]) == source, "Bockstein source is wrong")
            _expect(_json_group(res["target"]) == target, "Bockstein target is wrong")
            _expect(len(res["matrix"]) == len(res["target_orders"]), "Bockstein matrix rows")

        return self._op("bockstein", ["bockstein", self.files["bzr-6-9"], "--degree", str(k),
                                      "--mod", str(r)], check)

    def properties(self, blocks: int) -> dict:
        per_block = BLOCK_TURNS * (len(SMALL_SLOTS) + len(LARGE_STRATA))
        return {
            "ops": blocks * per_block,
            "share_large_period": len(LARGE_STRATA) / (len(SMALL_SLOTS) + len(LARGE_STRATA)),
            "large_period_strata": [f"{k} [{lo:.3g}, {hi:.3g})" for k, lo, hi in LARGE_STRATA],
            "distinct_large_periods": len(self.used_periods),
            "small_slots": list(SMALL_SLOTS),
        }


WORKLOADS = {w.name: w for w in (CohomologyProducts, SnfDense, BoundsCli)}
