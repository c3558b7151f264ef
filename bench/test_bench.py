"""Self-tests for the benchmark's own helpers.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles as orc  # noqa: E402
import run  # noqa: E402
from tracer import BOOKKEEPING, Tracer, self_times  # noqa: E402

import perindex.cli  # noqa: E402
from perindex import homology  # noqa: E402


def _cohomology(doc):
    c = homology.chain_complex_from_json(doc)
    return [(g.free_rank, g.torsion) for g in (homology.cohomology_Z(c, k) for k in range(c.top_dim + 1))]


# --- oracles -------------------------------------------------------------------

def test_bzr_cohomology_matches_perindex():
    for r in (2, 3, 6):
        for top in (1, 2, 5, 6):
            assert _cohomology(orc.bzr_document(r, top)) == orc.bzr_cohomology(r, top)


def test_tensor_product_documents_against_kunneth():
    factors = [(2, 3), (3, 2), (4, 3), (6, 2)]
    for (r1, d1) in factors:
        for (r2, d2) in factors:
            doc = orc.tensor_document(orc.bzr_document(r1, d1), orc.bzr_document(r2, d2))
            expected = orc.kunneth(orc.bzr_cohomology(r1, d1), orc.bzr_cohomology(r2, d2))
            assert _cohomology(doc) == expected


def test_triple_product_against_kunneth():
    docs = [orc.bzr_document(2, 2), orc.bzr_document(3, 3), orc.bzr_document(4, 2)]
    doc = orc.tensor_document(orc.tensor_document(docs[0], docs[1]), docs[2])
    h = orc.kunneth(orc.kunneth(orc.bzr_cohomology(2, 2), orc.bzr_cohomology(3, 3)),
                    orc.bzr_cohomology(4, 2))
    assert doc["cell_counts"] == [1, 3, 6, 8, 8, 6, 3, 1]
    assert _cohomology(doc) == h


def test_uct_against_perindex():
    doc = orc.tensor_document(orc.bzr_document(6, 3), orc.bzr_document(4, 4))
    c = homology.chain_complex_from_json(doc)
    h = _cohomology(doc)
    for r in (2, 3, 4, 12):
        got = [(g.free_rank, g.torsion) for g in (homology.cohomology_mod(c, k, r) for k in range(c.top_dim + 1))]
        assert got == orc.uct_mod(h, r)


def test_invariant_factors():
    assert orc.invariant_factors([2, 3]) == (6,)
    assert orc.invariant_factors([2, 4, 6]) == (2, 2, 12)
    assert orc.invariant_factors([1, 1]) == ()


def test_rank_and_det_against_bareiss_of_perindex():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        rank, det = orc.rank_and_det(rows)
        snf = homology.smith_normal_form(homology.IntMatrix(m, n, rows))
        assert rank == snf.rank
        if m == n:
            assert det == homology.IntMatrix(m, n, rows).det()
            assert abs(det) == (math.prod(snf.diagonal()) if rank == n else 0)


def test_number_theory_oracles():
    assert [n for n in range(2, 60) if orc.is_probable_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not orc.is_probable_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    for p in (2, 3, 5):
        for a in range(0, 30, 7):
            for b in range(0, 30, 5):
                c, v = math.comb(a + b, b), 0
                while c % p == 0:
                    c, v = c // p, v + 1
                assert orc.kummer_oracle(p, a, b) == v
    assert orc.n_oracle({2: 2, 3: 1}, 3) == 2**3 * 3**2


# --- self-time arithmetic ----------------------------------------------------------

def test_self_time_of_a_nested_trace():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        (BOOKKEEPING, 9.0, 9.5, 0, 0),
        ("a", 11.0, 12.0, -1, 1),
    ]
    assert self_times(spans) == {
        "root": 10.0 - 3.0 - 4.0 - 0.5,
        "a": 2.0 + 1.0,
        "leaf": 1.0,
        "b": 4.0,
        BOOKKEEPING: 0.5,
    }


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1, 0), ("c", 1.0, 4.0, 0, 0), ("c", 3.0, 6.0, 0, 0),
             ("c", 8.0, 12.0, 0, 0)]
    assert self_times(spans)["p"] == 10.0 - 5.0 - 2.0


def test_tracer_counts_and_restores_bindings():
    original_snf = homology.smith_normal_form
    original_verify = homology.SmithDecomposition.verify
    c = homology.bzr_skeleton_complex(2, 3)
    tracer = Tracer()
    tracer.install(perindex)
    try:
        assert homology.smith_normal_form is not original_snf
        homology.cohomology_Z(c, 2)
        perindex.ahss.TwistedShape.from_complex(c, 3)
    finally:
        tracer.uninstall()
    assert homology.smith_normal_form is original_snf
    assert homology.SmithDecomposition.verify is original_verify
    metrics = tracer.metrics()
    assert metrics["homology.cohomology_Z.calls"] == 1 + 4
    assert metrics["homology.smith_normal_form.calls"] == 2 * 5
    assert metrics["homology.SmithDecomposition.verify.calls"] == 2 * 5
    assert metrics["ahss.TwistedShape.from_complex.calls"] == 1
    # 1x1 coboundaries below the top, a 0x1 one at the top; the incoming
    # images are 1x1 where the kernel and the incoming map are both nonzero
    assert metrics["homology.smith_normal_form.entries"] == 2 + (1 + 1 + 2 + 1)
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["homology.cohomology_Z", "ahss.TwistedShape.from_complex"]


# --- percentiles -------------------------------------------------------------------

def _pass(blocks):
    measured = run.Pass()
    measured.blocks = [[x / 1e3 for x in block] for block in blocks]
    return measured.end_to_end()


def test_p90_needs_ten_samples_above_it():
    block = list(range(1, 11))  # ten blocks: p90 is 9 ms, with ten samples above it
    assert _pass([block] * 10)["latency_p90_ms"] == 9
    assert _pass([block] * 9)["latency_p90_ms"] is None  # nine above
    assert _pass([[5.0] * 10] * 20)["latency_p90_ms"] is None  # nothing above


def test_end_to_end_metrics_come_from_the_slowest_blocks():
    fast, slow = [1.0] * 10, [2.0] * 10
    k = run.SLOW_POOL_BLOCKS
    metrics = _pass([fast] * 3 * k + [slow] * (k + 2))  # the pool is k slow blocks
    assert metrics["latency_p50_ms"] == 2.0
    assert metrics["throughput_ops_s"] == pytest.approx(1 / 2e-3)
    metrics = _pass([fast] * 3 * k + [slow] * (k // 2))  # k/2 slow blocks, then k/2 fast
    assert metrics["latency_p50_ms"] == 1.0
    assert metrics["throughput_ops_s"] == pytest.approx(1 / 1.5e-3)
    assert run.percentile([3, 1, 2], 0.5) == 2
    assert run.percentile([3, 1, 2, 4], 0.9) == 4


def test_a_pass_without_completed_ops_reports_no_timings():
    assert _pass([[], []]) == dict.fromkeys(
        ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms"))


def test_commit_from_loose_or_packed_refs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_commit() is None
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert run.git_commit() is None
    (git / "packed-refs").write_text("# pack-refs with: peeled\nabc123 refs/heads/main\n")
    assert run.git_commit() == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert run.git_commit() == "def456"
    (git / "HEAD").write_text("0123abcd\n")
    assert run.git_commit() == "0123abcd"


def test_benchmark_file_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: unit for name, _, unit in run.layer_metrics(Tracer())}
    emitted.update({"cli.import_s": "s", "trace.overhead_ratio": "ratio"})
    assert layer == emitted
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert end_to_end == {"setup_s", "peak_rss_mb"} | set(_pass([[1.0] * 10] * 12))


def test_cache_hit_ratio_counts_only_while_installed():
    factorize = perindex.numtheory.factorize
    factorize.cache_clear()
    tracer = Tracer()
    tracer.install(perindex)
    try:
        perindex.numtheory.m_closed(12, 2)
        perindex.numtheory.m_closed(12, 3)
    finally:
        tracer.uninstall()
    factorize(12)
    factorize(12)
    assert tracer.metrics()["numtheory.factorize.cache_hit_ratio"] == 1 / 2
