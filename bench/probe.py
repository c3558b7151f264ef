"""One-off traced reference probe of fixed baseline points (not a gated workload).

    python3 bench/probe.py > probe.json

Times, with the benchmark's tracer installed:
  * smith_normal_form on dense n x n matrices with entries in [-9, 9] drawn
    from random.Random(1), for n = 20, 40 and 60: elimination and verify self
    time, and the largest entry bit length of U, V and their inverses;
  * integral cohomology in every degree of bzr-6-9 (x) bzr-6-9 (x) bzr-4-9,
    checked against the Kunneth formula;
  * factorize on the first primes above 10**12 and 10**14 (10**16 is left
    out: trial division takes about 14 s there).
Prints one JSON document with the environment and each point's metrics.
"""

from __future__ import annotations

import json
import math
import random
import sys
from time import perf_counter

import oracles as orc
import run
from tracer import Tracer

DENSE_SIZES = (20, 40, 60)
TRIPLE = ((6, 9), (6, 9), (4, 9))
FACTORIZE_NEAR = (10**12, 10**14)

LAYERS = (
    "homology.smith_normal_form", "homology.SmithDecomposition.verify",
    "homology.cohomology_Z", "homology.ChainComplex.__init__",
    "homology.chain_complex_from_json", "numtheory.factorize", "numtheory.is_prime",
)


def traced(package, fn):
    tracer = Tracer()
    package.numtheory.factorize.cache_clear()
    tracer.install(package)
    try:
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    point = {"wall_s": wall}
    for layer in LAYERS:
        if metrics[f"{layer}.calls"]:
            point[f"{layer}.calls"] = metrics[f"{layer}.calls"]
            point[f"{layer}.self_s"] = metrics[f"{layer}.self_s"]
    if metrics["homology.smith_normal_form.calls"]:
        point["homology.smith_normal_form.max_entry_bits"] = metrics[
            "homology.smith_normal_form.max_entry_bits"]
    return result, point


def main() -> int:
    if not (run.SRC / "perindex" / "__init__.py").is_file():
        print(f"error: perindex sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import perindex.cli  # noqa: F401
    package = sys.modules["perindex"]
    homology = package.homology
    points = {}

    for n in DENSE_SIZES:
        rng = random.Random(1)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        matrix = homology.IntMatrix(n, n, rows)
        snf, point = traced(package, lambda: homology.smith_normal_form(matrix))
        rank, det = orc.rank_and_det(rows)
        if snf.rank != rank or (rank == n and abs(det) != math.prod(snf.diagonal())):
            raise SystemExit(f"dense {n}x{n}: SNF disagrees with the Bareiss oracle")
        points[f"snf-dense-{n}"] = point

    doc = orc.bzr_document(*TRIPLE[0])
    h = orc.bzr_cohomology(*TRIPLE[0])
    for factor in TRIPLE[1:]:
        doc = orc.tensor_document(doc, orc.bzr_document(*factor))
        h = orc.kunneth(h, orc.bzr_cohomology(*factor))
    text = json.dumps(doc)

    def triple():
        c = homology.chain_complex_from_json(json.loads(text))
        return [homology.cohomology_Z(c, k) for k in range(c.top_dim + 1)]

    groups, point = traced(package, triple)
    if [(g.free_rank, g.torsion) for g in groups] != h:
        raise SystemExit("triple product: cohomology disagrees with Kunneth")
    point["degrees"] = len(doc["cell_counts"])
    point["max_cells_per_degree"] = max(doc["cell_counts"])
    points["triple-" + "*".join(f"bzr-{r}-{d}" for r, d in TRIPLE)] = point

    for near in FACTORIZE_NEAR:
        p = near + 1
        while not orc.is_probable_prime(p):
            p += 1
        fact, point = traced(package, lambda: package.numtheory.factorize(p))
        if fact.pairs != ((p, 1),):
            raise SystemExit(f"factorize({p}) returned {fact.pairs}")
        point["n"] = p
        points[f"factorize-prime-near-1e{len(str(near)) - 1}"] = point

    env = run.environment("probe", seed=1, seconds=None, trace=1)
    print(json.dumps({"env": env, "points": points}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
