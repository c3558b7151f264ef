"""Run one benchmark workload against the perindex sources in ../src.

    python3 bench/run.py --workload cohomology-products --seed 1 --seconds 35 --trace 0

With --trace 0 the run is closed loop (one client, one thread): it times
whole blocks of ops for --seconds of wall time, checks every result against
an independent oracle outside the timed region, and reports the end-to-end
metrics.  With --trace 1 it runs a fixed, seed-determined list of ops with
timing wrappers around perindex's functions and reports the per-layer
metrics, whose counts repeat exactly for a given seed, and the tracing
overhead.

The host this was written on shares its cores, and its speed has two
states that last from seconds to tens of minutes: steady contention and
stretches up to twice as fast.  Throughput and latency percentiles are
therefore taken from the slowest stretch of the run: the SLOW_POOL_BLOCKS
blocks with the lowest throughput (every block has the same composition),
pooled.  Nearly every run has some contended blocks, so this
follows the contended state; figures from the whole run depend on how much
of it the host spent in each state.  Set-up is timed in fresh interpreters
started across the run and reported at its slow-side quartile, which is
steadier from run to run than the median or a more extreme quantile.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  Lines before it, starting with "#", record the environment, the
input properties and each metric with its unit.  The exit code is 0 only
when every op succeeded and passed its check.  Nothing here changes machine
settings (CPU pinning, frequency governor, caches).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"

SETUP_REPEATS = 5  # in a traced run, all at the start
SETUP_EVERY_S = 2.0  # in an untraced run, one more set-up after each such stretch
SETUP_QUANTILE = 0.75  # setup_s: the slow-side quartile of a run's set-up times
P90_TAIL = 10  # p90 is reported only with at least this many samples above it
SLOW_POOL_BLOCKS = 40  # the slowest blocks, pooled for the timing metrics
TRACE_BLOCKS = {"cohomology-products": 12, "snf-dense": 8, "bounds-cli": 10}
MAX_ERRORS_SHOWN = 5

# Run in a fresh interpreter: import perindex, generate the seeded inputs and
# write the input files, then print the import time.  The parent times the
# whole from starting the process to reading that line.  The interpreter
# runs with -S: what the host's site-packages hooks import at start is not
# perindex's cost, and it varies from one Python installation to the next.
SET_UP_CHILD = """
import sys
from time import perf_counter
src, bench, workload, seed, workdir = sys.argv[1:]
sys.path[:0] = [src, bench]
start = perf_counter()
import perindex.cli
import_s = perf_counter() - start
from workloads import WORKLOADS
WORKLOADS[workload](sys.modules["perindex"], int(seed), workdir).block(0)
print(import_s, flush=True)
"""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share q
    of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def set_up_in_child(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Set the workload up in a fresh interpreter.  Returns the time from
    starting the process to the end of set-up, and the child's own time to
    import perindex.cli."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    argv = [sys.executable, "-S", "-c", SET_UP_CHILD, str(SRC), str(ROOT / "bench"),
            workload, str(seed), str(workdir)]
    start = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        if child.wait(timeout=60) != 0 or not line:
            raise RuntimeError(f"set-up of {workload} exited with code {child.returncode}")
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed, float(line)


class Pass:
    """Latencies, grouped by block, and failures of one sequence of ops."""

    def __init__(self):
        self.blocks: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_block(self, ops, tracer=None) -> None:
        latencies: list[float] = []
        self.blocks.append(latencies)
        for label, run, check in ops:
            if tracer is not None:
                tracer.op = self.attempted
            self.attempted += 1
            try:
                start = perf_counter()
                result = run()
                latencies.append(perf_counter() - start)
                check(result)
            except Exception:  # an op's failure is counted, reported and the run goes on
                self.failed += 1
                if len(self.errors) < MAX_ERRORS_SHOWN:
                    self.errors.append(f"{label}: {traceback.format_exc()}")

    @property
    def busy_s(self) -> float:
        return sum(map(sum, self.blocks))

    def end_to_end(self) -> dict[str, float | None]:
        """Throughput and latency percentiles of the slowest stretch of the
        pass: the SLOW_POOL_BLOCKS blocks with the lowest throughput (all
        blocks have the same composition of ops), pooled.  A figure the
        pass cannot give is None: p90 without P90_TAIL samples above it in
        the pool, and all three when no op completed."""
        slowest = sorted((b for b in self.blocks if b), key=lambda b: len(b) / sum(b))
        pool = [x for block in slowest[:SLOW_POOL_BLOCKS] for x in block]
        if not pool:
            return dict.fromkeys(("throughput_ops_s", "latency_p50_ms", "latency_p90_ms"))
        p90 = percentile(pool, 0.9)
        return {
            "throughput_ops_s": len(pool) / sum(pool),
            "latency_p50_ms": percentile(pool, 0.5) * 1e3,
            "latency_p90_ms": p90 * 1e3 if sum(x > p90 for x in pool) >= P90_TAIL else None,
        }


def git_commit() -> str | None:
    """The checked-out commit, from a loose or packed ref; None outside a
    git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def environment(workload: str, seed: int, seconds, trace: int) -> dict:
    """Interpreter, machine and source identity recorded with every run."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "perindex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "clients": 1,
        "loop": "closed",
        "machine_settings": "unchanged: no CPU pinning, governor or cache control",
    }


def run_untraced(workload, first, seconds: float, set_up_again) -> tuple[Pass, int, list]:
    """Run whole blocks until ``seconds`` have passed.  At the start and
    then every SETUP_EVERY_S, between blocks, time one more set-up, so the
    set-up times sample the whole run."""
    measured = Pass()
    setup_times = [set_up_again()]
    start = last_setup = perf_counter()
    blocks = 0
    while blocks == 0 or perf_counter() - start < seconds:
        measured.run_block(first if blocks == 0 else workload.block(blocks))
        blocks += 1
        if perf_counter() - last_setup >= SETUP_EVERY_S:
            setup_times.append(set_up_again())
            last_setup = perf_counter()
    return measured, blocks, setup_times


def run_traced(package, workload, first, blocks: int):
    """Run the seed's first ``blocks`` blocks once with the tracer installed,
    from an empty factorize cache; that pass gives the per-layer metrics.
    Then measure the tracing overhead block by block: each block runs
    untraced, traced, traced, untraced, each from an empty factorize cache,
    and the overhead is the median over blocks of traced over untraced busy
    time.  The four runs of a block follow each other within about a second,
    so the host's slower and faster stretches hit both sides alike."""
    from tracer import Tracer

    ops = [first] + [workload.block(b) for b in range(1, blocks)]
    factorize = package.numtheory.factorize

    def one_pass(op_blocks, tracer=None) -> Pass:
        factorize.cache_clear()
        measured = Pass()
        if tracer:
            tracer.install(package)
        try:
            for block in op_blocks:
                measured.run_block(block, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        return measured

    tracer = Tracer()
    passes = [one_pass(ops, tracer)]
    ratios = []
    for block in ops:
        a1, b1, b2, a2 = (one_pass([block], Tracer() if traced else None)
                          for traced in (False, True, True, False))
        passes += [a1, b1, b2, a2]
        ratios.append((b1.busy_s + b2.busy_s) / (a1.busy_s + a2.busy_s))
    return passes, tracer, statistics.median(ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "perindex" / "__init__.py").is_file():
        print(f"error: perindex sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = TMP / f"{args.workload}-{os.getpid()}"
    spare = TMP / f"{args.workload}-{os.getpid()}-again"

    def set_up_again() -> tuple[float, float]:
        return set_up_in_child(args.workload, args.seed, spare)

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import perindex.cli  # noqa: F401
        package = sys.modules["perindex"]
        workload = WORKLOADS[args.workload](package, args.seed, str(workdir))
        first = workload.block(0)
        if args.trace:
            import_s = statistics.median(
                set_up_again()[1] for _ in range(SETUP_REPEATS))
            blocks = TRACE_BLOCKS[args.workload]
            passes, tracer, overhead = run_traced(package, workload, first, blocks)
            measured = passes[0]
            errors = [error for p in passes for error in p.errors]
            metrics = {name: (value, unit) for name, value, unit in layer_metrics(tracer)}
            metrics["cli.import_s"] = (import_s, "s")
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            failed = sum(p.failed for p in passes)
            attempted = sum(p.attempted for p in passes)
        else:
            measured, blocks, setup_samples = run_untraced(
                workload, first, args.seconds, set_up_again)
            setup_times = [total for total, _ in setup_samples]
            units = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
            metrics = {"setup_s": (percentile(setup_times, SETUP_QUANTILE), "s")}
            for name, value in measured.end_to_end().items():
                if value is not None:
                    metrics[name] = (value, units[name])
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            failed, attempted = measured.failed, measured.attempted
            errors = measured.errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    env.update(blocks=blocks, ops_attempted=attempted, ops_failed=failed)
    inputs = workload.properties(blocks)
    for error in errors[:MAX_ERRORS_SHOWN]:
        print(f"op failed: {error}", file=sys.stderr)
    print("# env " + json.dumps(env))
    print("# inputs " + json.dumps(inputs))
    print(f"# fail_ratio = {failed / attempted:.6g} (failed {failed} of {attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for name in ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms"):
        if args.trace == 0 and name not in metrics:
            print(f"# {name} missing: no op completed, or for p90 fewer than "
                  f"{P90_TAIL} samples above it")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "inputs": inputs, "fail_ratio": failed / attempted,
              "latencies_s_by_block": measured.blocks,
              "setup_samples_s": None if args.trace else setup_samples,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write_spans(stem.with_suffix(".spans.jsonl.gz"))

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def layer_metrics(tracer):
    """(name, value, unit) for each per-layer metric the tracer recorded."""
    for name, value in tracer.metrics().items():
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_ratio"):
            unit = "ratio"
        elif name.endswith("bits"):
            unit = "bits"
        else:
            unit = "count"
        yield name, value, unit


if __name__ == "__main__":
    sys.exit(main())
