"""Timing wrappers installed around perindex's public functions from outside.

The program is not modified: the tracer replaces every binding a function is
called through (module globals, from-imports in other modules, class
attributes) with a wrapper, and restores the originals on uninstall.  A
spanned function records (name, start, end, parent span, op id); a counted
function only increments a call count, so its time stays in its caller's
self time.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

# name -> how it is traced.  Names are "<module>.<qualname>" in perindex.
SPANNED = (
    "numtheory.factorize",
    "numtheory.is_prime",
    "stable_tables.stable_exponent_BZr",
    "stable_tables.exponent_table_from_json",
    "bounds.upper_bound_product",
    "bounds.lower_bound_skeleton",
    "bounds.min_admissible_degree",
    "homology.smith_normal_form",
    "homology.SmithDecomposition.verify",
    "homology.ChainComplex.__init__",
    "homology.chain_complex_from_json",
    "homology.cohomology_Z",
    "homology.cohomology_mod",
    "homology.bockstein",
    "ahss.TwistedShape.from_complex",
    "ahss.best_upper_bound",
    "ahss.twisted_shape_from_json",
    "cli.main",
    "cli.build_parser",
)
COUNTED = (
    "numtheory.m_closed",
    "numtheory.n_func",
    "bounds.degree_admissible",
)
MODULES = ("numtheory", "stable_tables", "bounds", "homology", "ahss", "cli")

# Time spent on the tracer's own measurements inside an op (entry bit
# lengths of SNF results).  It is a child span of the caller, so it leaves
# no trace in any layer's self time, and it is not reported as a layer.
BOOKKEEPING = "trace.bookkeeping"


def self_times(spans) -> dict[str, float]:
    """Sum, per span name, of each span's duration minus the part of its
    interval covered by its direct children.

    spans: sequence of (name, start, end, parent_index, op_id) where
    parent_index is -1 for a root span.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append(span)
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for _, c_start, c_end, _, _ in sorted(children.get(idx, ()), key=lambda s: s[1]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)


def _max_entry_bits(decomposition) -> int:
    return max(
        (
            abs(x).bit_length()
            for m in (decomposition.U, decomposition.V, decomposition.u_inv, decomposition.v_inv)
            for row in m.data
            for x in row
        ),
        default=0,
    )


class Tracer:
    """Spans and counters for one traced pass over a fixed list of ops."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.snf_entries = 0
        self.snf_max_bits = 0
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._factorize = None
        self._factorize_hits0 = 0
        self.factorize_hits = 0

    # --- recording ---------------------------------------------------------

    def _spanned(self, name, module, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            stack = self._stack
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return wrapper

    def _counted(self, name, module, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise

        return wrapper

    def _snf(self, fn):
        inner = self._spanned("homology.smith_normal_form", "homology", fn)

        @functools.wraps(fn)
        def wrapper(a):
            result = inner(a)
            start = perf_counter()
            self.snf_entries += a.rows * a.cols
            self.snf_max_bits = max(self.snf_max_bits, _max_entry_bits(result))
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((BOOKKEEPING, start, perf_counter(), parent, self.op))
            return result

        return wrapper

    # --- installation ------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap every traced function of the imported perindex package at
        every module binding that refers to it."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        for name in SPANNED + COUNTED:
            module_name, *path = name.split(".")
            owner = getattr(package, module_name)
            for part in path[:-1]:
                owner = getattr(owner, part)
            raw = owner.__dict__[path[-1]]
            if len(path) > 1:
                # a method or classmethod: replace the class attribute only
                if isinstance(raw, classmethod):
                    new = classmethod(self._spanned(name, module_name, raw.__func__))
                else:
                    new = self._spanned(name, module_name, raw)
                self._replace(owner, path[-1], new)
                continue
            if name == "homology.smith_normal_form":
                new = self._snf(raw)
            elif name in COUNTED:
                new = self._counted(name, module_name, raw)
            else:
                new = self._spanned(name, module_name, raw)
            if name == "numtheory.factorize":
                self._factorize = raw
                self._factorize_hits0 = raw.cache_info().hits
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._replace(module, attr, new)

    def uninstall(self) -> None:
        if self._factorize is not None:
            self.factorize_hits = self._factorize.cache_info().hits - self._factorize_hits0
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # --- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values: calls and self time of every traced function,
        SNF input entries and result bit lengths, the factorize cache hit
        ratio while installed, and exceptions per module."""
        selfs = self_times(self.spans)
        out: dict[str, float] = {}
        for name in SPANNED + COUNTED:
            out[f"{name}.calls"] = self.calls[name]
            if name in SPANNED:
                out[f"{name}.self_s"] = selfs.get(name, 0.0)
        out["homology.smith_normal_form.entries"] = self.snf_entries
        out["homology.smith_normal_form.max_entry_bits"] = self.snf_max_bits
        calls = self.calls["numtheory.factorize"]
        out["numtheory.factorize.cache_hit_ratio"] = self.factorize_hits / calls if calls else 0.0
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module]
        return out

    def write_spans(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                "parent": parent, "op": op})
                    + "\n"
                )
