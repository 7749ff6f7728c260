"""Layer spans for the traced run, recorded from outside the engine.

The tracer wraps the public entry points of each so3alg layer: methods are
patched on their class (``QMatrix.rref``), and module-level functions are
rebound in every module that holds a reference to them, since ``toral``
binds ``cokernel_of_map`` through ``from .graded import ...``.  Per-element
helpers (``QMatrix.__init__``, ``GradedModule.basis``, ``power_at``) are left
alone: they run about a million times a run and would swamp the figures.

A span is ``[name, start, end, parent, job]``.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus the
time its child spans cover, so the self times of all spans under one root add
up to the root's duration.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

from so3alg import burnside, cli, dihedral, exceptional, graded, linalg, toral

_now = time.perf_counter


def _rref_cells(tracer, args):
    m = args[0]
    tracer.cells.append(m.rows * m.cols)


def _solve_result(tracer, args, result):
    tracer.counters["linalg.solve.consistent"] += result is not None


def _hom_unknowns(tracer, args, result):
    tracer.counters["toral.HomSpace.unknowns"] += len(args[0].unknowns)


def _exit_code(tracer, args, result):
    tracer.counters[f"cli.exit_code.{result}"] += 1


# (class, method, span name, hook before the call, hook after it)
METHODS = [
    (linalg.QMatrix, "rref", "linalg.rref", _rref_cells, None),
    (linalg.QMatrix, "rank", "linalg.rank", None, None),
    (linalg.QMatrix, "kernel_basis", "linalg.kernel_basis", None, None),
    (linalg.QMatrix, "cokernel_data", "linalg.cokernel_data", None, None),
    (linalg.QMatrix, "solve", "linalg.solve", None, _solve_result),
    (linalg.QMatrix, "solve_matrix", "linalg.solve_matrix", None, None),
    (linalg.QMatrix, "inverse", "linalg.inverse", None, None),
    (linalg.QMatrix, "__matmul__", "linalg.matmul", None, None),
    (toral.HomSpace, "__init__", "toral.HomSpace", None, _hom_unknowns),
    (exceptional.GroupComplex, "__init__", "exceptional.GroupComplex_init", None, None),
    (burnside.BurnsideElement, "__add__", "burnside.add", None, None),
    (burnside.BurnsideElement, "__sub__", "burnside.sub", None, None),
    (burnside.BurnsideElement, "__mul__", "burnside.mul", None, None),
    (burnside.BurnsideElement, "scale", "burnside.scale", None, None),
]

# (module, function, span name, hook after the call)
FUNCTIONS = [
    (graded, "cokernel_of_map", "graded.cokernel_of_map", None),
    (graded, "kernel_of_map", "graded.kernel_of_map", None),
    (graded, "canonical_from_window", "graded.canonical_from_window", None),
    (graded, "homology_realized", "graded.homology_realized", None),
    (toral, "injective_resolution", "toral.injective_resolution", None),
    (toral, "ext_A", "toral.ext_A", None),
    (toral, "check_star", "toral.check_star", None),
    (toral, "hom_A", "toral.hom_A", None),
    (toral, "homology_dA", "toral.homology_dA", None),
    (toral, "parity_split", "toral.parity_split", None),
    (dihedral, "homology_Ch", "dihedral.homology_Ch", None),
    (dihedral, "cone", "dihedral.cone", None),
    (dihedral, "germ_fixed_points", "dihedral.germ_fixed_points", None),
    (dihedral, "counit_const", "dihedral.counit_const", None),
    (dihedral, "is_weak_equivalence", "dihedral.is_weak_equivalence", None),
    (dihedral, "direct_sum_dihedral", "dihedral.direct_sum_dihedral", None),
    (exceptional, "tensor_diagonal", "exceptional.tensor_diagonal", None),
    (exceptional, "internal_hom_conj", "exceptional.internal_hom_conj", None),
    (exceptional, "homology_W", "exceptional.homology_W", None),
    (burnside, "unit", "burnside.unit", None),
    (burnside, "zero", "burnside.zero", None),
    (burnside, "idempotent", "burnside.idempotent", None),
    (burnside, "restrict_to_O2", "burnside.restrict_to_O2", None),
    (burnside, "to_json", "burnside.to_json", None),
    (burnside, "from_json", "burnside.from_json", None),
    (cli, "main", "cli.main", _exit_code),
    (cli, "load_toral", "cli.decode", None),
    (cli, "load_burnside", "cli.decode", None),
    (cli, "toral_to_json", "cli.encode", None),
]

CELL_BUCKETS = (16, 64, 256)

# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count",
    "linalg.rref.cells_p50": "count",
    "linalg.rref.cells_p90": "count",
    "linalg.rref.cells_p99": "count",
    "linalg.rref.max_cells": "count",
    **{f"linalg.rref.calls_le{b}": "count" for b in CELL_BUCKETS},
    f"linalg.rref.calls_gt{CELL_BUCKETS[-1]}": "count",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.solve.consistent_ratio": "ratio",
    **{f"linalg.{f}.{k}": u for f in ("kernel_basis", "cokernel_data", "matmul")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "linalg.self_s": "s",
    **{f"graded.{f}.{k}": u
       for f in ("cokernel_of_map", "kernel_of_map", "canonical_from_window", "homology_realized")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "graded.span.accept_ratio": "ratio",
    "graded.self_s": "s",
    **{f"toral.{f}.{k}": u
       for f in ("HomSpace", "injective_resolution", "ext_A", "check_star")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "toral.HomSpace.unknowns": "count",
    "toral.self_s": "s",
    **{f"dihedral.{f}.{k}": u
       for f in ("homology_Ch", "cone", "germ_fixed_points", "counit_const")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "dihedral.self_s": "s",
    **{f"exceptional.{f}.{k}": u
       for f in ("tensor_diagonal", "internal_hom_conj", "homology_W", "GroupComplex_init")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "exceptional.self_s": "s",
    "cli.decode.self_s": "s",
    "cli.encode.self_s": "s",
    "cli.self_s": "s",
    **{f"cli.exit_code.{c}": "count" for c in (0, 2, 3, 4)},
    "burnside.calls": "count",
    "burnside.self_s": "s",
    "bench.job.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


class _JsonShim(types.ModuleType):
    """Stands in for ``json`` inside ``cli`` so that report serialization
    (``json.dumps``) is traced as encoding."""

    def __init__(self, dumps):
        super().__init__("json")
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.counters: Counter = Counter()
        self.cells: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = _now()
        self.stack.pop()

    def wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- installing the wrappers ---------------------------------------------------

    def install(self, extra_modules=()):
        """Patch every layer; extra_modules also get their imported names
        rebound (the benchmark's own workload code)."""
        for cls, meth, name, before, after in METHODS:
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(orig, name, before, after))
            self._undo.append((cls, meth, orig))
        modules = [m for n, m in sys.modules.items() if n == "so3alg" or n.startswith("so3alg.")]
        modules += list(extra_modules)
        for module, fname, name, after in FUNCTIONS:
            orig = getattr(module, fname)
            traced = self.wrap(orig, name, None, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
                        self._undo.append((mod, attr, orig))
        span_add = graded.IncrementalSpan.add
        counters = self.counters

        def add(span, v):
            grew = span_add(span, v)
            counters["graded.span.attempts"] += 1
            counters["graded.span.accepted"] += grew
            return grew

        graded.IncrementalSpan.add = add
        self._undo.append((graded.IncrementalSpan, "add", span_add))
        self._undo.append((cli, "json", cli.json))
        cli.json = _JsonShim(self.wrap(json.dumps, "cli.encode"))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_n, start, end, _p, _j), c in zip(self.spans, covered)]

    def aggregate(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        calls, self_s = Counter(), Counter()
        for span, s in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += s
        return calls, self_s

    def metrics(self, wall_s: float, overhead_ratio: float) -> dict:
        calls, self_s = self.aggregate()
        layer_self, layer_calls = Counter(), Counter()
        for name, s in self_s.items():
            layer_self[name.split(".")[0]] += s
            layer_calls[name.split(".")[0]] += calls[name]
        cells = sorted(self.cells)
        q = statistics.quantiles(cells, n=100, method="inclusive") if len(cells) > 1 else cells * 99
        c = self.counters
        values = {
            "linalg.rref.cells": sum(cells),
            "linalg.rref.cells_p50": statistics.median(cells) if cells else 0,
            "linalg.rref.cells_p90": q[89] if cells else 0,
            "linalg.rref.cells_p99": q[98] if cells else 0,
            "linalg.rref.max_cells": cells[-1] if cells else 0,
            f"linalg.rref.calls_gt{CELL_BUCKETS[-1]}": sum(1 for n in cells if n > CELL_BUCKETS[-1]),
            "linalg.solve.consistent_ratio": c["linalg.solve.consistent"] / max(calls["linalg.solve"], 1),
            "graded.span.accept_ratio": c["graded.span.accepted"] / max(c["graded.span.attempts"], 1),
            "toral.HomSpace.unknowns": c["toral.HomSpace.unknowns"],
            "burnside.calls": layer_calls["burnside"],
            "trace.wall_s": wall_s,
            "trace.overhead_ratio": overhead_ratio,
        }
        for lo, b in zip((-1,) + CELL_BUCKETS, CELL_BUCKETS):
            values[f"linalg.rref.calls_le{b}"] = sum(1 for n in cells if lo < n <= b)
        for code in (0, 2, 3, 4):
            values[f"cli.exit_code.{code}"] = c[f"cli.exit_code.{code}"]
        out = {}
        for name, unit in PER_LAYER.items():
            if name in values:
                value = values[name]
            elif name.endswith(".calls"):
                value = calls[name[: -len(".calls")]]
            elif name.count(".") == 1:  # a layer's self time, e.g. linalg.self_s
                value = layer_self[name.split(".")[0]]
            else:
                value = self_s[name[: -len(".self_s")]]
            out[name] = {"value": value, "unit": unit}
        return out

    def cell_histogram(self) -> dict[str, int]:
        """rref calls by matrix size: empty matrices, then powers-of-two
        buckets of cells."""
        hist = Counter(0 if n == 0 else 1 << (n - 1).bit_length() for n in self.cells)
        return {("0" if b == 0 else f"<={b}"): hist[b] for b in sorted(hist)}

    def dump(self, path: Path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
