"""Span tracing for the benchmark's traced run, and the per-layer metrics.

The traced run process calls `install`, which replaces the names the program
looks up at its module boundaries (for example `lod.element_patch`,
`lod.SaddleFactorization`, `harness.refine_hierarchy` and
`scipy.sparse.linalg.splu`) with wrappers that record one span per call.
Only public names and the SuperLU kernel are wrapped, never private helpers,
and nothing under `src/` is edited.  Spans are kept in memory and written out
once, when the run ends.

`layer_metrics` turns the spans of one run into the per-layer metrics.  This
module imports nothing outside the standard library at module level, so the
benchmark's `run.py` can use it without importing numpy or lodfem.
"""

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

CORRECTOR = "lod.assemble_corrector_set"
RUN = "harness.run_convergence"
SADDLE_FACTOR = "linalg.SaddleFactorization"
SADDLE_SOLVE = "linalg.SaddleFactorization.solve"


class Tracer:
    """Records spans: id, name, start, end, parent span, thread and run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._main_thread = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            on_main = threading.get_ident() == self._main_thread
            stack = self._main_stack if on_main else []
            self._local.stack = stack
        return stack

    def call(self, name, fn, args=(), kwargs=None, measure=None):
        """Call fn inside a span; `measure(result)` adds attributes to it."""
        stack = self._stack()
        # A worker thread's outermost span belongs to the main-thread span
        # that started the pool (the corrector assembly).
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException:
            self._record(span_id, name, start, time.perf_counter(), parent,
                         {"error": True})
            raise
        finally:
            stack.pop()
        end = time.perf_counter()
        self._record(span_id, name, start, end, parent,
                     measure(result) if measure else {})
        return result

    def _record(self, span_id, name, start, end, parent, attrs):
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "thread": threading.get_ident(),
            "run": self.run_id, "attrs": attrs,
        })

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer):
    """Wrap the public names each caller in lodfem looks up."""
    import numpy
    import scipy.sparse.linalg as spla

    from lodfem import cli, coefficient, fem, harness, interpolation, lod

    def patch(owner, attr, name, measure=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), measure))

    patch(cli, "run_convergence", RUN)
    patch(harness, "refine_hierarchy", "mesh.refine_hierarchy")
    for attr in ("make_constant", "make_periodic", "make_checkerboard"):
        patch(coefficient, attr, "coefficient.build")
    patch(interpolation, "build_interpolation",
          "interpolation.build_interpolation")
    for attr in ("build_operators", "solve_reference", "error_norms",
                 "apply_subset_stiffness"):
        patch(fem, attr, f"fem.{attr}")
    patch(lod, "assemble_corrector_set", CORRECTOR,
          lambda cs: {"nnz": int(cs.matrix.nnz),
                      "n_fine_interior": int(cs.matrix.shape[1])})
    for attr in ("build_multiscale_space", "solve_multiscale"):
        patch(lod, attr, f"lod.{attr}")
    patch(lod, "element_patch", "mesh.element_patch")
    patch(lod, "spd_solve", "linalg.spd_solve")
    patch(fem, "spd_solve", "linalg.spd_solve")
    # SuperLU.nnz: stored nonzeros of L and U, as SuperLU keeps them.
    patch(spla, "splu", "linalg.splu", lambda lu: {"factor_nnz": int(lu.nnz)})
    patch(numpy.linalg, "lstsq", "linalg.dense_fallback")

    class TracedSaddleFactorization(lod.SaddleFactorization):
        def __init__(self, A, C):
            tracer.call(SADDLE_FACTOR, super().__init__, (A, C),
                        measure=lambda _: {"kkt_dim": A.shape[0] + C.shape[0]})

        def solve(self, *args, **kwargs):
            return tracer.call(SADDLE_SOLVE, super().solve, args, kwargs)

    lod.SaddleFactorization = TracedSaddleFactorization


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Summed self time per span name: duration minus the time children cover."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    out = Counter()
    for span in spans:
        start, end = span["start"], span["end"]
        kids = [(max(c["start"], start), min(c["end"], end))
                for c in children[span["id"]]]
        out[span["name"]] += (end - start) - _covered(
            [(a, b) for a, b in kids if b > a])
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced run: {name: (value, unit)}."""
    busy, calls, attrs = Counter(), Counter(), defaultdict(Counter)
    for span in spans:
        busy[span["name"]] += span["end"] - span["start"]
        calls[span["name"]] += 1
        attrs[span["name"]].update(span["attrs"])
    own = self_times(spans)

    by_id = {span["id"]: span for span in spans}
    correctors = [s for s in spans if s["name"] == CORRECTOR]
    corrector_ids = {s["id"] for s in correctors}
    # Each saddle solve under a corrector span produces one dense
    # contribution row of n_fine_interior doubles.
    solves_under = Counter()
    for span in spans:
        if span["name"] != SADDLE_SOLVE:
            continue
        parent = span["parent"]
        while parent and parent not in corrector_ids:
            parent = by_id[parent]["parent"] if parent in by_id else 0
        if parent:
            solves_under[parent] += 1
    dense_bytes = sum(solves_under[s["id"]] * s["attrs"].get("n_fine_interior", 0)
                      * 8 for s in correctors)
    child_busy = sum(s["end"] - s["start"] for s in spans
                     if s["parent"] in corrector_ids)
    corrector_busy = busy[CORRECTOR]

    def timed(name, metric):
        return {f"{metric}_s": (busy[name], "s"),
                f"{metric}_calls": (calls[name], "count")}

    metrics = {}
    metrics.update(timed("mesh.element_patch", "mesh.element_patch"))
    for name in ("mesh.refine_hierarchy", "coefficient.build",
                 "interpolation.build_interpolation", "fem.build_operators",
                 "fem.solve_reference", "fem.error_norms",
                 "linalg.spd_solve", "lod.build_multiscale_space",
                 "lod.solve_multiscale", RUN):
        metrics[f"{name}_s"] = (busy[name], "s")
    metrics.update(timed("fem.apply_subset_stiffness", "fem.apply_subset_stiffness"))
    metrics.update(timed(SADDLE_FACTOR, "linalg.saddle_factor"))
    metrics["linalg.kkt_dim_sum"] = (attrs[SADDLE_FACTOR]["kkt_dim"], "count")
    metrics.update(timed(SADDLE_SOLVE, "linalg.saddle_solve"))
    metrics.update(timed("linalg.splu", "linalg.splu"))
    metrics["linalg.splu_factor_nnz"] = (attrs["linalg.splu"]["factor_nnz"], "count")
    metrics["linalg.dense_fallback_calls"] = (calls["linalg.dense_fallback"], "count")
    metrics.update(timed(CORRECTOR, CORRECTOR))
    metrics[f"{CORRECTOR}.self_s"] = (own[CORRECTOR], "s")
    metrics["lod.corrector_nnz"] = (attrs[CORRECTOR]["nnz"], "count")
    metrics["lod.corrector_dense_bytes"] = (dense_bytes, "bytes")
    metrics["lod.corrector_parallel_ratio"] = (
        child_busy / corrector_busy if corrector_busy > 0 else 0.0, "ratio")
    metrics["harness.self_s"] = (own[RUN], "s")
    return metrics
