"""Spans and counts around calls into lyapcert's layers.

The tracer replaces module attributes and class methods with timing
wrappers for the traced rounds and puts the originals back
afterwards.  A name bound with `from ... import` lives on in the module
that imported it, so such names are patched where they are called
(`sos_cert.solve_sdp`, `flow.nnls`, `cones.solve`).  Spans are kept in
memory as (name, start, end, parent) and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so that each call records a span and, optionally, counts."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result
        return wrapper

    def count_calls(self, name: str, fn):
        """Wrap fn so that each call adds one to counts[name]; no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans of one name that nest (refine_all calling
        refine_cells) count the outer one only in the total.
        """
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            nested = False
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start) - child_time[i]
        return total, own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from lyapcert import (cones, cop_lp, flow, linprog, oracle, poly,
                          sos_cert, tangency)
    t = tracer
    last_cells = [0]

    def on_assemble(counts, args, kwargs, result):
        lp, prov = result
        counts["cop_lp.rows_assembled"] += lp.A.shape[0]
        sections = args[3] if len(args) > 3 else kwargs["sections"]
        last_cells[0] = sum(len(s.partition.cells) for s in sections)

    def on_hierarchy(counts, args, kwargs, outcome):
        counts["cop_lp.sweeps"] += sum(lv.sweeps_done for lv in outcome.levels)
        counts["cones.cells_final"] += last_cells[0]

    def on_lp(counts, args, kwargs, result):
        counts["linprog.calls"] += 1
        counts["linprog.pivots"] += result.pivots
        counts["linprog.not_optimal"] += result.status != "optimal"

    def on_sdp(counts, args, kwargs, result):
        counts["sdpsolve.calls"] += 1
        counts["sdpsolve.iterations"] += result.iterations

    def on_grid(counts, args, kwargs, result):
        counts["oracle.samples"] += len(result)

    def on_sos_oracle(counts, args, kwargs, result):
        counts["oracle.samples"] += kwargs.get("samples", 10_000)

    def on_nnls(counts, args, kwargs, result):
        counts["tangency.nnls_calls"] += 1

    def on_step(counts, args, kwargs, result):
        counts["flow.steps"] += 1

    def span(name, on_result=None):
        return lambda fn: t.span(name, fn, on_result)

    t.patch(cop_lp, "run_hierarchy",
            span("cop_lp.run_hierarchy", on_hierarchy))
    t.patch(cop_lp, "assemble_lp", span("cop_lp.assemble_lp", on_assemble))
    t.patch(cop_lp, "initial_sections", span("cones.initial_sections"))
    t.patch(cones.SimplicialPartition, "refine_cells",
            span("cones.refine_cells"))
    t.patch(poly.SymmetricTensor, "eval",
            lambda fn: t.count_calls("poly.tensor_evals", fn))
    for owner in (linprog, cones):
        t.patch(owner, "solve", span("linprog.solve", on_lp))
    t.patch(sos_cert, "solve_sdp", span("sdpsolve.solve_sdp", on_sdp))
    for name in ("assemble_condition_i", "assemble_condition_ii",
                 "assemble_condition_iii"):
        t.patch(sos_cert, name, span("sos_cert.assemble"))
    t.patch(oracle, "verify_sos", span("oracle.verify_sos", on_sos_oracle))
    t.patch(oracle, "verify_conic", span("oracle.verify_conic"))
    t.patch(oracle, "barycentric_grid", span("oracle.grid", on_grid))
    for owner in (tangency, flow):
        t.patch(owner, "nnls", span("tangency.nnls", on_nnls))
    t.patch(flow, "step", span("flow.step", on_step))
    for name in ("project_cone", "project_set"):
        t.patch(flow, name, span("flow.project"))
