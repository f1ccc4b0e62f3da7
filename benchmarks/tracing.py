"""Span tracing of cfrenewal's layers from outside the package.

``Tracer.install`` replaces functions and methods of the package's modules
with timing wrappers and ``uninstall`` puts the originals back; the package's
code is never edited.  Each wrapped call records a span (name, start, end,
parent), kept in memory and written out once at the end.  Functions called
thousands of times per command (``uniforms_np``, ``TransferPlan.apply``,
``LazyReal.next_digit``) are *leaves*: their calls are summed per parent span
(count, total time, extra count) instead of one span each, which keeps a
trace small and the wrapper cheap.  Per-element counts that are hotter still
(bits per digit) are read from object state, not by wrapping ``next_bit``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = "cli.main"

# the per-layer metrics a traced run reports, with their units
LAYER_METRICS = {
    "bits.uniforms_np.s": "s",
    "bits.uniforms_np.draws": "count",
    "sampling.digit_sum_crossings.self_s": "s",
    "sampling.digit_sums_at.self_s": "s",
    "experiments.chunk_overhead_s": "s",
    "experiments.workers2_s": "s",
    "stats.sort_s": "s",
    "stats.ks_s": "s",
    "cli.rows_s": "s",
    "cli.emit_s": "s",
    "cli.output_bytes": "bytes",
    "transfer.TransferPlan.apply.s": "s",
    "transfer.TransferPlan.apply.calls": "count",
    "transfer.cone_check.s": "s",
    "transfer.exact_iterate.s": "s",
    "transfer.plan_build_s": "s",
    "exact.LazyReal.next_digit.s": "s",
    "exact.digits": "count",
    "exact.bits_per_digit": "bit/digit",
    "farey.fluctuation.self_s": "s",
    "process.import_s": "s",
    "trace.overhead_s": "s",
}

# spans whose self time is chunk scheduling: ranges, the map, and concatenation
_CHUNK_SPANS = (
    "experiments.fluctuation_samples",
    "experiments._digit_sums_parallel",
    "experiments._map_chunks",
    "experiments._sampled_chunk",
    "experiments._sums_chunk",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.leaves: dict[tuple[Optional[int], str], list[float]] = defaultdict(lambda: [0, 0.0, 0])
        self.reals: list[tuple[Optional[int], Any]] = []  # (root span id, LazyReal) pairs
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> dict[str, Any]:
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; returns (result, span)."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs), span
        finally:
            self._close(span)

    def _span_wrapper(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args)
            return out

        return wrapper

    def _leaf_wrapper(self, name: str, fn: Callable, extra: Optional[Callable] = None) -> Callable:
        leaves, stack, clock = self.leaves, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            agg = leaves[(stack[-1] if stack else None, name)]
            agg[0] += 1
            agg[1] += clock() - t0
            if extra is not None:
                agg[2] += extra(args)
            return out

        return wrapper

    # ------------------------------------------------------------ patching

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the package's layer boundaries; ``uninstall`` restores them."""
        import numpy as np
        from cfrenewal import cli, exact, experiments, sampling, stats, transfer

        span, leaf = self._span_wrapper, self._leaf_wrapper
        self._patch(sampling, "uniforms_np", leaf(
            "bits.uniforms_np", sampling.uniforms_np, lambda a: np.broadcast(a[0], a[1]).size))
        for name in ("digit_sum_crossings", "digit_sums_at"):
            self._patch(sampling, name, span(f"sampling.{name}", getattr(sampling, name)))
        for name in ("fluctuation_samples", "_digit_sums_parallel", "_map_chunks",
                     "_sampled_chunk", "_sums_chunk", "_exact_chunk"):
            self._patch(experiments, name, span(f"experiments.{name}", getattr(experiments, name)))
        self._patch(experiments, "fluctuation", span("farey.fluctuation", experiments.fluctuation))
        for name in ("ks_uniform", "ks_two_sample"):
            self._patch(experiments, name, span(f"stats.{name}", getattr(experiments, name)))
        from_samples = stats.EmpiricalDistribution.__dict__["from_samples"].__func__
        self._patch(stats.EmpiricalDistribution, "from_samples",
                    classmethod(span("stats.EmpiricalDistribution.from_samples", from_samples)))

        def output_bytes(span_rec, args):
            stem = args[0].out
            span_rec["bytes"] = sum(os.path.getsize(stem + s) for s in (".csv", ".json")
                                    if stem and os.path.exists(stem + s))

        self._patch(cli, "_emit", span("cli._emit", cli._emit, output_bytes))
        for name, layer in (("run_uniform_law", "experiments"), ("run_stable_stability", "experiments"),
                            ("uniform_returning_trace", "transfer"), ("farey_mesh", "transfer"),
                            ("exact_iterate", "transfer")):
            self._patch(cli, name, span(f"{layer}.{name}", getattr(cli, name)))
        self._patch(transfer, "cone_check", span("transfer.cone_check", transfer.cone_check))
        self._patch(transfer.TransferPlan, "apply", leaf("transfer.TransferPlan.apply", transfer.TransferPlan.apply))
        self._patch(transfer.TransferPlan, "__init__",
                    span("transfer.TransferPlan.__init__", transfer.TransferPlan.__init__))
        self._patch(exact.LazyReal, "next_digit", leaf("exact.LazyReal.next_digit", exact.LazyReal.next_digit))

        real_init = exact.LazyReal.__init__
        reals, stack = self.reals, self._stack

        @functools.wraps(real_init)
        def track_real(obj, *args, **kwargs):
            real_init(obj, *args, **kwargs)
            reals.append((stack[0] if stack else None, obj))

        self._patch(exact.LazyReal, "__init__", track_real)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def root_metrics(self, root: dict[str, Any]) -> dict[str, float]:
        """Per-layer totals for one traced command (a ``cli.main`` root span)."""
        inside = {root["id"]}
        for s in self.spans[root["id"] + 1:]:
            if s["parent"] in inside:
                inside.add(s["id"])
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["id"] in inside and s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        leaf_tot: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0])
        for (parent, name), (count, total, extra) in self.leaves.items():
            if parent in inside:
                child_time[parent] += total
                agg = leaf_tot[name]
                agg[0] += count
                agg[1] += total
                agg[2] += extra

        def dur(names):
            return sum(s["end"] - s["start"] for s in self.spans if s["id"] in inside and s["name"] in names)

        def self_time(names):
            return sum(s["end"] - s["start"] - child_time[s["id"]]
                       for s in self.spans if s["id"] in inside and s["name"] in names)

        reals = [r for rid, r in self.reals if rid == root["id"]]
        bits = sum(r.bits_consumed for r in reals)
        digits = sum(r.digits_emitted for r in reals)
        return {
            "bits.uniforms_np.s": leaf_tot["bits.uniforms_np"][1],
            "bits.uniforms_np.draws": leaf_tot["bits.uniforms_np"][2],
            "sampling.digit_sum_crossings.self_s": self_time({"sampling.digit_sum_crossings"}),
            "sampling.digit_sums_at.self_s": self_time({"sampling.digit_sums_at"}),
            "experiments.chunk_overhead_s": self_time(set(_CHUNK_SPANS)),
            "stats.sort_s": dur({"stats.EmpiricalDistribution.from_samples"}),
            "stats.ks_s": dur({"stats.ks_uniform", "stats.ks_two_sample"}),
            "cli.rows_s": self_time({ROOT}),
            "cli.emit_s": dur({"cli._emit"}),
            "cli.output_bytes": sum(s.get("bytes", 0) for s in self.spans
                                    if s["id"] in inside and s["name"] == "cli._emit"),
            "transfer.TransferPlan.apply.s": leaf_tot["transfer.TransferPlan.apply"][1],
            "transfer.TransferPlan.apply.calls": leaf_tot["transfer.TransferPlan.apply"][0],
            "transfer.cone_check.s": dur({"transfer.cone_check"}),
            "transfer.exact_iterate.s": dur({"transfer.exact_iterate"}),
            "transfer.plan_build_s": dur({"transfer.TransferPlan.__init__"}),
            "exact.LazyReal.next_digit.s": leaf_tot["exact.LazyReal.next_digit"][1],
            "exact.digits": leaf_tot["exact.LazyReal.next_digit"][0],
            "exact.bits_per_digit": bits / digits if digits else 0.0,
            "farey.fluctuation.self_s": self_time({"farey.fluctuation"}),
        }

    def write(self, path: Path) -> None:
        leaves = [{"parent": p, "name": n, "count": c, "total_s": t, "extra": e}
                  for (p, n), (c, t, e) in self.leaves.items()]
        path.write_text(json.dumps({"spans": self.spans, "leaves": leaves}) + "\n", encoding="utf-8")
