"""Per-layer tracing for the traced benchmark run.

The tracer wraps seqstack's public callables from outside the package while a
`with Tracer():` block is open and restores the originals when it closes, so
nothing under src/ changes and untraced runs pay nothing.

Two kinds of record are kept in memory:

* spans around the calls that cross a layer boundary (encoder forward, the
  recurrent and attention stacks, pooling, the head, backward, clipping, Adam,
  batching, the dev-set evaluation inside train(), checkpoint save and load),
  each with its parent, so a layer's self time is its span minus its children;
* per tape entry, the op kind and the module whose forward span recorded it.
  Each entry's backward closure is wrapped in a timer, which gives backward
  time per module and per op kind without touching the tape code.

Every span carries the phase it ran in: "train" (a training step), "dev" (the
per-epoch dev evaluation inside train()) or "eval" (the benchmark's test
evaluation). `summary()` turns the records into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from seqstack import attention, encoder, optim, pipeline, recurrent, tensor

# Op kinds reported one by one; any other kind a later version records is
# folded into "other", so the metric set stays fixed.
OPS = (
    "add", "bmm", "concat_last", "cross_entropy", "cumsum_last", "dropout",
    "gather_rows", "layer_norm", "matmul", "mul", "permute", "relu",
    "repeat_last", "reshape", "reverse_last", "scale", "select_steps",
    "sigmoid", "slice_last", "slice_rows", "softmax_rows", "stack_steps", "sub",
    "tanh", "tile_batch",
)

# Entries recorded outside every module span (pair split, concat, loss).
GLUE = "pipeline.other"


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float = 0.0
    parent: int = -1


class _TimedBackward:
    """Stands in for a tape entry's backward closure and times each call."""

    __slots__ = ("fn", "key", "totals")

    def __init__(self, fn, key, totals):
        self.fn = fn
        self.key = key
        self.totals = totals

    def __call__(self, g):
        t0 = time.perf_counter()
        try:
            return self.fn(g)
        finally:
            self.totals[self.key] += time.perf_counter() - t0


class Tracer:
    def __init__(self):
        self.phase = "train"
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.entries: Counter = Counter()          # (module, op) -> tape entries
        self.bwd_s: defaultdict = defaultdict(float)  # (module, op) -> backward seconds
        self.off_dtype = 0
        self.tokens = defaultdict(lambda: [0.0, 0])   # phase -> [real, padded total]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        fwd = self._forward_span
        self._patch(encoder.Encoder, "__call__", lambda f: fwd("encoder", f))
        self._patch(recurrent.RecurrentEncoder, "__call__", lambda f: fwd("recurrent", f))
        self._patch(attention.SanEncoder, "__call__", lambda f: fwd("attention", f))
        self._patch(pipeline, "pool_last_hidden", lambda f: fwd("pipeline.pool", f))
        self._patch(pipeline, "pool_trainable_queries", lambda f: fwd("pipeline.pool", f))
        self._patch(pipeline.ClassifierHead, "__call__", lambda f: fwd("pipeline.head", f))
        self._patch(pipeline, "_batch_arrays", self._batch_span)
        self._patch(pipeline, "backward", self._backward_span)
        self._patch(pipeline, "clip_global_norm", lambda f: self._span("optim.clip", f))
        self._patch(optim.Adam, "step", lambda f: self._span("optim.adam", f))
        self._patch(pipeline, "save_model", lambda f: self._span("checkpoint.save", f))
        self._patch(pipeline, "load_model", lambda f: self._span("checkpoint.load", f))
        self._patch(pipeline, "evaluate", self._dev_eval_span)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._patched.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    # -- spans ----------------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.phase, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)
        return wrapper

    def _forward_span(self, name: str, fn):
        """Span that also claims the tape entries recorded inside it.

        Children close first, so each entry goes to the innermost module.
        """
        def wrapper(*args, **kwargs):
            entries = tensor.active_tape().entries
            first = len(entries)
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)
                self._claim(entries, first, name)
        return wrapper

    def _claim(self, entries, first: int, module: str) -> None:
        for entry in entries[first:]:
            if not isinstance(entry.backward, _TimedBackward):
                key = (module, entry.op if entry.op in OPS else "other")
                entry.backward = _TimedBackward(entry.backward, key, self.bwd_s)

    def _batch_span(self, fn):
        span = self._span("pipeline.batch", fn)

        def wrapper(*args, **kwargs):
            ids, mask, labels = span(*args, **kwargs)
            counts = self.tokens[self.phase]
            counts[0] += float(mask.sum())
            counts[1] += mask.size
            return ids, mask, labels
        return wrapper

    def _backward_span(self, fn):
        span = self._span("tensor.backward", fn)
        build_dtype = np.dtype(tensor.default_dtype())

        def wrapper(loss):
            entries = tensor.active_tape().entries
            self._claim(entries, 0, GLUE)
            for entry in entries:
                self.entries[entry.backward.key] += 1
                self.off_dtype += entry.output.dtype != build_dtype
            return span(loss)
        return wrapper

    def _dev_eval_span(self, fn):
        span = self._span("pipeline.dev_eval", fn)

        def wrapper(*args, **kwargs):
            outer, self.phase = self.phase, "dev"
            try:
                return span(*args, **kwargs)
            finally:
                self.phase = outer
        return wrapper

    # -- summary --------------------------------------------------------------

    def span_totals(self) -> tuple[dict, dict, Counter]:
        """Self seconds, whole seconds and calls per (phase, span name)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        self_s: defaultdict = defaultdict(float)
        whole_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for s, c in zip(self.spans, child):
            self_s[(s.phase, s.name)] += (s.end - s.start) - c
            whole_s[(s.phase, s.name)] += s.end - s.start
            calls[(s.phase, s.name)] += 1
        return self_s, whole_s, calls

    def summary(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: forward and backward per train step, eval per batch."""
        self_s, whole_s, calls = self.span_totals()
        steps = calls[("train", "pipeline.batch")]
        batches = calls[("eval", "pipeline.batch")]

        def per(total: float, base: int, scale: float = 1e3) -> float:
            return total * scale / base if base else 0.0

        def fwd(phase: str, name: str) -> float:
            return per(self_s[(phase, name)], steps if phase == "train" else batches)

        def bwd(module: str) -> float:
            return per(sum(v for (m, _), v in self.bwd_s.items() if m == module), steps)

        def entries(module: str) -> float:
            return per(sum(v for (m, _), v in self.entries.items() if m == module), steps, 1.0)

        def per_call(name: str) -> float:
            """Whole span per call, over every phase."""
            return per(sum(v for (_, n), v in whole_s.items() if n == name),
                       sum(v for (_, n), v in calls.items() if n == name))

        def frac(phase: str) -> float:
            real, total = self.tokens[phase]
            return real / total if total else 0.0

        n_entries = sum(self.entries.values())
        out = {
            "pipeline.train_steps": (float(steps), "count"),
            "pipeline.eval_batches": (float(batches), "count"),
            "pipeline.batch_ms": (fwd("train", "pipeline.batch"), "ms"),
            "pipeline.eval_batch_ms": (fwd("eval", "pipeline.batch"), "ms"),
            "pipeline.real_token_frac": (frac("train"), "frac"),
            "pipeline.eval_real_token_frac": (frac("eval"), "frac"),
        }
        for module, prefix in (("encoder", "encoder.embed_"), ("recurrent", "recurrent."),
                               ("attention", "attention."), ("pipeline.pool", "pipeline.pool_"),
                               ("pipeline.head", "pipeline.head_")):
            out[prefix + "fwd_ms"] = (fwd("train", module), "ms")
            out[prefix + "bwd_ms"] = (bwd(module), "ms")
            out[prefix + "eval_fwd_ms"] = (fwd("eval", module), "ms")
        out["recurrent.entries"] = (entries("recurrent"), "count")
        out["attention.entries"] = (entries("attention"), "count")
        out["pipeline.other_bwd_ms"] = (bwd(GLUE), "ms")
        out["pipeline.dev_eval_ms"] = (per_call("pipeline.dev_eval"), "ms")
        out["optim.clip_ms"] = (fwd("train", "optim.clip"), "ms")
        out["optim.adam_ms"] = (fwd("train", "optim.adam"), "ms")
        out["checkpoint.save_ms"] = (per_call("checkpoint.save"), "ms")
        out["checkpoint.load_ms"] = (per_call("checkpoint.load"), "ms")
        out["tensor.tape_entries"] = (per(n_entries, steps, 1.0), "count")
        out["tensor.backward_ms"] = (fwd("train", "tensor.backward"), "ms")
        out["tensor.off_dtype_frac"] = (self.off_dtype / n_entries if n_entries else 0.0, "frac")
        for op in OPS + ("other",):
            n = sum(v for (_, o), v in self.entries.items() if o == op)
            s = sum(v for (_, o), v in self.bwd_s.items() if o == op)
            out[f"tensor.entries.{op}"] = (per(n, steps, 1.0), "count")
            out[f"tensor.bwd_ms.{op}"] = (per(s, steps), "ms")
        return out
