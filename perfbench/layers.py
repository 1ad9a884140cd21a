"""Per-layer spans for the traced run, recorded from outside the program.

:func:`instrument` swaps public functions and methods of each layer for
wrappers that record one span per call (name, start, end, parent span,
operation id) into a :class:`Recorder`, and restores the originals on exit.
Nothing under ``src/`` changes; with no recorder installed the program runs
its own code untouched. Spans are kept in memory per thread and exported at
the end as a Chrome trace through :mod:`repro.obs`.

A layer is named after the module whose calls it times:

* ``stream`` — :mod:`repro.stream` runner, source reads and sink writes;
* ``pipeline`` — :class:`repro.pipeline.PatchPipeline` and the batched APF
  stages (detail map, quadtree, patch gather);
* ``scheduler`` — :mod:`repro.serve.scheduler` and its collate/stitch;
* ``runtime`` — compiled-plan calls, with per-kernel step times from
  :attr:`repro.runtime.compile.ExecutionPlan.profile_hook`;
* ``engine`` — :meth:`repro.serve.InferenceEngine.submit`;
* ``pyramid`` / ``viewer`` — :mod:`repro.pyramid` levels and service.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Span fields, stored as lists for cheap in-place close.
NAME, T0, T1, PARENT, OP = range(5)


class Recorder:
    """Thread-aware in-memory span store plus the counters spans feed."""

    def __init__(self) -> None:
        from repro.obs import KernelProfile
        self.kernels = KernelProfile()
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._threads: List[tuple] = []          # (thread name, spans)
        self._lock = threading.Lock()
        self._ops = itertools.count(1)
        self._seq_ops: Dict[int, int] = {}
        self._plans: list = []

    # -- operation ids -----------------------------------------------------
    def new_op(self) -> int:
        """Start a new operation on this thread; later spans carry its id."""
        op = next(self._ops)
        self._local.op = op
        return op

    def current_op(self):
        return getattr(self._local, "op", 0)

    def _set_op(self, op) -> None:
        self._local.op = op

    def tag_sequences(self, seqs) -> None:
        """Remember which operation produced each sequence, so spans on
        the batcher thread can name the operations a micro-batch serves."""
        op = self.current_op()
        with self._lock:
            for s in seqs:
                self._seq_ops[id(s)] = op

    def ops_of(self, seqs) -> tuple:
        with self._lock:
            return tuple(self._seq_ops.pop(id(s), 0) for s in seqs)

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> tuple:
        loc = self._local
        spans = getattr(loc, "spans", None)
        if spans is None:
            spans = loc.spans = []
            loc.stack = []
            with self._lock:
                self._threads.append((threading.current_thread().name,
                                      spans))
        return spans, loc.stack

    def wrap(self, name: str, fn: Callable, *,
             enter: Optional[Callable] = None,
             exit: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call.

        ``enter(args, kwargs)`` may return an operation id (or tuple of
        ids) for the span and its children; ``exit(args, result)`` sees
        the result (counters, sequence tagging).
        """
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = rec._stack()
            prev_op = rec.current_op()
            op = enter(args, kwargs) if enter is not None else None
            if op is not None:
                rec._set_op(op)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    rec.current_op()]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = clock()
                stack.pop()
                if op is not None:
                    rec._set_op(prev_op)
            if exit is not None:
                exit(args, result)
            return result

        return wrapper

    def kernel_hook_for(self, plan) -> None:
        """Attach the kernel profile to a compiled plan (undone on exit)."""
        if plan.profile_hook is None:
            plan.profile_hook = self.kernels.hook
            self._plans.append(plan)

    def release_plans(self) -> None:
        for plan in self._plans:
            plan.profile_hook = None
        self._plans.clear()

    # -- analysis ------------------------------------------------------------
    def threads(self) -> List[tuple]:
        with self._lock:
            return list(self._threads)

    def summarize(self) -> dict:
        """Inclusive and self seconds per span name, root time per thread.

        Inclusive time counts only the outermost span of a directly
        recursive name (``tile_pixels`` builds a tile from its children).
        """
        incl: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        roots: Dict[str, float] = defaultdict(float)
        count = 0
        for tname, spans in self.threads():
            child = [0.0] * len(spans)
            for s in spans:
                if s[PARENT] >= 0:
                    child[s[PARENT]] += s[T1] - s[T0]
            for i, s in enumerate(spans):
                dur = s[T1] - s[T0]
                self_s[s[NAME]] += dur - child[i]
                parent = s[PARENT]
                if parent < 0:
                    roots[tname] += dur
                if parent < 0 or spans[parent][NAME] != s[NAME]:
                    incl[s[NAME]] += dur
            count += len(spans)
        return {"incl": incl, "self": self_s, "roots": roots,
                "spans": count}

    def export(self, path) -> List[str]:
        """Write the spans as a Chrome trace; return validation errors."""
        from repro.obs import Tracer, validate_trace, write_chrome_trace
        tracer = Tracer(clock=time.perf_counter)
        for tname, spans in self.threads():
            for i, s in enumerate(spans):
                op = s[OP]
                tracer.complete(s[NAME], s[NAME].split(".")[0], s[T0],
                                s[T1], tid=tname,
                                args={"span": i, "parent": s[PARENT],
                                      "op": list(op) if isinstance(op, tuple)
                                      else op})
        return validate_trace(write_chrome_trace(tracer, str(path)))


def _targets(rec: Recorder) -> list:
    """(owner, attribute, span name, enter, exit) for every timed call."""
    import repro.serve.scheduler as sched_mod
    from repro.pipeline import PatchPipeline
    from repro.pipeline.batched import BatchedAdaptivePatcher
    from repro.pyramid import PyramidService, TilePyramid
    from repro.runtime.compile import CompiledModel
    from repro.serve import InferenceEngine
    from repro.serve.scheduler import WorkGraphScheduler
    from repro.stream import ArraySource, NpyDirectorySink, StreamingRunner

    def process_exit(args, seqs):
        rec.tag_sequences(seqs)

    def gather_exit(args, seqs):
        rec.counts["tokens"] += sum(len(s) for s in seqs)
        rec.counts["pixels"] += sum(im.shape[0] * im.shape[1]
                                    for im in args[1])

    def run_enter(args, kwargs):
        micro = args[1]
        rec.counts["batches"] += 1
        rec.counts["batched_items"] += len(micro.nodes)
        # token slots executed vs slots holding a real token (sequences
        # longer than the bucket are dropped to it, never padded)
        rec.counts["slots"] += len(micro.nodes) * micro.length
        rec.counts["valid"] += sum(min(len(n.seq), micro.length)
                                   for n in micro.nodes)
        return rec.ops_of([n.seq for n in micro.nodes])

    def forward_enter(args, kwargs):
        rec.kernel_hook_for(args[0].plan)

    return [
        (StreamingRunner, "run", "stream.run", None, None),
        (ArraySource, "read_region", "stream.read", None, None),
        (NpyDirectorySink, "write", "stream.sink", None, None),
        (NpyDirectorySink, "finalize", "stream.finalize", None, None),
        (PatchPipeline, "process", "pipeline.process", None, process_exit),
        (BatchedAdaptivePatcher, "detail_map_batch", "pipeline.detail",
         None, None),
        (BatchedAdaptivePatcher, "build_tree_batch", "pipeline.quadtree",
         None, None),
        (BatchedAdaptivePatcher, "extract_batch", "pipeline.gather",
         None, gather_exit),
        (WorkGraphScheduler, "tile_node", "scheduler.tile_node", None, None),
        (WorkGraphScheduler, "drain", "scheduler.drain", None, None),
        (WorkGraphScheduler, "run", "scheduler.run", run_enter, None),
        (WorkGraphScheduler, "reduce_tile", "scheduler.reduce", None, None),
        (sched_mod, "collate_sequences", "scheduler.collate", None, None),
        (sched_mod, "stitch_image", "scheduler.stitch", None, None),
        (sched_mod, "compile_model", "runtime.compile", None, None),
        (CompiledModel, "__call__", "runtime.forward", forward_enter, None),
        (InferenceEngine, "submit", "engine.submit", None, None),
        (TilePyramid, "tile_pixels", "pyramid.tile_pixels", None, None),
        (TilePyramid, "digest", "pyramid.digest", None, None),
        (PyramidService, "request_viewport", "viewer.request", None, None),
    ]


@contextmanager
def instrument(rec: Recorder):
    """Install every layer wrapper for the ``with`` body, then restore."""
    saved = []
    try:
        for owner, attr, name, enter, exit in _targets(rec):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, enter=enter,
                                          exit=exit))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        rec.release_plans()


def _kernel_seconds(summary: dict, match: Callable[[str], bool]) -> float:
    return sum(v["seconds"] for k, v in summary.items() if match(k))


def layer_metrics(rec: Recorder, rounds: float) -> Dict[str, float]:
    """Span- and kernel-derived per-layer metrics, per round of work."""
    s = rec.summarize()
    incl, self_s = s["incl"], s["self"]
    per = 1.0 / rounds
    kern = rec.kernels.summary()
    sdpa = kern.get("sdpa", {"seconds": 0.0, "gflops": 0.0})
    counts = rec.counts
    return {
        "stream.read_s": incl["stream.read"] * per,
        "stream.sink_s": incl["stream.sink"] * per,
        "pipeline.busy_s": incl["pipeline.process"] * per,
        "pipeline.detail_s": incl["pipeline.detail"] * per,
        "pipeline.quadtree_s": self_s["pipeline.quadtree"] * per,
        "pipeline.gather_s": self_s["pipeline.gather"] * per,
        "pipeline.tokens_per_mpx": (counts["tokens"] / (counts["pixels"] / 1e6)
                                    if counts["pixels"] else 0.0),
        "scheduler.batch_size_mean": (counts["batched_items"]
                                      / counts["batches"]
                                      if counts["batches"] else 0.0),
        "scheduler.pad_fraction": (1.0 - counts["valid"] / counts["slots"]
                                   if counts["slots"] else 0.0),
        "scheduler.collate_s": incl["scheduler.collate"] * per,
        "scheduler.stitch_s": incl["scheduler.stitch"] * per,
        "runtime.forward_s": incl["runtime.forward"] * per,
        "runtime.sdpa_s": sdpa["seconds"] * per,
        "runtime.linear_s": _kernel_seconds(
            kern, lambda k: k.startswith("linear")) * per,
        "runtime.norm_s": _kernel_seconds(kern, lambda k: "norm" in k) * per,
        "runtime.sdpa_gflop_s": (sdpa["gflops"] / sdpa["seconds"]
                                 if sdpa["seconds"] > 0 else 0.0),
        "engine.submit_s": incl["engine.submit"] * per,
        "pyramid.tile_pixels_s": incl["pyramid.tile_pixels"] * per,
        "pyramid.digest_s": self_s["pyramid.digest"] * per,
        "viewer.request_s": incl["viewer.request"] * per,
    }


def layer_self_seconds(rec: Recorder) -> Dict[str, float]:
    """Self seconds summed per layer (the span-name prefix)."""
    out: Dict[str, float] = defaultdict(float)
    for name, sec in rec.summarize()["self"].items():
        out[name.split(".")[0]] += sec
    return dict(out)
