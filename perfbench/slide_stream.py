"""``slide_stream``: one whole slide streamed serially into an on-disk sink.

The paper's own job. A pre-rendered slide is cut into macro-tiles by
:func:`repro.stream.plan_scene`; :class:`repro.stream.StreamingRunner`
drives each tile through a serial compiled :class:`repro.serve.Predictor`
(APF preprocessing, one plan execution, stitch) into a uint8
:class:`repro.stream.NpyDirectorySink`. A round streams the whole slide
once, manifest included. The engine, the caches and the pyramid are not on
this path.

Operation: one macro-tile, timed from the start of its source read until
its sink write returns.
"""

from __future__ import annotations

import shutil
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from common import (CACHE_DIR, SPLIT_VALUE, Clock, Phase, Round, check,
                    render_slide, settle)

MODEL = dict(patch_size=4, channels=1, dim=32, depth=2, heads=4,
             max_len=1024)
BUCKET = 128


class TimedSource:
    """Source proxy stamping the start of every region read."""

    def __init__(self, inner, rec=None):
        self.inner = inner
        self.shape = inner.shape
        self.kind = inner.kind
        self.rec = rec
        self.starts = []

    def read_region(self, origin, size):
        if self.rec is not None:
            self.rec.new_op()
        self.starts.append(time.perf_counter())
        return self.inner.read_region(origin, size)


class TimedSink:
    """Sink proxy stamping the end of every write and counting writes."""

    def __init__(self, inner):
        self.inner = inner
        self.ends = []
        self.writes = Counter()

    def completed(self, plan):
        return self.inner.completed(plan)

    def discard(self):
        self.inner.discard()

    def write(self, tile, class_map):
        self.inner.write(tile, class_map)
        self.ends.append(time.perf_counter())
        self.writes[tile.name] += 1

    def finalize(self, plan, report=None):
        self.inner.finalize(plan, report)


@dataclass
class State:
    slide: np.ndarray
    model: object
    pipeline: object
    predictor: object
    runner: object
    plan: object
    sink: object


def render(sizes, seed):
    return render_slide(sizes.slide, seed)


def setup(slide, sizes, seed):
    from repro.models import ViTSegmenter
    from repro.pipeline import PatchPipeline
    from repro.serve import Predictor
    from repro.stream import NpyDirectorySink, StreamingRunner, plan_scene

    model = ViTSegmenter(rng=np.random.default_rng(0), **MODEL)
    pipe = PatchPipeline(patch_size=MODEL["patch_size"],
                         split_value=SPLIT_VALUE, channels=1, cache_items=0)
    pred = Predictor(model, pipe, max_batch=1, bucket=BUCKET)
    # serial streaming runs batches of one; every bucket up to the
    # positional table is reachable
    pred.warmup(lengths=range(BUCKET, MODEL["max_len"] + 1, BUCKET),
                batch_sizes=[1])
    plan = plan_scene(slide.shape, tile=sizes.stream_tile,
                      max_len=MODEL["max_len"])
    sink = NpyDirectorySink(CACHE_DIR / f"sink-seed{seed}-{time.time_ns()}",
                            dtype=np.uint8)
    return State(slide, model, pipe, pred, StreamingRunner(pred), plan, sink)


def teardown(state):
    shutil.rmtree(state.sink.root, ignore_errors=True)


def _round(state, rec=None):
    """Stream the whole slide once; return per-tile latencies (s)."""
    from repro.stream import ArraySource
    source = TimedSource(ArraySource(state.slide), rec)
    sink = TimedSink(state.sink)
    report = state.runner.run(source, state.plan, sink, resume=False)
    names = {t.name for t in state.plan.tiles}
    check(report.tiles_run == len(state.plan.tiles),
          f"ran {report.tiles_run} of {len(state.plan.tiles)} tiles")
    check(set(sink.writes) == names and set(sink.writes.values()) == {1},
          "every macro-tile must be written exactly once per round")
    check(len(source.starts) == len(sink.ends), "unpaired read/write stamps")
    return [e - s for s, e in zip(source.starts, sink.ends)]


def timed(state, seconds, sizes, rec=None):
    rounds = []
    clock = Clock()
    while True:
        settle()
        rc = Clock()
        latencies = _round(state, rec)
        rounds.append(Round(*rc.elapsed(), state.slide.shape[0]
                            * state.slide.shape[1], latencies))
        if clock.elapsed()[0] >= seconds:
            break
    tiles = len(rounds) * len(state.plan.tiles)
    return Phase(rounds=rounds, attempted=tiles,
                 failed=tiles - sum(len(r.latencies_s) for r in rounds))


def memory_round(state, sizes):
    _round(state)


def verify(state, sizes, seed):
    """Sampled tiles against the per-image reference patcher + eager model.

    The sink holds the last round's class maps. For each sampled tile the
    reference :class:`repro.patching.AdaptivePatcher` must partition it
    exactly, with no more tokens than uniform patching, and the eager
    (uncompiled) model on the reference sequence must give the same class
    map the stream wrote.
    """
    from repro.patching import AdaptivePatcher
    from repro.serve import Predictor
    from repro.serve.predictor import class_map
    from repro.train.tasks import prepare_image

    plan = state.plan
    check(state.sink.completed(plan) == {t.index for t in plan.tiles},
          "sink is missing tiles after the run")
    check((state.sink.root / "manifest.json").exists(), "no sink manifest")
    ref = AdaptivePatcher(state.pipeline.config)
    eager = Predictor(state.model, ref, max_batch=1, bucket=BUCKET,
                      compiled=False)
    rng = np.random.default_rng([seed, 0x51])
    picks = rng.choice(len(plan.tiles), size=min(sizes.samples,
                                                 len(plan.tiles)),
                       replace=False)
    pm = MODEL["patch_size"]
    for i in sorted(int(p) for p in picks):
        tile = plan.tiles[i]
        image = prepare_image(state.slide[tile.slices()], 1).transpose(1, 2, 0)
        leaves = ref.build_tree(image)
        check(leaves.covers_exactly(),
              f"{tile.name}: quadtree leaves do not partition the tile")
        uniform = (tile.size[0] // pm) * (tile.size[1] // pm)
        check(len(ref.extract_natural(image)) <= uniform,
              f"{tile.name}: more tokens than uniform patching")
        expect = class_map(eager.predict_image(image))
        got = state.sink.read(tile)
        check(np.array_equal(expect, got),
              f"{tile.name}: streamed class map differs from the eager "
              f"reference on {int((expect != got).sum())} pixels")
