"""``viewer_pan``: closed-loop viewer sessions against the tile service.

The seeded multi-session :func:`repro.pyramid.viewer_trace` is replayed on
the wall clock against a :class:`repro.pyramid.PyramidService` over a
started :class:`repro.serve.InferenceEngine`, on a
:class:`repro.pyramid.TilePyramid` of the pre-rendered slide. Each session
issues its next viewport once its current one is fully visible, plus the
think time the trace puts between the two events. Sessions converge on the
trace's hotspots, so the tile cache, in-flight joins, bulk-lane prefetch,
stale-prefetch cancellation and on-demand downsampling all run. One driver
thread issues every session's viewports; the engine's batcher thread runs
the model.

A round replays the whole trace against fresh caches: a new pyramid,
service and engine (sharing the warmed predictor) and an emptied pipeline
sequence cache, so every round does the same work.

Operation: one viewport, timed from the ``request_viewport`` call until its
last visible tile is available. A visible tile refused by admission control
fails its viewport; cancelled prefetches and refused prefetches do not.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from common import (SPLIT_VALUE, Clock, Phase, Round, cache_hit_rate, check,
                    engine_layer, engine_totals, render_slide, settle)

MODEL = dict(patch_size=4, channels=1, dim=32, depth=2, heads=4, max_len=256)
BUCKET = 64
MAX_BATCH = 4
FLUSH_DEADLINE = 0.02
#: Mean think time between a session's viewport events (s).
THINK_MEAN = 0.02
#: Pyramid level every session starts at (0: full resolution).
START_LEVEL = 0
#: Landmarks sessions start at and jump between (one per session on
#: average; with fewer, over a third of viewports are fully cached and the
#: median sits on the boundary between the cached and the inference mode).
HOTSPOTS = 8
#: The session walk is the same for every ``--seed`` (which varies the
#: slide): the walk decides how many viewports are fully cached, and with
#: it both latency percentiles (0.38 against 0.51 over two walk seeds of
#: three landmarks).
TRACE_SEED = 0
PREFETCH_TILES = 4
TOLERANCE = 1e-6


@dataclass
class State:
    slide: np.ndarray
    model: object
    pipeline: object
    predictor: object
    engine: object
    sessions: Dict[str, list]
    seed: int
    #: (tile, result or None, pixels) from the last round, for verify()
    samples: List[tuple] = field(default_factory=list)


def _engine(pred):
    from repro.serve import InferenceEngine
    return InferenceEngine(pred, max_batch=MAX_BATCH,
                           flush_deadline=FLUSH_DEADLINE, max_queue=256)


def render(sizes, seed):
    return render_slide(sizes.viewer_slide, seed, gray=True)


def setup(slide, sizes, seed):
    from repro.models import ViTSegmenter
    from repro.pipeline import PatchPipeline
    from repro.pyramid import TilePyramid, viewer_trace
    from repro.serve import Predictor
    from repro.stream import ArraySource

    model = ViTSegmenter(rng=np.random.default_rng(0), **MODEL)
    pipe = PatchPipeline(patch_size=MODEL["patch_size"],
                         split_value=SPLIT_VALUE, channels=1)
    pred = Predictor(model, pipe, max_batch=MAX_BATCH, bucket=BUCKET)
    pred.warmup(lengths=range(BUCKET, MODEL["max_len"] + 1, BUCKET),
                batch_sizes=range(1, MAX_BATCH + 1))
    engine = _engine(pred)
    engine.start(warmup=False)
    levels = TilePyramid(ArraySource(slide), tile=sizes.viewer_tile).n_levels
    trace = viewer_trace(slide.shape[:2], levels, sessions=sizes.sessions,
                         events_per_session=sizes.events,
                         viewport=(sizes.viewport, sizes.viewport),
                         tile=sizes.pan_tile, seed=TRACE_SEED,
                         think_mean=THINK_MEAN, start_level=START_LEVEL,
                         hotspots=HOTSPOTS)
    sessions: Dict[str, list] = {}
    for ev in trace:
        sessions.setdefault(ev.session, []).append(ev)
    return State(slide, model, pipe, pred, engine, sessions, seed)


def teardown(state):
    state.engine.stop()


class _Viewport:
    """One outstanding viewport: visible tasks still owed a result."""

    def __init__(self, t_req: float):
        self.t_req = t_req
        self.remaining = 0
        self.done_t = None
        self.failed = False


def _round(state, sizes, rec=None, keep=False) -> dict:
    """Replay the trace once against fresh caches; return its tallies."""
    from repro.pyramid import PyramidService, TilePyramid
    from repro.stream import ArraySource

    clock = Clock()
    state.engine.stop()
    state.pipeline.cache.clear()
    engine = state.engine = _engine(state.predictor)
    engine.start(warmup=False)
    pyramid = TilePyramid(ArraySource(state.slide), tile=sizes.viewer_tile)
    service = PyramidService(pyramid, engine, prefetch_tiles=PREFETCH_TILES,
                             clock=time.perf_counter)
    cond = threading.Condition()

    def on_done(vp, fut):
        t = time.perf_counter()
        with cond:
            if fut.cancelled() or fut.exception() is not None:
                vp.failed = True
            vp.remaining -= 1
            if vp.remaining == 0:
                vp.done_t = t
                cond.notify()

    origin: Dict[object, str] = {}     # digest -> who first asked for it
    used = set()
    tally = {"latencies": [], "pixels": 0, "viewports": 0, "failed": 0,
             "fully_cached": 0, "visible": []}
    t0 = time.perf_counter()
    names = sorted(state.sessions)
    cursor = dict.fromkeys(names, 0)
    ready = {s: t0 + state.sessions[s][0].time for s in names}
    current: Dict[str, _Viewport] = {}
    while True:
        now = time.perf_counter()
        for s in names:
            events = state.sessions[s]
            if s in current or cursor[s] >= len(events) or ready[s] > now:
                continue
            ev = events[cursor[s]]
            if rec is not None:
                rec.new_op()
            vp = _Viewport(time.perf_counter())
            report = service.request_viewport(s, ev.level, ev.origin,
                                              ev.size, now=vp.t_req)
            futures = {}
            for task in report.tasks:
                prior = task.cached or task.submit_t < vp.t_req
                if prior and origin.get(task.digest) == "prefetch":
                    used.add(task.digest)
                origin.setdefault(task.digest, "visible")
                if task.rejected:
                    vp.failed = True
                elif not task.cached:
                    futures[id(task.future)] = task.future
                if keep:
                    tally["visible"].append(task)
            for task in report.prefetched:
                origin.setdefault(task.digest, "prefetch")
            if all(t.cached for t in report.tasks):
                tally["fully_cached"] += 1
            with cond:
                vp.remaining = len(futures)
                if not futures:
                    vp.done_t = time.perf_counter()
            for fut in futures.values():
                fut.add_done_callback(lambda f, vp=vp: on_done(vp, f))
            current[s] = vp
        with cond:
            finished = [s for s, vp in current.items()
                        if vp.done_t is not None]
            for s in finished:
                vp = current.pop(s)
                events = state.sessions[s]
                k = cursor[s]
                tally["viewports"] += 1
                if vp.failed:
                    tally["failed"] += 1
                else:
                    tally["latencies"].append(vp.done_t - vp.t_req)
                    h, w = events[k].size
                    tally["pixels"] += h * w
                cursor[s] = k + 1
                if k + 1 < len(events):
                    ready[s] = vp.done_t + events[k + 1].time - events[k].time
            idle = [ready[s] for s in names
                    if s not in current and cursor[s] < len(state.sessions[s])]
            if not current and not idle:
                break
            if not finished:
                wait = min(idle) - time.perf_counter() if idle else None
                if wait is None or wait > 0:
                    cond.wait(timeout=wait)
    engine.stop()          # drains prefetches still queued on the bulk lane
    check(service.outstanding == 0, "the tile service holds outstanding tiles")
    check(engine.pending == 0
          and engine.stats()["result_cache"]["inflight"] == 0,
          "the engine holds requests after the round")
    tally["round"] = Round(*clock.elapsed(), tally["pixels"],
                           tally["latencies"])
    svc = service.stats()
    tally.update(service=svc, pyramid=dict(pyramid.stats), engine=engine,
                 prefetch_used=len(used), service_obj=service,
                 pyramid_obj=pyramid)
    return tally


def timed(state, seconds, sizes, rec=None, keep=False):
    pipe_before = state.pipeline.stats
    rounds, viewports, failed = [], 0, 0
    sums: Dict[str, float] = {}
    eng_layer: Dict[str, float] = {}
    clock = Clock()
    while True:
        t = None            # drop the last round before collecting it
        settle()
        t = _round(state, sizes, rec, keep)
        rounds.append(t["round"])
        viewports += t["viewports"]
        failed += t["failed"]
        svc = t["service"]["service"]
        cache = t["service"]["tile_cache"]
        for key, value in (("hits", cache["hits"]),
                           ("misses", cache["misses"]),
                           ("joined", svc.get("tile_joined", 0)),
                           ("stale", svc.get("stale_cancelled", 0)),
                           ("prefetch_used", t["prefetch_used"]),
                           ("downsampled", t["pyramid"]["downsampled"]),
                           ("fully_cached", t["fully_cached"])):
            sums[key] = sums.get(key, 0) + value
        # each round's engine is fresh: its totals are the round's deltas
        for key, value in engine_layer({}, engine_totals(t["engine"]),
                                       1).items():
            eng_layer[key] = eng_layer.get(key, 0.0) + value
        if keep:
            state.samples = _pick_samples(state, t)
        if clock.elapsed()[0] >= seconds:
            break
    n = len(rounds)
    layer = {k: v / n for k, v in eng_layer.items()}
    layer.update({
        "pipeline.cache_hit_rate": cache_hit_rate(pipe_before,
                                                  state.pipeline.stats),
        "pyramid.downsampled": sums["downsampled"] / n,
        "viewer.tile_cache_hit_rate": sums["hits"] / (sums["hits"]
                                                      + sums["misses"]),
        "viewer.joined": sums["joined"] / n,
        "viewer.prefetch_used": sums["prefetch_used"] / n,
        "viewer.stale_cancelled": sums["stale"] / n,
        "viewer.fully_cached_share": sums["fully_cached"] / viewports,
    })
    return Phase(rounds=rounds, attempted=viewports, failed=failed,
                 layer=layer)


def _pick_samples(state, tally) -> List[tuple]:
    """Seeded ``(tile, result, pixels)`` checks from one round.

    One served visible tile per level it reached (with its result), plus
    one seeded tile of every downsampled level the trace did not reach
    (pixels only, ``result`` None).
    """
    from repro.pyramid import PyramidTile
    service = tally["service_obj"]
    pyramid = tally["pyramid_obj"]
    by_level: Dict[int, list] = {}
    for task in tally["visible"]:
        by_level.setdefault(task.tile.level, []).append(task)
    rng = np.random.default_rng([state.seed, 0x7E])
    picks = []
    for level in sorted(by_level):
        tasks = sorted(by_level[level], key=lambda t: t.tile)
        task = tasks[int(rng.integers(len(tasks)))]
        picks.append((task.tile, service.tile_result(task),
                      pyramid.tile_pixels(task.tile)))
    for level in range(1, pyramid.n_levels):
        if level not in by_level:
            ny, nx = pyramid.grid(level)
            tile = PyramidTile(level, int(rng.integers(ny)),
                               int(rng.integers(nx)))
            picks.append((tile, None, pyramid.tile_pixels(tile)))
    return picks


def memory_round(state, sizes):
    timed(state, 0.0, sizes, keep=True)


def verify(state, sizes, seed):
    """Sampled tiles against the eager model and a NumPy mean-pool."""
    from repro.pipeline import PatchPipeline
    from repro.serve import Predictor

    check(state.samples, "no sampled tiles")
    eager = Predictor(state.model,
                      PatchPipeline(patch_size=MODEL["patch_size"],
                                    split_value=SPLIT_VALUE, channels=1,
                                    cache_items=0),
                      max_batch=1, bucket=BUCKET, compiled=False)
    t = sizes.viewer_tile
    for tile, result, pixels in state.samples:
        # level-k pixels: 2x2 mean-pool of the slide, k times
        span = t << tile.level
        block = state.slide[tile.ty * span:(tile.ty + 1) * span,
                            tile.tx * span:(tile.tx + 1) * span]
        for _ in range(tile.level):
            n = block.shape[0] // 2
            block = block.reshape(n, 2, n, 2, *block.shape[2:]).mean(
                axis=(1, 3))
        check(np.allclose(pixels, block, rtol=0.0, atol=1e-12),
              f"{tile.name}: pyramid pixels differ from the mean-pooled slide")
        if result is None:
            continue
        err = float(np.abs(result - eager.predict_image(pixels)).max())
        check(err <= TOLERANCE,
              f"{tile.name}: tile result differs from the eager model by "
              f"{err:.3g}")
