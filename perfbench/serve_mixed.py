"""``serve_mixed``: a closed-loop client against a started inference engine.

One client thread keeps a fixed window of requests outstanding against a
threaded :class:`repro.serve.InferenceEngine`: it submits (APF runs on the
client thread inside ``submit``), waits for any completion, and submits the
next. Requests are distinct crops of the slide in two sizes, three small to
one large, so a bucket's micro-batch mixes natural lengths and carries
padding. (With an even mix the median would sit on the boundary between the
two sizes' latency modes and flip between runs.) No payload repeats, so the
engine's result cache and the pipeline's sequence cache always miss. A
round is :attr:`common.Sizes.round_requests` requests in a seeded order.

Operation: one request, timed from the ``submit`` call until a done-callback
on its future runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, List

import numpy as np

from common import (SPLIT_VALUE, Clock, Phase, Round, cache_hit_rate, check,
                    engine_layer, engine_totals, render_slide, settle)

MODEL = dict(patch_size=4, channels=1, dim=128, depth=8, heads=8, max_len=256)
BUCKET = 64
MAX_BATCH = 4
#: Engine flush deadline (s): a partial batch waits at most this long.
FLUSH_DEADLINE = 0.005
#: Largest allowed |compiled engine - eager| difference in a probability,
#: across batch compositions (the engine documents ~1e-7).
TOLERANCE = 1e-6


def crop_stream(seed: int, slide: int, sizes) -> Iterator[tuple]:
    """Endless seeded ``(side, y, x)`` crops; no position repeats."""
    rng = np.random.default_rng([seed, 0xC0])
    seen = set()
    large = sizes.round_requests // 4
    small = sizes.round_requests - large
    while True:
        sides = [sizes.crop_sizes[0]] * small + [sizes.crop_sizes[1]] * large
        for side in rng.permutation(sides):
            side = int(side)
            while True:
                y, x = (int(v) for v in rng.integers(0, slide - side + 1, 2))
                if (side, y, x) not in seen:
                    seen.add((side, y, x))
                    break
            yield side, y, x


@dataclass
class State:
    slide: np.ndarray
    model: object
    pipeline: object
    predictor: object
    engine: object
    crops: Iterator[tuple]
    samples: List[tuple] = field(default_factory=list)


def render(sizes, seed):
    return render_slide(sizes.slide, seed)


def setup(slide, sizes, seed):
    from repro.models import ViTSegmenter
    from repro.pipeline import PatchPipeline
    from repro.serve import InferenceEngine, Predictor

    model = ViTSegmenter(rng=np.random.default_rng(0), **MODEL)
    pipe = PatchPipeline(patch_size=MODEL["patch_size"],
                         split_value=SPLIT_VALUE, channels=1)
    pred = Predictor(model, pipe, max_batch=MAX_BATCH, bucket=BUCKET)
    lengths = list(range(BUCKET, MODEL["max_len"] + 1, BUCKET))
    # every (batch, length) signature the engine can form; the engine's
    # own start() warm-up covers only batch sizes 1 and max_batch
    pred.warmup(lengths=lengths, batch_sizes=range(1, MAX_BATCH + 1))
    engine = InferenceEngine(pred, max_batch=MAX_BATCH,
                             flush_deadline=FLUSH_DEADLINE,
                             warmup_lengths=lengths)
    engine.start()
    return State(slide, model, pipe, pred, engine,
                 crop_stream(seed, slide.shape[0], sizes))


def teardown(state):
    state.engine.stop()


def _round(state, sizes, rec, keep):
    """One round: ``round_requests`` requests, ``window`` at a time."""
    engine = state.engine
    cond = threading.Condition()
    done: List[tuple] = []

    def on_done(t0, side, fut):
        t1 = time.perf_counter()
        with cond:
            done.append((t0, t1, side, fut))
            cond.notify()

    latencies, pixels, failed = [], 0, 0
    submitted = outstanding = 0
    clock = Clock()
    while submitted < sizes.round_requests or outstanding:
        while outstanding < sizes.window \
                and submitted < sizes.round_requests:
            side, y, x = next(state.crops)
            image = state.slide[y:y + side, x:x + side]
            if rec is not None:
                rec.new_op()
            t0 = time.perf_counter()
            fut = engine.submit(image)
            fut.add_done_callback(
                lambda f, t0=t0, side=side: on_done(t0, side, f))
            if keep:
                state.samples.append((image, fut))
            submitted += 1
            outstanding += 1
        with cond:
            while not done:
                cond.wait()
            finished, done[:] = list(done), []
        for t0, t1, side, fut in finished:
            outstanding -= 1
            if fut.exception() is not None:
                failed += 1
                continue
            latencies.append(t1 - t0)
            pixels += side * side
    return Round(*clock.elapsed(), pixels, latencies), failed


def timed(state, seconds, sizes, rec=None, keep=False):
    """Closed-loop rounds until ``seconds`` have passed."""
    pipe_before = state.pipeline.stats
    eng_before = engine_totals(state.engine)
    rounds, failed = [], 0
    clock = Clock()
    while True:
        settle()
        r, f = _round(state, sizes, rec, keep)
        rounds.append(r)
        failed += f
        if clock.elapsed()[0] >= seconds:
            break
    layer = engine_layer(eng_before, engine_totals(state.engine),
                         len(rounds))
    layer["pipeline.cache_hit_rate"] = cache_hit_rate(pipe_before,
                                                      state.pipeline.stats)
    return Phase(rounds=rounds,
                 attempted=len(rounds) * sizes.round_requests, failed=failed,
                 layer=layer)


def memory_round(state, sizes):
    # seconds=0: exactly one round; keep its responses for verify()
    timed(state, 0.0, sizes, keep=True)


def verify(state, sizes, seed):
    """Sampled responses against the eager model; no repeats, no leftovers."""
    from repro.pipeline import PatchPipeline
    from repro.serve import Predictor

    stats = state.engine.stats()
    check(stats["engine"].get("cache_hits", 0) == 0
          and stats["engine"].get("collapsed", 0) == 0,
          "a payload repeated: the engine served a cache hit or collapse")
    check(state.engine.pending == 0
          and stats["result_cache"]["inflight"] == 0,
          "the engine holds requests after every future resolved")
    eager = Predictor(state.model,
                      PatchPipeline(patch_size=MODEL["patch_size"],
                                    split_value=SPLIT_VALUE, channels=1,
                                    cache_items=0),
                      max_batch=1, bucket=BUCKET, compiled=False)
    # the first response of each crop size, then the next ones in order
    firsts = {}
    for i, (image, _) in enumerate(state.samples):
        firsts.setdefault(image.shape[0], i)
    check(len(firsts) == len(sizes.crop_sizes), "a crop size went unsampled")
    picks = sorted(firsts.values())
    picks += [i for i in range(len(state.samples)) if i not in picks]
    for i in picks[:max(sizes.samples, len(firsts))]:
        image, fut = state.samples[i]
        expect = eager.predict_image(image)
        got = fut.result()
        check(got.shape == expect.shape, "response shape differs")
        err = float(np.abs(got - expect).max())
        check(err <= TOLERANCE,
              f"response differs from the eager model by {err:.3g}")
