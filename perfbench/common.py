"""Shared pieces of the wall-clock benchmark: inputs, timing, reporting.

Inputs are rendered from the run's seed before anything is timed, and cached
on disk (``perfbench/.cache``, ignored by git) so a seed is rendered once and
reused by every later run with that seed.
"""

from __future__ import annotations

import gc
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
CACHE_DIR = HERE / ".cache"
OUT_DIR = HERE / "out"

#: Lesion morphology is pinned so the seed varies the texture of a slide
#: but not its organ class (organs differ by 3x in token count).
ORGAN = 2
#: Quadtree split threshold shared by every workload.
SPLIT_VALUE = 16.0
#: ITU-R BT.601 luma weights (the ones ``repro.imaging.to_grayscale`` uses).
LUMA = np.array([0.299, 0.587, 0.114])
#: Setups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Sizes:
    """Input and model sizes of one benchmark mode (full or quick)."""

    slide: int                 #: side of the RGB slide (pixels)
    viewer_slide: int          #: side of viewer_pan's grayscale slide
    stream_tile: int           #: slide_stream macro-tile side
    crop_sizes: tuple          #: serve_mixed crop sides
    window: int                #: serve_mixed outstanding requests
    round_requests: int        #: serve_mixed requests per round
    viewer_tile: int           #: viewer_pan pyramid tile side
    viewport: int              #: viewer_pan viewport side (level pixels)
    pan_tile: int              #: viewer_trace ``tile`` (pan step = half)
    sessions: int              #: viewer_pan sessions per round
    events: int                #: viewer_pan viewport events per session
    samples: int               #: outputs re-checked against the eager model


FULL = Sizes(slide=2048, viewer_slide=4096, stream_tile=256,
             crop_sizes=(128, 256), window=6, round_requests=64,
             viewer_tile=128, viewport=384, pan_tile=512, sessions=8,
             events=6, samples=3)
QUICK = Sizes(slide=512, viewer_slide=512, stream_tile=128,
              crop_sizes=(64, 128), window=3, round_requests=8,
              viewer_tile=64, viewport=128, pan_tile=128, sessions=2,
              events=3, samples=1)


def render_slide(size: int, seed: int, gray: bool = False) -> np.ndarray:
    """The seeded synthetic slide as float64 in [0, 1].

    Shape ``(S, S, 3)``, or ``(S, S)`` luma with ``gray=True``. Pixels come
    from :class:`repro.stream.VirtualWSISource`, quantized to 8 bits (the
    storage depth of real whole-slide scans) and cached per
    ``(size, seed, gray)``.
    """
    path = CACHE_DIR / f"slide-{size}-seed{seed}{'-gray' if gray else ''}.npy"
    if path.exists():
        u8 = np.load(path)
    else:
        from repro.stream import VirtualWSISource
        band = min(256, size)
        src = VirtualWSISource(size, seed=seed, organ=ORGAN, tile=band)
        u8 = np.empty((size, size) if gray else (size, size, 3), np.uint8)
        for y in range(0, size, band):
            rows = src.read_region((y, 0), (band, size))
            u8[y:y + band] = np.rint((rows @ LUMA if gray else rows) * 255.0)
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=CACHE_DIR, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, u8)
        os.replace(tmp, path)
    slide = u8 / 255.0
    slide.setflags(write=False)
    return slide


def measure_setup(build: Callable[[], object],
                  teardown: Callable[[object], None]) -> tuple:
    """Run ``build`` :data:`SETUP_REPEATS` times; return (median s, last).

    Every build but the last is torn down; the last one is what the timed
    phase runs on.
    """
    times: List[float] = []
    state = None
    for i in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), state


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class Round:
    """One round of a workload's operations, timed on its own."""

    wall_s: float
    cpu_s: float
    pixels: float
    latencies_s: List[float]


@dataclass
class Phase:
    """What one timed phase measured: whole rounds of one workload."""

    rounds: List[Round]
    attempted: int
    failed: int
    #: per-layer metrics the workload reads from the program's own stats
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.rounds)

    def end_to_end(self) -> Dict[str, float]:
        """Per-round figures, reported as their median over the rounds.

        A median over rounds keeps a burst of CPU time taken by other
        tenants of the host, which stalls a few rounds, out of the result.
        """
        def med(fn):
            return statistics.median(fn(r) for r in self.rounds)

        return {
            "mpx_s": med(lambda r: r.pixels / 1e6 / r.wall_s),
            "latency_p50_ms": med(lambda r: percentile(r.latencies_s, 50))
            * 1e3,
            "latency_p90_ms": med(lambda r: percentile(r.latencies_s, 90))
            * 1e3,
            "cpu_s_per_mpx": med(lambda r: r.cpu_s / (r.pixels / 1e6)),
        }


def cache_hit_rate(before: dict, after: dict) -> float:
    """Hit rate between two :attr:`repro.pipeline.PatchPipeline.stats`."""
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def engine_totals(engine) -> Dict[str, float]:
    """Cumulative counters of an :class:`repro.serve.InferenceEngine`.

    Histogram means are turned back into sums so two snapshots subtract.
    """
    st = engine.stats()
    snap = st["engine"]
    out = {k: float(snap.get(k, 0)) for k in
           ("submitted", "cache_hits", "collapsed", "completed")}
    busy = snap.get("service_seconds") or {"count": 0, "mean": 0.0}
    out["busy_s"] = busy["count"] * busy["mean"]
    for lane in ("interactive", "bulk"):
        h = st["queue"]["wait_per_lane"].get(lane) or {"count": 0,
                                                         "mean": 0.0}
        out[f"wait_n.{lane}"] = float(h["count"])
        out[f"wait_s.{lane}"] = h["count"] * h["mean"]
    return out


def engine_layer(before: Dict[str, float], after: Dict[str, float],
                 rounds: float) -> Dict[str, float]:
    """Engine per-layer metrics between two :func:`engine_totals`."""
    d = {k: after[k] - before.get(k, 0.0) for k in after}
    out = {
        "engine.batcher_busy_s": d["busy_s"] / rounds,
        "engine.result_cache_hit_rate": (d["cache_hits"] / d["submitted"]
                                         if d["submitted"] else 0.0),
        "engine.collapsed": d["collapsed"] / rounds,
    }
    for lane in ("interactive", "bulk"):
        n = d[f"wait_n.{lane}"]
        out[f"engine.queue_wait_ms.{lane}"] = (d[f"wait_s.{lane}"] / n * 1e3
                                              if n else 0.0)
    return out


def settle() -> None:
    """Collect the previous round's garbage before the next round starts.

    A round's discarded service, pyramid and engine sit in reference
    cycles, so only the cyclic collector frees them; left alone, it runs
    inside later rounds at a time that depends on the allocation pattern.
    """
    gc.collect()


class Clock:
    """Wall and process-CPU stamps bracketing a timed phase."""

    def __init__(self) -> None:
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()

    def elapsed(self) -> tuple:
        return (time.perf_counter() - self.wall0,
                time.process_time() - self.cpu0)


class CheckFailed(AssertionError):
    """An output of the program disagreed with its independent reference."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)
