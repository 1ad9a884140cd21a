"""Wall-clock benchmark of the APF segmentation stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload slide_stream --seed 1 --seconds 10 --trace 0

Workloads: ``slide_stream``, ``serve_mixed``, ``viewer_pan`` (see README.md).
Each run renders its inputs from ``--seed``, sets the stack up
:data:`common.SETUP_REPEATS` times (``setup_s`` is the median), measures
whole rounds of its operations for ``--seconds``, checks the outputs against
references computed apart from the serving path, and prints one JSON object
as its last line of standard output. ``--trace 1`` adds a second, traced
phase of the same length and prints the per-layer metrics instead of the
end-to-end ones. ``--quick`` shrinks every size for the benchmark's tests.
"""

import os
import sys

# One BLAS thread: the engine's client and batcher threads already occupy
# both cores of a small host, and OpenBLAS's own pool would oversubscribe
# them. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("slide_stream", "serve_mixed", "viewer_pan")

#: name -> unit of every end-to-end metric (printed with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "mpx_s": "Mpx/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_s_per_mpx": "s/Mpx",
    "peak_mem_mb": "MB",
}

#: name -> unit of every per-layer metric (printed with ``--trace 1``).
#: Times and counts are per round of the workload's operations.
PER_LAYER = {
    "stream.read_s": "s",
    "stream.sink_s": "s",
    "pipeline.busy_s": "s",
    "pipeline.detail_s": "s",
    "pipeline.quadtree_s": "s",
    "pipeline.gather_s": "s",
    "pipeline.tokens_per_mpx": "tokens/Mpx",
    "pipeline.cache_hit_rate": "ratio",
    "scheduler.batch_size_mean": "count",
    "scheduler.pad_fraction": "ratio",
    "scheduler.collate_s": "s",
    "scheduler.stitch_s": "s",
    "runtime.forward_s": "s",
    "runtime.sdpa_s": "s",
    "runtime.linear_s": "s",
    "runtime.norm_s": "s",
    "runtime.sdpa_gflop_s": "GFLOP/s",
    "runtime.compile_s": "s",
    "runtime.plans": "count",
    "engine.submit_s": "s",
    "engine.queue_wait_ms.interactive": "ms",
    "engine.queue_wait_ms.bulk": "ms",
    "engine.batcher_busy_s": "s",
    "engine.result_cache_hit_rate": "ratio",
    "engine.collapsed": "count",
    "pyramid.tile_pixels_s": "s",
    "pyramid.downsampled": "count",
    "pyramid.digest_s": "s",
    "viewer.request_s": "s",
    "viewer.tile_cache_hit_rate": "ratio",
    "viewer.joined": "count",
    "viewer.prefetch_used": "count",
    "viewer.stale_cancelled": "count",
    "viewer.fully_cached_share": "ratio",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

#: ``slide_stream`` is serial: its layer self-times must cover the traced
#: phase's wall time up to this share (README, "Traced run").
MAX_UNATTRIBUTED_PCT = 2.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, every check on (benchmark self-tests)")
    return p.parse_args(argv)


def _layer_table(rec, wall_s: float) -> str:
    from layers import layer_self_seconds
    rows = sorted(layer_self_seconds(rec).items(), key=lambda kv: -kv[1])
    return "\n".join(f"  {name:<10} self {sec:8.3f} s  "
                     f"({100 * sec / wall_s:5.1f}% of traced wall)"
                     for name, sec in rows)


def traced_phase(args, wl, state, sizes, untraced, plans) -> tuple:
    """Run the traced phase; return (per-layer values, traced phase)."""
    import common
    from common import check
    from layers import Recorder, instrument, layer_metrics

    rec = Recorder()
    with instrument(rec):
        traced = wl.timed(state, args.seconds, sizes, rec)
    check(state.predictor.stats["plans"] == plans,
          "plans compiled inside the traced phase")
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(layer_metrics(rec, len(traced.rounds)))
    values.update(traced.layer)
    values["runtime.compile_s"] = state.predictor.stats["compile_seconds"]
    values["runtime.plans"] = plans
    per_round = traced.wall_s / len(traced.rounds)
    base = untraced.wall_s / len(untraced.rounds)
    values["trace.overhead_pct"] = 100.0 * (per_round / base - 1.0)
    covered = rec.summarize()["roots"].get(threading.main_thread().name, 0.0)
    unattributed = 100.0 * (traced.wall_s - covered) / traced.wall_s
    values["trace.unattributed_pct"] = unattributed
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = common.OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    errors = rec.export(path)
    check(not errors, f"invalid Chrome trace: {errors[:3]}")
    print(f"trace: {path} ({rec.summarize()['spans']} spans)\n"
          + _layer_table(rec, traced.wall_s), file=sys.stderr)
    if args.workload == "slide_stream":
        check(unattributed <= MAX_UNATTRIBUTED_PCT,
              f"layer self-times leave {unattributed:.2f}% of the wall time "
              "unattributed")
    return values, traced


def run(args) -> dict:
    import common
    from common import CheckFailed, check
    from repro.perf.memory import TracedMemory

    wl = importlib.import_module(args.workload)
    sizes = common.QUICK if args.quick else common.FULL
    slide = wl.render(sizes, args.seed)
    setup_s, state = common.measure_setup(
        lambda: wl.setup(slide, sizes, args.seed), wl.teardown)
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        wl.timed(state, 0.0, sizes)      # one untimed warm-up round
        plans = state.predictor.stats["plans"]
        phase = wl.timed(state, args.seconds, sizes)
        check(state.predictor.stats["plans"] == plans,
              "plans compiled inside the timed phase")
        with TracedMemory() as mem:
            wl.memory_round(state, sizes)
        values = {"setup_s": setup_s,
                  "peak_mem_mb": mem.peak_bytes / 2 ** 20,
                  **phase.end_to_end()}
        units = END_TO_END
        if args.trace:
            values, phase = traced_phase(args, wl, state, sizes, phase, plans)
            units = PER_LAYER
        result["attempted"] = phase.attempted
        result["failed"] = phase.failed
        result["metrics"] = {k: {"value": float(values[k]), "unit": u}
                             for k, u in units.items()}
        wl.verify(state, sizes, args.seed)
        result["correct"] = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
    finally:
        wl.teardown(state)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
