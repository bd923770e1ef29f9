#!/usr/bin/env python3
"""segdet benchmark: train the four models, then detect faces frame by frame.

    python3 bench/run.py --workload train --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --self-test

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run repeats its work
with spans around every layer and reports per-layer metrics and the tracing
overhead instead. See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: one BLAS thread leaves the second core of a
# 2-CPU machine to everything else, and DeepSegFace's model bytes depend on
# the thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3  # set-ups timed per untraced run; setup_s is their median
WARMUP_FRAMES = 3  # frames run untimed before the timed ones
UNITS = {"setup_s": "s", "train_s": "s", "peak_rss_mb": "MB"}


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import workload
    from tracing import Tracer

    chk = checks.Checks()
    run = workload.Run(BENCH / ".work" / f"{workload_name}-{seed}-{os.getpid()}", workload_name, seed)
    try:
        repeats = 1 if trace else SETUP_REPEATS
        setup_times = []
        for _ in range(repeats):
            t = time.perf_counter()
            frames = run.setup()
            setup_times.append(time.perf_counter() - t)

        t = time.perf_counter()
        failed_commands = run.train_round()
        train_s = time.perf_counter() - t
        if failed_commands:
            raise SystemExit(f"{failed_commands} training command(s) failed")
        workload.check_training(run, chk)

        load_times = []
        for _ in range(repeats):
            t = time.perf_counter()
            models = run.load_models()
            load_times.append(time.perf_counter() - t)

        # a few frames untimed, then one whole timed pass, from which the
        # picks and quality come; untraced, the same frames then repeat in
        # order until --seconds have been measured
        warm = run.detect_pass(models, frames[:WARMUP_FRAMES])
        timed = run.detect_pass(models, frames, 0.0 if trace else seconds)
        chk.require(timed.changed == 0, "a repeated frame repeats its picks")
        t = time.perf_counter()
        quality = workload.evaluate_pass(frames, timed, chk)
        evaluate_s = time.perf_counter() - t
        attempted = len(workload.TRAIN_COMMANDS) + warm.attempted + timed.attempted
        failed = warm.failed + timed.failed

        if not trace:
            metrics = {
                "setup_s": statistics.median(setup_times) + statistics.median(load_times),
                "train_s": train_s,
            }
            for model in workload.MODELS:
                ms = timed.frame_ms(model)
                metrics[f"frame_ms_p50.{model}"] = _percentile(ms, 50)
                metrics[f"frame_ms_p90.{model}"] = _percentile(ms, 90)
            metrics.update(quality)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = {k: UNITS.get(k, "ms" if k.startswith("frame_ms") else "1") for k in metrics}
        else:
            untraced_s = setup_times[0] + train_s + load_times[0] + timed.seconds + evaluate_s
            model_bytes = run.model_bytes()
            tracer = Tracer()
            t = time.perf_counter()
            with tracer.installed():
                with tracer.span("phase.setup"):
                    frames = run.setup()
                with tracer.span("phase.train"):
                    failed += run.train_round(tracer.span)
                    models = run.load_models()
                with tracer.span("phase.detect"):
                    traced = run.detect_pass(models, frames)
                    traced_quality = workload.evaluate_pass(frames, traced, checks.Checks())
            traced_s = time.perf_counter() - t
            attempted += len(workload.TRAIN_COMMANDS) + traced.attempted
            failed += traced.failed
            chk.require(run.model_bytes() == model_bytes, "traced training writes the same model bytes")
            for model in workload.MODELS:
                chk.require(traced.picks(model) == timed.picks(model), f"traced {model} picks match the untraced run")
            chk.require(traced_quality == quality, "traced ROC areas and coverage match the untraced run")
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
            out_dir = BENCH / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{workload_name}-{seed}.json")
            units = {k: _layer_unit(k) for k in metrics}
        return {
            "correct": chk.ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def _layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms_per_frame"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_gflop"):
        return "GFLOP"
    if name.endswith("_s") or name in ("priors.s", "evaluate.s"):
        return "s"
    if name.endswith(("_fraction", "_per_segment", "per_frame")):
        return "1"
    return "count"


def self_test() -> int:
    """Check the benchmark's per-frame chain against `segdet detect`: on a small
    held-out split, both must pick the same box with the same score."""
    import contextlib
    import io

    import workload
    from segdet import cli

    run = workload.Run(BENCH / ".work" / f"selftest-{os.getpid()}", "train", 1, frames=12)
    try:
        frames = run.setup()
        if run.train_round():
            print("self-test: a training command failed", file=sys.stderr)
            return 1
        result = run.detect_pass(run.load_models(), frames)
        bad = 0
        for model in workload.MODELS:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["detect", "--config", str(run.dir / "run.cfg"), "--model", model, "--split", "test"])
            if rc != 0:
                print(f"self-test: segdet detect --model {model} exited {rc}", file=sys.stderr)
                return 1
            rows = (run.dir / f"reports/faces_{model}_test.csv").read_text(encoding="utf-8").splitlines()
            for row in rows[1:]:
                image_id, x, y, w, h, score = row.split(",")
                want = None if x == "" else ((int(x), int(y), int(w), int(h)), float(score))
                got = result.results[image_id].picks[model]
                if got != want:
                    bad += 1
                    print(f"self-test: {model} {image_id}: chain {got} != segdet detect {want}", file=sys.stderr)
            print(f"self-test: {model}: {len(rows) - 1} frames compared")
        print("self-test:", "FAIL" if bad else "PASS")
        return 1 if bad else 0
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("train", "detect_wide"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="compare the chain with `segdet detect` and exit")
    args = ap.parse_args()
    if not (ROOT / "src/segdet/cli.py").is_file():
        print(f"bench: no segdet sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
