#!/usr/bin/env python3
"""End-to-end desk-scale experiment: synthesize data, train the weak segment
detectors and both classifiers, detect on the test split, and print the
evaluation summary for each model, then one `sha256  relative/path` line
for every file under models/ and reports/, sorted by path, so that two runs
compare with `diff`.

    python3 scripts/run_pipeline.py --workdir /tmp/segdet-run [--seed 2026]
                                    [--train 400] [--test 200] [--skip-deep]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from segdet import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", required=True, help="fresh working directory for the run")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--train", type=int, default=400)
    ap.add_argument("--test", type=int, default=200)
    ap.add_argument("--net-epochs", type=int, default=10)
    ap.add_argument("--skip-deep", action="store_true", help="train and evaluate SegFace only")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "run.cfg"
    cfg_path.write_text(
        f"seed = {args.seed}\n"
        f"synth.train_count = {args.train}\n"
        f"synth.test_count = {args.test}\n"
        f"net.epochs = {args.net_epochs}\n"
    )
    c = str(cfg_path)

    stages = [
        ["synth", "--config", c],
        ["train-weak", "--config", c],
        ["detect-segments", "--config", c, "--split", "train"],
        ["gen-proposals", "--config", c, "--split", "train"],
        ["train-segface", "--config", c],
    ]
    if not args.skip_deep:
        stages.append(["train-deepsegface", "--config", c])
    models = ["segface"] if args.skip_deep else ["deepsegface", "segface"]
    for m in models:
        stages.append(["detect", "--config", c, "--model", m, "--split", "test"])
        stages.append(["eval", "--config", c, "--model", m, "--split", "test"])

    t0 = time.time()
    for stage in stages:
        print(f"== segdet {' '.join(stage)}")
        rc = cli.main(stage)
        if rc != 0:
            print(f"stage failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"\npipeline finished in {time.time() - t0:.0f}s")
    for m in models:
        summary = workdir / f"reports/eval_{m}_test/summary.csv"
        print(f"\n{m}:")
        print(summary.read_text().strip())
    print("\nsha256 of models/ and reports/:")
    for path in sorted(p for d in ("models", "reports") for p in (workdir / d).rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(workdir).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
