"""Inputs, the training round and the per-frame detection chain of one run.

Every run trains the four models with the five `segdet` training commands and
then detects faces in held-out frames one at a time. The frames are what the
workloads vary: default 160x120 frames, or 320x240 frames that keep the same
absolute face sizes and add heavier clutter and a decoy in every frame.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from segdet import cli, evaluate, imaging, proposals, segface, synth, weakdet
from segdet import deepsegface
from segdet.config import parse_config
from segdet.seeding import derive_seed

import checks

WEAK_FRAMES = 120  # train split of the weak segment detectors
CLASSIFIER_FRAMES = 24  # train split scanned for SegFace / DeepSegFace proposals
EPOCHS = 2  # DeepSegFace epochs; two is the fewest that show a falling loss
FRAMES = 100  # held-out frames per pass; p90 then has ten frames beyond it
MODELS = ("deepsegface", "segface")

# SynthSpec fields of each workload's held-out frames (defaults: 160x120,
# faces 35-65% of frame height, 3 clutter blocks, a decoy in half the frames)
FRAME_SPECS = {
    "train": {},
    "detect_wide": {
        "width": 320,
        "height": 240,
        "face_min": 0.175,
        "face_max": 0.325,
        "clutter": 12,
        "decoy_prob": 1.0,
    },
}

# (command, config file, extra arguments) in pipeline order
TRAIN_COMMANDS = [
    ("train-weak", "weak.cfg", []),
    ("detect-segments", "run.cfg", ["--split", "train"]),
    ("gen-proposals", "run.cfg", ["--split", "train"]),
    ("train-segface", "run.cfg", []),
    ("train-deepsegface", "run.cfg", []),
]
MODEL_FILES = ("weakdet.txt", "segface.txt", "deepsegface.txt")

# Floors on the held-out ROC areas (the suite's end-to-end gate asks 0.95 and
# 0.90 of models trained on 400 frames).
AUC_FLOOR = {"deepsegface": 0.85, "segface": 0.80}
PROPOSALS_PER_IMAGE = (5.0, 30.0)


@dataclass
class Frame:
    image_id: str
    image: imaging.GrayImageF
    truth: imaging.BoxI | None


@dataclass
class Models:
    detectors: list
    segface: segface.SegFaceModel
    deepsegface: deepsegface.DeepSegFaceModel


@dataclass
class FrameResult:
    proposals: list
    picks: dict  # model name -> (box tuple, score) or None
    chain_s: float  # scan and proposals, shared by both models
    score_s: dict  # model name -> scoring and argmax time


@dataclass
class Pass:
    results: dict[str, FrameResult] = field(default_factory=dict)  # each frame's first result
    ms: dict[str, list[float]] = field(default_factory=lambda: {m: [] for m in MODELS})  # every timed frame
    attempted: int = 0
    failed: int = 0
    changed: int = 0  # repeated frames whose picks differ from their first result
    seconds: float = 0.0

    def frame_ms(self, model: str) -> list[float]:
        return self.ms[model]

    def picks(self, model: str) -> dict:
        return {i: r.picks[model] for i, r in self.results.items()}


def _nospan(name):
    return contextlib.nullcontext()


def _box(b) -> tuple:
    return (b.x, b.y, b.w, b.h)


class Run:
    """One run's files: two configs, the synthetic splits and the models."""

    def __init__(self, workdir: Path, workload: str, seed: int, frames: int = FRAMES):
        self.dir = workdir
        self.workload = workload
        self.seed = seed
        self.frames = frames
        workdir.mkdir(parents=True, exist_ok=True)
        # the weak detectors train on their own, larger split; everything
        # else (classifier training, held-out frames) reads `data/`
        (workdir / "weak.cfg").write_text(f"seed = {seed}\npaths.data = data_weak\n")
        (workdir / "run.cfg").write_text(f"seed = {seed}\nnet.epochs = {EPOCHS}\n")
        self.cfg = parse_config(workdir / "run.cfg")
        self.layout = self.cfg.layout()

    # --- set-up ---------------------------------------------------------------

    def setup(self) -> list[Frame]:
        """Synthesize the three splits and decode the held-out frames."""
        splits = [
            ("weak", self.dir / "data_weak/train", WEAK_FRAMES, {}),
            ("classifier", self.dir / "data/train", CLASSIFIER_FRAMES, {}),
            ("frames", self.dir / "data/test", self.frames, FRAME_SPECS[self.workload]),
        ]
        for role, out, count, extra in splits:
            spec = synth.SynthSpec(count=count, seed=derive_seed(self.seed, "bench", role), **extra)
            annotations = synth.synth_generate(spec, out)
        test = self.dir / "data/test"
        return [Frame(a.path, imaging.to_gray(imaging.load_image(test / a.path)), a.face) for a in annotations]

    # --- training -------------------------------------------------------------

    def train_round(self, span=_nospan) -> int:
        """Run the five training commands; returns how many exited non-zero."""
        failed = 0
        for name, cfg, extra in TRAIN_COMMANDS:
            with span(f"cli.{name}"), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([name, "--config", str(self.dir / cfg), *extra])
            failed += rc != 0
        return failed

    def model_bytes(self) -> dict[str, bytes]:
        return {name: (self.dir / "models" / name).read_bytes() for name in MODEL_FILES}

    def load_models(self) -> Models:
        m = self.dir / "models"
        return Models(
            weakdet.load_detectors(m / "weakdet.txt"),
            segface.load_segface(m / "segface.txt"),
            deepsegface.load_deepsegface(m / "deepsegface.txt"),
        )

    # --- detection ------------------------------------------------------------

    def detect_frame(self, models: Models, frame: Frame) -> FrameResult:
        """The mobile path for one decoded frame: scan, proposals, then each
        model's scoring and (re-ranked) argmax, timed separately."""
        cfg, img = self.cfg, frame.image
        t0 = time.perf_counter()
        dets = weakdet.detect_segments(img, models.detectors, cfg.weak.scales(), cfg.weak.stride, cfg.weak.nms_iou)
        clusters = proposals.dedupe_clusters(
            proposals.cluster_detections(dets, self.layout, cfg.proposals.radius_frac, cfg.proposals.box_mode)
        )
        plist = proposals.generate_proposals(
            clusters,
            self.layout,
            zeta=cfg.proposals.zeta,
            min_segments=cfg.proposals.min_segments,
            seed=derive_seed(cfg.seed, "proposals", frame.image_id),
            image_id=frame.image_id,
            box_mode=cfg.proposals.box_mode,
        )
        t1 = time.perf_counter()
        sf_pick = None
        if plist:
            cache: dict = {}
            scores = [segface.score_proposal_segface(p, models.segface, img, cache) for p in plist]
            best = int(np.argmax(scores))
            sf_pick = (plist[best].box, float(scores[best]))
        t2 = time.perf_counter()
        dsf_pick = deepsegface.detect(models.deepsegface, img, plist, {})
        t3 = time.perf_counter()
        picks = {
            name: None if pick is None else (_box(pick[0]), pick[1])
            for name, pick in (("segface", sf_pick), ("deepsegface", dsf_pick))
        }
        return FrameResult(plist, picks, t1 - t0, {"segface": t2 - t1, "deepsegface": t3 - t2})

    def detect_pass(self, models: Models, frames: list[Frame], seconds: float = 0.0) -> Pass:
        """One whole pass over the frames in order, then the same frames again
        from the first until `seconds` have passed since the pass began."""
        out = Pass()
        start = time.perf_counter()
        i = 0
        while i < len(frames) or time.perf_counter() - start < seconds:
            frame = frames[i % len(frames)]
            i += 1
            out.attempted += 1
            try:
                r = self.detect_frame(models, frame)
            except Exception:  # a failed frame is counted, the pass goes on
                traceback.print_exc()
                out.failed += 1
                continue
            first = out.results.setdefault(frame.image_id, r)
            out.changed += first.picks != r.picks
            for model in MODELS:
                out.ms[model].append(1000.0 * (r.chain_s + r.score_s[model]))
        out.seconds = time.perf_counter() - start
        return out


def evaluate_pass(frames: list[Frame], result: Pass, chk: checks.Checks) -> dict[str, float]:
    """ROC areas and proposal coverage of one pass, each computed by the
    program and by the benchmark; checks that the two agree and that every
    pick is one of its frame's proposals."""
    done = [f for f in frames if f.image_id in result.results]
    truths = {f.image_id: f.truth for f in done}
    own_truths = {i: None if t is None else _box(t) for i, t in truths.items()}
    boxes = {}
    for f in done:
        r = result.results[f.image_id]
        labeled = proposals.label_proposals(r.proposals, f.truth)
        boxes[f.image_id] = [lp.proposal.box for lp in labeled]
        for lp in labeled:
            chk.require(
                f.truth is None or lp.overlap == checks.iou(_box(lp.proposal.box), own_truths[f.image_id]),
                f"{f.image_id}: proposal overlap agrees with the benchmark's IoU",
            )
        own = {_box(b) for b in boxes[f.image_id]}
        for model, pick in r.picks.items():
            chk.require(
                (pick is None) == (not own) and (pick is None or (pick[0] in own and math.isfinite(pick[1]))),
                f"{f.image_id}: {model} picks at most one box, one of the frame's proposals",
            )
    cov, _ = evaluate.coverage_upper_bound(boxes, truths, 0.5)
    own_boxes = {i: [_box(b) for b in bs] for i, bs in boxes.items()}
    chk.close(cov, checks.coverage(own_boxes, own_truths), "coverage agrees with the benchmark's")
    out = {"coverage": cov}
    for model in MODELS:
        picks = result.picks(model)
        images = [evaluate.ImageResult(i, truths[i], None if p is None else (imaging.BoxI(*p[0]), p[1])) for i, p in picks.items()]
        auc = evaluate.roc_auc(images)
        chk.close(auc, checks.roc_auc(picks, own_truths), f"{model} ROC area agrees with the benchmark's")
        tar = checks.roc_points(picks, own_truths)[-1][1]
        chk.require(tar <= cov + 1e-12, f"{model} TAR {tar:.4f} stays within coverage {cov:.4f}")
        chk.require(auc >= AUC_FLOOR[model], f"{model} ROC area {auc:.4f} >= {AUC_FLOOR[model]}")
        out[f"roc_auc.{model}"] = auc
    return out


def check_training(run: Run, chk: checks.Checks) -> None:
    """Proposal density on the classifier split, a falling DeepSegFace loss,
    and models that survive the program's readers and writers unchanged."""
    with open(run.dir / "reports/proposals_train.csv", encoding="utf-8") as fh:
        count = sum(1 for line in fh if line.strip() and not line.startswith("#"))
    mean = count / CLASSIFIER_FRAMES
    lo, hi = PROPOSALS_PER_IMAGE
    chk.require(lo <= mean <= hi, f"train proposals per image {mean:.2f} in [{lo}, {hi}]")

    rows = (run.dir / "reports/deepsegface_loss.csv").read_text(encoding="utf-8").split()[1:]
    losses = [float(r.split(",")[1]) for r in rows]
    chk.require(
        len(losses) >= 2 and all(math.isfinite(v) for v in losses) and losses[-1] < losses[0],
        f"DeepSegFace loss trace {losses} is finite over >= 2 epochs and falls",
    )

    models = run.load_models()
    again = run.dir / "reloaded"
    again.mkdir(exist_ok=True)
    weakdet.save_detectors(models.detectors, again / "weakdet.txt")
    segface.save_segface(models.segface, again / "segface.txt")
    deepsegface.save_deepsegface(models.deepsegface, again / "deepsegface.txt")
    for name in MODEL_FILES:
        chk.require(
            (again / name).read_bytes() == (run.dir / "models" / name).read_bytes(),
            f"{name} written back by the program is byte-identical",
        )
