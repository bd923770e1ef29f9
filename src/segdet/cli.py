"""Command-line pipeline: synth, train-weak, detect-segments, gen-proposals,
train-segface, train-deepsegface, detect, eval, validate-config.

Every stage reads declared inputs and writes declared outputs under the
config's data/models/reports directories (resolved relative to the config
file). Exit codes: 0 success, 2 config error, 3 missing input, 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import deepsegface as dsf
from . import evaluate, proposals as props, segface, store, synth, weakdet
from .config import RunConfig, parse_config
from .errors import ConfigError, MissingInputError, ParseError, SegdetError
from .imaging import BoxI, GrayImageF, load_image, resize_bilinear, to_gray
from .segments import ALL_KINDS, SegmentLayout, kind_name
from .seeding import derive_seed


# --- dataset access -----------------------------------------------------------


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise MissingInputError(f"{what} not found: {path}")
    return path


def load_split(data_dir: Path, split: str):
    """Annotations plus grayscale images of one dataset split."""
    split_dir = _require(data_dir / split, f"dataset split '{split}'")
    ann_path = _require(split_dir / "annotations.csv", "annotations file")
    annotations = synth.load_annotations(ann_path)
    images: dict[str, GrayImageF] = {}
    for a in annotations:
        images[a.path] = to_gray(load_image(split_dir / a.path))
    return annotations, images


# --- weak detector training ---------------------------------------------------


def _window_dims(layout: SegmentLayout, kind, window_scale: float) -> tuple[int, int]:
    h, w = layout.canonical[kind]
    return max(8, int(round(h * window_scale))), max(8, int(round(w * window_scale)))


def _interior_face(a: synth.Annotation, width: int, height: int) -> bool:
    # faces touching the frame border are likely clipped; their segment
    # geometry no longer matches the unit regions, so skip them as positives
    b = a.face
    return b is not None and b.x > 0 and b.y > 0 and b.x2 < width and b.y2 < height


def harvest_patches(annotations, images, layout: SegmentLayout, cfg: RunConfig):
    """Window-sized positive and negative patches per segment kind."""
    out = {}
    for kind in ALL_KINDS:
        win_h, win_w = _window_dims(layout, kind, cfg.weak.window_scale)
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, "patches", kind_name(kind))))
        positives = []
        negatives = []
        for a in annotations:
            img = images[a.path]
            if _interior_face(a, img.width, img.height):
                seg = layout.segment_box(a.face, kind)
                if seg.x >= 0 and seg.y >= 0 and seg.x2 <= img.width and seg.y2 <= img.height:
                    patch = resize_bilinear(
                        GrayImageF(seg.w, seg.h, img.data[seg.y : seg.y2, seg.x : seg.x2]),
                        win_w,
                        win_h,
                    )
                    positives.append(patch)
            for _ in range(cfg.weak.negatives_per_image):
                for _attempt in range(8):
                    s = rng.uniform(0.8, 1.8)
                    bw, bh = int(round(win_w * s)), int(round(win_h * s))
                    if bw >= img.width or bh >= img.height:
                        continue
                    bx = int(rng.integers(0, img.width - bw + 1))
                    by = int(rng.integers(0, img.height - bh + 1))
                    cand = BoxI(bx, by, bw, bh)
                    if a.face is not None and evaluate.iou(cand, a.face) > 0.15:
                        continue
                    negatives.append(
                        resize_bilinear(
                            GrayImageF(bw, bh, img.data[by : by + bh, bx : bx + bw]), win_w, win_h
                        )
                    )
                    break
        if len(negatives) > 3 * max(len(positives), 1):
            keep = rng.permutation(len(negatives))[: 3 * max(len(positives), 1)]
            negatives = [negatives[i] for i in sorted(keep.tolist())]
        out[kind] = (positives, negatives)
    return out


def train_weak_detectors(annotations, images, layout, cfg: RunConfig):
    patches = harvest_patches(annotations, images, layout, cfg)
    detectors = []
    for kind in ALL_KINDS:
        positives, negatives = patches[kind]
        det = weakdet.train_boosted(
            kind,
            positives,
            negatives,
            cfg.weak.rounds,
            seed=derive_seed(cfg.seed, "boost", kind_name(kind)),
            pool_size=cfg.weak.pool_size,
        )
        det.accept_threshold = cfg.weak.threshold_scale * 0.5 * det.alpha_sum()
        detectors.append(det)
    return detectors


# --- proposal generation -------------------------------------------------------


def proposals_for_image(dets, layout, cfg: RunConfig, image_id: str):
    clusters = props.cluster_detections(dets, layout, cfg.proposals.radius_frac, cfg.proposals.box_mode)
    clusters = props.dedupe_clusters(clusters)
    return props.generate_proposals(
        clusters,
        layout,
        zeta=cfg.proposals.zeta,
        min_segments=cfg.proposals.min_segments,
        seed=derive_seed(cfg.seed, "proposals", image_id),
        image_id=image_id,
        box_mode=cfg.proposals.box_mode,
    )


# --- faces (final detection) format -------------------------------------------


def save_faces(rows: list[tuple[str, tuple[BoxI, float] | None]], path) -> None:
    csv_rows = [(i, *det[0].astuple(), det[1]) if det else (i, "", "", "", "", "") for i, det in rows]
    store.write_csv(path, csv_rows, "# image_id,x,y,w,h,score")


def load_faces(path) -> dict[str, tuple[BoxI, float] | None]:
    """Faces file rows by image id; empty box and score fields mean no
    detection, and an id listed twice is a ParseError."""
    return store.image_rows(path, (float,))


# --- commands ------------------------------------------------------------------


def _dirs(cfg: RunConfig, base: Path):
    return base / cfg.paths.data, base / cfg.paths.models, base / cfg.paths.reports


def cmd_validate_config(cfg: RunConfig, args, base: Path) -> int:
    print("config ok")  # parse_config has already range-checked every key
    return 0


def cmd_synth(cfg: RunConfig, args, base: Path) -> int:
    data, _, _ = _dirs(cfg, base)
    for split, count in (("train", cfg.synth.train_count), ("test", cfg.synth.test_count)):
        spec = cfg.synth.spec(count, derive_seed(cfg.seed, "synth", split))
        synth.synth_generate(spec, data / split)
        print(f"wrote {count} images to {data / split}")
    return 0


def cmd_train_weak(cfg: RunConfig, args, base: Path) -> int:
    data, models, _ = _dirs(cfg, base)
    annotations, images = load_split(data, "train")
    detectors = train_weak_detectors(annotations, images, cfg.layout(), cfg)
    models.mkdir(parents=True, exist_ok=True)
    weakdet.save_detectors(detectors, models / "weakdet.txt")
    print(f"trained {len(detectors)} segment detectors -> {models / 'weakdet.txt'}")
    return 0


def cmd_detect_segments(cfg: RunConfig, args, base: Path) -> int:
    data, models, reports = _dirs(cfg, base)
    detectors = weakdet.load_detectors(_require(models / "weakdet.txt", "weak detector model"))
    annotations, images = load_split(data, args.split)
    by_image = {}
    for a in annotations:
        by_image[a.path] = weakdet.detect_segments(
            images[a.path], detectors, cfg.weak.scales(), cfg.weak.stride, cfg.weak.nms_iou
        )
    reports.mkdir(parents=True, exist_ok=True)
    out = reports / f"detections_{args.split}.csv"
    weakdet.export_detections(by_image, out)
    total = sum(len(v) for v in by_image.values())
    print(f"{total} segment detections on {len(annotations)} images -> {out}")
    return 0


def cmd_gen_proposals(cfg: RunConfig, args, base: Path) -> int:
    data, _, reports = _dirs(cfg, base)
    det_path = _require(reports / f"detections_{args.split}.csv", "detections file")
    dets_by_image = weakdet.import_detections(det_path)
    annotations = synth.load_annotations(
        _require(data / args.split / "annotations.csv", "annotations file")
    )
    layout = cfg.layout()
    by_image = {}
    for a in annotations:
        plist = proposals_for_image(dets_by_image.get(a.path, []), layout, cfg, a.path)
        by_image[a.path] = props.label_proposals(plist, a.face)
    reports.mkdir(parents=True, exist_ok=True)
    out = reports / f"proposals_{args.split}.csv"
    props.export_proposals(by_image, out)
    total = sum(len(v) for v in by_image.values())
    print(f"{total} proposals on {len(annotations)} images -> {out}")
    return 0


def _load_labeled_proposals(reports: Path, split: str):
    path = _require(reports / f"proposals_{split}.csv", "proposals file")
    return props.import_proposals(path)


def cmd_train_segface(cfg: RunConfig, args, base: Path) -> int:
    data, models, reports = _dirs(cfg, base)
    by_image = _load_labeled_proposals(reports, "train")
    _, images = load_split(data, "train")
    labeled = [lp for a_path in by_image for lp in by_image[a_path]]
    model = segface.train_segface(
        labeled,
        images,
        cfg.layout(),
        cfg.hog,
        cfg.svm.lam,
        cfg.svm.epochs,
        derive_seed(cfg.seed, "segface"),
    )
    models.mkdir(parents=True, exist_ok=True)
    segface.save_segface(model, models / "segface.txt")
    print(f"segface model -> {models / 'segface.txt'}")
    return 0


def cmd_train_deepsegface(cfg: RunConfig, args, base: Path) -> int:
    data, models, reports = _dirs(cfg, base)
    by_image = _load_labeled_proposals(reports, "train")
    _, images = load_split(data, "train")
    labeled = [lp for a_path in by_image for lp in by_image[a_path]]
    net_cfg = dsf.network_config(cfg.net.scale, cfg.layout(), cfg.net.dtype)
    model = dsf.build_network(net_cfg, derive_seed(cfg.seed, "dsf-init"))
    trace = dsf.train(model, labeled, images, cfg.net, derive_seed(cfg.seed, "dsf-train"))
    models.mkdir(parents=True, exist_ok=True)
    dsf.save_deepsegface(model, models / "deepsegface.txt")
    reports.mkdir(parents=True, exist_ok=True)
    store.write_csv(reports / "deepsegface_loss.csv", enumerate(trace), "epoch,mean_loss")
    print(
        f"deepsegface model -> {models / 'deepsegface.txt'} "
        f"(loss {trace[0]:.4f} -> {trace[-1]:.4f})"
    )
    return 0


def _detect_with_model(cfg, detect, annotations, images, detectors, model, layout):
    """Full chain per image: segments -> proposals -> the classifier's
    `detect(model, image, proposals)`, which returns (box, score) or None."""
    rows = []
    by_image = {}
    for a in annotations:
        dets = weakdet.detect_segments(
            images[a.path], detectors, cfg.weak.scales(), cfg.weak.stride, cfg.weak.nms_iou
        )
        plist = proposals_for_image(dets, layout, cfg, a.path)
        by_image[a.path] = props.label_proposals(plist, a.face)
        rows.append((a.path, detect(model, images[a.path], plist)))
    return rows, by_image


def cmd_detect(cfg: RunConfig, args, base: Path) -> int:
    data, models, reports = _dirs(cfg, base)
    detectors = weakdet.load_detectors(_require(models / "weakdet.txt", "weak detector model"))
    clf, load = (segface, segface.load_segface) if args.model == "segface" else (dsf, dsf.load_deepsegface)
    model = load(_require(models / f"{args.model}.txt", f"{args.model} model"))
    annotations, images = load_split(data, args.split)
    rows, by_image = _detect_with_model(cfg, clf.detect, annotations, images, detectors, model, cfg.layout())
    reports.mkdir(parents=True, exist_ok=True)
    faces_path = reports / f"faces_{args.model}_{args.split}.csv"
    save_faces(rows, faces_path)
    props.export_proposals(by_image, reports / f"proposals_{args.split}.csv")
    found = sum(1 for _, d in rows if d is not None)
    print(f"{found}/{len(rows)} images with a detection -> {faces_path}")
    return 0


def cmd_eval(cfg: RunConfig, args, base: Path) -> int:
    data, _, reports = _dirs(cfg, base)
    out_dir = reports / f"eval_{args.model}_{args.split}"
    annotations = synth.load_annotations(
        _require(data / args.split / "annotations.csv", "annotations file")
    )
    faces_path = _require(reports / f"faces_{args.model}_{args.split}.csv", "faces file")
    faces = load_faces(faces_path)
    missing = [a.path for a in annotations if a.path not in faces]
    if missing:
        raise ParseError(f"{faces_path}: no row for image {missing[0]} ({len(missing)} missing)")
    split_ids = {a.path for a in annotations}
    extra = [i for i in faces if i not in split_ids]
    if extra:
        raise ParseError(f"{faces_path}: row for image {extra[0]} not in the split ({len(extra)} extra)")
    by_image = _load_labeled_proposals(reports, args.split)
    results = [evaluate.ImageResult(a.path, a.face, faces[a.path]) for a in annotations]
    points = evaluate.roc_curve(results)
    tar = evaluate.tar_at_far(results, cfg.eval.far_target)
    recall = evaluate.recall_at_precision(results, cfg.eval.prec_target)
    auc = evaluate.roc_auc(results)
    proposal_boxes = {
        img: [lp.proposal.box for lp in lps] for img, lps in by_image.items()
    }
    truths = {a.path: a.face for a in annotations}
    coverage, table = evaluate.coverage_upper_bound(proposal_boxes, truths)
    evaluate.check_bottleneck(points, coverage)  # the proposal bottleneck bound
    n_prop = sum(len(v) for v in by_image.values())

    out_dir.mkdir(parents=True, exist_ok=True)
    curve = [(p.threshold, p.tar, p.far, p.precision, p.recall) for p in points]
    store.write_csv(out_dir / "curve.csv", curve, "threshold,tar,far,precision,recall")
    summary = [
        (f"tar_at_far_{cfg.eval.far_target}", tar),
        (f"recall_at_prec_{cfg.eval.prec_target}", recall),
        (f"coverage_{evaluate.IOU_MIN}", coverage),
        ("roc_auc", auc),
        ("proposals_per_image", n_prop / max(len(annotations), 1)),
    ]
    store.write_csv(out_dir / "summary.csv", summary, "metric,value")
    fig5_header = "overlap_ratio,positive_fraction,negative_fraction"
    store.write_csv(out_dir / "fig5_table.csv", table, fig5_header)
    print(
        f"tar@far={tar:.4f} recall@prec={recall:.4f} auc={auc:.4f} "
        f"coverage={coverage:.4f} -> {out_dir}"
    )
    return 0


_COMMANDS = {
    "validate-config": cmd_validate_config,
    "synth": cmd_synth,
    "train-weak": cmd_train_weak,
    "detect-segments": cmd_detect_segments,
    "gen-proposals": cmd_gen_proposals,
    "train-segface": cmd_train_segface,
    "train-deepsegface": cmd_train_deepsegface,
    "detect": cmd_detect,
    "eval": cmd_eval,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segdet", description="Facial-segment face detection pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run-config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name in ("detect-segments", "gen-proposals", "detect", "eval"):
            p.add_argument("--split", default="test", choices=("train", "test"))
        if name in ("detect", "eval"):
            p.add_argument("--model", default="deepsegface", choices=("segface", "deepsegface"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        base = Path(args.config).resolve().parent
        return _COMMANDS[args.command](cfg, args, base)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MissingInputError, FileNotFoundError) as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 3
    except SegdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
