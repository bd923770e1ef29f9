"""Detection evaluation at the image level.

Each image contributes at most one detection (the argmax proposal). A truth
image counts as correctly detected at threshold t when its detection scores
at least t and overlaps the annotation by IoU >= IOU_MIN (the paper's 50%); a
no-truth image counts as a false accept when any detection scores at least t.
Curves are exact step functions over the observed score set, no binning.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import EvalInvariantError, NoNegativeImagesError
from .imaging import BoxI

IOU_MIN = 0.5  # the paper's 50% overlap rule: a box at this IoU or more matches its face


def iou(a: BoxI, b: BoxI) -> float:
    """Intersection over union with exact integer area arithmetic."""
    ix = max(a.x, b.x)
    iy = max(a.y, b.y)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    inter = max(0, ix2 - ix) * max(0, iy2 - iy)
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


@dataclass(frozen=True)
class ImageResult:
    """Evaluation record for one image."""

    image_id: str
    truth: BoxI | None
    detection: tuple[BoxI, float] | None  # (box, score)

    @property
    def has_truth(self) -> bool:
        return self.truth is not None

    def __post_init__(self):
        if self.detection is not None and not math.isfinite(self.detection[1]):
            raise ValueError(f"{self.image_id}: detection score must be finite")


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    tar: float
    far: float
    precision: float
    recall: float


def _sweep(results: list[ImageResult]) -> list[CurvePoint]:
    n_truth = sum(1 for r in results if r.has_truth)
    n_neg = len(results) - n_truth
    hits = []  # scores on truth images whose detection overlaps >= IOU_MIN
    misses = []  # scores on truth images whose detection overlaps < IOU_MIN
    fas = []  # scores on no-truth images with any detection
    for r in results:
        if r.detection is None:
            continue
        box, score = r.detection
        if r.has_truth:
            if iou(box, r.truth) >= IOU_MIN:
                hits.append(score)
            else:
                misses.append(score)
        else:
            fas.append(score)
    thresholds = [math.inf] + sorted({*hits, *misses, *fas}, reverse=True) + [-math.inf]
    hits, misses, fas = sorted(hits), sorted(misses), sorted(fas)

    def at_least(scores, t):  # how many of the sorted scores are >= t
        return len(scores) - bisect.bisect_left(scores, t)

    points = []
    for t in thresholds:
        tp = at_least(hits, t)
        fa = at_least(fas, t)
        fp = at_least(misses, t) + fa
        tar = tp / n_truth if n_truth else 0.0
        far = fa / n_neg if n_neg else 0.0
        precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
        points.append(CurvePoint(t, tar, far, precision, tar))
    return points


def roc_curve(results: list[ImageResult]) -> list[CurvePoint]:
    """Threshold sweep of TAR over truth images vs FAR over no-truth images."""
    if not any(r.has_truth for r in results):
        raise ValueError("ROC needs at least one truth image")
    if all(r.has_truth for r in results):
        raise NoNegativeImagesError("FAR is undefined without no-truth images")
    return _sweep(results)


def tar_at_far(results: list[ImageResult], far_target: float = 0.01) -> float:
    """Best TAR among operating points whose FAR does not exceed the target."""
    return max(p.tar for p in roc_curve(results) if p.far <= far_target)


def pr_curve(results: list[ImageResult]) -> list[CurvePoint]:
    if not any(r.has_truth for r in results):
        raise ValueError("precision-recall needs at least one truth image")
    return _sweep(results)


def recall_at_precision(results: list[ImageResult], p_target: float = 0.99) -> float:
    """Best recall among operating points with precision >= target, else 0."""
    good = [p.recall for p in pr_curve(results) if p.precision >= p_target]
    return max(good) if good else 0.0


def roc_auc(results: list[ImageResult]) -> float:
    """Trapezoidal area under the (FAR, TAR) sweep, extended to FAR = 1."""
    pts = sorted((p.far, p.tar) for p in roc_curve(results))
    fars = [0.0] + [f for f, _ in pts] + [1.0]
    tars = [0.0] + [t for _, t in pts] + [pts[-1][1]]
    area = 0.0
    for i in range(1, len(fars)):
        area += (fars[i] - fars[i - 1]) * (tars[i] + tars[i - 1]) / 2.0
    return area


def coverage_upper_bound(
    proposals_by_image: dict[str, list[BoxI]],
    truths: dict[str, BoxI | None],
    iou_min: float = IOU_MIN,
    grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
) -> tuple[float, list[tuple[float, float, float]]]:
    """Fraction of truth images with at least one proposal at IoU >= iou_min.

    Also returns, for each overlap ratio in the grid, the fraction of all
    proposals that would be labeled positive / negative at that ratio.
    """
    truth_ids = [i for i, t in truths.items() if t is not None]
    covered = 0
    overlaps = []
    for image_id, t in truths.items():
        boxes = proposals_by_image.get(image_id, [])
        image_overlaps = [iou(b, t) if t is not None else 0.0 for b in boxes]
        overlaps.extend(image_overlaps)
        if t is not None and any(o >= iou_min for o in image_overlaps):
            covered += 1
    coverage = covered / len(truth_ids) if truth_ids else 0.0
    table = []
    total = len(overlaps)
    for ratio in grid:
        pos = sum(1 for o in overlaps if o >= ratio) / total if total else 0.0
        table.append((ratio, pos, 1.0 - pos))
    return coverage, table


def check_bottleneck(points: list[CurvePoint], coverage: float) -> None:
    """The proposal coverage bound caps TAR at every threshold."""
    worst = max((p.tar for p in points), default=0.0)
    if worst > coverage + 1e-9:
        raise EvalInvariantError(
            f"measured TAR {worst:.6f} exceeds proposal coverage bound {coverage:.6f}"
        )

