"""Output checks computed apart from the program.

IoU, the ROC area and proposal coverage are re-derived here from boxes and
scores alone (a sorted cumulative sweep, not the program's per-threshold
recount) and must agree with ``segdet.evaluate``. The other checks test
properties the method must have, never stored copies of earlier output.
"""

from __future__ import annotations

import math
import sys


def iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) integer boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = max(0, min(ax + aw, bx + bw) - max(ax, bx))
    ih = max(0, min(ay + ah, by + bh) - max(ay, by))
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def roc_points(picks, truths):
    """(FAR, TAR) after each distinct score, highest first, from (0, 0).

    picks: image id -> (box tuple, score) or None; truths: image id -> box
    tuple or None. A truth image counts once its pick scores >= the threshold
    and overlaps the truth at IoU >= 0.5; a no-truth image counts as a false
    accept once any pick scores >= the threshold.
    """
    n_truth = sum(1 for t in truths.values() if t is not None)
    n_neg = len(truths) - n_truth
    events = []  # (score, is_hit, is_false_accept)
    for image_id, truth in truths.items():
        pick = picks.get(image_id)
        if pick is None:
            continue
        box, score = pick
        if truth is None:
            events.append((score, 0, 1))
        else:
            events.append((score, 1 if iou(box, truth) >= 0.5 else 0, 0))
    events.sort(key=lambda e: -e[0])
    points = [(0.0, 0.0)]
    hits = fas = 0
    for i, (score, hit, fa) in enumerate(events):
        hits += hit
        fas += fa
        if i + 1 == len(events) or events[i + 1][0] != score:
            points.append((fas / n_neg if n_neg else 0.0, hits / n_truth if n_truth else 0.0))
    return points


def roc_auc(picks, truths) -> float:
    """Trapezoidal area under the sweep, extended flat to FAR = 1."""
    points = roc_points(picks, truths)
    points.append((1.0, points[-1][1]))
    return sum((f1 - f0) * (t1 + t0) / 2.0 for (f0, t0), (f1, t1) in zip(points, points[1:]))


def coverage(boxes_by_image, truths, iou_min: float = 0.5) -> float:
    """Share of truth images with at least one proposal at IoU >= iou_min."""
    truth_ids = [i for i, t in truths.items() if t is not None]
    covered = sum(
        1 for i in truth_ids if any(iou(b, truths[i]) >= iou_min for b in boxes_by_image.get(i, []))
    )
    return covered / len(truth_ids) if truth_ids else 0.0


class Checks:
    """Collects named pass/fail results; a run is correct when none failed."""

    def __init__(self):
        self.failed: list[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def close(self, a: float, b: float, what: str, tol: float = 1e-12) -> None:
        self.require(math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol, f"{what} ({a!r} vs {b!r})")

    @property
    def ok(self) -> bool:
        return not self.failed
