"""Weak boosted segment detectors.

One detector per segment kind: Haar features on integral images, boosted
decision stumps (discrete AdaBoost), scanned as a sliding window over an
image pyramid. The module also reads/writes the line-based detection
interchange format so externally produced detections can replace the
built-in detectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, NoUsefulFeatureError, ParseError
from .evaluate import iou
from .imaging import BoxI, GrayImageF, integral, resize_bilinear
from .segments import SegmentDetection, SegmentKind, kind_from_name, kind_name
from . import store

HAAR_TWO_H = "two-rect-horizontal"
HAAR_TWO_V = "two-rect-vertical"
HAAR_THREE_H = "three-rect-horizontal"


@dataclass(frozen=True)
class HaarFeature:
    """A rectangle inside the detector window, split into signed sub-rects.

    The rect is in window-relative pixel coordinates. Its width is divisible
    by 2 (two-rect-horizontal) or 3 (three-rect-horizontal), its height by 2
    (two-rect-vertical), so the signed areas cancel and the feature value is
    invariant to adding a constant to the image.
    """

    kind: str
    rect: BoxI

    def rects(self) -> list[tuple[int, int, int, int, int]]:
        """(weight, x, y, w, h) sub-rectangles."""
        r = self.rect
        if self.kind == HAAR_TWO_H:
            hw = r.w // 2
            return [(1, r.x, r.y, hw, r.h), (-1, r.x + hw, r.y, hw, r.h)]
        if self.kind == HAAR_TWO_V:
            hh = r.h // 2
            return [(1, r.x, r.y, r.w, hh), (-1, r.x, r.y + hh, r.w, hh)]
        if self.kind == HAAR_THREE_H:
            tw = r.w // 3
            return [
                (1, r.x, r.y, tw, r.h),
                (-2, r.x + tw, r.y, tw, r.h),
                (1, r.x + 2 * tw, r.y, tw, r.h),
            ]
        raise ValueError(f"unknown Haar kind {self.kind!r}")


@dataclass(frozen=True)
class Stump:
    """One boosted weak learner: h(x) = 1 iff polarity*value < polarity*threshold."""

    feature: HaarFeature
    threshold: float
    polarity: int
    alpha: float


@dataclass
class BoostedDetector:
    kind: SegmentKind
    window_w: int
    window_h: int
    stumps: list[Stump] = field(default_factory=list)
    accept_threshold: float = 0.0

    def alpha_sum(self) -> float:
        return sum(s.alpha for s in self.stumps)

    def score_patch(self, patch: GrayImageF) -> float:
        """Raw boosted score of one window-sized patch."""
        if patch.data.shape != (self.window_h, self.window_w):
            raise ValueError(
                f"patch {patch.data.shape} does not match window "
                f"{self.window_h}x{self.window_w}"
            )
        ii = integral(patch).data[None, :, :]
        area = float(self.window_w * self.window_h)
        score = 0.0
        for s in self.stumps:
            v = _feature_values_on_patches(s.feature, ii, area)[0]
            if s.polarity * v < s.polarity * s.threshold:
                score += s.alpha
        return score


def _feature_values_on_patches(feature: HaarFeature, ii_stack: np.ndarray, area: float) -> np.ndarray:
    """Feature value for every patch in a stacked integral array (N, H+1, W+1)."""
    v = np.zeros(ii_stack.shape[0], dtype=np.float64)
    for wgt, x, y, w, h in feature.rects():
        v += wgt * (
            ii_stack[:, y + h, x + w]
            - ii_stack[:, y, x + w]
            - ii_stack[:, y + h, x]
            + ii_stack[:, y, x]
        )
    return v / area


def _sample_features(rng: np.random.Generator, win_w: int, win_h: int, pool_size: int) -> list[HaarFeature]:
    """Deterministic pseudo-random feature pool for one window geometry."""
    seen = set()
    pool: list[HaarFeature] = []
    attempts = 0
    max_attempts = pool_size * 20
    kinds = (HAAR_TWO_H, HAAR_TWO_V, HAAR_THREE_H)
    while len(pool) < pool_size and attempts < max_attempts:
        attempts += 1
        kind = kinds[rng.integers(0, 3)]
        if kind == HAAR_TWO_H:
            unit, axis_len = 2, win_w
        elif kind == HAAR_THREE_H:
            unit, axis_len = 3, win_w
        else:
            unit, axis_len = 2, win_h
        max_cells = axis_len // unit
        if max_cells < 1:
            continue
        span = unit * int(rng.integers(1, max_cells + 1))
        if kind == HAAR_TWO_V:
            w = int(rng.integers(2, win_w + 1))
            h = span
        else:
            w = span
            h = int(rng.integers(2, win_h + 1))
        x = int(rng.integers(0, win_w - w + 1))
        y = int(rng.integers(0, win_h - h + 1))
        key = (kind, x, y, w, h)
        if key in seen:
            continue
        seen.add(key)
        pool.append(HaarFeature(kind, BoxI(x, y, w, h)))
    return pool


def train_boosted(
    kind: SegmentKind,
    positives: list[GrayImageF],
    negatives: list[GrayImageF],
    rounds: int,
    seed: int = 0,
    pool_size: int = 2000,
) -> BoostedDetector:
    """Discrete AdaBoost over decision stumps on a sampled Haar feature pool.

    Each round picks the (feature, threshold, polarity) stump with the lowest
    weighted error, weights alpha = 0.5*ln((1-eps)/eps), then reweights.
    A chosen feature leaves the pool so easily separable data still yields a
    diverse ensemble with graded window scores; eps is floored at 1/(2n) when
    computing alpha so perfect splits keep finite weight. Training halts when
    no remaining stump beats chance (error if none was ever found).
    """
    if not positives or not negatives:
        raise DegenerateDataError(
            f"{kind_name(kind)}: both patch classes must be nonempty "
            f"({len(positives)} positive, {len(negatives)} negative)"
        )
    win_h, win_w = positives[0].data.shape
    for p in positives + negatives:
        if p.data.shape != (win_h, win_w):
            raise ValueError(
                f"{kind_name(kind)}: all patches must match the window "
                f"{win_h}x{win_w}, got {p.data.shape}"
            )

    rng = np.random.Generator(np.random.PCG64(seed))
    features = _sample_features(rng, win_w, win_h, pool_size)
    patches = positives + negatives
    ii_stack = np.stack([integral(p).data for p in patches])
    area = float(win_w * win_h)
    n = len(patches)
    y = np.zeros(n, dtype=np.float64)
    y[: len(positives)] = 1.0

    values = np.empty((len(features), n), dtype=np.float64)
    for fi, feat in enumerate(features):
        values[fi] = _feature_values_on_patches(feat, ii_stack, area)
    order = np.argsort(values, axis=1, kind="stable")
    v_sorted = np.take_along_axis(values, order, axis=1)
    y_sorted = np.take_along_axis(np.broadcast_to(y, values.shape), order, axis=1)
    # splits between equal neighbors cannot be realized by a threshold
    valid = np.ones_like(v_sorted, dtype=bool)
    valid[:, :-1] = v_sorted[:, :-1] < v_sorted[:, 1:]

    weights = np.full(n, 1.0 / n, dtype=np.float64)
    available = np.ones((len(features), 1), dtype=bool)
    eps_floor = 1.0 / (2.0 * n)
    stumps: list[Stump] = []
    for _ in range(min(rounds, len(features))):
        w_sorted = np.take_along_axis(np.broadcast_to(weights, values.shape), order, axis=1)
        cpos = np.cumsum(w_sorted * y_sorted, axis=1)
        cneg = np.cumsum(w_sorted * (1.0 - y_sorted), axis=1)
        wpos = cpos[:, -1:]
        # threshold above sorted position i, polarity +1 predicts positive below it
        err_p = cneg + (wpos - cpos)
        err_m = 1.0 - err_p
        usable = valid & available
        err_p = np.where(usable, err_p, np.inf)
        err_m = np.where(usable, err_m, np.inf)
        best_p = np.unravel_index(np.argmin(err_p), err_p.shape)
        best_m = np.unravel_index(np.argmin(err_m), err_m.shape)
        if err_p[best_p] <= err_m[best_m]:
            fi, si = best_p
            polarity, eps = 1, float(err_p[best_p])
        else:
            fi, si = best_m
            polarity, eps = -1, float(err_m[best_m])
        if eps >= 0.5 - 1e-12:
            break
        if si == n - 1:
            threshold = float(v_sorted[fi, si]) + 1.0
        else:
            threshold = float(v_sorted[fi, si] + v_sorted[fi, si + 1]) / 2.0
        eps_c = min(max(eps, eps_floor), 1.0 - eps_floor)
        alpha = 0.5 * np.log((1.0 - eps_c) / eps_c)
        stumps.append(Stump(features[fi], threshold, polarity, float(alpha)))
        available[fi] = False
        pred = (polarity * values[fi] < polarity * threshold).astype(np.float64)
        wrong = pred != y
        weights = weights * np.exp(np.where(wrong, alpha, -alpha))
        weights /= weights.sum()
    if not stumps:
        raise NoUsefulFeatureError(
            f"{kind_name(kind)}: no stump beat chance on the training weights"
        )
    det = BoostedDetector(kind, win_w, win_h, stumps)
    det.accept_threshold = 0.5 * det.alpha_sum()
    return det


def _nms(dets: list[SegmentDetection], iou_max: float) -> list[SegmentDetection]:
    ordered = sorted(dets, key=lambda d: (-d.score, d.box.x, d.box.y, d.box.w, d.box.h))
    kept: list[SegmentDetection] = []
    for d in ordered:
        if all(iou(d.box, k.box) <= iou_max for k in kept):
            kept.append(d)
    return kept


def _scan_scores(det: BoostedDetector, ii: np.ndarray, nx: int, ny: int, stride: int) -> np.ndarray:
    """Raw boosted score of every window on an ny x nx grid with step `stride`.

    Each corner lookup is a basic strided slice of the integral image (a view,
    no copy); the arithmetic runs in three grid-sized buffers with `out=`.
    """
    ext_x = stride * (nx - 1) + 1
    ext_y = stride * (ny - 1) + 1

    def corner(x: int, y: int) -> np.ndarray:
        return ii[y : y + ext_y : stride, x : x + ext_x : stride]

    area = float(det.window_w * det.window_h)
    scores = np.zeros((ny, nx), dtype=np.float64)
    value = np.empty_like(scores)
    term = np.empty_like(scores)
    fires = np.empty((ny, nx), dtype=bool)
    for st in det.stumps:
        for i, (wgt, x, y, w, h) in enumerate(st.feature.rects()):
            t = term if i else value
            np.subtract(corner(x + w, y + h), corner(x + w, y), out=t)
            t -= corner(x, y + h)
            t += corner(x, y)
            if wgt != 1:
                t *= wgt
            if i:
                value += term
        value /= area
        compare = np.less if st.polarity == 1 else np.greater
        compare(value, st.threshold, out=fires)
        np.add(scores, st.alpha, out=scores, where=fires)
    return scores


def detect_segments(
    img: GrayImageF,
    detectors: list[BoostedDetector],
    scales: list[float],
    stride: int = 4,
    nms_iou: float = 0.5,
) -> list[SegmentDetection]:
    """Sliding-window scan over an image pyramid.

    A window at pyramid scale s maps to a box of roughly window*s pixels in
    the original image. Windows scoring at least the detector's acceptance
    threshold are emitted with score = raw - threshold, then same-kind
    detections are pruned by non-maximum suppression.

    Float-order contract: every window's raw score is the one
    `_feature_values_on_patches` and stump-order alpha sums give for that
    window's patch. Per rect ((ii[y1,x1] - ii[y0,x1]) - ii[y1,x0]) + ii[y0,x0],
    times the rect's weight; rects summed in order from 0; divided by the
    window area; a stump fires iff polarity*value < polarity*threshold; alphas
    added in stump order. A reordered sum (say over corner coefficients, or a
    tensordot over stumps) moves values by an ulp, which flips stumps whose
    threshold sits at a training value and moves scores by whole alphas. The
    scan skips only exact identities: the leading 0 + and a weight of 1, and
    it tests polarity -1 as value > threshold.
    """
    if not scales:
        raise ValueError("scale ladder must be nonempty")
    for a, b in zip(scales, scales[1:]):
        if b <= a:
            raise ValueError("scale ladder must be strictly increasing")
    hits: list[SegmentDetection] = []
    for s in scales:
        out_w = max(1, int(round(img.width / s)))
        out_h = max(1, int(round(img.height / s)))
        scaled = resize_bilinear(img, out_w, out_h)
        ii = integral(scaled).data
        sx = img.width / out_w
        sy = img.height / out_h
        for det in detectors:
            if out_w < det.window_w or out_h < det.window_h:
                continue
            nx = (out_w - det.window_w) // stride + 1
            ny = (out_h - det.window_h) // stride + 1
            scores = _scan_scores(det, ii, nx, ny, stride)
            iy, ix = np.nonzero(scores >= det.accept_threshold)
            for yi, xi in zip(iy.tolist(), ix.tolist()):
                box = BoxI(
                    int(round(xi * stride * sx)),
                    int(round(yi * stride * sy)),
                    max(1, int(round(det.window_w * sx))),
                    max(1, int(round(det.window_h * sy))),
                )
                hits.append(
                    SegmentDetection(det.kind, box, float(scores[yi, xi] - det.accept_threshold))
                )
    out: list[SegmentDetection] = []
    for kind in sorted({d.kind for d in hits}):
        out.extend(_nms([d for d in hits if d.kind == kind], nms_iou))
    return out


# --- detection interchange format -------------------------------------------
# One record per line: image_id,kind,x,y,w,h,score  ('#' starts a comment)


def export_detections(dets_by_image: dict[str, list[SegmentDetection]], path) -> None:
    lines = ["# image_id,kind,x,y,w,h,score"]
    for image_id, dets in dets_by_image.items():
        for d in dets:
            lines.append(
                f"{image_id},{kind_name(d.kind)},{d.box.x},{d.box.y},"
                f"{d.box.w},{d.box.h},{d.score!r}"
            )
    store.write_lines(path, lines)


def import_detections(path) -> dict[str, list[SegmentDetection]]:
    """Parse, validate and group detections by image id (file order kept)."""
    out: dict[str, list[SegmentDetection]] = {}
    for where, parts in store.records(path):
        image_id, kname, x, y, w, h, score = store.fields(
            parts, (str, str, int, int, int, int, float), where
        )
        kind = kind_from_name(kname, where)
        with store.checked(where):
            det = SegmentDetection(kind, BoxI(x, y, w, h), score)
        out.setdefault(image_id, []).append(det)
    return out


# --- model file --------------------------------------------------------------

WEAK_MAGIC = "WEAKDET-MODEL v1"


def save_detectors(detectors: list[BoostedDetector], path) -> None:
    sections = []
    for det in detectors:
        entries = [
            ("window", f"{det.window_w} {det.window_h}"),
            ("accept_threshold", repr(det.accept_threshold)),
            ("stump_count", str(len(det.stumps))),
        ]
        for i, s in enumerate(det.stumps):
            r = s.feature.rect
            entries.append(
                (
                    f"stump{i}",
                    f"{s.feature.kind} {r.x} {r.y} {r.w} {r.h} "
                    f"{s.threshold!r} {s.polarity} {s.alpha!r}",
                )
            )
        sections.append((f"detector kind={kind_name(det.kind)}", entries))
    store.write_sections(path, WEAK_MAGIC, sections)


# width and height unit of each Haar kind: its sub-rects split the rect evenly
_HAAR_UNITS = {HAAR_TWO_H: (2, 1), HAAR_TWO_V: (1, 2), HAAR_THREE_H: (3, 1)}


def _stump(entries: dict[str, str], key: str, win_w: int, win_h: int, where: str) -> Stump:
    kname, x, y, w, h, thr, pol, alpha = store.entry(
        entries, key, (str, int, int, int, int, float, int, float), where
    )
    where = f"{where} {key}"
    if kname not in _HAAR_UNITS:
        raise ParseError(f"{where}: unknown Haar kind {kname!r}")
    if w <= 0 or h <= 0 or x < 0 or y < 0 or x + w > win_w or y + h > win_h:
        raise ParseError(f"{where}: rect {x} {y} {w} {h} is not inside the {win_w}x{win_h} window")
    unit_w, unit_h = _HAAR_UNITS[kname]
    if w % unit_w or h % unit_h:
        raise ParseError(f"{where}: {kname} rect {w}x{h} is not divisible by {unit_w}x{unit_h}")
    if pol not in (1, -1):
        raise ParseError(f"{where}: polarity must be 1 or -1, got {pol}")
    return Stump(HaarFeature(kname, BoxI(x, y, w, h)), thr, pol, alpha)


def load_detectors(path) -> list[BoostedDetector]:
    """Read a weak-model file, rejecting any stump the scan cannot evaluate.

    The scan reads corners without bounds checks, so every rect must lie
    inside its window and split evenly by its Haar kind; any other defect
    raises ParseError naming the path, section and key.
    """
    detectors = []
    for name, entries in store.read_sections(path, WEAK_MAGIC):
        if not name.startswith("detector kind="):
            raise ParseError(f"{path}: unexpected section [{name}]")
        where = f"{path}: [{name}]"
        kind = kind_from_name(name.partition("=")[2], where)
        win_w, win_h = store.entry(entries, "window", (int, int), where)
        if win_w <= 0 or win_h <= 0:
            raise ParseError(f"{where} window: extents must be positive, got {win_w} {win_h}")
        (accept,) = store.entry(entries, "accept_threshold", (float,), where)
        (count,) = store.entry(entries, "stump_count", (int,), where)
        if count < 0:
            raise ParseError(f"{where} stump_count: must be nonnegative, got {count}")
        stumps = [_stump(entries, f"stump{i}", win_w, win_h, where) for i in range(count)]
        detectors.append(BoostedDetector(kind, win_w, win_h, stumps, accept))
    return detectors
