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

# kind -> (sub-rect weights, True if they split the rect's width into
# len(weights) equal parts, False if its height); _sample_features draws by index
_HAAR: dict[str, tuple[tuple[int, ...], bool]] = {
    HAAR_TWO_H: ((1, -1), True),
    HAAR_TWO_V: ((1, -1), False),
    HAAR_THREE_H: ((1, -2, 1), True),
}


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
        """(weight, x, y, w, h) sub-rectangles, left to right or top to bottom."""
        weights, split_w = _HAAR[self.kind]
        x, y, w, h = self.rect.astuple()
        out = []
        if split_w:
            w //= len(weights)
            for wgt in weights:
                out.append((wgt, x, y, w, h))
                x += w
        else:
            h //= len(weights)
            for wgt in weights:
                out.append((wgt, x, y, w, h))
                y += h
        return out


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


def _feature_values_on_patches(features: list[HaarFeature], ii_stack: np.ndarray) -> np.ndarray:
    """Raw window sum of every feature on every patch of a stacked integral
    array (N, H+1, W+1), as an (N, F) table.

    Features with the same rect count share one pass of corner gathers. Each
    value keeps the scan's float order: per rect ((ii[y1,x1] - ii[y0,x1]) -
    ii[y1,x0]) + ii[y0,x0], times the rect's weight, added in rect order to a
    zero start.
    """
    n, rows, cols = ii_stack.shape
    corners = ii_stack.reshape(n, rows * cols).T.copy()  # one row of N per corner
    values = np.empty((len(features), n), dtype=np.float64)
    by_count: dict[int, list[int]] = {}
    for fi, feat in enumerate(features):
        by_count.setdefault(len(feat.rects()), []).append(fi)
    for idx in by_count.values():
        wgt, x, y, w, h = np.array([features[fi].rects() for fi in idx]).transpose(2, 1, 0)
        v = np.zeros((len(idx), n), dtype=np.float64)
        for r in range(len(wgt)):
            x0, y0, x1, y1 = x[r], y[r] * cols, x[r] + w[r], (y[r] + h[r]) * cols
            t = corners[y1 + x1] - corners[y0 + x1]
            t -= corners[y1 + x0]
            t += corners[y0 + x0]
            v += wgt[r][:, None] * t
        values[idx] = v
    return np.ascontiguousarray(values.T)


def _sample_features(rng: np.random.Generator, win_w: int, win_h: int, pool_size: int) -> list[HaarFeature]:
    """Deterministic pseudo-random feature pool for one window geometry."""
    seen = set()
    pool: list[HaarFeature] = []
    attempts = 0
    max_attempts = pool_size * 20
    kinds = tuple(_HAAR)
    while len(pool) < pool_size and attempts < max_attempts:
        attempts += 1
        kind = kinds[rng.integers(0, len(kinds))]
        weights, split_w = _HAAR[kind]
        unit = len(weights)
        max_cells = (win_w if split_w else win_h) // unit
        if max_cells < 1:
            continue
        # the split side first, then the other: the draw order fixes the pool
        span = unit * int(rng.integers(1, max_cells + 1))
        other = int(rng.integers(2, (win_h if split_w else win_w) + 1))
        w, h = (span, other) if split_w else (other, span)
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

    Ties go to the first feature in pool order, then to the first sorted
    position within it, and polarity +1 beats -1. Rounds reuse their buffers;
    prefix sums keep np.cumsum's sequential order. The polarity -1 error
    1 - err_+1 is minimized as the largest err_+1, which is exact where -1
    can win (err_+1 >= 0.5).
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
    ii_stack = np.stack([integral(p) for p in patches])
    n = len(patches)
    y = np.zeros(n, dtype=np.float64)
    y[: len(positives)] = 1.0

    # (position, feature) layout: each sorted position's row is contiguous
    values = _feature_values_on_patches(features, ii_stack)
    order = np.argsort(values, axis=0, kind="stable")
    v_sorted = np.take_along_axis(values, order, axis=0)
    # a split between equal neighbors cannot be realized by a threshold, and
    # a chosen feature leaves the pool: both get an infinite penalty
    penalty = np.zeros_like(v_sorted)
    penalty[:-1][~(v_sorted[:-1] < v_sorted[1:])] = np.inf
    cpos = np.empty_like(v_sorted)
    cneg = np.empty_like(v_sorted)
    masked = np.empty_like(v_sorted)

    weights = np.full(n, 1.0 / n, dtype=np.float64)
    eps_floor = 1.0 / (2.0 * n)
    stumps: list[Stump] = []
    for _ in range(min(rounds, len(features))):
        # every index is valid; "clip" writes straight into out, "raise" buffers
        np.take(weights * y, order, out=cpos, mode="clip")
        np.take(weights * (1.0 - y), order, out=cneg, mode="clip")
        for i in range(1, n):
            np.add(cpos[i - 1], cpos[i], out=cpos[i])
            np.add(cneg[i - 1], cneg[i], out=cneg[i])
        # threshold above sorted position i, polarity +1 predicts positive
        # below it: err_+1 = cneg + (wpos - cpos), built in cpos
        np.subtract(cpos[-1].copy(), cpos, out=cpos)
        err_p = np.add(cneg, cpos, out=cpos)
        lowest = np.add(err_p, penalty, out=masked).min(axis=0)
        fp = int(np.argmin(lowest))
        highest = np.subtract(err_p, penalty, out=masked).max(axis=0)
        fm = int(np.argmax(highest))
        if lowest[fp] <= 1.0 - highest[fm]:
            fi, polarity, eps = fp, 1, float(lowest[fp])
            si = int(np.argmin(err_p[:, fi] + penalty[:, fi]))
        else:
            fi, polarity, eps = fm, -1, float(1.0 - highest[fm])
            si = int(np.argmax(err_p[:, fi] - penalty[:, fi]))
        if eps >= 0.5 - 1e-12:
            break
        if si == n - 1:
            threshold = float(v_sorted[si, fi]) + 1.0
        else:
            threshold = float(v_sorted[si, fi] + v_sorted[si + 1, fi]) / 2.0
        eps_c = min(max(eps, eps_floor), 1.0 - eps_floor)
        alpha = 0.5 * np.log((1.0 - eps_c) / eps_c)
        stumps.append(Stump(features[fi], threshold, polarity, float(alpha)))
        penalty[:, fi] = np.inf
        pred = (polarity * values[:, fi] < polarity * threshold).astype(np.float64)
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


def _scan_scores(det: BoostedDetector, phases: list[list[np.ndarray]], width: int, nx: int, ny: int, stride: int) -> np.ndarray:
    """Raw boosted score of every window on an ny x nx grid with step `stride`.

    `phases[py][px]` is the integral image's `[py::stride, px::stride]`
    subsample, `width` columns wide and flattened, so a corner at window
    offset (x, y) reads the whole grid as one contiguous slice of one phase,
    from row y // stride, column x // stride. All ny * width positions are
    scored; those in columns nx and beyond wrap into the next phase row, like
    windows that straddle the canvas edge, and are dropped. Each phase has a
    spare row below the last one a kept window reads, so the slices stay in
    bounds.
    """
    n = ny * width

    def corner(x: int, y: int) -> np.ndarray:
        start = y // stride * width + x // stride
        return phases[y % stride][x % stride][start : start + n]

    scores = np.zeros(n, dtype=np.float64)
    value = np.empty_like(scores)
    term = np.empty_like(scores)
    fires = np.empty(n, dtype=bool)
    for st in det.stumps:
        for i, (wgt, x, y, w, h) in enumerate(st.feature.rects()):
            t = term if i else value
            np.subtract(corner(x + w, y + h), corner(x + w, y), out=t)
            t -= corner(x, y + h)
            t += corner(x, y)
            if i and wgt == -1:
                value -= term  # exactly value + (-1) * term
                continue
            if wgt != 1:
                t *= wgt
            if i:
                value += term
        compare = np.less if st.polarity == 1 else np.greater
        compare(value, st.threshold, out=fires)
        np.add(scores, st.alpha, out=scores, where=fires)
    return scores.reshape(ny, width)[:, :nx]


# Largest float64 canvas, so a detector's passes over it stay in a 2 MiB L2
# cache. At the default ladder a 160x120 frame is one canvas and a 320x240
# frame two (rungs 0-1 and 2-5), which scanned faster than one canvas.
_CANVAS_BYTES = 1_200_000


def _canvases(sizes: list[tuple[int, int]], stride: int) -> list[list[tuple[int, int]]]:
    """Pyramid rungs, given as (w, h), packed left to right into canvases.

    Each canvas lists its blocks as (rung index, x offset); a block is its
    rung's (h+1) x (w+1) integral image. Offsets are multiples of `stride`, so
    the canvas's scan grid holds each block's own grid. Consecutive rungs share
    a canvas until the next block would take it past _CANVAS_BYTES.
    """
    canvases: list[list[tuple[int, int]]] = []
    width = height = 0
    for r, (w, h) in enumerate(sizes):
        x0 = -(-width // stride) * stride
        if not canvases or 8 * max(height, h + 1) * (x0 + w + 1) > _CANVAS_BYTES:
            canvases.append([])
            x0 = height = 0
        canvases[-1].append((r, x0))
        width, height = x0 + w + 1, max(height, h + 1)
    return canvases


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

    Canvas: each rung's integral image is a block in a zero-filled canvas, at
    an x offset that is a multiple of the stride, and each detector scans a
    whole canvas in one `_scan_scores` call (numpy call overhead, not window
    arithmetic, dominates a small rung). Of the canvas grid only each block's
    own ny x nx grid is kept; windows that straddle blocks or padding are
    computed and dropped. A kept window reads only its own block, whose values
    are its rung's integral image, so its score is the one a scan of that rung
    alone gives. The scan reads the canvas through its stride x stride phases
    (flat copies of `canvas[py::stride, px::stride]`), which hold the same
    values; the canvas is padded so that every phase has one shape and a
    spare zero row. Rungs are grouped into canvases by `_canvases`, a
    function of the rung sizes only; a one-block canvas is a plain per-rung
    scan.

    Float-order contract: every window's raw score is the one
    `_feature_values_on_patches` and stump-order alpha sums give for that
    window's patch. Per rect ((ii[y1,x1] - ii[y0,x1]) - ii[y1,x0]) + ii[y0,x0],
    times the rect's weight; rects summed in order from 0; a stump fires iff
    polarity*value < polarity*threshold; alphas added in stump order. A
    reordered sum (say over corner coefficients, or a tensordot over stumps)
    moves values by an ulp, which flips stumps whose threshold sits at a
    training value and moves scores by whole alphas. The scan keeps to exact
    identities: it skips the leading 0 + and a weight of 1, writes a weight of
    -1 as a subtraction, and tests polarity -1 as value > threshold.
    """
    if not scales:
        raise ValueError("scale ladder must be nonempty")
    for a, b in zip(scales, scales[1:]):
        if b <= a:
            raise ValueError("scale ladder must be strictly increasing")
    rungs = []
    for s in scales:
        out_w = max(1, int(round(img.width / s)))
        out_h = max(1, int(round(img.height / s)))
        rungs.append((out_w, out_h, integral(resize_bilinear(img, out_w, out_h))))
    hits: list[SegmentDetection] = []
    for blocks in _canvases([(w, h) for w, h, _ in rungs], stride):
        last, x_last = blocks[-1]
        # every phase is (rows + 1) x width: a spare zero row past the canvas
        rows = -(-(max(rungs[r][1] for r, _ in blocks) + 1) // stride)
        width = -(-(x_last + rungs[last][0] + 1) // stride)
        canvas = np.zeros(((rows + 1) * stride, width * stride))
        for r, x0 in blocks:
            ii = rungs[r][2]
            canvas[: ii.shape[0], x0 : x0 + ii.shape[1]] = ii
        phases = [[canvas[py::stride, px::stride].ravel() for px in range(stride)] for py in range(stride)]
        for det in detectors:
            # (rung size, first grid column, nx, ny) of every block the window fits
            grids = []
            for r, x0 in blocks:
                w, h, _ = rungs[r]
                if w >= det.window_w and h >= det.window_h:
                    nx_b = (w - det.window_w) // stride + 1
                    ny_b = (h - det.window_h) // stride + 1
                    grids.append((w, h, x0 // stride, nx_b, ny_b))
            if not grids:
                continue
            nx = max(col + nx_b for *_, col, nx_b, _ in grids)
            ny = max(ny_b for *_, ny_b in grids)
            canvas_scores = _scan_scores(det, phases, width, nx, ny, stride)
            for w, h, col, nx_b, ny_b in grids:
                scores = canvas_scores[:ny_b, col : col + nx_b]
                sx = img.width / w
                sy = img.height / h
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
    # _nms orders hits by (score, box), so their order across rungs is free
    out: list[SegmentDetection] = []
    for kind in sorted({d.kind for d in hits}):
        out.extend(_nms([d for d in hits if d.kind == kind], nms_iou))
    return out


# --- detection interchange format -------------------------------------------
# One record per line: image_id,kind,x,y,w,h,score  ('#' starts a comment)


def export_detections(dets_by_image: dict[str, list[SegmentDetection]], path) -> None:
    rows = [(i, kind_name(d.kind), *d.box.astuple(), d.score) for i, ds in dets_by_image.items() for d in ds]
    store.write_csv(path, rows, "# image_id,kind,x,y,w,h,score")


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

# v2 stores stump thresholds on raw window sums; v1 divided them by the window area
WEAK_MAGIC = "WEAKDET-MODEL v2"


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


def _stump(entries: dict[str, str], key: str, win_w: int, win_h: int, where: str) -> Stump:
    kname, x, y, w, h, thr, pol, alpha = store.entry(
        entries, key, (str, int, int, int, int, float, int, float), where
    )
    where = f"{where} {key}"
    if kname not in _HAAR:
        raise ParseError(f"{where}: unknown Haar kind {kname!r}")
    if w <= 0 or h <= 0 or x < 0 or y < 0 or x + w > win_w or y + h > win_h:
        raise ParseError(f"{where}: rect {x} {y} {w} {h} is not inside the {win_w}x{win_h} window")
    weights, split_w = _HAAR[kname]
    if (w if split_w else h) % len(weights):
        raise ParseError(f"{where}: {kname} rect {w}x{h} does not split into {len(weights)} equal parts")
    if pol not in (1, -1):
        raise ParseError(f"{where}: polarity must be 1 or -1, got {pol}")
    return Stump(HaarFeature(kname, BoxI(x, y, w, h)), thr, pol, alpha)


def load_detectors(path) -> list[BoostedDetector]:
    """Read a weak-model file, rejecting any stump the scan cannot evaluate.

    The scan reads corners without bounds checks, so every rect must lie
    inside its window and split evenly by its Haar kind. Keys other than
    window, accept_threshold, stump_count and stump0..stump{count-1} are
    rejected. Any defect raises ParseError naming the path, section and key.
    """
    detectors = []
    for name, entries in store.read_sections(path, WEAK_MAGIC).items():
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
        known = {"window", "accept_threshold", "stump_count", *(f"stump{i}" for i in range(count))}
        unknown = [key for key in entries if key not in known]
        if unknown:
            raise ParseError(f"{where} {unknown[0]}: unknown key (stump_count = {count})")
        detectors.append(BoostedDetector(kind, win_w, win_h, stumps, accept))
    return detectors
