import math

import numpy as np
import pytest

from segdet import cli, weakdet
from segdet.errors import (
    DegenerateDataError,
    ModelVersionMismatchError,
    NoUsefulFeatureError,
    ParseError,
    UnknownSegmentKindError,
)
from segdet.evaluate import iou
from segdet.imaging import BoxI, integral, resize_bilinear
from segdet.segments import SegmentDetection, SegmentKind
from segdet.weakdet import (
    HAAR_THREE_H,
    HAAR_TWO_H,
    HAAR_TWO_V,
    BoostedDetector,
    HaarFeature,
    Stump,
    _HAAR,
    _canvases,
    _feature_values_on_patches,
    _sample_features,
    detect_segments,
    export_detections,
    import_detections,
    load_detectors,
    save_detectors,
    train_boosted,
)

from conftest import gray

WIN = (12, 12)  # (h, w)


def _patch_feature_values(feature, ii_stack):
    """One feature's raw window sum on every patch of a stacked integral
    array, one patch-sized gather per corner: the reference for the table that
    `_feature_values_on_patches` builds and for the scan's float order."""
    v = np.zeros(ii_stack.shape[0], dtype=np.float64)
    for wgt, x, y, w, h in feature.rects():
        v += wgt * (
            ii_stack[:, y + h, x + w]
            - ii_stack[:, y, x + w]
            - ii_stack[:, y + h, x]
            + ii_stack[:, y, x]
        )
    return v


def score_patch(det, patch):
    """Raw boosted score of one window-sized patch."""
    assert patch.data.shape == (det.window_h, det.window_w)
    ii = integral(patch).data[None, :, :]
    score = 0.0
    for s in det.stumps:
        v = _patch_feature_values(s.feature, ii)[0]
        if s.polarity * v < s.polarity * s.threshold:
            score += s.alpha
    return score


def left_bright_patch(rng, flip=False):
    a = rng.uniform(0.0, 0.15, WIN)
    half = WIN[1] // 2
    if flip:
        a[:, half:] += 0.8
    else:
        a[:, :half] += 0.8
    return gray(np.clip(a, 0, 1))


def flat_patch(rng):
    return gray(rng.uniform(0.4, 0.5, WIN))


@pytest.fixture(scope="module")
def simple_detector():
    rng = np.random.default_rng(5)
    pos = [left_bright_patch(rng) for _ in range(25)]
    neg = [flat_patch(rng) for _ in range(15)] + [left_bright_patch(rng, flip=True) for _ in range(10)]
    return train_boosted(SegmentKind.L12, pos, neg, rounds=12, seed=3, pool_size=400), pos, neg


class TestTrainBoosted:
    def test_alpha_closed_form(self):
        # four patches, labels arranged so the best stump errs on exactly one:
        # weighted error 1/4 -> alpha = ln(3)/2
        rng = np.random.default_rng(0)
        p = left_bright_patch(rng)
        pos = [p, left_bright_patch(rng)]
        neg = [flat_patch(rng), gray(p.data.copy())]
        det = train_boosted(SegmentKind.L12, pos, neg, rounds=1, seed=1, pool_size=400)
        assert det.stumps[0].alpha == pytest.approx(0.5 * math.log(3.0), rel=1e-9)

    def test_separable_data_perfect_after_one_round(self, simple_detector):
        rng = np.random.default_rng(9)
        pos = [left_bright_patch(rng) for _ in range(12)]
        neg = [left_bright_patch(rng, flip=True) for _ in range(12)]
        det = train_boosted(SegmentKind.L12, pos, neg, rounds=1, seed=2, pool_size=400)
        assert all(score_patch(det, p) >= det.accept_threshold for p in pos)
        assert all(score_patch(det, n) < det.accept_threshold for n in neg)

    def test_identical_patches_cannot_be_split(self):
        rng = np.random.default_rng(1)
        patch = left_bright_patch(rng)
        same = [gray(patch.data.copy()) for _ in range(20)]
        with pytest.raises(NoUsefulFeatureError):
            train_boosted(SegmentKind.L12, same[:10], same[10:], rounds=5, seed=0, pool_size=200)

    def test_empty_class_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DegenerateDataError):
            train_boosted(SegmentKind.EYE, [], [flat_patch(rng)], rounds=3)

    def test_alphas_positive(self, simple_detector):
        det, _, _ = simple_detector
        assert all(s.alpha > 0 for s in det.stumps)

    def test_score_invariant_to_constant_shift(self, simple_detector):
        det, pos, _ = simple_detector
        rng = np.random.default_rng(3)
        img = gray(rng.uniform(0.1, 0.6, WIN))
        shifted = gray(np.clip(img.data + 0.3, 0, 1))
        assert score_patch(det, img) == pytest.approx(score_patch(det, shifted), abs=1e-9)


def _reference_train_boosted(kind, positives, negatives, rounds, seed=0, pool_size=2000):
    """Discrete AdaBoost with whole-table passes per round over a (feature,
    position) layout: np.cumsum prefix sums, np.where masks and a flat argmin.
    The oracle for `train_boosted`, which must pick the same stumps."""
    win_h, win_w = positives[0].data.shape
    rng = np.random.Generator(np.random.PCG64(seed))
    features = _sample_features(rng, win_w, win_h, pool_size)
    patches = positives + negatives
    ii_stack = np.stack([integral(p).data for p in patches])
    n = len(patches)
    y = np.zeros(n, dtype=np.float64)
    y[: len(positives)] = 1.0

    values = np.empty((len(features), n), dtype=np.float64)
    for fi, feat in enumerate(features):
        values[fi] = _patch_feature_values(feat, ii_stack)
    order = np.argsort(values, axis=1, kind="stable")
    v_sorted = np.take_along_axis(values, order, axis=1)
    y_sorted = np.take_along_axis(np.broadcast_to(y, values.shape), order, axis=1)
    valid = np.ones_like(v_sorted, dtype=bool)
    valid[:, :-1] = v_sorted[:, :-1] < v_sorted[:, 1:]

    weights = np.full(n, 1.0 / n, dtype=np.float64)
    available = np.ones((len(features), 1), dtype=bool)
    eps_floor = 1.0 / (2.0 * n)
    stumps = []
    for _ in range(min(rounds, len(features))):
        w_sorted = np.take_along_axis(np.broadcast_to(weights, values.shape), order, axis=1)
        cpos = np.cumsum(w_sorted * y_sorted, axis=1)
        cneg = np.cumsum(w_sorted * (1.0 - y_sorted), axis=1)
        wpos = cpos[:, -1:]
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
        raise NoUsefulFeatureError("no stump beat chance")
    det = BoostedDetector(kind, win_w, win_h, stumps)
    det.accept_threshold = 0.5 * det.alpha_sum()
    return det



def _column_patches(rng, count, bright_left):
    """8x8 patches constant down each column, in steps of 1/4: feature values
    are exact and repeat, and two-rect-vertical features are all zero."""
    cols = rng.integers(0, 5, (count, 8)) / 4.0
    if bright_left:
        cols[:, :4] = np.maximum(cols[:, :4], 0.5)
    return [gray(np.repeat(c[None, :], 8, axis=0)) for c in cols]


def _fewest_mistakes(row, n_pos):
    """Fewest misclassified patches of any threshold stump, either polarity,
    on one feature's values (positives first)."""
    best = len(row)
    for cut in set(row):
        wrong = sum((v <= cut) != (i < n_pos) for i, v in enumerate(row))
        best = min(best, wrong, len(row) - wrong)
    return best


def _booster_case(name, seed):
    """(positives, negatives, rounds, pool_size) of one oracle case."""
    rng = np.random.default_rng([sum(map(ord, name)), seed])
    if name == "repeated_values":
        pos = _column_patches(rng, 14, True)
        neg = _column_patches(rng, 14, False)
        return pos + pos[:3], neg + pos[3:5], 16, 150
    if name == "rounds_above_pool":
        return [flat_patch(rng) for _ in range(9)], [flat_patch(rng) for _ in range(11)], 20, 6
    if name == "feature_tie":
        # sixteen equal weights: round one's errors are exact sixteenths, so
        # features reach the best one at different sorted positions
        return [flat_patch(rng) for _ in range(8)], [flat_patch(rng) for _ in range(8)], 4, 300
    if name == "polarity_tie":
        return [flat_patch(rng)], [flat_patch(rng)], 3, 50
    if name == "halt":
        # constant patches: every feature is 0, so the one usable split puts
        # all patches on one side; after it the classes weigh the same
        return [gray(np.full(WIN, 0.5))] * 3, [gray(np.full(WIN, 0.25))] * 5, 30, 100
    if name == "graded":
        pos = [left_bright_patch(rng) for _ in range(20)]
        neg = [flat_patch(rng) for _ in range(14)] + [left_bright_patch(rng, flip=True) for _ in range(8)]
        return pos, neg, 24, 400
    raise KeyError(name)


class TestBoosterOracle:
    """`train_boosted` picks the reference's stumps, bit for bit."""

    @pytest.mark.parametrize(
        "name", ["repeated_values", "rounds_above_pool", "feature_tie", "polarity_tie", "halt", "graded"]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_stumps_as_reference(self, name, seed):
        pos, neg, rounds, pool_size = _booster_case(name, seed)
        want = _reference_train_boosted(SegmentKind.NOSE, pos, neg, rounds, seed, pool_size)
        got = train_boosted(SegmentKind.NOSE, pos, neg, rounds, seed, pool_size)
        assert got.stumps == want.stumps
        assert got.accept_threshold == want.accept_threshold
        # what each case is there to exercise
        win_h, win_w = pos[0].data.shape
        features = _sample_features(np.random.Generator(np.random.PCG64(seed)), win_w, win_h, pool_size)
        ii = np.stack([integral(p).data for p in pos + neg])
        table = [tuple(_patch_feature_values(f, ii).tolist()) for f in features]
        if name == "repeated_values":
            assert any(len(set(row)) < len(row) for row in table)
        if name == "rounds_above_pool":
            assert len(features) < rounds and len(got.stumps) <= len(features)
        if name == "feature_tie":
            mistakes = [_fewest_mistakes(row, len(pos)) for row in table]
            assert mistakes.count(min(mistakes)) >= 2
        if name == "polarity_tie":
            # each polarity has a feature that splits the pair perfectly
            assert any(r[0] < r[1] for r in table) and any(r[0] > r[1] for r in table)
            assert got.stumps[0].polarity == 1
        if name == "halt":
            assert len(got.stumps) < min(rounds, len(features))

    def test_no_stump_raises_like_reference(self):
        rng = np.random.default_rng(1)
        patch = left_bright_patch(rng)
        same = [gray(patch.data.copy()) for _ in range(6)]
        with pytest.raises(NoUsefulFeatureError):
            _reference_train_boosted(SegmentKind.L12, same[:3], same[3:], 5, 0, 100)
        with pytest.raises(NoUsefulFeatureError):
            train_boosted(SegmentKind.L12, same[:3], same[3:], 5, 0, 100)

    def test_feature_table_matches_per_feature_reference(self):
        rng = np.random.default_rng(12)
        ii = np.stack([integral(gray(rng.uniform(0, 1, (9, 13)))).data for _ in range(17)])
        features = _sample_features(np.random.Generator(np.random.PCG64(4)), 13, 9, 300)
        assert {f.kind for f in features} == {HAAR_TWO_H, HAAR_TWO_V, HAAR_THREE_H}
        table = _feature_values_on_patches(features, ii)
        assert table.shape == (17, len(features))
        for fi, f in enumerate(features):
            assert table[:, fi].tolist() == _patch_feature_values(f, ii).tolist()


class TestDetectSegments:
    def test_blank_image_has_no_hits(self, simple_detector):
        det, _, _ = simple_detector
        blank = gray(np.full((60, 80), 0.45))
        hits = detect_segments(blank, [det], [1.0, 1.3], stride=4)
        assert len(hits) <= 3

    def test_planted_pattern_found(self, simple_detector):
        det, _, _ = simple_detector
        rng = np.random.default_rng(4)
        img = np.full((60, 80), 0.45)
        img[20:32, 30:36] = 0.95  # bright left half of a 12x12 window
        img[20:32, 36:42] = 0.05
        img += rng.normal(0, 0.01, img.shape)
        hits = detect_segments(gray(np.clip(img, 0, 1)), [det], [1.0, 1.25], stride=2)
        planted = BoxI(30, 20, 12, 12)
        assert any(iou(h.box, planted) >= 0.5 for h in hits)

    def test_two_patterns_form_two_groups(self, simple_detector):
        det, _, _ = simple_detector
        img = np.full((60, 120), 0.45)
        for x0 in (10, 90):
            img[24:36, x0 : x0 + 6] = 0.95
            img[24:36, x0 + 6 : x0 + 12] = 0.05
        hits = detect_segments(gray(img), [det], [1.0], stride=2)
        xs = sorted(h.box.x for h in hits)
        assert xs and xs[0] < 40 and xs[-1] > 70
        assert all(x < 40 or x > 70 for x in xs)

    def test_nms_leaves_no_overlapping_same_kind_pair(self, simple_detector):
        det, _, _ = simple_detector
        rng = np.random.default_rng(8)
        img = np.full((60, 80), 0.45)
        img[20:32, 30:36] = 0.95
        img[20:32, 36:42] = 0.05
        img += rng.normal(0, 0.02, img.shape)
        hits = detect_segments(gray(np.clip(img, 0, 1)), [det], [1.0, 1.25, 1.6], stride=2)
        for i, a in enumerate(hits):
            for b in hits[i + 1 :]:
                if a.kind == b.kind:
                    assert iou(a.box, b.box) <= 0.5

    def test_scale_ladder_validated(self, simple_detector):
        det, _, _ = simple_detector
        with pytest.raises(ValueError):
            detect_segments(gray(np.zeros((30, 30))), [det], [])
        with pytest.raises(ValueError):
            detect_segments(gray(np.zeros((30, 30))), [det], [1.5, 1.2])


def _exactness_detector(kind, win_w, win_h, rng):
    """Stumps of every Haar kind, rects touching each window edge, alphas with
    no exact binary sum; thresholds are filled in from the oracle later."""
    feats = [
        HaarFeature(HAAR_TWO_H, BoxI(0, 0, win_w - win_w % 2, win_h)),
        HaarFeature(HAAR_TWO_V, BoxI(0, 0, win_w, win_h - win_h % 2)),
        HaarFeature(HAAR_THREE_H, BoxI(win_w % 3, win_h - 3, win_w - win_w % 3, 3)),
        HaarFeature(HAAR_TWO_H, BoxI(win_w - 2, win_h - 2, 2, 2)),
        HaarFeature(HAAR_TWO_V, BoxI(win_w - 1, 1, 1, 4)),
    ]
    for _ in range(19):
        fkind = (HAAR_TWO_H, HAAR_TWO_V, HAAR_THREE_H)[int(rng.integers(0, 3))]
        weights, split_w = _HAAR[fkind]
        uw, uh = (len(weights), 1) if split_w else (1, len(weights))
        w = uw * int(rng.integers(1, win_w // uw + 1))
        h = uh * int(rng.integers(1, win_h // uh + 1))
        x = int(rng.integers(0, win_w - w + 1))
        y = int(rng.integers(0, win_h - h + 1))
        feats.append(HaarFeature(fkind, BoxI(x, y, w, h)))
    stumps = [Stump(f, 0.0, int(rng.choice([-1, 1])), float(rng.uniform(0.1, 1.0))) for f in feats]
    return BoostedDetector(kind, win_w, win_h, stumps, accept_threshold=0.0)


def _window_stack(det, ii, stride):
    """Every window origin on the scan grid, and its patch slice of `ii`."""
    origins = [
        (x, y)
        for y in range(0, ii.shape[0] - det.window_h, stride)
        for x in range(0, ii.shape[1] - det.window_w, stride)
    ]
    stack = np.stack([ii[y : y + det.window_h + 1, x : x + det.window_w + 1] for x, y in origins])
    return origins, stack


def _oracle_scores(det, origins, stack):
    """Raw score per window origin: per-patch feature values, alphas in stump order."""
    raw = np.zeros(len(origins))
    for st in det.stumps:
        v = _patch_feature_values(st.feature, stack)
        raw += st.alpha * (st.polarity * v < st.polarity * st.threshold)
    return dict(zip(origins, raw.tolist()))


def _hit_keys(hits):
    return sorted((int(h.kind), h.box.x, h.box.y, h.box.w, h.box.h, h.score) for h in hits)


def _ladder_hits(img, dets, scales, stride):
    """Every window of the whole ladder (accept threshold 0, `_nms` patched out)."""
    return _hit_keys(detect_segments(img, dets, scales, stride=stride, nms_iou=1.0))


def _single_rung_hits(img, dets, scales, stride):
    """The same, from one single-rung scan per rung."""
    hits = []
    for s in scales:
        hits.extend(detect_segments(img, dets, [s], stride=stride, nms_iou=1.0))
    return _hit_keys(hits)


class TestScanExactness:
    """The scan's raw scores equal the per-patch reference bit for bit."""

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
    def test_scores_equal_patch_oracle(self, stride):
        rng = np.random.default_rng(100 + stride)
        dets = [
            _exactness_detector(SegmentKind.EYE, 9, 7, rng),
            _exactness_detector(SegmentKind.NOSE, 6, 10, rng),
        ]
        sizes = [
            # the last window touches right and bottom: its far corner is the
            # last sample of its phase before the spare row
            (9 + 4 * stride, 7 + 2 * stride),
            (6 + 3 * stride, 10 + 2 * stride),  # the same for NOSE
            (9 + 4 * stride + stride // 2, 11 + 2 * stride),
            (9, 7),  # the EYE window equals the image
            (31, 23),
            # w + 1 and h + 1 not multiples of strides 2-5: the canvas is padded
            # and the wrapped reads of dropped columns cross phase rows
            (10 + 4 * stride, 12 + 6 * stride),
        ]
        for width, height in sizes:
            img = gray(rng.uniform(0.0, 1.0, (height, width)))
            ii = integral(resize_bilinear(img, width, height)).data
            for det in dets:
                if width < det.window_w or height < det.window_h:
                    continue
                # thresholds at exact feature values, so an ulp of drift flips a stump
                origins, stack = _window_stack(det, ii, stride)
                for i, st in enumerate(det.stumps):
                    at = int(rng.integers(0, len(stack)))
                    thr = float(_patch_feature_values(st.feature, stack[at : at + 1])[0])
                    det.stumps[i] = Stump(st.feature, thr, st.polarity, st.alpha)
                want = _oracle_scores(det, origins, stack)
                hits = detect_segments(img, [det], [1.0], stride=stride, nms_iou=1.0)
                got = {(h.box.x, h.box.y): h.score for h in hits}
                assert all(h.box.w == det.window_w and h.box.h == det.window_h for h in hits)
                assert got.keys() == want.keys()
                assert all(got[o] == want[o] for o in want), (width, height, det.kind)
                if (width, height) == (det.window_w, det.window_h):
                    assert list(got) == [(0, 0)]

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
    def test_abutting_ladder_equals_single_rungs(self, monkeypatch, stride):
        monkeypatch.setattr(weakdet, "_nms", lambda dets, iou_max: dets)
        rng = np.random.default_rng(300 + stride)
        dets = [
            _exactness_detector(SegmentKind.EYE, 9, 7, rng),
            _exactness_detector(SegmentKind.NOSE, 6, 10, rng),
        ]
        # w + 1 a multiple of the stride: each block starts where the last ends;
        # the top rung is narrower than the Eye window
        widths = [-(-target // stride) * stride - 1 for target in (45, 32, 20)] + [7]
        img = gray(rng.uniform(0.0, 1.0, (60, widths[0])))
        scales = [widths[0] / w for w in widths]
        sizes = [(max(1, int(round(img.width / s))), max(1, int(round(img.height / s)))) for s in scales]
        assert [w for w, _ in sizes] == widths
        (blocks,) = _canvases(sizes, stride)
        assert all(x1 == x0 + w + 1 for (_, x0), (_, x1), (w, _) in zip(blocks, blocks[1:], sizes))
        assert _ladder_hits(img, dets, scales, stride) == _single_rung_hits(img, dets, scales, stride)

    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 5])
    def test_padded_canvas_equals_single_rungs(self, monkeypatch, stride):
        monkeypatch.setattr(weakdet, "_nms", lambda dets, iou_max: dets)
        rng = np.random.default_rng(500 + stride)
        dets = [
            _exactness_detector(SegmentKind.EYE, 9, 7, rng),
            _exactness_detector(SegmentKind.NOSE, 6, 10, rng),
        ]
        img = gray(rng.uniform(0.0, 1.0, (46, 52)))
        scales = [1.0, 1.3, 1.9, 2.9]
        sizes = [(max(1, int(round(img.width / s))), max(1, int(round(img.height / s)))) for s in scales]
        (blocks,) = _canvases(sizes, stride)
        last, x_last = blocks[-1]
        # canvas width x_last + 19 and height 47 are no multiple of 2, 3, 4 or 5
        assert sizes[last][0] + 1 == 19 and max(h for _, h in sizes) + 1 == 47
        assert _ladder_hits(img, dets, scales, stride) == _single_rung_hits(img, dets, scales, stride)

    def test_two_canvas_ladder_equals_single_rungs(self, monkeypatch):
        monkeypatch.setattr(weakdet, "_nms", lambda dets, iou_max: dets)
        rng = np.random.default_rng(400)
        dets = [
            _exactness_detector(SegmentKind.EYE, 9, 7, rng),
            _exactness_detector(SegmentKind.NOSE, 6, 10, rng),
        ]
        img = gray(rng.uniform(0.0, 1.0, (240, 320)))
        scales = [1.2**i for i in range(6)]
        sizes = [(max(1, int(round(img.width / s))), max(1, int(round(img.height / s)))) for s in scales]
        assert [[r for r, _ in c] for c in _canvases(sizes, 4)] == [[0, 1], [2, 3, 4, 5]]
        assert _ladder_hits(img, dets, scales, 4) == _single_rung_hits(img, dets, scales, 4)

    def test_default_frame_is_one_canvas(self):
        sizes = [(int(round(160 / 1.2**i)), int(round(120 / 1.2**i))) for i in range(6)]
        (blocks,) = _canvases(sizes, 4)
        assert [r for r, _ in blocks] == list(range(6))
        assert all(x0 % 4 == 0 for _, x0 in blocks)


def _write_weak_model(tmp_path):
    det = BoostedDetector(
        SegmentKind.EYE,
        12,
        8,
        [
            Stump(HaarFeature(HAAR_TWO_H, BoxI(0, 0, 12, 8)), 0.25, 1, 0.5),
            Stump(HaarFeature(HAAR_THREE_H, BoxI(3, 2, 9, 6)), -0.125, -1, 0.75),
        ],
        accept_threshold=0.625,
    )
    models = tmp_path / "models"
    models.mkdir(exist_ok=True)
    save_detectors([det], models / "weakdet.txt")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n")
    return cfg, models / "weakdet.txt"


_BAD_WEAK_LINES = {
    "missing window": ("window = 12 8", None),
    "missing accept_threshold": ("accept_threshold = 0.625", None),
    "missing stump_count": ("stump_count = 2", None),
    "missing stump1": ("stump1 = ", None),
    "window field count": ("window = 12 8", "window = 12 8 1"),
    "stump field count": ("stump0 = ", "stump0 = two-rect-horizontal 0 0 12 8 0.25 1"),
    "unknown haar kind": ("stump0 = ", "stump0 = four-rect 0 0 12 8 0.25 1 0.5"),
    "zero window": ("window = 12 8", "window = 0 8"),
    "negative window": ("window = 12 8", "window = 12 -8"),
    "rect past right edge": ("stump0 = ", "stump0 = two-rect-horizontal 2 0 12 8 0.25 1 0.5"),
    "rect past bottom edge": ("stump0 = ", "stump0 = two-rect-horizontal 0 1 12 8 0.25 1 0.5"),
    "rect negative origin": ("stump0 = ", "stump0 = two-rect-horizontal -2 0 12 8 0.25 1 0.5"),
    "rect empty": ("stump0 = ", "stump0 = two-rect-horizontal 0 0 0 8 0.25 1 0.5"),
    "rect not divisible": ("stump1 = ", "stump1 = three-rect-horizontal 3 2 8 6 -0.125 -1 0.75"),
    "vertical not divisible": ("stump0 = ", "stump0 = two-rect-vertical 0 0 12 7 0.25 1 0.5"),
    "non-integer rect": ("stump0 = ", "stump0 = two-rect-horizontal 0.5 0 12 8 0.25 1 0.5"),
    "nan threshold": ("stump0 = ", "stump0 = two-rect-horizontal 0 0 12 8 nan 1 0.5"),
    "infinite alpha": ("stump0 = ", "stump0 = two-rect-horizontal 0 0 12 8 0.25 1 inf"),
    "infinite accept_threshold": ("accept_threshold = 0.625", "accept_threshold = -inf"),
    "zero polarity": ("stump0 = ", "stump0 = two-rect-horizontal 0 0 12 8 0.25 0 0.5"),
    "polarity two": ("stump0 = ", "stump0 = two-rect-horizontal 0 0 12 8 0.25 2 0.5"),
    "negative stump_count": ("stump_count = 2", "stump_count = -1"),
}


@pytest.mark.parametrize("case", sorted(_BAD_WEAK_LINES))
def test_malformed_weak_model_exits_4(tmp_path, capsys, case):
    cfg, model = _write_weak_model(tmp_path)
    prefix, replacement = _BAD_WEAK_LINES[case]
    lines = model.read_text().splitlines()
    (at,) = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    key = lines[at].split(" = ")[0]
    if replacement is None:
        del lines[at]
    else:
        lines[at] = replacement
    model.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=key):
        load_detectors(model)
    assert cli.main(["detect-segments", "--config", str(cfg), "--split", "train"]) == 4
    err = capsys.readouterr().err
    assert str(model) in err and key in err and "Traceback" not in err


def test_unknown_segment_kind_section_exits_4(tmp_path):
    cfg, model = _write_weak_model(tmp_path)
    model.write_text(model.read_text().replace("kind=Eye", "kind=Ear"))
    with pytest.raises(UnknownSegmentKindError, match="Ear"):
        load_detectors(model)
    assert cli.main(["detect-segments", "--config", str(cfg), "--split", "train"]) == 4


def test_v1_model_is_rejected_exits_4(tmp_path, capsys):
    # v1 stored thresholds divided by the window area; the scan compares raw
    # window sums, so a v1 file must not load
    cfg, model = _write_weak_model(tmp_path)
    text = model.read_text()
    assert text.startswith("WEAKDET-MODEL v2\n")
    model.write_text(text.replace("WEAKDET-MODEL v2", "WEAKDET-MODEL v1", 1))
    with pytest.raises(ModelVersionMismatchError, match="expected magic 'WEAKDET-MODEL v2', found 'WEAKDET-MODEL v1'"):
        load_detectors(model)
    assert cli.main(["detect-segments", "--config", str(cfg), "--split", "train"]) == 4
    err = capsys.readouterr().err
    assert str(model) in err and "WEAKDET-MODEL v1" in err and "Traceback" not in err


def test_valid_hand_written_model_loads(tmp_path):
    _, model = _write_weak_model(tmp_path)
    (det,) = load_detectors(model)
    assert det.window_w == 12 and det.window_h == 8 and len(det.stumps) == 2
    assert det.stumps[1].feature.kind == HAAR_THREE_H and det.stumps[1].polarity == -1


class TestInterchange:
    def test_single_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# comment\nimg1,Nose,3,4,10,12,0.5\n")
        out = import_detections(p)
        assert list(out) == ["img1"]
        det = out["img1"][0]
        assert det.kind is SegmentKind.NOSE
        assert det.box == BoxI(3, 4, 10, 12)
        assert det.score == 0.5

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("img1,XX,3,4,10,12,0.5\n")
        with pytest.raises(UnknownSegmentKindError):
            import_detections(p)

    def test_bad_field_count_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("img1,Nose,3,4\n")
        with pytest.raises(ParseError, match=":1"):
            import_detections(p)

    def test_nonpositive_box_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("img1,Nose,3,4,0,12,0.5\n")
        with pytest.raises(ParseError):
            import_detections(p)

    def test_round_trip_identity(self, tmp_path):
        dets = {
            "a": [
                SegmentDetection(SegmentKind.EYE, BoxI(1, 2, 3, 4), 0.125),
                SegmentDetection(SegmentKind.L12, BoxI(5, 6, 7, 8), -1.5),
            ],
            "b": [SegmentDetection(SegmentKind.NOSE, BoxI(0, 0, 2, 2), 3.25)],
        }
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        export_detections(dets, p1)
        back = import_detections(p1)
        assert back == dets
        export_detections(back, p2)
        assert p1.read_text() == p2.read_text()


def test_detector_model_round_trip(tmp_path, simple_detector):
    det, pos, _ = simple_detector
    path = tmp_path / "weak.txt"
    save_detectors([det], path)
    back = load_detectors(path)
    assert len(back) == 1 and back[0].kind == det.kind
    assert back[0].accept_threshold == det.accept_threshold
    assert all(score_patch(back[0], p) == score_patch(det, p) for p in pos[:5])
    save_detectors(back, tmp_path / "weak2.txt")
    assert (tmp_path / "weak2.txt").read_text() == path.read_text()
