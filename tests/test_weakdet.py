import math

import numpy as np
import pytest

from segdet import cli
from segdet.errors import DegenerateDataError, NoUsefulFeatureError, ParseError, UnknownSegmentKindError
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
    _HAAR_UNITS,
    _feature_values_on_patches,
    detect_segments,
    export_detections,
    import_detections,
    load_detectors,
    save_detectors,
    train_boosted,
)

from conftest import gray

WIN = (12, 12)  # (h, w)


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
        assert all(det.score_patch(p) >= det.accept_threshold for p in pos)
        assert all(det.score_patch(n) < det.accept_threshold for n in neg)

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
        assert det.score_patch(img) == pytest.approx(det.score_patch(shifted), abs=1e-9)


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
        uw, uh = _HAAR_UNITS[fkind]
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
    area = float(det.window_w * det.window_h)
    raw = np.zeros(len(origins))
    for st in det.stumps:
        v = _feature_values_on_patches(st.feature, stack, area)
        raw += st.alpha * (st.polarity * v < st.polarity * st.threshold)
    return dict(zip(origins, raw.tolist()))


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
            (9 + 4 * stride, 7 + 2 * stride),  # last window touches right and bottom
            (9 + 4 * stride + stride // 2, 11 + 2 * stride),
            (9, 7),  # the EYE window equals the image
            (31, 23),
        ]
        for width, height in sizes:
            img = gray(rng.uniform(0.0, 1.0, (height, width)))
            ii = integral(resize_bilinear(img, width, height)).data
            for det in dets:
                if width < det.window_w or height < det.window_h:
                    continue
                # thresholds at exact feature values, so an ulp of drift flips a stump
                origins, stack = _window_stack(det, ii, stride)
                area = float(det.window_w * det.window_h)
                for i, st in enumerate(det.stumps):
                    at = int(rng.integers(0, len(stack)))
                    thr = float(_feature_values_on_patches(st.feature, stack[at : at + 1], area)[0])
                    det.stumps[i] = Stump(st.feature, thr, st.polarity, st.alpha)
                want = _oracle_scores(det, origins, stack)
                hits = detect_segments(img, [det], [1.0], stride=stride, nms_iou=1.0)
                got = {(h.box.x, h.box.y): h.score for h in hits}
                assert all(h.box.w == det.window_w and h.box.h == det.window_h for h in hits)
                assert got.keys() == want.keys()
                assert all(got[o] == want[o] for o in want), (width, height, det.kind)
                if (width, height) == (det.window_w, det.window_h):
                    assert list(got) == [(0, 0)]


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
    assert all(back[0].score_patch(p) == det.score_patch(p) for p in pos[:5])
    save_detectors(back, tmp_path / "weak2.txt")
    assert (tmp_path / "weak2.txt").read_text() == path.read_text()
