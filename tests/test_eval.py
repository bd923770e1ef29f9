import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdet import store
from segdet.errors import EvalInvariantError, NoNegativeImagesError
from segdet.evaluate import (
    IOU_MIN,
    CurvePoint,
    ImageResult,
    check_bottleneck,
    coverage_upper_bound,
    iou,
    pr_curve,
    recall_at_precision,
    roc_auc,
    roc_curve,
    tar_at_far,
)
from segdet.imaging import BoxI
from segdet.proposals import label_proposals

from conftest import mk_proposal

boxes = st.builds(
    BoxI,
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(0, 40),
    st.integers(0, 40),
)


def pixel_count_iou(a: BoxI, b: BoxI) -> float:
    cells_a = {(x, y) for x in range(a.x, a.x2) for y in range(a.y, a.y2)}
    cells_b = {(x, y) for x in range(b.x, b.x2) for y in range(b.y, b.y2)}
    union = cells_a | cells_b
    if not union:
        return 0.0
    return len(cells_a & cells_b) / len(union)


class TestIou:
    def test_identical(self):
        assert iou(BoxI(1, 2, 5, 5), BoxI(1, 2, 5, 5)) == 1.0

    def test_disjoint(self):
        assert iou(BoxI(0, 0, 2, 2), BoxI(10, 10, 2, 2)) == 0.0

    def test_one_third(self):
        assert iou(BoxI(0, 0, 2, 1), BoxI(1, 0, 2, 1)) == pytest.approx(1 / 3)

    def test_empty_union(self):
        assert iou(BoxI(0, 0, 0, 5), BoxI(3, 3, 0, 0)) == 0.0

    @given(boxes, boxes)
    @settings(max_examples=80, deadline=None)
    def test_matches_pixel_counting_and_is_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0
        assert iou(a, b) == pixel_count_iou(a, b)


def hand_results():
    """Two truth images (found at scores .9/.4), two negatives (.5 and none)."""
    t = BoxI(0, 0, 10, 10)
    return [
        ImageResult("t1", t, (t, 0.9)),
        ImageResult("t2", t, (t, 0.4)),
        ImageResult("n1", None, (t, 0.5)),
        ImageResult("n2", None, None),
    ]


class TestRoc:
    def test_hand_sweep(self):
        pts = {p.threshold: p for p in roc_curve(hand_results())}
        assert pts[0.9].tar == 0.5 and pts[0.9].far == 0.0
        assert pts[0.4].tar == 1.0 and pts[0.4].far == 0.5
        assert tar_at_far(hand_results(), 0.01) == 0.5

    def test_perfect_scorer(self):
        t = BoxI(0, 0, 8, 8)
        results = [ImageResult(f"t{i}", t, (t, 1.0)) for i in range(5)]
        results.append(ImageResult("n", None, None))
        assert tar_at_far(results, 0.01) == 1.0
        assert roc_auc(results) == 1.0

    def test_low_iou_detections_never_count(self):
        t = BoxI(0, 0, 10, 10)
        results = [
            ImageResult("t1", t, (BoxI(8, 8, 10, 10), 0.99)),  # IoU < 0.5
            ImageResult("n1", None, None),
        ]
        assert max(p.tar for p in roc_curve(results)) == 0.0

    def test_rates_monotone_in_threshold(self, rng):
        results = random_results(rng, 60)
        pts = roc_curve(results)
        for a, b in zip(pts, pts[1:]):  # thresholds descend
            assert b.tar >= a.tar - 1e-12
            assert b.far >= a.far - 1e-12

    def test_no_negatives_error(self):
        t = BoxI(0, 0, 4, 4)
        with pytest.raises(NoNegativeImagesError):
            roc_curve([ImageResult("a", t, (t, 1.0))])


class TestPr:
    def test_hand_sweep(self):
        pts = {p.threshold: p for p in pr_curve(hand_results())}
        assert pts[0.9].precision == 1.0 and pts[0.9].recall == 0.5
        assert recall_at_precision(hand_results(), 0.99) == 0.5

    def test_all_false_positives(self):
        t = BoxI(0, 0, 10, 10)
        results = [
            ImageResult("t1", t, None),
            ImageResult("n1", None, (t, 0.7)),
            ImageResult("n2", None, (t, 0.9)),
        ]
        assert recall_at_precision(results, 0.99) == 0.0

    def test_perfect(self):
        t = BoxI(0, 0, 8, 8)
        results = [ImageResult(f"t{i}", t, (t, 1.0)) for i in range(3)]
        results.append(ImageResult("n", None, None))
        assert recall_at_precision(results, 0.99) == 1.0


def random_results(rng, n):
    out = []
    t = BoxI(0, 0, 10, 10)
    for i in range(n):
        has_truth = rng.uniform() < 0.7
        det = None
        if rng.uniform() < 0.8:
            good = rng.uniform() < 0.6
            box = t if good else BoxI(9, 9, 10, 10)
            det = (box, float(np.round(rng.uniform(), 2)))
        out.append(ImageResult(f"i{i}", t if has_truth else None, det))
    if not any(r.has_truth for r in out):
        out[0] = ImageResult("i0", t, None)
    if all(r.has_truth for r in out):
        out[0] = ImageResult("i0", None, None)
    return out


def brute_force_tar_at_far(results, far_target):
    n_truth = sum(1 for r in results if r.has_truth)
    n_neg = len(results) - n_truth
    scores = sorted({r.detection[1] for r in results if r.detection}) + [math.inf]
    best = 0.0
    for t in scores:
        tp = sum(
            1
            for r in results
            if r.has_truth and r.detection and r.detection[1] >= t and iou(r.detection[0], r.truth) >= 0.5
        )
        fa = sum(1 for r in results if not r.has_truth and r.detection and r.detection[1] >= t)
        if fa / n_neg <= far_target:
            best = max(best, tp / n_truth)
    return best


def brute_force_recall_at_precision(results, p_target):
    n_truth = sum(1 for r in results if r.has_truth)
    scores = sorted({r.detection[1] for r in results if r.detection}) + [math.inf]
    best = 0.0
    for t in scores:
        tp = fp = 0
        for r in results:
            if r.detection and r.detection[1] >= t:
                if r.has_truth and iou(r.detection[0], r.truth) >= 0.5:
                    tp += 1
                else:
                    fp += 1
        if tp + fp == 0:
            continue
        if tp / (tp + fp) >= p_target:
            best = max(best, tp / n_truth)
    return best


def test_sweep_matches_brute_force_oracle(rng):
    for trial in range(25):
        results = random_results(rng, int(rng.integers(5, 60)))
        assert tar_at_far(results, 0.01) == brute_force_tar_at_far(results, 0.01)
        assert tar_at_far(results, 0.25) == brute_force_tar_at_far(results, 0.25)
        assert recall_at_precision(results, 0.99) == brute_force_recall_at_precision(results, 0.99)
        assert recall_at_precision(results, 0.5) == brute_force_recall_at_precision(results, 0.5)


class TestCoverage:
    def test_truth_covered_by_itself(self):
        t = BoxI(0, 0, 10, 10)
        cov, _ = coverage_upper_bound({"a": [t]}, {"a": t})
        assert cov == 1.0

    def test_no_proposals(self):
        cov, table = coverage_upper_bound({}, {"a": BoxI(0, 0, 5, 5)})
        assert cov == 0.0
        assert len(table) == 9

    def test_two_of_three_covered(self):
        t = BoxI(0, 0, 10, 10)
        good = BoxI(0, 0, 10, 14)  # IoU 10/14 ~ 0.71
        bad = BoxI(0, 0, 40, 40)  # IoU ~ 0.06
        proposals = {"a": [good], "b": [good], "c": [bad]}
        truths = {"a": t, "b": t, "c": t}
        cov, _ = coverage_upper_bound(proposals, truths, 0.5)
        assert cov == pytest.approx(2 / 3)

    def test_table_fractions_complementary(self, rng):
        t = BoxI(0, 0, 10, 10)
        proposals = {
            "a": [BoxI(int(rng.integers(0, 8)), 0, 10, 10) for _ in range(10)],
        }
        _, table = coverage_upper_bound(proposals, {"a": t})
        for ratio, pos, neg in table:
            assert pos + neg == pytest.approx(1.0)

    def test_bottleneck_inequality_on_derived_detections(self, rng):
        # detections drawn from the proposal set can never beat coverage
        t = BoxI(0, 0, 10, 10)
        proposals = {}
        truths = {}
        results = []
        for i in range(30):
            img = f"i{i}"
            has_truth = i % 3 != 0
            truths[img] = t if has_truth else None
            plist = [
                BoxI(int(rng.integers(0, 12)), int(rng.integers(0, 6)), 10, 10) for _ in range(4)
            ]
            proposals[img] = plist
            pick = plist[int(rng.integers(0, 4))]
            results.append(ImageResult(img, truths[img], (pick, float(rng.uniform()))))
        cov, _ = coverage_upper_bound(proposals, truths, 0.5)
        pts = roc_curve(results)
        assert max(p.tar for p in pts) <= cov + 1e-9
        check_bottleneck(pts, cov)

    def test_check_bottleneck_raises_on_violation(self):
        pts = [CurvePoint(0.5, 0.8, 0.0, 1.0, 0.8)]
        with pytest.raises(EvalInvariantError):
            check_bottleneck(pts, 0.5)


@pytest.mark.parametrize("h, match", [(5, True), (4, False)])
def test_one_overlap_rule(h, match):
    """TAR, proposal labels and coverage switch at the same IoU, so the
    coverage bound caps TAR whatever the overlap."""
    truth, box = BoxI(0, 0, 10, 10), BoxI(0, 0, 10, h)
    assert (iou(box, truth) >= IOU_MIN) == match
    results = [ImageResult("a", truth, (box, 0.9)), ImageResult("b", None, None)]
    assert max(p.tar for p in roc_curve(results)) == (1.0 if match else 0.0)
    [labeled] = label_proposals([mk_proposal([0], box=box, image_id="a")], truth)
    assert labeled.is_face == match
    assert coverage_upper_bound({"a": [box]}, {"a": truth, "b": None})[0] == (1.0 if match else 0.0)


def test_csv_writers(tmp_path):
    pts = [CurvePoint(math.inf, 0.0, 0.0, 1.0, 0.0), CurvePoint(0.5, 0.75, 0.25, 0.8, 0.75)]
    rows = [(p.threshold, p.tar, p.far, p.precision, p.recall) for p in pts]
    store.write_csv(tmp_path / "curve.csv", rows, "threshold,tar,far,precision,recall")
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "threshold,tar,far,precision,recall"
    assert lines[2].startswith("0.5,0.75,0.25,0.8,0.75")
    store.write_csv(tmp_path / "summary.csv", [("tar_at_far_0.01", 0.5)], "metric,value")
    assert (tmp_path / "summary.csv").read_text() == "metric,value\ntar_at_far_0.01,0.5\n"
