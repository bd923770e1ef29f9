import itertools

import pytest

from segdet.cli import proposals_for_image
from segdet.config import RunConfig
from segdet.evaluate import iou
from segdet.imaging import BoxI, union_box
from segdet.proposals import (
    cluster_detections,
    dedupe_clusters,
    export_proposals,
    generate_proposals,
    import_proposals,
    label_proposals,
    segment_rows,
)
from segdet.segments import ALL_KINDS, SegmentDetection, SegmentKind, default_layout

from conftest import count_subsets, mk_proposal

LAYOUT = default_layout("toy")


def det_for_face(face: BoxI, kind: SegmentKind, score=1.0) -> SegmentDetection:
    return SegmentDetection(kind, LAYOUT.segment_box(face, kind), score)


def cluster_of(face: BoxI, kinds, scores=None, **kw) -> list:
    scores = scores or [1.0] * len(kinds)
    dets = [det_for_face(face, k, s) for k, s in zip(kinds, scores)]
    return cluster_detections(dets, LAYOUT, **kw)


class TestClustering:
    def test_identical_centers_one_cluster(self):
        face = BoxI(20, 20, 80, 80)
        clusters = cluster_of(face, [SegmentKind.L12, SegmentKind.R12])
        assert len(clusters) == 1
        assert len(clusters[0].members) == 2

    def test_far_apart_detections_two_clusters(self):
        d1 = det_for_face(BoxI(0, 0, 60, 60), SegmentKind.L12)
        d2 = det_for_face(BoxI(1000, 1000, 60, 60), SegmentKind.L12)
        assert len(cluster_detections([d1, d2], LAYOUT)) == 2

    def test_two_near_one_far(self):
        near = BoxI(10, 10, 80, 80)
        far = BoxI(500, 10, 80, 80)
        dets = [
            det_for_face(near, SegmentKind.L12, 3.0),
            det_for_face(near, SegmentKind.NOSE, 2.0),
            det_for_face(far, SegmentKind.EYE, 1.0),
        ]
        clusters = cluster_detections(dets, LAYOUT)
        assert sorted(len(c.members) for c in clusters) == [1, 2]

    def test_duplicate_kind_keeps_highest_score(self):
        face = BoxI(20, 20, 80, 80)
        strong = det_for_face(face, SegmentKind.L12, 5.0)
        weak = SegmentDetection(SegmentKind.L12, BoxI(21, 20, 40, 80), 1.0)
        clusters = cluster_detections([weak, strong], LAYOUT)
        assert len(clusters) == 1
        members = clusters[0].members
        assert len(members) == 1 and members[0].score == 5.0

    def test_center_is_mean_of_members(self):
        face = BoxI(20, 20, 80, 80)
        clusters = cluster_of(face, [SegmentKind.L12, SegmentKind.NOSE, SegmentKind.U12])
        c = clusters[0]
        from segdet.segments import implied_face_center

        xs = [implied_face_center(m, LAYOUT)[0] for m in c.members]
        ys = [implied_face_center(m, LAYOUT)[1] for m in c.members]
        assert c.center[0] == pytest.approx(sum(xs) / len(xs))
        assert c.center[1] == pytest.approx(sum(ys) / len(ys))

    def test_box_is_union_of_member_boxes(self):
        face = BoxI(12, 8, 90, 90)
        clusters = cluster_of(face, [SegmentKind.UL12, SegmentKind.R12], box_mode="segments")
        c = clusters[0]
        assert c.box == union_box(m.box for m in c.members)

    def test_implied_box_mode(self):
        from segdet.segments import implied_face_box

        face = BoxI(12, 8, 90, 90)
        kinds = [SegmentKind.UL12, SegmentKind.R12]
        dets = [det_for_face(face, k) for k in kinds]
        c = cluster_detections(dets, LAYOUT, box_mode="implied")[0]
        implied = [implied_face_box(m, LAYOUT) for m in c.members]
        assert c.box.x == round(sum(b.x for b in implied) / 2)
        assert c.box.w == round(sum(b.w for b in implied) / 2)
        # near-exact inversion: the implied-mode box tracks the source face
        assert abs(c.box.x - face.x) <= 1 and abs(c.box.w - face.w) <= 1

    def test_default_box_survives_one_mislocalised_member(self):
        # nine detections of one face, the nose box blown up fourfold about its
        # center: the union of segment boxes grows with that one error, the
        # mean of the implied face boxes moves by a ninth of it
        face = BoxI(30, 60, 60, 60)
        dets = [det_for_face(face, k) for k in ALL_KINDS if k != SegmentKind.NOSE]
        n = LAYOUT.segment_box(face, SegmentKind.NOSE)
        blown = BoxI(n.x - 3 * n.w // 2, n.y - 3 * n.h // 2, 4 * n.w, 4 * n.h)
        dets.append(SegmentDetection(SegmentKind.NOSE, blown, 1.0))
        (default,) = cluster_detections(dets, LAYOUT)
        assert len(default.members) == 9
        props = generate_proposals([default], LAYOUT, zeta=1, min_segments=3)
        assert iou(props[0].box, face) >= 0.5
        # the pipeline's default config takes the same box as the library
        assert proposals_for_image(dets, LAYOUT, RunConfig(), "im")[0].box == props[0].box
        (union,) = cluster_detections(dets, LAYOUT, box_mode="segments")
        props = generate_proposals([union], LAYOUT, zeta=1, min_segments=3, box_mode="segments")
        assert iou(props[0].box, face) < 0.5


class TestDedupe:
    def test_exact_duplicates_collapse(self):
        face = BoxI(20, 20, 80, 80)
        c1 = cluster_of(face, [SegmentKind.L12, SegmentKind.R12])[0]
        c2 = cluster_of(face, [SegmentKind.L12, SegmentKind.R12], scores=[2.0, 2.0])[0]
        kept = dedupe_clusters([c1, c2])
        assert len(kept) == 1
        assert kept[0].total_score() == 4.0  # higher-scoring duplicate wins

    def test_one_pixel_difference_keeps_both(self):
        face = BoxI(20, 20, 80, 80)
        c1 = cluster_of(face, [SegmentKind.L12, SegmentKind.R12])[0]
        c2 = cluster_of(BoxI(21, 20, 80, 80), [SegmentKind.L12, SegmentKind.R12])[0]
        assert len(dedupe_clusters([c1, c2])) == 2

    def test_empty(self):
        assert dedupe_clusters([]) == []


class TestCountSubsets:
    def test_examples(self):
        assert count_subsets(4, 3) == 5
        assert count_subsets(9, 3) == 466
        assert count_subsets(5, 0) == 32

    def test_matches_enumeration(self):
        for n in range(10):
            for kmin in range(n + 1):
                enumerated = sum(
                    1
                    for r in range(n + 1)
                    for _ in itertools.combinations(range(n), r)
                    if r >= kmin
                )
                assert count_subsets(n, kmin) == enumerated

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            count_subsets(10, 0)
        with pytest.raises(ValueError):
            count_subsets(4, 5)


class TestGenerateProposals:
    def test_minimum_size_cluster_yields_single_proposal(self):
        clusters = cluster_of(BoxI(10, 10, 80, 80), [SegmentKind.L12, SegmentKind.R12, SegmentKind.NOSE])
        out = generate_proposals(clusters, LAYOUT, zeta=10, min_segments=3, seed=0)
        assert len(out) == 1
        assert len(out[0].segments) == 3

    def test_nine_members_zeta_ten(self):
        clusters = cluster_of(BoxI(10, 10, 90, 90), list(ALL_KINDS))
        out = generate_proposals(clusters, LAYOUT, zeta=10, min_segments=3, seed=1)
        assert len(out) == 10
        keys = {(p.kinds(), p.box.astuple()) for p in out}
        assert len(keys) == 10
        assert len(out[0].segments) == 9  # the full member set comes first

    def test_small_cluster_dropped(self):
        clusters = cluster_of(BoxI(10, 10, 80, 80), [SegmentKind.L12, SegmentKind.R12])
        assert generate_proposals(clusters, LAYOUT, zeta=5, min_segments=3, seed=0) == []

    def test_same_seed_same_output(self):
        clusters = cluster_of(BoxI(10, 10, 90, 90), list(ALL_KINDS))
        a = generate_proposals(clusters, LAYOUT, zeta=7, min_segments=3, seed=42)
        b = generate_proposals(clusters, LAYOUT, zeta=7, min_segments=3, seed=42)
        assert a == b
        c = generate_proposals(clusters, LAYOUT, zeta=7, min_segments=3, seed=43)
        assert [p.kinds() for p in a] != [p.kinds() for p in c]

    def test_generated_subset_of_enumerated_with_exact_count(self, rng):
        for trial in range(25):
            n = int(rng.integers(3, 10))
            kinds = sorted(rng.choice(9, size=n, replace=False).tolist())
            clusters = cluster_of(BoxI(10, 10, 90, 90), [SegmentKind(k) for k in kinds])
            zeta = int(rng.integers(1, 15))
            out = generate_proposals(clusters, LAYOUT, zeta=zeta, min_segments=3, seed=trial)
            member_kinds = tuple(sorted(m.kind for m in clusters[0].members))
            enumerated = {
                combo
                for r in range(3, len(member_kinds) + 1)
                for combo in itertools.combinations(member_kinds, r)
            }
            got = {p.kinds() for p in out}
            assert got <= enumerated
            assert len(out) == min(zeta, len(enumerated))

    def test_proposal_box_rederivable_from_members(self):
        clusters = cluster_of(BoxI(5, 5, 90, 90), list(ALL_KINDS))
        for p in generate_proposals(
            clusters, LAYOUT, zeta=10, min_segments=3, seed=3, box_mode="segments"
        ):
            assert p.box == union_box(d.box for d in p.segments.values())
            assert len(p.segments) >= 3


class TestLabeling:
    def test_exact_match(self):
        lp = label_proposals([mk_proposal([0, 1, 2], box=BoxI(0, 0, 10, 10))], BoxI(0, 0, 10, 10))[0]
        assert lp.is_face and lp.overlap == 1.0

    def test_no_truth_is_nonface(self):
        lp = label_proposals([mk_proposal([0, 1, 2])], None)[0]
        assert not lp.is_face and lp.overlap == 0.0

    def test_one_third_overlap_is_nonface(self):
        lp = label_proposals(
            [mk_proposal([0, 1, 2], box=BoxI(0, 0, 100, 100))], BoxI(50, 0, 100, 100)
        )[0]
        assert lp.overlap == pytest.approx(1 / 3)
        assert not lp.is_face


def test_proposal_export_import_round_trip(tmp_path):
    clusters = cluster_of(BoxI(10, 10, 90, 90), list(ALL_KINDS)[:5])
    props = generate_proposals(clusters, LAYOUT, zeta=4, min_segments=3, seed=9, image_id="im0")
    labeled = label_proposals(props, BoxI(10, 10, 90, 90))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_proposals({"im0": labeled}, p1)
    back = import_proposals(p1)
    assert back == {"im0": labeled}
    export_proposals(back, p2)
    assert p1.read_text() == p2.read_text()


def test_segment_rows_key_on_source_image_and_box():
    # a and b share their Nose segment; c has the same box in another image; d lacks Nose
    a, b = mk_proposal([0, 1, 2], image_id="a"), mk_proposal([0, 1], image_id="a")
    c, d = mk_proposal([0], image_id="b"), mk_proposal([1, 2], image_id="a")
    row_of, firsts = segment_rows([a, b, c, d], SegmentKind.NOSE)
    assert row_of.tolist() == [0, 0, 1, 2] and firsts == [0, 2]
    row_of, firsts = segment_rows([a, b, c, d], SegmentKind.U12)
    assert row_of.tolist() == [0, 0, 0, 0] and firsts == []
