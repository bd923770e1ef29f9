import numpy as np
import pytest

from segdet.errors import DegenerateLabelsError, PatchTooSmallError
from segdet.imaging import BoxI, extract_patch
from segdet.priors import build_priors, prior_features
from segdet import segface
from segdet.proposals import LabeledProposal, Proposal
from segdet.seeding import derive_seed
from segdet.segface import (
    FEATURE_LEN,
    NUM_KINDS,
    HogParams,
    LinearModel,
    SegFaceModel,
    build_feature_vector,
    detect,
    hog,
    hog_length,
    load_segface,
    save_segface,
    score_proposal_segface,
    train_linear_svm,
    train_segface,
)
from segdet.segments import ALL_KINDS, SegmentDetection, SegmentKind, default_layout, kind_name

from conftest import gray

LAYOUT = default_layout("toy")


def svm_objective(model: LinearModel, X: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Regularized empirical hinge loss: what the SVM's SGD descends."""
    margins = X @ model.weights + model.bias
    hinge = np.maximum(0.0, 1.0 - y * margins).mean()
    return 0.5 * lam * float(model.weights @ model.weights) + float(hinge)


def _reference_hog(patch, p=HogParams()):
    """`hog` with its cell histograms built by two `np.add.at` passes over
    broadcast cell grids: lower-bin votes of every pixel, then upper-bin ones."""
    img = patch.data
    h, w = img.shape
    ncy, ncx = h // p.cell, w // p.cell
    gy, gx = np.gradient(img)
    mag = np.hypot(gx, gy)
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0
    hy, hx = ncy * p.cell, ncx * p.cell
    mag = mag[:hy, :hx]
    ang = ang[:hy, :hx]
    pos = ang / (180.0 / p.bins) - 0.5
    b0 = np.floor(pos)
    frac = pos - b0
    b0 = b0.astype(np.intp) % p.bins
    b1 = (b0 + 1) % p.bins
    cy = np.broadcast_to(np.repeat(np.arange(ncy), p.cell)[:, None], (hy, hx))
    cx = np.broadcast_to(np.repeat(np.arange(ncx), p.cell)[None, :], (hy, hx))
    hist = np.zeros((ncy, ncx, p.bins), dtype=np.float64)
    np.add.at(hist, (cy, cx, b0), mag * (1.0 - frac))
    np.add.at(hist, (cy, cx, b1), mag * frac)
    win = np.lib.stride_tricks.sliding_window_view(hist, (p.block, p.block), axis=(0, 1))
    win = win[:: p.block_stride, :: p.block_stride]
    blocks = win.transpose(0, 1, 3, 4, 2).reshape(win.shape[0], win.shape[1], -1).astype(np.float64)
    eps = 1e-9
    blocks = blocks / (np.sqrt((blocks**2).sum(axis=2, keepdims=True)) + eps)
    blocks = np.minimum(blocks, p.clip)
    blocks = blocks / (np.sqrt((blocks**2).sum(axis=2, keepdims=True)) + eps)
    return blocks.reshape(-1)


class TestHog:
    @pytest.mark.parametrize(
        "params", [HogParams(), HogParams(block_stride=2), HogParams(cell=5, block=3, bins=7, block_stride=2)]
    )
    @pytest.mark.parametrize("shape", [(20, 56), (23, 29), (37, 18), (64, 64)])
    def test_equals_add_at_reference(self, rng, params, shape):
        # sides that are not multiples of the cell leave a margin the histogram skips
        patch = gray(rng.uniform(0, 1, shape))
        assert np.array_equal(hog(patch, params), _reference_hog(patch, params))

    def test_equals_add_at_reference_on_segment_patches(self, trained_segface):
        # flat areas and straight edges put votes exactly on bin boundaries
        model, images, labeled = trained_segface
        for lp in labeled[:10]:
            for kind, det in lp.proposal.segments.items():
                patch = extract_patch(images[lp.proposal.source_image], det.box, *LAYOUT.canonical[kind])
                assert np.array_equal(hog(patch), _reference_hog(patch))

    def test_length_needs_a_block_per_side(self):
        # 4x4 pixels hold no 8-pixel cell, let alone a 2x2-cell block
        with pytest.raises(PatchTooSmallError):
            hog_length(4, 4, HogParams())
        with pytest.raises(PatchTooSmallError):
            hog_length(20, 56, HogParams(cell=12))
        assert hog_length(16, 16, HogParams()) == 36


    def test_descriptor_length_64(self, rng):
        v = hog(gray(rng.uniform(0, 1, (64, 64))))
        assert len(v) == 7 * 7 * 4 * 9 == 1764
        assert len(v) == hog_length(64, 64, HogParams())

    def test_constant_patch_is_zero(self):
        v = hog(gray(np.full((32, 32), 0.6)))
        assert np.all(v == 0.0)

    def test_brightness_scale_invariance(self, rng):
        img = rng.uniform(0, 0.5, (40, 24))
        v1 = hog(gray(img))
        v2 = hog(gray(img * 2.0))
        assert np.allclose(v1, v2, atol=1e-6)

    def test_affine_brightness_invariance(self, rng):
        img = rng.uniform(0, 0.4, (32, 48))
        v1 = hog(gray(img))
        v2 = hog(gray(img * 1.7 + 0.2))
        assert np.allclose(v1, v2, atol=1e-5)

    def test_too_small_patch(self):
        with pytest.raises(PatchTooSmallError):
            hog(gray(np.zeros((15, 32))))

    def test_values_clipped(self, rng):
        v = hog(gray(rng.uniform(0, 1, (32, 32))), HogParams(clip=0.1))
        assert v.max() <= 0.1 / 0.1 * 1.0  # renormalized after clipping
        assert np.all(v >= 0)


class TestLinearSvm:
    def test_separable_blobs(self, rng):
        X = np.vstack([rng.normal((2, 0), 0.3, (40, 2)), rng.normal((-2, 0), 0.3, (40, 2))])
        y = np.array([1.0] * 40 + [-1.0] * 40)
        m = train_linear_svm(X, y, lam=1e-3, epochs=30, seed=0)
        pred = np.sign(X @ m.weights + m.bias)
        assert np.mean(pred == y) == 1.0

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabelsError):
            train_linear_svm(np.eye(3), np.ones(3), 1e-3, 5, 0)

    def test_xor_is_not_linearly_separable(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        m = train_linear_svm(X, y, lam=1e-3, epochs=50, seed=1)
        pred = np.sign(X @ m.weights + m.bias)
        assert np.mean(pred == y) <= 0.75

    def test_objective_not_increased(self, rng):
        X = rng.normal(size=(60, 5))
        y = np.sign(X[:, 0] + 0.2 * rng.normal(size=60))
        y[y == 0] = 1.0
        lam = 1e-3
        start = svm_objective(LinearModel.zero(5), X, y, lam)
        m = train_linear_svm(X, y, lam=lam, epochs=25, seed=2)
        assert svm_objective(m, X, y, lam) <= start

    def test_deterministic(self, rng):
        X = rng.normal(size=(30, 4))
        y = np.array([1.0, -1.0] * 15)
        m1 = train_linear_svm(X, y, 1e-3, 10, seed=7)
        m2 = train_linear_svm(X, y, 1e-3, 10, seed=7)
        assert np.array_equal(m1.weights, m2.weights) and m1.bias == m2.bias


def synthetic_training_setup(rng, n_images=30):
    """Face proposals crop a bright structured block, nonface ones crop noise."""
    images = {}
    labeled = []
    for i in range(n_images):
        img = rng.uniform(0.3, 0.5, (120, 160))
        face = BoxI(30, 20, 80, 80)
        img[20:100, 30:110] += 0.3  # bright face area
        img[40:50, 45:95] = 0.05  # dark eye band
        img[75:85, 55:85] = 0.1  # dark mouth band
        images[f"im{i}"] = gray(np.clip(img, 0, 1))
        kinds = [SegmentKind.L12, SegmentKind.R12, SegmentKind.U12, SegmentKind.NOSE]
        segs = {k: SegmentDetection(k, LAYOUT.segment_box(face, k), 1.0) for k in kinds}
        labeled.append(
            LabeledProposal(Proposal(segs, face, 0, f"im{i}"), True, 1.0)
        )
        off = BoxI(0, 0, 60, 60)
        offsegs = {
            k: SegmentDetection(k, LAYOUT.segment_box(off, k), 0.5)
            for k in [SegmentKind.L12, SegmentKind.R12, SegmentKind.U12]
        }
        labeled.append(LabeledProposal(Proposal(offsegs, off, 1, f"im{i}"), False, 0.1))
    return images, labeled


@pytest.fixture(scope="module")
def trained_segface():
    rng = np.random.default_rng(42)
    images, labeled = synthetic_training_setup(rng)
    model = train_segface(labeled, images, LAYOUT, HogParams(), 1e-4, 12, seed=5)
    return model, images, labeled


def _reference_train_segface(labeled, images, layout, hog_params, lam, epochs, seed):
    """`train_segface` as a per-proposal loop: a HoG cache keyed on (image,
    kind, box) serves both stages, and stage 2 scores every proposal's
    segments one by one."""
    cache = {}

    def segment_hog(det, image_id):
        key = (image_id, int(det.kind), det.box.astuple())
        if key not in cache:
            h, w = layout.canonical[det.kind]
            cache[key] = _reference_hog(extract_patch(images[image_id], det.box, h, w), hog_params)
        return cache[key]

    priors = build_priors(labeled)
    per_segment = {}
    for kind in ALL_KINDS:
        rows, ys = [], []
        for lp in labeled:
            det = lp.proposal.segments.get(kind)
            if det is not None:
                rows.append(segment_hog(det, lp.proposal.source_image))
                ys.append(1.0 if lp.is_face else -1.0)
        ysa = np.array(ys)
        if len(rows) < 2 or not (np.any(ysa > 0) and np.any(ysa < 0)):
            per_segment[kind] = LinearModel.zero(hog_length(*layout.canonical[kind], hog_params))
            continue
        kind_seed = derive_seed(seed, "segsvm", kind_name(kind))
        per_segment[kind] = train_linear_svm(np.stack(rows), ysa, lam, epochs, kind_seed)
    F = np.zeros((len(labeled), FEATURE_LEN))
    for i, lp in enumerate(labeled):
        for kind, det in lp.proposal.segments.items():
            F[i, int(kind)] = per_segment[kind].score(segment_hog(det, lp.proposal.source_image))
        F[i, NUM_KINDS:] = prior_features(lp.proposal, priors)
    y = np.array([1.0 if lp.is_face else -1.0 for lp in labeled])
    master = train_linear_svm(F, y, lam, epochs, derive_seed(seed, "master"))
    return SegFaceModel(hog_params, per_segment, master, priors, layout)


def shared_segment_setup(n_images=4):
    """synthetic_training_setup plus proposals that repeat its segments: a
    two-segment subset of every proposal, and one non-face proposal that adds
    the only Eye segment. Every image holds the same boxes."""
    images, labeled = synthetic_training_setup(np.random.default_rng(31), n_images)
    extra = []
    for lp in labeled:
        p = lp.proposal
        subset = dict(list(p.segments.items())[:2])
        extra.append(LabeledProposal(Proposal(subset, p.box, 2, p.source_image), lp.is_face, lp.overlap))
    p = labeled[1].proposal
    eye = SegmentDetection(SegmentKind.EYE, LAYOUT.segment_box(p.box, SegmentKind.EYE), 0.5)
    extra.append(LabeledProposal(Proposal({**p.segments, SegmentKind.EYE: eye}, p.box, 3, p.source_image), False, 0.1))
    return images, labeled + extra


def segment_keys(labeled):
    """(image, kind, box) of every segment occurrence, repeats included."""
    return [(lp.proposal.source_image, kind, d.box) for lp in labeled for kind, d in lp.proposal.segments.items()]


class TestRowTraining:
    @pytest.mark.parametrize("hog_params, seed", [(HogParams(), 5), (HogParams(cell=6, block_stride=2), 6)])
    def test_same_model_bytes_as_reference(self, tmp_path, hog_params, seed):
        images, labeled = shared_segment_setup()
        keys = segment_keys(labeled)
        # segments repeat across proposals, and the same boxes across images
        assert len(set(keys)) < len(keys)
        assert len({(kind, box) for _, kind, box in keys}) < len(set(keys))
        # Nose is in face proposals only and Eye in one proposal: both fall back
        assert {lp.is_face for lp in labeled if SegmentKind.NOSE in lp.proposal.segments} == {True}
        assert sum(SegmentKind.EYE in lp.proposal.segments for lp in labeled) == 1
        got = train_segface(labeled, images, LAYOUT, hog_params, 1e-4, 4, seed)
        want = _reference_train_segface(labeled, images, LAYOUT, hog_params, 1e-4, 4, seed)
        assert np.all(got.per_segment[SegmentKind.NOSE].weights == 0.0)
        assert np.any(got.per_segment[SegmentKind.L12].weights != 0.0)
        save_segface(got, tmp_path / "got.txt")
        save_segface(want, tmp_path / "want.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    def test_training_extracts_each_segment_once(self, monkeypatch):
        images, labeled = shared_segment_setup()
        calls = []
        extract = segface.extract_patch

        def counted(image, box, h, w):
            calls.append((id(image), box, h, w))
            return extract(image, box, h, w)

        monkeypatch.setattr(segface, "extract_patch", counted)
        train_segface(labeled, images, LAYOUT, HogParams(), 1e-4, 2, seed=4)
        assert len(set(calls)) == len(calls) <= len(set(segment_keys(labeled)))


class TestFeatureVector:
    def test_length_is_29(self, trained_segface):
        model, images, labeled = trained_segface
        lp = labeled[0]
        v = build_feature_vector(lp.proposal, model, images[lp.proposal.source_image])
        assert len(v) == FEATURE_LEN == 29

    def test_absent_kind_entry_is_exactly_zero(self, trained_segface):
        model, images, labeled = trained_segface
        lp = labeled[0]  # proposal without the Eye segment
        v = build_feature_vector(lp.proposal, model, images[lp.proposal.source_image])
        assert SegmentKind.EYE not in lp.proposal.segments
        assert v[int(SegmentKind.EYE)] == 0.0

    def test_sparsity_matches_segment_mask(self, trained_segface):
        model, images, labeled = trained_segface
        for lp in labeled[:6]:
            v = build_feature_vector(lp.proposal, model, images[lp.proposal.source_image])
            for k in ALL_KINDS:
                if k not in lp.proposal.segments:
                    assert v[int(k)] == 0.0

    def test_margins_match_independent_recomputation(self, trained_segface):
        model, images, labeled = trained_segface
        lp = labeled[0]
        img = images[lp.proposal.source_image]
        v = build_feature_vector(lp.proposal, model, img)
        for kind, det in lp.proposal.segments.items():
            h, w = LAYOUT.canonical[kind]
            patch = extract_patch(img, det.box, h, w)
            feat = hog(patch, model.hog_params)
            margin = float(model.per_segment[kind].weights @ feat + model.per_segment[kind].bias)
            assert v[int(kind)] == pytest.approx(margin, abs=1e-6)
        assert np.allclose(v[9:], prior_features(lp.proposal, model.priors), atol=1e-12)


class TestTrainSegFace:
    def test_training_accuracy(self, trained_segface):
        model, images, labeled = trained_segface
        correct = 0
        for lp in labeled:
            s = score_proposal_segface(lp.proposal, model, images[lp.proposal.source_image])
            correct += (s >= 0) == lp.is_face
        assert correct / len(labeled) >= 0.9

    def test_mean_margin_separation(self, trained_segface):
        model, images, labeled = trained_segface
        face_scores = []
        nonface_scores = []
        for lp in labeled:
            s = score_proposal_segface(lp.proposal, model, images[lp.proposal.source_image])
            (face_scores if lp.is_face else nonface_scores).append(s)
        assert np.mean(face_scores) > np.mean(nonface_scores)

    def test_unseen_kind_gets_zero_model(self, trained_segface):
        model, _, labeled = trained_segface
        assert all(SegmentKind.EYE not in lp.proposal.segments for lp in labeled)
        assert np.all(model.per_segment[SegmentKind.EYE].weights == 0.0)
        assert model.per_segment[SegmentKind.EYE].bias == 0.0

    def test_scoring_is_pure(self, trained_segface):
        model, images, labeled = trained_segface
        lp = labeled[3]
        img = images[lp.proposal.source_image]
        a = score_proposal_segface(lp.proposal, model, img)
        b = score_proposal_segface(lp.proposal, model, img)
        assert a == b

    def test_argmax_invariant_to_master_scaling(self, trained_segface):
        model, images, labeled = trained_segface
        img_id = labeled[0].proposal.source_image
        group = [lp.proposal for lp in labeled if lp.proposal.source_image == img_id]
        scores = [score_proposal_segface(p, model, images[img_id]) for p in group]
        scaled = SegFaceModel(
            model.hog_params,
            model.per_segment,
            LinearModel(model.master.weights * 3.5, model.master.bias * 3.5),
            model.priors,
            model.layout,
        )
        scores2 = [score_proposal_segface(p, scaled, images[img_id]) for p in group]
        assert int(np.argmax(scores)) == int(np.argmax(scores2))

    def test_retraining_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(10)
        images, labeled = synthetic_training_setup(rng, n_images=8)
        m1 = train_segface(labeled, images, LAYOUT, HogParams(), 1e-4, 6, seed=3)
        m2 = train_segface(labeled, images, LAYOUT, HogParams(), 1e-4, 6, seed=3)
        save_segface(m1, tmp_path / "a.txt")
        save_segface(m2, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestDetect:
    def test_no_proposals_no_detection(self, trained_segface):
        model, images, _ = trained_segface
        assert detect(model, images["im0"], []) is None

    def test_picks_argmax_of_proposal_scores(self, trained_segface):
        model, images, labeled = trained_segface
        for img_id in ("im0", "im1", "im2"):
            group = [lp.proposal for lp in labeled if lp.proposal.source_image == img_id]
            scores = [score_proposal_segface(p, model, images[img_id]) for p in group]
            best = int(np.argmax(scores))
            assert detect(model, images[img_id], group) == (group[best].box, float(scores[best]))

    def test_each_call_starts_with_an_empty_cache(self, trained_segface, monkeypatch):
        model, images, labeled = trained_segface
        group = [lp.proposal for lp in labeled if lp.proposal.source_image == "im0"]
        seen = []
        real = segface.score_proposal_segface

        def spy(p, model, image, cache):
            seen.append((cache, len(cache)))
            return real(p, model, image, cache)

        monkeypatch.setattr(segface, "score_proposal_segface", spy)
        first = detect(model, images["im0"], group)
        second = detect(model, images["im0"], group)
        assert first == second
        caches = [seen[0][0], seen[len(group)][0]]
        assert caches[0] is not caches[1]
        assert seen[0][1] == 0 and seen[len(group)][1] == 0
        assert len(caches[0]) > 0  # the first call did fill its cache
        # with one margin per segment of the image
        segments = {(p.source_image, int(k), d.box.astuple()) for p in group for k, d in p.segments.items()}
        assert set(caches[0]) == segments
        assert all(isinstance(margin, float) for margin in caches[0].values())


def test_model_file_round_trip(tmp_path, trained_segface):
    model, images, labeled = trained_segface
    path = tmp_path / "segface.txt"
    save_segface(model, path)
    assert path.read_text().startswith("SEGFACE-MODEL v1\n")
    back = load_segface(path)
    lp = labeled[0]
    img = images[lp.proposal.source_image]
    assert score_proposal_segface(lp.proposal, back, img) == pytest.approx(
        score_proposal_segface(lp.proposal, model, img), abs=1e-12
    )
    save_segface(back, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_version_mismatch(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("SEGFACE-MODEL v9\n[hog]\ncell = 8\n")
    from segdet.errors import ModelVersionMismatchError

    with pytest.raises(ModelVersionMismatchError):
        load_segface(p)
