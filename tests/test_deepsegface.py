import itertools
import math

import numpy as np
import pytest

from segdet import deepsegface as dsf
from segdet import store
from segdet.config import RunConfig
from segdet.errors import ConfigShapeError, DegenerateTrainingSetError
from segdet.imaging import BoxI
from segdet.neuralnet import Softmax, xent
from segdet.priors import build_priors, rerank_multiplier
from segdet.proposals import LabeledProposal, Proposal
from segdet.segments import ALL_KINDS, SegmentDetection, SegmentKind, default_layout, kind_name

from conftest import gray, mk_labeled

LAYOUT = default_layout("toy")

TABLE_FEATURE_GRIDS = {
    "Nose": (2, 2),
    "Eye": (1, 5),
    "UL34": (4, 4),
    "UR34": (4, 4),
    "U12": (3, 6),
    "L34": (6, 4),
    "UL12": (3, 3),
    "R12": (6, 3),
    "L12": (6, 3),
}


FULL = dsf.network_config("full", default_layout("full"))


class TestConfigs:
    def test_full_scale_flatten_sizes(self):
        FULL.validate()
        assert FULL.flatten_size(SegmentKind.NOSE) == 200 == 50 * 2 * 2
        assert FULL.concat_size == 6400

    def test_full_scale_feature_grids(self):
        for k in ALL_KINDS:
            assert FULL.feature_grid(k) == TABLE_FEATURE_GRIDS[kind_name(k)]
            assert FULL.feature_channels == 512

    def test_presets_take_dtype(self):
        for scale in dsf.PRESETS:
            for dtype in dsf.DTYPES:
                assert dsf.network_config(scale, default_layout(scale), dtype).dtype == dtype

    def test_toy_ul12_flatten(self):
        cfg = dsf.network_config("toy", LAYOUT)
        assert cfg.layout.canonical[SegmentKind.UL12] == (32, 32)
        assert cfg.feature_grid(SegmentKind.UL12) == (8, 8)
        assert cfg.flatten_size(SegmentKind.UL12) == 8 * 8 * 8 == 512

    def test_shape_error_names_kind(self):
        # five pool-2 stages floor the toy Nose input (24, 28) to zero rows
        bad = dsf.network_config("full", LAYOUT)
        with pytest.raises(ConfigShapeError, match="Nose"):
            bad.validate()
        with pytest.raises(ConfigShapeError, match="Nose"):
            dsf.build_network(bad, seed=0)


def tiny_setup(rng, n_images=6):
    images = {}
    labeled = []
    face = BoxI(30, 20, 70, 70)
    for i in range(n_images):
        img = rng.uniform(0.3, 0.5, (110, 150))
        img[20:90, 30:100] += 0.3
        img[35:45, 40:90] = 0.08
        images[f"im{i}"] = gray(np.clip(img, 0, 1))
        kinds = [SegmentKind.L12, SegmentKind.R12, SegmentKind.U12]
        segs = {k: SegmentDetection(k, LAYOUT.segment_box(face, k), 1.0) for k in kinds}
        labeled.append(LabeledProposal(Proposal(segs, face, 0, f"im{i}"), True, 1.0))
        off = BoxI(90, 60, 50, 50)
        offsegs = {
            k: SegmentDetection(k, LAYOUT.segment_box(off, k), 0.4)
            for k in [SegmentKind.L12, SegmentKind.NOSE, SegmentKind.EYE]
        }
        labeled.append(LabeledProposal(Proposal(offsegs, off, 1, f"im{i}"), False, 0.2))
    return images, labeled


@pytest.fixture(scope="module")
def trained_toy():
    rng = np.random.default_rng(0)
    images, labeled = tiny_setup(rng)
    model = dsf.build_network(dsf.network_config("toy", LAYOUT, "float64"), seed=3)
    trace = dsf.train(
        model, labeled, images, dsf.TrainParams(lr=0.05, epochs=4, batch=8), seed=11
    )
    return model, images, labeled, trace


def forward(model, batch, images):
    """(logits, batch state) of a proposal list in one batch."""
    return dsf._forward_batch(model, dsf._segment_rows(model, batch, images))


def face_prob(model, proposal, images):
    """p_face of one proposal scored alone."""
    return dsf.score_proposals(model, [proposal], images)[0]


def logistic_margin(logits):
    """p_face from a head's logits, straight from the definition."""
    margin = logits[:, dsf.FACE_CLASS].astype(np.float64) - logits[:, 1 - dsf.FACE_CLASS]
    return 1.0 / (1.0 + np.exp(-margin))


class TestForward:
    def test_probabilities_sum_to_one(self, trained_toy):
        # the head ends at two logits; p_face is the face class's softmax
        # probability of them, the logistic of their margin
        model, images, labeled, _ = trained_toy
        batch = [lp.proposal for lp in labeled[:4]]
        logits, _ = forward(model, batch, images)
        assert [layer.kind for layer in model.head] == ["fc", "relu", "fc"]
        assert logits.shape == (4, 2)
        probs = Softmax().forward(logits)
        assert probs.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
        pface = dsf.score_proposals(model, batch, images)
        assert pface.dtype == np.float64
        assert ((pface >= 0.0) & (pface <= 1.0)).all()
        assert np.allclose(pface, probs[:, dsf.FACE_CLASS], rtol=1e-12, atol=0.0)
        assert np.allclose(pface, logistic_margin(logits), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_scores_do_not_saturate(self, dtype):
        images, batch = shared_segment_batch()
        model = dsf.build_network(dsf.network_config("toy", LAYOUT, dtype), seed=8)
        last = model.head[-1]
        last.weight[...] = 0.0
        last.bias[dsf.FACE_CLASS], last.bias[1 - dsf.FACE_CLASS] = 20.0, 0.0
        pface = dsf.score_proposals(model, batch[:3], images)
        assert np.allclose(pface, 1.0 / (1.0 + math.exp(-20.0)), rtol=1e-15, atol=0.0)
        assert (pface < 1.0).all()
        last.bias[dsf.FACE_CLASS] = -800.0
        with np.errstate(all="raise"):
            pface = dsf.score_proposals(model, batch[:3], images)
        assert np.isfinite(pface).all() and (pface >= 0.0).all()

    def test_identical_inputs_identical_probabilities(self, trained_toy):
        model, images, labeled, _ = trained_toy
        batch = [lp.proposal for lp in labeled]
        assert np.array_equal(dsf.score_proposals(model, batch, images), dsf.score_proposals(model, batch, images))

    def test_batch_composition_does_not_change_result(self, trained_toy):
        # the shared zero-row stands in for absent rows exactly
        model, images, labeled, _ = trained_toy
        alone, one = forward(model, [labeled[0].proposal], images)
        mixed, five = forward(model, [lp.proposal for lp in labeled[:5]], images)
        assert np.array_equal(one.head_acts[0][0], five.head_acts[0][0])
        # a one-row head product runs BLAS's matrix-vector kernel, which may
        # round differently from the matrix-matrix kernel of a larger batch
        assert np.allclose(alone[0], mixed[0], atol=1e-12)

    def test_dropping_a_segment_changes_probabilities(self, trained_toy):
        model, images, labeled, _ = trained_toy
        full = labeled[0].proposal
        reduced_segs = dict(full.segments)
        reduced_segs.pop(SegmentKind.U12)
        reduced = Proposal(reduced_segs, full.box, full.cluster_id, full.source_image)
        assert face_prob(model, full, images) != face_prob(model, reduced, images)


SHARED_KINDS = (SegmentKind.L12, SegmentKind.R12, SegmentKind.U12, SegmentKind.NOSE, SegmentKind.EYE)


def shared_segment_batch():
    """Proposals over two images with different pixels, each holding subsets
    of the same segments (same kinds, same boxes) of two face boxes."""
    rng = np.random.default_rng(21)
    images, batch = {}, []
    for name in ("a", "b"):
        images[name] = gray(rng.uniform(0.0, 1.0, (110, 150)))
        for face in (BoxI(30, 20, 70, 70), BoxI(70, 40, 60, 60)):
            segs = {k: SegmentDetection(k, LAYOUT.segment_box(face, k), 1.0) for k in SHARED_KINDS}
            for size in (5, 3, 1):
                for subset in itertools.combinations(SHARED_KINDS, size):
                    batch.append(Proposal({k: segs[k] for k in subset}, face, 0, name))
    return images, batch


def count_column_rows(monkeypatch, model):
    """Rows seen by each column's first conv, one list of counts per kind."""
    seen = {kind: [] for kind in ALL_KINDS}
    for kind in ALL_KINDS:
        conv = model.columns[kind][0]

        def counted(x, kind=kind, fwd=conv.forward):
            seen[kind].append(x.shape[0])
            return fwd(x)

        monkeypatch.setattr(conv, "forward", counted)
    return seen


def shared_rows(batch, kind):
    """Distinct present (image, box) segments of a kind, plus one zero row if
    some proposal lacks the kind."""
    present = {(p.source_image, p.segments[kind].box) for p in batch if kind in p.segments}
    return len(present) + any(kind not in p.segments for p in batch)


class TestSharedRows:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_shared_rows_score_each_proposal_exactly(self, monkeypatch, dtype):
        images, batch = shared_segment_batch()
        model = dsf.build_network(dsf.network_config("toy", LAYOUT, dtype), seed=8)
        alone = np.stack([forward(model, [p], images)[1].head_acts[0][0] for p in batch])
        seen = count_column_rows(monkeypatch, model)
        logits, state = forward(model, batch, images)
        # the comparison covers shared rows: each column ran on fewer rows
        # than the batch holds segments of its kind
        for kind in SHARED_KINDS:
            assert seen[kind] == [shared_rows(batch, kind)]
            assert shared_rows(batch, kind) < sum(kind in p.segments for p in batch)
        # each proposal's head input is exactly the one it gets scored alone
        concat = state.head_acts[0]
        assert np.array_equal(concat, alone)
        # the same boxes in the two images hold different pixels
        assert not np.array_equal(concat[0], concat[len(batch) // 2])
        # and its logits are the head's on those inputs, its p_face their margin's logistic
        assert np.array_equal(logits, dsf.forward(model.head, alone)[-1])
        assert np.allclose(dsf.score_proposals(model, batch, images), logistic_margin(logits), rtol=1e-12, atol=0.0)

    def test_column_row_counts(self, monkeypatch):
        images, batch = shared_segment_batch()
        model = dsf.build_network(dsf.network_config("toy", LAYOUT, "float64"), seed=8)
        seen = count_column_rows(monkeypatch, model)
        dsf.score_proposals(model, batch, images)
        assert seen == {kind: [shared_rows(batch, kind)] for kind in ALL_KINDS}

        # training batches share rows by the same rule, repeats included
        train_images, labeled = tiny_setup(np.random.default_rng(3), n_images=2)
        batches = []
        forward_batch = dsf._forward_batch

        def recorded(model, rows, pick):
            batches.append([labeled[i].proposal for i in pick])
            return forward_batch(model, rows, pick)

        monkeypatch.setattr(dsf, "_forward_batch", recorded)
        seen = count_column_rows(monkeypatch, model)
        dsf.train(model, labeled, train_images, dsf.TrainParams(epochs=1, batch=6), seed=4)
        assert any(len({id(p) for p in b}) < len(b) for b in batches)
        assert seen == {kind: [shared_rows(b, kind) for b in batches] for kind in ALL_KINDS}

    def test_training_extracts_each_segment_once(self, monkeypatch):
        images, labeled = tiny_setup(np.random.default_rng(3), n_images=2)
        calls = []
        extract = dsf.extract_patch

        def counted(image, box, h, w):
            calls.append((id(image), box, h, w))
            return extract(image, box, h, w)

        monkeypatch.setattr(dsf, "extract_patch", counted)
        model = dsf.build_network(dsf.network_config("toy", LAYOUT, "float64"), seed=8)
        dsf.train(model, labeled, images, dsf.TrainParams(epochs=2, batch=6), seed=4)
        segments = {(lp.proposal.source_image, kind, d.box) for lp in labeled for kind, d in lp.proposal.segments.items()}
        assert len(set(calls)) == len(calls) <= len(segments)


class TestTraining:
    def test_loss_decreases(self, trained_toy):
        _, _, _, trace = trained_toy
        assert trace[-1] < trace[0]

    def test_batch_gradient_is_mean_of_single_gradients(self):
        # a repeated proposal and kinds absent from different proposals: the
        # zero row's gradient sums over its proposals, the batch takes a 1/b mean
        rng = np.random.default_rng(12)
        images = {"im": gray(rng.uniform(0.0, 1.0, (110, 150)))}
        face = BoxI(30, 20, 70, 70)

        def proposal(kinds):
            return Proposal({k: SegmentDetection(k, LAYOUT.segment_box(face, k), 1.0) for k in kinds}, face, 0, "im")

        a = proposal([SegmentKind.L12, SegmentKind.R12, SegmentKind.U12])
        b = proposal([SegmentKind.L12, SegmentKind.NOSE, SegmentKind.EYE])
        c = proposal([SegmentKind.R12, SegmentKind.EYE, SegmentKind.UL34])
        batch, labels = [a, b, a, c], np.array([0, 1, 0, 1])
        model = dsf.build_network(dsf.network_config("toy", LAYOUT, "float64"), seed=5)

        def grads(props, y):
            logits, state = forward(model, props, images)
            return dsf._backward_batch(model, state, xent(logits, y)[1])

        batched = grads(batch, labels)
        singles = [grads([p], labels[i : i + 1]) for i, p in enumerate(batch)]
        assert len(batched) == len(model.params())
        for i, g in enumerate(batched):
            assert np.allclose(g, sum(s[i] for s in singles) / len(batch), rtol=1e-9, atol=0.0)

    def test_identical_seeds_identical_traces(self):
        rng = np.random.default_rng(6)
        images, labeled = tiny_setup(rng, n_images=3)
        traces = []
        for _ in range(2):
            model = dsf.build_network(dsf.network_config("toy", LAYOUT, "float64"), seed=4)
            traces.append(
                dsf.train(model, labeled, images, dsf.TrainParams(lr=0.05, epochs=3, batch=6), seed=9)
            )
        assert traces[0] == traces[1]

    def test_single_class_rejected(self):
        rng = np.random.default_rng(7)
        images, labeled = tiny_setup(rng, n_images=2)
        model = dsf.build_network(dsf.network_config("toy", LAYOUT, "float64"), seed=1)
        with pytest.raises(DegenerateTrainingSetError):
            dsf.train(model, [lp for lp in labeled if lp.is_face], images, dsf.TrainParams(epochs=1), seed=0)


class TestDetect:
    def test_score_is_probability_times_multiplier(self, trained_toy):
        model, images, labeled, _ = trained_toy
        img_id = labeled[0].proposal.source_image
        group = [lp.proposal for lp in labeled if lp.proposal.source_image == img_id]
        img = images[img_id]
        got = dsf.detect(model, img, group)
        assert got is not None
        pface = dsf.score_proposals(model, group, {img_id: img})
        mults = np.array([rerank_multiplier(p, model.priors) for p in group])
        scores = pface * mults
        best = int(np.argmax(scores))
        assert got[0] == group[best].box
        assert got[1] == pytest.approx(float(scores[best]), abs=1e-12)
        assert 0.0 <= got[1] <= 1.0

    def test_product_ordering(self):
        # 0.9 * 0.1 loses to 0.6 * 0.5
        assert 0.9 * 0.1 < 0.6 * 0.5
        assert int(np.argmax(np.array([0.9, 0.6]) * np.array([0.1, 0.5]))) == 1

    def test_no_proposals_no_detection(self, trained_toy):
        model, images, _, _ = trained_toy
        assert dsf.detect(model, next(iter(images.values())), []) is None


def test_model_file_round_trip(tmp_path, trained_toy):
    model, images, labeled, _ = trained_toy
    path = tmp_path / "dsf.txt"
    dsf.save_deepsegface(model, path)
    assert path.read_text().startswith("DEEPSEGFACE-MODEL v1\n")
    back = dsf.load_deepsegface(path)
    batch = [lp.proposal for lp in labeled]
    assert np.array_equal(dsf.score_proposals(back, batch, images), dsf.score_proposals(model, batch, images))
    dsf.save_deepsegface(back, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_model_file_head_keys_and_softmax_head_files(tmp_path, trained_toy):
    # the head's keys are unchanged: files written when the head still ended in
    # a parameter-free Softmax layer hold the same bytes, and load and score
    model, images, labeled, _ = trained_toy
    dsf.save_deepsegface(model, tmp_path / "dsf.txt")
    assert sorted(dict(store.read_sections(tmp_path / "dsf.txt", dsf.DSF_MAGIC))["head"]) == ["p0.0", "p0.1", "p2.0", "p2.1"]
    softmax_head = dsf.DeepSegFaceModel(model.config, model.columns, model.head + [Softmax()], model.priors)
    dsf.save_deepsegface(softmax_head, tmp_path / "softmax.txt")
    assert (tmp_path / "softmax.txt").read_bytes() == (tmp_path / "dsf.txt").read_bytes()
    back = dsf.load_deepsegface(tmp_path / "softmax.txt")
    batch = [lp.proposal for lp in labeled]
    probs, _ = forward(softmax_head, batch, images)
    assert np.allclose(dsf.score_proposals(back, batch, images), probs[:, dsf.FACE_CLASS], rtol=1e-12, atol=0.0)


def test_overridden_layout_round_trip(tmp_path):
    # the network reads its column inputs from the layout it is saved with
    cfg = RunConfig(layout_overrides={"Nose": "0.25 0.3 0.75 0.8 20 24"})
    model = dsf.build_network(dsf.network_config("toy", cfg.layout(), "float32"), seed=5)
    model.priors = build_priors([mk_labeled([0, 1, 2], True), mk_labeled([3, 4, 5], False)])
    path = tmp_path / "dsf.txt"
    dsf.save_deepsegface(model, path)
    back = dsf.load_deepsegface(path)
    assert back.config.layout.canonical[SegmentKind.NOSE] == (20, 24)
    dsf.save_deepsegface(back, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()
