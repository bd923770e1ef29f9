"""Acceptance suite: every release criterion runs here at its stated
tolerance and prints one pass/fail line (visible with `pytest -s`)."""

import hashlib
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from segdet import cli
from segdet import deepsegface as dsf
from segdet import neuralnet as nn
from segdet.evaluate import ImageResult, iou, roc_curve, tar_at_far, recall_at_precision
from segdet.imaging import BoxI, GrayImageF
from segdet.priors import build_priors, prior_features
from segdet.proposals import generate_proposals, import_proposals
from segdet.segments import (
    ALL_KINDS,
    SegmentDetection,
    SegmentKind,
    default_layout,
    kind_name,
)

from conftest import count_subsets, mk_labeled
from test_eval import (
    brute_force_recall_at_precision,
    brute_force_tar_at_far,
    pixel_count_iou,
    random_results,
)

LAYOUT = default_layout("toy")


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- 1. shape fidelity ---------------------------------------------------------

TABLE_ROWS = {
    # kind: (input h, w), feature grid, flatten
    "Nose": ((69, 81), (2, 2), 200),
    "Eye": ((54, 162), (1, 5), 250),
    "UL34": ((147, 147), (4, 4), 800),
    "UR34": ((147, 147), (4, 4), 800),
    "U12": ((99, 192), (3, 6), 900),
    "L34": ((192, 147), (6, 4), 1200),
    "UL12": ((99, 99), (3, 3), 450),
    "R12": ((192, 99), (6, 3), 900),
    "L12": ((192, 99), (6, 3), 900),
}


def test_criterion_1_shape_fidelity():
    start = time.time()
    cfg = dsf.network_config("full", default_layout("full"))
    cfg.validate()
    for kind in ALL_KINDS:
        in_dims, grid, flatten = TABLE_ROWS[kind_name(kind)]
        assert cfg.layout.canonical[kind] == in_dims
        assert cfg.feature_grid(kind) == grid
        assert cfg.feature_channels == 512
        assert cfg.reduce_maps == 50
        assert cfg.flatten_size(kind) == flatten
    assert cfg.concat_size == 6400
    assert cfg.fc_units == 250 and cfg.classes == 2
    elapsed = time.time() - start
    _report("criterion 1: full-scale shape fidelity", elapsed < 1.0, f"{elapsed:.3f}s")


# --- 2. subset formula ---------------------------------------------------------


def test_criterion_2_subset_formula():
    start = time.time()
    for n in range(10):
        for kmin in range(n + 1):
            enumerated = sum(
                1 for r in range(kmin, n + 1) for _ in itertools.combinations(range(n), r)
            )
            assert count_subsets(n, kmin) == enumerated
    rng = np.random.default_rng(2024)
    layout = LAYOUT
    for trial in range(100):
        n = int(rng.integers(1, 10))
        kinds = sorted(rng.choice(9, size=n, replace=False).tolist())
        face = BoxI(10, 10, 90, 90)
        members = [
            SegmentDetection(SegmentKind(k), layout.segment_box(face, SegmentKind(k)), 1.0)
            for k in kinds
        ]
        from segdet.proposals import cluster_detections

        clusters = cluster_detections(members, layout)
        assert len(clusters) == 1
        zeta = int(rng.integers(1, 20))
        out = generate_proposals(clusters, layout, zeta=zeta, min_segments=3, seed=trial)
        m = len(clusters[0].members)
        expected = min(zeta, count_subsets(m, 3) if m >= 3 else 0)
        assert len(out) == expected, (n, zeta, len(out), expected)
    elapsed = time.time() - start
    _report("criterion 2: subset formula vs enumeration", elapsed < 5.0, f"{elapsed:.2f}s")


# --- 3. gradient correctness ---------------------------------------------------


def _probe_gradients(model, proposal, images, label, probes, prng, h=1e-5):
    rows = dsf._segment_rows(model, [proposal], images)
    probs, state = dsf._forward_batch(model, rows)
    _, g = nn.xent(probs, [label])
    analytic = dsf._backward_batch(model, state, g)
    params = model.params()

    def loss():
        pr, _ = dsf._forward_batch(model, rows)
        return nn.xent(pr, [label])[0]

    worst = 0.0
    for w, ga in zip(params, analytic):
        flat, gflat = w.ravel(), ga.ravel()
        for i in prng.choice(flat.size, size=min(probes, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8))
    return worst


def test_criterion_3_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(0)
    # every layer kind in isolation (each ends in softmax so the loss is scalar)
    from test_neuralnet import assert_gradcheck

    assert_gradcheck(
        [nn.Conv2D(2, 3, 3, "same", rng=rng), nn.Flatten(), nn.FC(3 * 5 * 6, 2, rng=rng), nn.Softmax()],
        rng.normal(size=(1, 2, 5, 6)),
    )
    assert_gradcheck(
        [nn.Conv2D(1, 2, 3, "valid", rng=rng), nn.Flatten(), nn.FC(2 * 3 * 4, 2, rng=rng), nn.Softmax()],
        rng.normal(size=(1, 1, 5, 6)),
    )
    assert_gradcheck([nn.FC(5, 7, rng=rng), nn.ReLU(), nn.FC(7, 2, rng=rng), nn.Softmax()], rng.normal(size=(1, 5)))
    assert_gradcheck([nn.MaxPool2(), nn.Flatten(), nn.FC(6, 2, rng=rng), nn.Softmax()], rng.normal(size=(1, 1, 4, 7)))

    # the composed toy network: all nine columns plus head, three present segments
    seed = 7  # a generic point: no activation sits on a ReLU kink within h
    frng = np.random.default_rng(seed)
    img = GrayImageF(120, 90, frng.uniform(0, 1, (90, 120)))
    kinds = [SegmentKind.EYE, SegmentKind.U12, SegmentKind.L12]
    segs = {
        k: SegmentDetection(k, BoxI(10 + 7 * int(k), 8 + 3 * int(k), 40, 30), 1.0) for k in kinds
    }
    from segdet.proposals import Proposal

    proposal = Proposal(segs, BoxI(0, 0, 80, 70), 0, "gc")
    model = dsf.build_network(dsf.network_config("toy", LAYOUT, "float64"), seed)
    worst = _probe_gradients(
        model, proposal, {"gc": img}, 0, probes=3, prng=np.random.default_rng(seed + 1000)
    )
    elapsed = time.time() - start
    _report(
        "criterion 3: gradient checks < 1e-4",
        worst < 1e-4 and elapsed < 60.0,
        f"worst rel {worst:.2e}, {elapsed:.1f}s",
    )


# --- 4. prior-table invariants -------------------------------------------------


def test_criterion_4_prior_invariants():
    start = time.time()
    rng = np.random.default_rng(99)
    labeled = [
        mk_labeled(
            rng.choice(9, size=int(rng.integers(1, 10)), replace=False), bool(rng.integers(2))
        )
        for _ in range(1000)
    ]
    table = build_priors(labeled)
    assert abs(sum(table.combo_face.values()) - 1.0) <= 1e-12
    assert abs(sum(table.combo_nonface.values()) - 1.0) <= 1e-12
    for k in range(9):
        assert abs(
            sum(f for m, f in table.combo_face.items() if m >> k & 1) - table.seg_face[k]
        ) <= 1e-12
        assert abs(
            sum(f for m, f in table.combo_nonface.items() if m >> k & 1) - table.seg_nonface[k]
        ) <= 1e-12
    faces = [lp for lp in labeled if lp.is_face]
    nonfaces = [lp for lp in labeled if not lp.is_face]
    for lp in labeled[::37]:
        v = prior_features(lp.proposal, table)
        assert len(v) == 20
        pset = set(lp.proposal.segments)
        assert v[0] == sum(1 for o in faces if set(o.proposal.segments) == pset) / len(faces)
        assert v[1] == sum(1 for o in nonfaces if set(o.proposal.segments) == pset) / len(nonfaces)
        for k in ALL_KINDS:
            want_f = (
                sum(1 for o in faces if k in o.proposal.segments) / len(faces)
                if k in pset
                else 0.0
            )
            assert v[2 + int(k)] == want_f
    elapsed = time.time() - start
    _report("criterion 4: prior-table invariants", elapsed < 5.0, f"{elapsed:.2f}s")


# --- 5. evaluation oracle equivalence ------------------------------------------


def test_criterion_5_evaluation_oracles():
    start = time.time()
    rng = np.random.default_rng(11)
    for _ in range(50):
        results = random_results(rng, int(rng.integers(4, 200)))
        assert tar_at_far(results, 0.01) == brute_force_tar_at_far(results, 0.01)
        assert recall_at_precision(results, 0.99) == brute_force_recall_at_precision(results, 0.99)
    for _ in range(1000):
        a = BoxI(*(int(v) for v in rng.integers(-15, 15, 2)), *(int(v) for v in rng.integers(0, 20, 2)))
        b = BoxI(*(int(v) for v in rng.integers(-15, 15, 2)), *(int(v) for v in rng.integers(0, 20, 2)))
        assert iou(a, b) == pixel_count_iou(a, b)
    elapsed = time.time() - start
    _report("criterion 5: evaluation oracle equivalence", elapsed < 10.0, f"{elapsed:.2f}s")


# --- 7/9/6. end-to-end desk-scale run -------------------------------------------

E2E_CONFIG = """\
seed = 2026
synth.train_count = 400
synth.test_count = 200
synth.no_face_fraction = 0.15
synth.occlusion_prob = 0.3
"""


def _run(args):
    rc = cli.main(args)
    assert rc == 0, f"command {args} exited {rc}"


def _read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines()[1:]:
        k, v = line.split(",")
        out[k] = float(v)
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(E2E_CONFIG)
    c = str(cfg_path)
    start = time.time()
    _run(["synth", "--config", c])
    _run(["train-weak", "--config", c])
    _run(["detect-segments", "--config", c, "--split", "train"])
    _run(["gen-proposals", "--config", c, "--split", "train"])
    _run(["train-segface", "--config", c])
    _run(["train-deepsegface", "--config", c])
    _run(["detect", "--config", c, "--model", "deepsegface", "--split", "test"])
    _run(["eval", "--config", c, "--model", "deepsegface", "--split", "test"])
    _run(["detect", "--config", c, "--model", "segface", "--split", "test"])
    _run(["eval", "--config", c, "--model", "segface", "--split", "test"])
    elapsed = time.time() - start
    return root, elapsed


def test_criterion_7_end_to_end_quality(pipeline):
    root, elapsed = pipeline
    dsf_summary = _read_summary(root / "reports/eval_deepsegface_test/summary.csv")
    sf_summary = _read_summary(root / "reports/eval_segface_test/summary.csv")
    auc_dsf = dsf_summary["roc_auc"]
    auc_sf = sf_summary["roc_auc"]
    # at most one detection per image; proposal-less images keep an empty row
    faces = (root / "reports/faces_deepsegface_test.csv").read_text().splitlines()[1:]
    ids = [line.split(",")[0] for line in faces]
    assert len(ids) == len(set(ids)) == 200
    assert any(line.endswith(",,,,,") for line in faces)
    ok = auc_dsf >= 0.95 and auc_sf >= 0.90 and auc_dsf >= auc_sf and elapsed < 900.0
    _report(
        "criterion 7: end-to-end desk-scale quality",
        ok,
        f"deepsegface auc {auc_dsf:.4f} >= 0.95, segface auc {auc_sf:.4f} >= 0.90, "
        f"ordering {auc_dsf:.4f} >= {auc_sf:.4f}, {elapsed:.0f}s < 900s",
    )


def test_criterion_6_bottleneck_inequality(pipeline):
    root, _ = pipeline
    # eval already asserts this bound internally; re-check from the emitted CSVs
    for model in ("deepsegface", "segface"):
        summary = _read_summary(root / f"reports/eval_{model}_test/summary.csv")
        coverage = summary["coverage_0.5"]
        curve = (root / f"reports/eval_{model}_test/curve.csv").read_text().splitlines()[1:]
        max_tar = max(float(line.split(",")[1]) for line in curve)
        assert max_tar <= coverage + 1e-9
    # and as a randomized property on detections drawn from proposal sets
    rng = np.random.default_rng(3)
    from segdet.evaluate import coverage_upper_bound, check_bottleneck

    t = BoxI(0, 0, 10, 10)
    proposals, truths, results = {}, {}, []
    for i in range(40):
        img = f"i{i}"
        truths[img] = t if i % 4 else None
        plist = [BoxI(int(rng.integers(0, 12)), int(rng.integers(0, 6)), 10, 10) for _ in range(5)]
        proposals[img] = plist
        results.append(
            ImageResult(img, truths[img], (plist[int(rng.integers(5))], float(rng.uniform())))
        )
    cov, _ = coverage_upper_bound(proposals, truths, 0.5)
    pts = roc_curve(results)
    check_bottleneck(pts, cov)
    _report("criterion 6: TAR bounded by proposal coverage", True)


def test_criterion_9_proposal_density(pipeline):
    root, _ = pipeline
    by_image = import_proposals(root / "reports/proposals_train.csv")
    n_images = len((root / "data/train/annotations.csv").read_text().splitlines())
    total = sum(len(v) for v in by_image.values())
    mean = total / n_images
    _report(
        "criterion 9: proposal density in [5, 30]",
        5.0 <= mean <= 30.0,
        f"{mean:.2f} proposals/image",
    )


# --- 8. determinism --------------------------------------------------------------

DET_CONFIG = """\
seed = 55
synth.train_count = 90
synth.test_count = 45
net.epochs = 3
svm.epochs = 8
weak.rounds = 16
weak.pool_size = 800
"""


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        cfg_path = root / "run.cfg"
        cfg_path.write_text(DET_CONFIG)
        c = str(cfg_path)
        _run(["synth", "--config", c])
        _run(["train-weak", "--config", c])
        _run(["detect-segments", "--config", c, "--split", "train"])
        _run(["gen-proposals", "--config", c, "--split", "train"])
        _run(["train-segface", "--config", c])
        _run(["train-deepsegface", "--config", c])
        _run(["detect", "--config", c, "--model", "deepsegface", "--split", "test"])
        _run(["eval", "--config", c, "--model", "deepsegface", "--split", "test"])
        digests = {
            rel: _digest(root / rel)
            for rel in (
                "models/weakdet.txt",
                "models/segface.txt",
                "models/deepsegface.txt",
                "reports/detections_train.csv",
                "reports/proposals_train.csv",
                "reports/faces_deepsegface_test.csv",
                "reports/eval_deepsegface_test/curve.csv",
                "reports/eval_deepsegface_test/summary.csv",
            )
        }
        outputs.append(digests)
    mismatched = [k for k in outputs[0] if outputs[0][k] != outputs[1][k]]
    _report(
        "criterion 8: byte-identical reruns",
        not mismatched,
        "all artifacts identical" if not mismatched else f"differ: {mismatched}",
    )
