"""The benchmark's tracer wraps segdet attributes by name, and its runs write
and parse their own configs; a refactor that drops or renames what either uses
must fail here, not only in a benchmark run."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from segdet import deepsegface as dsf, neuralnet, segface, weakdet
from segdet.config import parse_config
from segdet.imaging import BoxI
from segdet.priors import build_priors
from segdet.segments import ALL_KINDS, SegmentKind

from conftest import gray, mk_labeled

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    owners = [(owner, attr) for _, targets, _ in tracing.TARGETS for owner, attr in targets]
    before = [owner.__dict__[attr] for owner, attr in owners]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(owners, before))
        tracing.imaging.integral(gray(np.ones((4, 5))))
    assert [owner.__dict__[attr] for owner, attr in owners] == before
    assert [span[0] for span in tracer.spans] == ["imaging.integral"]


def test_benchmark_configs_parse(monkeypatch, tmp_path):
    """A run's constructor writes and parses its configs; nothing is synthesized or trained."""
    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module("workload")
    run = workload.Run(tmp_path, "train", 1)
    assert run.cfg.net.epochs == workload.EPOCHS
    assert parse_config(tmp_path / "weak.cfg").paths.data == "data_weak"


def test_traced_conv_counts_its_flops(monkeypatch):
    """`_conv_flops` reads the forward's input as NCHW: one same-padded 3x3
    conv counts 2*N*H*W*out_c*in_c*k*k forward and twice that backward."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    n, in_c, h, w, out_c, k = 2, 3, 5, 7, 4, 3
    rng = np.random.default_rng(0)
    conv = neuralnet.Conv2D(in_c, out_c, k, "same", rng=rng)
    x = rng.normal(size=(n, in_c, h, w))
    tracer = tracing.Tracer()
    with tracer.installed():
        conv.backward(x, conv.forward(x))
    flops = 2 * n * h * w * out_c * in_c * k * k * 1e-9
    metrics = tracer.layer_metrics()
    assert metrics["neuralnet.conv_fwd_gflop"] == pytest.approx(flops, rel=1e-12)
    assert metrics["neuralnet.conv_bwd_gflop"] == pytest.approx(2 * flops, rel=1e-12)


def _scan_args():
    """`detect_segments` arguments: a frame, two small detectors, three rungs."""
    stumps = [
        weakdet.Stump(weakdet.HaarFeature(weakdet.HAAR_TWO_H, BoxI(0, 0, 8, 6)), 0.0, 1, 0.5),
        weakdet.Stump(weakdet.HaarFeature(weakdet.HAAR_TWO_V, BoxI(1, 0, 5, 6)), 0.0, -1, 0.25),
    ]
    eye = weakdet.BoostedDetector(SegmentKind.EYE, 8, 6, stumps, 0.5)
    nose = weakdet.BoostedDetector(SegmentKind.NOSE, 6, 10, stumps[1:], 0.25)
    img = gray(np.random.default_rng(3).uniform(0, 1, (30, 41)))
    return (img, [eye, nose], [1.0, 1.5, 3.5], 3, 0.5)


def test_traced_scan_resizes_and_integrates_each_rung(monkeypatch):
    """The pyramid calls `resize_bilinear` and `integral` once per rung through
    `weakdet`'s globals, so `imaging.resize_s` and `integral_s` see the scan."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    args = _scan_args()
    tracer = tracing.Tracer()
    with tracer.installed():
        weakdet.detect_segments(*args)
    names = [span[0] for span in tracer.spans]
    assert names.count("weakdet.detect_segments") == 1
    assert names.count("imaging.resize_bilinear") == names.count("imaging.integral") == len(args[2])


def test_scan_counts_match_the_scan(monkeypatch):
    """`_scan_counts` reads `detect_segments`'s positional arguments: its window
    count is the per-rung grids' sum and its detection count the result's length."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    args = _scan_args()
    out = weakdet.detect_segments(*args)
    counts = {"weakdet.windows": 0, "weakdet.detections": 0}
    tracing._scan_counts(counts, args, {}, out)
    # every window of one rung, from a scan that accepts and keeps them all
    windows = 0
    for s in args[2]:
        everything = [weakdet.BoostedDetector(d.kind, d.window_w, d.window_h, d.stumps, -np.inf) for d in args[1]]
        windows += len(weakdet.detect_segments(args[0], everything, [s], args[3], 1.0))
    assert counts["weakdet.windows"] == windows > 0
    assert counts["weakdet.detections"] == len(out) > 0


def test_benchmark_frame_chain_runs_both_models(monkeypatch, tmp_path):
    """A run's `detect_frame` calls the scan, the proposal steps and both
    classifiers with the call shapes the benchmark uses, on tiny hand-made
    models: three detectors whose half-face windows imply the same face boxes."""
    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module("workload")
    run = workload.Run(tmp_path, "train", 1)
    rng = np.random.default_rng(2)

    def detector(kind, w, h):
        stump = weakdet.Stump(weakdet.HaarFeature(weakdet.HAAR_TWO_H, BoxI(0, 0, w, h)), 0.0, 1, 0.5)
        return weakdet.BoostedDetector(kind, w, h, [stump], 0.5)

    def linear(dim):
        return segface.LinearModel(rng.normal(size=dim), float(rng.normal()))

    kinds = (SegmentKind.L12, SegmentKind.R12, SegmentKind.U12)
    priors = build_priors([mk_labeled(kinds, True), mk_labeled(kinds[1:], False), mk_labeled(kinds[:2], True)])
    hp, layout = run.cfg.hog, run.layout
    per_segment = {k: linear(segface.hog_length(*layout.canonical[k], hp)) for k in ALL_KINDS}
    sf = segface.SegFaceModel(hp, per_segment, linear(segface.FEATURE_LEN), priors, layout)
    net = dsf.build_network(dsf.network_config("toy", layout, "float32"), seed=3)
    net.priors = priors
    models = workload.Models([detector(kinds[0], 8, 16), detector(kinds[1], 8, 16), detector(kinds[2], 16, 8)], sf, net)
    # 48x36 keeps the scan's quadratic NMS small
    frame = workload.Frame("f.pgm", gray(rng.uniform(0, 1, (36, 48))), None)
    result = run.detect_frame(models, frame)
    boxes = {workload._box(p.box) for p in result.proposals}
    assert boxes and all(pick is not None and pick[0] in boxes for pick in result.picks.values())
    box, score = segface.detect(sf, frame.image, result.proposals)
    assert result.picks["segface"] == (workload._box(box), score)
