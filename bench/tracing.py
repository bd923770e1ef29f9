"""Spans around segdet's layers, recorded from the benchmark's side.

The tracer replaces public functions and layer methods where their callers
look them up (a module attribute such as ``weakdet.integral``, which
``detect_segments`` reads from its own module globals, or a class method such
as ``Conv2D.forward``) with wrappers that record one span per call: name,
start, end and the index of the enclosing span. Spans stay in memory; a
layer's self time is its duration minus the time its child spans cover.
Nothing in the program is edited: leaving ``installed()`` restores every
original attribute.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import defaultdict

from segdet import cli, evaluate, imaging, neuralnet, priors, proposals, segface, store, synth, weakdet
from segdet import deepsegface


# --- counts taken from a call's arguments and result --------------------------


def _scan_counts(counts, args, kwargs, out):
    """Detections, and the detector windows one scan evaluates, from frame
    size, scales, stride and window size (the grid ``detect_segments`` builds)."""
    img, detectors, scales, stride = args[:4]
    for s in scales:
        out_w = max(1, int(round(img.width / s)))
        out_h = max(1, int(round(img.height / s)))
        for det in detectors:
            if out_w >= det.window_w and out_h >= det.window_h:
                nx = len(range(0, out_w - det.window_w + 1, stride))
                ny = len(range(0, out_h - det.window_h + 1, stride))
                counts["weakdet.windows"] += nx * ny
    counts["weakdet.detections"] += len(out)


def _clusters(counts, args, kwargs, out):
    counts["proposals.clusters"] += len(out)


def _generated(counts, args, kwargs, out):
    counts["proposals.generated"] += len(out)


def _labeled(counts, args, kwargs, out):
    counts["proposals.labeled"] += len(out)
    counts["proposals.faces"] += sum(1 for lp in out if lp.is_face)


def _segments_looked_up(counts, args, kwargs, out):
    counts["segface.segments_looked_up"] += len(args[0].segments)


def _conv_flops(layer, x):
    n, _, h, w = x.shape
    k = layer.k
    oh, ow = (h, w) if layer.padding == "same" or k == 1 else (h - k + 1, w - k + 1)
    return 2.0 * n * oh * ow * layer.out_c * layer.in_c * k * k


def _conv_fwd(counts, args, kwargs, out):
    counts["neuralnet.conv_fwd_flop"] += _conv_flops(args[0], args[1])


def _conv_bwd(counts, args, kwargs, out):
    # weight gradient and input gradient are one forward-sized product each
    counts["neuralnet.conv_bwd_flop"] += 2.0 * _conv_flops(args[0], args[1])


def _train_samples(counts, args, kwargs, out):
    labeled, params = args[1], args[3]
    steps = max(1, math.ceil(len(labeled) / params.batch))
    counts["deepsegface.train_samples"] += params.epochs * steps * params.batch


def _scored(counts, args, kwargs, out):
    counts["deepsegface.scored_proposals"] += len(args[2])


# (span name, [(owner, attribute), ...], count callback). Every owner through
# which a caller reaches the function is listed, because `from x import f`
# binds f into the importing module.
TARGETS = [
    ("weakdet.detect_segments", [(weakdet, "detect_segments")], _scan_counts),
    ("weakdet.train_boosted", [(weakdet, "train_boosted")], None),
    ("imaging.load_image", [(imaging, "load_image"), (cli, "load_image")], None),
    ("imaging.resize_bilinear", [(imaging, "resize_bilinear"), (weakdet, "resize_bilinear"), (cli, "resize_bilinear")], None),
    ("imaging.integral", [(imaging, "integral"), (weakdet, "integral")], None),
    ("imaging.extract_patch", [(imaging, "extract_patch"), (segface, "extract_patch"), (deepsegface, "extract_patch")], None),
    ("proposals.cluster_detections", [(proposals, "cluster_detections")], None),
    ("proposals.dedupe_clusters", [(proposals, "dedupe_clusters")], _clusters),
    ("proposals.generate_proposals", [(proposals, "generate_proposals")], _generated),
    ("proposals.label_proposals", [(proposals, "label_proposals")], _labeled),
    ("priors.build_priors", [(priors, "build_priors"), (segface, "build_priors"), (deepsegface, "build_priors")], None),
    ("priors.prior_features", [(priors, "prior_features"), (segface, "prior_features")], None),
    ("priors.rerank_multiplier", [(priors, "rerank_multiplier"), (deepsegface, "rerank_multiplier")], None),
    ("segface.hog", [(segface, "hog")], None),
    ("segface.build_feature_vector", [(segface, "build_feature_vector")], _segments_looked_up),
    ("segface.train_linear_svm", [(segface, "train_linear_svm")], None),
    ("segface.score_proposal_segface", [(segface, "score_proposal_segface")], None),
    ("Conv2D.forward", [(neuralnet.Conv2D, "forward")], _conv_fwd),
    ("Conv2D.backward", [(neuralnet.Conv2D, "backward")], _conv_bwd),
    ("MaxPool2.forward", [(neuralnet.MaxPool2, "forward")], None),
    ("MaxPool2.backward", [(neuralnet.MaxPool2, "backward")], None),
    ("FC.forward", [(neuralnet.FC, "forward")], None),
    ("FC.backward", [(neuralnet.FC, "backward")], None),
    ("ReLU.forward", [(neuralnet.ReLU, "forward")], None),
    ("ReLU.backward", [(neuralnet.ReLU, "backward")], None),
    ("Softmax.forward", [(neuralnet.Softmax, "forward")], None),
    ("Softmax.backward", [(neuralnet.Softmax, "backward")], None),
    ("neuralnet.sgd_step", [(neuralnet, "sgd_step"), (deepsegface, "sgd_step")], None),
    ("deepsegface.train", [(deepsegface, "train")], _train_samples),
    ("deepsegface.detect", [(deepsegface, "detect")], _scored),
    ("store.read_sections", [(store, "read_sections")], None),
    ("store.write_sections", [(store, "write_sections")], None),
    ("evaluate.roc_auc", [(evaluate, "roc_auc")], None),
    ("evaluate.coverage_upper_bound", [(evaluate, "coverage_upper_bound")], None),
    ("synth.synth_generate", [(synth, "synth_generate")], None),
]

# Per-layer time metrics: wall time inside spans of these names, counting a
# span only when no enclosing span belongs to the same metric. The benchmark
# itself opens the cli.* spans around each `segdet` command it runs.
TIME_METRICS = {
    "weakdet.scan_s": ["weakdet.detect_segments"],
    "weakdet.train_boosted_s": ["weakdet.train_boosted"],
    "imaging.load_s": ["imaging.load_image"],
    "imaging.resize_s": ["imaging.resize_bilinear"],
    "imaging.integral_s": ["imaging.integral"],
    "imaging.extract_patch_s": ["imaging.extract_patch"],
    "proposals.cluster_s": ["proposals.cluster_detections", "proposals.dedupe_clusters"],
    "proposals.generate_s": ["proposals.generate_proposals"],
    "proposals.label_s": ["proposals.label_proposals"],
    "priors.s": ["priors.build_priors", "priors.prior_features", "priors.rerank_multiplier"],
    "segface.hog_s": ["segface.hog"],
    "segface.svm_train_s": ["segface.train_linear_svm"],
    "segface.score_s": ["segface.score_proposal_segface"],
    "neuralnet.conv_fwd_s": ["Conv2D.forward"],
    "neuralnet.conv_bwd_s": ["Conv2D.backward"],
    "neuralnet.pool_fwd_s": ["MaxPool2.forward"],
    "neuralnet.pool_bwd_s": ["MaxPool2.backward"],
    "neuralnet.fc_fwd_s": ["FC.forward"],
    "neuralnet.fc_bwd_s": ["FC.backward"],
    "neuralnet.elementwise_s": ["ReLU.forward", "ReLU.backward", "Softmax.forward", "Softmax.backward"],
    "neuralnet.sgd_s": ["neuralnet.sgd_step"],
    "deepsegface.train_s": ["deepsegface.train"],
    "deepsegface.score_s": ["deepsegface.detect"],
    "store.read_s": ["store.read_sections"],
    "store.write_s": ["store.write_sections"],
    "evaluate.s": ["evaluate.roc_auc", "evaluate.coverage_upper_bound"],
    "synth.generate_s": ["synth.synth_generate"],
    "cli.train_weak_s": ["cli.train-weak"],
    "cli.detect_segments_s": ["cli.detect-segments"],
    "cli.gen_proposals_s": ["cli.gen-proposals"],
    "cli.train_segface_s": ["cli.train-segface"],
    "cli.train_deepsegface_s": ["cli.train-deepsegface"],
}


class Tracer:
    """In-memory span recorder. Spans are [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, owners, count in TARGETS:
                for owner, attr in owners:
                    fn = owner.__dict__[attr]
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(name, fn, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # --- reading the spans back --------------------------------------------

    def _by_name(self) -> dict[str, list[list]]:
        groups: dict[str, list[list]] = defaultdict(list)
        for s in self.spans:
            groups[s[0]].append(s)
        return groups

    def _time(self, groups, names) -> float:
        names = set(names)
        total = 0.0
        for _, start, end, parent in (s for n in names for s in groups.get(n, [])):
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (total minus children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return table

    def layer_metrics(self) -> dict[str, float]:
        groups = self._by_name()
        m = {name: self._time(groups, span_names) for name, span_names in TIME_METRICS.items()}
        c = self.counts

        def calls(name):
            return len(groups.get(name, []))

        def ratio(a, b):
            return a / b if b else 0.0

        scans = calls("weakdet.detect_segments")
        m["weakdet.scan_ms_per_frame"] = 1000.0 * ratio(m["weakdet.scan_s"], scans)
        m["weakdet.windows"] = c["weakdet.windows"]
        m["weakdet.windows_per_s"] = ratio(c["weakdet.windows"], m["weakdet.scan_s"])
        m["weakdet.detections"] = c["weakdet.detections"]
        m["imaging.resize_calls"] = calls("imaging.resize_bilinear")
        m["imaging.extract_patch_calls"] = calls("imaging.extract_patch")
        m["proposals.clusters"] = c["proposals.clusters"]
        m["proposals.per_frame"] = ratio(c["proposals.generated"], calls("proposals.generate_proposals"))
        m["proposals.face_fraction"] = ratio(c["proposals.faces"], c["proposals.labeled"])
        m["segface.hog_calls"] = calls("segface.hog")
        m["segface.hog_per_segment"] = ratio(m["segface.hog_calls"], c["segface.segments_looked_up"])
        m["neuralnet.conv_fwd_gflop"] = c["neuralnet.conv_fwd_flop"] / 1e9
        m["neuralnet.conv_bwd_gflop"] = c["neuralnet.conv_bwd_flop"] / 1e9
        m["deepsegface.train_samples"] = c["deepsegface.train_samples"]
        m["deepsegface.train_samples_per_s"] = ratio(c["deepsegface.train_samples"], m["deepsegface.train_s"])
        m["deepsegface.scored_proposals"] = c["deepsegface.scored_proposals"]
        return m

    def write(self, path) -> None:
        """Spans (names interned), the self-time table and the counts, as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "spans": [[index[n], round(a - t0, 7), round(b - t0, 7), p] for n, a, b, p in self.spans],
            "self_times": self.self_times(),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
