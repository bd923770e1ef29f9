"""SegFace: per-segment HoG + linear SVM scorers and a master SVM.

Each segment kind gets a linear SVM over the HoG descriptor of the segment
patch at its canonical size. A proposal becomes a 3M+2 vector: the M
per-segment margins (zero for absent segments) followed by the 2M+2 prior
features; the master SVM's margin on that vector is the proposal score.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateLabelsError,
    DimensionMismatchError,
    ParseError,
    PatchTooSmallError,
)
from .imaging import GrayImageF, extract_patch
from .priors import PriorTable, build_priors, prior_features, priors_from_entries, priors_to_entries
from .proposals import LabeledProposal, Proposal, segment_rows
from .segments import (
    ALL_KINDS,
    NUM_KINDS,
    SegmentKind,
    SegmentLayout,
    kind_name,
    layout_from_entries,
    layout_to_entries,
)
from .seeding import derive_seed
from . import store

FEATURE_LEN = 3 * NUM_KINDS + 2  # 29 for the nine-segment taxonomy


@dataclass(frozen=True)
class HogParams:
    cell: int = 8  # pixels per cell side
    block: int = 2  # cells per block side
    bins: int = 9  # unsigned orientation bins over [0, 180)
    block_stride: int = 1  # cells between block origins
    clip: float = 0.2  # L2-Hys clipping value

    def __post_init__(self):
        for name, low in (("cell", 2), ("block", 1), ("bins", 2), ("block_stride", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not (0.0 < self.clip <= 1.0):
            raise ValueError(f"clip must be in (0, 1], got {self.clip}")


def _cell_grid(h: int, w: int, p: HogParams) -> tuple[int, int]:
    """Cells down and across an h x w patch; PatchTooSmallError unless each
    side holds a block."""
    ncy, ncx = h // p.cell, w // p.cell
    if ncy < p.block or ncx < p.block:
        raise PatchTooSmallError(
            f"patch {h}x{w} yields {ncy}x{ncx} cells; need at least {p.block} per side"
        )
    return ncy, ncx


def hog_length(h: int, w: int, p: HogParams) -> int:
    """The length of `hog` on an h x w patch."""
    ncy, ncx = _cell_grid(h, w, p)
    nby = (ncy - p.block) // p.block_stride + 1
    nbx = (ncx - p.block) // p.block_stride + 1
    return nby * nbx * p.block * p.block * p.bins


def hog(patch: GrayImageF, params: HogParams = HogParams()) -> np.ndarray:
    """Histogram of oriented gradients with L2-Hys block normalization.

    Central-difference gradients, unsigned orientations with linear vote
    interpolation between neighboring bins, per-cell histograms, overlapping
    blocks normalized, clipped and renormalized, concatenated row-major.
    """
    img = patch.data
    p = params
    ncy, ncx = _cell_grid(*img.shape, p)
    gy, gx = np.gradient(img)
    mag = np.hypot(gx, gy)
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0

    hy, hx = ncy * p.cell, ncx * p.cell
    mag = mag[:hy, :hx]
    ang = ang[:hy, :hx]
    binw = 180.0 / p.bins
    pos = ang / binw - 0.5
    b0 = np.floor(pos)
    frac = pos - b0
    b0 = b0.astype(np.intp) % p.bins
    b1 = (b0 + 1) % p.bins

    # both votes of every pixel in one pass over flat (cell, bin) indices:
    # lower bins in pixel order, then upper bins
    cell = (np.arange(hy) // p.cell)[:, None] * ncx + np.arange(hx) // p.cell
    index = np.concatenate([(cell * p.bins + b0).ravel(), (cell * p.bins + b1).ravel()])
    votes = np.concatenate([(mag * (1.0 - frac)).ravel(), (mag * frac).ravel()])
    hist = np.bincount(index, votes, ncy * ncx * p.bins).reshape(ncy, ncx, p.bins)

    win = np.lib.stride_tricks.sliding_window_view(hist, (p.block, p.block), axis=(0, 1))
    win = win[:: p.block_stride, :: p.block_stride]
    nby, nbx = win.shape[0], win.shape[1]
    blocks = win.transpose(0, 1, 3, 4, 2).reshape(nby, nbx, -1)
    eps = 1e-9
    norms = np.sqrt((blocks**2).sum(axis=2, keepdims=True))
    blocks = blocks / (norms + eps)
    blocks = np.minimum(blocks, p.clip)
    norms = np.sqrt((blocks**2).sum(axis=2, keepdims=True))
    blocks = blocks / (norms + eps)
    return blocks.reshape(-1)


@dataclass
class LinearModel:
    """Weight vector plus bias for any linear classifier."""

    weights: np.ndarray
    bias: float

    @property
    def dim(self) -> int:
        return len(self.weights)

    def score(self, x: np.ndarray) -> float:
        return float(self.weights @ x + self.bias)

    @classmethod
    def zero(cls, dim: int) -> "LinearModel":
        return cls(np.zeros(dim, dtype=np.float64), 0.0)


def train_linear_svm(
    X: np.ndarray, y: np.ndarray, lam: float = 1e-4, epochs: int = 20, seed: int = 0
) -> LinearModel:
    """Primal hinge-loss SVM by stochastic subgradient descent with the
    1/(lam*t) step schedule and a deterministic per-epoch shuffle.

    The bias rides along as a constant augmented feature (so it is stepped
    and regularized like the weights), and the returned model averages the
    second half of the iterate path, which damps the raw path's oscillation.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise DimensionMismatchError(f"X {X.shape} does not align with y {y.shape}")
    if len(X) < 2:
        raise DegenerateLabelsError("need at least 2 samples")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise DegenerateLabelsError("both classes must be present")
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    rng = np.random.Generator(np.random.PCG64(seed))
    w = np.zeros(d + 1, dtype=np.float64)
    w_sum = np.zeros(d + 1, dtype=np.float64)
    kept = 0
    total = epochs * n
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = y[i] * (w @ Xa[i])
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * y[i] * Xa[i]
            if 2 * t > total:
                w_sum += w
                kept += 1
    avg = w_sum / kept
    return LinearModel(avg[:d], float(avg[d]))


@dataclass
class SegFaceModel:
    hog_params: HogParams
    per_segment: dict[SegmentKind, LinearModel]
    master: LinearModel
    priors: PriorTable
    layout: SegmentLayout


def _segment_hog(image: GrayImageF, det, layout: SegmentLayout, params: HogParams) -> np.ndarray:
    h, w = layout.canonical[det.kind]
    return hog(extract_patch(image, det.box, h, w), params)


def build_feature_vector(
    p: Proposal,
    model: SegFaceModel,
    image: GrayImageF,
    cache: dict | None = None,
) -> np.ndarray:
    """The 3M+2 vector: per-segment SVM margins (0 for absent kinds) followed
    by the prior features. `cache` memoises each segment's margin under this
    model, keyed on (source image, kind, box), so a dict may span images but
    not models."""
    memo = {} if cache is None else cache
    out = np.zeros(FEATURE_LEN, dtype=np.float64)
    for kind, det in p.segments.items():
        key = (p.source_image, int(kind), det.box.astuple())
        if key not in memo:
            memo[key] = model.per_segment[kind].score(_segment_hog(image, det, model.layout, model.hog_params))
        out[int(kind)] = memo[key]
    out[NUM_KINDS:] = prior_features(p, model.priors)
    return out


def score_proposal_segface(
    p: Proposal, model: SegFaceModel, image: GrayImageF, cache: dict | None = None
) -> float:
    """Master SVM margin; higher means more face-like."""
    return model.master.score(build_feature_vector(p, model, image, cache))


def detect(model: SegFaceModel, image: GrayImageF, proposals: list[Proposal]):
    """Argmax detection: (box, score) of the highest-scoring proposal, or None
    without proposals. The margin cache lives for this one call (one image)."""
    if not proposals:
        return None
    cache: dict = {}
    scores = [score_proposal_segface(p, model, image, cache) for p in proposals]
    best = int(np.argmax(scores))
    return proposals[best].box, float(scores[best])


def train_segface(
    labeled: list[LabeledProposal],
    images: dict[str, GrayImageF],
    layout: SegmentLayout,
    hog_params: HogParams = HogParams(),
    lam: float = 1e-4,
    epochs: int = 20,
    seed: int = 0,
) -> SegFaceModel:
    """Two-stage training, one HoG and one margin per `segment_rows` row.

    Stage 1 trains one SVM per segment kind on HoG of that kind's patches,
    face proposals against non-face proposals containing the kind; a kind
    with fewer than two classes of patches falls back to the zero model.
    Stage 2 builds the 3M+2 vectors for every training proposal and trains
    the master SVM. Priors come from the same training proposals.
    """
    priors = build_priors(labeled)  # raises DegenerateTrainingSetError when one class is empty
    proposals = [lp.proposal for lp in labeled]
    y = np.array([1.0 if lp.is_face else -1.0 for lp in labeled])
    F = np.zeros((len(labeled), FEATURE_LEN), dtype=np.float64)
    per_segment: dict[SegmentKind, LinearModel] = {}
    for kind in ALL_KINDS:
        row_of, firsts = segment_rows(proposals, kind)
        present = row_of < len(firsts)
        ys = y[present]
        if len(ys) < 2 or not (np.any(ys > 0) and np.any(ys < 0)):
            # absent-class fallback: the zero model, whose margins F keeps at 0
            per_segment[kind] = LinearModel.zero(hog_length(*layout.canonical[kind], hog_params))
            continue
        segs = [proposals[i] for i in firsts]
        X = np.stack([_segment_hog(images[p.source_image], p.segments[kind], layout, hog_params) for p in segs])
        svm = train_linear_svm(X[row_of[present]], ys, lam, epochs, derive_seed(seed, "segsvm", kind_name(kind)))
        per_segment[kind] = svm
        F[present, int(kind)] = np.array([svm.score(x) for x in X])[row_of[present]]
    for i, p in enumerate(proposals):
        F[i, NUM_KINDS:] = prior_features(p, priors)
    master = train_linear_svm(F, y, lam, epochs, derive_seed(seed, "master"))
    return SegFaceModel(hog_params, per_segment, master, priors, layout)


# --- model file --------------------------------------------------------------

SEGFACE_MAGIC = "SEGFACE-MODEL v1"


def _linear_entries(m: LinearModel) -> list[tuple[str, str]]:
    return [("dim", str(m.dim)), ("bias", repr(m.bias)), ("weights", store.floats_to_text(m.weights))]


def save_segface(model: SegFaceModel, path) -> None:
    hp = model.hog_params
    sections = [("hog", [(f.name, repr(getattr(hp, f.name))) for f in fields(HogParams)])]
    for kind in ALL_KINDS:
        sections.append((f"svm kind={kind_name(kind)}", _linear_entries(model.per_segment[kind])))
    sections.append(("master", _linear_entries(model.master)))
    sections.append(("priors", priors_to_entries(model.priors)))
    sections.append(("layout", layout_to_entries(model.layout)))
    store.write_sections(path, SEGFACE_MAGIC, sections)


def _linear_model(entries: dict[str, str], where: str, dim: int) -> LinearModel:
    (bias,) = store.entry(entries, "bias", (float,), where)
    weights = store.entry(entries, "weights", float, where)
    if store.entry(entries, "dim", (int,), where) != [dim] or len(weights) != dim:
        raise ParseError(f"{where}: dim and weights must match the input length {dim}")
    return LinearModel(np.array(weights, dtype=np.float64), bias)


def load_segface(path) -> SegFaceModel:
    """Read a SegFace model file. Each kind's canonical patch must hold a HoG
    block, each segment SVM must have the HoG length of that patch and the
    master FEATURE_LEN weights, or ParseError names the entry."""
    section = store.model_sections(path, SEGFACE_MAGIC)
    entries, where = section("hog")
    values = [store.entry(entries, f.name, (type(f.default),), where)[0] for f in fields(HogParams)]
    with store.checked(where):
        hog_params = HogParams(*values)
    entries, where = section("layout")
    layout = layout_from_entries(entries, where)
    dims = {}
    for kind in ALL_KINDS:
        try:
            dims[kind] = hog_length(*layout.canonical[kind], hog_params)
        except PatchTooSmallError as exc:
            raise ParseError(f"{where} {kind_name(kind)}: {exc}") from None
    per_segment = {kind: _linear_model(*section(f"svm kind={kind_name(kind)}"), dims[kind]) for kind in ALL_KINDS}
    master = _linear_model(*section("master"), FEATURE_LEN)
    return SegFaceModel(hog_params, per_segment, master, priors_from_entries(*section("priors")), layout)
