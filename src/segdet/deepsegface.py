"""DeepSegFace: one convolutional column per segment kind, 1x1 dimension
reduction, concatenation, a fully connected head that ends at two logits
(trained by softmax cross-entropy), and prior-based re-ranking of the face
probability, the logistic of the logit margin.

Training and inference share the row rule of `proposals.segment_rows`, which
SegFace uses too. The column inputs of a proposal list form one table per
kind: one row per distinct present segment (source image, box), then one
exactly-zero row (applied after mean subtraction) if some proposal lacks the
kind. A batch is each proposal's row per kind; each column runs once on the
batch's distinct rows and every proposal reads its output row. An identical
box gives an identical input, and a column's output row depends only on its
input row, so sharing is bit-identical to evaluating each proposal alone.
Backward sums the gradients of the proposals that read a row, the zero row
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigShapeError, DegenerateTrainingSetError, ParseError
from .imaging import GrayImageF, extract_patch
from .neuralnet import FC, Conv2D, MaxPool2, ReLU, backward, forward, sgd_step, xent
from .priors import PriorTable, build_priors, priors_from_entries, priors_to_entries, rerank_multiplier
from .proposals import LabeledProposal, Proposal, segment_rows
from .segments import ALL_KINDS, SegmentKind, SegmentLayout, kind_name
from .segments import layout_from_entries, layout_to_entries
from .seeding import derive_seed
from . import store


@dataclass(frozen=True)
class ConvBlock:
    channels: int
    convs: int = 1
    pool: bool = True


@dataclass(frozen=True)
class NetworkConfig:
    """A preset's layer-graph parameters; its layout's canonical sizes are the column inputs."""

    scale: str
    channels: int
    layout: SegmentLayout
    blocks: tuple[ConvBlock, ...]
    reduce_maps: int
    fc_units: int
    classes: int = 2
    mean_pixel: float = 117.0  # on the 0..255 sample scale
    dtype: str = "float64"  # compute/parameter precision; float32 for speed

    def feature_grid(self, kind: SegmentKind) -> tuple[int, int]:
        """Spatial dims after the conv blocks (same-padding convs, pool-2 floors)."""
        h, w = self.layout.canonical[kind]
        for blk in self.blocks:
            if blk.pool:
                h, w = h // 2, w // 2
            if h < 1 or w < 1:
                raise ConfigShapeError(
                    f"{kind_name(kind)}: input {self.layout.canonical[kind]} collapses to zero "
                    f"spatial extent inside the column"
                )
        return h, w

    @property
    def feature_channels(self) -> int:
        return self.blocks[-1].channels

    def flatten_size(self, kind: SegmentKind) -> int:
        gh, gw = self.feature_grid(kind)
        return self.reduce_maps * gh * gw

    @property
    def concat_size(self) -> int:
        return sum(self.flatten_size(k) for k in ALL_KINDS)

    def validate(self) -> None:
        """Raise ConfigShapeError naming the first kind whose column collapses."""
        for kind in ALL_KINDS:
            self.feature_grid(kind)


# scale -> (channels, conv blocks, reduce_maps, fc_units): "full" is the paper's
# network (VGG16-style columns), "toy" the small one training and evaluation run.
PRESETS: dict[str, tuple[int, tuple[ConvBlock, ...], int, int]] = {
    "full": (3, (ConvBlock(64, 2), ConvBlock(128, 2), ConvBlock(256, 3), ConvBlock(512, 3), ConvBlock(512, 3)), 50, 250),
    "toy": (1, (ConvBlock(8, 1), ConvBlock(16, 1)), 8, 64),
}
DTYPES = ("float32", "float64")


def network_config(scale: str, layout: SegmentLayout, dtype: str = "float64") -> NetworkConfig:
    """The preset `scale` on `layout`; callers check the names against PRESETS and DTYPES."""
    channels, blocks, reduce_maps, fc_units = PRESETS[scale]
    return NetworkConfig(scale, channels, layout, blocks, reduce_maps, fc_units, dtype=dtype)


@dataclass
class DeepSegFaceModel:
    config: NetworkConfig
    columns: dict[SegmentKind, list]  # conv blocks + 1x1 reduce, per kind
    head: list
    priors: PriorTable | None = None

    def params(self) -> list[np.ndarray]:
        """Every trainable tensor: the columns in kind order, then the head."""
        layers = [layer for kind in ALL_KINDS for layer in self.columns[kind]] + self.head
        return [w for layer in layers for w in layer.params()]


def build_network(config: NetworkConfig, seed: int | None = 0) -> DeepSegFaceModel:
    """Construct all columns and the head, He-initialized from `seed`, or
    zero-filled when `seed` is None (for a reader that sets every parameter)."""
    config.validate()
    dtype = np.dtype(config.dtype)
    columns: dict[SegmentKind, list] = {}
    for kind in ALL_KINDS:
        rng = None if seed is None else np.random.Generator(np.random.PCG64(derive_seed(seed, "column", kind_name(kind))))
        layers = []
        in_c = config.channels
        for blk in config.blocks:
            for _ in range(blk.convs):
                layers.append(Conv2D(in_c, blk.channels, 3, "same", rng=rng, dtype=dtype))
                layers.append(ReLU())
                in_c = blk.channels
            if blk.pool:
                layers.append(MaxPool2())
        layers.append(Conv2D(in_c, config.reduce_maps, 1, "valid", rng=rng, dtype=dtype))
        layers.append(ReLU())
        columns[kind] = layers
    rng = None if seed is None else np.random.Generator(np.random.PCG64(derive_seed(seed, "head")))
    head = [
        FC(config.concat_size, config.fc_units, rng=rng, dtype=dtype),
        ReLU(),
        FC(config.fc_units, config.classes, rng=rng, dtype=dtype),
    ]
    return DeepSegFaceModel(config, columns, head)


FACE_CLASS = 0  # logit index for "face"; the other class is 1 - FACE_CLASS


def _segment_rows(
    model: DeepSegFaceModel, proposals: list[Proposal], images: dict[str, GrayImageF]
) -> dict[SegmentKind, tuple[np.ndarray, np.ndarray]]:
    """Per kind, (inputs, row_of): canonical-size, mean-subtracted patches, one
    per `segment_rows` row, then a zero row if some proposal lacks the kind;
    and each proposal's row."""
    cfg = model.config
    rows = {}
    for kind in ALL_KINDS:
        h, w = cfg.layout.canonical[kind]
        row_of, firsts = segment_rows(proposals, kind)
        x = np.zeros((len(firsts) + (row_of == len(firsts)).any(), cfg.channels, h, w), dtype=cfg.dtype)
        for r, i in enumerate(firsts):
            p = proposals[i]
            patch = extract_patch(images[p.source_image], p.segments[kind].box, h, w).data
            x[r] = (patch - cfg.mean_pixel / 255.0).astype(cfg.dtype, copy=False)  # broadcast over channels
        rows[kind] = (x, row_of)
    return rows


class _BatchState:
    """Bookkeeping for one batched forward pass (used again by backward)."""

    def __init__(self):
        self.column_acts: dict[SegmentKind, list] = {}
        self.row_of: dict[SegmentKind, np.ndarray] = {}
        self.head_acts: list = []


def _forward_batch(
    model: DeepSegFaceModel, rows: dict, pick: np.ndarray | None = None
) -> tuple[np.ndarray, _BatchState]:
    """Logits (N, classes) for the proposals `pick` of a row table
    (all of them by default). Each column runs once on the batch's distinct
    rows, and every proposal reads its output row."""
    cfg = model.config
    state = _BatchState()
    parts = []
    for kind in ALL_KINDS:
        inputs, ids = rows[kind]
        used, row_of = np.unique(ids if pick is None else ids[pick], return_inverse=True)
        acts = forward(model.columns[kind], inputs[used])
        state.column_acts[kind] = acts
        state.row_of[kind] = row_of
        parts.append(acts[-1].reshape(len(used), cfg.flatten_size(kind))[row_of])
    concat = np.concatenate(parts, axis=1)
    state.head_acts = forward(model.head, concat)
    return state.head_acts[-1], state


def _backward_batch(model: DeepSegFaceModel, state: _BatchState, grad_logits: np.ndarray) -> list[np.ndarray]:
    """Parameter gradients aligned with `model.params()`. A column row's
    gradient is the sum over the proposals that read it."""
    head_grads, grad_concat = backward(model.head, state.head_acts, grad_logits)
    grads: list[np.ndarray] = []
    offset = 0
    for kind in ALL_KINDS:
        acts = state.column_acts[kind]
        fsize = model.config.flatten_size(kind)
        g_rows = np.zeros((len(acts[-1]), fsize), dtype=grad_concat.dtype)
        np.add.at(g_rows, state.row_of[kind], grad_concat[:, offset : offset + fsize])
        offset += fsize
        pgrads, _ = backward(model.columns[kind], acts, g_rows.reshape(acts[-1].shape), input_grad=False)
        grads.extend(g for layer_g in pgrads for g in layer_g)
    grads.extend(g for layer_g in head_grads for g in layer_g)
    return grads


def score_proposals(model: DeepSegFaceModel, proposals: list[Proposal], images: dict[str, GrayImageF]) -> np.ndarray:
    """Face probabilities for many proposals, in one batch: the logistic of the
    float64 logit margin, which rounds to 1 only past a margin of about 37."""
    logits, _ = _forward_batch(model, _segment_rows(model, proposals, images))
    margin = logits[:, FACE_CLASS].astype(np.float64) - logits[:, 1 - FACE_CLASS]
    with np.errstate(under="ignore"):  # a margin below about -745 gives 0
        return np.exp(-np.logaddexp(0.0, -margin))


@dataclass(frozen=True)
class TrainParams:
    """DeepSegFace training settings: the run config's `net` section."""

    scale: str = "toy"  # a key of PRESETS
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 10
    batch: int = 32
    dtype: str = "float32"  # training precision; gradient checks use float64

    def __post_init__(self):
        if self.scale not in PRESETS:
            raise ValueError(f"scale must be one of {', '.join(PRESETS)}, got {self.scale!r}")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {', '.join(DTYPES)}, got {self.dtype!r}")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch < 2:
            raise ValueError(f"batch must be >= 2, got {self.batch}")


# per-batch face fraction is clamped to this band to stabilize the head
BALANCE_BAND = (0.25, 0.75)


def train(
    model: DeepSegFaceModel,
    labeled: list[LabeledProposal],
    images: dict[str, GrayImageF],
    params: TrainParams = TrainParams(),
    seed: int = 0,
) -> list[float]:
    """Minibatch SGD on cross-entropy over labeled proposals.

    Proposals are segment subsets, so columns see their inputs dropping out
    naturally; no synthetic input noise is added. Batches are sampled with
    the face fraction clamped into the balance band. Returns the per-epoch
    mean loss trace; attaches priors built from the training proposals.
    """
    model.priors = build_priors(labeled)  # raises DegenerateTrainingSetError unless both classes occur
    faces = [i for i, lp in enumerate(labeled) if lp.is_face]
    nonfaces = [i for i, lp in enumerate(labeled) if not lp.is_face]
    rows = _segment_rows(model, [lp.proposal for lp in labeled], images)
    rng = np.random.Generator(np.random.PCG64(seed))
    ratio = min(max(len(faces) / len(labeled), BALANCE_BAND[0]), BALANCE_BAND[1])
    n_face = min(max(int(round(params.batch * ratio)), 1), params.batch - 1)

    trainable = model.params()
    velocity = [np.zeros_like(w) for w in trainable]
    labels = np.array([FACE_CLASS if lp.is_face else 1 - FACE_CLASS for lp in labeled])
    steps = max(1, math.ceil(len(labeled) / params.batch))
    trace = []
    for _ in range(params.epochs):
        epoch_loss = 0.0
        for _ in range(steps):
            pick = np.concatenate(
                [
                    rng.choice(np.array(faces), size=n_face, replace=True),
                    rng.choice(np.array(nonfaces), size=params.batch - n_face, replace=True),
                ]
            )
            logits, state = _forward_batch(model, rows, pick)
            loss, glogits = xent(logits, labels[pick])
            epoch_loss += loss
            grads = _backward_batch(model, state, glogits)
            sgd_step(trainable, grads, velocity, params.lr, params.momentum, params.weight_decay)
        trace.append(epoch_loss / steps)
    return trace


def detect(
    model: DeepSegFaceModel,
    image: GrayImageF,
    proposals: list[Proposal],
    cache: dict | None = None,
):
    """Re-ranked argmax detection: score = p_face * prior multiplier.

    Returns (box, score) of the winning proposal, or None without proposals.
    `cache` is unused; it keeps the signature callers already pass.
    """
    if not proposals:
        return None
    if model.priors is None:
        raise DegenerateTrainingSetError("model has no priors; train or load before detecting")
    images = {p.source_image: image for p in proposals}
    pface = score_proposals(model, proposals, images)
    scores = pface * np.array([rerank_multiplier(p, model.priors) for p in proposals])
    best = int(np.argmax(scores))
    return proposals[best].box, float(scores[best])


# --- model file --------------------------------------------------------------

DSF_MAGIC = "DEEPSEGFACE-MODEL v1"


def _config_entries(cfg: NetworkConfig) -> list[tuple[str, str]]:
    entries = [
        ("scale", cfg.scale),
        ("channels", str(cfg.channels)),
        ("blocks", " ".join(f"{b.channels}:{b.convs}:{int(b.pool)}" for b in cfg.blocks)),
        ("reduce_maps", str(cfg.reduce_maps)),
        ("fc_units", str(cfg.fc_units)),
        ("classes", str(cfg.classes)),
        ("mean_pixel", repr(cfg.mean_pixel)),
        ("dtype", cfg.dtype),
    ]
    return entries + [(f"input.{kind_name(k)}", "{} {}".format(*cfg.layout.canonical[k])) for k in ALL_KINDS]


def _named_params(layers: list):
    """(`p<layer>.<param>` key, array) for every parameter of a layer list."""
    for li, layer in enumerate(layers):
        for pi, arr in enumerate(layer.params()):
            yield f"p{li}.{pi}", arr


def _param_entries(layers: list) -> list[tuple[str, str]]:
    return [(key, store.array_to_blob(arr)) for key, arr in _named_params(layers)]


def save_deepsegface(model: DeepSegFaceModel, path) -> None:
    sections = [("config", _config_entries(model.config))]
    for kind in ALL_KINDS:
        sections.append((f"column kind={kind_name(kind)}", _param_entries(model.columns[kind])))
    sections.append(("head", _param_entries(model.head)))
    if model.priors is None:
        raise DegenerateTrainingSetError("refusing to save a model without priors")
    sections.append(("priors", priors_to_entries(model.priors)))
    sections.append(("layout", layout_to_entries(model.config.layout)))
    store.write_sections(path, DSF_MAGIC, sections)


def _blobs(entries: dict[str, str], where: str) -> dict[str, np.ndarray]:
    return {key: store.blob_to_array(text, f"{where} {key}") for key, text in entries.items()}


def _set_params(layers: list, blobs: dict[str, np.ndarray], where: str) -> None:
    for key, arr in _named_params(layers):
        if key not in blobs or blobs[key].shape != arr.shape:
            raise ParseError(f"{where} {key}: missing or not of shape {arr.shape}")
        arr[...] = blobs[key]


def load_deepsegface(path) -> DeepSegFaceModel:
    """Read a DeepSegFace model file.

    The network is the preset named by the stored `scale` and `dtype`, built
    on the stored layout, which must fit it; every other stored config field
    must equal the preset's and every parameter blob must fit its layer, or
    ParseError names the entry.
    """
    section = store.model_sections(path, DSF_MAGIC)
    layout_e, layout_where = section("layout")
    layout = layout_from_entries(layout_e, layout_where)
    cfg_e, where = section("config")
    (scale,) = store.entry(cfg_e, "scale", (str,), where)
    (dtype,) = store.entry(cfg_e, "dtype", (str,), where)
    if scale not in PRESETS or dtype not in DTYPES:
        raise ParseError(f"{where}: no preset for scale {scale!r} and dtype {dtype!r}")
    cfg = network_config(scale, layout, dtype)
    try:
        cfg.validate()
    except ConfigShapeError as exc:
        raise ParseError(f"{layout_where} {exc}") from None
    for key, text in _config_entries(cfg):
        if store.entry_text(cfg_e, key, where) != text:
            raise ParseError(f"{where} {key}: {cfg_e[key]!r} differs from the preset's {text!r}")
    head = _blobs(*section("head"))
    # the head's first layer grows with the layout: check it before allocating
    fc_shape = (cfg.concat_size, cfg.fc_units)
    if "p0.0" not in head or head["p0.0"].shape != fc_shape:
        raise ParseError(f"{path}: [head] p0.0: missing or not of shape {fc_shape}")
    model = build_network(cfg, seed=None)
    for kind in ALL_KINDS:
        entries, cwhere = section(f"column kind={kind_name(kind)}")
        _set_params(model.columns[kind], _blobs(entries, cwhere), cwhere)
    _set_params(model.head, head, f"{path}: [head]")
    model.priors = priors_from_entries(*section("priors"))
    return model
