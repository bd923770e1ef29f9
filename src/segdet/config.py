"""Run configuration: one record per section, the dotted-key config file
format, and range validation. Every experiment constant lives here or in its
stage's record, not in code.

Each section is its stage's record where the library has one: `hog` is
`segface.HogParams`, `net` is `deepsegface.TrainParams`, and `synth` holds
`synth.SynthSpec`'s fields. Those records check their own ranges, so a
setting's name, default and range live in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path

from . import deepsegface as dsf
from .errors import ConfigError, ConfigShapeError, PatchTooSmallError, SegdetError
from .segface import HogParams, hog_length
from .segments import ALL_KINDS, SegmentLayout, default_layout, kind_name, layout_entry
from .synth import SynthSpec


@dataclass
class PathsCfg:
    data: str = "data"
    models: str = "models"
    reports: str = "reports"


@dataclass
class ProposalsCfg:
    zeta: int = 10
    min_segments: int = 3
    radius_frac: float = 0.25
    box_mode: str = "implied"  # mean of members' implied face boxes; "segments": union of segment boxes


@dataclass
class WeakCfg:
    rounds: int = 24
    pool_size: int = 1500
    window_scale: float = 0.5  # detector window = canonical dims * this
    stride: int = 4
    scale_min: float = 1.0
    scale_factor: float = 1.2
    scale_count: int = 6
    nms_iou: float = 0.5
    threshold_scale: float = 1.0  # accept_threshold = this * (alpha_sum / 2)
    negatives_per_image: int = 3

    def scales(self) -> list[float]:
        return [self.scale_min * self.scale_factor**i for i in range(self.scale_count)]


@dataclass
class SvmCfg:
    lam: float = 1e-4
    epochs: int = 20


@dataclass
class EvalCfg:
    far_target: float = 0.01
    prec_target: float = 0.99


# `synth` keys: the two split sizes, then SynthSpec's fields with SynthSpec's
# defaults, less the `count` and `seed` that each split sets
_SPEC_FIELDS = [f for f in fields(SynthSpec) if f.name not in ("count", "seed")]


def _synth_spec(self, count: int, seed: int) -> SynthSpec:
    return SynthSpec(count=count, seed=seed, **{f.name: getattr(self, f.name) for f in _SPEC_FIELDS})


SynthCfg = make_dataclass(
    "SynthCfg",
    [("train_count", "int", field(default=400)), ("test_count", "int", field(default=200))]
    + [(f.name, f.type, field(default=f.default)) for f in _SPEC_FIELDS],
    namespace={"spec": _synth_spec},
)


@dataclass
class RunConfig:
    seed: int = 0
    paths: PathsCfg = field(default_factory=PathsCfg)
    proposals: ProposalsCfg = field(default_factory=ProposalsCfg)
    weak: WeakCfg = field(default_factory=WeakCfg)
    hog: HogParams = field(default_factory=HogParams)
    svm: SvmCfg = field(default_factory=SvmCfg)
    net: dsf.TrainParams = field(default_factory=dsf.TrainParams)
    eval: EvalCfg = field(default_factory=EvalCfg)
    synth: SynthCfg = field(default_factory=SynthCfg)
    layout_scale: str = "toy"
    layout_overrides: dict[str, str] = field(default_factory=dict)

    def layout(self) -> SegmentLayout:
        base = default_layout(self.layout_scale)
        if not self.layout_overrides:
            return base
        regions = dict(base.regions)
        canonical = dict(base.canonical)
        for name, value in self.layout_overrides.items():
            kind, regions[kind], canonical[kind] = layout_entry(name, value, "segments.layout")
        return SegmentLayout(regions, canonical)


_SECTIONS = {
    "paths": PathsCfg,
    "proposals": ProposalsCfg,
    "weak": WeakCfg,
    "hog": HogParams,
    "svm": SvmCfg,
    "net": dsf.TrainParams,
    "eval": EvalCfg,
    "synth": SynthCfg,
}

# config keys use `lambda`; the dataclass field is `lam`
_KEY_ALIASES = {"svm.lambda": "svm.lam"}


def _coerce(value: str, type_name: str, key: str):
    target_type = {"int": int, "float": float, "str": str}[type_name]
    try:
        return target_type(value)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {value!r} as {type_name}") from None


def _record(section: str, make, *args, **kwargs):
    """Build one record of `section`. A record's range checks raise a
    ValueError whose message starts with the field name, so the ConfigError
    names the full key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from None


def parse_config(path) -> RunConfig:
    """Read a flat `dotted.key = value` file ('#' comments allowed)."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    cfg = RunConfig()
    keys: dict[str, dict] = {section: {} for section in _SECTIONS}
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text (byte {exc.start})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        key = _KEY_ALIASES.get(key, key)
        if key == "seed":
            cfg.seed = _coerce(value, "int", key)
            continue
        if key == "segments.layout":
            cfg.layout_scale = value
            continue
        if key.startswith("segments.layout."):
            cfg.layout_overrides[key.split(".", 2)[2]] = value
            continue
        section, _, fname = key.partition(".")
        ftypes = {f.name: f.type for f in fields(_SECTIONS[section])} if section in _SECTIONS else {}
        if fname not in ftypes:
            raise ConfigError(f"{p}:{lineno}: unknown key {key!r}")
        keys[section][fname] = _coerce(value, ftypes[fname], key)
    for section, cls in _SECTIONS.items():
        setattr(cfg, section, _record(section, cls, **keys[section]))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Range checks the records do not make themselves; raises ConfigError
    naming the offending field."""

    def need(cond: bool, key: str, msg: str):
        if not cond:
            raise ConfigError(f"{key} {msg}")

    need(cfg.proposals.zeta >= 1, "proposals.zeta", "must be >= 1")
    need(cfg.proposals.min_segments >= 1, "proposals.min_segments", "must be >= 1")
    need(cfg.proposals.radius_frac > 0, "proposals.radius_frac", "must be positive")
    need(cfg.proposals.box_mode in ("segments", "implied"), "proposals.box_mode", "must be 'segments' or 'implied'")
    need(cfg.weak.rounds >= 1, "weak.rounds", "must be >= 1")
    # a stump pool of size 0 leaves boosting nothing to pick
    need(cfg.weak.pool_size >= 1, "weak.pool_size", "must be >= 1")
    # the scan builds stride^2 phases per canvas, and a step above the 8 px
    # that cli._window_dims floors every window side at leaves pixels no
    # window covers
    need(1 <= cfg.weak.stride <= 8, "weak.stride", "must be in [1, 8]")
    # a rung at scale s holds 1/s^2 of the frame's pixels: at most 16x here
    need(cfg.weak.scale_min >= 0.25, "weak.scale_min", "must be >= 0.25")
    # with scale_count <= 64, scale_factor**63 <= 4**63 (about 8.5e37) stays finite
    need(1.0 < cfg.weak.scale_factor <= 4.0, "weak.scale_factor", "must be in (1, 4]")
    need(1 <= cfg.weak.scale_count <= 64, "weak.scale_count", "must be in [1, 64]")
    # infinite rungs repeat, and the scan needs a strictly increasing ladder
    need(math.isfinite(cfg.weak.scales()[-1]), "weak.scale_min", "must keep the top pyramid rung finite")
    need(0.0 < cfg.weak.window_scale <= 1.0, "weak.window_scale", "must be in (0, 1]")
    # accept_threshold = threshold_scale * alpha_sum / 2; above 2 it exceeds
    # alpha_sum, the largest raw score, so no window could ever be accepted
    need(0.0 < cfg.weak.threshold_scale <= 2.0, "weak.threshold_scale", "must be in (0, 2]")
    # nan would fail every overlap test, so NMS would keep one hit per kind
    need(0.0 <= cfg.weak.nms_iou <= 1.0, "weak.nms_iou", "must be in [0, 1]")
    need(cfg.weak.negatives_per_image >= 1, "weak.negatives_per_image", "must be >= 1")
    need(cfg.svm.lam > 0, "svm.lambda", "must be positive")
    need(cfg.svm.epochs >= 1, "svm.epochs", "must be >= 1")
    need(0.0 < cfg.eval.far_target < 1.0, "eval.far_target", "must be in (0, 1)")
    need(0.0 < cfg.eval.prec_target < 1.0, "eval.prec_target", "must be in (0, 1)")
    need(cfg.synth.train_count >= 1, "synth.train_count", "must be >= 1")
    need(cfg.synth.test_count >= 1, "synth.test_count", "must be >= 1")
    _record("synth", cfg.synth.spec, 1, 0)
    try:
        layout = cfg.layout()
    except SegdetError as exc:
        raise ConfigError(str(exc)) from None
    except ValueError as exc:
        raise ConfigError(f"segments.layout: {exc}") from None
    try:  # shapes only: no network is allocated
        dsf.network_config(cfg.net.scale, layout, cfg.net.dtype).validate()
    except ConfigShapeError as exc:
        raise ConfigError(f"net.scale = {cfg.net.scale} does not fit segments.layout: {exc}") from None
    for kind in ALL_KINDS:  # each kind's canonical patch must hold a HoG block
        try:
            hog_length(*layout.canonical[kind], cfg.hog)
        except PatchTooSmallError as exc:
            keys = f"hog.cell = {cfg.hog.cell} and hog.block = {cfg.hog.block}"
            raise ConfigError(f"{keys} do not fit segments.layout.{kind_name(kind)}: {exc}") from None

