"""Run configuration: dataclasses, the dotted-key config file format, and
range validation. Every experiment constant lives here, not in code."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, SegdetError
from .segface import HogParams
from .segments import SegmentLayout, default_layout, layout_entry
from .synth import SynthSpec
from . import store


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
class NetCfg:
    scale: str = "toy"
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 10
    batch: int = 32
    dtype: str = "float32"  # training precision; gradient checks use float64


@dataclass
class EvalCfg:
    iou_min: float = 0.5
    far_target: float = 0.01
    prec_target: float = 0.99


@dataclass
class SynthCfg:
    train_count: int = 400
    test_count: int = 200
    width: int = 160
    height: int = 120
    face_min: float = 0.35
    face_max: float = 0.65
    no_face_fraction: float = 0.15
    occlusion_prob: float = 0.3
    shift_prob: float = 0.3
    max_shift: float = 0.3
    noise: float = 0.04
    clutter: int = 3
    decoy_prob: float = 0.5
    glasses_prob: float = 0.35

    def spec(self, count: int, seed: int) -> SynthSpec:
        return SynthSpec(
            count=count,
            width=self.width,
            height=self.height,
            face_min=self.face_min,
            face_max=self.face_max,
            no_face_fraction=self.no_face_fraction,
            occlusion_prob=self.occlusion_prob,
            shift_prob=self.shift_prob,
            max_shift=self.max_shift,
            noise=self.noise,
            clutter=self.clutter,
            decoy_prob=self.decoy_prob,
            glasses_prob=self.glasses_prob,
            seed=seed,
        )


@dataclass
class RunConfig:
    seed: int = 0
    paths: PathsCfg = field(default_factory=PathsCfg)
    proposals: ProposalsCfg = field(default_factory=ProposalsCfg)
    weak: WeakCfg = field(default_factory=WeakCfg)
    hog: HogParams = field(default_factory=HogParams)
    svm: SvmCfg = field(default_factory=SvmCfg)
    net: NetCfg = field(default_factory=NetCfg)
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
    "net": NetCfg,
    "eval": EvalCfg,
    "synth": SynthCfg,
}

# config keys use `lambda`; the dataclass field is `lam`
_KEY_ALIASES = {"svm.lambda": "svm.lam"}


def _coerce(value: str, target_type, key: str):
    try:
        return target_type(value)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {value!r} as {target_type.__name__}") from None


def parse_config(path) -> RunConfig:
    """Read a flat `dotted.key = value` file ('#' comments allowed)."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    cfg = RunConfig()
    frozen_updates: dict[str, dict] = {"hog": {}}
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
            cfg.seed = _coerce(value, int, key)
            continue
        if key == "segments.layout":
            cfg.layout_scale = value
            continue
        if key.startswith("segments.layout."):
            cfg.layout_overrides[key.split(".", 2)[2]] = value
            continue
        section, _, fname = key.partition(".")
        if section not in _SECTIONS or not fname:
            raise ConfigError(f"{p}:{lineno}: unknown key {key!r}")
        cls = _SECTIONS[section]
        ftypes = {f.name: f.type for f in fields(cls)}
        if fname not in ftypes:
            raise ConfigError(f"{p}:{lineno}: unknown key {key!r}")
        target = getattr(cfg, section)
        ftype = {"int": int, "float": float, "str": str}[ftypes[fname]]
        coerced = _coerce(value, ftype, key)
        if section == "hog":
            frozen_updates["hog"][fname] = coerced
        else:
            setattr(target, fname, coerced)
    if frozen_updates["hog"]:
        base = {f.name: getattr(cfg.hog, f.name) for f in fields(HogParams)}
        base.update(frozen_updates["hog"])
        try:
            cfg.hog = HogParams(**base)
        except ValueError as exc:
            raise ConfigError(f"hog: {exc}") from None
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Range checks; raises ConfigError naming the offending field."""

    def need(cond: bool, key: str, msg: str):
        if not cond:
            raise ConfigError(f"{key}: {msg}")

    need(cfg.proposals.zeta >= 1, "proposals.zeta", "must be >= 1")
    need(cfg.proposals.min_segments >= 1, "proposals.min_segments", "must be >= 1")
    need(cfg.proposals.radius_frac > 0, "proposals.radius_frac", "must be positive")
    need(cfg.proposals.box_mode in ("segments", "implied"), "proposals.box_mode", "must be 'segments' or 'implied'")
    need(cfg.weak.rounds >= 1, "weak.rounds", "must be >= 1")
    need(cfg.weak.stride >= 1, "weak.stride", "must be >= 1")
    # a rung at scale s holds 1/s^2 of the frame's pixels: at most 16x here
    need(cfg.weak.scale_min >= 0.25, "weak.scale_min", "must be >= 0.25")
    # with scale_count <= 64, scale_factor**63 <= 4**63 (about 8.5e37) stays finite
    need(1.0 < cfg.weak.scale_factor <= 4.0, "weak.scale_factor", "must be in (1, 4]")
    need(1 <= cfg.weak.scale_count <= 64, "weak.scale_count", "must be in [1, 64]")
    need(0.0 < cfg.weak.window_scale <= 1.0, "weak.window_scale", "must be in (0, 1]")
    need(cfg.svm.lam > 0, "svm.lambda", "must be positive")
    need(cfg.svm.epochs >= 1, "svm.epochs", "must be >= 1")
    need(cfg.net.scale in ("toy", "full"), "net.scale", "must be 'toy' or 'full'")
    need(cfg.net.dtype in ("float32", "float64"), "net.dtype", "must be 'float32' or 'float64'")
    need(cfg.net.lr > 0, "net.lr", "must be positive")
    need(cfg.net.epochs >= 1, "net.epochs", "must be >= 1")
    need(cfg.net.batch >= 2, "net.batch", "must be >= 2")
    need(0.0 < cfg.eval.iou_min < 1.0, "eval.iou_min", "must be in (0, 1)")
    need(0.0 < cfg.eval.far_target < 1.0, "eval.far_target", "must be in (0, 1)")
    need(0.0 < cfg.eval.prec_target < 1.0, "eval.prec_target", "must be in (0, 1)")
    need(cfg.synth.train_count >= 1, "synth.train_count", "must be >= 1")
    need(cfg.synth.test_count >= 1, "synth.test_count", "must be >= 1")
    need(cfg.synth.width >= 1, "synth.width", "must be >= 1")
    need(cfg.synth.height >= 1, "synth.height", "must be >= 1")
    need(cfg.synth.noise >= 0, "synth.noise", "must be >= 0")
    for name in ("face_min", "face_max", "no_face_fraction", "occlusion_prob", "shift_prob", "max_shift", "decoy_prob", "glasses_prob"):
        v = getattr(cfg.synth, name)
        need(0.0 <= v <= 1.0, f"synth.{name}", "must be in [0, 1]")
    need(cfg.synth.face_min <= cfg.synth.face_max, "synth.face_min", "must not exceed synth.face_max")
    try:
        cfg.layout()
    except SegdetError as exc:
        raise ConfigError(str(exc)) from None
    except ValueError as exc:
        raise ConfigError(f"segments.layout: {exc}") from None


def write_config(cfg: RunConfig, path) -> None:
    """Emit every field as dotted keys (a parseable fixed point)."""
    lines = [f"seed = {cfg.seed}", f"segments.layout = {cfg.layout_scale}"]
    for name, value in cfg.layout_overrides.items():
        lines.append(f"segments.layout.{name} = {value}")
    for section, cls in _SECTIONS.items():
        obj = getattr(cfg, section)
        for f in fields(cls):
            key = "svm.lambda" if (section, f.name) == ("svm", "lam") else f"{section}.{f.name}"
            lines.append(f"{key} = {getattr(obj, f.name)}")
    store.write_lines(path, lines)
