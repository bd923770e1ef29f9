"""Facial segment taxonomy and the geometry tying a segment box to a face box.

Nine segment kinds are supported. Each kind owns a unit-face region (the
fraction of the face box it covers) and a canonical classifier input size.
Inverting the unit region maps any segment detection back to the face box it
implies, which is what proposal clustering groups on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import ParseError, UnknownSegmentKindError
from .imaging import BoxI
from . import store


class SegmentKind(IntEnum):
    NOSE = 0
    EYE = 1
    UL34 = 2
    UR34 = 3
    U12 = 4
    L34 = 5
    UL12 = 6
    R12 = 7
    L12 = 8


ALL_KINDS: tuple[SegmentKind, ...] = tuple(SegmentKind)
NUM_KINDS = len(ALL_KINDS)
MASK_ALL = (1 << NUM_KINDS) - 1

_KIND_NAMES = {
    SegmentKind.NOSE: "Nose",
    SegmentKind.EYE: "Eye",
    SegmentKind.UL34: "UL34",
    SegmentKind.UR34: "UR34",
    SegmentKind.U12: "U12",
    SegmentKind.L34: "L34",
    SegmentKind.UL12: "UL12",
    SegmentKind.R12: "R12",
    SegmentKind.L12: "L12",
}
_NAME_KINDS = {v: k for k, v in _KIND_NAMES.items()}


def kind_name(kind: SegmentKind) -> str:
    return _KIND_NAMES[kind]


def kind_from_name(name: str, where: str = "segments") -> SegmentKind:
    try:
        return _NAME_KINDS[name]
    except KeyError:
        raise UnknownSegmentKindError(f"{where}: unknown segment kind {name!r}") from None


def kinds_mask(kinds) -> int:
    """Bitmask over segment kinds (bit k set when kind index k is present)."""
    mask = 0
    for k in kinds:
        mask |= 1 << int(k)
    return mask


@dataclass(frozen=True)
class SegmentRegion:
    """Fractions (u0, v0)-(u1, v1) of the face box covered by a segment."""

    u0: float
    v0: float
    u1: float
    v1: float

    def __post_init__(self):
        if not (0.0 <= self.u0 < self.u1 <= 1.0 and 0.0 <= self.v0 < self.v1 <= 1.0):
            raise ValueError(f"malformed unit region {self}")


# The names define the fractions: halves, three-fourths, and central strips
# for the eye pair and nose sized to match the canonical input aspects.
UNIT_REGIONS: dict[SegmentKind, SegmentRegion] = {
    SegmentKind.NOSE: SegmentRegion(0.3, 0.35, 0.7, 0.75),
    SegmentKind.EYE: SegmentRegion(0.125, 0.2, 0.875, 0.45),
    SegmentKind.UL34: SegmentRegion(0.0, 0.0, 0.75, 0.75),
    SegmentKind.UR34: SegmentRegion(0.25, 0.0, 1.0, 0.75),
    SegmentKind.U12: SegmentRegion(0.0, 0.0, 1.0, 0.5),
    SegmentKind.L34: SegmentRegion(0.0, 0.0, 0.75, 1.0),
    SegmentKind.UL12: SegmentRegion(0.0, 0.0, 0.5, 0.5),
    SegmentKind.R12: SegmentRegion(0.5, 0.0, 1.0, 1.0),
    SegmentKind.L12: SegmentRegion(0.0, 0.0, 0.5, 1.0),
}

# Canonical full-scale classifier input sizes, (height, width) pixels.
FULL_CANONICAL_DIMS: dict[SegmentKind, tuple[int, int]] = {
    SegmentKind.NOSE: (69, 81),
    SegmentKind.EYE: (54, 162),
    SegmentKind.UL34: (147, 147),
    SegmentKind.UR34: (147, 147),
    SegmentKind.U12: (99, 192),
    SegmentKind.L34: (192, 147),
    SegmentKind.UL12: (99, 99),
    SegmentKind.R12: (192, 99),
    SegmentKind.L12: (192, 99),
}


def _round_multiple_of_4(x: float) -> int:
    return max(4, int(x / 4.0 + 0.5) * 4)


TOY_CANONICAL_DIMS: dict[SegmentKind, tuple[int, int]] = {
    k: (_round_multiple_of_4(h / 3.0), _round_multiple_of_4(w / 3.0))
    for k, (h, w) in FULL_CANONICAL_DIMS.items()
}


@dataclass(frozen=True)
class SegmentLayout:
    """Per-kind unit regions and canonical (height, width) input sizes."""

    regions: dict[SegmentKind, SegmentRegion]
    canonical: dict[SegmentKind, tuple[int, int]]

    def __post_init__(self):
        for kind, (h, w) in self.canonical.items():
            if h < 1 or w < 1:
                raise ValueError(f"canonical dims for {kind_name(kind)} must be positive")

    def segment_box(self, face: BoxI, kind: SegmentKind) -> BoxI:
        """Forward mapping: the region of kind inside the given face box."""
        r = self.regions[kind]
        return BoxI(
            int(round(face.x + r.u0 * face.w)),
            int(round(face.y + r.v0 * face.h)),
            int(round((r.u1 - r.u0) * face.w)),
            int(round((r.v1 - r.v0) * face.h)),
        )


def default_layout(scale: str = "toy") -> SegmentLayout:
    """Built-in layouts: 'full' (canonical sizes) or 'toy' (one third, rounded
    to multiples of four so two pooling stages divide evenly)."""
    if scale == "full":
        return SegmentLayout(dict(UNIT_REGIONS), dict(FULL_CANONICAL_DIMS))
    if scale == "toy":
        return SegmentLayout(dict(UNIT_REGIONS), dict(TOY_CANONICAL_DIMS))
    raise ValueError(f"unknown layout scale {scale!r}; expected 'full' or 'toy'")


# --- serialization: one `Kind = u0 v0 u1 v1 h w` entry per kind --------------


def layout_to_entries(layout: SegmentLayout) -> list[tuple[str, str]]:
    entries = []
    for kind in ALL_KINDS:
        r = layout.regions[kind]
        h, w = layout.canonical[kind]
        entries.append((kind_name(kind), f"{r.u0!r} {r.v0!r} {r.u1!r} {r.v1!r} {h} {w}"))
    return entries


def layout_entry(name: str, text: str, where: str) -> tuple[SegmentKind, SegmentRegion, tuple[int, int]]:
    """One layout entry: its kind, unit region and canonical (h, w)."""
    kind = kind_from_name(name, where)
    where = f"{where} {name}"
    u0, v0, u1, v1, h, w = store.fields(text.split(), (float,) * 4 + (int,) * 2, where)
    with store.checked(where):
        return kind, SegmentRegion(u0, v0, u1, v1), (h, w)


def layout_from_entries(entries: dict[str, str], where: str = "[layout]") -> SegmentLayout:
    """A layout section; every kind needs an entry."""
    regions, canonical = {}, {}
    for name, text in entries.items():
        kind, regions[kind], canonical[kind] = layout_entry(name, text, where)
    missing = [kind_name(k) for k in ALL_KINDS if k not in regions]
    if missing:
        raise ParseError(f"{where}: no entry for {', '.join(missing)}")
    with store.checked(where):
        return SegmentLayout(regions, canonical)


@dataclass(frozen=True)
class SegmentDetection:
    """One weak-detector hit."""

    kind: SegmentKind
    box: BoxI
    score: float

    def __post_init__(self):
        if self.box.w <= 0 or self.box.h <= 0:
            raise ValueError(f"detection box must have positive extent, got {self.box}")


def _implied_face_rect(det: SegmentDetection, layout: SegmentLayout):
    r = layout.regions[det.kind]
    fw = det.box.w / (r.u1 - r.u0)
    fh = det.box.h / (r.v1 - r.v0)
    fx = det.box.x - r.u0 * fw
    fy = det.box.y - r.v0 * fh
    return fx, fy, fw, fh


def implied_face_box(det: SegmentDetection, layout: SegmentLayout) -> BoxI:
    """Invert the unit-region mapping: the face box this detection implies."""
    fx, fy, fw, fh = _implied_face_rect(det, layout)
    return BoxI(int(round(fx)), int(round(fy)), int(round(fw)), int(round(fh)))


def implied_face_center(det: SegmentDetection, layout: SegmentLayout) -> tuple[float, float]:
    """Center of the implied face box in real arithmetic (no rounding)."""
    fx, fy, fw, fh = _implied_face_rect(det, layout)
    return (fx + fw / 2.0, fy + fh / 2.0)


def implied_face_diagonal(det: SegmentDetection, layout: SegmentLayout) -> float:
    fx, fy, fw, fh = _implied_face_rect(det, layout)
    return float((fw * fw + fh * fh) ** 0.5)
