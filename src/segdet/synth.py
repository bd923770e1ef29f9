"""Deterministic synthetic face dataset generator.

Stands in for restricted mobile front-camera data: each face image carries a
parametric cartoon face (skin ellipse, eye blobs, brow bars, a nose wedge
and a mouth bar) over a noisy cluttered background, optionally crossed by an
occluder bar and optionally shifted partially off-frame. Vertical shifts
only push the face off the bottom edge (the chin-cut phenomenology of
front-camera frames); the segment taxonomy is top-heavy and a forehead-cut
face would rarely keep three detectable segments. Annotations store the
visible (frame-clipped) face box; no-face images get background only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imaging import BoxI, Image, save_image
from . import store


@dataclass(frozen=True)
class SynthSpec:
    count: int
    width: int = 160
    height: int = 120
    face_min: float = 0.35  # face height range, fraction of frame height
    face_max: float = 0.65
    no_face_fraction: float = 0.15
    occlusion_prob: float = 0.3
    shift_prob: float = 0.3  # fraction of faces shifted partially off-frame
    max_shift: float = 0.3  # of the face dimension, single axis per face
    noise: float = 0.04
    clutter: int = 3
    decoy_prob: float = 0.5  # chance of a face-like background decoy
    glasses_prob: float = 0.35  # chance a face wears a dark sunglasses band
    seed: int = 0

    def __post_init__(self):
        for name in ("count", "width", "height"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.noise < math.inf:
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        for name in (
            "face_min",
            "face_max",
            "no_face_fraction",
            "occlusion_prob",
            "shift_prob",
            "max_shift",
            "decoy_prob",
            "glasses_prob",
        ):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.face_min > self.face_max:
            raise ValueError("face_min must not exceed face_max")
        # the smallest decoy and face must keep a nonzero width, and dw = int(dh * 0.95)
        # and fw = int(fh * 0.95) need dh = int(0.35 * height) >= 2 and fh >= 2
        if self.decoy_prob > 0 and self.height < 6:
            raise ValueError(f"height must be >= 6 when decoy_prob > 0, got {self.height}")
        if self.face_min * self.height < 2:
            raise ValueError(f"face_min * height must be >= 2 px, got {self.face_min} * {self.height}")
        # a shifted face moves by uniform(0.05, max_shift) of its size
        if 0.0 < self.max_shift < 0.05:
            raise ValueError(f"max_shift must be 0 or >= 0.05, got {self.max_shift}")


@dataclass(frozen=True)
class Annotation:
    """One dataset record: image path and its (single) face box, if any."""

    path: str
    face: BoxI | None


def visible_box(face: BoxI, width: int, height: int) -> BoxI | None:
    """Clip a face box to the frame; None when nothing remains visible."""
    x0, y0 = max(face.x, 0), max(face.y, 0)
    x1, y1 = min(face.x2, width), min(face.y2, height)
    if x1 <= x0 or y1 <= y0:
        return None
    return BoxI(x0, y0, x1 - x0, y1 - y0)


def _ellipse_mask(xx, yy, cx, cy, rx, ry):
    return ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0


def _box_grid(canvas: np.ndarray, x0: int, y0: int, x1: int, y1: int):
    """The canvas view over [x0, x1) x [y0, y1), widened by 2 px (rounding at a
    shape's edge drops no pixel) and clipped to the frame, with float pixel
    coordinates that broadcast: rows as a column, columns as a row."""
    h, w = canvas.shape
    r0, r1 = max(y0 - 2, 0), min(y1 + 2, h)
    c0, c1 = max(x0 - 2, 0), min(x1 + 2, w)
    yy = np.arange(r0, r1, dtype=np.float64)[:, None]
    xx = np.arange(c0, c1, dtype=np.float64)
    return canvas[r0:r1, c0:c1], yy, xx


def _draw_face(canvas: np.ndarray, face: BoxI, rng: np.random.Generator, glasses_prob: float) -> None:
    """Parametric cartoon face. Internal feature positions are jittered per
    face to emulate pose variation, and a fraction of faces wear a dark
    sunglasses band (a second appearance mode for the eye region); draw
    order and rng usage are fixed. Every feature lies inside the face box,
    so only that box is drawn."""
    box, yy, xx = _box_grid(canvas, face.x, face.y, face.x2, face.y2)
    fx, fy, fw, fh = float(face.x), float(face.y), float(face.w), float(face.h)

    def at(u, v):
        return fx + u * fw, fy + v * fh

    skin = 0.80 + rng.uniform(-0.04, 0.04)
    eye_v = 0.34 + rng.uniform(-0.04, 0.04)
    eye_du = rng.uniform(-0.025, 0.025)  # horizontal gaze shift
    eye_r = fw * rng.uniform(0.05, 0.075)
    nose_v = rng.uniform(-0.03, 0.03)
    mouth_v = 0.76 + rng.uniform(-0.03, 0.03)
    mouth_halfw = rng.uniform(0.14, 0.21)
    eye_shade = 0.10 + rng.uniform(0.0, 0.04)
    glasses = rng.uniform() < glasses_prob

    cx, cy = at(0.5, 0.5)
    box[_ellipse_mask(xx, yy, cx, cy, 0.5 * fw, 0.5 * fh)] = skin
    # brows
    for u0, u1 in ((0.18, 0.44), (0.56, 0.82)):
        bx0, by0 = at(u0 + eye_du, eye_v - 0.12)
        bx1, by1 = at(u1 + eye_du, eye_v - 0.07)
        box[(xx >= bx0) & (xx < bx1) & (yy >= by0) & (yy < by1)] = 0.30
    if glasses:
        gx0, gy0 = at(0.16 + eye_du, eye_v - 0.055)
        gx1, gy1 = at(0.84 + eye_du, eye_v + 0.055)
        box[(xx >= gx0) & (xx < gx1) & (yy >= gy0) & (yy < gy1)] = 0.14
    else:
        for u in (0.32, 0.68):
            ex, ey = at(u + eye_du, eye_v)
            box[_ellipse_mask(xx, yy, ex, ey, eye_r, 0.8 * eye_r)] = eye_shade
    # nose wedge: widens linearly toward its base
    nx0, ny0 = at(0.5 + eye_du / 2.0, 0.42 + nose_v)
    _, ny1 = at(0.5, 0.68 + nose_v)
    span = max(ny1 - ny0, 1.0)
    half = 0.09 * fw * np.clip((yy - ny0) / span, 0.0, 1.0)
    box[(yy >= ny0) & (yy < ny1) & (np.abs(xx - nx0) <= half)] = 0.38
    # mouth
    mx0, my0 = at(0.5 - mouth_halfw, mouth_v)
    mx1, my1 = at(0.5 + mouth_halfw, mouth_v + 0.07)
    box[(xx >= mx0) & (xx < mx1) & (yy >= my0) & (yy < my1)] = 0.18


def _draw_occluder(canvas: np.ndarray, face: BoxI, rng: np.random.Generator) -> None:
    h, w = canvas.shape
    shade = rng.uniform(0.0, 1.0)
    horizontal = rng.uniform() < 0.5
    if horizontal:
        t = max(2, int(rng.uniform(0.10, 0.18) * face.h))
        y0 = int(face.y + rng.uniform(0.1, 0.9) * face.h)
        y0 = min(max(y0, 0), h - 1)
        canvas[y0 : min(y0 + t, h), max(face.x, 0) : min(face.x2, w)] = shade
    else:
        t = max(2, int(rng.uniform(0.10, 0.18) * face.w))
        x0 = int(face.x + rng.uniform(0.1, 0.9) * face.w)
        x0 = min(max(x0, 0), w - 1)
        canvas[max(face.y, 0) : min(face.y2, h), x0 : min(x0 + t, w)] = shade


def _draw_decoy(canvas: np.ndarray, spec: SynthSpec, rng: np.random.Generator) -> None:
    """A face-shaped blob with contrast-INVERTED internals: bright eye dots
    and a bright mouth bar on a light ellipse, no nose wedge, no brows.

    Unsigned-gradient descriptors see almost the same thing as a real face
    (edge orientations survive contrast inversion), so these produce hard
    negative clusters for the linear pipeline, while anything reading raw
    intensities separates them easily."""
    h, w = canvas.shape
    dh = int(rng.uniform(0.35, 0.55) * h)
    dw = int(dh * rng.uniform(0.95, 1.05))
    dx = int(rng.uniform(0, max(w - dw, 1)))
    dy = int(rng.uniform(0, max(h - dh, 1)))
    box, yy, xx = _box_grid(canvas, dx, dy, dx + dw, dy + dh)
    cx, cy = dx + dw / 2.0, dy + dh / 2.0
    box[_ellipse_mask(xx, yy, cx, cy, dw / 2.0, dh / 2.0)] = 0.78 + rng.uniform(-0.03, 0.03)
    r = 0.06 * dw
    for u in (0.32, 0.68):
        ex, ey = dx + u * dw, dy + 0.34 * dh
        box[_ellipse_mask(xx, yy, ex, ey, r, 0.8 * r)] = 0.97
    rows = (yy >= dy + 0.76 * dh) & (yy < dy + 0.83 * dh)
    box[rows & (xx >= dx + 0.32 * dw) & (xx < dx + 0.68 * dw)] = 0.96


def _background(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    canvas = np.full((spec.height, spec.width), 0.45 + rng.uniform(-0.05, 0.05))
    for _ in range(spec.clutter):
        bw = int(rng.uniform(0.1, 0.3) * spec.width)
        bh = int(rng.uniform(0.1, 0.3) * spec.height)
        bx = int(rng.uniform(0, max(spec.width - bw, 1)))
        by = int(rng.uniform(0, max(spec.height - bh, 1)))
        canvas[by : by + bh, bx : bx + bw] = rng.uniform(0.25, 0.7)
    if rng.uniform() < spec.decoy_prob:
        _draw_decoy(canvas, spec, rng)
    canvas += rng.normal(0.0, spec.noise, size=canvas.shape)
    return np.clip(canvas, 0.0, 1.0)


def _place_face(spec: SynthSpec, rng: np.random.Generator) -> BoxI:
    fh = int(rng.uniform(spec.face_min, spec.face_max) * spec.height)
    fw = int(fh * rng.uniform(0.95, 1.05))
    x = int(rng.uniform(0, max(spec.width - fw, 1)))
    y = int(rng.uniform(0, max(spec.height - fh, 1)))
    if rng.uniform() < spec.shift_prob and spec.max_shift > 0:
        shift = rng.uniform(0.05, spec.max_shift)
        axis = rng.integers(0, 3)
        if axis == 0:  # off the left edge
            x = -int(shift * fw)
        elif axis == 1:  # off the right edge
            x = spec.width - fw + int(shift * fw)
        else:  # off the bottom edge (chin cut)
            y = spec.height - fh + int(shift * fh)
    return BoxI(x, y, fw, fh)


def synth_generate(spec: SynthSpec, out_dir) -> list[Annotation]:
    """Write images/ and annotations.csv under out_dir; returns the records.

    Deterministic from spec.seed: identical specs produce byte-identical
    files. Exactly round(count * no_face_fraction) images carry no face.
    """
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_empty = int(round(spec.count * spec.no_face_fraction))
    has_face = np.ones(spec.count, dtype=bool)
    has_face[:n_empty] = False
    rng.shuffle(has_face)

    annotations: list[Annotation] = []
    for i in range(spec.count):
        canvas = _background(spec, rng)
        rel = f"images/img_{i:05d}.pgm"
        face_box: BoxI | None = None
        if has_face[i]:
            face = _place_face(spec, rng)
            _draw_face(canvas, face, rng, spec.glasses_prob)
            if rng.uniform() < spec.occlusion_prob:
                _draw_occluder(canvas, face, rng)
            face_box = visible_box(face, spec.width, spec.height)
        data = np.clip(np.round(canvas * 255.0), 0, 255).astype(np.uint8)
        save_image(Image(spec.width, spec.height, 1, data[:, :, None]), out / rel)
        annotations.append(Annotation(rel, face_box))
    save_annotations(annotations, out / "annotations.csv")
    return annotations


# --- annotation format: path,x,y,w,h with empty fields for no-face frames ----


def save_annotations(annotations: list[Annotation], path) -> None:
    rows = [(a.path, *a.face.astuple()) if a.face else (a.path, "", "", "", "") for a in annotations]
    store.write_csv(path, rows)


def load_annotations(path) -> list[Annotation]:
    """Annotations in file order; a frame listed twice is a ParseError."""
    return [Annotation(p, row[0] if row else None) for p, row in store.image_rows(path).items()]
