import hashlib
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from segdet import synth
from segdet.errors import ParseError
from segdet.imaging import BoxI, load_image, to_gray
from segdet.synth import (
    Annotation,
    SynthSpec,
    load_annotations,
    save_annotations,
    synth_generate,
    visible_box,
)


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestSynthGenerate:
    def test_no_face_count_is_exact(self, tmp_path):
        spec = SynthSpec(count=10, no_face_fraction=0.2, seed=5)
        anns = synth_generate(spec, tmp_path)
        assert len(anns) == 10
        assert sum(1 for a in anns if a.face is None) == 2

    def test_same_seed_byte_identical(self, tmp_path):
        spec = SynthSpec(count=6, seed=9)
        synth_generate(spec, tmp_path / "a")
        synth_generate(spec, tmp_path / "b")
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        synth_generate(SynthSpec(count=6, seed=1), tmp_path / "a")
        synth_generate(SynthSpec(count=6, seed=2), tmp_path / "b")
        assert dir_digest(tmp_path / "a") != dir_digest(tmp_path / "b")

    def test_images_load_and_annotations_fit_frame(self, tmp_path):
        spec = SynthSpec(count=8, seed=3, shift_prob=1.0, max_shift=0.4)
        anns = synth_generate(spec, tmp_path)
        for a in anns:
            img = to_gray(load_image(tmp_path / a.path))
            assert (img.width, img.height) == (spec.width, spec.height)
            if a.face is not None:
                assert a.face.x >= 0 and a.face.y >= 0
                assert a.face.x2 <= spec.width and a.face.y2 <= spec.height
                assert a.face.w > 0 and a.face.h > 0

    def test_shifted_faces_touch_the_frame_edge(self, tmp_path):
        spec = SynthSpec(count=24, seed=11, shift_prob=1.0, max_shift=0.4, no_face_fraction=0.0)
        anns = synth_generate(spec, tmp_path)
        touching = sum(
            1
            for a in anns
            if a.face.x == 0 or a.face.x2 == spec.width or a.face.y2 == spec.height
        )
        assert touching >= len(anns) // 2

    def test_faces_never_cut_at_the_top(self, tmp_path):
        # vertical off-frame shifts only push the chin off the bottom edge
        spec = SynthSpec(count=30, seed=13, shift_prob=1.0, max_shift=0.5, no_face_fraction=0.0)
        anns = synth_generate(spec, tmp_path)
        assert all(a.face.y >= 0 for a in anns)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(count=0)
        with pytest.raises(ValueError):
            SynthSpec(count=1, occlusion_prob=1.5)
        with pytest.raises(ValueError):
            SynthSpec(count=1, face_min=0.8, face_max=0.4)
        cases = (
            ("width", 0), ("height", 0), ("noise", -0.1), ("noise", math.nan), ("noise", math.inf),
            ("face_min", 0.0),  # fw = int(fh * 0.95) is 0 for a face under 2 px
            ("max_shift", 0.03),  # a shift is drawn from uniform(0.05, max_shift)
        )
        for name, value in cases:
            with pytest.raises(ValueError, match=f"^{name} "):
                SynthSpec(count=1, **{name: value})

    def test_faces_and_decoys_under_two_px_are_rejected(self):
        with pytest.raises(ValueError, match="^face_min "):
            SynthSpec(count=20, seed=3, width=8, height=8, face_min=0.0, face_max=0.05)
        # a decoy is int(0.35 * height) tall
        with pytest.raises(ValueError, match="^height "):
            SynthSpec(count=1, height=5, face_min=0.4, face_max=1.0)
        SynthSpec(count=1, height=5, face_min=0.4, face_max=1.0, decoy_prob=0.0)
        SynthSpec(count=1, max_shift=0.0)
        SynthSpec(count=1, width=1, height=6, face_min=2 / 6, face_max=1.0)
        SynthSpec(count=1, width=1, height=2, face_min=1.0, face_max=1.0, decoy_prob=0.0)


# --- full-frame drawing, kept as the reference for the box-only draw ---


def _ref_ellipse_mask(xx, yy, cx, cy, rx, ry):
    return ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0


def ref_draw_face(canvas, face, rng, glasses_prob):
    h, w = canvas.shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    fx, fy, fw, fh = float(face.x), float(face.y), float(face.w), float(face.h)

    def at(u, v):
        return fx + u * fw, fy + v * fh

    skin = 0.80 + rng.uniform(-0.04, 0.04)
    eye_v = 0.34 + rng.uniform(-0.04, 0.04)
    eye_du = rng.uniform(-0.025, 0.025)
    eye_r = fw * rng.uniform(0.05, 0.075)
    nose_v = rng.uniform(-0.03, 0.03)
    mouth_v = 0.76 + rng.uniform(-0.03, 0.03)
    mouth_halfw = rng.uniform(0.14, 0.21)
    eye_shade = 0.10 + rng.uniform(0.0, 0.04)
    glasses = rng.uniform() < glasses_prob

    cx, cy = at(0.5, 0.5)
    canvas[_ref_ellipse_mask(xx, yy, cx, cy, 0.5 * fw, 0.5 * fh)] = skin
    for u0, u1 in ((0.18, 0.44), (0.56, 0.82)):
        bx0, by0 = at(u0 + eye_du, eye_v - 0.12)
        bx1, by1 = at(u1 + eye_du, eye_v - 0.07)
        canvas[(xx >= bx0) & (xx < bx1) & (yy >= by0) & (yy < by1)] = 0.30
    if glasses:
        gx0, gy0 = at(0.16 + eye_du, eye_v - 0.055)
        gx1, gy1 = at(0.84 + eye_du, eye_v + 0.055)
        canvas[(xx >= gx0) & (xx < gx1) & (yy >= gy0) & (yy < gy1)] = 0.14
    else:
        for u in (0.32, 0.68):
            ex, ey = at(u + eye_du, eye_v)
            canvas[_ref_ellipse_mask(xx, yy, ex, ey, eye_r, 0.8 * eye_r)] = eye_shade
    nx0, ny0 = at(0.5 + eye_du / 2.0, 0.42 + nose_v)
    _, ny1 = at(0.5, 0.68 + nose_v)
    span = max(ny1 - ny0, 1.0)
    half = 0.09 * fw * np.clip((yy - ny0) / span, 0.0, 1.0)
    canvas[(yy >= ny0) & (yy < ny1) & (np.abs(xx - nx0) <= half)] = 0.38
    mx0, my0 = at(0.5 - mouth_halfw, mouth_v)
    mx1, my1 = at(0.5 + mouth_halfw, mouth_v + 0.07)
    canvas[(xx >= mx0) & (xx < mx1) & (yy >= my0) & (yy < my1)] = 0.18


def ref_draw_decoy(canvas, spec, rng):
    h, w = canvas.shape
    dh = int(rng.uniform(0.35, 0.55) * h)
    dw = int(dh * rng.uniform(0.95, 1.05))
    dx = int(rng.uniform(0, max(w - dw, 1)))
    dy = int(rng.uniform(0, max(h - dh, 1)))
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cx, cy = dx + dw / 2.0, dy + dh / 2.0
    canvas[_ref_ellipse_mask(xx, yy, cx, cy, dw / 2.0, dh / 2.0)] = 0.78 + rng.uniform(-0.03, 0.03)
    r = 0.06 * dw
    for u in (0.32, 0.68):
        ex, ey = dx + u * dw, dy + 0.34 * dh
        canvas[_ref_ellipse_mask(xx, yy, ex, ey, r, 0.8 * r)] = 0.97
    bar = (yy >= dy + 0.76 * dh) & (yy < dy + 0.83 * dh)
    bar &= (xx >= dx + 0.32 * dw) & (xx < dx + 0.68 * dw)
    canvas[bar] = 0.96


# (width, height, face_min, face_max): the two benchmark frame sizes, then the
# smallest frames the spec accepts with and without a decoy
FRAMES = [(160, 120, 0.35, 0.65), (320, 240, 0.175, 0.325), (1, 6, 2 / 6, 1.0), (6, 6, 2 / 6, 1.0), (1, 2, 1.0, 1.0)]


def _both_draws(draw, ref_draw, shape, seed, args):
    """Run a drawing and its reference from equal canvases and rng states;
    args(rng) gives the arguments after the canvas."""
    base = np.random.default_rng(seed).uniform(0.0, 1.0, size=shape)
    canvases, states = [], []
    for fn in (draw, ref_draw):
        rng = np.random.Generator(np.random.PCG64(seed))
        canvas = base.copy()
        fn(canvas, *args(rng))
        canvases.append(canvas)
        states.append(rng.bit_generator.state)
    return canvases, states


class TestBoxDrawMatchesFullFrame:
    @pytest.mark.parametrize("frame", FRAMES, ids=["160x120", "320x240", "1x6", "6x6", "1x2"])
    @pytest.mark.parametrize("glasses_prob", [0.0, 1.0], ids=["eyes", "glasses"])
    def test_face(self, frame, glasses_prob):
        width, height, face_min, face_max = frame
        spec = SynthSpec(count=1, width=width, height=height, face_min=face_min, face_max=face_max,
                         shift_prob=1.0, max_shift=0.5, decoy_prob=0.0)
        edges = set()
        for seed in range(40):
            face = synth._place_face(spec, np.random.default_rng(seed))
            edges.update(e for e, off in (("left", face.x < 0), ("right", face.x2 > width), ("bottom", face.y2 > height)) if off)
            (new, ref), (s_new, s_ref) = _both_draws(
                synth._draw_face, ref_draw_face, (height, width), seed, lambda rng: (face, rng, glasses_prob)
            )
            assert np.array_equal(new, ref), (seed, face)
            assert s_new == s_ref
        if width > 1:
            assert edges == {"left", "right", "bottom"}

    @pytest.mark.parametrize("frame", FRAMES[:4], ids=["160x120", "320x240", "1x6", "6x6"])
    def test_decoy(self, frame):
        width, height, face_min, face_max = frame
        spec = SynthSpec(count=1, width=width, height=height, face_min=face_min, face_max=face_max, decoy_prob=1.0)
        for seed in range(40):
            (new, ref), (s_new, s_ref) = _both_draws(
                synth._draw_decoy, ref_draw_decoy, (height, width), seed, lambda rng: (spec, rng)
            )
            assert np.array_equal(new, ref), seed
            assert s_new == s_ref

    @pytest.mark.parametrize("frame", FRAMES, ids=["160x120", "320x240", "1x6", "6x6", "1x2"])
    def test_generated_files_match(self, tmp_path, monkeypatch, frame):
        width, height, face_min, face_max = frame
        spec = SynthSpec(count=12, seed=17, width=width, height=height, face_min=face_min, face_max=face_max,
                         shift_prob=1.0, max_shift=0.5, occlusion_prob=0.5, glasses_prob=0.5,
                         decoy_prob=1.0 if height >= 6 else 0.0)
        synth_generate(spec, tmp_path / "box")
        monkeypatch.setattr(synth, "_draw_face", ref_draw_face)
        monkeypatch.setattr(synth, "_draw_decoy", ref_draw_decoy)
        synth_generate(spec, tmp_path / "full")
        assert dir_digest(tmp_path / "box") == dir_digest(tmp_path / "full")


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 6),
    width=st.integers(1, 40),
    height=st.integers(1, 40),
    face_range=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    shift_prob=st.floats(0.0, 1.0),
    max_shift=st.floats(0.0, 1.0),
    no_face_fraction=st.floats(0.0, 1.0),
    decoy_prob=st.sampled_from([0.0, 1.0]),
)
@example(count=20, width=8, height=8, face_range=[0.0, 0.05], shift_prob=0.3, max_shift=0.3,
         no_face_fraction=0.15, decoy_prob=0.5)
def test_any_accepted_spec_draws_every_face(count, width, height, face_range, shift_prob, max_shift,
                                            no_face_fraction, decoy_prob):
    # a spec the constructor accepts synthesizes without numpy warnings, and
    # every frame counted as a face frame gets a (nonempty) face box
    try:
        spec = SynthSpec(count=count, width=width, height=height, face_min=face_range[0], face_max=face_range[1],
                         shift_prob=shift_prob, max_shift=max_shift, no_face_fraction=no_face_fraction,
                         decoy_prob=decoy_prob, occlusion_prob=0.5, seed=count + width)
    except ValueError:
        reject()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        anns = synth_generate(spec, tmp)
    assert len(anns) == count
    assert sum(a.face is None for a in anns) == round(count * no_face_fraction)


class TestVisibleBox:
    def test_half_off_left_edge(self):
        # annotation touches x = 0 and keeps roughly half the width
        vb = visible_box(BoxI(-50, 10, 100, 100), 160, 120)
        assert vb == BoxI(0, 10, 50, 100)

    def test_fully_inside(self):
        assert visible_box(BoxI(5, 5, 20, 20), 160, 120) == BoxI(5, 5, 20, 20)

    def test_fully_outside(self):
        assert visible_box(BoxI(-50, 0, 40, 40), 160, 120) is None

    def test_bottom_clip(self):
        vb = visible_box(BoxI(10, 100, 40, 40), 160, 120)
        assert vb == BoxI(10, 100, 40, 20)


def test_annotation_round_trip(tmp_path):
    anns = [
        Annotation("images/a.pgm", BoxI(1, 2, 30, 40)),
        Annotation("images/b.pgm", None),
    ]
    p = tmp_path / "annotations.csv"
    save_annotations(anns, p)
    assert load_annotations(p) == anns
    assert p.read_text() == "images/a.pgm,1,2,30,40\nimages/b.pgm,,,,\n"


@pytest.mark.parametrize(
    "line",
    [
        "images/a.pgm,1,2,30",
        "images/a.pgm,1,2,30,40,7",
        "images/a.pgm,1,2,3.5,40",
        "images/a.pgm,,2,30,40",
    ],
)
def test_malformed_annotation_names_line(tmp_path, line):
    p = tmp_path / "annotations.csv"
    p.write_text(f"images/b.pgm,,,,\n\n{line}\n")
    with pytest.raises(ParseError, match="annotations.csv:3"):
        load_annotations(p)
