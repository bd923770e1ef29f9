import hashlib
import math
from pathlib import Path

import pytest

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
        for name, value in (("width", 0), ("height", 0), ("noise", -0.1), ("noise", math.nan)):
            with pytest.raises(ValueError, match=f"^{name} "):
                SynthSpec(count=1, **{name: value})


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
