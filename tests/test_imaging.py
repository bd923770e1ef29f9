import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdet.errors import (
    CorruptHeaderError,
    UnsupportedFormatError,
    ZeroDimensionError,
)
from segdet.imaging import (
    BoxI,
    Image,
    crop,
    integral,
    load_image,
    resize_bilinear,
    save_image,
    to_gray,
    union_box,
)

from conftest import gray


def write_pnm(path, magic, w, h, payload, maxval=255):
    path.write_bytes(f"{magic}\n{w} {h}\n{maxval}\n".encode() + bytes(payload))


class TestLoadImage:
    def test_p5_decode(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pnm(p, "P5", 2, 2, [0, 255, 128, 64])
        img = load_image(p)
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        assert img.data.ravel().tolist() == [0, 255, 128, 64]

    def test_p6_decode(self, tmp_path):
        p = tmp_path / "a.ppm"
        write_pnm(p, "P6", 1, 1, [10, 20, 30])
        img = load_image(p)
        assert (img.width, img.height, img.channels) == (1, 1, 3)
        assert img.data[0, 0].tolist() == [10, 20, 30]

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.pgm"
        write_pnm(p, "P5", 4, 4, [0] * 7)
        with pytest.raises(CorruptHeaderError):
            load_image(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_image(tmp_path / "nope.pgm")

    def test_16bit_rejected(self, tmp_path):
        p = tmp_path / "w.pgm"
        write_pnm(p, "P5", 1, 1, [0, 0], maxval=65535)
        with pytest.raises(UnsupportedFormatError):
            load_image(p)

    def test_unknown_magic(self, tmp_path):
        p = tmp_path / "x.pbm"
        write_pnm(p, "P4", 1, 1, [0])
        with pytest.raises(UnsupportedFormatError):
            load_image(p)

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x05\x06")
        img = load_image(p)
        assert img.data.ravel().tolist() == [5, 6]

    def test_save_round_trip(self, tmp_path):
        data = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        img = Image(4, 2, 3, data)
        save_image(img, tmp_path / "r.ppm")
        back = load_image(tmp_path / "r.ppm")
        assert np.array_equal(back.data, data)


class TestToGray:
    def test_white_rgb(self):
        img = Image(2, 1, 3, np.full((1, 2, 3), 255, dtype=np.uint8))
        assert np.allclose(to_gray(img).data, 1.0)

    def test_pure_red(self):
        data = np.zeros((1, 1, 3), dtype=np.uint8)
        data[..., 0] = 255
        assert to_gray(Image(1, 1, 3, data)).data[0, 0] == pytest.approx(0.299, abs=1e-6)

    def test_single_channel_scaling(self):
        img = Image(1, 1, 1, np.full((1, 1, 1), 128, dtype=np.uint8))
        assert to_gray(img).data[0, 0] == pytest.approx(128 / 255)


def _resize_reference(src, out_w, out_h):
    """Bilinear resize from four `np.ix_` corner gathers: the reference for
    `resize_bilinear`'s separable blend, which must give the same bytes."""
    ih, iw = src.shape
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (iw / out_w) - 0.5
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (ih / out_h) - 0.5
    xf = np.floor(xs)
    yf = np.floor(ys)
    fx = xs - xf
    fy = ys - yf
    x0 = np.clip(xf, 0, iw - 1).astype(np.intp)
    x1 = np.clip(xf + 1, 0, iw - 1).astype(np.intp)
    y0 = np.clip(yf, 0, ih - 1).astype(np.intp)
    y1 = np.clip(yf + 1, 0, ih - 1).astype(np.intp)
    v00 = src[np.ix_(y0, x0)]
    v01 = src[np.ix_(y0, x1)]
    v10 = src[np.ix_(y1, x0)]
    v11 = src[np.ix_(y1, x1)]
    top = v00 * (1.0 - fx) + v01 * fx
    bot = v10 * (1.0 - fx) + v11 * fx
    return top * (1.0 - fy)[:, None] + bot * fy[:, None]


class TestResize:
    @pytest.mark.parametrize(
        "src_hw, out_wh",
        [
            ((23, 31), (31, 23)),  # identical size
            ((23, 31), (1, 1)),
            ((1, 1), (4, 4)),
            ((7, 9), (36, 28)),  # 4x upscale: weak.scale_min can be 0.25
            ((120, 160), (640, 480)),
            ((17, 13), (5, 11)),  # odd sizes, down in x and up in y
            ((120, 160), (133, 100)),  # a pyramid rung
            ((75, 61), (28, 24)),  # canonical patch sizes (w, h)
            ((40, 90), (56, 20)),
            ((9, 40), (48, 48)),
        ],
    )
    def test_equals_four_gather_reference(self, rng, src_hw, out_wh):
        img = gray(rng.uniform(0, 1, src_hw))
        out = resize_bilinear(img, *out_wh).data
        want = _resize_reference(img.data, *out_wh)
        assert out.shape == want.shape and out.tobytes() == want.tobytes()

    def test_identity(self, rng):
        img = gray(rng.uniform(0, 1, (5, 7)))
        out = resize_bilinear(img, 7, 5)
        assert np.array_equal(out.data, img.data)

    def test_constant_stays_constant(self):
        img = gray(np.full((3, 4), 0.37))
        out = resize_bilinear(img, 9, 5)
        assert np.allclose(out.data, 0.37)

    def test_two_to_four_hand_values(self):
        # half-pixel mapping of [0, 1] onto 4 samples, worked by hand
        out = resize_bilinear(gray([[0.0, 1.0]]), 4, 1)
        assert np.allclose(out.data[0], [0.0, 0.25, 0.75, 1.0])
        assert np.all(np.diff(out.data[0]) >= 0)

    def test_zero_dims_rejected(self):
        with pytest.raises(ZeroDimensionError):
            resize_bilinear(gray([[1.0]]), 0, 3)

    def test_round_trip_constant(self):
        img = gray(np.full((6, 6), 0.5))
        out = resize_bilinear(resize_bilinear(img, 11, 3), 6, 6)
        assert np.array_equal(out.data, img.data)


def box_sum(ii, b: BoxI) -> float:
    """Sum of the samples inside b by four-corner lookup: the identity an
    integral image must satisfy."""
    return float(ii[b.y2, b.x2] - ii[b.y, b.x2] - ii[b.y2, b.x] + ii[b.y, b.x])


class TestIntegral:
    def test_full_box_of_ones(self):
        ii = integral(gray(np.ones((2, 2))))
        assert box_sum(ii, BoxI(0, 0, 2, 2)) == 4.0

    def test_empty_box(self):
        ii = integral(gray(np.ones((2, 2))))
        assert box_sum(ii, BoxI(1, 1, 0, 1)) == 0.0

    def test_against_naive_sums(self, rng):
        data = rng.uniform(0, 1, (8, 8))
        ii = integral(gray(data))
        for _ in range(50):
            x, y = rng.integers(0, 8, 2)
            w = int(rng.integers(0, 8 - x + 1))
            h = int(rng.integers(0, 8 - y + 1))
            naive = sum(data[j, i] for j in range(y, y + h) for i in range(x, x + w))
            assert box_sum(ii, BoxI(int(x), int(y), w, h)) == pytest.approx(naive, abs=1e-9)

    def test_monotone_for_nonnegative(self, rng):
        ii = integral(gray(rng.uniform(0, 1, (6, 9))))
        assert np.all(np.diff(ii, axis=0) >= 0)
        assert np.all(np.diff(ii, axis=1) >= 0)

    @given(st.integers(0, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 3), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_adjacent_boxes_add(self, x, w1, w2, y, h):
        data = np.random.default_rng(7).uniform(0, 1, (9, 14))
        ii = integral(gray(data))
        a = BoxI(x, y, w1, h)
        b = BoxI(x + w1, y, w2, h)
        whole = BoxI(x, y, w1 + w2, h)
        assert box_sum(ii, a) + box_sum(ii, b) == pytest.approx(box_sum(ii, whole), abs=1e-9)


class TestCrop:
    def test_full_box_copies(self, rng):
        img = gray(rng.uniform(0, 1, (4, 5)))
        out = crop(img, BoxI(0, 0, 5, 4))
        assert np.array_equal(out.data, img.data)

    def test_out_of_bounds_zero_padded(self):
        img = gray(np.ones((4, 4)))
        out = crop(img, BoxI(-2, 0, 4, 4))
        assert np.all(out.data[:, :2] == 0)
        assert np.all(out.data[:, 2:] == 1)
        assert (out.width, out.height) == (4, 4)

    def test_interior_box(self):
        img = gray(np.arange(16, dtype=float).reshape(4, 4))
        out = crop(img, BoxI(1, 2, 2, 2))
        assert out.data.tolist() == [[9.0, 10.0], [13.0, 14.0]]

    def test_degenerate_box(self):
        with pytest.raises(ZeroDimensionError):
            crop(gray(np.ones((3, 3))), BoxI(0, 0, 0, 2))

    def test_image_type_preserved(self):
        img = Image(3, 3, 3, np.zeros((3, 3, 3), dtype=np.uint8))
        out = crop(img, BoxI(1, 1, 4, 4))
        assert isinstance(out, Image)
        assert (out.width, out.height, out.channels) == (4, 4, 3)


def test_union_box():
    boxes = [BoxI(2, 3, 4, 4), BoxI(0, 5, 3, 3), BoxI(5, 0, 1, 2)]
    assert union_box(boxes) == BoxI(0, 0, 6, 8)
