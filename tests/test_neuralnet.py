import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdet import deepsegface as dsf
from segdet.errors import ShapeMismatchError
from segdet.neuralnet import (
    FC,
    Conv2D,
    Flatten,
    MaxPool2,
    ReLU,
    Softmax,
    backward,
    forward,
    sgd_step,
    xent,
)
from segdet.segments import ALL_KINDS, default_layout


def numeric_grads(layers, x, label, params, h=1e-5, probe=12, seed=0):
    """Central finite differences of the cross-entropy loss, the oracle side."""
    rng = np.random.default_rng(seed)

    def loss():
        return xent(forward(layers, x)[-1], [label])[0]

    out = []
    for w in params:
        flat = w.ravel()
        idx = rng.choice(flat.size, size=min(probe, flat.size), replace=False)
        grads = {}
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            grads[int(i)] = (lp - lm) / (2 * h)
        out.append(grads)
    return out


def assert_gradcheck(layers, x, label=0, tol=1e-4, seed=0):
    acts = forward(layers, x)
    _, g = xent(acts[-1], [label])
    pgrads, _ = backward(layers, acts, g)
    params = [w for layer in layers for w in layer.params()]
    analytic = [gr for layer_g in pgrads for gr in layer_g]
    numeric = numeric_grads(layers, x, label, params, seed=seed)
    for a, n in zip(analytic, numeric):
        flat = a.ravel()
        for i, fd in n.items():
            rel = abs(fd - flat[i]) / max(abs(fd), abs(flat[i]), 1e-8)
            assert rel < tol, (fd, flat[i])


class TestForward:
    def test_identity_one_by_one_conv(self, rng):
        conv = Conv2D(2, 2, 1, "valid")
        conv.weight[0, 0, 0, 0] = 1.0
        conv.weight[1, 1, 0, 0] = 1.0
        x = rng.normal(size=(3, 2, 5, 4))
        assert np.allclose(conv.forward(x), x)

    def test_softmax_symmetric_logits(self):
        out = Softmax().forward(np.zeros((1, 2)))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_same_padding_preserves_dims(self, rng):
        conv = Conv2D(3, 4, 3, "same", rng=rng)
        x = rng.normal(size=(2, 3, 7, 9))
        assert conv.forward(x).shape == (2, 4, 7, 9)

    def test_valid_padding_shrinks(self, rng):
        conv = Conv2D(1, 2, 3, "valid", rng=rng)
        assert conv.forward(rng.normal(size=(1, 1, 7, 9))).shape == (1, 2, 5, 7)

    def test_maxpool_floors_odd_dims(self, rng):
        x = rng.normal(size=(1, 1, 5, 7))
        out = MaxPool2().forward(x)
        assert out.shape == (1, 1, 2, 3)
        assert out[0, 0, 0, 0] == x[0, 0, :2, :2].max()

    def test_forward_deterministic(self, rng):
        layers = [Conv2D(1, 3, 3, "same", rng=rng), ReLU(), MaxPool2(), Flatten(), FC(27, 2, rng=rng), Softmax()]
        x = rng.normal(size=(2, 1, 6, 6))
        a = forward(layers, x)[-1]
        b = forward(layers, x)[-1]
        assert np.array_equal(a, b)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_softmax_normalized(self, logits):
        p = Softmax().forward(np.array([logits]))
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) < 1e-9

    def test_shape_mismatch_names_layer(self, rng):
        layers = [Conv2D(3, 2, 3, "same", rng=rng)]
        with pytest.raises(ShapeMismatchError, match="layer 0"):
            forward(layers, rng.normal(size=(1, 2, 5, 5)))
        with pytest.raises(ShapeMismatchError, match="fc"):
            forward([FC(4, 2, rng=rng)], rng.normal(size=(1, 5)))


class TestGradients:
    def test_conv_same(self, rng):
        layers = [Conv2D(2, 3, 3, "same", rng=rng), Flatten(), FC(3 * 6 * 5, 2, rng=rng), Softmax()]
        assert_gradcheck(layers, rng.normal(size=(1, 2, 6, 5)))

    def test_conv_valid(self, rng):
        layers = [Conv2D(1, 2, 3, "valid", rng=rng), Flatten(), FC(2 * 4 * 3, 2, rng=rng), Softmax()]
        assert_gradcheck(layers, rng.normal(size=(1, 1, 6, 5)))

    def test_relu(self, rng):
        layers = [FC(6, 8, rng=rng), ReLU(), FC(8, 2, rng=rng), Softmax()]
        assert_gradcheck(layers, rng.normal(size=(1, 6)))

    def test_maxpool(self, rng):
        layers = [MaxPool2(), Flatten(), FC(6, 2, rng=rng), Softmax()]
        assert_gradcheck(layers, rng.normal(size=(1, 1, 4, 7)))

    def test_composed_stack(self, rng):
        layers = [
            Conv2D(1, 4, 3, "same", rng=rng),
            ReLU(),
            MaxPool2(),
            Conv2D(4, 6, 3, "same", rng=rng),
            ReLU(),
            MaxPool2(),
            Flatten(),
            FC(6 * 2 * 2, 5, rng=rng),
            ReLU(),
            FC(5, 2, rng=rng),
            Softmax(),
        ]
        assert_gradcheck(layers, rng.normal(size=(1, 1, 8, 8)), label=1)

    def test_input_gradient(self, rng):
        layers = [Conv2D(1, 2, 3, "same", rng=rng), Flatten(), FC(2 * 4 * 4, 2, rng=rng), Softmax()]
        x = rng.normal(size=(1, 1, 4, 4))
        acts = forward(layers, x)
        _, g = xent(acts[-1], [0])
        _, gx = backward(layers, acts, g)
        h = 1e-5
        for _ in range(10):
            i = tuple(int(v) for v in (0, 0, rng.integers(4), rng.integers(4)))
            orig = x[i]
            x[i] = orig + h
            lp = xent(forward(layers, x)[-1], [0])[0]
            x[i] = orig - h
            lm = xent(forward(layers, x)[-1], [0])[0]
            x[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gx[i]) / max(abs(fd), abs(gx[i]), 1e-8) < 1e-4


# --- the row-major im2col conv and the four-`where` pool gradient, kept as references


def _ref_cols(conv, x):
    """(n*oh*ow, in_c*k*k) im2col of the zero-padded input, rows in NHW order."""
    if conv.padding == "same" and conv.k > 1:
        top = (conv.k - 1) // 2
        x = np.pad(x, ((0, 0), (0, 0), (top, conv.k - 1 - top), (top, conv.k - 1 - top)))
    n, c, hp, wp = x.shape
    oh, ow = hp - conv.k + 1, wp - conv.k + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (conv.k, conv.k), axis=(2, 3))
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * conv.k * conv.k), (oh, ow)


def ref_conv(conv, x, grad_out):
    """(output, grad_in, grad_weight): one GEMM each on the im2col, and
    col2im as k*k shifted adds into the padded input."""
    n, c, h, w = x.shape
    cols, (oh, ow) = _ref_cols(conv, x)
    out = (cols @ conv.weight.reshape(conv.out_c, -1).T + conv.bias).reshape(n, oh, ow, conv.out_c)
    g = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, conv.out_c)
    gcols = (g @ conv.weight.reshape(conv.out_c, -1)).reshape(n, oh, ow, c, conv.k, conv.k)
    gcols = gcols.transpose(0, 3, 1, 2, 4, 5)
    gxp = np.zeros((n, c, oh + conv.k - 1, ow + conv.k - 1), dtype=x.dtype)
    for i in range(conv.k):
        for j in range(conv.k):
            gxp[:, :, i : i + oh, j : j + ow] += gcols[:, :, :, :, i, j]
    top = (conv.k - 1) // 2 if conv.padding == "same" else 0
    gx = gxp[:, :, top : top + h, top : top + w]
    return out.transpose(0, 3, 1, 2), gx, (cols.T @ g).T.reshape(conv.weight.shape)


def ref_pool_backward(x, grad_out):
    h2, w2 = x.shape[2] // 2, x.shape[3] // 2
    a = x[:, :, : h2 * 2 : 2, : w2 * 2]
    b = x[:, :, 1 : h2 * 2 : 2, : w2 * 2]
    rows = np.maximum(a, b)
    col_first = rows[:, :, :, 0::2] >= rows[:, :, :, 1::2]
    grows = np.zeros_like(rows)
    grows[:, :, :, 0::2] = np.where(col_first, grad_out, 0.0)
    grows[:, :, :, 1::2] = np.where(col_first, 0.0, grad_out)
    gx = np.zeros_like(x)
    gx[:, :, : h2 * 2 : 2, : w2 * 2] = np.where(a >= b, grows, 0.0)
    gx[:, :, 1 : h2 * 2 : 2, : w2 * 2] = np.where(a >= b, 0.0, grows)
    return gx


def _toy_convs(dtype):
    """(conv, input height, input width) for every conv shape of the toy
    network, built the way training builds it; kinds of one canonical size
    run the same shapes, so the first stands for all."""
    layout = default_layout("toy")
    net = dsf.build_network(dsf.network_config("toy", layout, dtype), seed=5)
    for kind in {layout.canonical[kind]: kind for kind in reversed(ALL_KINDS)}.values():
        h, w = layout.canonical[kind]
        for layer in net.columns[kind]:
            if isinstance(layer, MaxPool2):
                h, w = h // 2, w // 2
            elif isinstance(layer, Conv2D):
                yield layer, h, w


class TestConvAgainstReference:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_toy_network_convs_are_bit_identical(self, dtype):
        """Forward, input gradient and weight gradient equal the row-major
        im2col's exactly on every conv of the toy network, batches of 1-64."""
        rng = np.random.default_rng(7)
        for conv, h, w in _toy_convs(dtype):
            x = rng.normal(size=(64, conv.in_c, h, w)).astype(dtype)
            oh, ow = (h, w) if conv.padding == "same" else (h - conv.k + 1, w - conv.k + 1)
            g = rng.normal(size=(64, conv.out_c, oh, ow)).astype(dtype)
            for n in range(1, 65):
                out = conv.forward(x[:n])
                gx, (gw, _) = conv.backward(x[:n], g[:n])
                for got, want in zip((out, gx, gw), ref_conv(conv, x[:n], g[:n])):
                    assert np.array_equal(got, want), (h, w, conv.k, n)
                assert out.flags.c_contiguous and gx.flags.c_contiguous

    @given(
        n=st.integers(1, 4),
        in_c=st.integers(1, 4),
        out_c=st.integers(1, 4),
        k=st.sampled_from([1, 3]),
        padding=st.sampled_from(["same", "valid"]),
        dh=st.integers(0, 6),
        dw=st.integers(0, 6),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_shape_matches_reference(self, n, in_c, out_c, k, padding, dh, dw, dtype, seed):
        # summation order may differ from the reference's on other shapes, so within rounding
        rng = np.random.default_rng(seed)
        conv = Conv2D(in_c, out_c, k, padding, rng=rng, dtype=dtype)
        x = rng.normal(size=(n, in_c, k + dh, k + dw)).astype(dtype)
        out = conv.forward(x)
        g = rng.normal(size=out.shape).astype(dtype)
        gx, (gw, _) = conv.backward(x, g)
        rtol = 1e-5 if dtype == np.float32 else 1e-12
        for got, want in zip((out, gx, gw), ref_conv(conv, x, g)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.allclose(got, want, rtol=rtol, atol=rtol * max(1.0, np.abs(want).max()))
        assert out.flags.c_contiguous and gx.flags.c_contiguous

    def test_skipping_the_input_gradient_keeps_parameter_gradients(self, rng):
        layers = [Conv2D(1, 3, 3, "same", rng=rng), ReLU(), MaxPool2(), Flatten(), FC(3 * 2 * 3, 2, rng=rng)]
        acts = forward(layers, rng.normal(size=(2, 1, 5, 7)))
        _, g = xent(acts[-1], [0, 1])
        full, gx = backward(layers, acts, g)
        skipped, none = backward(layers, acts, g, input_grad=False)
        assert gx.shape == (2, 1, 5, 7) and none is None
        assert all(np.array_equal(a, b) for fa, fb in zip(full, skipped) for a, b in zip(fa, fb))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_gradient_is_bit_identical(self, rng, dtype):
        # integer-valued inputs after a ReLU tie often; odd sizes drop a row or column
        for shape in [(2, 3, 6, 8), (3, 2, 7, 5), (1, 1, 1, 3), (4, 2, 9, 9)]:
            x = np.maximum(rng.integers(-3, 3, size=shape), 0).astype(dtype)
            g = rng.normal(size=(*shape[:2], shape[2] // 2, shape[3] // 2)).astype(dtype)
            gx, _ = MaxPool2().backward(x, g)
            assert gx.dtype == dtype and gx.tobytes() == ref_pool_backward(x, g).tobytes()

class TestSGD:
    def test_plain_step(self):
        w = np.zeros(1)
        v = np.zeros(1)
        sgd_step([w], [np.ones(1)], [v], lr=0.1)
        assert w[0] == pytest.approx(-0.1)

    def test_momentum_doubles_displacement(self):
        w = np.zeros(1)
        v = np.zeros(1)
        g = np.ones(1)
        sgd_step([w], [g], [v], lr=0.1, momentum=0.9)
        first = -w[0]
        before = w[0]
        sgd_step([w], [g], [v], lr=0.1, momentum=0.9)
        second = before - w[0]
        assert second == pytest.approx(1.9 * first)

    def test_zero_lr_is_identity(self, rng):
        w = rng.normal(size=(3, 3))
        orig = w.copy()
        sgd_step([w], [rng.normal(size=(3, 3))], [np.zeros((3, 3))], lr=0.0)
        assert np.array_equal(w, orig)

    def test_weight_decay_pulls_toward_zero(self):
        w = np.ones(1)
        sgd_step([w], [np.zeros(1)], [np.zeros(1)], lr=0.1, weight_decay=0.5)
        assert w[0] == pytest.approx(0.95)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            sgd_step([np.zeros(2)], [np.zeros(3)], [np.zeros(2)], lr=0.1)


class TestXent:
    def test_symmetric(self):
        assert xent(np.zeros((1, 2)), [1])[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_wrong_logits_are_not_capped(self):
        # a probability clamp at 1e-12 would cap this loss near 27.6
        loss, grad = xent(np.array([[1000.0, 0.0]]), [1])
        assert loss == 1000.0
        assert np.array_equal(grad, [[1.0, -1.0]])

    def test_certain_correct(self):
        loss, grad = xent(np.array([[0.0, -1000.0]]), [0])
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((1, 2)))

    def test_batch_mean_and_gradient(self):
        logits = np.array([[0.5, -1.25], [2.0, 3.5]])
        labels = np.array([1, 0])
        loss, grad = xent(logits, labels)
        p = Softmax().forward(logits)
        assert loss == pytest.approx(-np.log(p[[0, 1], labels]).mean(), abs=1e-12)
        assert np.allclose(grad, (p - np.eye(2)[labels]) / 2, rtol=0.0, atol=1e-15)
        assert np.allclose(grad.sum(axis=1), 0.0, rtol=0.0, atol=1e-15)
