import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
