"""Minimal deterministic tensor/layer engine.

Batch-first numpy layers (NCHW): stride-1 convolution with valid/same
padding, ReLU, 2x2 max pooling, flatten, fully connected, softmax; plus
softmax cross-entropy on logits and SGD with momentum and weight decay. There
is no autodiff graph: forward and backward are pure given the parameters, and
every backward rule is written out to be checked against finite differences.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


def he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Conv2D:
    """Stride-1 convolution; padding 'same' (zero) or 'valid'."""

    kind = "conv"

    def __init__(self, in_c: int, out_c: int, k: int, padding: str = "same", *, rng=None, dtype=np.float64):
        if padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
        self.in_c, self.out_c, self.k, self.padding = in_c, out_c, k, padding
        fan_in = in_c * k * k
        if rng is None:
            self.weight = np.zeros((out_c, in_c, k, k), dtype=dtype)
            self.bias = np.zeros(out_c, dtype=dtype)
        else:
            self.weight = he_uniform(rng, (out_c, in_c, k, k), fan_in, dtype)
            # small nonzero biases keep the zero-input (dropped-segment) path
            # off the ReLU kink, where gradients are not well defined
            self.bias = rng.uniform(-0.05, 0.05, size=out_c).astype(dtype)

    def params(self):
        return [self.weight, self.bias]

    def _grid(self, h, w):
        """(rows, wp, top, shifts) of the flat padded grid that `forward`'s
        im2col and the input gradient's col2im use. Per channel, the batch's
        images lie end to end, zero-padded with the input at (top, top) plus
        one spare zero row: `rows` rows of `wp`. Output (n, r, c) is grid column
        (n*rows + r)*wp + c, and tap (i, j) reads shifts[i*k + j] = i*wp + j
        columns on, so each tap's im2col row is one contiguous slice; columns
        in the padding are computed and cropped. The spare row changes no
        value, but with it the products round as the row-major im2col's did on
        the toy network, which the tests pin."""
        pad = 0 if self.padding == "valid" else self.k - 1
        wp = w + pad
        return h + pad + 1, wp, pad // 2, [i * wp + j for i in range(self.k) for j in range(self.k)]

    # The weight gradient keeps the row-major (positions, in_c*k*k) im2col:
    # its products round by that layout, and the model bytes with them.
    def _pad(self, x):
        if self.padding == "valid" or self.k == 1:
            return x
        top = (self.k - 1) // 2
        bot = self.k - 1 - top
        return np.pad(x, ((0, 0), (0, 0), (top, bot), (top, bot)))

    def _cols(self, xp):
        n, c, hp, wp = xp.shape
        oh, ow = hp - self.k + 1, wp - self.k + 1
        win = np.lib.stride_tricks.sliding_window_view(xp, (self.k, self.k), axis=(2, 3))
        # (n, c, oh, ow, k, k) -> (n*oh*ow, c*k*k)
        return win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * self.k * self.k)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.in_c:
            raise ShapeMismatchError(
                f"conv expects (N,{self.in_c},H,W), got {x.shape}"
            )
        n, c, h, w = x.shape
        rows, wp, top, shifts = self._grid(h, w)
        size = n * rows * wp
        # the zero tail keeps the last tap's slice `size` long
        flat = np.zeros((c, size + shifts[-1]), dtype=x.dtype)
        flat[:, :size].reshape(c, n, rows, wp)[:, :, top : top + h, top : top + w] = x.transpose(1, 0, 2, 3)
        cols = np.empty((c, len(shifts), size), dtype=x.dtype)
        for t, s in enumerate(shifts):
            cols[:, t] = flat[:, s : s + size]
        out = self.weight.reshape(self.out_c, -1) @ cols.reshape(-1, size) + self.bias[:, None]
        out = out.reshape(self.out_c, n, rows, wp)[:, :, : rows - self.k, : wp - self.k + 1]
        # C-contiguous NCHW: backward's reductions follow grad_out's memory layout
        return np.ascontiguousarray(out.transpose(1, 0, 2, 3))

    def backward(self, x, grad_out, input_grad=True):
        """(grad_in, [grad_weight, grad_bias]); grad_in is None unless `input_grad`."""
        n, c, h, w = x.shape
        cols = self._cols(self._pad(x))
        oh, ow = grad_out.shape[2:]
        g = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, self.out_c)
        gw = (cols.T @ g).T.reshape(self.weight.shape)
        gb = g.sum(axis=0)
        if not input_grad:
            return None, [gw, gb]
        rows, wp, top, shifts = self._grid(h, w)
        size = n * rows * wp
        g_grid = np.zeros((self.out_c, n, rows, wp), dtype=grad_out.dtype)
        g_grid[:, :, :oh, :ow] = grad_out.transpose(1, 0, 2, 3)
        gcols = (self.weight.reshape(self.out_c, -1).T @ g_grid.reshape(self.out_c, size)).reshape(c, len(shifts), size)
        gflat = np.zeros((c, size + shifts[-1]), dtype=x.dtype)
        for t, s in enumerate(shifts):
            gflat[:, s : s + size] += gcols[:, t]
        gx = gflat[:, :size].reshape(c, n, rows, wp)[:, :, top : top + h, top : top + w]
        return np.ascontiguousarray(gx.transpose(1, 0, 2, 3)), [gw, gb]


class ReLU:
    kind = "relu"

    def params(self):
        return []

    def forward(self, x):
        return np.maximum(x, 0.0)

    def backward(self, x, grad_out):
        return grad_out * (x > 0.0), []


class MaxPool2:
    """2x2 max pooling, stride 2; odd trailing rows/columns are dropped.

    A column pool followed by a row pool, all elementwise; on ties the
    gradient routes to the earlier element, deterministically.
    """

    kind = "maxpool2"

    def params(self):
        return []

    def forward(self, x):
        h2, w2 = x.shape[2] // 2, x.shape[3] // 2
        a = x[:, :, : h2 * 2 : 2, : w2 * 2]
        b = x[:, :, 1 : h2 * 2 : 2, : w2 * 2]
        rows = np.maximum(a, b)
        return np.maximum(rows[:, :, :, 0::2], rows[:, :, :, 1::2])

    def backward(self, x, grad_out):
        n, c = x.shape[:2]
        h2, w2 = x.shape[2] // 2, x.shape[3] // 2
        a = x[:, :, : h2 * 2 : 2, : w2 * 2]
        b = x[:, :, 1 : h2 * 2 : 2, : w2 * 2]
        rows = np.maximum(a, b)
        # per axis, which of its two inputs each max took (the first on ties);
        # the row is read at the column that won. Every other input gets zero.
        col = ~(rows[:, :, :, 0::2] >= rows[:, :, :, 1::2])
        row = ~(a >= b)
        row = np.where(col, row[:, :, :, 1::2], row[:, :, :, 0::2])
        gx = np.zeros_like(x)
        i, j, r, q = np.ogrid[:n, :c, :h2, :w2]
        gx[i, j, 2 * r + row, 2 * q + col] = grad_out
        return gx, []


class Flatten:
    kind = "flatten"

    def params(self):
        return []

    def forward(self, x):
        return x.reshape(x.shape[0], -1)

    def backward(self, x, grad_out):
        return grad_out.reshape(x.shape), []


class FC:
    kind = "fc"

    def __init__(self, in_dim: int, out_dim: int, *, rng=None, dtype=np.float64):
        self.in_dim, self.out_dim = in_dim, out_dim
        if rng is None:
            self.weight = np.zeros((in_dim, out_dim), dtype=dtype)
            self.bias = np.zeros(out_dim, dtype=dtype)
        else:
            self.weight = he_uniform(rng, (in_dim, out_dim), in_dim, dtype)
            self.bias = rng.uniform(-0.05, 0.05, size=out_dim).astype(dtype)

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeMismatchError(f"fc expects (N,{self.in_dim}), got {x.shape}")
        return x @ self.weight + self.bias

    def backward(self, x, grad_out):
        gw = x.T @ grad_out
        gb = grad_out.sum(axis=0)
        return grad_out @ self.weight.T, [gw, gb]


class Softmax:
    kind = "softmax"

    def params(self):
        return []

    def forward(self, x):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def backward(self, x, grad_out):
        p = self.forward(x)
        dot = (grad_out * p).sum(axis=1, keepdims=True)
        return p * (grad_out - dot), []


def forward(layers, x) -> list[np.ndarray]:
    """Run the stack; returns [input, out_1, ..., out_L]."""
    acts = [x]
    for i, layer in enumerate(layers):
        try:
            acts.append(layer.forward(acts[-1]))
        except ShapeMismatchError as exc:
            raise ShapeMismatchError(f"layer {i} ({layer.kind}): {exc}") from None
    return acts


def backward(layers, acts, grad_out, input_grad=True):
    """Gradients of a scalar loss w.r.t. every parameter and the input.

    Returns (param_grads, grad_in) where param_grads[i] aligns with
    layers[i].params(). With `input_grad` false the first layer, which must
    then be a Conv2D, skips its input gradient and grad_in is None.
    """
    param_grads: list[list[np.ndarray]] = [[] for _ in layers]
    g = grad_out
    for i in range(len(layers) - 1, -1, -1):
        if i or input_grad:
            g, param_grads[i] = layers[i].backward(acts[i], g)
        else:
            g, param_grads[i] = layers[i].backward(acts[i], g, input_grad=False)
    return param_grads, g


def xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over a batch of b logit rows, logsumexp(z) -
    z[label] per row, and its gradient w.r.t. the logits, (softmax(z) - onehot) / b."""
    rows = np.arange(len(logits))
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    grad = np.exp(z - lse[:, None])
    grad[rows, labels] -= 1.0
    return float((lse - z[rows, labels]).mean()), grad / len(logits)


def sgd_step(params, grads, velocity, lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
    """v <- momentum*v - lr*(g + weight_decay*w); w <- w + v. In place."""
    if len(params) != len(grads) or len(params) != len(velocity):
        raise ShapeMismatchError("params, grads and velocity must align")
    for w, g, v in zip(params, grads, velocity):
        if w.shape != g.shape or w.shape != v.shape:
            raise ShapeMismatchError(f"mismatched shapes {w.shape}, {g.shape}, {v.shape}")
        v *= momentum
        v -= lr * (g + weight_decay * w)
        w += v
    return params
