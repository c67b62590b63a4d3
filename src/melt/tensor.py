"""Dense float tensors with reverse-mode automatic differentiation.

Everything downstream (the message encoder, the classification heads, both
training loops) is built from the ops in this module. Data is numpy-backed:
training runs in float32, while float64 inputs are accepted so numerical
checks can run at higher precision. Each op records its inputs and a local
backward rule on the output tensor; ``backward`` replays them once in
reverse topological order.

A gradient is a dense array of the tensor's shape, except that a row gather
(``gather_rows``) hands its table a ``RowGrad``: only the rows it touched,
so a large embedding table never gets a table-sized zero gradient.
``np.asarray(grad)`` gives the dense gradient in either case.

Evaluation runs under ``no_grad``, which records nothing, so a forward
pass holds only the arrays it is still using.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "RowGrad",
    "ShapeError",
    "tape",
    "backward",
    "no_grad",
    "gather_rows",
    "gather_bl",
    "gather_positions",
    "segment_mean",
    "scatter_rows",
    "softmax",
    "layer_norm",
    "gelu",
    "sigmoid",
    "dropout",
    "mse_loss",
    "cross_entropy",
]

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return np.ascontiguousarray(arr, dtype=dtype)
    if arr.dtype in _FLOAT_DTYPES:
        return arr
    return arr.astype(np.float32)


class RowGrad:
    """Row-sparse gradient: ``values[i]`` is the gradient of row ``rows[i]``.

    ``rows`` are sorted and distinct; every other row of the ``shape``-shaped
    gradient is zero. ``np.asarray`` builds the dense gradient.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple):
        self.rows = rows
        self.values = values
        self.shape = shape

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.rows] = self.values
        return dense if dtype is None else dense.astype(dtype, copy=False)


class Tensor:
    """A dense n-dimensional float array, optionally carrying a gradient.

    ``requires_grad`` marks leaves (parameters). Tensors produced by ops
    inherit it from their inputs and carry the recorded backward rule.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Union[np.ndarray, RowGrad]] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars are promoted to constants of the same dtype.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_ensure(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        return transpose(self, axes)

    def backward(self) -> None:
        backward(self)


TensorLike = Union[Tensor, np.ndarray, float, int, list]


def _ensure(x: TensorLike, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype if dtype is not None else np.float32))


class _GradMode(threading.local):
    recording = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Record no backward rules inside the block; for evaluation.

    Op outputs get ``requires_grad=False`` and keep neither their inputs
    nor a backward rule, so each intermediate array is freed as soon as
    the forward code drops it instead of living as long as the output.
    Values are the same as with recording. The switch is per thread: a
    training loop in another thread keeps recording.
    """
    previous = _grad_mode.recording
    _grad_mode.recording = False
    try:
        yield
    finally:
        _grad_mode.recording = previous


def _from_op(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = _grad_mode.recording and any(p.requires_grad for p in parents)
    out.grad = None
    if out.requires_grad:
        out._parents = parents
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g) -> None:
    """Add ``g`` to ``t.grad``; a second contribution to a RowGrad densifies it."""
    if not t.requires_grad:
        return
    if not isinstance(g, RowGrad):
        g = np.asarray(g, dtype=t.data.dtype)
    t.grad = g if t.grad is None else np.asarray(t.grad) + np.asarray(g)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to ``shape``, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def tape(root: Tensor) -> list:
    """Recorded operations reachable from ``root``, inputs before consumers.

    Only gradient-relevant nodes are kept; each appears exactly once, so one
    backward pass visits every node once.
    """
    order: list = []
    seen: set = set()
    stack_ = [(root, False)]
    while stack_:
        node, expanded = stack_.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack_.append((node, True))
        for parent in node._parents:
            stack_.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad = d(loss)/d(tensor)`` for every reachable tensor.

    Gradients of reachable tensors are reset first (each call yields fresh
    derivatives); tensors not feeding into ``loss`` are left untouched.
    Fan-out is handled by summation during the single reverse sweep.

    Gradient arrays are shared, not copied: a pass-through rule (add,
    reshape, transpose, sum) hands on its incoming array or a view of it,
    so one array can be the ``grad`` of several tensors. Treat every
    ``grad`` as read-only; nothing here modifies one in place.

    A table read only through one ``gather_rows`` gets a ``RowGrad``;
    ``np.asarray(t.grad)`` is the dense gradient for every tensor.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = tape(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------


def add(a: TensorLike, b: TensorLike) -> Tensor:
    a = _ensure(a)
    b = _ensure(b, a.dtype)

    def back(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _from_op(a.data + b.data, (a, b), back)


def sub(a: TensorLike, b: TensorLike) -> Tensor:
    a = _ensure(a)
    b = _ensure(b, a.dtype)

    def back(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, -_unbroadcast(g, b.shape))

    return _from_op(a.data - b.data, (a, b), back)


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    a = _ensure(a)
    b = _ensure(b, a.dtype)

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _from_op(a.data * b.data, (a, b), back)


def neg(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, -g)

    return _from_op(-a.data, (a,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with batching over leading axes.

    Gradients follow dA = dC @ B^T and dB = A^T @ dC; each is computed only
    for an operand that requires it. When ``b`` is a 2-D weight, ``a`` is
    viewed as one (rows, k) matrix over all its leading axes, so the forward
    product and both gradients are single 2-D GEMMs and dB never holds one
    product per batch element. Otherwise the gradients are summed over any
    broadcast batch axes.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul operands must be at least 2-d, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")

    if b.ndim == 2:
        k, n = b.shape
        a2 = a.data.reshape(-1, k)

        def back(g):
            g2 = g.reshape(-1, n)
            if a.requires_grad:
                _accum(a, (g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                _accum(b, a2.T @ g2)

        return _from_op((a2 @ b.data).reshape(a.shape[:-1] + (n,)), (a, b), back)

    def back(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape))

    return _from_op(np.matmul(a.data, b.data), (a, b), back)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    def back(g):
        _accum(a, g.reshape(a.shape))

    return _from_op(a.data.reshape(shape), (a,), back)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def back(g):
        _accum(a, g.transpose(inverse))

    return _from_op(a.data.transpose(axes), (a,), back)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def back(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape))

    return _from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]

    def back(g):
        scaled = g / count
        if axis is None:
            _accum(a, np.broadcast_to(scaled, a.shape))
            return
        if not keepdims:
            scaled = np.expand_dims(scaled, axis)
        _accum(a, np.broadcast_to(scaled, a.shape))

    return _from_op(a.data.mean(axis=axis, keepdims=keepdims), (a,), back)


# ---------------------------------------------------------------------------
# indexing / assembly
# ---------------------------------------------------------------------------


def gather_rows(a: Tensor, indices) -> Tensor:
    """Rows of ``a`` at ``indices``; repeated indices accumulate gradient.

    The gradient of ``a`` is a RowGrad over the distinct rows read (a
    negative index names the same row as its positive form). Each row sums
    its contributions from zero in index order, as a dense ``np.add.at``
    would, so ``np.asarray`` of it is bit-identical to that.
    """
    idx = np.asarray(indices)

    def back(g):
        rows, inverse = np.unique(idx % a.shape[0], return_inverse=True)
        values = np.zeros((len(rows),) + a.shape[1:], dtype=a.data.dtype)
        np.add.at(values, inverse.reshape(idx.shape), g)
        _accum(a, RowGrad(rows, values, a.shape))

    return _from_op(a.data[idx], (a,), back)


def gather_bl(a: Tensor, b_idx, l_idx) -> Tensor:
    """Select rows a[b, l] for index arrays that broadcast to one shape S.

    The output has shape S + a.shape[2:]: (n, ...) for paired 1-D arrays,
    or a (B, q, ...) grid for a (B, 1) batch index and (B, q) slots.
    Repeated (b, l) pairs accumulate gradient.
    """
    b_idx = np.asarray(b_idx)
    l_idx = np.asarray(l_idx)

    def back(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (b_idx, l_idx), g)
        _accum(a, ga)

    return _from_op(a.data[b_idx, l_idx], (a,), back)


def gather_positions(a: Tensor, positions) -> Tensor:
    """One row per batch element: a[i, positions[i]]."""
    positions = np.asarray(positions)
    return gather_bl(a, np.arange(a.shape[0]), positions)


def segment_mean(a: Tensor, segment_ids, n_segments: int) -> Tensor:
    """Mean of the rows of ``a`` per segment id. Empty segments yield zeros.

    Each segment adds its rows to zero in index order, as ``np.add.at``
    would, so the sums are bit-identical to it. Step k adds the k-th row of
    every segment that has one: the loop runs as often as the longest
    segment has rows, not once per row.
    """
    seg = np.asarray(segment_ids)
    n_rows = np.bincount(seg, minlength=n_segments)
    safe = np.maximum(n_rows.astype(a.data.dtype), 1.0)
    order = np.argsort(seg, kind="stable")
    starts = np.cumsum(n_rows) - n_rows
    sums = np.zeros((n_segments,) + a.shape[1:], dtype=a.data.dtype)
    for k in range(int(n_rows.max(initial=0))):
        live = np.flatnonzero(n_rows > k)
        sums[live] += a.data[order[starts[live] + k]]

    def back(g):
        _accum(a, g[seg] / safe[seg].reshape((-1,) + (1,) * (a.ndim - 1)))

    return _from_op(sums / safe.reshape((-1,) + (1,) * (a.ndim - 1)), (a,), back)


def scatter_rows(rows: Tensor, b_idx, l_idx, batch: int, length: int) -> Tensor:
    """Place rows[k] at out[b_idx[k], l_idx[k]] in a zero (batch, length, ...) tensor.

    Index pairs must be distinct.
    """
    b_idx = np.asarray(b_idx)
    l_idx = np.asarray(l_idx)
    data = np.zeros((batch, length) + rows.shape[1:], dtype=rows.data.dtype)
    data[b_idx, l_idx] = rows.data

    def back(g):
        _accum(rows, g[b_idx, l_idx])

    return _from_op(data, (rows,), back)


# ---------------------------------------------------------------------------
# nonlinearities and losses
# ---------------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis`` (max-subtracted)."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def back(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accum(x, out * (g - inner))

    return _from_op(out, (x,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    d = x.shape[-1]

    def back(g):
        gg = g * gamma.data
        gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        _accum(x, gx)
        axes = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=axes))
        _accum(beta, g.sum(axis=axes))

    return _from_op(xhat * gamma.data + beta.data, (x, gamma, beta), back)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit, 0.5 * x * (1 + erf(x / sqrt(2))).

    Forward and backward each reuse one buffer; the in-place steps keep the
    operation order of the formula, so the results are bit-identical to it.
    """
    cdf = x.data * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def back(g):
        dx = x.data * -0.5
        dx *= x.data
        np.exp(dx, out=dx)
        dx *= _INV_SQRT2PI
        dx *= x.data
        dx += cdf
        dx *= g
        _accum(x, dx)

    return _from_op(x.data * cdf, (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    pos = x.data >= 0
    out = np.empty_like(x.data)
    out[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    out[~pos] = ex / (1.0 + ex)

    def back(g):
        _accum(x, g * out * (1.0 - out))

    return _from_op(out, (x,), back)


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator],
            train: bool, draw_shape: Optional[tuple] = None, keep=None) -> Tensor:
    """Inverted dropout: scale kept units by 1/(1-p) when training, identity in eval.

    With an index ``keep``, ``x`` is a part of a larger tensor: the mask's
    uniforms are drawn at that tensor's ``draw_shape`` and ``keep`` picks
    x's entries from them, so the generator advances as for a dropout over
    all of it.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    if keep is None:
        draw = rng.random(x.shape)
    else:
        draw = rng.random(draw_shape)[keep]
    mask = (draw >= p).astype(x.data.dtype) / (1.0 - p)

    def back(g):
        _accum(x, g * mask)

    return _from_op(x.data * mask, (x,), back)


def mse_loss(pred: Tensor, target: TensorLike) -> Tensor:
    """Mean of squared elementwise differences over all elements."""
    target = _ensure(target, pred.dtype)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shapes differ: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = pred.size

    def back(g):
        scale = g * (2.0 / n)
        _accum(pred, scale * diff)
        _accum(target, -scale * diff)

    return _from_op(np.asarray((diff * diff).mean(), dtype=pred.dtype), (pred, target), back)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true classes.

    Accepts (C,) logits with an int label or (N, C) logits with N labels.
    Computed through log-sum-exp for stability.
    """
    squeeze = logits.ndim == 1
    z = logits.data.reshape(1, -1) if squeeze else logits.data
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, c = z.shape
    if y.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {y.shape}")
    if y.min() < 0 or y.max() >= c:
        raise ValueError(f"label out of range [0, {c}): {y.min() if y.min() < 0 else y.max()}")
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    loss = (lse - z[np.arange(n), y]).mean()

    def back(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), y] -= 1.0
        p *= g / n
        _accum(logits, p.reshape(logits.shape))

    return _from_op(np.asarray(loss, dtype=logits.dtype), (logits,), back)
