"""Dense float tensors with reverse-mode automatic differentiation.

Everything downstream (the message encoder, the classification heads, both
training loops) is built from the ops in this module. Data is numpy-backed:
training runs in float32, while float64 inputs are accepted so numerical
checks can run at higher precision. An op output that needs a gradient
gets a record: the records of its inputs (or the inputs themselves when
they are leaves), its backward rule and its gradient. A rule keeps only
the arrays it reads, never an input tensor, so an intermediate array goes
as soon as the forward code drops it unless a rule reads it. ``backward``
sweeps the records once in reverse topological order, freeing each as
soon as its rule has run.

Every gradient is a dense array of its tensor's shape.

Evaluation runs under ``no_grad``, which records nothing, so a forward
pass holds only the arrays it is still using.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "tape",
    "backward",
    "no_grad",
    "linear",
    "gather_rows",
    "gather_bl",
    "segment_mean",
    "scatter_rows",
    "softmax",
    "layer_norm",
    "feed_forward",
    "sigmoid",
    "dropout",
    "mse_loss",
    "cross_entropy",
]

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype in _FLOAT_DTYPES:
        return arr
    return arr.astype(np.float32)


class Tensor:
    """A dense n-dimensional float array, optionally carrying a gradient.

    ``requires_grad`` marks leaves (parameters). Tensors produced by ops
    inherit it from their inputs and carry their op's record in ``_node``;
    a leaf's ``_node`` is None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None

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

    # Arithmetic sugar; scalars are promoted to constants of the same dtype.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


TensorLike = Union[Tensor, np.ndarray, float, int, list]

Rule = Callable[[np.ndarray], tuple]


class _Node:
    """The autograd record of one op output.

    ``parents`` holds one entry per op input: its record, the input itself
    when it is a leaf, or None when it needs no gradient. ``rule(g)`` maps
    the output's gradient to one gradient (or None) per input. ``grad``
    accumulates the output's gradient during a sweep, in ``dtype``.
    """

    __slots__ = ("parents", "rule", "grad", "dtype")

    def __init__(self, parents: tuple, rule: Rule, dtype):
        self.parents = parents
        self.rule = rule
        self.grad: Optional[np.ndarray] = None
        self.dtype = dtype


def _ensure(x: TensorLike, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype if dtype is not None else np.float32))


# whether op outputs record backward rules; ``no_grad`` clears it
_recording = True


class no_grad:
    """Record no backward rules inside the block; for evaluation.

    Op outputs get ``requires_grad=False`` and no record, so no rule
    keeps an array past the forward code's use of it. Values are the same
    as with recording. The switch is one flag for the whole process. That
    is safe only while every op output is made on the main thread, as
    every command makes them: an op run on another thread while the block
    is open would record nothing either.
    """

    def __enter__(self) -> None:
        global _recording
        self._previous, _recording = _recording, False

    def __exit__(self, *exc_info) -> None:
        global _recording
        _recording = self._previous


def _from_op(data: np.ndarray, parents: tuple, rule: Rule) -> Tensor:
    """The output tensor of an op over ``parents``, recorded when it needs a gradient.

    ``rule`` must not hold a parent tensor; it returns one gradient per
    parent, and None stands for one that is not needed.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = _recording and any(p.requires_grad for p in parents)
    out.grad = None
    out._node = None
    if out.requires_grad:
        out._node = _Node(tuple(_target(p) for p in parents), rule, data.dtype)
    return out


def _target(t: Tensor):
    """Where gradient for ``t`` goes: its record, itself if a leaf, else None."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _accum(target, g) -> None:
    """Add ``g`` to the ``grad`` of a record or leaf, in its dtype."""
    g = np.asarray(g, dtype=target.dtype)
    target.grad = g if target.grad is None else target.grad + g


def _zeros_like(a: np.ndarray) -> Callable[[], np.ndarray]:
    """``np.zeros_like(a)``, memory layout included, without holding ``a``."""
    perm = sorted(range(a.ndim), key=lambda axis: -abs(a.strides[axis]))
    shape = tuple(a.shape[axis] for axis in perm)
    inverse = tuple(int(axis) for axis in np.argsort(perm))
    dtype = a.dtype
    if perm == list(range(a.ndim)):
        return lambda: np.zeros(shape, dtype=dtype)
    return lambda: np.zeros(shape, dtype=dtype).transpose(inverse)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to ``shape``, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def tape(root: Tensor) -> list:
    """Records and leaves reachable from ``root``, inputs before consumers.

    Only gradient-relevant entries are kept: a record (``_Node``) per op
    output and the leaf tensor itself per leaf. Each appears exactly once,
    so one backward pass visits every entry once.
    """
    order: list = []
    seen: set = set()
    stack_ = [(_target(root), False)]
    while stack_:
        node, expanded = stack_.pop()
        if expanded:
            order.append(node)
            continue
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack_.append((node, True))
        if isinstance(node, _Node):
            for parent in node.parents:
                stack_.append((parent, False))
    return order


def _swept(g) -> None:
    raise RuntimeError("graph already swept: backward has run over it once; "
                       "run the forward pass again")


def backward(loss: Tensor) -> None:
    """Populate ``grad = d(loss)/d(leaf)`` for every reachable leaf.

    Gradients of reachable tensors are reset first (each call yields fresh
    derivatives); tensors not feeding into ``loss`` are left untouched.
    Fan-out is handled by summation during the single reverse sweep.

    The sweep frees the records as it goes: once a record's rule has run,
    the record drops its rule, its parents and its ``grad``, so the arrays
    the rule held go as soon as nothing else uses them. Op outputs never
    hold a ``grad``: after ``backward`` only leaves (parameters and inputs)
    have one, and the graph can be swept only once: a second ``backward``
    over it raises RuntimeError.

    Gradient arrays are shared, not copied: a pass-through rule (add,
    reshape, transpose) hands on its incoming array or a view of it,
    so one array can be the ``grad`` of several tensors. Treat every
    ``grad`` as read-only; nothing here modifies one in place.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = tape(loss)
    for node in order:
        node.grad = None
    (loss if loss._node is None else loss._node).grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if not isinstance(node, _Node):
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            for parent, g in zip(node.parents, node.rule(node.grad)):
                if parent is not None and g is not None:
                    _accum(parent, g)
        node.grad = None
        node.parents = ()
        node.rule = _swept


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------


def add(a: TensorLike, b: TensorLike) -> Tensor:
    a = _ensure(a)
    b = _ensure(b, a.dtype)
    a_shape, b_shape = a.shape, b.shape

    def back(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _from_op(a.data + b.data, (a, b), back)


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise product; each side keeps the other operand only if it needs a gradient."""
    a = _ensure(a)
    b = _ensure(b, a.dtype)
    a_shape, b_shape = a.shape, b.shape
    b_data = b.data if a.requires_grad else None
    a_data = a.data if b.requires_grad else None

    def back(g):
        return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                None if a_data is None else _unbroadcast(g * a_data, b_shape))

    return _from_op(a.data * b.data, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with batching over leading axes.

    Gradients follow dA = dC @ B^T and dB = A^T @ dC; each is computed only
    for an operand that requires it. A 2-D ``b`` is a weight, and the
    product is ``linear(a, b)``. Otherwise the gradients are summed over any
    broadcast batch axes.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul operands must be at least 2-d, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        return linear(a, b)
    a_shape, b_shape = a.shape, b.shape
    b_data = b.data if a.requires_grad else None
    a_data = a.data if b.requires_grad else None

    def back(g):
        ga = gb = None
        if b_data is not None:
            ga = _unbroadcast(np.matmul(g, b_data.swapaxes(-1, -2)), a_shape)
        if a_data is not None:
            gb = _unbroadcast(np.matmul(a_data.swapaxes(-1, -2), g), b_shape)
        return ga, gb

    return _from_op(np.matmul(a.data, b.data), (a, b), back)


def linear(a: Tensor, w: Tensor, bias: Optional[Tensor] = None,
           take=None, put=None) -> Tensor:
    """``a @ w + bias`` for a 2-D weight ``w`` (k, n) and an optional (n,) bias.

    ``a`` is viewed as one (rows, k) matrix over all its leading axes, so
    the forward product and both weight-side gradients are single 2-D GEMMs
    and dW never holds one product per batch element. The bias is added
    into the product's own buffer, so the op keeps one output array and
    one graph node. Values are those of ``matmul(a, w) + bias``, and the
    bias gradient is summed one leading axis at a time, as ``add`` does.
    The rule keeps the (rows, k) input only for dW and the weight only
    for dA.

    ``take`` and ``put`` move rows between a padded layout and a packed
    (m, ...) one inside this node, so neither layout is held twice:

    - ``take``, a tuple of 1-D index arrays into a's leading axes, makes the
      input rows ``a[take]``, each flattened to k values; the rule keeps
      those rows, not ``a``;
    - ``put`` = (index, shape), ``index`` a tuple of 1-D index arrays,
      makes the output a zero ``shape + (n,)`` tensor holding the
      product's rows at ``index``.

    The cells of either index must be distinct. With either one the rows
    form a 2-D (m, n) gradient, and the bias gradient is its column sum.
    """
    row_shape = a.shape[-1:] if take is None else a.shape[len(take):]
    if w.ndim != 2 or math.prod(row_shape) != w.shape[0]:
        raise ShapeError(f"linear needs (..., k) @ (k, n), got {a.shape} @ {w.shape}")
    k, n = w.shape
    if bias is not None and bias.shape != (n,):
        raise ShapeError(f"linear bias must have shape ({n},), got {bias.shape}")

    a2 = (a.data if take is None else a.data[take]).reshape(-1, k)
    out = a2 @ w.data
    if bias is not None:
        out += bias.data
    if put is None:
        data = out if take is not None else out.reshape(a.shape[:-1] + (n,))
    else:
        index, layout = put
        data = np.zeros(tuple(layout) + (n,), dtype=out.dtype)
        data[index] = out

    a_shape = a.shape
    a_zeros = _zeros_like(a.data) if take is not None else None
    w_data = w.data if a.requires_grad else None
    rows = a2 if w.requires_grad else None
    has_bias, plain = bias is not None, put is None and take is None

    def back(g):
        g2 = (g if put is None else g[put[0]]).reshape(-1, n)
        ga = gw = gb = None
        if has_bias:
            gb = _unbroadcast(g if plain else g2, (n,))
        if w_data is not None:
            ga = g2 @ w_data.T
            if take is None:
                ga = ga.reshape(a_shape)
            else:
                full = a_zeros()
                full[take] = ga.reshape((-1,) + row_shape)
                ga = full
        if rows is not None:
            gw = rows.T @ g2
        return ga, gw, gb

    parents = (a, w) if bias is None else (a, w, bias)
    return _from_op(data, parents, back)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    a_shape = a.shape

    def back(g):
        return (g.reshape(a_shape),)

    return _from_op(a.data.reshape(shape), (a,), back)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def back(g):
        return (g.transpose(inverse),)

    return _from_op(a.data.transpose(axes), (a,), back)


# ---------------------------------------------------------------------------
# indexing / assembly
# ---------------------------------------------------------------------------


def gather_rows(a: Tensor, indices) -> Tensor:
    """Rows of ``a`` at ``indices``; repeated indices accumulate gradient.

    The gradient of ``a`` is ``np.add.at`` of the output's gradient into a
    zero array of a's shape: each row sums its contributions from zero in
    index order, and a row never read stays zero.
    """
    idx = np.asarray(indices)
    zeros = _zeros_like(a.data)

    def back(g):
        ga = zeros()
        np.add.at(ga, idx, g)
        return (ga,)

    return _from_op(a.data[idx], (a,), back)


def gather_bl(a: Tensor, b_idx, l_idx) -> Tensor:
    """Rows a[b_idx[k], l_idx[k]] for paired 1-D index arrays of distinct cells.

    The output is (n,) + a.shape[2:]; backward writes the rows' gradient
    into a zero array of a's shape in one assignment.
    """
    b_idx = np.asarray(b_idx)
    l_idx = np.asarray(l_idx)
    zeros = _zeros_like(a.data)

    def back(g):
        ga = zeros()
        ga[b_idx, l_idx] = g
        return (ga,)

    return _from_op(a.data[b_idx, l_idx], (a,), back)


_POOL_BLOCK = 128  # segments pooled at a time: their sums stay in cache across the steps


def pool_segments(table: np.ndarray, ids, lengths) -> np.ndarray:
    """Mean of the rows of 2-d ``table`` per segment, their ids laid end to end; empty ones are 0.

    Each segment adds its rows to zero in order, as ``np.add.at`` would, so
    the sums are bit-identical to it. ``_POOL_BLOCK`` segments go at a time:
    step k adds the k-th row of each that has one, then one divide ends them.
    """
    ids, lengths = np.asarray(ids), np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    out = np.zeros((len(lengths), table.shape[1]), dtype=table.dtype)
    for lo in range(0, len(lengths), _POOL_BLOCK):
        sums = out[lo:lo + _POOL_BLOCK]
        n, s = lengths[lo:lo + _POOL_BLOCK], starts[lo:lo + _POOL_BLOCK]
        every = int(n.min())
        for k in range(int(n.max())):
            live = slice(None) if k < every else np.flatnonzero(n > k)
            sums[live] += table[ids[s[live] + k]]
        sums /= np.maximum(n, 1).astype(table.dtype)[:, None]
    return out


def segment_mean(a: Tensor, segment_ids, n_segments: int) -> Tensor:
    """Mean of the rows of ``a`` per segment id (``pool_segments``). Empty segments yield zeros."""
    seg = np.asarray(segment_ids)
    n_rows = np.bincount(seg, minlength=n_segments)
    per_segment = np.maximum(n_rows, 1).astype(a.data.dtype)[:, None]

    def back(g):
        # divide per segment, then spread: one row-sized array, same values
        return ((g / per_segment)[seg],)

    return _from_op(pool_segments(a.data, np.argsort(seg, kind="stable"), n_rows), (a,), back)


def scatter_rows(rows: Tensor, b_idx, l_idx, batch: int, length: int) -> Tensor:
    """Place rows[k] at out[b_idx[k], l_idx[k]] in a zero (batch, length, ...) tensor.

    Index pairs must be distinct.
    """
    b_idx = np.asarray(b_idx)
    l_idx = np.asarray(l_idx)
    data = np.zeros((batch, length) + rows.shape[1:], dtype=rows.data.dtype)
    data[b_idx, l_idx] = rows.data

    def back(g):
        return (g[b_idx, l_idx],)

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
        return (out * (g - inner),)

    return _from_op(out, (x,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift.

    The rule keeps the normalized input and its inverse deviation, not x.
    """
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    gamma_data = gamma.data

    def back(g):
        gg = g * gamma_data
        gx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _from_op(xhat * gamma.data + beta.data, (x, gamma, beta), back)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erf(x) = 1 - exp(-x^2) P(x) / Q(x) for 1 < x < 8. U and Q lead with an
# implied 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
          4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERF_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
          9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)
_ERF_BLOCK = 1 << 14  # float64 values per block: four block buffers fit in L2


def _horner(x: np.ndarray, coefs: Sequence[float], out: np.ndarray, monic: bool) -> np.ndarray:
    """cephes ``polevl`` (or ``p1evl`` when ``monic``) at every x, in its operation order."""
    if monic:
        np.add(x, coefs[0], out=out)
    else:
        np.multiply(x, coefs[0], out=out)
        out += coefs[1]
    for c in coefs[2 - monic:]:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """scipy's ``erf`` of a C-contiguous float array, bit for bit, into ``out`` (which may be ``x``).

    It evaluates cephes' formulas in float64 and rounds once to the dtype,
    as scipy does. The |x| <= 1 formula runs over every value in blocks,
    with x clipped to [-1, 1]. The values with 1 < |x| are gathered as the
    blocks are read and finished in one pass: ±1 from |x| >= 8 on (where
    cephes' 1 - erfc(|x|) rounds to 1), else the tail formula with libm's
    ``exp`` through ``math.exp``, the function cephes calls (numpy's own
    ``exp`` rounds some values differently). NaN stays NaN.
    """
    if not out.flags.c_contiguous or out.shape != x.shape:
        raise ValueError("_erf writes into a C-contiguous out of x's shape")
    if not x.size:
        return out
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    size = min(flat.size, _ERF_BLOCK)
    xs, z, num, den = (np.empty(size) for _ in range(4))
    tail_at, tail_x = [], []
    for start in range(0, flat.size, _ERF_BLOCK):
        block = flat[start:start + _ERF_BLOCK]
        n = block.size
        far = np.flatnonzero(np.abs(block) > 1.0)
        tail_at.append(far + start)
        tail_x.append(block[far].astype(np.float64))
        b_x = np.clip(block, -1.0, 1.0, out=xs[:n])
        b_z = np.multiply(b_x, b_x, out=z[:n])
        b_num = _horner(b_z, _ERF_T, num[:n], monic=False)
        b_num *= b_x
        b_num /= _horner(b_z, _ERF_U, den[:n], monic=True)
        flat_out[start:start + n] = b_num
    at, v = np.concatenate(tail_at), np.concatenate(tail_x)
    a = np.abs(v)
    mid = a < 8.0
    am = a[mid]
    y = np.fromiter(map(math.exp, (-am * am).tolist()), np.float64, am.size)
    y *= _horner(am, _ERF_P, np.empty_like(am), monic=False)
    y /= _horner(am, _ERF_Q, np.empty_like(am), monic=True)
    result = np.ones_like(a)
    result[mid] = 1.0 - y
    flat_out[at] = np.copysign(result, v)
    return out


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(gelu(linear(x, w1, b1)), w2, b2)`` over (m, k) rows, as one record.

    GELU is the exact 0.5 * u * (1 + erf(u / sqrt(2))) of the (m, f)
    pre-activation ``u``, with ``_erf`` bit-identical to scipy's ``erf``.
    The rule keeps ``x`` (for dW1), ``u``, its ``cdf`` and the two weights.
    The activation ``u * cdf`` is freed once the second GEMM has read it,
    and backward recomputes it into ``cdf``'s buffer for dW2, after the
    GELU derivative has read ``cdf``. Both are dropped before the (m, f)
    ``g @ w2.T`` is made. Under ``no_grad`` no rule keeps ``u`` and
    ``cdf``, so they go before the second GEMM, as they did with three
    ops. Each step keeps the operation order of the three ops, so values
    and gradients are bit-identical to them.
    """
    if (x.ndim != 2 or w1.ndim != 2 or w2.ndim != 2 or w1.shape[0] != x.shape[1]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise ShapeError(f"feed_forward needs (m, k) @ (k, f) + (f,), then @ (f, n) + (n,), "
                         f"got {x.shape} @ {w1.shape} + {b1.shape}, @ {w2.shape} + {b2.shape}")
    u = x.data @ w1.data
    u += b1.data
    cdf = u * _INV_SQRT2
    _erf(cdf, cdf)
    cdf += 1.0
    cdf *= 0.5
    act = u * cdf
    if not _recording:
        u = cdf = None
    out = act @ w2.data
    out += b2.data

    rows = x.data if w1.requires_grad else None
    w1_data = w1.data if x.requires_grad else None
    w2_data = w2.data

    def back(g):
        nonlocal u, cdf
        du = u * -0.5  # the GELU derivative, cdf + u * pdf(u)
        du *= u
        np.exp(du, out=du)
        du *= _INV_SQRT2PI
        du *= u
        du += cdf
        gw2 = np.multiply(u, cdf, out=cdf).T @ g  # the activation, remade in cdf's buffer
        u = cdf = None
        du *= g @ w2_data.T
        return (None if w1_data is None else du @ w1_data.T,
                None if rows is None else rows.T @ du, du.sum(axis=0), gw2, g.sum(axis=0))

    return _from_op(out, (x, w1, b1, w2, b2), back)


def sigmoid(x: Tensor) -> Tensor:
    pos = x.data >= 0
    out = np.empty_like(x.data)
    out[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    out[~pos] = ex / (1.0 + ex)

    def back(g):
        return (g * out * (1.0 - out),)

    return _from_op(out, (x,), back)


def _draw_kept(rng: np.random.Generator, p: float, draw_shape: tuple, keep) -> np.ndarray:
    """``rng.random(draw_shape)[keep] >= p``, leaving the generator as that does.

    When ``keep`` is a tuple of 1-D index arrays picking distinct rows in
    ascending order and the generator is a PCG64, only the kept rows'
    uniforms are drawn: one ``rng.random`` call per run of adjacent kept
    rows, and ``advance`` over each gap, since PCG64 spends one 64-bit
    output per float64. ``advance`` drops a buffered 32-bit half-output,
    which the full draw keeps, so it is put back. Any other index picks
    from a full draw.
    """
    bits = rng.bit_generator
    rows_only = isinstance(bits, np.random.PCG64) and all(np.ndim(i) == 1 for i in keep)
    flat = np.ravel_multi_index(keep, draw_shape[:len(keep)]) if rows_only else None
    if flat is None or (np.diff(flat) <= 0).any():
        return rng.random(draw_shape)[keep] >= p
    row = math.prod(draw_shape[len(keep):])
    kept = np.empty((flat.size, row), dtype=bool)
    before = bits.state
    starts = np.flatnonzero(np.diff(flat, prepend=-2) != 1).tolist()
    done = 0  # draw rows passed so far
    for start, stop in zip(starts, starts[1:] + [flat.size]):
        bits.advance((int(flat[start]) - done) * row)
        kept[start:stop] = (rng.random((stop - start) * row) >= p).reshape(stop - start, row)
        done = int(flat[start]) + stop - start
    bits.advance((math.prod(draw_shape[:len(keep)]) - done) * row)
    if before["has_uint32"]:
        bits.state = {**bits.state, "has_uint32": 1, "uinteger": before["uinteger"]}
    return kept.reshape((flat.size,) + tuple(draw_shape[len(keep):]))


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator],
            train: bool, draw_shape: Optional[tuple] = None, keep=None) -> Tensor:
    """Inverted dropout: scale kept units by 1/(1-p) when training, identity in eval.

    With an index ``keep``, ``x`` is a part of a larger tensor: its mask is
    that of a dropout over all of ``draw_shape``, picked by ``keep``, and
    the generator advances as for one. When ``keep`` is a tuple of 1-D
    index arrays picking distinct rows in ascending order (a row dropout),
    only the kept rows' uniforms are drawn; any other index picks from a
    full draw. The rule keeps a bool mask and rebuilds ``mask * scale``
    where it multiplies.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    kept = rng.random(x.shape) >= p if keep is None else _draw_kept(rng, p, draw_shape, keep)
    scale = np.asarray(1.0, dtype=x.dtype) / (1.0 - p)

    def back(g):
        return (g * (kept * scale),)

    return _from_op(x.data * (kept * scale), (x,), back)


def mse_loss(pred: Tensor, target: TensorLike) -> Tensor:
    """Mean of squared elementwise differences over all elements."""
    target = _ensure(target, pred.dtype)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shapes differ: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = pred.size

    def back(g):
        scale = g * (2.0 / n)
        return scale * diff, -scale * diff

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
    logits_shape = logits.shape

    def back(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), y] -= 1.0
        p *= g / n
        return (p.reshape(logits_shape),)

    return _from_op(np.asarray(loss, dtype=logits.dtype), (logits,), back)
