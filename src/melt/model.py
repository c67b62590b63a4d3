"""The message-level transformer encoder.

A sequence of per-message vectors is embedded by ``embed_batch`` (learned
MASK and PAD vectors substituted per the mask plan, learned absolute
position embeddings added), run through N post-norm encoder layers with
padding-masked bidirectional self-attention, and finished with a dense
reconstruction head that predicts the pooled vector of each selected
message. Pre-training (with mask plans) and fine-tuning (without) share
``embed_batch``.

The encoder computes only real messages' rows, and rows are what goes in
and out: ``embed_batch`` takes the (n, d) input rows of the real slots not
masked, and ``MeltModel.forward`` gathers its input's real slots once into
an (n, d) matrix (a view when no slot is PAD), runs every layer's
row-wise work (projections, residuals, norms, feed-forward, row dropouts)
on those rows, and returns one row per slot the caller reads. Callers read few top-layer rows (the
selected slots in pre-training, the target slot in fine-tuning) and name
them by a (B, L) bool mask; the last layer computes queries and
everything after them only at those slots.
Attention keeps its padded (B, h, L, L) layout: each projection writes its
rows into a zero (B, L, d) buffer within its own graph node, and the output
projection reads the context's real rows within its node, so no
activation is held twice. A PAD key is a zero row under a -1e9 bias, whose
weight stays exactly 0. Attention mixes a query only with its own
sequence's keys and values, and every other op of a post-norm layer works
row by row, so packing is exact math:

- a PAD slot has no output row, and ``pad_vector`` changes no output;
- train-mode dropout gives each computed entry the mask a padded forward
  would: a row dropout draws uniforms only for the rows computed and
  advances the generator over the others, and the attention-weight
  dropout draws the full (B, h, L, L) uniforms and keeps the entries it
  needs, so the generator advances as in a padded forward;
- only float rounding can differ from a padded forward: gradients of
  biases, norms and weights sum over n real rows instead of B·L rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .corpus import Action, MaskPlan, SequenceChunk
from .tensor import (Tensor, dropout, feed_forward, gather_bl, gather_rows, layer_norm,
                     linear, matmul, reshape, scatter_rows, softmax, transpose)

INIT_STD = 0.02
ATTN_MASK_BIAS = -1e9  # finite stand-in for -inf; exp() underflows to exactly 0


@dataclass
class MeltConfig:
    n_layers: int = 2
    d_model: int = 768
    ff_dim: int = 2048
    n_heads: int = 8
    dropout: float = 0.1
    max_seq: int = 40
    use_positions: bool = True

    def __post_init__(self):
        for name in ("n_layers", "d_model", "ff_dim", "n_heads", "max_seq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


_DRAW_BLOCK = 65536  # float64 values per draw: 512 KB


def _gaussian(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """N(0, INIT_STD^2) values of ``shape``, drawn into the ``dtype`` array in blocks.

    A generator's stream does not depend on how the draws are split, and
    scaling a float64 block in place then storing it as ``dtype`` rounds
    as ``(rng.standard_normal(shape) * INIT_STD).astype(dtype)`` does, so
    the bytes are those of the one-call form without its two full-size
    float64 temporaries.
    """
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    block = np.empty(min(_DRAW_BLOCK, flat.size))
    for start in range(0, flat.size, _DRAW_BLOCK):
        part = block[:min(_DRAW_BLOCK, flat.size - start)]
        rng.standard_normal(out=part)
        part *= INIT_STD
        flat[start:start + len(part)] = part
    return out


ParamMaker = Callable[..., Tensor]


def _param_maker(seed: Optional[int], dtype, made: List[Tuple[str, Tensor]]) -> ParamMaker:
    """``make(name, shape, fill=None)`` builds one parameter and appends it to ``made``.

    It draws N(0, INIT_STD^2) from a generator seeded with ``seed`` when
    ``fill`` is None, in blocks straight into the parameter (``_gaussian``),
    or fills the constant; constants draw nothing, so the draw order is the
    order of the Gaussian parameters alone. With ``seed`` None it neither
    draws nor fills: every parameter is left as ``np.empty`` made it, for a
    caller that fills them all. ``made`` lists every parameter once, in the
    order made: the owner's ``named_parameters``.
    """
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = None if seed is None else np.random.default_rng(seed)

    def make(name: str, shape: tuple, fill: Optional[float] = None) -> Tensor:
        if rng is None:
            data = np.empty(shape, dtype=dtype)
        elif fill is None:
            data = _gaussian(rng, shape, dtype)
        else:
            data = np.full(shape, fill, dtype=dtype)
        param = Tensor(data, requires_grad=True)
        made.append((name, param))
        return param

    return make


class _Cells(NamedTuple):
    """The m rows a layer computes, as cells of its (B, Q) query grid.

    Row i is grid cell (b[i], j[i]) and batch slot (b[i], slot[i]); ``src``
    is its index among the layer's input rows. In the last layer, Q is the
    most slots one sequence reads, j a slot's rank among those its sequence
    reads, and ``grid`` the (B, Q) slots (0 where none is read). With
    ``grid`` and ``src`` None, Q = L and the rows are the input rows.
    """
    b: np.ndarray
    j: np.ndarray
    slot: np.ndarray
    src: Optional[np.ndarray] = None
    grid: Optional[np.ndarray] = None


class EncoderLayer:
    """Post-norm transformer encoder layer: attention then feed-forward."""

    def __init__(self, cfg: MeltConfig, make: ParamMaker, prefix: str):
        d, ff = cfg.d_model, cfg.ff_dim
        self.wq = make(f"{prefix}.wq", (d, d))
        self.bq = make(f"{prefix}.bq", (d,), 0.0)
        self.wk = make(f"{prefix}.wk", (d, d))
        self.bk = make(f"{prefix}.bk", (d,), 0.0)
        self.wv = make(f"{prefix}.wv", (d, d))
        self.bv = make(f"{prefix}.bv", (d,), 0.0)
        self.wo = make(f"{prefix}.wo", (d, d))
        self.bo = make(f"{prefix}.bo", (d,), 0.0)
        self.w1 = make(f"{prefix}.w1", (d, ff))
        self.b1 = make(f"{prefix}.b1", (ff,), 0.0)
        self.w2 = make(f"{prefix}.w2", (ff, d))
        self.b2 = make(f"{prefix}.b2", (d,), 0.0)
        self.ln1_g = make(f"{prefix}.ln1_g", (d,), 1.0)
        self.ln1_b = make(f"{prefix}.ln1_b", (d,), 0.0)
        self.ln2_g = make(f"{prefix}.ln2_g", (d,), 1.0)
        self.ln2_b = make(f"{prefix}.ln2_b", (d,), 0.0)

    def forward(self, x: Tensor, attn_bias: Tensor, slots: Tuple[np.ndarray, np.ndarray],
                out: _Cells, n_heads: int, p_drop: float, train: bool,
                rng: Optional[np.random.Generator]) -> Tensor:
        """Packed rows in and out: (n, d) at the real ``slots``, (m, d) at ``out``.

        ``slots`` = (b, l) places the n input rows in the (B, L) batch.
        Keys and values are written into zero (B, L, d) buffers there and
        the queries into a zero (B, Q, d) buffer at out's cells, so
        attention keeps its (B, h, Q, L) layout and a PAD key's zero score
        plus the -1e9 bias keeps its weight at exactly 0. The projections,
        residuals, norms and feed-forward run only on packed rows. The
        attention-weight dropout draws the full (B, h, L, L) uniforms and
        keeps the entries at out's cells; the row dropouts draw only the
        rows computed and skip the generator over the others, so it
        advances as in a padded layer. No intermediate is bound longer
        than the op that reads it, so an array that no backward rule keeps
        is freed as soon as it has been read.
        """
        batch, length = attn_bias.shape[0], attn_bias.shape[-1]
        row_shape, keep_rows = (batch, length, x.shape[1]), (out.b, out.slot)
        xq = x if out.src is None else gather_rows(x, out.src)
        h = xq + dropout(self._attend(x, xq, attn_bias, slots, out, n_heads, p_drop, train, rng),
                         p_drop, rng, train, row_shape, keep_rows)
        h = layer_norm(h, self.ln1_g, self.ln1_b)
        h = h + dropout(feed_forward(h, self.w1, self.b1, self.w2, self.b2), p_drop, rng, train,
                        row_shape, keep_rows)
        return layer_norm(h, self.ln2_g, self.ln2_b)

    def _attend(self, x: Tensor, xq: Tensor, attn_bias: Tensor,
                slots: Tuple[np.ndarray, np.ndarray], out: _Cells, n_heads: int,
                p_drop: float, train: bool, rng: Optional[np.random.Generator]) -> Tensor:
        """Self-attention of out's query rows ``xq`` over the keys of ``x``, output-projected.

        Returns the (m, d) rows before their dropout.
        """
        d = x.shape[1]
        batch, length = attn_bias.shape[0], attn_bias.shape[-1]
        dh = d // n_heads
        q_len = length if out.grid is None else out.grid.shape[1]

        def split_heads(t: Tensor) -> Tensor:
            return transpose(reshape(t, t.shape[:2] + (n_heads, dh)), (0, 2, 1, 3))

        q = split_heads(linear(xq, self.wq, self.bq, put=((out.b, out.j), (batch, q_len))))
        k = split_heads(linear(x, self.wk, self.bk, put=(slots, (batch, length))))
        v = split_heads(linear(x, self.wv, self.bv, put=(slots, (batch, length))))
        attn = softmax(matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh)) + attn_bias,
                       axis=-1)
        keep_attn = None if out.grid is None else (
            np.arange(batch)[:, None, None], np.arange(n_heads)[None, :, None],
            out.grid[:, None, :])
        attn = dropout(attn, p_drop, rng, train, (batch, n_heads, length, length), keep_attn)
        return linear(transpose(matmul(attn, v), (0, 2, 1, 3)), self.wo, self.bo,
                      take=(out.b, out.j))


class MeltModel:
    """Message-level transformer parameters and forward pass."""

    def __init__(self, config: MeltConfig, seed: Optional[int] = 1337, dtype=np.float32):
        """Parameters drawn from ``seed``; with ``seed`` None, unfilled and undrawn,
        for a caller that fills every one, as ``pretrain.load_params_into`` does."""
        self.config = config
        self.dtype = dtype
        d = config.d_model
        self._params: List[Tuple[str, Tensor]] = []
        make = _param_maker(seed, dtype, self._params)
        self.pos_embedding = make("pos_embedding", (config.max_seq, d))
        self.mask_vector = make("mask_vector", (d,))
        self.pad_vector = make("pad_vector", (d,))
        self.layers = [EncoderLayer(config, make, f"layers.{i}")
                       for i in range(config.n_layers)]
        self.head_w = make("head.w", (d, d))
        self.head_b = make("head.b", (d,), 0.0)

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        """Every parameter, named, in the order ``__init__`` made them."""
        return list(self._params)

    def forward(self, x: Tensor, attn_mask: np.ndarray, train: bool = False,
                rng: Optional[np.random.Generator] = None,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """Contextualize a (B, L, d) batch into one (m, d) row per slot read.

        ``attn_mask`` is (B, L) bool, True at a real slot. A PAD slot adds
        -1e9 to every query's score for its key, which zeroes its attention
        weight exactly. ``rows`` is a (B, L) bool mask of the real slots the
        caller reads; the output holds their rows in ``np.nonzero(rows)``
        order, and without ``rows`` every real slot's in
        ``np.nonzero(attn_mask)`` order. The real slots are gathered once
        and every layer runs on them; the last layer computes only the rows
        read. This is exact: the rows equal a padded forward's up to float
        rounding, and train-mode dropout consumes ``rng`` as the padded
        forward does.
        """
        b, length, d = x.shape
        if d != self.config.d_model:
            raise ValueError(f"input dim {d} != model dim {self.config.d_model}")
        if length > self.config.max_seq:
            raise ValueError(f"sequence length {length} exceeds max_seq {self.config.max_seq}")
        attn_mask = np.asarray(attn_mask, dtype=bool)
        if rows is not None:
            rows = np.asarray(rows)
            if rows.shape != (b, length) or rows.dtype != bool or (rows & ~attn_mask).any():
                raise ValueError(f"rows must be a ({b}, {length}) bool mask of real slots")
        bias = Tensor(np.where(attn_mask, 0.0, ATTN_MASK_BIAS)
                      .astype(x.dtype).reshape(b, 1, 1, length))
        slots = np.nonzero(attn_mask)
        top = every = _Cells(slots[0], slots[1], slots[1])
        if rows is not None:
            qb, slot = np.nonzero(rows)
            qj = (np.cumsum(rows, axis=1) - 1)[qb, slot]  # a slot's rank among those read
            grid = np.zeros((b, rows.sum(axis=1).max(initial=0)), dtype=np.intp)
            grid[qb, qj] = slot
            packed = np.cumsum(attn_mask).reshape(b, length) - 1  # a real slot's row in h
            top = _Cells(qb, qj, slot, packed[qb, slot], grid)
        # with no PAD slot the real rows are x's own rows, in order: a view, no copy
        h = reshape(x, (b * length, d)) if attn_mask.all() else gather_bl(x, *slots)
        p = self.config.dropout
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            h = layer.forward(h, bias, slots, top if i == last else every,
                              self.config.n_heads, p, train, rng)
        return h

    def reconstruct_rows(self, rows: Tensor) -> Tensor:
        """Apply the reconstruction head to (m, d) top-layer rows."""
        return linear(rows, self.head_w, self.head_b)


# ---------------------------------------------------------------------------
# sequence embedding
# ---------------------------------------------------------------------------


def embed_batch(model: MeltModel, chunks: Sequence[SequenceChunk],
                plans: Optional[Sequence[MaskPlan]], rows: Tensor
                ) -> Tuple[Tensor, np.ndarray]:
    """Assemble the (B, L, d) input batch and its attention mask.

    ``rows`` is (n, d): the input vector of every real slot that no plan
    marks MASK_TOKEN, in (batch, slot) order. That is a message's pooled
    vector, or the recorded substitute of a RANDOM_REPLACE slot; a
    trainable word level's output passes its gradients on. MASK_TOKEN
    slots take the learned mask vector and PAD slots the learned pad
    vector, so the content of a masked slot never enters the input.
    Position embeddings are added last.
    """
    b = len(chunks)
    length = len(chunks[0].slots)
    d = model.config.d_model
    attn = np.array([[slot is not None for slot in c.slots] for c in chunks], dtype=bool)
    masked = np.zeros((b, length), dtype=bool)
    for bi, (chunk, plan) in enumerate(zip(chunks, plans or ())):
        if len(plan.actions) != len(chunk.slots):
            raise ValueError(
                f"mask plan has {len(plan.actions)} slots, chunk has {len(chunk.slots)}")
        masked[bi] = [action is Action.MASK_TOKEN for action in plan.actions]
    masked &= attn
    x = scatter_rows(rows, *np.nonzero(attn & ~masked), b, length)
    if plans is not None:
        mask_ind = masked[:, :, None].astype(model.dtype)
        x = x + Tensor(mask_ind) * reshape(model.mask_vector, (1, 1, d))
    pad_ind = (~attn)[:, :, None].astype(model.dtype)
    x = x + Tensor(pad_ind) * reshape(model.pad_vector, (1, 1, d))
    if model.config.use_positions:
        pos = gather_rows(model.pos_embedding, np.arange(length))
        x = x + reshape(pos, (1, length, d))
    return x, attn
