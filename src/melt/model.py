"""The message-level transformer encoder.

A sequence of per-message vectors is embedded by ``embed_batch`` (learned
MASK and PAD vectors substituted per the mask plan, learned absolute
position embeddings added), run through N post-norm encoder layers with
padding-masked bidirectional self-attention, and finished with a dense
reconstruction head that predicts the pooled vector of each selected
message. Pre-training (with mask plans) and fine-tuning (without) share
``embed_batch``.

Callers read only a few top-layer rows: the selected slots in
pre-training, the target slot in fine-tuning. ``MeltModel.forward`` takes
those rows and runs the last layer's keys and values over every slot but
everything else only at the rows read. Attention mixes a query only with
its own sequence's keys and values, and every other op of a post-norm
layer works row by row, so those rows are the full layer's rows: the
pruning is exact math, and only float rounding can differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .corpus import Action, MaskPlan, SequenceChunk
from .tensor import (Tensor, dropout, gather_bl, gather_rows, gelu, layer_norm,
                     matmul, reshape, scatter_rows, softmax, transpose)

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
        if min(self.n_layers, self.d_model, self.ff_dim, self.n_heads, self.max_seq) < 1:
            raise ValueError("all extents must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "d_model": self.d_model,
            "ff_dim": self.ff_dim,
            "n_heads": self.n_heads,
            "dropout": self.dropout,
            "max_seq": self.max_seq,
            "use_positions": self.use_positions,
        }


def _gaussian(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    return (rng.standard_normal(shape) * INIT_STD).astype(dtype)


def copy_param(name: str, src, shape: tuple, dtype) -> np.ndarray:
    """One copy of ``src`` as a parameter of ``shape`` and ``dtype``."""
    src = np.asarray(src)
    if src.shape != shape:
        raise ValueError(f"parameter '{name}' shape {src.shape} != {shape}")
    return np.array(src, dtype=dtype)


ParamMaker = Callable[..., Tensor]


def _param_maker(seed: int, params: Optional[Mapping[str, np.ndarray]],
                 dtype) -> ParamMaker:
    """``make(name, shape, fill=None)`` builds one parameter.

    With ``params`` it copies ``params[name]``. Otherwise it draws
    N(0, INIT_STD^2) from a generator seeded with ``seed`` when ``fill`` is
    None, or fills the constant; constants draw nothing, so the draw order
    is the order of the Gaussian parameters alone.
    """
    rng = np.random.default_rng(seed) if params is None else None

    def make(name: str, shape: tuple, fill: Optional[float] = None) -> Tensor:
        if params is not None:
            data = copy_param(name, params[name], shape, dtype)
        elif fill is None:
            data = _gaussian(rng, shape, dtype)
        else:
            data = np.full(shape, fill, dtype=dtype)
        return Tensor(data, requires_grad=True)

    return make


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

    def named_parameters(self, prefix: str) -> List[Tuple[str, Tensor]]:
        names = ["wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                 "w1", "b1", "w2", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b"]
        return [(f"{prefix}.{n}", getattr(self, n)) for n in names]

    def forward(self, x: Tensor, attn_bias: Tensor, n_heads: int, p_drop: float,
                train: bool, rng: Optional[np.random.Generator],
                rows: Optional[np.ndarray] = None) -> Tensor:
        """(B, L, d) in; (B, L, d) out, or (B, q, d) at the (B, q) slots ``rows``.

        With ``rows``, keys and values still cover all L slots, and the
        queries, attention context, output projection, feed-forward, both
        norms and residuals run only at those rows. Dropout draws its
        full-size masks and keeps their rows, so the generator advances as
        in the full layer.
        """
        b, length, d = x.shape
        dh = d // n_heads
        scale = 1.0 / np.sqrt(dh)

        def split_heads(t: Tensor) -> Tensor:
            return transpose(reshape(t, (b, t.shape[1], n_heads, dh)), (0, 2, 1, 3))

        if rows is None:
            xq, n_rows = x, length
            keep_attn = keep_rows = None
        else:
            n_rows = rows.shape[1]
            b_col = np.arange(b)[:, None]
            xq = gather_bl(x, b_col, rows)
            keep_attn = (b_col[:, :, None], np.arange(n_heads)[None, :, None],
                         rows[:, None, :])
            keep_rows = (b_col, rows)
        attn_shape, row_shape = (b, n_heads, length, length), (b, length, d)

        q = split_heads(matmul(xq, self.wq) + self.bq)
        k = split_heads(matmul(x, self.wk) + self.bk)
        v = split_heads(matmul(x, self.wv) + self.bv)
        scores = matmul(q, transpose(k, (0, 1, 3, 2))) * scale + attn_bias
        attn = dropout(softmax(scores, axis=-1), p_drop, rng, train, attn_shape, keep_attn)
        ctx = reshape(transpose(matmul(attn, v), (0, 2, 1, 3)), (b, n_rows, d))
        attn_out = dropout(matmul(ctx, self.wo) + self.bo, p_drop, rng, train,
                           row_shape, keep_rows)
        x = layer_norm(xq + attn_out, self.ln1_g, self.ln1_b)
        ff = matmul(gelu(matmul(x, self.w1) + self.b1), self.w2) + self.b2
        ff = dropout(ff, p_drop, rng, train, row_shape, keep_rows)
        return layer_norm(x + ff, self.ln2_g, self.ln2_b)


class MeltModel:
    """Message-level transformer parameters and forward pass."""

    def __init__(self, config: MeltConfig, seed: int = 1337, dtype=np.float32,
                 params: Optional[Mapping[str, np.ndarray]] = None):
        """Parameters drawn from ``seed``, or copied from ``params``.

        ``params`` maps every name of ``named_parameters`` to an array; a
        model built from it draws no random numbers.
        """
        self.config = config
        self.seed = seed
        self.dtype = dtype
        d = config.d_model
        make = _param_maker(seed, params, dtype)
        self.pos_embedding = make("pos_embedding", (config.max_seq, d))
        self.mask_vector = make("mask_vector", (d,))
        self.pad_vector = make("pad_vector", (d,))
        self.layers = [EncoderLayer(config, make, f"layers.{i}")
                       for i in range(config.n_layers)]
        self.head_w = make("head.w", (d, d))
        self.head_b = make("head.b", (d,), 0.0)

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        params: List[Tuple[str, Tensor]] = [
            ("pos_embedding", self.pos_embedding),
            ("mask_vector", self.mask_vector),
            ("pad_vector", self.pad_vector),
        ]
        for i, layer in enumerate(self.layers):
            params.extend(layer.named_parameters(f"layers.{i}"))
        params.append(("head.w", self.head_w))
        params.append(("head.b", self.head_b))
        return params

    def parameter_count(self) -> int:
        return sum(p.size for _, p in self.named_parameters())

    def forward(self, x: Tensor, attn_mask: np.ndarray, train: bool = False,
                rng: Optional[np.random.Generator] = None,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """Contextualize a (B, L, d) batch. ``attn_mask`` is (B, L) bool, True = attend.

        Masked-out positions contribute an additive -1e9 to every query's
        score for that key, which zeroes their attention weight exactly.

        Without ``rows`` the output is (B, L, d). ``rows`` is a (B, q) int
        array of the slots the caller reads (cells may repeat); the output
        is then (B, q, d), cell [b, j] being slot rows[b, j]. Earlier layers
        run in full, and the last layer runs only its keys and values over
        every slot. This is exact: the rows equal the full output's rows up
        to float rounding, and train-mode dropout consumes ``rng`` as the
        full forward does.
        """
        b, length, d = x.shape
        if d != self.config.d_model:
            raise ValueError(f"input dim {d} != model dim {self.config.d_model}")
        if length > self.config.max_seq:
            raise ValueError(f"sequence length {length} exceeds max_seq {self.config.max_seq}")
        if rows is not None:
            rows = np.asarray(rows)
            if (rows.ndim != 2 or rows.shape[0] != b or rows.dtype.kind not in "iu"
                    or (rows.size and not 0 <= rows.min() <= rows.max() < length)):
                raise ValueError(f"rows must be a ({b}, q) int array of slots in [0, {length})")
        bias = Tensor(np.where(np.asarray(attn_mask), 0.0, ATTN_MASK_BIAS)
                      .astype(x.dtype).reshape(b, 1, 1, length))
        p = self.config.dropout
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, bias, self.config.n_heads, p, train, rng,
                              rows if i == last else None)
        return x

    def reconstruct_rows(self, outputs: Tensor, b_idx, l_idx) -> Tensor:
        """Apply the reconstruction head at the given (batch, row) cells of ``outputs``."""
        return matmul(gather_bl(outputs, b_idx, l_idx), self.head_w) + self.head_b


# ---------------------------------------------------------------------------
# sequence embedding
# ---------------------------------------------------------------------------


def embed_batch(model: MeltModel, chunks: Sequence[SequenceChunk],
                plans: Optional[Sequence[MaskPlan]], rows: Tensor
                ) -> Tuple[Tensor, np.ndarray]:
    """Assemble the (B, L, d) input batch and its attention mask.

    ``rows`` holds the input vector of every real slot that no plan marks
    MASK_TOKEN, in (batch, slot) order: a message's pooled vector, or the
    recorded substitute of a RANDOM_REPLACE slot. Pre-training passes them
    as a constant, fine-tuning as the word level's output, through which
    gradients reach a trainable word level. MASK_TOKEN slots take the
    learned mask vector and PAD slots the learned pad vector, so the content
    of a masked slot never enters the input. Position embeddings are added
    last.
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
    b_idx, l_idx = np.nonzero(attn & ~masked)
    x = scatter_rows(rows, b_idx, l_idx, b, length)
    if plans is not None:
        mask_ind = masked[:, :, None].astype(model.dtype)
        x = x + Tensor(mask_ind) * reshape(model.mask_vector, (1, 1, d))
    pad_ind = (~attn)[:, :, None].astype(model.dtype)
    x = x + Tensor(pad_ind) * reshape(model.pad_vector, (1, 1, d))
    if model.config.use_positions:
        pos = gather_rows(model.pos_embedding, np.arange(length))
        x = x + reshape(pos, (1, length, d))
    return x, attn
