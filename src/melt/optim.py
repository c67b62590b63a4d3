"""AdamW with decoupled weight decay, plus the linear warm-up schedule."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .tensor import RowGrad, Tensor


class MissingGradError(RuntimeError):
    """A parameter reached the optimizer without a gradient."""


@dataclass
class AdamWState:
    """Per-parameter moments plus the shared hyperparameters.

    ``active_rows`` lists, sorted, the rows of a row-sparse parameter that
    have ever had a gradient; ``None`` means every row.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    base_lr: float = 4e-3
    weight_decay: float = 0.1
    active_rows: Optional[np.ndarray] = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))


# Rows per block of the row-sparse path: a block's work arrays stay in cache.
_BLOCK_BYTES = 1 << 20


def adamw_step(param: np.ndarray, grad, state: AdamWState, lr: float,
               name: str = "<param>") -> None:
    """One in-place AdamW update.

    Weight decay is decoupled: the parameter shrinks by lr * wd * param
    directly, it never passes through the moment estimates. Moments are
    bias-corrected, so the very first step moves by exactly lr * sign-ish
    of the gradient.

    A ``RowGrad`` is applied row-sparsely and bit-identically to its dense
    form: the decay still covers every row, but the moments and the Adam
    term only touch the rows that have ever had a gradient. Every other row
    has m = v = 0, so its Adam term is 0 / (0 + eps) = 0 (eps > 0). A dense
    gradient marks every row as having had one.
    """
    if grad is None:
        raise MissingGradError(f"parameter '{name}' has no gradient")
    state.t += 1
    if isinstance(grad, RowGrad) and state.active_rows is not None:
        active = np.union1d(state.active_rows, grad.rows)
        if len(active) < len(param):
            state.active_rows = active
            _sparse_step(param, grad, state, lr)
            return
    state.active_rows = None
    _adam(param, np.asarray(grad), state.m, state.v, state, lr, state.weight_decay)


def _sparse_step(param: np.ndarray, grad: RowGrad, state: AdamWState, lr: float) -> None:
    """Decay the whole table, then update the moments and values of ``active_rows``.

    Both passes go a block of rows at a time, so no temporary is larger
    than a block.
    """
    active = state.active_rows
    rows_per_block = max(1, _BLOCK_BYTES // max(1, param[0].nbytes))
    if state.weight_decay != 0.0:
        work = np.empty((min(rows_per_block, len(param)),) + param.shape[1:],
                        dtype=param.dtype)
        _decay(param, lr * state.weight_decay, work)
    at = np.searchsorted(active, grad.rows)  # sorted, as both row lists are
    for start in range(0, len(active), rows_per_block):
        rows = active[start:start + rows_per_block]
        lo, hi = np.searchsorted(at, (start, start + len(rows)))
        g = np.zeros((len(rows),) + param.shape[1:], dtype=grad.values.dtype)
        g[at[lo:hi] - start] = grad.values[lo:hi]
        p, m, v = param[rows], state.m[rows], state.v[rows]
        _adam(p, g, m, v, state, lr, 0.0)
        param[rows] = p
        state.m[rows] = m
        state.v[rows] = v


def _decay(param: np.ndarray, factor: float, work: np.ndarray) -> None:
    """``param -= factor * param``, one block of ``len(work)`` rows at a time."""
    for start in range(0, len(param), len(work)):
        block = param[start:start + len(work)]
        buf = work[:len(block)]
        np.multiply(block, factor, out=buf)
        block -= buf


def _adam(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
          state: AdamWState, lr: float, weight_decay: float) -> None:
    # Same operations, order and scalar grouping as the textbook form
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
    #   param -= lr*wd*param;  param -= lr * (m/c1) / (sqrt(v/c2) + eps)
    # so results are bit-identical to it, with two work arrays instead of
    # a temporary per operation. ``grad`` is only read.
    work = np.multiply(grad, 1.0 - state.beta1)
    m *= state.beta1
    m += work
    np.multiply(grad, grad, out=work)
    work *= 1.0 - state.beta2
    v *= state.beta2
    v += work
    if weight_decay != 0.0:
        _decay(param, lr * weight_decay, work)
    denom = np.divide(v, 1.0 - state.beta2 ** state.t)
    np.sqrt(denom, out=denom)
    denom += state.eps
    np.divide(m, 1.0 - state.beta1 ** state.t, out=work)
    work *= lr
    work /= denom
    param -= work


def warmup_lr(step: int, base_lr: float, warmup_steps: int) -> float:
    """Linear warm-up: base_lr * min(1, step / warmup_steps), constant after."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if warmup_steps <= 0 or step >= warmup_steps:
        return base_lr
    return base_lr * step / warmup_steps


class AdamW:
    """AdamW over a list of named parameter tensors.

    The learning rate for each step is supplied by the caller (the training
    loops pass the warm-up schedule); ``base_lr`` is used when omitted.
    """

    def __init__(self, params: Sequence[Tuple[str, Tensor]], base_lr: float = 4e-3,
                 betas: Tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.1):
        self.params = list(params)
        self.base_lr = base_lr
        self.states = {
            # np.zeros, not zeros_like: pages of a table's moments that no
            # row-sparse update writes are never made resident.
            name: AdamWState(
                m=np.zeros(p.data.shape, dtype=p.data.dtype),
                v=np.zeros(p.data.shape, dtype=p.data.dtype),
                beta1=betas[0],
                beta2=betas[1],
                eps=eps,
                base_lr=base_lr,
                weight_decay=weight_decay,
            )
            for name, p in self.params
        }

    def step(self, lr: float | None = None) -> None:
        """Update every parameter that received a gradient.

        Parameters whose grad is None are skipped (a registered tensor may
        sit outside the current loss's graph, e.g. the mask vector during
        fine-tuning).
        """
        if lr is None:
            lr = self.base_lr
        for name, p in self.params:
            if p.grad is None:
                continue
            adamw_step(p.data, p.grad, self.states[name], lr, name=name)
            p.grad = None  # consumed; a later backward must repopulate it
