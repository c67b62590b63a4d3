"""AdamW with decoupled weight decay, plus the linear warm-up schedule."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .tensor import Tensor


class MissingGradError(RuntimeError):
    """A parameter reached the optimizer without a gradient."""


@dataclass
class AdamWState:
    """Per-parameter moments plus the shared hyperparameters."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.1


# Values per block of the Adam update (about 64K): it makes a dozen passes
# over its five arrays, which then stay in cache.
_ADAM_BLOCK_VALUES = 1 << 16


def adamw_step(param: np.ndarray, grad: np.ndarray, state: AdamWState, lr: float,
               name: str = "<param>") -> None:
    """One in-place AdamW update from a dense gradient of param's shape.

    Weight decay is decoupled: the parameter shrinks by lr * wd * param
    directly, it never passes through the moment estimates. Moments are
    bias-corrected, so the very first step moves by exactly lr * sign-ish
    of the gradient.

    The update goes a block of leading-axis rows at a time. Every
    operation is elementwise, so blocks give the same bytes as one pass
    over the whole arrays. ``grad`` is only read.
    """
    if grad is None:
        raise MissingGradError(f"parameter '{name}' has no gradient")
    state.t += 1
    rows = max(1, _ADAM_BLOCK_VALUES // max(1, param[0].size))
    for start in range(0, len(param), rows):
        block = slice(start, start + rows)
        _adam_block(param[block], grad[block], state.m[block], state.v[block], state, lr)


def _adam_block(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                state: AdamWState, lr: float) -> None:
    # Same operations, order and scalar grouping as the textbook form
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
    #   param -= lr*wd*param;  param -= lr * (m/c1) / (sqrt(v/c2) + eps)
    # so results are bit-identical to it, with two work arrays instead of
    # a temporary per operation.
    work = np.multiply(grad, 1.0 - state.beta1)
    m *= state.beta1
    m += work
    np.multiply(grad, grad, out=work)
    work *= 1.0 - state.beta2
    v *= state.beta2
    v += work
    if state.weight_decay != 0.0:
        np.multiply(param, lr * state.weight_decay, out=work)
        param -= work
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
                 weight_decay: float = 0.1):
        self.params = list(params)
        self.base_lr = base_lr
        self.states = {
            name: AdamWState(m=np.zeros(p.data.shape, dtype=p.data.dtype),
                             v=np.zeros(p.data.shape, dtype=p.data.dtype),
                             weight_decay=weight_decay)
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
