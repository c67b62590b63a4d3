import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from melt import tensor as T
from melt.model import MeltConfig
from melt.tensor import Tensor, tape


@pytest.fixture
def tiny_config():
    return MeltConfig(n_layers=1, d_model=8, ff_dim=16, n_heads=2, dropout=0.0, max_seq=4)


@pytest.fixture
def small_config():
    return MeltConfig(n_layers=2, d_model=32, ff_dim=64, n_heads=4, dropout=0.1, max_seq=40)


def total(t: Tensor) -> Tensor:
    """The sum of every entry of ``t``, a 0-d tensor whose gradient is all ones.

    The tests' scalar loss: no command sums a tensor, so the op lives here.
    """
    shape = t.shape
    return T._from_op(np.asarray(t.data.sum()), (t,), lambda g: (np.broadcast_to(g, shape),))


def whole_table_level(encoder, messages):
    """A hash word level over every bucket's row, ``encoder.rows(range(buckets))``.

    The reference for the compact table that ``TrainableHashWordLevel``
    builds: each of ``messages`` reads its rows at its buckets' own indices.
    """
    from melt.wordenc import TrainableHashWordLevel
    level = TrainableHashWordLevel(encoder, messages)
    level._rows_of = {text: level.buckets[rows] for text, rows in level._rows_of.items()}
    level.buckets = np.arange(encoder.buckets)
    level.table = Tensor(encoder.rows(range(encoder.buckets)), requires_grad=True)
    return level


def mean(t: Tensor) -> Tensor:
    """The mean of every entry of ``t``, a 0-d tensor."""
    return total(t) * (1.0 / t.size)


def numeric_grad(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise over x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        fp = f()
        x[idx] = old - h
        fm = f()
        x[idx] = old
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a - n| / max(1, |a|, |n|), reduced to the worst case."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def pinned_tensors(loss) -> list:
    """Non-leaf tensors that ``loss``'s records or their rules' closures reference.

    A record's rule should hold only arrays, so the tensors of a forward
    pass go when the forward code drops them; any tensor returned here
    would keep its array alive until the backward sweep.
    """
    found, seen = [], set()

    def scan(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            if obj._node is not None:
                found.append(obj)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                scan(item)
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                try:
                    scan(cell.cell_contents)
                except ValueError:  # a cell not yet filled
                    pass

    for node in tape(loss):
        scan(getattr(node, "parents", ()))
        scan(getattr(node, "rule", None))
    return found
