"""Stance fine-tuning and the reference baselines.

The classifier reads the top-layer contextual vector at the target
message's slot, applies dropout, and feeds a small feed-forward head
(dense 768, sigmoid, dense 384, linear 3-way). All message-transformer
layers stay trainable; the word level trains only when unfrozen. Early
stopping watches dev loss and the best-dev snapshot is restored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .corpus import LABELS, SequenceChunk, StanceExample, build_finetune_sequence
from .model import MeltModel
# fine-tuning's own name for the shared embedding, which perfbench's tracer times apart
from .model import embed_batch as embed_token_batch
from .optim import AdamW
from .pretrain import TrainingDivergedError
from .tensor import (Tensor, backward, cross_entropy, dropout, matmul, no_grad, reshape,
                     sigmoid, softmax)


@dataclass
class FinetuneConfig:
    lr: float = 1e-3
    weight_decay: float = 0.01
    dropout: float = 0.0
    batch_size: int = 10
    unfreeze_word: bool = False
    max_epochs: int = 30
    patience: int = 5
    seed: int = 1337

    def __post_init__(self):
        if not 6e-6 <= self.lr <= 3e-3:
            raise ValueError(f"lr must be within [6e-6, 3e-3], got {self.lr}")
        if not 1e-4 <= self.weight_decay <= 1.0:
            raise ValueError(f"weight_decay must be within [1e-4, 1], got {self.weight_decay}")
        if not 0.0 <= self.dropout <= 0.05:
            raise ValueError(f"dropout must be within [0, 0.05], got {self.dropout}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ValueError("batch_size/max_epochs must be >= 1 and patience >= 0")


class StanceHead:
    """dense(input -> h1) + sigmoid + dense(h1 -> h2) + linear(h2 -> 3 logits)."""

    def __init__(self, input_dim: int, hidden1: int = 768, hidden2: int = 384,
                 n_classes: int = 3, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(seed)

        def dense(d_in, d_out):
            w = Tensor((rng.standard_normal((d_in, d_out)) * 0.02).astype(dtype),
                       requires_grad=True)
            b = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True)
            return w, b

        self.input_dim = input_dim
        self.w1, self.b1 = dense(input_dim, hidden1)
        self.w2, self.b2 = dense(hidden1, hidden2)
        self.w3, self.b3 = dense(hidden2, n_classes)

    def named_parameters(self, prefix: str = "cls") -> List[Tuple[str, Tensor]]:
        return [(f"{prefix}.{n}", getattr(self, n))
                for n in ("w1", "b1", "w2", "b2", "w3", "b3")]

    def forward(self, x: Tensor, p_drop: float = 0.0, train: bool = False,
                rng: Optional[np.random.Generator] = None) -> Tensor:
        x = dropout(x, p_drop, rng, train)
        h = sigmoid(matmul(x, self.w1) + self.b1)
        h = matmul(h, self.w2) + self.b2
        return matmul(h, self.w3) + self.b3


@dataclass
class Prediction:
    example_id: str
    stance_target: str
    gold: Optional[str]
    label: str
    probs: np.ndarray  # (3,) in LABELS order, sums to 1


EpochLog = List[Tuple[int, float, float]]  # (epoch, mean train loss, dev loss)


@dataclass
class FinetuneResult:
    model: MeltModel
    head: StanceHead
    word_level: object
    history: EpochLog = field(default_factory=list)
    best_epoch: int = -1
    best_dev_loss: float = float("inf")
    stopped_early: bool = False


def _pad_to(chunk: SequenceChunk, length: int) -> SequenceChunk:
    if len(chunk.slots) == length:
        return chunk
    slots = chunk.slots + (None,) * (length - len(chunk.slots))
    return SequenceChunk(chunk.user_id, slots, origin=chunk.origin)


def _forward_examples(model: MeltModel, head: StanceHead, word_level,
                      examples: Sequence[StanceExample], history_len: Optional[int],
                      p_drop: float, train: bool,
                      rng: Optional[np.random.Generator]) -> Tensor:
    """Logits (B, 3) for a batch of examples.

    Real-slot vectors come from the word level as one stacked tensor, so the
    same code path serves both the frozen (constant rows) and unfrozen
    (trainable rows) modes. The encoder's top layer runs only at each
    example's target slot, the one row the head reads.
    """
    seq_len = history_len if history_len is not None else model.config.max_seq
    if seq_len > model.config.max_seq:
        raise ValueError(f"history length {seq_len} exceeds model max_seq")
    chunks: List[SequenceChunk] = []
    target_idx: List[int] = []
    for ex in examples:
        chunk, t_idx = build_finetune_sequence(ex, seq_len)
        chunks.append(_pad_to(chunk, model.config.max_seq))
        target_idx.append(t_idx)
    rows = word_level.batch_vectors([slot for c in chunks for slot in c.slots
                                     if slot is not None])
    x, attn = embed_token_batch(model, chunks, None, rows)
    targets = np.array(target_idx, dtype=np.int64).reshape(-1, 1)
    out = model.forward(x, attn, train=train, rng=rng, rows=targets)
    pooled = reshape(out, (len(chunks), model.config.d_model))
    return head.forward(pooled, p_drop=p_drop, train=train, rng=rng)


def _snapshot(params: Sequence[Tuple[str, Tensor]],
              into: Optional[Dict[str, np.ndarray]] = None) -> Dict[str, np.ndarray]:
    """Copies of the parameters' values, written into ``into``'s arrays if given."""
    if into is None:
        return {name: p.data.copy() for name, p in params}
    for name, p in params:
        np.copyto(into[name], p.data)
    return into


def _restore(params: Sequence[Tuple[str, Tensor]], snap: Mapping[str, np.ndarray]) -> None:
    """Hand the snapshot's arrays to the parameters; ``snap`` is not used again."""
    for name, p in params:
        p.data = snap[name]


def _mean_loss(model, head, word_level, examples, history_len, batch_size) -> float:
    total, n = 0.0, 0
    for start in range(0, len(examples), batch_size):
        batch = examples[start:start + batch_size]
        with no_grad():
            logits = _forward_examples(model, head, word_level, batch, history_len,
                                       p_drop=0.0, train=False, rng=None)
        loss = cross_entropy(logits, [ex.label_index for ex in batch])
        total += float(loss.data) * len(batch)
        n += len(batch)
    return total / n


def _descend(opt: AdamW, logits: Tensor, labels, step: int) -> float:
    """Cross-entropy backward and one update; returns the batch's mean loss.

    Only the float is returned, so the step's graph and its intermediate
    gradients are freed with the caller's step frame, before dev evaluation.
    """
    loss = cross_entropy(logits, labels)
    loss_val = float(loss.data)
    if not np.isfinite(loss_val):
        raise TrainingDivergedError(step)
    backward(loss)
    opt.step()
    return loss_val


def _early_stopping(params: Sequence[Tuple[str, Tensor]], cfg: FinetuneConfig,
                    n_train: int, train_batch: Callable[..., float],
                    dev_loss: Callable[[], float]) -> Tuple[EpochLog, int, float, bool]:
    """Train in epochs of shuffled batches, stop on dev loss, restore the best epoch.

    ``train_batch(idx, rng, step)`` trains on the examples ``idx`` and
    returns their mean loss, drawing its dropout masks from ``rng``, the
    generator that also shuffles each epoch. ``dev_loss()`` runs after every
    epoch. An epoch improves only on a strictly lower dev loss, and the run
    stops after ``patience`` + 1 epochs in a row without one. Returns the
    (epoch, mean train loss, dev loss) history, the best epoch, its dev
    loss, and whether the run stopped early.

    Raises TrainingDivergedError when a dev loss is not finite.
    """
    rng = np.random.default_rng(cfg.seed)
    history: EpochLog = []
    best_epoch, best_loss, best_snap = -1, float("inf"), None
    since_best = 0
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            epoch_loss += train_batch(idx, rng, step) * len(idx)
            step += 1
        loss = dev_loss()
        if not np.isfinite(loss):
            raise TrainingDivergedError(step, what=f"dev loss after epoch {epoch}")
        history.append((epoch, epoch_loss / n_train, loss))
        if loss < best_loss:
            best_epoch, best_loss = epoch, loss
            best_snap = _snapshot(params, into=best_snap)
            since_best = 0
        else:
            since_best += 1
            if since_best > cfg.patience:
                break
    _restore(params, best_snap)
    return history, best_epoch, best_loss, since_best > cfg.patience


def finetune(model: MeltModel, head: StanceHead, word_level,
             train_examples: Sequence[StanceExample],
             dev_examples: Sequence[StanceExample], cfg: FinetuneConfig,
             history_len: Optional[int] = None) -> FinetuneResult:
    """Cross-entropy fine-tuning with early stopping on dev loss.

    Raises TrainingDivergedError when a training or dev loss is not finite.
    """
    if not train_examples:
        raise ValueError("training set is empty")
    if not dev_examples:
        raise ValueError("dev set is empty")
    params = model.named_parameters() + head.named_parameters()
    if cfg.unfreeze_word:
        params += word_level.trainable_params()
    opt = AdamW(params, base_lr=cfg.lr, weight_decay=cfg.weight_decay)

    def train_batch(idx, rng, step):
        batch = [train_examples[i] for i in idx]
        logits = _forward_examples(model, head, word_level, batch, history_len,
                                   p_drop=cfg.dropout, train=True, rng=rng)
        return _descend(opt, logits, [ex.label_index for ex in batch], step)

    def dev_loss():
        return _mean_loss(model, head, word_level, dev_examples, history_len, cfg.batch_size)

    return FinetuneResult(model, head, word_level,
                          *_early_stopping(params, cfg, len(train_examples), train_batch,
                                           dev_loss))


def predict(model: MeltModel, head: StanceHead, word_level,
            examples: Sequence[StanceExample], history_len: Optional[int] = None,
            batch_size: int = 50) -> List[Prediction]:
    """Eval-mode predictions; argmax ties break toward the lower class index."""
    preds: List[Prediction] = []
    for start in range(0, len(examples), batch_size):
        batch = examples[start:start + batch_size]
        with no_grad():
            logits = _forward_examples(model, head, word_level, batch, history_len,
                                       p_drop=0.0, train=False, rng=None)
        probs = softmax(logits, axis=-1).data
        for ex, row in zip(batch, probs):
            preds.append(Prediction(ex.example_id, ex.stance_target, ex.label,
                                    LABELS[int(np.argmax(row))], np.array(row)))
    return preds


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def mfc_baseline(train_labels: Sequence[str]) -> str:
    """Most frequent training label; ties break by class order."""
    if not train_labels:
        raise ValueError("no labels to count")
    counts = {name: 0 for name in LABELS}
    for label in train_labels:
        counts[label] += 1
    return max(LABELS, key=lambda name: (counts[name], -LABELS.index(name)))


def mfc_predict(train_labels: Sequence[str],
                examples: Sequence[StanceExample]) -> List[Prediction]:
    label = mfc_baseline(train_labels)
    probs = np.zeros(3, dtype=np.float32)
    probs[LABELS.index(label)] = 1.0
    return [Prediction(ex.example_id, ex.stance_target, ex.label, label, probs.copy())
            for ex in examples]


HISTORY_MEAN_WINDOW = 40


def word_features(example: StanceExample, vectors: Mapping[str, np.ndarray]) -> np.ndarray:
    return np.asarray(vectors[example.target.message_id], dtype=np.float32)


def word_history_features(example: StanceExample,
                          vectors: Mapping[str, np.ndarray]) -> np.ndarray:
    """Target vector concatenated with the mean of recent history vectors.

    Users with no history contribute a zero vector for the history half.
    """
    target = word_features(example, vectors)
    recent = example.history[-HISTORY_MEAN_WINDOW:]
    if recent:
        hist = np.mean([vectors[m.message_id] for m in recent], axis=0).astype(np.float32)
    else:
        hist = np.zeros_like(target)
    return np.concatenate([target, hist])


def train_feature_head(features: np.ndarray, labels: Sequence[int],
                       dev_features: np.ndarray, dev_labels: Sequence[int],
                       cfg: FinetuneConfig, hidden1: int = 768,
                       hidden2: int = 384) -> StanceHead:
    """Train a StanceHead-shaped classifier over fixed feature vectors.

    Raises TrainingDivergedError when a training or dev loss is not finite.
    """
    if features.shape[0] == 0:
        raise ValueError("training set is empty")
    head = StanceHead(features.shape[1], hidden1=hidden1, hidden2=hidden2, seed=cfg.seed)
    params = head.named_parameters()
    opt = AdamW(params, base_lr=cfg.lr, weight_decay=cfg.weight_decay)
    labels = np.asarray(labels, dtype=np.int64)
    dev_labels = np.asarray(dev_labels, dtype=np.int64)

    def train_batch(idx, rng, step):
        logits = head.forward(Tensor(features[idx]), p_drop=cfg.dropout, train=True, rng=rng)
        return _descend(opt, logits, labels[idx], step)

    def dev_loss():
        return float(cross_entropy(head.forward(Tensor(dev_features)), dev_labels).data)

    _early_stopping(params, cfg, features.shape[0], train_batch, dev_loss)
    return head


def feature_predict(head: StanceHead, examples: Sequence[StanceExample],
                    features: np.ndarray) -> List[Prediction]:
    probs = softmax(head.forward(Tensor(features)), axis=-1).data
    return [Prediction(ex.example_id, ex.stance_target, ex.label,
                       LABELS[int(np.argmax(row))], np.array(row))
            for ex, row in zip(examples, probs)]


def word_baseline(train_ex: Sequence[StanceExample], dev_ex: Sequence[StanceExample],
                  test_ex: Sequence[StanceExample], vectors: Mapping[str, np.ndarray],
                  cfg: FinetuneConfig, with_history: bool = False,
                  hidden1: int = 768, hidden2: int = 384) -> List[Prediction]:
    """Target-vector classifier; with_history appends the recent-history mean."""
    featurize = word_history_features if with_history else word_features
    feats = np.stack([featurize(ex, vectors) for ex in train_ex])
    dev_feats = np.stack([featurize(ex, vectors) for ex in dev_ex])
    head = train_feature_head(feats, [ex.label_index for ex in train_ex],
                              dev_feats, [ex.label_index for ex in dev_ex],
                              cfg, hidden1=hidden1, hidden2=hidden2)
    test_feats = np.stack([featurize(ex, vectors) for ex in test_ex])
    return feature_predict(head, test_ex, test_feats)
