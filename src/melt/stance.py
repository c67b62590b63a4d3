"""Stance fine-tuning and the reference baselines.

The classifier reads the top-layer contextual vector at the target
message's slot, applies dropout, and feeds a small feed-forward head
(dense 768, sigmoid, dense 384, linear 3-way). All message-transformer
layers stay trainable; the word level trains only when unfrozen. Early
stopping watches dev loss and the best-dev snapshot is restored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .corpus import LABELS, SequenceChunk, StanceExample, build_finetune_sequence
from .model import MeltModel, embed_token_batch
from .optim import AdamW
from .pretrain import TrainingDivergedError
from .tensor import (Tensor, backward, cross_entropy, dropout, gather_positions,
                     matmul, sigmoid, softmax)


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


@dataclass
class FinetuneResult:
    model: MeltModel
    head: StanceHead
    word_level: object
    history: List[Tuple[int, float, float]] = field(default_factory=list)
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
    (trainable rows) modes.
    """
    seq_len = history_len if history_len is not None else model.config.max_seq
    if seq_len > model.config.max_seq:
        raise ValueError(f"history length {seq_len} exceeds model max_seq")
    chunks: List[SequenceChunk] = []
    target_idx: List[int] = []
    positions: List[Tuple[int, int]] = []
    messages = []
    for bi, ex in enumerate(examples):
        chunk, t_idx = build_finetune_sequence(ex, seq_len)
        chunk = _pad_to(chunk, model.config.max_seq)
        chunks.append(chunk)
        target_idx.append(t_idx)
        for li, slot in enumerate(chunk.slots):
            if slot is not None:
                positions.append((bi, li))
                messages.append(slot)
    rows = word_level.batch_vectors(messages)
    x, attn = embed_token_batch(model, chunks, rows, positions)
    out = model.forward(x, attn, train=train, rng=rng)
    pooled = gather_positions(out, np.array(target_idx, dtype=np.int64))
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
        logits = _forward_examples(model, head, word_level, batch, history_len,
                                   p_drop=0.0, train=False, rng=None)
        loss = cross_entropy(logits, [ex.label_index for ex in batch])
        total += float(loss.data) * len(batch)
        n += len(batch)
    return total / n


def _train_step(model, head, word_level, opt: AdamW, batch: Sequence[StanceExample],
                history_len: Optional[int], p_drop: float, rng: np.random.Generator,
                step: int) -> float:
    """One forward/backward/update; returns the batch's mean cross-entropy.

    Only the float leaves this frame, so the step's graph and its
    intermediate gradients are freed before the caller runs dev evaluation.
    """
    logits = _forward_examples(model, head, word_level, batch, history_len,
                               p_drop=p_drop, train=True, rng=rng)
    loss = cross_entropy(logits, [ex.label_index for ex in batch])
    loss_val = float(loss.data)
    if not np.isfinite(loss_val):
        raise TrainingDivergedError(step)
    backward(loss)
    opt.step()
    return loss_val


def finetune(model: MeltModel, head: StanceHead, word_level,
             train_examples: Sequence[StanceExample],
             dev_examples: Sequence[StanceExample], cfg: FinetuneConfig,
             history_len: Optional[int] = None) -> FinetuneResult:
    """Cross-entropy fine-tuning with early stopping on dev loss.

    Raises TrainingDivergedError when a training loss is not finite.
    """
    if not train_examples:
        raise ValueError("training set is empty")
    if not dev_examples:
        raise ValueError("dev set is empty")
    params = model.named_parameters() + head.named_parameters()
    if cfg.unfreeze_word:
        params += word_level.trainable_params()
    opt = AdamW(params, base_lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    result = FinetuneResult(model=model, head=head, word_level=word_level)
    best_snap = _snapshot(params)
    since_best = 0
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_examples))
        epoch_loss, seen = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_examples[i] for i in order[start:start + cfg.batch_size]]
            loss_val = _train_step(model, head, word_level, opt, batch, history_len,
                                   cfg.dropout, rng, step)
            epoch_loss += loss_val * len(batch)
            seen += len(batch)
            step += 1
        dev_loss = _mean_loss(model, head, word_level, dev_examples, history_len,
                              cfg.batch_size)
        result.history.append((epoch, epoch_loss / seen, dev_loss))
        if dev_loss < result.best_dev_loss:
            result.best_dev_loss = dev_loss
            result.best_epoch = epoch
            _snapshot(params, into=best_snap)
            since_best = 0
        else:
            since_best += 1
            if since_best > cfg.patience:
                result.stopped_early = True
                break
    _restore(params, best_snap)
    return result


def predict(model: MeltModel, head: StanceHead, word_level,
            examples: Sequence[StanceExample], history_len: Optional[int] = None,
            batch_size: int = 50) -> List[Prediction]:
    """Eval-mode predictions; argmax ties break toward the lower class index."""
    preds: List[Prediction] = []
    for start in range(0, len(examples), batch_size):
        batch = examples[start:start + batch_size]
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

    Raises TrainingDivergedError when a training loss is not finite.
    """
    if features.shape[0] == 0:
        raise ValueError("training set is empty")
    head = StanceHead(features.shape[1], hidden1=hidden1, hidden2=hidden2, seed=cfg.seed)
    params = head.named_parameters()
    opt = AdamW(params, base_lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    labels = np.asarray(labels, dtype=np.int64)
    dev_labels = np.asarray(dev_labels, dtype=np.int64)
    best = float("inf")
    best_snap = _snapshot(params)
    since_best = 0
    step = 0
    for _epoch in range(cfg.max_epochs):
        order = rng.permutation(features.shape[0])
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            logits = head.forward(Tensor(features[idx]), p_drop=cfg.dropout,
                                  train=True, rng=rng)
            loss = cross_entropy(logits, labels[idx])
            if not np.isfinite(float(loss.data)):
                raise TrainingDivergedError(step)
            backward(loss)
            opt.step()
            step += 1
        dev_logits = head.forward(Tensor(dev_features))
        dev_loss = float(cross_entropy(dev_logits, dev_labels).data)
        if dev_loss < best:
            best = dev_loss
            _snapshot(params, into=best_snap)
            since_best = 0
        else:
            since_best += 1
            if since_best > cfg.patience:
                break
    _restore(params, best_snap)
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


# ---------------------------------------------------------------------------
# hyperparameter search
# ---------------------------------------------------------------------------

SEARCH_SPACE = {
    "lr": (6e-6, 3e-3),
    "weight_decay": (1e-4, 1.0),
    "dropout": (0.0, 0.05),
}


def random_search(run_trial, n_trials: int, seed: int = 0,
                  base: Optional[FinetuneConfig] = None) -> Tuple[FinetuneConfig, float, list]:
    """Sample configs from the tuning ranges, keep the lowest dev loss.

    ``run_trial(cfg) -> dev_loss``; lr and weight decay are drawn log-uniform,
    dropout uniform. Returns (best config, best dev loss, trial log).
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    base = base or FinetuneConfig()
    trials = []
    best_cfg, best_loss = None, float("inf")
    for t in range(n_trials):
        lo, hi = SEARCH_SPACE["lr"]
        lr = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        lo, hi = SEARCH_SPACE["weight_decay"]
        wd = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        drop = float(rng.uniform(*SEARCH_SPACE["dropout"]))
        cfg = FinetuneConfig(lr=lr, weight_decay=wd, dropout=drop,
                             batch_size=base.batch_size, unfreeze_word=base.unfreeze_word,
                             max_epochs=base.max_epochs, patience=base.patience,
                             seed=base.seed + t)
        loss = run_trial(cfg)
        trials.append((cfg, loss))
        if loss < best_loss:
            best_cfg, best_loss = cfg, loss
    return best_cfg, best_loss, trials
