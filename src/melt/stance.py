"""Stance fine-tuning and the reference baselines.

The classifier reads the top-layer contextual vector at the target
message's slot, applies dropout, and feeds a small feed-forward head
(dense 768, sigmoid, dense 384, linear 3-way). All message-transformer
layers stay trainable; the word level trains only when unfrozen.
Fine-tuning and the word baselines' heads train on ``pretrain.run_epochs``,
shuffling the training examples each epoch, stopping early on dev loss and
ending at the best dev epoch's parameter values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .corpus import LABELS, SequenceChunk, StanceExample, build_finetune_sequence
from .model import MeltModel, _param_maker
# fine-tuning's own name for the shared embedding, which perfbench's tracer times apart
from .model import embed_batch as embed_token_batch
from .optim import AdamW
from .pretrain import EpochLog, descend, run_epochs
# perfbench/launch.py wraps stance.backward by name; only it reads this import
from .tensor import backward  # noqa: F401
from .tensor import Tensor, cross_entropy, dropout, linear, no_grad, sigmoid, softmax


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
        for name, low in (("batch_size", 1), ("max_epochs", 1), ("patience", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")


class StanceHead:
    """dense(input -> h1) + sigmoid + dense(h1 -> h2) + linear(h2 -> 3 logits).

    Weights are drawn from ``seed`` as the model's are, biases start at 0.
    """

    def __init__(self, input_dim: int, hidden1: int = 768, hidden2: int = 384,
                 seed: int = 0, dtype=np.float32):
        self._params: List[Tuple[str, Tensor]] = []
        make = _param_maker(seed, dtype, self._params)
        self.w1 = make("cls.w1", (input_dim, hidden1))
        self.b1 = make("cls.b1", (hidden1,), 0.0)
        self.w2 = make("cls.w2", (hidden1, hidden2))
        self.b2 = make("cls.b2", (hidden2,), 0.0)
        self.w3 = make("cls.w3", (hidden2, len(LABELS)))
        self.b3 = make("cls.b3", (len(LABELS),), 0.0)

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        """Every parameter, named, in the order ``__init__`` made them."""
        return list(self._params)

    def forward(self, x: Tensor, p_drop: float = 0.0, train: bool = False,
                rng: Optional[np.random.Generator] = None) -> Tensor:
        x = dropout(x, p_drop, rng, train)
        h = sigmoid(linear(x, self.w1, self.b1))
        h = linear(h, self.w2, self.b2)
        return linear(h, self.w3, self.b3)


@dataclass
class Prediction:
    example_id: str
    stance_target: str
    gold: Optional[str]
    label: str
    probs: np.ndarray  # (3,) in LABELS order, sums to 1


@dataclass
class FinetuneResult:
    history: EpochLog = field(default_factory=list)
    best_epoch: int = -1
    best_dev_loss: float = float("inf")
    stopped_early: bool = False


def _pad_to(chunk: SequenceChunk, length: int) -> SequenceChunk:
    if len(chunk.slots) == length:
        return chunk
    slots = chunk.slots + (None,) * (length - len(chunk.slots))
    return SequenceChunk(chunk.user_id, slots)


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
    read = np.zeros(attn.shape, dtype=bool)
    read[np.arange(len(chunks)), target_idx] = True
    pooled = model.forward(x, attn, train=train, rng=rng, rows=read)
    return head.forward(pooled, p_drop=p_drop, train=train, rng=rng)


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


def _train_to_best(params: Sequence[Tuple[str, Tensor]], cfg: FinetuneConfig,
                   n_train: int, train_batch: Callable[..., float],
                   dev_loss: Callable[[], float],
                   snapshot: Optional[Dict[str, np.ndarray]] = None
                   ) -> Tuple[EpochLog, int, float, bool]:
    """``run_epochs`` over one shuffle of the ``n_train`` examples per epoch.

    One generator seeded ``cfg.seed`` draws every epoch's order and the
    dropout masks. The parameters end holding the best dev epoch's values
    by swapping arrays with ``snapshot``: each takes its snapshot array, and
    the array it trained in becomes that name's buffer for a next run.
    """
    rng = np.random.default_rng(cfg.seed)
    history, best_epoch, best_loss, snapshot, stopped_early = run_epochs(
        params, cfg.max_epochs, cfg.patience, cfg.batch_size,
        lambda epoch: (rng.permutation(n_train), rng), train_batch, dev_loss, "dev loss",
        snapshot)
    for name, p in params:
        p.data, snapshot[name] = snapshot[name], p.data
    return history, best_epoch, best_loss, stopped_early


def finetune(model: MeltModel, head: StanceHead, word_level,
             train_examples: Sequence[StanceExample],
             dev_examples: Sequence[StanceExample], cfg: FinetuneConfig,
             history_len: Optional[int] = None,
             snapshot: Optional[Dict[str, np.ndarray]] = None) -> FinetuneResult:
    """Cross-entropy fine-tuning with early stopping on dev loss.

    ``snapshot`` holds the best-epoch buffers that ``_train_to_best`` swaps
    with the parameters at the end; a next run passed the same dict refills them.

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
        return descend(opt, cross_entropy(logits, [ex.label_index for ex in batch]), step)

    def dev_loss():
        return _mean_loss(model, head, word_level, dev_examples, history_len, cfg.batch_size)

    return FinetuneResult(*_train_to_best(params, cfg, len(train_examples), train_batch,
                                          dev_loss, snapshot))


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
        return descend(opt, cross_entropy(logits, labels[idx]), step)

    def dev_loss():
        return float(cross_entropy(head.forward(Tensor(dev_features)), dev_labels).data)

    _train_to_best(params, cfg, features.shape[0], train_batch, dev_loss)
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
