"""Synthetic corpora shared by the test modules.

All generators are deterministic under their seed and produce text whose
hash-embedded message vectors carry known structure:

- marker_corpus: per-user themed token pools plus global even/odd marker
  tokens, so a masked message is predictable from its neighbors and its
  position, while chunk-mean and global-mean predictors stay biased.
- stance_corpus: the label is a joint function of the target message's
  token pool and the user's history pool, so target-only classifiers face
  an ambiguity ceiling while history-aware ones can separate fully.
- uninformative_corpus: label-independent filler text with an imbalanced
  label prior.

The writers put corpora, stance files and precomputed vector files on disk
in the formats the CLI reads.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from melt.corpus import RawMessage, StanceExample

MARKERS = {0: "aurora", 1: "zephyr"}
TYPE_POOLS = {
    "a": [f"harbor{j}" for j in range(6)],
    "b": [f"meadow{j}" for j in range(6)],
}
X_POOL = [f"debate{j}" for j in range(6)]
Y_POOL = [f"weather{j}" for j in range(6)]
FILLER = [f"filler{j}" for j in range(12)]


def marker_corpus(n_users: int = 50, n_msgs: int = 80, pool_size: int = 6,
                  n_marker: int = 4, n_pool: int = 4, seed: int = 11) -> List[RawMessage]:
    rng = np.random.default_rng(seed)
    msgs = []
    for u in range(n_users):
        pool = [f"u{u}w{j}" for j in range(pool_size)]
        for i in range(n_msgs):
            toks = [MARKERS[i % 2]] * n_marker + \
                   [pool[int(rng.integers(pool_size))] for _ in range(n_pool)]
            msgs.append(RawMessage(f"user{u:03d}", f"u{u:03d}m{i:03d}", i, " ".join(toks)))
    return msgs


def _stance_label(utype: str, kind: str) -> str:
    if kind == "y":
        return "none"
    return "favor" if utype == "a" else "against"


def stance_corpus(n_examples: int, n_history: int = 30, n_type: int = 4,
                  n_fill: int = 4, seed: int = 0, target: str = "climate",
                  split_fracs: Tuple[float, float] = (0.7, 0.15),
                  targets: Optional[Sequence[str]] = None) -> List[StanceExample]:
    """Separable stance examples: label = f(target pool, history pool)."""
    rng = np.random.default_rng(seed)
    examples = []
    n_train = int(n_examples * split_fracs[0])
    n_dev = int(n_examples * split_fracs[1])
    for i in range(n_examples):
        utype = "a" if rng.random() < 0.5 else "b"
        kind = "x" if rng.random() < 2 / 3 else "y"
        uid = f"su{i:04d}"
        hist = []
        for h in range(n_history):
            toks = [TYPE_POOLS[utype][int(rng.integers(6))] for _ in range(n_type)] + \
                   [FILLER[int(rng.integers(12))] for _ in range(n_fill)]
            hist.append(RawMessage(uid, f"{uid}h{h:03d}", h, " ".join(toks)))
        pool = X_POOL if kind == "x" else Y_POOL
        tgt = RawMessage(uid, f"{uid}t", n_history + 1,
                         " ".join(pool[int(rng.integers(6))] for _ in range(8)))
        split = "train" if i < n_train else ("dev" if i < n_train + n_dev else "test")
        tgt_name = target if targets is None else targets[i % len(targets)]
        examples.append(StanceExample(tgt, _stance_label(utype, kind), tgt_name,
                                      hist, split=split))
    return examples


def uninformative_corpus(n_examples: int, seed: int = 0,
                         probs: Tuple[float, float, float] = (0.7, 0.2, 0.1),
                         target: str = "climate") -> List[StanceExample]:
    """Filler-only text; labels drawn from an imbalanced prior."""
    rng = np.random.default_rng(seed)
    labels = ("against", "none", "favor")
    out = []
    n_train = int(n_examples * 0.8)
    n_dev = int(n_examples * 0.1)
    for i in range(n_examples):
        uid = f"ru{i:04d}"
        hist = [RawMessage(uid, f"{uid}h{h}", h,
                           " ".join(FILLER[int(rng.integers(12))] for _ in range(8)))
                for h in range(10)]
        tgt = RawMessage(uid, f"{uid}t", 11,
                         " ".join(FILLER[int(rng.integers(12))] for _ in range(8)))
        label = labels[int(rng.choice(3, p=probs))]
        split = "train" if i < n_train else ("dev" if i < n_train + n_dev else "test")
        out.append(StanceExample(tgt, label, target, hist, split=split))
    return out


def split_examples(examples: Sequence[StanceExample]):
    train = [e for e in examples if e.split == "train"]
    dev = [e for e in examples if e.split == "dev"]
    test = [e for e in examples if e.split == "test"]
    return train, dev, test


def write_corpus_jsonl(path, messages: Sequence[RawMessage]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for m in messages:
            fh.write(json.dumps({"user_id": m.user_id, "message_id": m.message_id,
                                 "timestamp": m.timestamp, "text": m.text}) + "\n")


def write_stance_jsonl(path, examples: Sequence[StanceExample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            for m in ex.history:
                fh.write(json.dumps({"user_id": m.user_id, "message_id": m.message_id,
                                     "timestamp": m.timestamp, "text": m.text}) + "\n")
            t = ex.target
            fh.write(json.dumps({"user_id": t.user_id, "message_id": t.message_id,
                                 "timestamp": t.timestamp, "text": t.text,
                                 "label": ex.label, "stance_target": ex.stance_target,
                                 "split": ex.split}) + "\n")


def write_vector_file(path, dim: int, items: Iterable[tuple]) -> None:
    """Write `#dim=<d>` then one `id TAB hex(little-endian float32s)` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dim={dim}\n")
        for message_id, vec in items:
            data = np.asarray(vec, dtype="<f4")
            if data.shape != (dim,):
                raise ValueError(f"vector for '{message_id}' has shape {data.shape}, want ({dim},)")
            fh.write(f"{message_id}\t{data.tobytes().hex()}\n")
