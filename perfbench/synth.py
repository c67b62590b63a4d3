"""Seeded synthetic corpora for the benchmark workloads.

Every generator draws from a numpy Generator the caller builds from the
workload seed, so the same seed writes the same bytes. The program under
test only ever sees the files written here.

Text carries learnable structure so the training commands do real work:
each user has a topic pool, and stance labels are readable both from the
target message and from the user's history.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

import numpy as np

SEQ_LEN = 40
LABELS = ("against", "none", "favor")
GLOBAL_VOCAB = 2000
TOKENS_PER_MESSAGE = 12


def chunk_count(n_messages: int, seq_len: int = SEQ_LEN) -> int:
    """Windows melt's chunker cuts from one history of this length."""
    return -(-n_messages // seq_len)


def _text(rng: np.random.Generator, pool: Sequence[str], n_pool: int) -> str:
    words = [pool[int(rng.integers(len(pool)))] for _ in range(n_pool)]
    words += [f"w{int(rng.integers(GLOBAL_VOCAB))}"
              for _ in range(TOKENS_PER_MESSAGE - n_pool)]
    return " ".join(words)


def history_length(rng: np.random.Generator, max_len: int) -> int:
    """Mixed lengths: a third short (PAD tails), the rest longer (backfill)."""
    if rng.random() < 1 / 3:
        return int(rng.integers(1, SEQ_LEN))
    return int(rng.integers(SEQ_LEN, max_len + 1))


def write_corpus(path, rng: np.random.Generator, n_chunks: int,
                 max_len: int = 150) -> Dict[str, int]:
    """Pre-training corpus that melt cuts into exactly ``n_chunks`` windows.

    User history lengths are mixed, so short users leave PAD tails and long
    users whose length is not a multiple of 40 get a backfilled last window.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    users, messages, remaining = 0, 0, n_chunks
    with open(path, "w", encoding="utf-8") as fh:
        while remaining > 0:
            n = history_length(rng, max_len)
            if chunk_count(n) > remaining:
                n = int(rng.integers(1, remaining * SEQ_LEN + 1))
            remaining -= chunk_count(n)
            uid = f"user{users:05d}"
            pool = [f"{uid}t{j}" for j in range(8)]
            for i in range(n):
                fh.write(json.dumps({"user_id": uid, "message_id": f"{uid}m{i:04d}",
                                     "timestamp": i, "text": _text(rng, pool, 6)}) + "\n")
            users += 1
            messages += n
    return {"users": users, "messages": messages, "chunks": n_chunks}


def write_stance(path, rng: np.random.Generator,
                 splits: Dict[str, Tuple[int, int, int]],
                 max_history: int = 80) -> Dict[str, object]:
    """Stance file with one user per example.

    ``splits`` maps each stance target to its (train, dev, test) counts.
    History lengths are mixed: some users have none, short ones leave PAD
    slots, long ones fill the 40-slot window. Returns the test example ids,
    which the output check compares with ``predictions.csv``.
    """
    test_ids: List[str] = []
    n_messages = 0
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for target in sorted(splits):
            for split, count in zip(("train", "dev", "test"), splits[target]):
                for _ in range(count):
                    uid = f"s{n:05d}"
                    n += 1
                    label = int(rng.integers(len(LABELS)))
                    h = 0 if rng.random() < 0.1 else history_length(rng, max_history)
                    hist_pool = [f"h{label}x{j}" for j in range(6)]
                    for i in range(h):
                        fh.write(json.dumps({
                            "user_id": uid, "message_id": f"{uid}h{i:03d}", "timestamp": i,
                            "text": _text(rng, hist_pool, 3)}) + "\n")
                    target_pool = [f"{target}{label}y{j}" for j in range(6)]
                    mid = f"{uid}t"
                    fh.write(json.dumps({
                        "user_id": uid, "message_id": mid, "timestamp": h + 1,
                        "text": _text(rng, target_pool, 3), "label": LABELS[label],
                        "stance_target": target, "split": split}) + "\n")
                    n_messages += h + 1
                    if split == "test":
                        test_ids.append(mid)
    return {"examples": n, "messages": n_messages, "test_ids": test_ids}
