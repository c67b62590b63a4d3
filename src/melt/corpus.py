"""Corpus handling: ingestion, per-user chunking, masking, sequence assembly.

A user's history is cut into fixed-length windows of ``SEQ_LEN`` message
slots, in timestamp order. Users with fewer messages than one window get a
trailing PAD block; users with more get consecutive windows, and a short
final window is left-extended with the tail of the previous one instead of
padding ("backfill"). Masking then selects real slots for reconstruction
with the usual 15% / 80-10-10 rule, at message granularity.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

SEQ_LEN = 40

STANCE_TARGETS = ("abortion", "atheism", "climate", "clinton", "feminism")
LABELS = ("against", "none", "favor")
LABEL_INDEX = {name: i for i, name in enumerate(LABELS)}
SPLITS = ("train", "dev", "test")


class CorpusFormatError(ValueError):
    """Bad corpus input; message names the offending line or id."""


@dataclass(frozen=True)
class RawMessage:
    user_id: str
    message_id: str
    timestamp: int
    text: str


@dataclass
class SequenceChunk:
    """Exactly SEQ_LEN slots; real messages first, PAD (None) only as a tail."""

    user_id: str
    slots: Tuple[Optional[RawMessage], ...]

    @property
    def n_real(self) -> int:
        return sum(1 for s in self.slots if s is not None)

    def real_messages(self) -> List[RawMessage]:
        return [s for s in self.slots if s is not None]


def _require(cond: bool, lineno: int, msg: str) -> None:
    if not cond:
        raise CorpusFormatError(f"line {lineno}: {msg}")


def _parse_message(obj: dict, lineno: int) -> RawMessage:
    for key in ("user_id", "message_id", "timestamp", "text"):
        _require(key in obj, lineno, f"missing key '{key}'")
    _require(isinstance(obj["user_id"], str), lineno, "user_id must be a string")
    _require(isinstance(obj["message_id"], str), lineno, "message_id must be a string")
    _require(isinstance(obj["timestamp"], int) and not isinstance(obj["timestamp"], bool),
             lineno, "timestamp must be an integer")
    _require(isinstance(obj["text"], str), lineno, "text must be a string")
    return RawMessage(obj["user_id"], obj["message_id"], obj["timestamp"], obj["text"])


def iter_jsonl(path) -> Iterable[Tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            _require(isinstance(obj, dict), lineno, "expected a JSON object")
            yield lineno, obj


def _read_messages(path, kind: str) -> Tuple[List[Tuple[int, dict, RawMessage]],
                                              Dict[str, List[RawMessage]]]:
    """A message file's rows in file order, and each user's messages.

    Rows are (line number, JSON object, message); each user's messages are
    sorted by (timestamp, message_id). Duplicate message ids and a file
    with no messages are rejected.
    """
    rows: List[Tuple[int, dict, RawMessage]] = []
    seen: Dict[str, int] = {}
    by_user: Dict[str, List[RawMessage]] = {}
    for lineno, obj in iter_jsonl(path):
        msg = _parse_message(obj, lineno)
        if msg.message_id in seen:
            raise CorpusFormatError(
                f"line {lineno}: duplicate message_id '{msg.message_id}' "
                f"(first seen at line {seen[msg.message_id]})")
        seen[msg.message_id] = lineno
        rows.append((lineno, obj, msg))
        by_user.setdefault(msg.user_id, []).append(msg)
    if not rows:
        raise CorpusFormatError(f"{kind} file contains no messages")
    for history in by_user.values():
        history.sort(key=lambda m: (m.timestamp, m.message_id))
    return rows, by_user


def ingest_jsonl(path) -> Dict[str, List[RawMessage]]:
    """Messages grouped by user, sorted by (timestamp, message_id).

    Users are returned in sorted id order; duplicate message ids are
    rejected.
    """
    _, by_user = _read_messages(path, "corpus")
    return {user_id: by_user[user_id] for user_id in sorted(by_user)}


def build_chunks(history: Sequence[RawMessage], seq_len: int = SEQ_LEN) -> List[SequenceChunk]:
    """Cut one user's sorted history into fixed-length windows.

    n >= seq_len: ceil(n / seq_len) windows of exactly seq_len real messages;
    the last one is the final seq_len messages (so a short remainder is
    backfilled from the previous window). n < seq_len: a single window with
    trailing PADs. Empty history yields nothing.
    """
    n = len(history)
    if n == 0:
        return []
    user_id = history[0].user_id
    if n < seq_len:
        slots = tuple(history) + (None,) * (seq_len - n)
        return [SequenceChunk(user_id, slots)]
    n_chunks = -(-n // seq_len)
    chunks = []
    for i in range(n_chunks - 1):
        chunks.append(SequenceChunk(user_id, tuple(history[i * seq_len:(i + 1) * seq_len])))
    chunks.append(SequenceChunk(user_id, tuple(history[n - seq_len:n])))
    return chunks


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

SELECT_RATE = 0.15
MASK_RATE = 0.8
UNCHANGED_RATE = 0.1


class Action(enum.Enum):
    KEEP = "keep"
    MASK_TOKEN = "mask"
    UNCHANGED_PREDICT = "unchanged"
    RANDOM_REPLACE = "random"


@dataclass
class MaskPlan:
    """Per-slot masking decisions plus the reconstruction targets.

    ``targets`` holds, for every selected slot, the original pooled vector of
    the message that was there (recorded before any replacement).
    ``replacements`` maps RANDOM_REPLACE slots to (message_id, vector) of the
    substitute drawn from the replacement pool.
    """

    actions: Tuple[Action, ...]
    targets: Dict[int, np.ndarray] = field(default_factory=dict)
    replacements: Dict[int, Tuple[str, np.ndarray]] = field(default_factory=dict)

    @property
    def selected_slots(self) -> List[int]:
        return [i for i, a in enumerate(self.actions) if a is not Action.KEEP]


def apply_masking(chunk: SequenceChunk, rng: np.random.Generator,
                  vectors: Mapping[str, np.ndarray],
                  replacement_pool: Optional[Sequence[str]] = None) -> MaskPlan:
    """BERT-style selection at message granularity.

    Each real slot is independently selected with p=0.15; a selected slot is
    masked (p=0.8), left unchanged but still predicted (p=0.1), or replaced
    by the vector of a different real message drawn uniformly from
    ``replacement_pool`` (p=0.1; the pool defaults to the chunk's own real
    messages). PAD slots are never selected. The target stored for every
    selected slot is the original message's pooled vector.
    """
    if chunk.n_real == 0:
        raise ValueError("cannot mask a chunk with no real messages")
    if replacement_pool is None:
        replacement_pool = [m.message_id for m in chunk.real_messages()]
    actions: List[Action] = []
    targets: Dict[int, np.ndarray] = {}
    replacements: Dict[int, Tuple[str, np.ndarray]] = {}
    for i, slot in enumerate(chunk.slots):
        if slot is None:
            actions.append(Action.KEEP)
            continue
        if rng.random() >= SELECT_RATE:
            actions.append(Action.KEEP)
            continue
        targets[i] = vectors[slot.message_id]
        roll = rng.random()
        if roll < MASK_RATE:
            actions.append(Action.MASK_TOKEN)
        elif roll < MASK_RATE + UNCHANGED_RATE:
            actions.append(Action.UNCHANGED_PREDICT)
        else:
            actions.append(Action.RANDOM_REPLACE)
            candidates = [mid for mid in replacement_pool if mid != slot.message_id]
            if candidates:
                pick = candidates[int(rng.integers(len(candidates)))]
                replacements[i] = (pick, vectors[pick])
            else:
                # Pool held only this message; keep the original vector.
                replacements[i] = (slot.message_id, vectors[slot.message_id])
    return MaskPlan(tuple(actions), targets, replacements)


# ---------------------------------------------------------------------------
# stance examples
# ---------------------------------------------------------------------------


@dataclass
class StanceExample:
    target: RawMessage
    label: str
    stance_target: str
    history: List[RawMessage]
    split: str = "train"

    @property
    def example_id(self) -> str:
        return self.target.message_id

    @property
    def label_index(self) -> int:
        return LABEL_INDEX[self.label]


def ingest_stance_jsonl(path) -> List[StanceExample]:
    """Read a stance corpus: labeled rows become examples, the rest history.

    Every row is a message; rows carrying both ``label`` and
    ``stance_target`` are classification targets. Each example's history is
    all of the same user's strictly earlier messages. An optional ``split``
    key (train|dev|test) defaults to train.
    """
    rows, by_user = _read_messages(path, "stance")
    examples: List[StanceExample] = []
    for lineno, obj, msg in rows:
        has_label = "label" in obj
        has_target = "stance_target" in obj
        if not has_label and not has_target:
            continue
        _require(has_label and has_target, lineno,
                 "'label' and 'stance_target' must appear together")
        _require(obj["label"] in LABELS, lineno,
                 f"label must be one of {LABELS}, got {obj['label']!r}")
        _require(obj["stance_target"] in STANCE_TARGETS, lineno,
                 f"stance_target must be one of {STANCE_TARGETS}, got {obj['stance_target']!r}")
        split = obj.get("split", "train")
        _require(split in SPLITS, lineno, f"split must be one of {SPLITS}, got {split!r}")
        history = [m for m in by_user[msg.user_id] if m.timestamp < msg.timestamp]
        examples.append(StanceExample(msg, obj["label"], obj["stance_target"], history, split))
    if not examples:
        raise CorpusFormatError("stance file contains no labeled examples")
    examples.sort(key=lambda e: e.example_id)
    return examples


def build_finetune_sequence(example: StanceExample,
                            seq_len: int = SEQ_LEN) -> Tuple[SequenceChunk, int]:
    """History-then-target window: the target sits in the last real slot.

    Up to seq_len - 1 most recent history messages precede the target; PAD
    fills the remainder. Returns the chunk and the target's slot index.
    """
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    history = example.history[-(seq_len - 1):] if seq_len > 1 else []
    slots = list(history) + [example.target]
    target_index = len(history)
    slots.extend([None] * (seq_len - len(slots)))
    return SequenceChunk(example.target.user_id, tuple(slots)), target_index


def all_messages(examples: Iterable[StanceExample]) -> List[RawMessage]:
    """Deduplicated targets + history across examples (for vector computation)."""
    seen: Dict[str, RawMessage] = {}
    for ex in examples:
        seen.setdefault(ex.target.message_id, ex.target)
        for msg in ex.history:
            seen.setdefault(msg.message_id, msg)
    return list(seen.values())
