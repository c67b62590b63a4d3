"""Frozen word-level encoding: tokens to vectors to per-message means.

The message transformer only ever sees one vector per message: the
arithmetic mean of that message's per-token vectors. Two sources are
provided — a deterministic hash-embedding table, and an ingestion path for
vectors computed externally (one vector per message id). Both sides of the
pipeline (the reconstruction label and the model input) read the same
pooled vector through the same code path.

For fine-tuning with an unfrozen word level, thin trainable wrappers expose
the same per-message vectors as autodiff tensors: gradients flow into the
hash table itself, or into a d x d adapter over precomputed vectors.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .tensor import Tensor, gather_rows, matmul, segment_mean

EMPTY_TOKEN = "<empty>"
DEFAULT_TOKEN_SEQ_LEN = 50

_PUNCT = set(string.punctuation)


@dataclass
class TokenSequence:
    tokens: List[str]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.tokens)


def tokenize(text: str, max_tokens: int = DEFAULT_TOKEN_SEQ_LEN) -> TokenSequence:
    """Lowercase, split on whitespace, break punctuation into single tokens.

    Empty or whitespace-only text yields the single ``<empty>`` token so a
    message always has at least one vector to pool.
    """
    tokens: List[str] = []
    for piece in text.lower().split():
        run = []
        for ch in piece:
            if ch in _PUNCT:
                if run:
                    tokens.append("".join(run))
                    run = []
                tokens.append(ch)
            else:
                run.append(ch)
        if run:
            tokens.append("".join(run))
    if not tokens:
        return TokenSequence([EMPTY_TOKEN])
    if len(tokens) > max_tokens:
        return TokenSequence(tokens[:max_tokens], truncated=True)
    return TokenSequence(tokens)


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(token: str) -> int:
    """FNV-1a over the token's UTF-8 bytes; stable across runs and platforms."""
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


_TABLE_BLOCK_BYTES = 1 << 20  # float64 work buffer of the table build


class HashEmbeddingEncoder:
    """Fixed random embedding table addressed by a stable string hash.

    The table is drawn once from a seeded Gaussian scaled by 1/sqrt(dim) and
    never updated during pre-training; encoding is a pure function of the
    tokens. It is filled in row blocks through one small float64 buffer,
    which draws the same stream and rounds the same way as drawing the whole
    float64 table, scaling it and casting it to float32.
    """

    frozen = True

    def __init__(self, dim: int = 768, buckets: int = 65536, seed: int = 1337):
        if dim < 1 or buckets < 1:
            raise ValueError("dim and buckets must be positive")
        self.dim = dim
        self.buckets = buckets
        self.seed = seed
        # token -> bucket. Threads may race to fill an entry, but they all
        # write the same value.
        self._bucket_of: Dict[str, int] = {}
        rng = np.random.default_rng(seed)
        self.table = np.empty((buckets, dim), dtype=np.float32)
        block = np.empty((max(1, _TABLE_BLOCK_BYTES // (8 * dim)), dim))
        scale = np.sqrt(dim)
        for start in range(0, buckets, len(block)):
            part = block[:buckets - start]
            rng.standard_normal(out=part)
            part /= scale
            self.table[start:start + len(part)] = part

    def token_ids(self, toks: TokenSequence) -> np.ndarray:
        """Bucket of each token; each distinct token is hashed once per encoder."""
        memo = self._bucket_of
        ids = []
        for token in toks.tokens:
            bucket = memo.get(token)
            if bucket is None:
                bucket = memo[token] = fnv1a_64(token) % self.buckets
            ids.append(bucket)
        return np.array(ids, dtype=np.int64)

    def encode(self, toks: TokenSequence) -> np.ndarray:
        """One row per token, in token order."""
        return self.table[self.token_ids(toks)]


def pool_message(vectors: np.ndarray) -> np.ndarray:
    """Elementwise arithmetic mean of a message's per-token vectors."""
    arr = np.asarray(vectors)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"pool_message needs a nonempty (n, d) array, got shape {arr.shape}")
    return arr.mean(axis=0)


def message_vector(encoder: HashEmbeddingEncoder, text: str) -> np.ndarray:
    """tokenize -> encode -> mean; the single path both labels and inputs use."""
    return pool_message(encoder.encode(tokenize(text)))


# ---------------------------------------------------------------------------
# precomputed vector ingestion
# ---------------------------------------------------------------------------


class VectorFileError(ValueError):
    """Malformed vector file; message carries the offending line number."""


class PrecomputedVectorStore:
    """Per-message vectors produced externally, keyed by message id."""

    frozen = True

    def __init__(self, dim: int, vectors: Dict[str, np.ndarray]):
        self.dim = dim
        self.vectors = vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, message_id: str) -> bool:
        return message_id in self.vectors

    def get(self, message_id: str) -> np.ndarray:
        try:
            return self.vectors[message_id]
        except KeyError:
            raise KeyError(f"no precomputed vector for message id '{message_id}'") from None


def write_vector_file(path, dim: int, items: Iterable[tuple]) -> None:
    """Write `#dim=<d>` then one `id TAB hex(little-endian float32s)` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dim={dim}\n")
        for message_id, vec in items:
            data = np.asarray(vec, dtype="<f4")
            if data.shape != (dim,):
                raise ValueError(f"vector for '{message_id}' has shape {data.shape}, want ({dim},)")
            fh.write(f"{message_id}\t{data.tobytes().hex()}\n")


def load_precomputed(path) -> PrecomputedVectorStore:
    """Parse a vector file; bad rows raise with their 1-based line number."""
    vectors: Dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#dim="):
            raise VectorFileError("line 1: expected '#dim=<d>' header")
        try:
            dim = int(header[5:])
        except ValueError:
            raise VectorFileError(f"line 1: bad dimension in header {header!r}") from None
        if dim < 1:
            raise VectorFileError(f"line 1: dimension must be positive, got {dim}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise VectorFileError(f"line {lineno}: expected 'id<TAB>hex'")
            message_id, hexdata = parts
            try:
                raw = bytes.fromhex(hexdata)
            except ValueError:
                raise VectorFileError(f"line {lineno}: invalid hex payload") from None
            vec = np.frombuffer(raw, dtype="<f4")
            if vec.shape != (dim,):
                raise VectorFileError(
                    f"line {lineno}: got {vec.shape[0]} floats, header says dim={dim}")
            if not np.isfinite(vec).all():
                raise VectorFileError(
                    f"line {lineno}: vector for '{message_id}' is not finite")
            if message_id in vectors:
                raise VectorFileError(f"line {lineno}: duplicate message id '{message_id}'")
            vectors[message_id] = vec.astype(np.float32)
    return PrecomputedVectorStore(dim, vectors)


# ---------------------------------------------------------------------------
# message-vector computation for whole corpora
# ---------------------------------------------------------------------------


def compute_message_vectors(messages: Iterable, source) -> Dict[str, np.ndarray]:
    """Map message_id -> pooled d-dim vector for every message.

    ``source`` is either a HashEmbeddingEncoder (pool of token vectors) or a
    PrecomputedVectorStore (direct lookup; a message it lacks raises
    ValueError naming the id).
    """
    out: Dict[str, np.ndarray] = {}
    if isinstance(source, PrecomputedVectorStore):
        for msg in messages:
            if msg.message_id not in source:
                raise ValueError(f"no precomputed vector for message id '{msg.message_id}'")
            out[msg.message_id] = source.get(msg.message_id)
        return out
    for msg in messages:
        out[msg.message_id] = message_vector(source, msg.text)
    return out


# ---------------------------------------------------------------------------
# word-level views used by fine-tuning
# ---------------------------------------------------------------------------


class FrozenWordLevel:
    """Constant message vectors; no trainable word-side parameters."""

    def __init__(self, dim: int, vectors: Mapping[str, np.ndarray]):
        self.dim = dim
        self.vectors = vectors

    def trainable_params(self) -> list:
        return []

    def batch_vectors(self, messages: Sequence) -> Tensor:
        rows = np.stack([self.vectors[m.message_id] for m in messages])
        return Tensor(rows)


class TrainableHashWordLevel:
    """Hash-table word level with gradients enabled on the table itself.

    The trainable table holds only the rows of ``buckets``: the sorted
    distinct buckets that ``messages`` hash to, or every bucket when
    ``messages`` is None. A run reads no other row, so no other row is
    copied, decayed or snapshotted, and the gathered rows, their gradients
    and their AdamW updates are those of the same rows of the whole table.
    Each distinct text's row ids are worked out once: at construction for
    ``messages``, at first use otherwise.
    """

    def __init__(self, encoder: HashEmbeddingEncoder, messages: Optional[Iterable] = None):
        self.dim = encoder.dim
        self.encoder = encoder
        self._rows_of: Dict[str, np.ndarray] = {}
        if messages is None:
            self.buckets = np.arange(encoder.buckets)
        else:
            ids = {text: encoder.token_ids(tokenize(text))
                   for text in dict.fromkeys(msg.text for msg in messages)}
            self.buckets = np.unique(np.concatenate(list(ids.values())))
            self._rows_of = {text: np.searchsorted(self.buckets, i) for text, i in ids.items()}
        self.table = Tensor(encoder.table[self.buckets], requires_grad=True)

    def trainable_params(self) -> list:
        return [("word.table", self.table)]

    def _rows(self, msg) -> np.ndarray:
        rows = self._rows_of.get(msg.text)
        if rows is None:
            if len(self.buckets) < self.encoder.buckets:
                raise ValueError(f"message '{msg.message_id}' is not among those "
                                 "the word level's table was built for")
            rows = self._rows_of[msg.text] = self.encoder.token_ids(tokenize(msg.text))
        return rows

    def batch_vectors(self, messages: Sequence) -> Tensor:
        rows = [self._rows(msg) for msg in messages]
        segments = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        return segment_mean(gather_rows(self.table, np.concatenate(rows)), segments,
                            len(rows))


class TrainableAdapterWordLevel:
    """Precomputed vectors passed through a trainable d x d adapter.

    The adapter starts at identity, so before any update it reproduces the
    frozen behavior exactly.
    """

    def __init__(self, store: PrecomputedVectorStore):
        self.dim = store.dim
        self.store = store
        self.adapter = Tensor(np.eye(store.dim, dtype=np.float32), requires_grad=True)

    def trainable_params(self) -> list:
        return [("word.adapter", self.adapter)]

    def batch_vectors(self, messages: Sequence) -> Tensor:
        rows = np.stack([self.store.get(m.message_id) for m in messages])
        return matmul(Tensor(rows), self.adapter)
