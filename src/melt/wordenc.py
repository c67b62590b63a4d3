"""Frozen word-level encoding: tokens to vectors to per-message means.

The message transformer only ever sees one vector per message: the
arithmetic mean of that message's per-token vectors. Two sources are
provided — a deterministic hash-embedding table, and a file of vectors
computed externally (one vector per message id), which loads into a
``FrozenWordLevel``. ``compute_message_vectors`` pools or looks up every
message's vector once; both sides of the pipeline (the reconstruction label
and the model input) read that one vector. Hash pooling is one
``HashEmbeddingEncoder.encode`` pass, then ``tensor.pool_segments``.

For fine-tuning with an unfrozen word level, thin trainable wrappers expose
the same per-message vectors as autodiff tensors: gradients flow into the
hash table itself, or into a d x d adapter over a frozen level's vectors.
"""

from __future__ import annotations

import hashlib
import re
import string
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, gather_rows, matmul, pool_segments, segment_mean

EMPTY_TOKEN = "<empty>"
DEFAULT_TOKEN_SEQ_LEN = 50

# a run of characters that are neither whitespace nor punctuation, or one punctuation mark
_TOKEN = re.compile("[^\\s{0}]+|[{0}]".format(re.escape(string.punctuation)))


def tokenize(text: str, max_tokens: int = DEFAULT_TOKEN_SEQ_LEN) -> List[str]:
    """Lowercase, split on whitespace, break punctuation into single tokens.

    At most ``max_tokens`` tokens are kept. Empty or whitespace-only text
    yields the single ``<empty>`` token so a message always has at least
    one vector to pool.
    """
    tokens = _TOKEN.findall(text.lower())
    return tokens[:max_tokens] if tokens else [EMPTY_TOKEN]


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


ROW_SCHEME = "default_rng([seed, bucket]).standard_normal(dim) / sqrt(dim), float32"


def draw_row(seed: int, bucket: int, dim: int) -> np.ndarray:
    """Bucket ``bucket``'s row, drawn from that bucket's own seeded stream.

    The stream depends only on (seed, bucket), so any row can be drawn
    without the rows before it. It is scaled in float64, then cast to
    float32. Checkpoints record this as ``ROW_SCHEME``.
    """
    row = np.random.default_rng([seed, bucket]).standard_normal(dim)
    row /= np.sqrt(dim)
    return row.astype(np.float32)


class HashEmbeddingEncoder:
    """Fixed random embedding rows addressed by a stable string hash.

    Each bucket's row is ``draw_row(seed, bucket, dim)``: never updated, so
    encoding is a pure function of the tokens. A row is drawn the first time
    a token hashes to its bucket, into one table that a bucket -> index map
    addresses, so the whole (buckets, dim) table is never built.
    """

    def __init__(self, dim: int = 768, buckets: int = 65536, seed: int = 1337):
        for name, value in (("dim", dim), ("buckets", buckets)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.dim = dim
        self.buckets = buckets
        self.seed = seed
        # token -> bucket, and bucket -> index of its row in _table
        self._bucket_of: Dict[str, int] = {}
        self._index_of: Dict[int, int] = {}
        self._table = np.empty((0, dim), dtype=np.float32)

    def token_ids(self, tokens: List[str]) -> List[int]:
        """Bucket of each token; each distinct token is hashed once per encoder."""
        memo = self._bucket_of
        ids = []
        for token in tokens:
            bucket = memo.get(token)
            if bucket is None:
                bucket = memo[token] = fnv1a_64(token) % self.buckets
            ids.append(bucket)
        return ids

    def rows(self, buckets: Sequence[int]) -> np.ndarray:
        """The rows of ``buckets``, in order, drawing those not yet reached."""
        index_of = self._index_of
        new = [bucket for bucket in dict.fromkeys(buckets) if bucket not in index_of]
        if new:
            drawn = np.empty((len(new), self.dim), dtype=np.float32)
            for i, bucket in enumerate(new):
                drawn[i] = draw_row(self.seed, bucket, self.dim)
                index_of[bucket] = len(self._table) + i
            self._table = np.concatenate((self._table, drawn)) if len(self._table) else drawn
        return self._table[[index_of[bucket] for bucket in buckets]]

    def encode(self, messages: Iterable) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
        """One tokenize-and-bucket pass: the sorted buckets that ``messages``' distinct texts
        reach, their rows as one compact table, and each text's rows as indices into it."""
        texts = list(dict.fromkeys(msg.text for msg in messages))
        ids = [self.token_ids(tokenize(text)) for text in texts]
        buckets, flat = np.unique(np.fromiter(chain.from_iterable(ids), np.intp),
                                  return_inverse=True)
        ends = np.cumsum([len(i) for i in ids]).tolist()
        return buckets, self.rows(buckets.tolist()), {
            text: flat[end - len(i):end] for text, i, end in zip(texts, ids, ends)}


# ---------------------------------------------------------------------------
# precomputed vector ingestion
# ---------------------------------------------------------------------------


class VectorFileError(ValueError):
    """Malformed vector file; message carries the offending line number."""


def _hashed_lines(fh, digest) -> Iterator[str]:
    """Each line of the binary file ``fh`` as text, its bytes added to ``digest`` first."""
    for raw in fh:
        digest.update(raw)
        yield raw.decode("utf-8").rstrip("\r\n")


def load_precomputed(path) -> FrozenWordLevel:
    """The frozen word level a vector file holds, with the sha256 of the bytes parsed.

    The file is read once: each line's bytes are hashed as the line is
    parsed. Bad rows raise with their 1-based line number.
    """
    vectors: Dict[str, np.ndarray] = {}
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        lines = _hashed_lines(fh, digest)
        header = next(lines, "")
        if not header.startswith("#dim="):
            raise VectorFileError("line 1: expected '#dim=<d>' header")
        try:
            dim = int(header[5:])
        except ValueError:
            raise VectorFileError(f"line 1: bad dimension in header {header!r}") from None
        if dim < 1:
            raise VectorFileError(f"line 1: dimension must be positive, got {dim}")
        for lineno, line in enumerate(lines, start=2):
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
    return FrozenWordLevel(dim, vectors, sha256=digest.hexdigest())


# ---------------------------------------------------------------------------
# message-vector computation for whole corpora
# ---------------------------------------------------------------------------


def compute_message_vectors(messages: Iterable, source) -> Dict[str, np.ndarray]:
    """Map message_id -> pooled d-dim vector for every message.

    ``source`` is either a HashEmbeddingEncoder, whose rows for a message's
    tokens are averaged (the vectors are rows of one (n, d) array), or a
    FrozenWordLevel, whose vectors are looked up (a message it lacks raises
    ValueError naming the id).
    """
    if isinstance(source, FrozenWordLevel):
        out: Dict[str, np.ndarray] = {}
        for msg in messages:
            if msg.message_id not in source.vectors:
                raise ValueError(f"no precomputed vector for message id '{msg.message_id}'")
            out[msg.message_id] = source.vectors[msg.message_id]
        return out
    messages = list(messages)
    _, table, rows_of = source.encode(messages)
    ids = [rows_of[msg.text] for msg in messages]
    pooled = pool_segments(table, np.concatenate([np.empty(0, np.int64), *ids]), [*map(len, ids)])
    return dict(zip((msg.message_id for msg in messages), pooled))


# ---------------------------------------------------------------------------
# word-level views used by fine-tuning
# ---------------------------------------------------------------------------


class FrozenWordLevel:
    """Constant message vectors; no trainable word-side parameters.

    ``sha256`` is the digest of the vector file the level was loaded from,
    None for vectors pooled in this process.
    """

    def __init__(self, dim: int, vectors: Mapping[str, np.ndarray],
                 sha256: Optional[str] = None):
        self.dim = dim
        self.vectors = vectors
        self.sha256 = sha256

    def batch_vectors(self, messages: Sequence) -> Tensor:
        rows = np.stack([self.vectors[m.message_id] for m in messages])
        return Tensor(rows)


class TrainableHashWordLevel:
    """Hash-table word level with gradients enabled on the table itself.

    The trainable table holds only the rows of ``buckets``, the sorted
    distinct buckets that ``messages`` hash to. A run reads no other row, so
    no other row is copied, decayed or snapshotted, and the gathered rows,
    their gradients and their AdamW updates are those of the same rows of
    the whole table. Each distinct text's row ids are worked out once, at
    construction; a message whose text was not among them raises
    ValueError naming its id.
    """

    def __init__(self, encoder: HashEmbeddingEncoder, messages: Iterable):
        self.dim = encoder.dim
        self.buckets, table, self._rows_of = encoder.encode(messages)
        self.table = Tensor(table, requires_grad=True)

    def trainable_params(self) -> list:
        return [("word.table", self.table)]

    def batch_vectors(self, messages: Sequence) -> Tensor:
        unknown = [msg.message_id for msg in messages if msg.text not in self._rows_of]
        if unknown:
            raise ValueError(f"message '{unknown[0]}' is not among those "
                             "the word level's table was built for")
        rows = [self._rows_of[msg.text] for msg in messages]
        segments = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        return segment_mean(gather_rows(self.table, np.concatenate(rows)), segments,
                            len(rows))


class TrainableAdapterWordLevel:
    """A frozen level's vectors passed through a trainable d x d adapter.

    The adapter starts at identity, so before any update it reproduces the
    frozen behavior exactly.
    """

    def __init__(self, frozen: FrozenWordLevel):
        self.dim = frozen.dim
        self.frozen = frozen
        self.adapter = Tensor(np.eye(frozen.dim, dtype=np.float32), requires_grad=True)

    def trainable_params(self) -> list:
        return [("word.adapter", self.adapter)]

    def batch_vectors(self, messages: Sequence) -> Tensor:
        return matmul(self.frozen.batch_vectors(messages), self.adapter)
