import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melt.corpus import RawMessage
from melt.tensor import backward
from melt.wordenc import (EMPTY_TOKEN, FrozenWordLevel, HashEmbeddingEncoder,
                          PrecomputedVectorStore, TrainableAdapterWordLevel,
                          TrainableHashWordLevel, VectorFileError,
                          compute_message_vectors, fnv1a_64, load_precomputed,
                          message_vector, pool_message, tokenize,
                          write_vector_file)


class TestTokenize:
    def test_punctuation_splits_off(self):
        assert tokenize("Hello, world!").tokens == ["hello", ",", "world", "!"]

    def test_single_letter(self):
        assert tokenize("A").tokens == ["a"]

    def test_truncation_at_limit(self):
        seq = tokenize(" ".join(f"w{i}" for i in range(60)))
        assert len(seq.tokens) == 50
        assert seq.truncated

    def test_under_limit_not_truncated(self):
        assert not tokenize("a b c").truncated

    def test_empty_text_yields_sentinel(self):
        assert tokenize("").tokens == [EMPTY_TOKEN]
        assert tokenize("   \t ").tokens == [EMPTY_TOKEN]

    def test_consecutive_punctuation(self):
        assert tokenize("wow!!").tokens == ["wow", "!", "!"]


def test_fnv1a_against_direct_transcription():
    # independent rehash of the same published constants
    def reference(s):
        h = 14695981039346656037
        for b in s.encode("utf-8"):
            h = ((h ^ b) * 1099511628211) % 2**64
        return h

    for token in ("", "a", "hello", "ñandú", "zzz123"):
        assert fnv1a_64(token) == reference(token)


class TestHashEncoder:
    def test_same_token_same_vector(self):
        enc = HashEmbeddingEncoder(dim=16, buckets=128, seed=0)
        out = enc.encode(tokenize("echo echo"))
        np.testing.assert_array_equal(out[0], out[1])

    def test_one_vector_per_token(self):
        enc = HashEmbeddingEncoder(dim=16, buckets=128, seed=0)
        assert enc.encode(tokenize("a b c d")).shape == (4, 16)

    def test_different_seeds_differ(self):
        a = HashEmbeddingEncoder(dim=16, buckets=128, seed=1)
        b = HashEmbeddingEncoder(dim=16, buckets=128, seed=2)
        assert not np.array_equal(a.encode(tokenize("token"))[0],
                                  b.encode(tokenize("token"))[0])

    def test_table_scale(self):
        enc = HashEmbeddingEncoder(dim=64, buckets=4096, seed=3)
        assert abs(float(enc.table.std()) - 1 / np.sqrt(64)) < 0.002

    def test_frozen_purity_over_corpus(self):
        enc = HashEmbeddingEncoder(dim=8, buckets=64, seed=5)
        msgs = [RawMessage("u", f"m{i}", i, f"word{i} shared") for i in range(20)]
        first = compute_message_vectors(msgs, enc)
        second = compute_message_vectors(msgs, enc)
        for mid in first:
            np.testing.assert_array_equal(first[mid], second[mid])


class TestPoolMessage:
    def test_single_vector_is_itself(self):
        v = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(pool_message(v), v[0])

    def test_two_unit_vectors(self):
        np.testing.assert_array_equal(
            pool_message(np.array([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5])

    def test_mean_of_copies(self):
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(pool_message(np.tile(v, (7, 1))), v)

    @given(st.integers(2, 8), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.uniform(-1, 1, (n, 5))
        perm = rng.permutation(n)
        np.testing.assert_allclose(pool_message(vectors), pool_message(vectors[perm]),
                                   rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool_message(np.zeros((0, 4)))


class TestVectorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        rng = np.random.default_rng(0)
        items = [(f"m{i}", rng.uniform(-1, 1, 6).astype(np.float32)) for i in range(3)]
        write_vector_file(path, 6, items)
        store = load_precomputed(path)
        assert len(store) == 3
        for mid, vec in items:
            np.testing.assert_array_equal(store.get(mid), vec)

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        with open(path, "w") as fh:
            fh.write("#dim=4\n")
            fh.write("ok\t" + np.zeros(4, dtype="<f4").tobytes().hex() + "\n")
            fh.write("bad\t" + np.zeros(3, dtype="<f4").tobytes().hex() + "\n")
        with pytest.raises(VectorFileError, match="line 3"):
            load_precomputed(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        with open(path, "w") as fh:
            fh.write("#dim=2\n")
            fh.write("no-tab-here\n")
        with pytest.raises(VectorFileError, match="line 2"):
            load_precomputed(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_line(self, tmp_path, bad):
        path = tmp_path / "vecs.tsv"
        write_vector_file(path, 2, [("ok", np.zeros(2, dtype=np.float32)),
                                    ("bad", np.array([1.0, bad], dtype=np.float32))])
        with pytest.raises(VectorFileError, match="line 3"):
            load_precomputed(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        path.write_text("m0\tdeadbeef\n")
        with pytest.raises(VectorFileError, match="line 1"):
            load_precomputed(path)

    def test_missing_id_detectable(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        write_vector_file(path, 2, [("m0", np.zeros(2, dtype=np.float32))])
        store = load_precomputed(path)
        assert "m0" in store and "m1" not in store
        with pytest.raises(KeyError, match="m1"):
            store.get("m1")


def test_label_and_input_share_one_code_path():
    # the pooled vector used as a reconstruction label is the same object the
    # model input is built from
    enc = HashEmbeddingEncoder(dim=8, buckets=64, seed=5)
    msg = RawMessage("u", "m0", 0, "two words")
    vectors = compute_message_vectors([msg], enc)
    np.testing.assert_array_equal(vectors["m0"], message_vector(enc, msg.text))


class TestTrainableWordLevels:
    def test_hash_table_receives_gradients(self):
        enc = HashEmbeddingEncoder(dim=4, buckets=32, seed=0)
        wl = TrainableHashWordLevel(enc)
        msgs = [RawMessage("u", "m0", 0, "alpha beta"), RawMessage("u", "m1", 1, "alpha")]
        rows = wl.batch_vectors(msgs)
        backward(rows.sum())
        assert wl.table.grad is not None
        touched = np.abs(wl.table.grad).sum(axis=1) > 0
        assert touched.sum() == 2  # alpha and beta buckets

    def test_hash_rows_match_frozen_path(self):
        enc = HashEmbeddingEncoder(dim=4, buckets=32, seed=0)
        wl = TrainableHashWordLevel(enc)
        msgs = [RawMessage("u", "m0", 0, "alpha beta gamma")]
        np.testing.assert_allclose(wl.batch_vectors(msgs).data[0],
                                   message_vector(enc, "alpha beta gamma"), rtol=1e-6)

    def test_adapter_starts_as_identity(self):
        store = PrecomputedVectorStore(3, {"m0": np.array([1.0, 2.0, 3.0], dtype=np.float32)})
        wl = TrainableAdapterWordLevel(store)
        msgs = [RawMessage("u", "m0", 0, "ignored")]
        np.testing.assert_array_equal(wl.batch_vectors(msgs).data[0], [1.0, 2.0, 3.0])

    def test_frozen_level_has_no_trainables(self):
        wl = FrozenWordLevel(2, {"m0": np.zeros(2, dtype=np.float32)})
        assert wl.trainable_params() == []
