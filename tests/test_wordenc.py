import hashlib
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import total, whole_table_level
from melt.corpus import RawMessage
from melt.tensor import Tensor, backward
from melt.wordenc import (EMPTY_TOKEN, FrozenWordLevel, HashEmbeddingEncoder,
                          TrainableAdapterWordLevel, TrainableHashWordLevel, VectorFileError,
                          compute_message_vectors, fnv1a_64, load_precomputed,
                          tokenize)
from synthdata import write_vector_file


WHITESPACE = "".join(chr(c) for c in range(0x3001) if chr(c).isspace())  # all 29
PUNCTUATION = string.punctuation


def loop_tokenize(text, max_tokens):
    """Reference: split the lowercased text on whitespace, then walk each piece."""
    tokens = []
    for piece in text.lower().split():
        run = []
        for ch in piece:
            if ch in PUNCTUATION:
                if run:
                    tokens.append("".join(run))
                    run = []
                tokens.append(ch)
            else:
                run.append(ch)
        if run:
            tokens.append("".join(run))
    return tokens[:max_tokens] if tokens else [EMPTY_TOKEN]


class TestTokenize:
    def test_punctuation_splits_off(self):
        assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_single_letter(self):
        assert tokenize("A") == ["a"]

    def test_truncation_at_limit(self):
        assert tokenize(" ".join(f"w{i}" for i in range(60))) == [f"w{i}" for i in range(50)]

    def test_under_limit_not_truncated(self):
        assert tokenize("a b c") == ["a", "b", "c"]

    def test_empty_text_yields_sentinel(self):
        assert tokenize("") == [EMPTY_TOKEN]
        assert tokenize("   \t ") == [EMPTY_TOKEN]

    def test_consecutive_punctuation(self):
        assert tokenize("wow!!") == ["wow", "!", "!"]

    @settings(max_examples=500, deadline=None)
    @example(text="".join(f"a{ch}" for ch in WHITESPACE), max_tokens=60)
    @given(text=st.text(st.one_of(st.sampled_from(WHITESPACE + PUNCTUATION + "aZ9"),
                                  st.characters())),
           max_tokens=st.integers(1, 60))
    def test_matches_the_character_loop(self, text, max_tokens):
        assert tokenize(text, max_tokens) == loop_tokenize(text, max_tokens)



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
        out = enc.rows(enc.token_ids(tokenize("echo echo")))
        np.testing.assert_array_equal(out[0], out[1])

    def test_one_vector_per_token(self):
        enc = HashEmbeddingEncoder(dim=16, buckets=128, seed=0)
        assert enc.rows(enc.token_ids(tokenize("a b c d"))).shape == (4, 16)

    def test_different_seeds_differ(self):
        a = HashEmbeddingEncoder(dim=16, buckets=128, seed=1)
        b = HashEmbeddingEncoder(dim=16, buckets=128, seed=2)
        assert not np.array_equal(a.rows(a.token_ids(["token"])), b.rows(b.token_ids(["token"])))

    def test_table_scale(self):
        enc = HashEmbeddingEncoder(dim=64, buckets=4096, seed=3)
        assert abs(float(enc.rows(list(range(4096))).std()) - 1 / np.sqrt(64)) < 0.002

    def test_row_is_its_buckets_own_stream_whatever_the_order_reached(self):
        dim, buckets, seed = 300, 1000, 41
        first = [7, 999, 0, 7, 512]
        a = HashEmbeddingEncoder(dim=dim, buckets=buckets, seed=seed)
        b = HashEmbeddingEncoder(dim=dim, buckets=buckets, seed=seed)
        got_a = a.rows(first)
        b.rows([512, 3, 0])
        got_b = b.rows(first)
        for i, bucket in enumerate(first):
            rng = np.random.default_rng([seed, bucket])
            want = (rng.standard_normal(dim) / np.sqrt(dim)).astype(np.float32)
            assert got_a[i].tobytes() == want.tobytes()
        assert got_a.dtype == np.float32 and got_a.tobytes() == got_b.tobytes()
        assert a.rows(list(range(buckets)))[first].tobytes() == got_a.tobytes()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            HashEmbeddingEncoder(dim=4, buckets=8, seed=-1)

    def test_token_ids_hash_each_distinct_token_once(self, monkeypatch):
        import melt.wordenc as wordenc
        enc = HashEmbeddingEncoder(dim=4, buckets=64, seed=0)
        hashed = []

        def counting(token):
            hashed.append(token)
            return fnv1a_64(token)

        monkeypatch.setattr(wordenc, "fnv1a_64", counting)
        first = enc.token_ids(tokenize("echo, delta echo"))
        second = enc.token_ids(tokenize("delta echo"))
        assert sorted(hashed) == [",", "delta", "echo"]
        assert first == [fnv1a_64(t) % 64 for t in ("echo", ",", "delta", "echo")]
        assert second == first[2:]

    def test_encode_tokenizes_each_distinct_text_once(self, monkeypatch):
        import melt.wordenc as wordenc
        seen = []

        def counting(text, *args):
            seen.append(text)
            return tokenize(text, *args)

        monkeypatch.setattr(wordenc, "tokenize", counting)
        first = [RawMessage("u", "m0", 0, "alpha beta"), RawMessage("u", "m1", 1, "gamma")]
        later = [RawMessage("u", "m2", 2, "gamma"), RawMessage("u", "m3", 3, "delta, alpha"),
                 RawMessage("u", "m4", 4, "alpha beta"), RawMessage("u", "m5", 5, "")]
        enc = HashEmbeddingEncoder(dim=4, buckets=64, seed=0)
        enc.encode(first)
        got = enc.encode(later)
        assert sorted(seen) == sorted(["alpha beta", "gamma", "delta, alpha", ""])
        want = HashEmbeddingEncoder(dim=4, buckets=64, seed=0).encode(later)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert list(got[2]) == list(want[2])
        assert all(got[2][t].tobytes() == want[2][t].tobytes() for t in want[2])
        assert enc.encode([])[0].size == 0

    def test_frozen_purity_over_corpus(self):
        enc = HashEmbeddingEncoder(dim=8, buckets=64, seed=5)
        msgs = [RawMessage("u", f"m{i}", i, f"word{i} shared") for i in range(20)]
        first = compute_message_vectors(msgs, enc)
        second = compute_message_vectors(msgs, enc)
        for mid in first:
            np.testing.assert_array_equal(first[mid], second[mid])


class TestPoolMessage:
    """A hash message's vector is the mean of its tokens' rows."""

    ENC = HashEmbeddingEncoder(dim=8, buckets=64, seed=5)

    def pooled(self, text):
        return compute_message_vectors([RawMessage("u", "m0", 0, text)], self.ENC)["m0"]

    def row(self, token):
        return self.ENC.rows(self.ENC.token_ids([token]))[0]

    def test_single_vector_is_itself(self):
        assert self.pooled("alpha").tobytes() == self.row("alpha").tobytes()

    def test_two_unit_vectors(self):
        want = (self.row("alpha") + self.row("beta")) / 2
        assert self.pooled("alpha beta").tobytes() == want.tobytes()

    def test_mean_of_copies(self):
        np.testing.assert_allclose(self.pooled("echo " * 7), self.row("echo"), rtol=1e-6)

    @given(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "!"]), min_size=2, max_size=8),
           st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, words, seed):
        shuffled = np.random.default_rng(seed).permutation(words).tolist()
        np.testing.assert_allclose(self.pooled(" ".join(words)),
                                   self.pooled(" ".join(shuffled)), rtol=1e-5, atol=1e-7)

    def test_empty_text_pools_the_sentinel_row(self):
        assert self.pooled("  ").tobytes() == self.row(EMPTY_TOKEN).tobytes()


class TestVectorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        rng = np.random.default_rng(0)
        items = [(f"m{i}", rng.uniform(-1, 1, 6).astype(np.float32)) for i in range(3)]
        write_vector_file(path, 6, items)
        frozen = load_precomputed(path)
        assert isinstance(frozen, FrozenWordLevel) and frozen.dim == 6
        assert len(frozen.vectors) == 3
        for mid, vec in items:
            assert frozen.vectors[mid].tobytes() == vec.tobytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_records_the_sha256_of_the_bytes_parsed(self, tmp_path, newline):
        path = tmp_path / "vecs.tsv"
        rows = ["#dim=2", "m0\t" + np.ones(2, dtype="<f4").tobytes().hex(), "",
                "m1\t" + np.zeros(2, dtype="<f4").tobytes().hex()]
        path.write_bytes(newline.join(rows).encode() + newline.encode())
        frozen = load_precomputed(path)
        assert frozen.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert sorted(frozen.vectors) == ["m0", "m1"]
        assert frozen.vectors["m0"].tolist() == [1.0, 1.0]

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
        frozen = load_precomputed(path)
        assert "m0" in frozen.vectors and "m1" not in frozen.vectors
        with pytest.raises(KeyError, match="m1"):
            frozen.batch_vectors([RawMessage("u", "m1", 0, "a")])


def test_missing_vector_names_the_id():
    frozen = FrozenWordLevel(2, {"m0": np.zeros(2, dtype=np.float32)})
    msgs = [RawMessage("u", "m0", 0, "a"), RawMessage("u", "m7", 1, "b")]
    with pytest.raises(ValueError, match="'m7'"):
        compute_message_vectors(msgs, frozen)


def test_label_and_input_share_one_code_path():
    # the pooled vector used as a reconstruction label is the one the model
    # input is built from
    enc = HashEmbeddingEncoder(dim=8, buckets=64, seed=5)
    msg = RawMessage("u", "m0", 0, "two words")
    vectors = compute_message_vectors([msg], enc)
    assert FrozenWordLevel(8, vectors).batch_vectors([msg]).data[0].tobytes() == \
        vectors["m0"].tobytes()


class TestTrainableWordLevels:
    def test_hash_table_receives_gradients(self):
        enc = HashEmbeddingEncoder(dim=4, buckets=32, seed=0)
        msgs = [RawMessage("u", "m0", 0, "alpha beta"), RawMessage("u", "m1", 1, "alpha")]
        wl = TrainableHashWordLevel(enc, msgs)
        rows = wl.batch_vectors(msgs)
        backward(total(rows))
        assert wl.table.grad is not None
        touched = np.abs(wl.table.grad).sum(axis=1) > 0
        assert touched.sum() == 2  # alpha and beta buckets

    def test_hash_rows_match_frozen_path(self):
        enc = HashEmbeddingEncoder(dim=16, buckets=256, seed=0)
        rng = np.random.default_rng(4)
        msgs = [RawMessage("u", f"m{i}", i, " ".join(f"w{w}" for w in rng.integers(0, 300, n)))
                for i, n in enumerate([0, 1, 2, 3, 7, 30, 50, 59])]
        want = compute_message_vectors(msgs, enc)
        for wl in (whole_table_level(enc, msgs), TrainableHashWordLevel(enc, msgs)):
            got = wl.batch_vectors(msgs).data
            assert got.tobytes() == np.stack([want[m.message_id] for m in msgs]).tobytes()

    MESSAGES = [RawMessage("u", "m0", 0, "alpha beta alpha"), RawMessage("u", "m1", 1, ""),
                RawMessage("u", "m2", 2, "gamma"), RawMessage("u", "m3", 3, "beta gamma!")]

    def test_built_from_messages_holds_only_their_buckets(self):
        enc = HashEmbeddingEncoder(dim=4, buckets=512, seed=0)
        wl = TrainableHashWordLevel(enc, self.MESSAGES)
        want = sorted({b for m in self.MESSAGES for b in enc.token_ids(tokenize(m.text))})
        assert wl.buckets.tolist() == want
        assert len(wl.table.data) == len(want)
        assert wl.table.data.tobytes() == enc.rows(want).tobytes()
        assert wl.table.data.tobytes() == enc.rows(range(512))[want].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_and_gradients_are_those_of_the_whole_table(self, dtype):
        enc = HashEmbeddingEncoder(dim=4, buckets=512, seed=0)
        batch = [self.MESSAGES[i] for i in (3, 0, 1, 0, 2)]
        whole = whole_table_level(enc, self.MESSAGES)
        compact = TrainableHashWordLevel(enc, self.MESSAGES)
        for wl in (whole, compact):
            wl.table = Tensor(wl.table.data.astype(dtype), requires_grad=True)
        weights = np.random.default_rng(0).standard_normal((len(batch), 4)).astype(dtype)
        for wl in (whole, compact):
            rows = wl.batch_vectors(batch)
            backward(total(rows * Tensor(weights)))
        assert compact.batch_vectors(batch).data.tobytes() == \
            whole.batch_vectors(batch).data.tobytes()
        assert compact.table.grad.tobytes() == \
            whole.table.grad[compact.buckets].tobytes()
        elsewhere = np.ones(len(whole.table.data), dtype=bool)
        elsewhere[compact.buckets] = False
        assert not whole.table.grad[elsewhere].any()

    def test_batches_reuse_the_ids_worked_out_at_construction(self, monkeypatch):
        import melt.wordenc as wordenc
        enc = HashEmbeddingEncoder(dim=4, buckets=512, seed=0)
        wl = TrainableHashWordLevel(enc, self.MESSAGES)
        want = wl.batch_vectors(self.MESSAGES).data

        def refuse(*args):
            raise AssertionError("tokenized or hashed during a batch")

        monkeypatch.setattr(wordenc, "tokenize", refuse)
        monkeypatch.setattr(enc, "token_ids", refuse)
        assert wl.batch_vectors(self.MESSAGES).data.tobytes() == want.tobytes()

    def test_unknown_message_named(self):
        enc = HashEmbeddingEncoder(dim=4, buckets=512, seed=0)
        wl = TrainableHashWordLevel(enc, self.MESSAGES)
        with pytest.raises(ValueError, match="'m9'"):
            wl.batch_vectors([self.MESSAGES[0], RawMessage("u", "m9", 9, "delta")])

    def test_adapter_starts_as_identity(self):
        frozen = FrozenWordLevel(3, {"m0": np.array([1.0, 2.0, 3.0], dtype=np.float32)})
        wl = TrainableAdapterWordLevel(frozen)
        msgs = [RawMessage("u", "m0", 0, "ignored")]
        np.testing.assert_array_equal(wl.batch_vectors(msgs).data[0], [1.0, 2.0, 3.0])
