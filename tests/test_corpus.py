import json

import numpy as np
import pytest

from melt.corpus import (Action, CorpusFormatError, RawMessage, SequenceChunk,
                         apply_masking, build_chunks,
                         build_finetune_sequence, ingest_jsonl,
                         ingest_stance_jsonl)


def msgs(n, user="u", t0=0):
    return [RawMessage(user, f"{user}m{i:04d}", t0 + i, f"text {i}") for i in range(n)]


def reference_chunks(history, seq_len=40):
    """Direct transcription of the window/backfill/pad rules, kept independent
    of the implementation under test."""
    n = len(history)
    if n == 0:
        return []
    if n < seq_len:
        return [list(history) + [None] * (seq_len - n)]
    out = []
    start = 0
    while start + seq_len <= n:
        out.append(list(history[start:start + seq_len]))
        start += seq_len
    if start < n:
        # short remainder: borrow the tail of the previous window
        out.append(list(history[n - seq_len:]))
    return out


class TestIngest:
    def write(self, tmp_path, rows):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w") as fh:
            for row in rows:
                fh.write((row if isinstance(row, str) else json.dumps(row)) + "\n")
        return path

    def row(self, user, mid, ts, text="hi"):
        return {"user_id": user, "message_id": mid, "timestamp": ts, "text": text}

    def test_groups_by_user(self, tmp_path):
        rows = [self.row(f"u{u}", f"u{u}m{i}", i) for u in range(3) for i in range(2)]
        groups = ingest_jsonl(self.write(tmp_path, rows))
        assert len(groups) == 3
        assert all(len(v) == 2 for v in groups.values())

    def test_sorts_out_of_order_timestamps(self, tmp_path):
        rows = [self.row("u", "m2", 20), self.row("u", "m0", 5), self.row("u", "m1", 10)]
        groups = ingest_jsonl(self.write(tmp_path, rows))
        assert [m.message_id for m in groups["u"]] == ["m0", "m1", "m2"]

    def test_duplicate_message_id_rejected(self, tmp_path):
        rows = [self.row("u", "dup", 0), self.row("v", "dup", 1)]
        with pytest.raises(CorpusFormatError, match="dup"):
            ingest_jsonl(self.write(tmp_path, rows))

    def test_malformed_line_reports_number(self, tmp_path):
        rows = [self.row("u", "m0", 0), "{not json"]
        with pytest.raises(CorpusFormatError, match="line 2"):
            ingest_jsonl(self.write(tmp_path, rows))

    def test_missing_key_reports_number(self, tmp_path):
        rows = [json.dumps({"user_id": "u", "message_id": "m", "timestamp": 0})]
        with pytest.raises(CorpusFormatError, match="line 1.*text"):
            ingest_jsonl(self.write(tmp_path, rows))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            ingest_jsonl(self.write(tmp_path, []))


class TestBuildChunks:
    def test_95_messages_backfills_last_window(self):
        history = msgs(95)
        chunks = build_chunks(history)
        assert len(chunks) == 3
        ids = [[s.message_id for s in c.slots] for c in chunks]
        assert ids[0] == [m.message_id for m in history[0:40]]
        assert ids[1] == [m.message_id for m in history[40:80]]
        assert ids[2] == [m.message_id for m in history[55:95]]

    def test_exactly_one_window(self):
        chunks = build_chunks(msgs(40))
        assert len(chunks) == 1
        assert chunks[0].n_real == 40

    def test_short_history_pads(self):
        chunks = build_chunks(msgs(7))
        assert len(chunks) == 1
        assert chunks[0].n_real == 7
        assert all(s is None for s in chunks[0].slots[7:])

    def test_empty_history(self):
        assert build_chunks([]) == []

    def test_matches_reference_on_randomized_histories(self):
        rng = np.random.default_rng(1234)
        for trial in range(1000):
            n = int(rng.integers(0, 201))
            history = msgs(n, user=f"u{trial}")
            got = [[None if s is None else s.message_id for s in c.slots]
                   for c in build_chunks(history)]
            want = [[None if s is None else s.message_id for s in c]
                    for c in reference_chunks(history)]
            assert got == want, f"n={n}"

    def test_coverage_and_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(0, 201))
            history = msgs(n)
            chunks = build_chunks(history)
            covered = {s.message_id for c in chunks for s in c.slots if s is not None}
            assert covered == {m.message_id for m in history}
            for c in chunks:
                assert len(c.slots) == 40
                times = [s.timestamp for s in c.slots if s is not None]
                assert times == sorted(times)
                # PAD only as a trailing block
                reals = [s is not None for s in c.slots]
                assert reals == sorted(reals, reverse=True)


class TestApplyMasking:
    def setup_method(self):
        self.history = msgs(40)
        self.chunk = build_chunks(self.history)[0]
        self.vectors = {m.message_id: np.full(4, i, dtype=np.float32)
                        for i, m in enumerate(self.history)}

    def test_deterministic_under_seed(self):
        a = apply_masking(self.chunk, np.random.default_rng(7), self.vectors)
        b = apply_masking(self.chunk, np.random.default_rng(7), self.vectors)
        assert a.actions == b.actions
        assert sorted(a.replacements) == sorted(b.replacements)
        for slot, (mid, _) in a.replacements.items():
            assert b.replacements[slot][0] == mid

    def test_pad_slots_never_selected(self):
        chunk = build_chunks(msgs(5))[0]
        vectors = {m.message_id: np.zeros(2, dtype=np.float32) for m in msgs(5)}
        for seed in range(50):
            plan = apply_masking(chunk, np.random.default_rng(seed), vectors)
            for i in range(5, 40):
                assert plan.actions[i] is Action.KEEP

    def test_targets_are_original_vectors(self):
        # even RANDOM_REPLACE slots keep the pre-replacement vector as target
        for seed in range(30):
            plan = apply_masking(self.chunk, np.random.default_rng(seed), self.vectors)
            for slot in plan.selected_slots:
                original = self.vectors[self.chunk.slots[slot].message_id]
                np.testing.assert_array_equal(plan.targets[slot], original)

    def test_replacement_is_a_different_message(self):
        hits = 0
        for seed in range(200):
            plan = apply_masking(self.chunk, np.random.default_rng(seed), self.vectors)
            for slot, (mid, _) in plan.replacements.items():
                assert mid != self.chunk.slots[slot].message_id
                hits += 1
        assert hits > 0

    def test_zero_real_slots_rejected(self):
        empty = SequenceChunk("u", tuple([None] * 40))
        with pytest.raises(ValueError):
            apply_masking(empty, np.random.default_rng(0), {})

    def test_selection_statistics_small(self):
        rng = np.random.default_rng(2024)
        selected, total = 0, 0
        for _ in range(250):
            plan = apply_masking(self.chunk, rng, self.vectors)
            selected += len(plan.selected_slots)
            total += 40
        assert 0.12 < selected / total < 0.18


class TestFinetuneSequence:
    def make_example(self, n_history):
        history = msgs(n_history)
        target = RawMessage("u", "target", 10_000, "the target")
        from melt.corpus import StanceExample
        return StanceExample(target, "favor", "climate", history)

    def test_long_history_keeps_most_recent(self):
        ex = self.make_example(100)
        chunk, idx = build_finetune_sequence(ex)
        assert idx == 39
        assert chunk.slots[39].message_id == "target"
        kept = [s.message_id for s in chunk.slots[:39]]
        assert kept == [m.message_id for m in ex.history[61:]]

    def test_no_history(self):
        chunk, idx = build_finetune_sequence(self.make_example(0))
        assert idx == 0
        assert chunk.slots[0].message_id == "target"
        assert all(s is None for s in chunk.slots[1:])

    def test_ten_history(self):
        chunk, idx = build_finetune_sequence(self.make_example(10))
        assert idx == 10
        assert chunk.n_real == 11
        assert all(s is None for s in chunk.slots[11:])

    def test_target_always_last_real_slot(self):
        for n in (0, 1, 5, 38, 39, 40, 77):
            chunk, idx = build_finetune_sequence(self.make_example(n))
            assert chunk.slots[idx].message_id == "target"
            assert idx == chunk.n_real - 1


class TestStanceIngest:
    def write(self, tmp_path, rows):
        path = tmp_path / "stance.jsonl"
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        return path

    def base_rows(self):
        return [
            {"user_id": "u", "message_id": "h0", "timestamp": 0, "text": "earlier"},
            {"user_id": "u", "message_id": "h1", "timestamp": 5, "text": "later"},
            {"user_id": "u", "message_id": "t0", "timestamp": 9, "text": "target",
             "label": "favor", "stance_target": "climate", "split": "test"},
        ]

    def test_history_is_strictly_earlier(self, tmp_path):
        examples = ingest_stance_jsonl(self.write(tmp_path, self.base_rows()))
        assert len(examples) == 1
        assert [m.message_id for m in examples[0].history] == ["h0", "h1"]
        assert examples[0].split == "test"

    def test_bad_label_rejected(self, tmp_path):
        rows = self.base_rows()
        rows[2]["label"] = "maybe"
        with pytest.raises(CorpusFormatError, match="label"):
            ingest_stance_jsonl(self.write(tmp_path, rows))

    def test_bad_target_rejected(self, tmp_path):
        rows = self.base_rows()
        rows[2]["stance_target"] = "pineapples"
        with pytest.raises(CorpusFormatError, match="stance_target"):
            ingest_stance_jsonl(self.write(tmp_path, rows))

    def test_label_without_target_rejected(self, tmp_path):
        rows = self.base_rows()
        del rows[2]["stance_target"]
        with pytest.raises(CorpusFormatError, match="together"):
            ingest_stance_jsonl(self.write(tmp_path, rows))

    def test_unlabeled_file_rejected(self, tmp_path):
        rows = self.base_rows()[:2]
        with pytest.raises(CorpusFormatError, match="labeled"):
            ingest_stance_jsonl(self.write(tmp_path, rows))

    def test_duplicate_message_id_names_both_lines(self, tmp_path):
        rows = self.base_rows()
        rows.append({"user_id": "v", "message_id": "h1", "timestamp": 3, "text": "again"})
        with pytest.raises(CorpusFormatError,
                           match=r"line 4: duplicate message_id 'h1' \(first seen at line 2\)"):
            ingest_stance_jsonl(self.write(tmp_path, rows))
