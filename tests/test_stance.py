import numpy as np
import pytest

from conftest import whole_table_level
from melt import stance
from melt.corpus import RawMessage, StanceExample
from melt.model import MeltConfig, MeltModel
from melt.pretrain import TrainingDivergedError
from melt.stance import (FinetuneConfig, StanceHead, finetune, mfc_baseline,
                         mfc_predict, predict, train_feature_head,
                         word_baseline, word_features, word_history_features)
from melt.tensor import Tensor
from melt.wordenc import (FrozenWordLevel, HashEmbeddingEncoder,
                          TrainableHashWordLevel, compute_message_vectors)
from melt.corpus import all_messages
from synthdata import split_examples, stance_corpus


D = 16
CFG = MeltConfig(n_layers=1, d_model=D, ff_dim=32, n_heads=2, dropout=0.0, max_seq=40)


def tiny_examples(n=40, seed=0):
    return stance_corpus(n, n_history=6, seed=seed, split_fracs=(0.6, 0.2))


def setup_world(n=40, seed=0):
    examples = tiny_examples(n, seed)
    enc = HashEmbeddingEncoder(dim=D, buckets=256, seed=2)
    vectors = compute_message_vectors(all_messages(examples), enc)
    return examples, enc, vectors


class TestFinetuneConfig:
    def test_defaults_valid(self):
        FinetuneConfig()

    @pytest.mark.parametrize("field,value", [
        ("lr", 5e-6), ("lr", 4e-3), ("weight_decay", 1e-5), ("weight_decay", 2.0),
        ("dropout", -0.01), ("dropout", 0.06),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError):
            FinetuneConfig(**{field: value})


class TestStanceHead:
    def test_logit_shape_and_prob_normalization(self):
        head = StanceHead(D, hidden1=8, hidden2=4, seed=0)
        logits = head.forward(Tensor(np.random.default_rng(0)
                                     .uniform(-1, 1, (5, D)).astype(np.float32)))
        assert logits.shape == (5, 3)
        from melt.tensor import softmax
        probs = softmax(logits, axis=-1).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_weights_drawn_in_order_from_the_seed(self):
        head = StanceHead(5, hidden1=4, hidden2=3, seed=8)
        rng = np.random.default_rng(8)
        want = {name: (rng.standard_normal(shape) * 0.02).astype(np.float32)
                for name, shape in (("cls.w1", (5, 4)), ("cls.w2", (4, 3)), ("cls.w3", (3, 3)))}
        assert [name for name, _ in head.named_parameters()] == [
            "cls.w1", "cls.b1", "cls.w2", "cls.b2", "cls.w3", "cls.b3"]
        for name, p in head.named_parameters():
            if name in want:
                assert p.data.tobytes() == want[name].tobytes(), name
            else:
                assert p.data.dtype == np.float32 and not p.data.any(), name

    def test_sigmoid_sits_between_first_two_layers(self):
        head = StanceHead(2, hidden1=2, hidden2=2, seed=0)
        head.w1.data = np.eye(2, dtype=np.float32) * 50.0  # saturate the sigmoid
        head.b1.data[:] = 0.0
        head.w2.data = np.eye(2, dtype=np.float32)
        head.b2.data[:] = 0.0
        head.w3.data = np.ones((2, 3), dtype=np.float32)
        head.b3.data[:] = 0.0
        big = head.forward(Tensor(np.array([[10.0, 10.0]], dtype=np.float32))).data
        bigger = head.forward(Tensor(np.array([[100.0, 100.0]], dtype=np.float32))).data
        np.testing.assert_allclose(big, bigger, atol=1e-5)


class TestPredict:
    def rigged(self, logits_bias):
        # zeroed weights force the logits to equal the classification bias
        model = MeltModel(CFG, seed=0)
        head = StanceHead(D, hidden1=4, hidden2=4, seed=0)
        head.w3.data[:] = 0.0
        head.b3.data = np.array(logits_bias, dtype=np.float32)
        return model, head

    def test_argmax(self):
        examples, _, vectors = setup_world(6)
        model, head = self.rigged([2.0, 0.0, 0.0])
        preds = predict(model, head, FrozenWordLevel(D, vectors), examples[:3])
        assert all(p.label == "against" for p in preds)

    def test_exact_tie_breaks_toward_against(self):
        examples, _, vectors = setup_world(6)
        model, head = self.rigged([0.7, 0.7, 0.7])
        preds = predict(model, head, FrozenWordLevel(D, vectors), examples[:3])
        assert all(p.label == "against" for p in preds)
        for p in preds:
            np.testing.assert_allclose(p.probs, 1 / 3, atol=1e-6)

    def test_deterministic(self):
        examples, _, vectors = setup_world(8)
        model = MeltModel(CFG, seed=1)
        head = StanceHead(D, hidden1=4, hidden2=4, seed=1)
        wl = FrozenWordLevel(D, vectors)
        a = predict(model, head, wl, examples[:4])
        b = predict(model, head, wl, examples[:4])
        assert [p.label for p in a] == [p.label for p in b]
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.probs, pb.probs)

    def test_predict_and_dev_loss_record_no_graph(self, monkeypatch):
        examples, _, vectors = setup_world(8)
        model = MeltModel(CFG, seed=1)
        head = StanceHead(D, hidden1=4, hidden2=4, seed=1)
        wl = FrozenWordLevel(D, vectors)
        recorded = stance._forward_examples(model, head, wl, examples[:4], None, 0.0,
                                            False, None)
        assert recorded.requires_grad
        forward = stance._forward_examples
        seen = []

        def spy(*args, **kwargs):
            out = forward(*args, **kwargs)
            seen.append(out.requires_grad)
            return out

        monkeypatch.setattr(stance, "_forward_examples", spy)
        preds = predict(model, head, wl, examples[:4])
        want = stance.softmax(recorded, axis=-1).data
        assert np.array_equal(np.stack([p.probs for p in preds]), want)
        stance._mean_loss(model, head, wl, examples[:4], None, 2)
        assert seen == [False, False, False]

    def test_argmax_invariant_under_logit_shift(self):
        examples, _, vectors = setup_world(6)
        wl = FrozenWordLevel(D, vectors)
        model, head = self.rigged([0.3, 1.1, -0.4])
        before = [p.label for p in predict(model, head, wl, examples[:3])]
        head.b3.data = head.b3.data + 5.0
        after = [p.label for p in predict(model, head, wl, examples[:3])]
        assert before == after


class TestMfc:
    def test_majority(self):
        labels = ["against"] * 5 + ["none"] * 3 + ["favor"] * 2
        assert mfc_baseline(labels) == "against"

    def test_tie_breaks_by_class_order(self):
        assert mfc_baseline(["none", "favor"]) == "none"
        assert mfc_baseline(["favor", "against"]) == "against"

    def test_degenerate_single_class(self):
        assert mfc_baseline(["favor", "favor"]) == "favor"

    def test_predictions_are_constant(self):
        examples, _, _ = setup_world(6)
        preds = mfc_predict(["none"] * 3 + ["favor"], examples[:4])
        assert {p.label for p in preds} == {"none"}


class TestFreezing:
    def test_frozen_word_level_unchanged_by_finetuning(self):
        examples, enc, vectors = setup_world(30)
        train, dev, _ = split_examples(examples)
        table_before = enc.rows(list(range(enc.buckets))).copy()
        model = MeltModel(CFG, seed=3)
        head = StanceHead(D, hidden1=8, hidden2=4, seed=3)
        cfg = FinetuneConfig(lr=1e-3, batch_size=5, max_epochs=2, patience=1, seed=3)
        finetune(model, head, FrozenWordLevel(D, vectors), train, dev, cfg)
        np.testing.assert_array_equal(enc.rows(list(range(enc.buckets))), table_before)

    def test_unfrozen_word_level_updates(self):
        examples, enc, vectors = setup_world(30)
        train, dev, _ = split_examples(examples)
        wl = TrainableHashWordLevel(enc, all_messages(examples))
        before = wl.table.data.copy()
        model = MeltModel(CFG, seed=3)
        head = StanceHead(D, hidden1=8, hidden2=4, seed=3)
        cfg = FinetuneConfig(lr=1e-3, batch_size=5, max_epochs=1, patience=1, seed=3,
                             unfreeze_word=True)
        finetune(model, head, wl, train, dev, cfg)
        assert not np.array_equal(wl.table.data, before)


    def test_mask_vector_gets_no_moments(self, monkeypatch):
        # fine-tuning reads neither the mask vector nor the reconstruction head, so they get
        # no gradient and AdamW makes them no state
        made = []

        class Recording(stance.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(stance, "AdamW", Recording)
        examples, _, vectors = setup_world(30)
        train, dev, _ = split_examples(examples)
        model = MeltModel(CFG, seed=3)
        head = StanceHead(D, hidden1=8, hidden2=4, seed=3)
        cfg = FinetuneConfig(lr=1e-3, batch_size=5, max_epochs=1, patience=1, seed=3)
        finetune(model, head, FrozenWordLevel(D, vectors), train, dev, cfg)
        (opt,) = made
        names = {name for name, _ in opt.params}
        assert "mask_vector" in names
        assert set(opt.states) == names - {"mask_vector", "head.w", "head.b"}

    def test_unfrozen_step_records_pin_no_intermediate_tensor(self, monkeypatch):
        from conftest import pinned_tensors
        from melt.tensor import backward, tape
        swept = []

        def checked_backward(loss):
            swept.append((len(tape(loss)), pinned_tensors(loss)))
            backward(loss)

        monkeypatch.setattr("melt.pretrain.backward", checked_backward)
        examples, enc, _ = setup_world(30)
        train, dev, _ = split_examples(examples)
        model = MeltModel(MeltConfig(n_layers=2, d_model=D, ff_dim=32, n_heads=2, dropout=0.1,
                                     max_seq=40), seed=3)
        head = StanceHead(D, hidden1=8, hidden2=4, seed=3)
        cfg = FinetuneConfig(lr=1e-3, batch_size=5, max_epochs=1, patience=1, seed=3,
                             dropout=0.05, unfreeze_word=True)
        finetune(model, head, TrainableHashWordLevel(enc, all_messages(examples)), train, dev,
                 cfg)
        assert swept and all(size > 60 for size, _ in swept)
        assert [pinned for _, pinned in swept] == [[]] * len(swept)


class TestEarlyStopping:
    def test_restores_best_dev_snapshot(self):
        examples, _, vectors = setup_world(40)
        train, dev, _ = split_examples(examples)
        model = MeltModel(CFG, seed=4)
        head = StanceHead(D, hidden1=8, hidden2=4, seed=4)
        wl = FrozenWordLevel(D, vectors)
        cfg = FinetuneConfig(lr=1e-3, batch_size=5, max_epochs=6, patience=1, seed=4)
        result = finetune(model, head, wl, train, dev, cfg)
        dev_losses = [row[2] for row in result.history]
        assert result.best_dev_loss == min(dev_losses)
        from melt.stance import _mean_loss
        restored = _mean_loss(model, head, wl, dev, None, cfg.batch_size)
        assert restored == pytest.approx(result.best_dev_loss, rel=1e-5)

    def test_unfrozen_table_holds_best_epoch_bytes(self, monkeypatch):
        examples, enc, _ = setup_world(40)
        train, dev, _ = split_examples(examples)
        wl = TrainableHashWordLevel(enc, all_messages(examples))
        at_dev_eval = []
        mean_loss = stance._mean_loss

        def recording_mean_loss(*args):
            at_dev_eval.append(wl.table.data.copy())
            return mean_loss(*args)

        monkeypatch.setattr(stance, "_mean_loss", recording_mean_loss)
        model = MeltModel(CFG, seed=4)
        head = StanceHead(D, hidden1=8, hidden2=4, seed=4)
        cfg = FinetuneConfig(lr=3e-3, batch_size=5, max_epochs=8, patience=1, seed=4,
                             unfreeze_word=True)
        result = finetune(model, head, wl, train, dev, cfg)
        assert result.stopped_early and result.best_epoch < len(result.history)
        best = at_dev_eval[result.best_epoch - 1]
        assert not np.array_equal(at_dev_eval[-1], best)
        assert wl.table.data.tobytes() == best.tobytes()

    def test_non_finite_dev_loss_raises_instead_of_restoring_the_start(self):
        examples, _, vectors = setup_world(30)
        train, dev, _ = split_examples(examples)
        vectors = dict(vectors)
        for ex in dev:
            vectors[ex.target.message_id] = np.full(D, np.nan, dtype=np.float32)
        model = MeltModel(CFG, seed=4)
        head = StanceHead(D, hidden1=8, hidden2=4, seed=4)
        cfg = FinetuneConfig(lr=1e-3, batch_size=5, max_epochs=3, patience=1, seed=4)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError,
                                                          match="dev loss after epoch 1"):
            finetune(model, head, FrozenWordLevel(D, vectors), train, dev, cfg)

    def test_empty_train_rejected(self):
        examples, _, vectors = setup_world(10)
        model = MeltModel(CFG, seed=0)
        head = StanceHead(D, hidden1=4, hidden2=4, seed=0)
        with pytest.raises(ValueError):
            finetune(model, head, FrozenWordLevel(D, vectors), [], examples[:2],
                     FinetuneConfig())


class TestCompactHashTable:
    def test_finetuning_matches_the_whole_table_byte_for_byte(self):
        examples, enc, _ = setup_world(40)
        train, dev, test = split_examples(examples)
        runs = []
        for word_level in (whole_table_level(enc, all_messages(examples)),
                           TrainableHashWordLevel(enc, all_messages(examples))):
            model = MeltModel(CFG, seed=4)
            head = StanceHead(D, hidden1=8, hidden2=4, seed=4)
            cfg = FinetuneConfig(lr=3e-3, weight_decay=0.5, batch_size=5, max_epochs=8,
                                 patience=1, seed=4, unfreeze_word=True)
            result = finetune(model, head, word_level, train, dev, cfg)
            probs = np.stack([p.probs for p in predict(model, head, word_level, test)])
            runs.append((result, probs, word_level))
        (whole_result, whole_probs, whole), (result, probs, compact) = runs
        assert result.stopped_early and result.best_epoch < len(result.history)
        assert len(result.history) > 2
        assert any(len(set(ids)) < len(ids) for ids in compact._rows_of.values())
        assert len(compact.table.data) < len(whole.table.data)
        assert result.history == whole_result.history
        assert probs.tobytes() == whole_probs.tobytes()
        assert compact.table.data.tobytes() == whole.table.data[compact.buckets].tobytes()


class TestBaselineFeatures:
    def example_with_history(self, n_hist):
        history = [RawMessage("u", f"h{i}", i, "x") for i in range(n_hist)]
        target = RawMessage("u", "t", 99, "y")
        return StanceExample(target, "none", "climate", history)

    def test_zero_history_half_is_zero(self):
        ex = self.example_with_history(0)
        vectors = {"t": np.ones(4, dtype=np.float32)}
        feats = word_history_features(ex, vectors)
        np.testing.assert_array_equal(feats[:4], 1.0)
        np.testing.assert_array_equal(feats[4:], 0.0)

    def test_single_history_mean_is_that_vector(self):
        ex = self.example_with_history(1)
        vectors = {"t": np.zeros(4, dtype=np.float32),
                   "h0": np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32)}
        feats = word_history_features(ex, vectors)
        np.testing.assert_array_equal(feats[4:], [1.0, 2.0, 3.0, 4.0])

    def test_history_mean_uses_most_recent_forty(self):
        ex = self.example_with_history(45)
        vectors = {"t": np.zeros(1, dtype=np.float32)}
        for i in range(45):
            vectors[f"h{i}"] = np.array([float(i)], dtype=np.float32)
        feats = word_history_features(ex, vectors)
        assert feats[1] == pytest.approx(np.mean(range(5, 45)))

    def test_word_features_are_target_vector(self):
        ex = self.example_with_history(2)
        vectors = {"t": np.array([9.0, 8.0], dtype=np.float32),
                   "h0": np.zeros(2), "h1": np.zeros(2)}
        np.testing.assert_array_equal(word_features(ex, vectors), [9.0, 8.0])


def test_feature_head_raises_on_non_finite_loss():
    rng = np.random.default_rng(0)
    feats = rng.uniform(-1, 1, (6, 4)).astype(np.float32)
    feats[2, 1] = np.nan
    cfg = FinetuneConfig(batch_size=3, max_epochs=2, seed=0)
    with pytest.raises(TrainingDivergedError):
        train_feature_head(feats, [0, 1, 2, 0, 1, 2], feats[:3], [0, 1, 2], cfg,
                           hidden1=4, hidden2=4)


def test_feature_head_stops_early_and_restores_the_best_dev_epoch(monkeypatch):
    # random labels: the head overfits, so dev loss turns up and the run stops
    rng = np.random.default_rng(3)
    feats = rng.uniform(-1, 1, (40, 6)).astype(np.float32)
    dev = rng.uniform(-1, 1, (12, 6)).astype(np.float32)
    labels, dev_labels = rng.integers(0, 3, 40), rng.integers(0, 3, 12)
    at_dev_eval = []  # (dev loss, parameter bytes) per epoch
    forward = StanceHead.forward

    def recording_forward(self, x, p_drop=0.0, train=False, rng=None):
        logits = forward(self, x, p_drop, train, rng)
        if not train:
            loss = float(stance.cross_entropy(logits, dev_labels).data)
            at_dev_eval.append((loss, [p.data.tobytes() for _, p in self.named_parameters()]))
        return logits

    monkeypatch.setattr(StanceHead, "forward", recording_forward)
    cfg = FinetuneConfig(lr=3e-3, batch_size=5, max_epochs=30, patience=2, seed=5)
    head = train_feature_head(feats, labels, dev, dev_labels, cfg, hidden1=16, hidden2=8)
    losses = [loss for loss, _ in at_dev_eval]
    best = losses.index(min(losses))  # the first minimum: improvement is strict
    assert len(losses) < cfg.max_epochs
    assert len(losses) == best + 1 + cfg.patience + 1
    assert at_dev_eval[-1][1] != at_dev_eval[best][1]
    assert [p.data.tobytes() for _, p in head.named_parameters()] == at_dev_eval[best][1]


def test_feature_head_raises_on_non_finite_dev_loss():
    rng = np.random.default_rng(0)
    feats = rng.uniform(-1, 1, (6, 4)).astype(np.float32)
    dev = feats[:3].copy()
    dev[1, 0] = np.nan
    cfg = FinetuneConfig(batch_size=3, max_epochs=2, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError,
                                                      match="dev loss after epoch 1"):
        train_feature_head(feats, [0, 1, 2, 0, 1, 2], dev, [0, 1, 2], cfg,
                           hidden1=4, hidden2=4)


def test_history_beats_word_only_on_user_dependent_labels():
    # 64-d rows: with 16-d rows, whether the baselines learn at all depends on
    # the table's draw (about half of all table seeds), under any row scheme
    examples = tiny_examples(240, seed=9)
    vectors = compute_message_vectors(all_messages(examples),
                                      HashEmbeddingEncoder(dim=64, buckets=4096, seed=2))
    train, dev, test = split_examples(examples)
    cfg = FinetuneConfig(lr=3e-3, weight_decay=1e-2, batch_size=10, max_epochs=30,
                         patience=8, seed=9)
    from melt.metrics import confusion, weighted_scores

    def score(preds):
        return weighted_scores(confusion([p.gold for p in preds],
                                         [p.label for p in preds]))[2]

    word_only = score(word_baseline(train, dev, test, vectors, cfg,
                                    with_history=False, hidden1=16, hidden2=8))
    with_hist = score(word_baseline(train, dev, test, vectors, cfg,
                                    with_history=True, hidden1=16, hidden2=8))
    assert with_hist > word_only
