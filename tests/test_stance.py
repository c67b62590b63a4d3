import numpy as np
import pytest

from melt import stance
from melt.corpus import RawMessage, StanceExample
from melt.model import MeltConfig, MeltModel
from melt.pretrain import TrainingDivergedError
from melt.stance import (FinetuneConfig, StanceHead, finetune, mfc_baseline,
                         mfc_predict, predict, random_search, train_feature_head,
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
        table_before = enc.table.copy()
        model = MeltModel(CFG, seed=3)
        head = StanceHead(D, hidden1=8, hidden2=4, seed=3)
        cfg = FinetuneConfig(lr=1e-3, batch_size=5, max_epochs=2, patience=1, seed=3)
        finetune(model, head, FrozenWordLevel(D, vectors), train, dev, cfg)
        np.testing.assert_array_equal(enc.table, table_before)

    def test_unfrozen_word_level_updates(self):
        examples, enc, vectors = setup_world(30)
        train, dev, _ = split_examples(examples)
        wl = TrainableHashWordLevel(enc)
        before = wl.table.data.copy()
        model = MeltModel(CFG, seed=3)
        head = StanceHead(D, hidden1=8, hidden2=4, seed=3)
        cfg = FinetuneConfig(lr=1e-3, batch_size=5, max_epochs=1, patience=1, seed=3,
                             unfreeze_word=True)
        finetune(model, head, wl, train, dev, cfg)
        assert not np.array_equal(wl.table.data, before)


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
        wl = TrainableHashWordLevel(enc)
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

    def test_empty_train_rejected(self):
        examples, _, vectors = setup_world(10)
        model = MeltModel(CFG, seed=0)
        head = StanceHead(D, hidden1=4, hidden2=4, seed=0)
        with pytest.raises(ValueError):
            finetune(model, head, FrozenWordLevel(D, vectors), [], examples[:2],
                     FinetuneConfig())


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


class TestRandomSearch:
    def test_returns_argmin_and_stays_in_range(self):
        seen = []

        def run_trial(cfg):
            seen.append(cfg)
            return abs(cfg.lr - 1e-4)  # pretend 1e-4 is ideal

        best, best_loss, trials = random_search(run_trial, n_trials=8, seed=0)
        assert len(trials) == 8
        assert best_loss == min(loss for _, loss in trials)
        for cfg in seen:
            assert 6e-6 <= cfg.lr <= 3e-3
            assert 1e-4 <= cfg.weight_decay <= 1.0
            assert 0.0 <= cfg.dropout <= 0.05

    def test_deterministic_under_seed(self):
        a = random_search(lambda cfg: cfg.lr, n_trials=4, seed=5)
        b = random_search(lambda cfg: cfg.lr, n_trials=4, seed=5)
        assert [c.lr for c, _ in a[2]] == [c.lr for c, _ in b[2]]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            random_search(lambda cfg: 0.0, n_trials=0)


def test_history_beats_word_only_on_user_dependent_labels():
    examples, _, vectors = setup_world(240, seed=9)
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
