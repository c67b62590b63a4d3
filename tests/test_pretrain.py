import numpy as np
import pytest

from melt import pretrain as pretrain_mod
from melt.corpus import Action, MaskPlan, build_chunks
from melt.model import MeltConfig, MeltModel, embed_batch
from melt.pretrain import (CheckpointManifestError, CheckpointTruncatedError,
                           CheckpointVersionError, PretrainConfig,
                           TrainingDivergedError, _forward_masked, _input_rows,
                           evaluate_dev, load_checkpoint, load_params_into, make_dev_plans,
                           masked_loss, save_checkpoint, train)
from melt.tensor import Tensor, backward
from melt.wordenc import HashEmbeddingEncoder, compute_message_vectors
from synthdata import marker_corpus


def small_setup(n_users=8, n_msgs=50, d=16, seed=5):
    messages = marker_corpus(n_users=n_users, n_msgs=n_msgs, seed=seed)
    enc = HashEmbeddingEncoder(dim=d, buckets=512, seed=3)
    vectors = compute_message_vectors(messages, enc)
    by_user = {}
    for m in messages:
        by_user.setdefault(m.user_id, []).append(m)
    chunks = [c for u in sorted(by_user) for c in build_chunks(by_user[u])]
    return enc, vectors, chunks


def small_model(d=16, dropout=0.1):
    return MeltModel(MeltConfig(n_layers=1, d_model=d, ff_dim=32, n_heads=2,
                                dropout=dropout, max_seq=40), seed=1337)


class TestMaskedLoss:
    def test_identity_is_zero(self):
        x = np.random.default_rng(0).uniform(-1, 1, (3, 4)).astype(np.float32)
        assert masked_loss(Tensor(x), x.copy()).item() == 0.0

    def test_mean_of_per_slot_mses(self):
        # slot MSEs 1.0 and 3.0 average to 2.0
        preds = Tensor(np.array([[1.0, -1.0], [3.0, 3.0]], dtype=np.float32))
        targets = np.array([[0.0, 0.0], [np.sqrt(3) + 3, 3 - np.sqrt(3)]], dtype=np.float32)
        assert masked_loss(preds, targets).item() == pytest.approx(2.0, rel=1e-6)

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(-1, 1, (5, 3)).astype(np.float32)
        t = rng.uniform(-1, 1, (5, 3)).astype(np.float32)
        perm = rng.permutation(5)
        assert masked_loss(Tensor(p), t).item() == pytest.approx(
            masked_loss(Tensor(p[perm]), t[perm]).item(), rel=1e-6)

    def test_misalignment_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            masked_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 3)))

    def test_empty_selection_contributes_nothing(self):
        out = masked_loss(Tensor(np.zeros((0, 4))), np.zeros((0, 4)))
        assert out.item() == 0.0 and not out.requires_grad


class TestTrain:
    def test_bit_identical_trajectories(self):
        _, vectors, chunks = small_setup()
        cfg = PretrainConfig(base_lr=4e-3, warmup_steps=10, epochs=2, batch_size=4,
                             seed=1337)
        runs = []
        for _ in range(2):
            model = small_model()
            res = train(model, chunks[2:], chunks[:2], vectors, cfg)
            runs.append((tuple(s.loss for s in res.steps),
                         {n: p.data.copy() for n, p in model.named_parameters()}))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name])

    def test_word_encoder_untouched(self):
        enc, vectors, chunks = small_setup()
        before = enc.table.copy()
        train(small_model(), chunks[2:], chunks[:2], vectors,
              PretrainConfig(warmup_steps=10, epochs=1, batch_size=4, seed=0))
        np.testing.assert_array_equal(enc.table, before)

    def test_loss_decreases_on_structured_corpus(self):
        _, vectors, chunks = small_setup(n_users=12, n_msgs=80)
        model = small_model()
        res = train(model, chunks[3:], chunks[:3], vectors,
                    PretrainConfig(warmup_steps=10, epochs=3, batch_size=1, seed=1337))
        assert len(res.steps) > 60
        assert res.steps[60].loss < res.steps[0].loss

    def test_nan_loss_aborts_with_step(self):
        _, vectors, chunks = small_setup()
        poisoned = dict(vectors)
        victim = chunks[2].real_messages()[0].message_id
        poisoned[victim] = np.full(16, np.nan, dtype=np.float32)
        with pytest.raises(TrainingDivergedError, match="step"):
            train(small_model(), chunks[2:], chunks[:2], poisoned,
                  PretrainConfig(warmup_steps=0, epochs=1, batch_size=50, seed=1))

    def test_non_finite_dev_mse_aborts(self):
        _, vectors, chunks = small_setup()
        in_train = {m.message_id for c in chunks[2:] for m in c.real_messages()}
        poisoned = dict(vectors)
        for chunk in chunks[:2]:
            for m in chunk.real_messages():
                if m.message_id not in in_train:
                    poisoned[m.message_id] = np.full(16, np.nan, dtype=np.float32)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError,
                                                          match="dev MSE after epoch 1"):
            train(small_model(), chunks[2:], chunks[:2], poisoned,
                  PretrainConfig(warmup_steps=0, epochs=2, batch_size=50, seed=1))

    def test_best_epoch_is_argmin_of_dev(self):
        _, vectors, chunks = small_setup()
        res = train(small_model(), chunks[2:], chunks[:2], vectors,
                    PretrainConfig(warmup_steps=10, epochs=3, batch_size=4, seed=2))
        assert res.best_dev_mse == min(e.dev_mse for e in res.epochs)
        first_best = min(res.epochs, key=lambda e: (e.dev_mse, e.epoch))
        assert res.best_epoch == first_best.epoch

    def test_empty_train_rejected(self):
        _, vectors, chunks = small_setup()
        with pytest.raises(ValueError):
            train(small_model(), [], chunks[:2], vectors, PretrainConfig())


class TestEvaluateDev:
    def test_zero_head_closed_form(self):
        _, vectors, chunks = small_setup()
        model = small_model(dropout=0.0)
        model.head_w.data[:] = 0.0
        model.head_b.data[:] = 0.0
        plans = make_dev_plans(chunks[:4], vectors, seed=9)
        got = evaluate_dev(model, chunks[:4], plans, vectors)
        targets = np.concatenate([[p.targets[s] for s in p.selected_slots]
                                  for p in plans if p.selected_slots])
        want = float((targets.astype(np.float64) ** 2).mean())
        assert got == pytest.approx(want, rel=1e-6)

    def test_pure_function(self):
        _, vectors, chunks = small_setup()
        model = small_model()
        plans = make_dev_plans(chunks[:4], vectors, seed=9)
        assert evaluate_dev(model, chunks[:4], plans, vectors) == \
            evaluate_dev(model, chunks[:4], plans, vectors)

    def test_empty_dev_rejected(self):
        model = small_model()
        with pytest.raises(ValueError):
            evaluate_dev(model, [], [], {})

    def test_records_no_graph_and_matches_recorded_forward(self, monkeypatch):
        _, vectors, chunks = small_setup()
        model = small_model()
        plans = make_dev_plans(chunks[:4], vectors, seed=9)
        preds, targets = _forward_masked(model, chunks[:4], plans, vectors, train=False,
                                         rng=None)
        assert preds.requires_grad
        diff = preds.data - targets
        want = float((diff * diff).sum()) / diff.size
        seen = []

        def spy(*args, **kwargs):
            out = _forward_masked(*args, **kwargs)
            seen.append(out[0].requires_grad)
            return out

        monkeypatch.setattr(pretrain_mod, "_forward_masked", spy)
        assert evaluate_dev(model, chunks[:4], plans, vectors) == want
        assert seen == [False]


class TestCheckpoint:
    def roundtrip(self, tmp_path, model, **meta):
        path = tmp_path / "model.melt"
        save_checkpoint(path, model, **meta)
        return path

    def test_round_trip_bit_identical_parameters(self, tmp_path):
        model = small_model()
        path = self.roundtrip(tmp_path, model, dev_mse=0.5, epoch=1, seed=7)
        loaded, header = load_checkpoint(path)
        assert header["dev_mse"] == 0.5 and header["epoch"] == 1 and header["seed"] == 7
        for (na, pa), (nb, pb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_round_trip_preserves_forward_outputs(self, tmp_path):
        model = small_model()
        path = self.roundtrip(tmp_path, model, dev_mse=0.0, epoch=1, seed=7)
        loaded, _ = load_checkpoint(path)
        x = np.random.default_rng(0).uniform(-1, 1, (1, 40, 16)).astype(np.float32)
        attn = np.ones((1, 40), dtype=bool)
        a = model.forward(Tensor(x.copy()), attn).data
        b = loaded.forward(Tensor(x.copy()), attn).data
        np.testing.assert_array_equal(a, b)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = small_model()
        p1 = self.roundtrip(tmp_path, model, dev_mse=0.123456, epoch=2, seed=7)
        loaded, header = load_checkpoint(p1)
        p2 = tmp_path / "again.melt"
        save_checkpoint(p2, loaded, dev_mse=header["dev_mse"], epoch=header["epoch"],
                        seed=header["seed"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_detected(self, tmp_path):
        path = self.roundtrip(tmp_path, small_model(), dev_mse=0.0, epoch=1, seed=0)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_version_mismatch_detected(self, tmp_path):
        path = self.roundtrip(tmp_path, small_model(), dev_mse=0.0, epoch=1, seed=0)
        blob = path.read_bytes()
        head, rest = blob.split(b"\n", 1)
        path.write_bytes(head.replace(b'"version": 1', b'"version": 99') + b"\n" + rest)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_trailing_garbage_detected(self, tmp_path):
        path = self.roundtrip(tmp_path, small_model(), dev_mse=0.0, epoch=1, seed=0)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CheckpointManifestError):
            load_checkpoint(path)

    def test_header_dev_mse_matches_reevaluation(self, tmp_path):
        _, vectors, chunks = small_setup()
        model = small_model()
        res = train(model, chunks[2:], chunks[:2], vectors,
                    PretrainConfig(warmup_steps=10, epochs=2, batch_size=4, seed=11))
        path = tmp_path / "best.melt"
        save_checkpoint(path, model, dev_mse=res.best_dev_mse, epoch=res.best_epoch,
                        seed=11, params=res.best_params)
        loaded, header = load_checkpoint(path)
        plans = make_dev_plans(chunks[:2], vectors, seed=11 ^ 0x5EED)
        again = evaluate_dev(loaded, chunks[:2], plans, vectors)
        assert abs(header["dev_mse"] - again) < 1e-6

    def test_load_params_shape_mismatch(self, tmp_path):
        model = small_model()
        with pytest.raises(ValueError, match="shape"):
            load_params_into(model, {name: np.zeros((1, 1), dtype=np.float32)
                                     for name, _ in model.named_parameters()})

    def test_failed_save_leaves_no_partial_file(self, tmp_path):
        from melt.pretrain import save_params

        class Exploding:
            shape = (2,)

            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("boom")

        target = tmp_path / "never.melt"
        with pytest.raises(RuntimeError, match="boom"):
            save_params(target, {"version": 1}, [("ok", np.zeros(2, dtype=np.float32)),
                                                 ("bad", Exploding())])
        assert not target.exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestForwardMaskedRows:
    """_forward_masked runs the top layer only at each chunk's selected slots."""

    def case(self, n_layers):
        _, vectors, chunks = small_setup(n_users=4, n_msgs=30)  # 30 real + 10 PAD each
        model = MeltModel(MeltConfig(n_layers=n_layers, d_model=16, ff_dim=32, n_heads=4,
                                     dropout=0.2, max_seq=40), seed=3, dtype=np.float64)
        plans = make_dev_plans(chunks, vectors, seed=17)
        plans[-1] = MaskPlan((Action.KEEP,) * 40)  # a chunk with nothing selected
        assert all(p.selected_slots for p in plans[:-1])
        return model, chunks, plans, vectors

    def full_path(self, model, chunks, plans, vectors, rng):
        """Every slot through the top layer, then the head at the selected slots."""
        x, attn = embed_batch(model, chunks, plans, _input_rows(model, chunks, plans, vectors))
        out = model.forward(x, attn, train=rng is not None, rng=rng)
        b_idx = [b for b, p in enumerate(plans) for _ in p.selected_slots]
        l_idx = [s for p in plans for s in p.selected_slots]
        return model.reconstruct_rows(out, np.array(b_idx), np.array(l_idx))

    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_predictions_and_gradients_match_full_path(self, n_layers, train):
        model, chunks, plans, vectors = self.case(n_layers)
        runs = []
        for pruned in (False, True):
            rng = np.random.default_rng(8) if train else None
            if pruned:
                preds, targets = _forward_masked(model, chunks, plans, vectors, train, rng)
            else:
                preds = self.full_path(model, chunks, plans, vectors, rng)
            backward(masked_loss(preds, targets if pruned else np.stack(
                [p.targets[s] for p in plans for s in p.selected_slots])))
            grads = {n: np.asarray(p.grad) for n, p in model.named_parameters()}
            runs.append((preds.data, rng, grads))
        (full, rng_f, g_full), (part, rng_p, g_part) = runs
        np.testing.assert_allclose(part, full, rtol=0, atol=1e-12)
        if train:
            assert rng_p.bit_generator.state == rng_f.bit_generator.state
        for name, want in g_full.items():
            if name.endswith(".bk"):
                continue  # true gradient 0
            err = np.abs(g_part[name] - want).max()
            assert err <= 1e-9 * np.abs(want).max(), name

    def test_nothing_selected_gives_no_predictions(self):
        model, chunks, _, vectors = self.case(1)
        keep = [MaskPlan((Action.KEEP,) * 40) for _ in chunks]
        assert _forward_masked(model, chunks, keep, vectors, False, None) == (None, None)


class TestLoadWithoutInit:
    def test_checkpoint_loads_bit_identical_without_random_init(self, tmp_path,
                                                                  monkeypatch):
        import melt.model as model_mod
        model = small_model()
        path = tmp_path / "m.melt"
        save_checkpoint(path, model, dev_mse=0.0, epoch=1, seed=7)

        def no_draw(*args):
            raise AssertionError("loading a checkpoint drew random weights")

        monkeypatch.setattr(model_mod, "_gaussian", no_draw)
        loaded, _ = load_checkpoint(path)
        for (name, want), (_, got) in zip(model.named_parameters(), loaded.named_parameters()):
            assert got.data.tobytes() == want.data.tobytes(), name

    def test_load_params_into_owns_one_bit_identical_copy(self):
        source = {n: p.data.astype(np.float64) for n, p in small_model().named_parameters()}
        model = small_model(dropout=0.0)
        load_params_into(model, source)
        for name, p in model.named_parameters():
            assert p.data.dtype == np.float32
            assert p.data.tobytes() == source[name].astype(np.float32).tobytes(), name
            assert not np.shares_memory(p.data, source[name])

    def test_manifest_naming_a_missing_parameter_rejected(self, tmp_path):
        from melt.pretrain import load_params, save_params
        path = tmp_path / "m.melt"
        save_checkpoint(path, small_model(), dev_mse=0.0, epoch=1, seed=7)
        header, params = load_params(path)
        renamed = [("renamed" if n == "head.b" else n, a) for n, a in params.items()]
        header.pop("manifest")
        save_params(path, header, renamed)
        with pytest.raises(CheckpointManifestError):
            load_checkpoint(path)
