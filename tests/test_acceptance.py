"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import csv
import json
import time

import zlib

import numpy as np
import pytest

from conftest import max_rel_err, numeric_grad
from melt.cli import main as cli_main
from melt.corpus import (Action, MaskPlan, RawMessage, SequenceChunk,
                         apply_masking, build_chunks)
from melt.metrics import confusion, semeval_f1, weighted_scores
from melt.model import MeltConfig, MeltModel
from melt.pretrain import (PretrainConfig, evaluate_dev, load_checkpoint,
                           load_params_into, make_dev_plans, masked_loss,
                           save_checkpoint, train, _forward_masked)
from melt.stance import (FinetuneConfig, StanceHead, finetune, mfc_baseline,
                         predict, word_baseline)
from melt.tensor import Tensor, backward
from melt.wordenc import (FrozenWordLevel, HashEmbeddingEncoder,
                          TrainableHashWordLevel, compute_message_vectors)
from melt.corpus import all_messages
from synthdata import (marker_corpus, split_examples, stance_corpus,
                       uninformative_corpus, write_corpus_jsonl,
                       write_stance_jsonl)
from test_corpus import reference_chunks
from test_metrics import brute_force_scores
from test_tensor import GRAD_CASES


def report_line(number, slug):
    print(f"\ncriterion {number} ({slug}): PASS")


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_suite():
    started = time.time()
    # every differentiable op against 64-bit central differences
    for name, (build, shapes) in GRAD_CASES.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        xs = [Tensor(rng.uniform(-2, 2, s), requires_grad=True) for s in shapes]
        backward(build(*xs))
        for x in xs:
            numeric = numeric_grad(lambda: float(build(*xs).data), x.data)
            assert max_rel_err(x.grad, numeric) < 1e-4, name

    # the full masked-reconstruction loss on a tiny model: L=4, d=8, 1 layer, 2 heads
    cfg = MeltConfig(n_layers=1, d_model=8, ff_dim=16, n_heads=2, dropout=0.0, max_seq=4)
    model = MeltModel(cfg, seed=7, dtype=np.float64)
    rng = np.random.default_rng(3)
    messages = [RawMessage("u", f"m{i}", i, "t") for i in range(4)]
    chunk = SequenceChunk("u", tuple(messages))
    vectors = {m.message_id: rng.uniform(-1, 1, 8) for m in messages}
    plan = MaskPlan(
        (Action.MASK_TOKEN, Action.KEEP, Action.UNCHANGED_PREDICT, Action.RANDOM_REPLACE),
        {0: vectors["m0"], 2: vectors["m2"], 3: vectors["m3"]},
        {3: ("m1", vectors["m1"])})

    def loss_value():
        preds, targets = _forward_masked(model, [chunk], [plan], vectors,
                                         train=False, rng=None)
        return float(masked_loss(preds, targets).data)

    preds, targets = _forward_masked(model, [chunk], [plan], vectors,
                                     train=False, rng=None)
    backward(masked_loss(preds, targets))
    for name, p in model.named_parameters():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numeric_grad(loss_value, p.data)
        assert max_rel_err(analytic, numeric) < 1e-4, name

    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report_line(1, "gradient-suite")


# ---------------------------------------------------------------------------
# 2. masking statistics
# ---------------------------------------------------------------------------


def test_criterion_02_masking_statistics():
    rng = np.random.default_rng(20_24)
    zero = np.zeros(2, dtype=np.float32)

    # 3500 full windows -> 140k real slots; a few short users exercise PAD
    full_user = [RawMessage("big", f"b{i:06d}", i, "t") for i in range(140_000)]
    chunks = build_chunks(full_user)
    short_chunks = []
    for u in range(50):
        history = [RawMessage(f"s{u}", f"s{u}m{i}", i, "t") for i in range(7)]
        short_chunks.extend(build_chunks(history))
    vectors = {m.message_id: zero for m in full_user}
    for c in short_chunks:
        for m in c.real_messages():
            vectors[m.message_id] = zero

    selected = 0
    real_total = 0
    action_counts = {Action.MASK_TOKEN: 0, Action.UNCHANGED_PREDICT: 0,
                     Action.RANDOM_REPLACE: 0}
    for chunk in chunks + short_chunks:
        plan = apply_masking(chunk, rng, vectors)
        real_total += chunk.n_real
        for i, action in enumerate(plan.actions):
            if chunk.slots[i] is None:
                assert action is Action.KEEP, "PAD slot was selected"
            elif action is not Action.KEEP:
                selected += 1
                action_counts[action] += 1

    assert real_total >= 100_000
    rate = selected / real_total
    assert 0.145 <= rate <= 0.155, f"selection rate {rate:.4f}"
    assert selected >= 20_000
    for action, share in ((Action.MASK_TOKEN, 0.8), (Action.UNCHANGED_PREDICT, 0.1),
                          (Action.RANDOM_REPLACE, 0.1)):
        got = action_counts[action] / selected
        assert abs(got - share) <= 0.01, f"{action}: {got:.4f} vs {share}"
    report_line(2, "masking-statistics")


# ---------------------------------------------------------------------------
# 3. chunking oracle
# ---------------------------------------------------------------------------


def test_criterion_03_chunking_oracle():
    rng = np.random.default_rng(777)
    for trial in range(1000):
        n = int(rng.integers(0, 201))
        history = [RawMessage(f"u{trial}", f"u{trial}m{i:04d}", i, "t") for i in range(n)]
        got = [[None if s is None else s.message_id for s in c.slots]
               for c in build_chunks(history)]
        want = [[None if s is None else s.message_id for s in c]
                for c in reference_chunks(history)]
        assert got == want, f"n={n}"

    history = [RawMessage("u", f"m{i:03d}", i, "t") for i in range(95)]
    ids = [[s.message_id for s in c.slots] for c in build_chunks(history)]
    assert ids[0] == [f"m{i:03d}" for i in range(0, 40)]
    assert ids[1] == [f"m{i:03d}" for i in range(40, 80)]
    assert ids[2] == [f"m{i:03d}" for i in range(55, 95)]
    report_line(3, "chunking-oracle")


# ---------------------------------------------------------------------------
# 4. metric oracle
# ---------------------------------------------------------------------------


def test_criterion_04_metric_oracle():
    labels = ("against", "none", "favor")
    rng = np.random.default_rng(4040)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        gold = [labels[i] for i in rng.integers(0, 3, n)]
        pred = [labels[i] for i in rng.integers(0, 3, n)]
        cm = confusion(gold, pred)
        _, oracle_weighted, oracle_sem = brute_force_scores(gold, pred)
        assert weighted_scores(cm) == oracle_weighted
        assert semeval_f1(cm) == oracle_sem

    gold = ["against"] * 8 + ["none"] + ["favor"]
    _, _, wf = weighted_scores(confusion(gold, ["against"] * 10))
    assert abs(wf - 0.7111111111111111) < 1e-9

    # per-target MFC with opposing majorities: the two metrics diverge by
    # >= 10 points with the favor/against average on top
    rows = []
    for target, gold in (("abortion", ["against"] * 50 + ["none"] * 25 + ["favor"] * 25),
                         ("climate", ["favor"] * 50 + ["none"] * 25 + ["against"] * 25)):
        majority = mfc_baseline(gold)
        rows.extend((g, majority) for g in gold)
    cm = confusion([g for g, _ in rows], [p for _, p in rows])
    _, _, wf = weighted_scores(cm)
    sem = semeval_f1(cm)
    assert sem > wf
    assert sem - wf >= 0.10
    report_line(4, "metric-oracle")


# ---------------------------------------------------------------------------
# 5. synthetic pre-training efficacy
# ---------------------------------------------------------------------------


def _marker_world():
    messages = marker_corpus(n_users=50, n_msgs=80, seed=11)
    encoder = HashEmbeddingEncoder(dim=32, buckets=4096, seed=5)
    vectors = compute_message_vectors(messages, encoder)
    by_user = {}
    for m in messages:
        by_user.setdefault(m.user_id, []).append(m)
    chunks = [c for u in sorted(by_user) for c in build_chunks(by_user[u])]
    train_chunks = [c for c in chunks if not c.user_id.endswith("0")]
    held_chunks = [c for c in chunks if c.user_id.endswith("0")]
    return vectors, train_chunks, held_chunks


def test_criterion_05_pretraining_efficacy():
    started = time.time()
    vectors, train_chunks, held_chunks = _marker_world()
    config = MeltConfig(n_layers=2, d_model=32, ff_dim=64, n_heads=4, dropout=0.1,
                        max_seq=40)
    model = MeltModel(config, seed=1337)
    plans = make_dev_plans(held_chunks, vectors, seed=1337 ^ 0x5EED)
    result = train(model, train_chunks, held_chunks, vectors,
                   PretrainConfig(base_lr=4e-3, weight_decay=0.1, warmup_steps=20,
                                  epochs=5, batch_size=1, seed=1337), plans)
    assert result.steps[200].loss < result.steps[0].loss

    load_params_into(model, result.best_params)
    model_mse = evaluate_dev(model, held_chunks, plans, vectors)

    global_mean = np.mean([vectors[m.message_id] for c in train_chunks
                           for m in c.real_messages()], axis=0)
    sq_global, sq_unmasked, n = 0.0, 0.0, 0
    for chunk, plan in zip(held_chunks, plans):
        keeps = [vectors[s.message_id] for i, s in enumerate(chunk.slots)
                 if s is not None and plan.actions[i] is Action.KEEP]
        unmasked_mean = np.mean(keeps, axis=0) if keeps else global_mean
        for slot in plan.selected_slots:
            target = plan.targets[slot]
            sq_global += float(((target - global_mean) ** 2).mean())
            sq_unmasked += float(((target - unmasked_mean) ** 2).mean())
            n += 1
    mse_global = sq_global / n
    mse_unmasked = sq_unmasked / n

    assert model_mse < mse_global, f"{model_mse:.5f} !< global {mse_global:.5f}"
    assert model_mse < mse_unmasked, f"{model_mse:.5f} !< unmasked {mse_unmasked:.5f}"
    assert time.time() - started < 600.0
    report_line(5, "pretraining-efficacy")


# ---------------------------------------------------------------------------
# 6. fine-tuning learnability
# ---------------------------------------------------------------------------


def _weighted_f1(preds):
    cm = confusion([p.gold for p in preds], [p.label for p in preds])
    return weighted_scores(cm)[2]


def test_criterion_06_finetuning_learnability():
    started = time.time()
    examples = stance_corpus(600, n_history=30, seed=42)
    train_ex, dev_ex, test_ex = split_examples(examples)
    encoder = HashEmbeddingEncoder(dim=32, buckets=4096, seed=5)
    vectors = compute_message_vectors(all_messages(examples), encoder)

    by_user = {}
    for ex in train_ex:
        for m in ex.history:
            by_user.setdefault(m.user_id, []).append(m)
    chunks = [c for u in sorted(by_user)
              for c in build_chunks(sorted(by_user[u], key=lambda m: m.timestamp))]
    config = MeltConfig(n_layers=2, d_model=32, ff_dim=64, n_heads=4, dropout=0.1,
                        max_seq=40)
    model = MeltModel(config, seed=1337)
    dev = chunks[:len(chunks) // 10]
    pres = train(model, chunks[len(chunks) // 10:], dev, vectors,
                 PretrainConfig(base_lr=4e-3, weight_decay=0.1, warmup_steps=20,
                                epochs=2, batch_size=10, seed=1337),
                 make_dev_plans(dev, vectors, seed=1337 ^ 0x5EED))
    load_params_into(model, pres.best_params)

    word_level = TrainableHashWordLevel(encoder, all_messages(examples))
    head = StanceHead(32, hidden1=64, hidden2=32, seed=7)
    cfg = FinetuneConfig(lr=1e-3, weight_decay=1e-2, batch_size=10,
                         unfreeze_word=True, max_epochs=12, patience=4, seed=7)
    finetune(model, head, word_level, train_ex, dev_ex, cfg)
    melt_f1 = _weighted_f1(predict(model, head, word_level, test_ex))

    base_cfg = FinetuneConfig(lr=1e-3, weight_decay=1e-2, batch_size=10,
                              max_epochs=12, patience=4, seed=7)
    word_f1 = _weighted_f1(word_baseline(train_ex, dev_ex, test_ex, vectors, base_cfg,
                                         with_history=False, hidden1=64, hidden2=32))
    hist_f1 = _weighted_f1(word_baseline(train_ex, dev_ex, test_ex, vectors, base_cfg,
                                         with_history=True, hidden1=64, hidden2=32))

    assert melt_f1 >= 0.95, f"tuned encoder scored {melt_f1:.4f}"
    assert melt_f1 > word_f1, f"{melt_f1:.4f} !> word-only {word_f1:.4f}"
    assert hist_f1 > word_f1, f"+history {hist_f1:.4f} !> word-only {word_f1:.4f}"
    assert time.time() - started < 600.0
    report_line(6, "finetuning-learnability")


# ---------------------------------------------------------------------------
# 7. random-init collapse to the majority class
# ---------------------------------------------------------------------------


def test_criterion_07_rand_init_collapse():
    examples = uninformative_corpus(300, seed=3, probs=(0.7, 0.2, 0.1))
    train_ex, dev_ex, test_ex = split_examples(examples)
    encoder = HashEmbeddingEncoder(dim=32, buckets=4096, seed=5)
    vectors = compute_message_vectors(all_messages(examples), encoder)
    word_level = FrozenWordLevel(32, vectors)
    config = MeltConfig(n_layers=2, d_model=32, ff_dim=64, n_heads=4, dropout=0.1,
                        max_seq=40)
    model = MeltModel(config, seed=99)  # no pre-training
    head = StanceHead(32, hidden1=64, hidden2=32, seed=99)
    cfg = FinetuneConfig(lr=1e-3, weight_decay=1e-2, batch_size=10, max_epochs=8,
                         patience=3, seed=99)
    finetune(model, head, word_level, train_ex, dev_ex, cfg)
    preds = predict(model, head, word_level, test_ex)
    majority = mfc_baseline([e.label for e in train_ex])
    assert majority == "against"
    assert all(p.label == majority for p in preds), \
        f"labels seen: {sorted({p.label for p in preds})}"
    report_line(7, "rand-init-collapse")


# ---------------------------------------------------------------------------
# 8. parameter counts
# ---------------------------------------------------------------------------


def test_criterion_08_parameter_counts():
    for layers, target in ((2, 11_621_632), (6, 33_677_568)):
        model = MeltModel(MeltConfig(n_layers=layers, d_model=768, ff_dim=2048,
                                     n_heads=8), seed=0)
        count = sum(p.size for _, p in model.named_parameters())
        assert abs(count - target) / target < 0.02, f"{layers}L: {count} vs {target}"
        # documented layout arithmetic, re-derived here
        d, ff = 768, 2048
        per_layer = 4 * (d * d + d) + (d * ff + ff) + (ff * d + d) + 4 * d
        expected = 40 * d + 2 * d + layers * per_layer + d * d + d
        assert count == expected
    report_line(8, "parameter-counts")


# ---------------------------------------------------------------------------
# 9. determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_09_determinism_and_persistence(tmp_path):
    messages = marker_corpus(n_users=10, n_msgs=60, seed=6)
    encoder = HashEmbeddingEncoder(dim=16, buckets=512, seed=2)
    vectors = compute_message_vectors(messages, encoder)
    by_user = {}
    for m in messages:
        by_user.setdefault(m.user_id, []).append(m)
    chunks = [c for u in sorted(by_user) for c in build_chunks(by_user[u])]
    config = MeltConfig(n_layers=1, d_model=16, ff_dim=32, n_heads=2, dropout=0.1,
                        max_seq=40)
    pconfig = PretrainConfig(base_lr=4e-3, weight_decay=0.1, warmup_steps=10,
                             epochs=2, batch_size=4, seed=1337)
    plans = make_dev_plans(chunks[:3], vectors, seed=1337 ^ 0x5EED)

    paths = []
    for run in ("one", "two"):
        model = MeltModel(config, seed=1337)
        result = train(model, chunks[3:], chunks[:3], vectors, pconfig, plans)
        path = tmp_path / f"ckpt_{run}.melt"
        save_checkpoint(path, model, dev_mse=result.best_dev_mse,
                        epoch=result.best_epoch, seed=1337, params=result.best_params)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    loaded, header = load_checkpoint(paths[0])
    x = np.random.default_rng(0).uniform(-1, 1, (2, 40, 16)).astype(np.float32)
    attn = np.ones((2, 40), dtype=bool)
    reference = MeltModel(config, seed=1337)
    result = train(reference, chunks[3:], chunks[:3], vectors, pconfig, plans)
    load_params_into(reference, result.best_params)
    np.testing.assert_array_equal(loaded.forward(Tensor(x.copy()), attn).data,
                                  reference.forward(Tensor(x.copy()), attn).data)

    assert abs(header["dev_mse"] - evaluate_dev(loaded, chunks[:3], plans, vectors)) < 1e-6
    report_line(9, "determinism-and-persistence")


# ---------------------------------------------------------------------------
# 10. history-length sweep through the CLI
# ---------------------------------------------------------------------------


def test_criterion_10_history_sweep(tmp_path):
    started = time.time()
    examples = stance_corpus(450, n_history=39, seed=7, split_fracs=(0.74, 0.13))
    stance_path = tmp_path / "stance.jsonl"
    write_stance_jsonl(stance_path, examples)

    history_messages = [m for ex in examples if ex.split == "train" for m in ex.history]
    corpus_path = tmp_path / "histories.jsonl"
    write_corpus_jsonl(corpus_path, history_messages)

    model_flags = ["--layers", "2", "--d-model", "32", "--ff-dim", "64", "--heads", "4",
                   "--word-buckets", "4096", "--word-seed", "5"]
    prep_dir = tmp_path / "prep"
    assert cli_main(["prep", "--corpus", str(corpus_path), "--out", str(prep_dir)]) == 0
    pre_dir = tmp_path / "pre"
    assert cli_main(["pretrain", "--corpus", str(corpus_path),
                     "--manifest", str(prep_dir / "manifest.jsonl"),
                     "--out", str(pre_dir), *model_flags,
                     "--epochs", "2", "--batch-size", "10", "--warmup-steps", "20"]) == 0

    sweep_dir = tmp_path / "sweep"
    assert cli_main(["finetune", "--stance", str(stance_path), "--out", str(sweep_dir),
                     "--checkpoint", str(pre_dir / "checkpoint.melt"), *model_flags,
                     "--head-hidden1", "64", "--head-hidden2", "32",
                     "--lr", "1e-3", "--weight-decay", "1e-2", "--epochs", "10",
                     "--patience", "3", "--history-len", "1,10,20,30,40"]) == 0

    with open(sweep_dir / "history_sweep.csv") as fh:
        rows = [(int(r["history_len"]), float(r["weighted_f1"]))
                for r in csv.DictReader(fh)]
    assert [h for h, _ in rows] == [1, 10, 20, 30, 40]
    scores = [f1 for _, f1 in rows]
    # shape check: monotone-or-plateau, and history clearly helps overall
    for prev, nxt in zip(scores, scores[1:]):
        assert nxt >= prev - 0.05, f"curve dips: {scores}"
    assert scores[-1] > scores[0] + 0.10, f"history never helps: {scores}"
    assert time.time() - started < 600.0
    report_line(10, "history-sweep")
