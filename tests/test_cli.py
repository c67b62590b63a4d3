import csv
import json
import os

import numpy as np
import pytest

from melt.cli import main
from melt.model import MeltConfig, MeltModel
from melt.pretrain import load_checkpoint, save_checkpoint
from melt.wordenc import HashEmbeddingEncoder, compute_message_vectors, write_vector_file
from synthdata import (marker_corpus, split_examples, stance_corpus,
                       write_corpus_jsonl, write_stance_jsonl)

MODEL_FLAGS = ["--layers", "1", "--d-model", "16", "--ff-dim", "32", "--heads", "2",
               "--word-buckets", "256", "--word-seed", "3"]


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, marker_corpus(n_users=10, n_msgs=95, seed=4))
    return path


def run_prep(tmp_path, corpus_file, out="prep"):
    out_dir = tmp_path / out
    assert main(["prep", "--corpus", str(corpus_file), "--out", str(out_dir)]) == 0
    return out_dir


def run_pretrain(tmp_path, corpus_file, out="pre", extra=()):
    prep_dir = run_prep(tmp_path, corpus_file, out=out + "_prep")
    out_dir = tmp_path / out
    code = main(["pretrain", "--corpus", str(corpus_file),
                 "--manifest", str(prep_dir / "manifest.jsonl"),
                 "--out", str(out_dir), *MODEL_FLAGS,
                 "--epochs", "1", "--batch-size", "10", "--warmup-steps", "5",
                 *extra])
    assert code == 0
    return out_dir


class TestPrep:
    def test_stats_for_ten_users_of_95(self, tmp_path, corpus_file):
        out_dir = run_prep(tmp_path, corpus_file)
        stats = json.loads((out_dir / "stats.json").read_text())
        assert stats["users"] == 10
        assert stats["messages"] == 950
        assert stats["chunks"] == 30  # three windows per user at n=95
        assert stats["pad_slots"] == 0

    def test_manifest_is_deterministic(self, tmp_path, corpus_file):
        a = run_prep(tmp_path, corpus_file, out="a") / "manifest.jsonl"
        b = run_prep(tmp_path, corpus_file, out="b") / "manifest.jsonl"
        assert a.read_bytes() == b.read_bytes()

    def test_empty_corpus_is_input_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["prep", "--corpus", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_config_echoed(self, tmp_path, corpus_file, capsys):
        out_dir = run_prep(tmp_path, corpus_file)
        echoed = json.loads((out_dir / "config.json").read_text())
        assert echoed["command"] == "prep"
        assert echoed["seq_len"] == 40
        assert "config.json" in os.listdir(out_dir)


class TestPretrain:
    def test_writes_checkpoint_and_csvs(self, tmp_path, corpus_file):
        out_dir = run_pretrain(tmp_path, corpus_file)
        assert (out_dir / "checkpoint.melt").exists()
        with open(out_dir / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"step", "lr", "loss"}
        with open(out_dir / "epochs.csv") as fh:
            erows = list(csv.DictReader(fh))
        assert [r["epoch"] for r in erows] == ["1"]

    def test_reruns_are_byte_identical(self, tmp_path, corpus_file):
        a = run_pretrain(tmp_path, corpus_file, out="r1")
        b = run_pretrain(tmp_path, corpus_file, out="r2")
        assert (a / "checkpoint.melt").read_bytes() == (b / "checkpoint.melt").read_bytes()
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()

    def test_layer_flag_selects_depth(self, tmp_path, corpus_file):
        out_dir = run_pretrain(tmp_path, corpus_file, out="two",
                               extra=["--layers", "2"])
        model, header = load_checkpoint(out_dir / "checkpoint.melt")
        assert model.config.n_layers == 2
        assert header["config"]["n_layers"] == 2

    def test_word_encoder_recorded_in_header(self, tmp_path, corpus_file):
        out_dir = run_pretrain(tmp_path, corpus_file)
        _, header = load_checkpoint(out_dir / "checkpoint.melt")
        assert header["word_encoder"]["kind"] == "hash"
        assert header["word_encoder"]["dim"] == 16

    def test_numeric_failure_exits_with_distinct_code(self, tmp_path, corpus_file):
        prep_dir = run_prep(tmp_path, corpus_file, out="nan_prep")
        out_dir = tmp_path / "nan"
        with np.errstate(all="ignore"):  # the blow-up itself is the point
            code = main(["pretrain", "--corpus", str(corpus_file),
                         "--manifest", str(prep_dir / "manifest.jsonl"),
                         "--out", str(out_dir), *MODEL_FLAGS,
                         "--epochs", "1", "--batch-size", "1", "--warmup-steps", "0",
                         "--lr", "1e12"])
        assert code == 3
        assert not (out_dir / "checkpoint.melt").exists()

    def test_vector_file_missing_an_id_is_input_error(self, tmp_path, corpus_file, capsys):
        from melt.corpus import ingest_jsonl
        prep_dir = run_prep(tmp_path, corpus_file)
        messages = [m for msgs in ingest_jsonl(corpus_file).values() for m in msgs]
        vectors = compute_message_vectors(messages[1:], HashEmbeddingEncoder(dim=16))
        vec_path = tmp_path / "vecs.tsv"
        write_vector_file(vec_path, 16, vectors.items())
        out_dir = tmp_path / "pre"
        code = main(["pretrain", "--corpus", str(corpus_file),
                     "--manifest", str(prep_dir / "manifest.jsonl"), "--out", str(out_dir),
                     *MODEL_FLAGS, "--word-encoder", f"precomputed:{vec_path}"])
        assert code == 2
        assert f"'{messages[0].message_id}'" in capsys.readouterr().err
        assert not (out_dir / "checkpoint.melt").exists()


@pytest.fixture
def stance_file(tmp_path):
    path = tmp_path / "stance.jsonl"
    write_stance_jsonl(path, stance_corpus(120, n_history=6, seed=21,
                                           split_fracs=(0.6, 0.2)))
    return path


def finetune_args(stance_file, out_dir, *extra):
    return ["finetune", "--stance", str(stance_file), "--out", str(out_dir),
            *MODEL_FLAGS, "--head-hidden1", "16", "--head-hidden2", "8",
            "--lr", "3e-3", "--epochs", "4", "--patience", "2", *extra]


class TestFinetune:
    def test_rand_init_writes_predictions_and_snapshot(self, tmp_path, stance_file):
        out_dir = tmp_path / "ft"
        assert main(finetune_args(stance_file, out_dir, "--rand-init")) == 0
        with open(out_dir / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        examples = stance_corpus(120, n_history=6, seed=21, split_fracs=(0.6, 0.2))
        _, _, test = split_examples(examples)
        assert len(rows) == len(test)
        assert set(rows[0]) == {"example_id", "target", "gold", "pred",
                                "p_against", "p_none", "p_favor"}
        probs = [float(rows[0][k]) for k in ("p_against", "p_none", "p_favor")]
        assert abs(sum(probs) - 1.0) < 1e-5
        assert (out_dir / "snapshot_climate.melt").exists()

    def test_from_checkpoint(self, tmp_path, corpus_file, stance_file):
        pre = run_pretrain(tmp_path, corpus_file)
        out_dir = tmp_path / "ft_ckpt"
        code = main(finetune_args(stance_file, out_dir,
                                  "--checkpoint", str(pre / "checkpoint.melt")))
        assert code == 0
        assert (out_dir / "predictions.csv").exists()

    def test_word_encoder_mismatch_with_checkpoint_rejected(self, tmp_path, corpus_file,
                                                            stance_file, capsys):
        pre = run_pretrain(tmp_path, corpus_file)  # MODEL_FLAGS pre-train with --word-seed 3
        out_dir = tmp_path / "ft_seed4"
        code = main(finetune_args(stance_file, out_dir, "--word-seed", "4",
                                  "--checkpoint", str(pre / "checkpoint.melt")))
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (out_dir / "predictions.csv").exists()

    def test_requires_checkpoint_or_rand_init(self, tmp_path, stance_file):
        assert main(finetune_args(stance_file, tmp_path / "x")) == 2

    def test_dimension_mismatch_fails_before_training(self, tmp_path, stance_file):
        examples = stance_corpus(120, n_history=6, seed=21, split_fracs=(0.6, 0.2))
        from melt.corpus import all_messages
        enc = HashEmbeddingEncoder(dim=8, buckets=64, seed=0)
        vectors = compute_message_vectors(all_messages(examples), enc)
        vec_path = tmp_path / "vecs.tsv"
        write_vector_file(vec_path, 8, vectors.items())
        out_dir = tmp_path / "mismatch"
        code = main(finetune_args(stance_file, out_dir, "--rand-init",
                                  "--word-encoder", f"precomputed:{vec_path}"))
        assert code == 2

    def test_precomputed_vectors_path(self, tmp_path, stance_file):
        examples = stance_corpus(120, n_history=6, seed=21, split_fracs=(0.6, 0.2))
        from melt.corpus import all_messages
        enc = HashEmbeddingEncoder(dim=16, buckets=256, seed=3)
        vectors = compute_message_vectors(all_messages(examples), enc)
        vec_path = tmp_path / "vecs.tsv"
        write_vector_file(vec_path, 16, vectors.items())
        out_dir = tmp_path / "ft_pre"
        code = main(finetune_args(stance_file, out_dir, "--rand-init",
                                  "--word-encoder", f"precomputed:{vec_path}"))
        assert code == 0

    def test_vector_file_missing_an_id_is_input_error(self, tmp_path, stance_file, capsys):
        examples = stance_corpus(120, n_history=6, seed=21, split_fracs=(0.6, 0.2))
        from melt.corpus import all_messages
        enc = HashEmbeddingEncoder(dim=16, buckets=256, seed=3)
        vectors = compute_message_vectors(all_messages(examples), enc)
        dropped = examples[0].target.message_id
        del vectors[dropped]
        vec_path = tmp_path / "vecs.tsv"
        write_vector_file(vec_path, 16, vectors.items())
        for extra in ((), ("--unfreeze-word",)):
            out_dir = tmp_path / ("ft" + "".join(extra))
            code = main(finetune_args(stance_file, out_dir, "--rand-init", *extra,
                                      "--word-encoder", f"precomputed:{vec_path}"))
            assert code == 2
            assert f"'{dropped}'" in capsys.readouterr().err
            assert not (out_dir / "predictions.csv").exists()

    def test_unfrozen_hash_table_reads_no_message_vectors(self, tmp_path, stance_file,
                                                          monkeypatch):
        import melt.cli as cli

        def refuse(*args):
            raise AssertionError("message vectors computed for a trainable hash table")

        monkeypatch.setattr(cli, "compute_message_vectors", refuse)
        out_dir = tmp_path / "ft"
        assert main(finetune_args(stance_file, out_dir, "--rand-init",
                                  "--unfreeze-word")) == 0
        assert (out_dir / "predictions.csv").exists()

    def test_non_finite_loss_exits_with_distinct_code(self, tmp_path, stance_file):
        model = MeltModel(MeltConfig(n_layers=1, d_model=16, ff_dim=32, n_heads=2), seed=0)
        model.layers[0].w1.data[0, 0] = np.inf
        ckpt = tmp_path / "inf.melt"
        save_checkpoint(ckpt, model, dev_mse=0.0, epoch=1, seed=0)
        out_dir = tmp_path / "ft_inf"
        with np.errstate(all="ignore"):  # the blow-up itself is the point
            code = main(finetune_args(stance_file, out_dir, "--checkpoint", str(ckpt)))
        assert code == 3
        assert not (out_dir / "predictions.csv").exists()

    def test_non_finite_vector_file_is_input_error(self, tmp_path, stance_file, capsys):
        examples = stance_corpus(120, n_history=6, seed=21, split_fracs=(0.6, 0.2))
        from melt.corpus import all_messages
        nan = np.full(16, np.nan, dtype=np.float32)
        vec_path = tmp_path / "nan.tsv"
        write_vector_file(vec_path, 16, ((m.message_id, nan) for m in all_messages(examples)))
        out_dir = tmp_path / "ft_nan"
        code = main(finetune_args(stance_file, out_dir, "--rand-init",
                                  "--word-encoder", f"precomputed:{vec_path}"))
        assert code == 2
        assert "line 2" in capsys.readouterr().err
        assert not (out_dir / "predictions.csv").exists()

    @pytest.mark.parametrize("field,edit", [
        ("config", lambda header: header.pop("config")),
        ("bogus", lambda header: header["config"].update(bogus=1)),
        ("manifest", lambda header: header["manifest"][0].pop()),
    ], ids=["no-config", "unknown-config-key", "entry-without-shape"])
    def test_malformed_checkpoint_header_is_input_error(self, tmp_path, stance_file, capsys,
                                                        field, edit):
        model = MeltModel(MeltConfig(n_layers=1, d_model=16, ff_dim=32, n_heads=2), seed=0)
        ckpt = tmp_path / "bad.melt"
        save_checkpoint(ckpt, model, dev_mse=0.0, epoch=1, seed=0)
        line, blocks = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        edit(header)
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + blocks)
        out_dir = tmp_path / "ft_bad"
        code = main(finetune_args(stance_file, out_dir, "--checkpoint", str(ckpt)))
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (out_dir / "predictions.csv").exists()

    def test_mfc_arch(self, tmp_path, stance_file):
        out_dir = tmp_path / "mfc"
        assert main(["finetune", "--stance", str(stance_file), "--out", str(out_dir),
                     "--arch", "mfc"]) == 0
        with open(out_dir / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len({r["pred"] for r in rows}) == 1

    def test_word_baseline_arch(self, tmp_path, stance_file):
        out_dir = tmp_path / "wb"
        assert main(finetune_args(stance_file, out_dir, "--arch", "word")) == 0
        assert (out_dir / "predictions.csv").exists()


class TestJobs:
    def test_parallel_runs_match_serial(self, tmp_path):
        stance_path = tmp_path / "multi.jsonl"
        write_stance_jsonl(stance_path, stance_corpus(
            120, n_history=6, seed=33, split_fracs=(0.6, 0.2),
            targets=("abortion", "climate")))
        outputs = []
        for jobs, tag in (("1", "serial"), ("3", "parallel")):
            out_dir = tmp_path / tag
            code = main(finetune_args(stance_path, out_dir, "--rand-init",
                                      "--jobs", jobs))
            assert code == 0
            outputs.append((out_dir / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestPerTargetRuns:
    def test_each_runs_word_level_is_freed_before_the_next_starts(self, tmp_path,
                                                                   monkeypatch):
        # with --unfreeze-word a word level holds a copy of the whole hash table
        import weakref
        import melt.cli as cli
        stance_path = tmp_path / "two.jsonl"
        write_stance_jsonl(stance_path, stance_corpus(
            120, n_history=6, seed=33, split_fracs=(0.6, 0.2),
            targets=("abortion", "climate")))
        made = []
        real = cli._word_level_for

        def tracked(cfg, source, vectors):
            assert all(ref() is None for ref in made), "an earlier run's word level lives"
            level = real(cfg, source, vectors)
            made.append(weakref.ref(level))
            return level

        monkeypatch.setattr(cli, "_word_level_for", tracked)
        out_dir = tmp_path / "ft"
        assert main(finetune_args(stance_path, out_dir, "--rand-init",
                                  "--unfreeze-word")) == 0
        assert len(made) == 2
        assert (out_dir / "snapshot_abortion.melt").exists()
        assert (out_dir / "snapshot_climate.melt").exists()


class TestEvaluate:
    def perfect_predictions(self, tmp_path, stance_file):
        examples = stance_corpus(120, n_history=6, seed=21, split_fracs=(0.6, 0.2))
        _, _, test = split_examples(examples)
        path = tmp_path / "perfect.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["example_id", "target", "gold", "pred",
                             "p_against", "p_none", "p_favor"])
            for ex in test:
                writer.writerow([ex.example_id, ex.stance_target, ex.label, ex.label,
                                 "0.0", "0.0", "1.0"])
        return path

    def test_perfect_predictions_score_one(self, tmp_path, stance_file, capsys):
        preds = self.perfect_predictions(tmp_path, stance_file)
        out_dir = tmp_path / "eval"
        code = main(["evaluate", "--predictions", str(preds), "--gold",
                     str(stance_file), "--out", str(out_dir)])
        assert code == 0
        text = (out_dir / "metrics.txt").read_text()
        assert "1.0000" in text
        with open(out_dir / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["weighted_f1"]) == 1.0

    def test_unknown_ids_listed(self, tmp_path, stance_file, capsys):
        preds = self.perfect_predictions(tmp_path, stance_file)
        with open(preds, "a", newline="") as fh:
            fh.write("ghost-id,climate,favor,favor,0.0,0.0,1.0\n")
        code = main(["evaluate", "--predictions", str(preds), "--gold",
                     str(stance_file)])
        assert code == 2
        assert "ghost-id" in capsys.readouterr().err

    def test_repeated_id_rejected(self, tmp_path, stance_file, capsys):
        preds = self.perfect_predictions(tmp_path, stance_file)
        first_row = preds.read_text().splitlines()[1]
        with open(preds, "a", newline="") as fh:
            fh.write(first_row + "\n")
        code = main(["evaluate", "--predictions", str(preds), "--gold",
                     str(stance_file)])
        assert code == 2
        assert first_row.split(",")[0] in capsys.readouterr().err

    def test_missing_test_example_of_predicted_target_rejected(self, tmp_path, stance_file,
                                                               capsys):
        preds = self.perfect_predictions(tmp_path, stance_file)
        header, dropped, *kept = preds.read_text().splitlines()
        preds.write_text("\n".join([header, *kept]) + "\n")
        code = main(["evaluate", "--predictions", str(preds), "--gold",
                     str(stance_file)])
        assert code == 2
        assert dropped.split(",")[0] in capsys.readouterr().err

    def test_five_target_table_has_five_rows_plus_aggregate(self, tmp_path):
        from melt.corpus import STANCE_TARGETS
        stance_path = tmp_path / "five.jsonl"
        write_stance_jsonl(stance_path, stance_corpus(
            150, n_history=4, seed=5, split_fracs=(0.6, 0.2),
            targets=STANCE_TARGETS))
        out_dir = tmp_path / "mfc5"
        assert main(["finetune", "--stance", str(stance_path), "--out", str(out_dir),
                     "--arch", "mfc"]) == 0
        eval_dir = tmp_path / "eval5"
        assert main(["evaluate", "--predictions", str(out_dir / "predictions.csv"),
                     "--gold", str(stance_path), "--out", str(eval_dir)]) == 0
        with open(eval_dir / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["target"] for r in rows] == sorted(STANCE_TARGETS) + ["all"]

    def test_matches_metrics_module(self, tmp_path, stance_file, capsys):
        # MFC predictions scored by the CLI agree with direct metric computation
        out_dir = tmp_path / "mfc2"
        main(["finetune", "--stance", str(stance_file), "--out", str(out_dir),
              "--arch", "mfc"])
        code = main(["evaluate", "--predictions", str(out_dir / "predictions.csv"),
                     "--gold", str(stance_file), "--out", str(tmp_path / "ev2")])
        assert code == 0
        from melt.metrics import confusion, weighted_scores
        examples = stance_corpus(120, n_history=6, seed=21, split_fracs=(0.6, 0.2))
        train, _, test = split_examples(examples)
        from melt.stance import mfc_baseline
        maj = mfc_baseline([e.label for e in train])
        _, _, expected = weighted_scores(
            confusion([e.label for e in test], [maj] * len(test)))
        with open(tmp_path / "ev2" / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["weighted_f1"]) == pytest.approx(expected, abs=1e-12)


class TestConfigResolution:
    def test_env_overrides_default_but_not_flag(self, tmp_path, corpus_file,
                                                monkeypatch):
        monkeypatch.setenv("MELT_SEQ_LEN", "20")
        out_dir = run_prep(tmp_path, corpus_file, out="env")
        cfg = json.loads((out_dir / "config.json").read_text())
        assert cfg["seq_len"] == 20
        out_dir2 = tmp_path / "env2"
        main(["prep", "--corpus", str(corpus_file), "--out", str(out_dir2),
              "--seq-len", "30"])
        cfg2 = json.loads((out_dir2 / "config.json").read_text())
        assert cfg2["seq_len"] == 30

    def test_config_file_applies_and_flags_win(self, tmp_path, corpus_file):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seq_len": 25}))
        out_dir = tmp_path / "file"
        main(["prep", "--config", str(cfg_path), "--corpus", str(corpus_file),
              "--out", str(out_dir)])
        assert json.loads((out_dir / "config.json").read_text())["seq_len"] == 25
        out_dir2 = tmp_path / "file2"
        main(["prep", "--config", str(cfg_path), "--corpus", str(corpus_file),
              "--out", str(out_dir2), "--seq-len", "35"])
        assert json.loads((out_dir2 / "config.json").read_text())["seq_len"] == 35

    def test_unknown_config_key_rejected(self, tmp_path, corpus_file, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus_key": 1}))
        code = main(["prep", "--config", str(cfg_path), "--corpus", str(corpus_file),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("patience", "2"), ("lr", True), ("epochs", 2.5), ("pooled", 1), ("stance", 3),
        ("seq_len", None), ("history_len", 2.5),
    ])
    def test_config_value_of_the_wrong_type_rejected(self, tmp_path, key, value, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"stance": "s.jsonl", "out": str(tmp_path / "o"),
                                        key: value}))
        assert main(["finetune", "--config", str(cfg_path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_config_values_of_the_option_types_accepted(self, tmp_path):
        from melt.cli import build_parser, resolve_config
        file_cfg = {"stance": "s.jsonl", "out": "o", "patience": 2, "lr": 1, "pooled": False,
                    "history_len": 3, "checkpoint": None}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_cfg))
        args = build_parser().parse_args(["finetune", "--config", str(cfg_path)])
        resolved = resolve_config("finetune", args)
        assert {key: resolved[key] for key in file_cfg} == file_cfg

    def test_rerun_from_echoed_config_reproduces_outputs(self, tmp_path, corpus_file):
        out_dir = run_pretrain(tmp_path, corpus_file, out="orig")
        echoed = out_dir / "config.json"
        rerun_cfg = json.loads(echoed.read_text())
        rerun_cfg["out"] = str(tmp_path / "rerun")
        rerun_path = tmp_path / "rerun.json"
        rerun_path.write_text(json.dumps(rerun_cfg))
        assert main(["pretrain", "--config", str(rerun_path)]) == 0
        assert (tmp_path / "rerun" / "checkpoint.melt").read_bytes() == \
            (out_dir / "checkpoint.melt").read_bytes()
