import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import melt
from melt.cli import COMMAND_OPTS, REQUIRED, main
from melt.model import MeltConfig, MeltModel
from melt.pretrain import load_checkpoint, save_checkpoint
from melt.wordenc import HashEmbeddingEncoder, compute_message_vectors, fnv1a_64, tokenize
from synthdata import (marker_corpus, split_examples, stance_corpus,
                       write_corpus_jsonl, write_stance_jsonl, write_vector_file)

# the word baselines read these; the message encoder reads them and the rest of MODEL_FLAGS
WORD_FLAGS = ["--d-model", "16", "--word-buckets", "256", "--word-seed", "3"]
MODEL_FLAGS = ["--layers", "1", "--ff-dim", "32", "--heads", "2", *WORD_FLAGS]


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
        assert all(list(json.loads(row)) == ["user_id", "slots"]
                   for row in a.read_text().splitlines())

    def test_empty_corpus_is_input_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["prep", "--corpus", str(empty), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("seq_len", ["0", "-5"])
    def test_seq_len_below_one_is_input_error(self, tmp_path, corpus_file, capsys, seq_len):
        # 0 would divide by zero while cutting windows, and -5 write rows with no slots
        out_dir = tmp_path / "prep"
        code = main(["prep", "--corpus", str(corpus_file), "--out", str(out_dir),
                     "--seq-len", seq_len])
        assert code == 2
        assert "--seq-len" in capsys.readouterr().err
        assert not (out_dir / "manifest.jsonl").exists()

    def test_config_echoed(self, tmp_path, corpus_file, capsys):
        out_dir = run_prep(tmp_path, corpus_file)
        echoed = json.loads((out_dir / "config.json").read_text())
        assert echoed["command"] == "prep"
        assert echoed["seq_len"] == 40
        assert "seed" not in echoed  # prep draws nothing, so it records no seed
        assert "config.json" in os.listdir(out_dir)

    def test_seed_flag_rejected(self, tmp_path, corpus_file, capsys):
        out_dir = tmp_path / "prep"
        with pytest.raises(SystemExit) as exc:
            main(["prep", "--corpus", str(corpus_file), "--out", str(out_dir),
                  "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_seed_in_config_file_is_an_unknown_key(self, tmp_path, corpus_file, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3}))
        out_dir = tmp_path / "prep"
        code = main(["prep", "--config", str(cfg_path), "--corpus", str(corpus_file),
                     "--out", str(out_dir)])
        assert code == 2
        assert "unknown config key 'seed'" in capsys.readouterr().err
        assert not out_dir.exists()


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
        # a manifest whose rows still hold the window index they once recorded loads as before
        rows = [json.loads(row) for row in
                (tmp_path / "r1_prep" / "manifest.jsonl").read_text().splitlines()]
        old = tmp_path / "with_origin.jsonl"
        old.write_text("".join(json.dumps({"user_id": row["user_id"], "origin": i,
                                           "slots": row["slots"]}) + "\n"
                               for i, row in enumerate(rows)))
        c = tmp_path / "r3"
        assert main(["pretrain", "--corpus", str(corpus_file), "--manifest", str(old),
                     "--out", str(c), *MODEL_FLAGS, "--epochs", "1", "--batch-size", "10",
                     "--warmup-steps", "5"]) == 0
        assert (a / "checkpoint.melt").read_bytes() == (c / "checkpoint.melt").read_bytes()

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

    def test_vector_file_recorded_by_content_not_path(self, tmp_path, corpus_file):
        from melt.corpus import ingest_jsonl
        messages = [m for msgs in ingest_jsonl(corpus_file).values() for m in msgs]
        vectors = compute_message_vectors(messages, HashEmbeddingEncoder(16, 256, 3))
        paths = [tmp_path / "a.tsv", tmp_path / "elsewhere" / "b.tsv"]
        paths[1].parent.mkdir()
        for path in paths:
            write_vector_file(path, 16, vectors.items())
        ckpts = [run_pretrain(tmp_path, corpus_file, out=f"pre{i}",
                              extra=["--word-encoder", f"precomputed:{path}"])
                 / "checkpoint.melt" for i, path in enumerate(paths)]
        assert hashlib.sha256(ckpts[0].read_bytes()).hexdigest() == \
            hashlib.sha256(ckpts[1].read_bytes()).hexdigest()

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
        assert (out_dir / "config.json").exists()  # the run happened, so it is recorded

    def test_hash_table_freed_before_training(self, tmp_path, corpus_file, monkeypatch):
        import weakref

        import melt.cli as cli
        import melt.pretrain as pretrain_mod
        encoders, alive_at_train = [], []
        make_source, train = cli._make_word_source, pretrain_mod.train

        def tracked_source(cfg):
            source, word_meta = make_source(cfg)
            encoders.append(weakref.ref(source))
            return source, word_meta

        def checked_train(*args, **kwargs):
            alive_at_train.append([ref() is not None for ref in encoders])
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "_make_word_source", tracked_source)
        monkeypatch.setattr(pretrain_mod, "train", checked_train)
        run_pretrain(tmp_path, corpus_file)
        assert len(encoders) == 1 and alive_at_train == [[False]]

    @pytest.mark.parametrize("fraction", ["0.6", "0.9", "1.0", "3.0", "0", "-0.1"])
    def test_dev_fraction_outside_half_open_unit_half_is_input_error(
            self, tmp_path, corpus_file, capsys, fraction):
        # round(1 / f) clamped to 2 would turn any f above 0.5 into a 1-in-2 split
        prep_dir = run_prep(tmp_path, corpus_file)
        out_dir = tmp_path / "pre"
        code = main(["pretrain", "--corpus", str(corpus_file),
                     "--manifest", str(prep_dir / "manifest.jsonl"), "--out", str(out_dir),
                     *MODEL_FLAGS, "--dev-fraction", fraction])
        assert code == 2
        assert "--dev-fraction" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("clip", ["0", "-1", "-0.5"])
    def test_grad_clip_at_or_below_zero_is_input_error(self, tmp_path, corpus_file, capsys,
                                                       clip):
        # a negative clip would turn descent into ascent, and 0 zero every update
        prep_dir = run_prep(tmp_path, corpus_file)
        out_dir = tmp_path / "pre"
        code = main(["pretrain", "--corpus", str(corpus_file),
                     "--manifest", str(prep_dir / "manifest.jsonl"), "--out", str(out_dir),
                     *MODEL_FLAGS, "--grad-clip", clip])
        assert code == 2
        assert "--grad-clip" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("warmup", ["-1", "-5"])
    def test_negative_warmup_steps_is_input_error(self, tmp_path, corpus_file, capsys,
                                                  warmup):
        # below 0 it would train silently as 0
        prep_dir = run_prep(tmp_path, corpus_file)
        out_dir = tmp_path / "pre"
        code = main(["pretrain", "--corpus", str(corpus_file),
                     "--manifest", str(prep_dir / "manifest.jsonl"), "--out", str(out_dir),
                     *MODEL_FLAGS, "--warmup-steps", warmup])
        assert code == 2
        assert "--warmup-steps" in capsys.readouterr().err
        assert not (out_dir / "checkpoint.melt").exists()

    @pytest.mark.parametrize("fraction,n_dev", [("0.34", 10), ("0.1", 3), ("0.5", 15)])
    def test_dev_fraction_holds_out_every_nth_chunk(self, tmp_path, corpus_file,
                                                     monkeypatch, fraction, n_dev):
        import melt.pretrain as pretrain_mod
        split = []

        def record(model, train_chunks, dev_chunks, *args, **kwargs):
            split.append((len(train_chunks), len(dev_chunks)))
            raise SystemExit(0)

        monkeypatch.setattr(pretrain_mod, "train", record)
        with pytest.raises(SystemExit):
            run_pretrain(tmp_path, corpus_file, extra=["--dev-fraction", fraction])
        assert split == [(30 - n_dev, n_dev)]  # 30 chunks; dev is every round(1/f)-th

    @pytest.mark.parametrize("edit,named", [
        (lambda row: {"user_id": row["user_id"]}, "slots"),
        (lambda row: [row["user_id"], row["slots"]], "JSON object"),
        (lambda row: {"slots": row["slots"]}, "user_id"),
        (lambda row: {"user_id": 7, "slots": row["slots"]}, "user_id"),
        (lambda row: {"user_id": row["user_id"], "slots": row["slots"][0]}, "slots"),
        (lambda row: {"user_id": row["user_id"], "slots": [[1], *row["slots"][1:]]},
         "'[1]'"),
    ], ids=["no-slots", "not-an-object", "no-user-id", "int-user-id", "string-slots",
            "list-slot"])
    def test_malformed_manifest_row_is_input_error(self, tmp_path, corpus_file, capsys,
                                                   edit, named):
        prep_dir = run_prep(tmp_path, corpus_file)
        manifest = prep_dir / "manifest.jsonl"
        first, *rest = manifest.read_text().splitlines()
        bad = json.dumps(edit(json.loads(first)))
        manifest.write_text("\n".join([first, bad, *rest]) + "\n")
        out_dir = tmp_path / "pre"
        code = main(["pretrain", "--corpus", str(corpus_file), "--manifest", str(manifest),
                     "--out", str(out_dir), *MODEL_FLAGS])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err and named in err
        assert not (out_dir / "checkpoint.melt").exists()

    @pytest.mark.parametrize("prep_len,edit,line", [
        (40, lambda rows: [rows[0], rows[0][:-5] + [None] * 10, *rows[1:]], 2),
        (40, lambda rows: [rows[0], rows[0][:-5], *rows[1:]], 2),
        (45, lambda rows: rows, 1),
    ], ids=["longer-than-seq-len", "shorter-than-first-row", "every-row-too-long"])
    def test_manifest_slot_count_mismatch_is_input_error(self, tmp_path, corpus_file,
                                                         capsys, prep_len, edit, line):
        prep_dir = tmp_path / "prep"
        assert main(["prep", "--corpus", str(corpus_file), "--out", str(prep_dir),
                     "--seq-len", str(prep_len)]) == 0
        manifest = prep_dir / "manifest.jsonl"
        rows = [json.loads(text) for text in manifest.read_text().splitlines()]
        slots = edit([row["slots"] for row in rows])
        manifest.write_text("".join(json.dumps({"user_id": rows[0]["user_id"], "slots": s})
                                    + "\n" for s in slots))
        out_dir = tmp_path / "pre"
        code = main(["pretrain", "--corpus", str(corpus_file), "--manifest", str(manifest),
                     "--out", str(out_dir), *MODEL_FLAGS, "--seq-len", "40"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"line {line}:" in err and "slots" in err
        assert not (out_dir / "checkpoint.melt").exists()

    def test_manifest_shorter_than_seq_len_trains(self, tmp_path, corpus_file):
        prep_dir = tmp_path / "prep"
        assert main(["prep", "--corpus", str(corpus_file), "--out", str(prep_dir),
                     "--seq-len", "30"]) == 0
        out_dir = tmp_path / "pre"
        assert main(["pretrain", "--corpus", str(corpus_file),
                     "--manifest", str(prep_dir / "manifest.jsonl"), "--out", str(out_dir),
                     *MODEL_FLAGS, "--seq-len", "40", "--epochs", "1",
                     "--batch-size", "10"]) == 0
        model, _ = load_checkpoint(out_dir / "checkpoint.melt")
        assert model.config.max_seq == 40

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


def write_corpus_vectors(tmp_path, corpus_file, name="vecs.tsv", seed=3, drop=0):
    """A 16-d vector file of the corpus' messages but the first ``drop``; its sha256."""
    from melt.corpus import ingest_jsonl
    messages = [m for msgs in ingest_jsonl(corpus_file).values() for m in msgs]
    vectors = compute_message_vectors(messages[drop:], HashEmbeddingEncoder(16, 256, seed))
    path = tmp_path / name
    write_vector_file(path, 16, vectors.items())
    return path, hashlib.sha256(path.read_bytes()).hexdigest()


def opens_of(path, monkeypatch):
    """A list that gains one entry each time ``path`` is opened from now on."""
    import builtins
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == os.fspath(path):
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return opened


class TestPretrainSetup:
    """The word side pools on one worker thread while the main thread draws the weights."""

    def test_pooling_and_model_build_run_on_different_threads(self, tmp_path, corpus_file,
                                                              monkeypatch):
        import threading

        import melt.cli as cli
        seen = {}
        pool, init = cli.compute_message_vectors, MeltModel.__init__

        def recorded_pool(*args, **kwargs):
            seen["pool"] = threading.get_ident()
            return pool(*args, **kwargs)

        def recorded_init(self, *args, **kwargs):
            seen["init"] = threading.get_ident()
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli, "compute_message_vectors", recorded_pool)
        monkeypatch.setattr(MeltModel, "__init__", recorded_init)
        run_pretrain(tmp_path, corpus_file)
        assert seen["init"] == threading.get_ident()
        assert seen["pool"] != seen["init"]

    def test_every_op_output_is_made_on_the_main_thread(self, tmp_path, corpus_file,
                                                         monkeypatch):
        # the condition under which tensor's one process-wide grad flag is safe
        import threading

        import melt.tensor as tensor
        made_on, from_op = set(), tensor._from_op

        def recorded_from_op(*args, **kwargs):
            made_on.add(threading.get_ident())
            return from_op(*args, **kwargs)

        monkeypatch.setattr(tensor, "_from_op", recorded_from_op)
        run_pretrain(tmp_path, corpus_file)
        assert made_on == {threading.get_ident()}

    def test_no_worker_outlives_a_run(self, tmp_path, corpus_file, capsys):
        import threading
        before = set(threading.enumerate())
        run_pretrain(tmp_path, corpus_file)
        assert set(threading.enumerate()) == before
        # the worker raises: the vector file lacks the first message
        vec_path, _ = write_corpus_vectors(tmp_path, corpus_file, drop=1)
        prep_dir = run_prep(tmp_path, corpus_file, out="prep_missing")
        code = main(["pretrain", "--corpus", str(corpus_file),
                     "--manifest", str(prep_dir / "manifest.jsonl"),
                     "--out", str(tmp_path / "missing"), *MODEL_FLAGS,
                     "--word-encoder", f"precomputed:{vec_path}"])
        assert code == 2
        assert "no precomputed vector" in capsys.readouterr().err
        assert set(threading.enumerate()) == before

    def test_vector_file_read_once(self, tmp_path, corpus_file, monkeypatch):
        vec_path, digest = write_corpus_vectors(tmp_path, corpus_file)
        opened = opens_of(vec_path, monkeypatch)
        out_dir = run_pretrain(tmp_path, corpus_file,
                               extra=["--word-encoder", f"precomputed:{vec_path}"])
        assert len(opened) == 1
        _, header = load_checkpoint(out_dir / "checkpoint.melt")
        assert header["word_encoder"]["sha256"] == digest

    def test_vector_file_rewritten_during_training_records_the_file_read(
            self, tmp_path, corpus_file, monkeypatch):
        import melt.pretrain as pretrain_mod
        vec_path, digest = write_corpus_vectors(tmp_path, corpus_file)
        other, _ = write_corpus_vectors(tmp_path, corpus_file, name="other.tsv", seed=4)
        train = pretrain_mod.train

        def train_then_rewrite(*args, **kwargs):
            vec_path.write_bytes(other.read_bytes())
            return train(*args, **kwargs)

        monkeypatch.setattr(pretrain_mod, "train", train_then_rewrite)
        out_dir = run_pretrain(tmp_path, corpus_file,
                               extra=["--word-encoder", f"precomputed:{vec_path}"])
        assert hashlib.sha256(vec_path.read_bytes()).hexdigest() != digest
        _, header = load_checkpoint(out_dir / "checkpoint.melt")
        assert header["word_encoder"]["sha256"] == digest


@pytest.fixture
def stance_file(tmp_path):
    path = tmp_path / "stance.jsonl"
    write_stance_jsonl(path, stance_corpus(120, n_history=6, seed=21,
                                           split_fracs=(0.6, 0.2)))
    return path


def finetune_args(stance_file, out_dir, *extra):
    arch = extra[extra.index("--arch") + 1] if "--arch" in extra else "melt"
    if arch == "mfc":  # it reads no model, word, head or training option
        flags = []
    else:
        flags = [*(MODEL_FLAGS if arch == "melt" else WORD_FLAGS),
                 "--head-hidden1", "16", "--head-hidden2", "8",
                 "--lr", "3e-3", "--epochs", "4", "--patience", "2"]
    return ["finetune", "--stance", str(stance_file), "--out", str(out_dir), *flags, *extra]


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

    def test_config_records_the_checkpoint_model(self, tmp_path, corpus_file, stance_file):
        # config.json holds the checkpoint's model, and a rerun from it passes the model check
        pre = run_pretrain(tmp_path, corpus_file)
        out_dir = tmp_path / "ft_cfg"
        assert main(["finetune", "--stance", str(stance_file), "--out", str(out_dir),
                     "--checkpoint", str(pre / "checkpoint.melt"), "--word-buckets", "256",
                     "--word-seed", "3",
                     "--head-hidden1", "16", "--head-hidden2", "8", "--epochs", "1"]) == 0
        echoed = json.loads((out_dir / "config.json").read_text())
        extents = {key: echoed[key] for key in ("d_model", "layers", "ff_dim", "heads",
                                                "seq_len")}
        assert extents == {"d_model": 16, "layers": 1, "ff_dim": 32, "heads": 2,
                           "seq_len": 40}
        rerun_path = tmp_path / "rerun.json"
        rerun_path.write_text(json.dumps({**echoed, "out": str(tmp_path / "rerun")}))
        assert main(["finetune", "--config", str(rerun_path)]) == 0
        assert (tmp_path / "rerun" / "predictions.csv").read_bytes() == \
            (out_dir / "predictions.csv").read_bytes()

    @pytest.mark.parametrize("source", ["flag", "env", "file"])
    @pytest.mark.parametrize("key,value", [
        ("layers", 3), ("layers", 2), ("d_model", 32), ("ff_dim", 64), ("heads", 4),
        ("seq_len", 30), ("dropout", 0.2), ("positions", False),
    ], ids=["layers", "layers-default", "d-model", "ff-dim", "heads", "seq-len", "dropout",
            "positions"])
    def test_model_option_that_differs_from_the_checkpoint_rejected(
            self, tmp_path, stance_file, capsys, monkeypatch, source, key, value):
        # the checkpoint: 1 layer, d 16, ff 32, 2 heads, 40 slots, dropout 0.1, positions
        model = MeltModel(MeltConfig(n_layers=1, d_model=16, ff_dim=32, n_heads=2), seed=0)
        ckpt = tmp_path / "m.melt"
        save_checkpoint(ckpt, model, dev_mse=0.0, epoch=1, seed=0)
        out_dir = tmp_path / "ft"
        args = ["finetune", "--stance", str(stance_file), "--out", str(out_dir),
                "--checkpoint", str(ckpt)]
        option = "--" + key.replace("_", "-")
        if source == "flag":
            args += ["--no-positions"] if key == "positions" else [option, str(value)]
        elif source == "env":
            monkeypatch.setenv("MELT_" + key.upper(), "0" if value is False else str(value))
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({key: value}))
            args += ["--config", str(cfg_path)]
        assert main(args) == 2
        assert option in capsys.readouterr().err
        assert not (out_dir / "predictions.csv").exists()

    def test_word_encoder_mismatch_with_checkpoint_rejected(self, tmp_path, corpus_file,
                                                            stance_file, capsys):
        pre = run_pretrain(tmp_path, corpus_file)  # MODEL_FLAGS pre-train with --word-seed 3
        out_dir = tmp_path / "ft_seed4"
        code = main(finetune_args(stance_file, out_dir, "--word-seed", "4",
                                  "--checkpoint", str(pre / "checkpoint.melt")))
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (out_dir / "predictions.csv").exists()

    def test_vector_file_unlike_the_checkpoints_rejected(self, tmp_path, corpus_file,
                                                         stance_file, capsys):
        from melt.corpus import all_messages, ingest_jsonl, ingest_stance_jsonl
        from melt.pretrain import load_params, save_params
        messages = [m for msgs in ingest_jsonl(corpus_file).values() for m in msgs]
        messages += all_messages(ingest_stance_jsonl(stance_file))
        digests = []
        for name, seed in (("a.tsv", 3), ("b.tsv", 4)):  # same ids and width
            vectors = compute_message_vectors(messages, HashEmbeddingEncoder(16, 256, seed))
            write_vector_file(tmp_path / name, 16, vectors.items())
            digests.append(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
        pre = run_pretrain(tmp_path, corpus_file,
                           extra=["--word-encoder", f"precomputed:{tmp_path / 'a.tsv'}"])
        ckpt = pre / "checkpoint.melt"
        assert main(finetune_args(stance_file, tmp_path / "ft_a", "--checkpoint", str(ckpt),
                                  "--word-encoder", f"precomputed:{tmp_path / 'a.tsv'}")) == 0
        capsys.readouterr()
        out_dir = tmp_path / "ft_b"
        code = main(finetune_args(stance_file, out_dir, "--checkpoint", str(ckpt),
                                  "--word-encoder", f"precomputed:{tmp_path / 'b.tsv'}"))
        assert code == 2
        err = capsys.readouterr().err
        assert digests[0] in err and digests[1] in err
        assert not (out_dir / "predictions.csv").exists()
        # a checkpoint that names its vector file by path alone matches no file
        header, params = load_params(ckpt)
        header.pop("manifest")
        header["word_encoder"] = {"kind": "precomputed", "dim": 16,
                                  "path": str(tmp_path / "a.tsv")}
        save_params(ckpt, header, list(params.items()))
        out_dir = tmp_path / "ft_path"
        code = main(finetune_args(stance_file, out_dir, "--checkpoint", str(ckpt),
                                  "--word-encoder", f"precomputed:{tmp_path / 'a.tsv'}"))
        assert code == 2
        assert digests[0] in capsys.readouterr().err
        assert not (out_dir / "predictions.csv").exists()

    @pytest.mark.parametrize("start", ["--checkpoint", "--rand-init"])
    def test_unknown_word_encoder_is_input_error(self, tmp_path, stance_file, capsys, start):
        ckpt = tmp_path / "c.melt"
        save_checkpoint(ckpt, MeltModel(MeltConfig(n_layers=1, d_model=16, ff_dim=32,
                                                   n_heads=2), seed=0),
                        dev_mse=0.0, epoch=1, seed=0,
                        extra={"word_encoder": {"kind": "hash", "dim": 16}})
        out_dir = tmp_path / "ft"
        start_args = [start, str(ckpt)] if start == "--checkpoint" else [start]
        assert main(finetune_args(stance_file, out_dir, *start_args,
                                  "--word-encoder", "bogus")) == 2
        assert "--word-encoder" in capsys.readouterr().err
        assert not out_dir.exists()

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
        # a file of the hash table's own vectors predicts as the frozen table
        from melt.corpus import all_messages, ingest_stance_jsonl
        enc = HashEmbeddingEncoder(dim=16, buckets=256, seed=3)
        vectors = compute_message_vectors(all_messages(ingest_stance_jsonl(stance_file)), enc)
        vec_path = tmp_path / "vecs.tsv"
        write_vector_file(vec_path, 16, vectors.items())
        assert main(finetune_args(stance_file, tmp_path / "hash", "--rand-init")) == 0
        assert main(finetune_args(stance_file, tmp_path / "file", "--rand-init",
                                  "--word-encoder", f"precomputed:{vec_path}")) == 0
        assert (tmp_path / "file" / "predictions.csv").read_bytes() == \
            (tmp_path / "hash" / "predictions.csv").read_bytes()
        out_dir = tmp_path / "adapter"
        assert main(finetune_args(stance_file, out_dir, "--rand-init", "--unfreeze-word",
                                  "--word-encoder", f"precomputed:{vec_path}")) == 0
        assert (out_dir / "predictions.csv").exists()
        assert (out_dir / "snapshot_climate.melt").exists()

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

    @pytest.mark.parametrize("start", ["--checkpoint", "--rand-init"])
    def test_vector_file_read_once(self, tmp_path, corpus_file, stance_file, monkeypatch,
                                   start):
        from melt.corpus import all_messages, ingest_jsonl, ingest_stance_jsonl
        messages = [m for msgs in ingest_jsonl(corpus_file).values() for m in msgs]
        messages += all_messages(ingest_stance_jsonl(stance_file))
        vec_path = tmp_path / "vecs.tsv"
        write_vector_file(vec_path, 16, compute_message_vectors(
            messages, HashEmbeddingEncoder(16, 256, 3)).items())
        word = ["--word-encoder", f"precomputed:{vec_path}"]
        start_args = [start]
        if start == "--checkpoint":
            pre = run_pretrain(tmp_path, corpus_file, extra=word)
            start_args.append(str(pre / "checkpoint.melt"))
        opened = opens_of(vec_path, monkeypatch)
        out_dir = tmp_path / "ft"
        assert main(finetune_args(stance_file, out_dir, *start_args, *word)) == 0
        assert len(opened) == 1
        _, header = load_checkpoint(out_dir / "snapshot_climate.melt")
        assert header["word_encoder"]["sha256"] == \
            hashlib.sha256(vec_path.read_bytes()).hexdigest()

    def test_vector_file_unlike_the_checkpoints_rejected_before_the_stance_file(
            self, tmp_path, corpus_file, stance_file, monkeypatch, capsys):
        import melt.cli as cli
        vec_path, digest = write_corpus_vectors(tmp_path, corpus_file)
        other, other_digest = write_corpus_vectors(tmp_path, corpus_file, name="b.tsv",
                                                   seed=4)
        pre = run_pretrain(tmp_path, corpus_file,
                           extra=["--word-encoder", f"precomputed:{vec_path}"])

        def refuse(*args):
            raise AssertionError("stance file read before the vector file was checked")

        monkeypatch.setattr(cli, "ingest_stance_jsonl", refuse)
        code = main(finetune_args(stance_file, tmp_path / "ft", "--checkpoint",
                                  str(pre / "checkpoint.melt"),
                                  "--word-encoder", f"precomputed:{other}"))
        assert code == 2
        err = capsys.readouterr().err
        assert digest in err and other_digest in err

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

    @pytest.mark.parametrize("env,flag,piece", [
        ("abc", None, "abc"), (None, "0", "0"), (None, "3,x", "x"), (None, "3,-2", "-2"),
        (None, "4,9", "9"),
    ])
    def test_bad_history_len_names_the_option_and_the_piece(self, tmp_path, stance_file,
                                                            monkeypatch, capsys,
                                                            env, flag, piece):
        model = MeltModel(MeltConfig(n_layers=1, d_model=16, ff_dim=32, n_heads=2,
                                     max_seq=8), seed=0)
        ckpt = tmp_path / "seq8.melt"
        save_checkpoint(ckpt, model, dev_mse=0.0, epoch=1, seed=0)
        if env is not None:
            monkeypatch.setenv("MELT_HISTORY_LEN", env)
        extra = ("--history-len", flag) if flag is not None else ()
        out_dir = tmp_path / "ft"
        code = main(finetune_args(stance_file, out_dir, "--checkpoint", str(ckpt), *extra))
        err = capsys.readouterr().err
        assert code == 2
        assert "--history-len" in err and f"'{piece}'" in err
        assert not (out_dir / "predictions.csv").exists()

    @pytest.mark.parametrize("field,edit", [
        ("config", lambda header: header.pop("config")),
        ("bogus", lambda header: header["config"].update(bogus=1)),
        ("dropout", lambda header: header["config"].update(dropout=1.5)),
        ("manifest", lambda header: header["manifest"][0].pop()),
    ], ids=["no-config", "unknown-config-key", "config-value-rejected", "entry-without-shape"])
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

    def test_mfc_predictions_come_in_sorted_target_order(self, tmp_path):
        stance_path = tmp_path / "multi.jsonl"
        write_stance_jsonl(stance_path, stance_corpus(
            90, n_history=2, seed=33, split_fracs=(0.6, 0.2),
            targets=("abortion", "climate", "feminism")))
        out_dir = tmp_path / "mfc"
        assert main(["finetune", "--stance", str(stance_path), "--out", str(out_dir),
                     "--arch", "mfc", "--targets", "feminism,climate"]) == 0
        with open(out_dir / "predictions.csv") as fh:
            targets = [row["target"] for row in csv.DictReader(fh)]
        assert targets == sorted(targets)
        assert set(targets) == {"climate", "feminism"}

    @pytest.mark.parametrize("arch", ["melt", "mfc"])
    @pytest.mark.parametrize("targets,named", [
        (",", "no target"), (" , ", "no target"), ("climate,climate", "climate"),
        ("climate,abortion,climate", "climate more than once"),
    ], ids=["comma", "blank", "twice", "twice-apart"])
    def test_targets_naming_none_or_one_twice_is_input_error(self, tmp_path, stance_file,
                                                             capsys, arch, targets, named):
        # an empty list would write a header-only file, and a repeat each prediction twice
        out_dir = tmp_path / "ft"
        extra = ("--rand-init",) if arch == "melt" else ()
        code = main(finetune_args(stance_file, out_dir, "--arch", arch, *extra,
                                  "--targets", targets))
        err = capsys.readouterr().err
        assert code == 2
        assert "--targets" in err and named in err
        assert not (out_dir / "predictions.csv").exists()

    @pytest.mark.parametrize("n,fracs,arch,split", [
        (40, (0.7, 0.3), "mfc", "test"), (40, (0.7, 0.3), "word", "test"),
        (4, (1.0, 0.0), "melt", "dev"),
    ], ids=["mfc-no-test", "word-no-test", "melt-too-few-to-carve-dev"])
    def test_target_lacking_a_split_its_arch_reads_is_input_error(
            self, tmp_path, capsys, n, fracs, arch, split):
        stance_path = tmp_path / "thin.jsonl"
        write_stance_jsonl(stance_path, stance_corpus(n, n_history=2, seed=5,
                                                      split_fracs=fracs))
        out_dir = tmp_path / "ft"
        extra = ("--rand-init",) if arch == "melt" else ()
        code = main(finetune_args(stance_path, out_dir, "--arch", arch, *extra))
        assert code == 2
        assert f"target 'climate' has no {split} rows" in capsys.readouterr().err
        assert not (out_dir / "predictions.csv").exists()

    def test_word_baseline_arch(self, tmp_path, stance_file):
        out_dir = tmp_path / "wb"
        assert main(finetune_args(stance_file, out_dir, "--arch", "word")) == 0
        assert (out_dir / "predictions.csv").exists()

    @pytest.mark.parametrize("arch", ["melt", "word", "word-hist"])
    @pytest.mark.parametrize("option", ["--head-hidden1", "--head-hidden2"])
    def test_head_width_below_one_is_input_error(self, tmp_path, stance_file, capsys,
                                                 arch, option):
        out_dir = tmp_path / "ft"
        extra = ("--rand-init",) if arch == "melt" else ()
        code = main(finetune_args(stance_file, out_dir, "--arch", arch, *extra, option, "0"))
        assert code == 2
        assert option in capsys.readouterr().err
        assert not (out_dir / "predictions.csv").exists()

    @pytest.mark.parametrize("arch", ["word", "word-hist", "mfc"])
    def test_history_len_rejected_for_non_melt_arch(self, tmp_path, stance_file, capsys,
                                                   arch):
        out_dir = tmp_path / arch
        code = main(finetune_args(stance_file, out_dir, "--arch", arch,
                                  "--history-len", "2"))
        err = capsys.readouterr().err
        assert code == 2
        assert "--history-len" in err and f"'{arch}'" in err
        assert not (out_dir / "predictions.csv").exists()


    @pytest.mark.parametrize("extra,arch", [
        *((extra, arch) for extra in (
            ("--checkpoint", "/nonexistent.melt"), ("--rand-init",), ("--unfreeze-word",),
            ("--pooled",), ("--layers", "3"), ("--ff-dim", "64"), ("--heads", "4"),
            ("--dropout", "0.2"), ("--seq-len", "20"), ("--no-positions",))
          for arch in ("word", "word-hist", "mfc")),
        # the word baselines read the word source, the seed, the head and the
        # training options; mfc reads none of them
        *((extra, "mfc") for extra in (
            ("--seed", "3"), ("--d-model", "16"), ("--word-encoder", "precomputed:v.tsv"),
            ("--word-buckets", "256"), ("--word-seed", "3"), ("--lr", "3e-3"),
            ("--weight-decay", "0.1"), ("--head-dropout", "0.01"), ("--batch-size", "3"),
            ("--epochs", "4"), ("--patience", "2"), ("--head-hidden1", "16"),
            ("--head-hidden2", "8"))),
    ], ids=lambda v: v[0].lstrip("-") if isinstance(v, tuple) else v)
    def test_options_a_baseline_ignores_rejected(self, tmp_path, stance_file, capsys,
                                                 arch, extra):
        out_dir = tmp_path / arch
        code = main(finetune_args(stance_file, out_dir, "--arch", arch, *extra))
        err = capsys.readouterr().err
        assert code == 2
        assert extra[0] in err and f"'{arch}'" in err
        assert not (out_dir / "predictions.csv").exists()

    def test_baseline_takes_those_options_at_their_defaults(self, tmp_path, stance_file):
        out_dir = tmp_path / "mfc"
        assert main(["finetune", "--stance", str(stance_file), "--out", str(out_dir),
                     "--arch", "mfc", "--no-rand-init", "--no-unfreeze-word",
                     "--no-pooled"]) == 0
        assert (out_dir / "predictions.csv").exists()


class TestHashRows:
    """A run draws the word table's rows on demand: each bucket its messages reach, once."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        import melt.wordenc as wordenc
        buckets, draw_row = [], wordenc.draw_row

        def counting(seed, bucket, dim):
            buckets.append(bucket)
            return draw_row(seed, bucket, dim)

        monkeypatch.setattr(wordenc, "draw_row", counting)
        return buckets

    @staticmethod
    def reached(messages):
        return sorted({fnv1a_64(token) % 65536 for m in messages
                       for token in tokenize(m.text)})

    def test_pretrain(self, tmp_path, corpus_file, drawn):
        from melt.corpus import ingest_jsonl
        run_pretrain(tmp_path, corpus_file, extra=["--word-buckets", "65536"])
        messages = [m for msgs in ingest_jsonl(corpus_file).values() for m in msgs]
        assert sorted(drawn) == self.reached(messages)

    @pytest.mark.parametrize("extra", [(), ("--unfreeze-word",)], ids=["frozen", "unfrozen"])
    def test_finetune(self, tmp_path, stance_file, drawn, extra):
        from melt.corpus import all_messages, ingest_stance_jsonl
        assert main(finetune_args(stance_file, tmp_path / "ft", "--rand-init",
                                  "--word-buckets", "65536", *extra)) == 0
        assert sorted(drawn) == self.reached(all_messages(ingest_stance_jsonl(stance_file)))

    def test_unfrozen_runs_over_two_targets_draw_each_row_once(self, tmp_path, drawn,
                                                               monkeypatch):
        # every row is drawn in set-up, before the first run's table is built
        import melt.wordenc as wordenc
        from melt.corpus import all_messages
        examples = stance_corpus(120, n_history=6, seed=33, split_fracs=(0.6, 0.2),
                                 targets=("abortion", "climate"))
        stance_path = tmp_path / "two.jsonl"
        write_stance_jsonl(stance_path, examples)
        at_start, init = [], wordenc.TrainableHashWordLevel.__init__

        def counted(self, *args, **kwargs):
            at_start.append(len(drawn))
            init(self, *args, **kwargs)

        monkeypatch.setattr(wordenc.TrainableHashWordLevel, "__init__", counted)
        out_dir = tmp_path / "ft"
        assert main(finetune_args(stance_path, out_dir, "--rand-init", "--unfreeze-word",
                                  "--word-buckets", "65536")) == 0
        assert sorted(os.listdir(out_dir)) == ["config.json", "predictions.csv",
                                               "snapshot_abortion.melt",
                                               "snapshot_climate.melt"]
        assert sorted(drawn) == self.reached(all_messages(examples))
        assert at_start == [len(drawn)] * 2

    def test_frozen_vectors_are_rows_of_one_array(self, tmp_path, stance_file, monkeypatch):
        import melt.wordenc as wordenc
        held, init = [], wordenc.FrozenWordLevel.__init__

        def kept(self, dim, vectors, sha256=None):
            held.append(vectors)
            init(self, dim, vectors, sha256)

        monkeypatch.setattr(wordenc.FrozenWordLevel, "__init__", kept)
        assert main(finetune_args(stance_file, tmp_path / "ft", "--rand-init")) == 0
        (vectors,) = held
        base = next(iter(vectors.values())).base
        assert base is not None and base.shape == (len(vectors), 16)
        assert all(vec.base is base for vec in vectors.values())

    def test_checkpoint_from_the_whole_table_scheme_rejected(self, tmp_path, stance_file,
                                                            capsys):
        # the word_encoder header as written before rows were drawn per bucket
        model = MeltModel(MeltConfig(n_layers=1, d_model=16, ff_dim=32, n_heads=2), seed=0)
        ckpt = tmp_path / "old.melt"
        save_checkpoint(ckpt, model, dev_mse=0.0, epoch=1, seed=0,
                        extra={"word_encoder": {"kind": "hash", "dim": 16, "buckets": 256,
                                                "seed": 3}})
        out_dir = tmp_path / "ft_old"
        code = main(finetune_args(stance_file, out_dir, "--checkpoint", str(ckpt)))
        assert code == 2
        assert "row scheme" in capsys.readouterr().err
        assert not (out_dir / "predictions.csv").exists()


class TestJobs:
    """--jobs still parses, for old config files and scripts, but takes only 1."""

    @pytest.mark.parametrize("given,jobs", [
        ("flag", "0"), ("flag", "-1"), ("flag", "-4"), ("flag", "2"), ("flag", "4"),
        ("env", "2"), ("config", "2"),
    ], ids=["0", "-1", "-4", "2", "4", "env-2", "config-2"])
    def test_jobs_other_than_one_is_input_error(self, tmp_path, stance_file, capsys,
                                                monkeypatch, given, jobs):
        out_dir = tmp_path / "ft"
        extra = ["--rand-init"]
        if given == "flag":
            extra += ["--jobs", jobs]
        elif given == "env":
            monkeypatch.setenv("MELT_JOBS", jobs)
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"jobs": int(jobs)}))
            extra += ["--config", str(cfg_path)]
        code = main(finetune_args(stance_file, out_dir, *extra))
        assert code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (out_dir / "predictions.csv").exists()


# a model the fine-tuning flags of finetune_args accept
CKPT_CONFIG = MeltConfig(n_layers=1, d_model=16, ff_dim=32, n_heads=2)


def count_models(monkeypatch):
    """Lists that each MeltModel made from now on joins: drawn from a seed, or undrawn."""
    import inspect
    init = MeltModel.__init__
    drawn, undrawn = [], []

    def counted_init(self, *args, **kwargs):
        bound = inspect.signature(init).bind(self, *args, **kwargs)
        bound.apply_defaults()
        (undrawn if bound.arguments["seed"] is None else drawn).append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MeltModel, "__init__", counted_init)
    return drawn, undrawn


class TestPerTargetRuns:
    """Every run goes in sorted target order on one worker model, made once per command."""

    @pytest.fixture
    def three_targets(self, tmp_path):
        path = tmp_path / "three.jsonl"
        write_stance_jsonl(path, stance_corpus(
            180, n_history=6, seed=33, split_fracs=(0.6, 0.2),
            targets=("abortion", "climate", "feminism")))
        return path

    @pytest.fixture
    def checkpoint(self, tmp_path):
        path = tmp_path / "start.melt"
        save_checkpoint(path, MeltModel(CKPT_CONFIG, seed=5), dev_mse=0.0, epoch=1, seed=5)
        return path

    def test_rand_init_draws_the_encoder_once_per_command(self, tmp_path, monkeypatch,
                                                          three_targets):
        drawn, undrawn = count_models(monkeypatch)
        out_dir = tmp_path / "ft"
        assert main(finetune_args(three_targets, out_dir, "--rand-init", "--jobs", "1")) == 0
        assert (len(drawn), len(undrawn)) == (1, 0)  # the drawn model is the worker
        assert sorted(os.listdir(out_dir)) == [
            "config.json", "predictions.csv", "snapshot_abortion.melt",
            "snapshot_climate.melt", "snapshot_feminism.melt"]
        assert json.loads((out_dir / "config.json").read_text())["jobs"] == 1

    def test_checkpoint_runs_make_one_model_per_worker(self, tmp_path, monkeypatch,
                                                      three_targets):
        model = MeltModel(MeltConfig(n_layers=1, d_model=16, ff_dim=32, n_heads=2), seed=5)
        ckpt = tmp_path / "m.melt"
        save_checkpoint(ckpt, model, dev_mse=0.0, epoch=1, seed=5)
        drawn, undrawn = count_models(monkeypatch)
        out_dir = tmp_path / "ft"
        assert main(finetune_args(three_targets, out_dir, "--checkpoint", str(ckpt),
                                  "--unfreeze-word", "--jobs", "1")) == 0
        # the model the checkpoint loads into is the worker
        assert (len(drawn), len(undrawn)) == (0, 1)
        assert len(os.listdir(out_dir)) == 5  # config, predictions, a snapshot per target

    @pytest.mark.parametrize("extra,refills", [((), 2), (("--history-len", "2,4"), 5)],
                             ids=["one-length", "sweep"])
    def test_only_later_runs_refill_the_worker_model(self, tmp_path, monkeypatch,
                                                     three_targets, extra, refills):
        # the worker is the drawn model, so the first run trains as drawn
        import melt.pretrain as pretrain_mod
        loads, load = [], pretrain_mod.load_params_into

        def counting_load(model, params):
            loads.append(1)
            load(model, params)

        monkeypatch.setattr(pretrain_mod, "load_params_into", counting_load)
        assert main(finetune_args(three_targets, tmp_path / "ft", "--rand-init", *extra)) == 0
        assert len(loads) == refills

    def test_every_run_starts_from_the_checkpoints_bytes_in_set_ups_model(
            self, tmp_path, monkeypatch, three_targets, checkpoint):
        # the first run trains in the arrays set-up loaded; every later run,
        # at each history length, is read back from the file
        import melt.cli as cli
        import melt.stance as stance
        from melt.pretrain import load_params
        _, blocks = load_params(checkpoint)
        load, finetune = cli.load_checkpoint, stance.finetune
        loaded, starts = [], []

        def recording_load(source):
            model, header = load(source)
            loaded.append({name: p.data for name, p in model.named_parameters()})
            return model, header

        def recording_finetune(model, *args, **kwargs):
            starts.append([(name, p.data, p.data.tobytes())
                           for name, p in model.named_parameters()])
            return finetune(model, *args, **kwargs)

        monkeypatch.setattr(cli, "load_checkpoint", recording_load)
        monkeypatch.setattr(stance, "finetune", recording_finetune)
        assert main(finetune_args(three_targets, tmp_path / "ft", "--checkpoint",
                                  str(checkpoint), "--history-len", "2,4")) == 0
        assert len(loaded) == 1 and len(starts) == 6
        assert all(data is loaded[0][name] for name, data, _ in starts[0])
        for start in starts:
            assert [name for name, _, _ in start] == list(blocks)
            assert all(raw == blocks[name].tobytes() for name, _, raw in start)

    def test_one_copy_of_the_start_weights_lives_beside_the_snapshot(
            self, tmp_path, monkeypatch, three_targets, checkpoint):
        # numpy traces its data blocks in its own tracemalloc domain; the
        # encoder's blocks above 1 KiB have sizes no other array at a run's
        # start has, so their total counts the copies of the weights
        import tracemalloc
        import melt.stance as stance
        arrays = [p.data for _, p in load_checkpoint(checkpoint)[0].named_parameters()]
        sizes = {a.nbytes for a in arrays if a.nbytes > 1024}
        per_copy = sum(a.nbytes for a in arrays if a.nbytes in sizes)
        numpy_blocks = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        copies, finetune = [], stance.finetune

        def counting_finetune(*args, **kwargs):
            traces = tracemalloc.take_snapshot().filter_traces([numpy_blocks]).traces
            copies.append(sum(t.size for t in traces if t.size in sizes) / per_copy)
            return finetune(*args, **kwargs)

        monkeypatch.setattr(stance, "finetune", counting_finetune)
        tracemalloc.start()
        try:
            assert main(finetune_args(three_targets, tmp_path / "ft", "--checkpoint",
                                      str(checkpoint))) == 0
        finally:
            tracemalloc.stop()
        assert copies == [1, 2, 2]  # the model; then the model and the snapshot

    @pytest.mark.parametrize("changed", ["size", "mtime"])
    def test_checkpoint_rewritten_in_place_during_the_first_run_is_input_error(
            self, tmp_path, monkeypatch, capsys, three_targets, checkpoint, changed):
        import melt.stance as stance
        other = tmp_path / "other.melt"
        save_checkpoint(other, MeltModel(CKPT_CONFIG, seed=6), dev_mse=0.0, epoch=1, seed=6,
                        extra={"note": "a longer header"} if changed == "size" else None)
        finetune, before = stance.finetune, []

        def rewriting_finetune(*args, **kwargs):
            if not before:
                before.append(os.stat(checkpoint))
                with open(checkpoint, "r+b") as fh:  # the same file, not a new one
                    fh.write(other.read_bytes())
                    fh.truncate()
                if changed == "mtime":  # later by more than any clock tick
                    os.utime(checkpoint, ns=(before[0].st_atime_ns,
                                             before[0].st_mtime_ns + 10 ** 9))
            return finetune(*args, **kwargs)

        monkeypatch.setattr(stance, "finetune", rewriting_finetune)
        assert main(finetune_args(three_targets, tmp_path / "ft", "--checkpoint",
                                  str(checkpoint))) == 2
        field = "st_mtime_ns" if changed == "mtime" else "st_size"
        was, now = getattr(before[0], field), getattr(os.stat(checkpoint), field)
        assert was != now
        assert (f"checkpoint {checkpoint} changed after set-up loaded it: "
                f"{changed} was {was}, is {now}") in capsys.readouterr().err

    def test_no_finished_runs_model_lives_while_the_next_trains(self, tmp_path, monkeypatch,
                                                                three_targets):
        import weakref
        import melt.stance as stance
        made, alive_at_entry = [], []
        init, finetune = MeltModel.__init__, stance.finetune

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        def counting_finetune(*args, **kwargs):
            alive_at_entry.append(sum(1 for ref in made if ref() is not None
                                      and ref().named_parameters()))
            return finetune(*args, **kwargs)

        monkeypatch.setattr(MeltModel, "__init__", tracked_init)
        monkeypatch.setattr(stance, "finetune", counting_finetune)
        assert main(finetune_args(three_targets, tmp_path / "ft", "--rand-init")) == 0
        assert alive_at_entry == [1, 1, 1]

    def test_second_run_trains_in_the_first_runs_memory(self, tmp_path, monkeypatch,
                                                        three_targets):
        import melt.stance as stance
        runs = []
        finetune = stance.finetune

        def recording_finetune(model, head, *args, **kwargs):
            names = [name for name, _ in model.named_parameters()]
            entry = {name: p.data for name, p in model.named_parameters()}
            result = finetune(model, head, *args, **kwargs)
            held = {name: p.data for name, p in model.named_parameters()}
            runs.append((names, entry, held, dict(kwargs.get("snapshot") or {})))
            return result

        monkeypatch.setattr(stance, "finetune", recording_finetune)
        assert main(finetune_args(three_targets, tmp_path / "ft", "--rand-init")) == 0
        assert len(runs) == 3
        for first, second in zip(runs, runs[1:]):
            names, entry, held, snapshot = second
            first_arrays = {name: [first[1][name], first[2][name], first[3].get(name)]
                            for name in names}
            for name in names:
                assert any(a is not None and np.shares_memory(entry[name], a)
                           for a in first_arrays[name]), name
                assert any(a is not None and np.shares_memory(snapshot[name], a)
                           for a in first_arrays[name]), name
                assert not np.shares_memory(held[name], snapshot[name]), name

    def test_each_runs_word_level_is_freed_before_the_next_starts(self, tmp_path,
                                                                   monkeypatch):
        # with --unfreeze-word a word level holds a copy of the whole hash table
        import weakref
        import melt.wordenc as wordenc
        stance_path = tmp_path / "two.jsonl"
        write_stance_jsonl(stance_path, stance_corpus(
            120, n_history=6, seed=33, split_fracs=(0.6, 0.2),
            targets=("abortion", "climate")))
        made = []
        init = wordenc.TrainableHashWordLevel.__init__

        def tracked(self, *args, **kwargs):
            assert all(ref() is None for ref in made), "an earlier run's word level lives"
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(wordenc.TrainableHashWordLevel, "__init__", tracked)
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

    def test_unknown_label_is_input_error(self, tmp_path, stance_file, capsys):
        preds = self.perfect_predictions(tmp_path, stance_file)
        header, first, *rest = preds.read_text().splitlines()
        cells = first.split(",")
        cells[3] = "maybe"
        preds.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        code = main(["evaluate", "--predictions", str(preds), "--gold",
                     str(stance_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert cells[0] in err and "'maybe'" in err

    @pytest.mark.parametrize("column", ["example_id", "pred"])
    def test_missing_column_is_input_error(self, tmp_path, stance_file, capsys, column):
        preds = self.perfect_predictions(tmp_path, stance_file)
        with open(preds, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(preds, "w", newline="") as fh:
            kept = [name for name in rows[0] if name != column]
            writer = csv.DictWriter(fh, kept, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        code = main(["evaluate", "--predictions", str(preds), "--gold",
                     str(stance_file)])
        assert code == 2
        assert f"'{column}'" in capsys.readouterr().err

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


class TestOptionBounds:
    """An option out of its range exits 2 with a message naming the option and the value."""

    @pytest.mark.parametrize("option,value", [
        ("--batch-size", "0"), ("--lr", "-1"), ("--weight-decay", "-0.5"), ("--layers", "0"),
        ("--heads", "0"), ("--ff-dim", "0"), ("--word-buckets", "0"), ("--seed", "-1"),
    ])
    def test_pretrain(self, tmp_path, corpus_file, capsys, option, value):
        prep_dir = run_prep(tmp_path, corpus_file)
        out_dir = tmp_path / "pre"
        code = main(["pretrain", "--corpus", str(corpus_file),
                     "--manifest", str(prep_dir / "manifest.jsonl"), "--out", str(out_dir),
                     *MODEL_FLAGS, "--epochs", "1", option, value])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{option} must be" in err and f"got {value}" in err
        assert not (out_dir / "checkpoint.melt").exists()

    @pytest.mark.parametrize("option,value", [
        ("--patience", "-1"), ("--batch-size", "0"), ("--epochs", "0"),
        ("--head-dropout", "0.2"),
    ])
    def test_finetune(self, tmp_path, stance_file, capsys, option, value):
        out_dir = tmp_path / "ft"
        code = main(finetune_args(stance_file, out_dir, "--rand-init", option, value))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{option} must be" in err and f"got {value}" in err
        assert not (out_dir / "predictions.csv").exists()


FLOAT_OPTIONS = [(command, name) for command, opts in COMMAND_OPTS.items()
                 for name, typ, _default, _help in opts if typ is float]
FLAG_OPTIONS = [(command, name) for command, opts in COMMAND_OPTS.items()
                for name, typ, _default, _help in opts if typ == "flag"]


class TestOptionValues:
    """A float option that is not finite, or a flag's MELT_* value that is not a boolean
    word, exits 2 in set-up, naming the option, and leaves no output directory."""

    def argv(self, tmp_path, corpus_file, stance_file, command, out_dir, option, *extra):
        """The command's arguments, without any flag that would set ``option``."""
        if command == "pretrain":
            manifest = run_prep(tmp_path, corpus_file) / "manifest.jsonl"
            argv = ["pretrain", "--corpus", str(corpus_file), "--manifest", str(manifest),
                    "--out", str(out_dir), *MODEL_FLAGS, "--epochs", "1"]
        else:
            argv = finetune_args(stance_file, out_dir, "--rand-init")
        if option in argv:
            del argv[argv.index(option):argv.index(option) + 2]
        return argv + list(extra)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("channel", ["flag", "env", "file"])
    @pytest.mark.parametrize("command,name", FLOAT_OPTIONS,
                             ids=[f"{c}-{n}" for c, n in FLOAT_OPTIONS])
    def test_non_finite_float_option(self, tmp_path, corpus_file, stance_file, monkeypatch,
                                     capsys, command, name, channel, value):
        option = "--" + name.replace("_", "-")
        out_dir = tmp_path / "out"
        extra = [option, value] if channel == "flag" else []
        if channel == "env":
            monkeypatch.setenv("MELT_" + name.upper(), value)
        elif channel == "file":  # json writes NaN and Infinity, and json.load reads them
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({name: float(value)}))
            extra = ["--config", str(cfg_path)]
        assert main(self.argv(tmp_path, corpus_file, stance_file, command, out_dir, option,
                              *extra)) == 2
        assert f"{option} must be a finite number, got {value}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_echo_is_strict_json(self, tmp_path):
        from melt.cli import echo_config
        with pytest.raises(ValueError):
            echo_config({"grad_clip": float("nan")}, str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_flag_env_value_not_a_boolean_word(self, tmp_path, stance_file, monkeypatch,
                                               capsys):
        monkeypatch.setenv("MELT_UNFREEZE_WORD", "ture")
        out_dir = tmp_path / "out"
        assert main(finetune_args(stance_file, out_dir, "--rand-init")) == 2
        assert "cannot parse env var MELT_UNFREEZE_WORD='ture'" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("raw,want", [
        ("1", True), (" TRUE ", True), ("Yes", True), ("on", True),
        ("0", False), ("False", False), (" no", False), ("OFF", False),
        ("ture", None), ("", None), ("2", None), ("y", None),
    ])
    @pytest.mark.parametrize("command,name", FLAG_OPTIONS,
                             ids=[f"{c}-{n}" for c, n in FLAG_OPTIONS])
    def test_flag_env_words(self, monkeypatch, command, name, raw, want):
        from melt.cli import CliError, build_parser, resolve_config
        monkeypatch.setenv("MELT_" + name.upper(), raw)
        args = build_parser().parse_args([command])
        if want is None:
            with pytest.raises(CliError, match=f"cannot parse env var MELT_{name.upper()}="):
                resolve_config(command, args)
        else:
            for required in REQUIRED[command]:
                setattr(args, required, "x")
            assert resolve_config(command, args)[name] is want


def with_bad_second_line(path, copy):
    """``copy``, holding ``path``'s lines with a line that is not JSON as the second."""
    first, *rest = path.read_text().splitlines()
    copy.write_text("\n".join([first, "{not json", *rest]) + "\n")
    return copy


class TestSetUpThenWrite:
    """A command checks its options and inputs before it writes config.json, so one that
    exits 2 leaves no output directory."""

    @pytest.mark.parametrize("command,extra,message", [
        ("prep", "bad-corpus", "line 2: invalid JSON"),
        ("pretrain", ("--dropout", "1.0"), "dropout must be in [0, 1), got 1.0"),
        ("pretrain", ("--heads", "3"), "d_model (16) must be divisible by n_heads (3)"),
        ("pretrain", ("--word-encoder", "bogus"),
         "--word-encoder must be 'hash' or 'precomputed:<path>', got 'bogus'"),
        ("pretrain", "null-row", "line 2: manifest row names no message"),
        ("finetune", ("--rand-init", "--lr", "0.01"),
         "lr must be within [6e-6, 3e-3], got 0.01"),
        ("finetune", ("--rand-init", "--weight-decay", "0"),
         "weight_decay must be within [1e-4, 1], got 0.0"),
        ("finetune", ("--rand-init", "--history-len", "50"),
         "--history-len: '50' exceeds the model's max_seq 40"),
        ("finetune", ("--rand-init", "--targets", "bogus"), "unknown stance targets: bogus"),
        ("finetune", "bad-stance", "line 2: invalid JSON"),
        ("finetune", ("--arch", "word", "--lr", "0.01"),
         "lr must be within [6e-6, 3e-3], got 0.01"),
        ("evaluate", "unknown-id",
         "predictions reference ids absent from the gold file: ghost-id"),
    ], ids=["prep-bad-line", "dropout-1", "heads-3", "pretrain-word-encoder",
            "manifest-null-row", "lr", "weight-decay", "history-len", "targets",
            "stance-bad-line", "word-lr", "evaluate-unknown-id"])
    def test_input_error_leaves_no_output_directory(self, tmp_path, corpus_file, stance_file,
                                                    capsys, command, extra, message):
        out_dir = tmp_path / "out"
        if command == "prep":
            argv = ["prep", "--corpus", str(with_bad_second_line(corpus_file,
                                                                 tmp_path / "bad.jsonl")),
                    "--out", str(out_dir)]
        elif command == "pretrain":
            manifest = run_prep(tmp_path, corpus_file) / "manifest.jsonl"
            if extra == "null-row":
                first, second, *rest = manifest.read_text().splitlines()
                row = json.loads(second)
                null_row = json.dumps({"user_id": row["user_id"],
                                       "slots": [None] * len(row["slots"])})
                manifest.write_text("\n".join([first, null_row, *rest]) + "\n")
                extra = ()
            argv = ["pretrain", "--corpus", str(corpus_file), "--manifest", str(manifest),
                    "--out", str(out_dir), *MODEL_FLAGS, "--epochs", "1", *extra]
        elif command == "finetune" and extra == "bad-stance":
            argv = finetune_args(with_bad_second_line(stance_file, tmp_path / "bad.jsonl"),
                                 out_dir, "--rand-init")
        elif command == "finetune":
            argv = finetune_args(stance_file, out_dir, *extra)
        else:
            preds = tmp_path / "preds.csv"
            preds.write_text("example_id,target,gold,pred,p_against,p_none,p_favor\n"
                             "ghost-id,climate,favor,favor,0.0,0.0,1.0\n")
            argv = ["evaluate", "--predictions", str(preds), "--gold", str(stance_file),
                    "--out", str(out_dir)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed,code", [("1", 2), ("2", 2), ("3", 0)])
    def test_dev_plans_that_select_no_slot_leave_no_output_directory(self, tmp_path, capsys,
                                                                     seed, code):
        # 4 users of 2 messages give 2 dev chunks of 2 real slots each under
        # --dev-fraction 0.5, and the dev plans of seeds 1 and 2 select none of them
        corpus = tmp_path / "tiny.jsonl"
        write_corpus_jsonl(corpus, marker_corpus(n_users=4, n_msgs=2, seed=4))
        prep_dir = tmp_path / "prep"
        assert main(["prep", "--corpus", str(corpus), "--out", str(prep_dir),
                     "--seq-len", "8"]) == 0
        out_dir = tmp_path / "pre"
        assert main(["pretrain", "--corpus", str(corpus),
                     "--manifest", str(prep_dir / "manifest.jsonl"), "--out", str(out_dir),
                     *MODEL_FLAGS, "--seq-len", "8", "--dev-fraction", "0.5",
                     "--epochs", "1", "--seed", seed]) == code
        if code:
            assert "the dev mask plans select no slot of the 2 dev chunks" in \
                capsys.readouterr().err
        assert out_dir.exists() == (code == 0)


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


def test_no_command_imports_scipy(tmp_path, corpus_file, stance_file):
    prep_dir, pre_dir = tmp_path / "prep", tmp_path / "pre"
    melt_dir, mfc_dir, eval_dir = tmp_path / "melt", tmp_path / "mfc", tmp_path / "eval"
    commands = [
        ["prep", "--corpus", str(corpus_file), "--out", str(prep_dir)],
        ["pretrain", "--corpus", str(corpus_file), "--manifest", str(prep_dir / "manifest.jsonl"),
         "--out", str(pre_dir), *MODEL_FLAGS, "--epochs", "1", "--batch-size", "10"],
        finetune_args(stance_file, melt_dir, "--checkpoint", str(pre_dir / "checkpoint.melt"),
                      "--epochs", "1"),
        ["finetune", "--stance", str(stance_file), "--out", str(mfc_dir), "--arch", "mfc"],
        ["evaluate", "--predictions", str(melt_dir / "predictions.csv"),
         "--gold", str(stance_file), "--out", str(eval_dir)],
    ]
    script = f"""
import sys
import melt.cli
loaded = []
for argv in {commands!r}:
    assert melt.cli.main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
from melt.model import MeltConfig, MeltModel
MeltModel(MeltConfig(n_layers=1, d_model=8, ff_dim=16, n_heads=2))
loaded.append("scipy" in sys.modules)
print(loaded)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(melt.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([False] * 6)
