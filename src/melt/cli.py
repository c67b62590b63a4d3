"""Command-line pipeline: prep, pretrain, finetune, evaluate.

Configuration precedence is flag > MELT_* environment variable > config
file (JSON) > built-in default. Every command echoes its fully-resolved
configuration to stdout and to <out>/config.json, and rerunning with that
file reproduces the outputs byte for byte.

Exit codes: 0 success, 2 bad input or configuration, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import pretrain as pretrain_mod
from . import stance as stance_mod
from . import wordenc
from .corpus import (CorpusFormatError, RawMessage, SequenceChunk, StanceExample,
                     build_chunks, ingest_jsonl, ingest_stance_jsonl)
from .model import MeltConfig, MeltModel
from .pretrain import (CheckpointError, PretrainConfig, TrainingDivergedError,
                       load_checkpoint, save_checkpoint)
from .stance import FinetuneConfig, StanceHead
from .wordenc import (HashEmbeddingEncoder, VectorFileError, compute_message_vectors,
                      load_precomputed)

ENV_PREFIX = "MELT_"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# option tables and resolution
# ---------------------------------------------------------------------------

# (name, type, default, help); type "flag" is a boolean three-state
COMMON = [
    ("out", str, None, "output directory"),
    ("seed", int, 1337, "base random seed"),
]

PREP_OPTS = COMMON + [
    ("corpus", str, None, "corpus JSONL file"),
    ("seq_len", int, 40, "messages per sequence window"),
]

MODEL_OPTS = [
    ("layers", int, 2, "number of message-transformer layers"),
    ("d_model", int, 768, "message vector / model width"),
    ("ff_dim", int, 2048, "feed-forward inner width"),
    ("heads", int, 8, "attention heads"),
    ("dropout", float, 0.1, "dropout rate"),
    ("seq_len", int, 40, "messages per sequence window"),
    ("positions", "flag", True, "learned message-position embeddings"),
]

WORD_OPTS = [
    ("word_encoder", str, "hash", "'hash' or 'precomputed:<path>'"),
    ("word_buckets", int, 65536, "hash-embedding bucket count"),
    ("word_seed", int, 1337, "hash-embedding table seed"),
]

PRETRAIN_OPTS = COMMON + MODEL_OPTS + WORD_OPTS + [
    ("corpus", str, None, "corpus JSONL file"),
    ("manifest", str, None, "chunk manifest from prep"),
    ("lr", float, 4e-3, "base learning rate"),
    ("weight_decay", float, 0.1, "decoupled weight decay"),
    ("warmup_steps", int, 2000, "linear warm-up steps"),
    ("epochs", int, 5, "training epochs"),
    ("batch_size", int, 100, "sequences per optimizer step"),
    ("dev_fraction", float, 0.1, "fraction of chunks held out for dev"),
    ("grad_clip", float, None, "global gradient-norm clip (off by default)"),
]

FINETUNE_OPTS = COMMON + MODEL_OPTS + WORD_OPTS + [
    ("checkpoint", str, None, "pre-trained checkpoint to start from"),
    ("rand_init", "flag", False, "skip the checkpoint and start from random weights"),
    ("stance", str, None, "stance JSONL file"),
    ("arch", str, "melt", "melt | word | word-hist | mfc"),
    ("unfreeze_word", "flag", False, "also train the word level"),
    ("lr", float, 1e-3, "learning rate"),
    ("weight_decay", float, 0.01, "decoupled weight decay"),
    ("head_dropout", float, 0.0, "dropout on the encoder output vector"),
    ("batch_size", int, 10, "examples per optimizer step"),
    ("epochs", int, 30, "max fine-tuning epochs"),
    ("patience", int, 5, "early-stopping patience (dev-loss epochs)"),
    ("history_len", str, None, "max sequence length incl. target; comma list sweeps"),
    ("targets", str, "all", "comma-separated stance targets or 'all'"),
    ("pooled", "flag", False, "train one model over all targets instead of per-target"),
    ("head_hidden1", int, 768, "classifier first hidden width"),
    ("head_hidden2", int, 384, "classifier second hidden width"),
    ("jobs", int, 1, "parallel per-target runs"),
]

EVALUATE_OPTS = [
    ("out", str, None, "optional output directory for report files"),
    ("predictions", str, None, "predictions CSV"),
    ("gold", str, None, "gold stance JSONL"),
    ("pooled", "flag", False, "aggregate by pooling examples instead of target mean"),
]

COMMAND_OPTS = {
    "prep": PREP_OPTS,
    "pretrain": PRETRAIN_OPTS,
    "finetune": FINETUNE_OPTS,
    "evaluate": EVALUATE_OPTS,
}

REQUIRED = {
    "prep": ("corpus", "out"),
    "pretrain": ("corpus", "manifest", "out"),
    "finetune": ("stance", "out"),
    "evaluate": ("predictions", "gold"),
}


def _add_options(parser: argparse.ArgumentParser, opts) -> None:
    seen = set()
    for name, typ, _default, help_text in opts:
        if name in seen:
            continue
        seen.add(name)
        flag = "--" + name.replace("_", "-")
        if typ == "flag":
            group = parser.add_mutually_exclusive_group()
            group.add_argument(flag, dest=name, action="store_const", const=True,
                               default=None, help=help_text)
            group.add_argument("--no-" + name.replace("_", "-"), dest=name,
                               action="store_const", const=False,
                               help="disable: " + help_text)
        else:
            parser.add_argument(flag, dest=name, type=typ, default=None, help=help_text)


def _parse_env(raw: str, typ):
    if typ == "flag":
        return raw.strip().lower() in ("1", "true", "yes", "on")
    return typ(raw)


# the JSON types a config file may give each option type; bool is not an int here
_FILE_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               "flag": ((bool,), "true or false"), str: ((str,), "a string")}


def _check_file_value(key: str, value, typ, default) -> None:
    """Reject a config-file value the option's type cannot hold.

    ``null`` is allowed only where the default is None, and ``history_len``
    also takes a single int.
    """
    if value is None:
        if default is None:
            return
        raise CliError(f"config key '{key}' cannot be null")
    allowed, want = _FILE_TYPES[typ]
    if key == "history_len":
        allowed, want = (str, int), "a string or an integer"
    if isinstance(value, bool) != (typ == "flag") or not isinstance(value, allowed):
        raise CliError(f"config key '{key}' must be {want}, got {json.dumps(value)}")


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults, config file, MELT_* env vars, and explicit flags."""
    opts = COMMAND_OPTS[command]
    known = {}
    for name, typ, default, _help in opts:
        known.setdefault(name, (typ, default))
    resolved = {name: default for name, (typ, default) in known.items()}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise CliError("config file must hold a JSON object")
        file_cfg.pop("command", None)
        for key, value in file_cfg.items():
            if key not in known:
                raise CliError(f"unknown config key '{key}' for command '{command}'")
            _check_file_value(key, value, *known[key])
            resolved[key] = value
    for name, (typ, _default) in known.items():
        env_key = ENV_PREFIX + name.upper()
        if env_key in os.environ:
            try:
                resolved[name] = _parse_env(os.environ[env_key], typ)
            except ValueError:
                raise CliError(f"cannot parse env var {env_key}={os.environ[env_key]!r}") from None
    for name in known:
        value = getattr(args, name, None)
        if value is not None:
            resolved[name] = value
    for name in REQUIRED[command]:
        if resolved.get(name) is None:
            raise CliError(f"'{command}' requires --{name.replace('_', '-')}")
    resolved["command"] = command
    return resolved


def echo_config(cfg: dict, out_dir: Optional[str]) -> None:
    text = json.dumps(cfg, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _make_word_source(cfg: dict):
    choice = cfg["word_encoder"]
    if choice == "hash":
        return HashEmbeddingEncoder(dim=cfg["d_model"], buckets=cfg["word_buckets"],
                                    seed=cfg["word_seed"])
    if choice.startswith("precomputed:"):
        store = load_precomputed(choice.split(":", 1)[1])
        if store.dim != cfg["d_model"]:
            raise CliError(f"precomputed vectors are {store.dim}-d but --d-model "
                           f"is {cfg['d_model']}")
        return store
    raise CliError(f"--word-encoder must be 'hash' or 'precomputed:<path>', got '{choice}'")


def _word_meta(cfg: dict) -> dict:
    choice = cfg["word_encoder"]
    if choice == "hash":
        return {"kind": "hash", "dim": cfg["d_model"], "buckets": cfg["word_buckets"],
                "seed": cfg["word_seed"]}
    return {"kind": "precomputed", "dim": cfg["d_model"], "path": choice.split(":", 1)[1]}


def _check_word_encoder(recorded: Optional[dict], cfg: dict) -> None:
    """Reject word settings that differ from those the checkpoint was pre-trained with.

    The width is taken from the checkpoint already, and a vector file's path
    is not compared, since the file may have moved.
    """
    if recorded is None:
        return
    wanted = _word_meta(cfg)
    for key in ("kind", "buckets", "seed"):
        if recorded.get(key) != wanted.get(key):
            raise CliError(f"checkpoint was pre-trained with word encoder {key} "
                           f"{recorded.get(key)!r}, but fine-tuning asks for "
                           f"{wanted.get(key)!r}")


def _melt_config(cfg: dict) -> MeltConfig:
    return MeltConfig(n_layers=cfg["layers"], d_model=cfg["d_model"], ff_dim=cfg["ff_dim"],
                      n_heads=cfg["heads"], dropout=cfg["dropout"], max_seq=cfg["seq_len"],
                      use_positions=cfg["positions"])


def _write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# prep
# ---------------------------------------------------------------------------


def cmd_prep(cfg: dict) -> int:
    groups = ingest_jsonl(cfg["corpus"])
    os.makedirs(cfg["out"], exist_ok=True)
    n_messages = 0
    n_chunks = 0
    n_pad = 0
    manifest_path = os.path.join(cfg["out"], "manifest.jsonl")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        for user_id, messages in groups.items():
            n_messages += len(messages)
            for chunk in build_chunks(messages, seq_len=cfg["seq_len"]):
                n_chunks += 1
                slots = [None if s is None else s.message_id for s in chunk.slots]
                n_pad += sum(1 for s in slots if s is None)
                fh.write(json.dumps({"user_id": user_id, "origin": chunk.origin,
                                     "slots": slots}) + "\n")
    stats = {"users": len(groups), "messages": n_messages, "chunks": n_chunks,
             "pad_slots": n_pad, "seq_len": cfg["seq_len"]}
    with open(os.path.join(cfg["out"], "stats.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(json.dumps(stats, sort_keys=True))
    return EXIT_OK


def load_manifest(path, messages_by_id: Dict[str, RawMessage]) -> List[SequenceChunk]:
    chunks: List[SequenceChunk] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise CorpusFormatError(f"line {lineno}: manifest row is not valid JSON") \
                    from None
            slots = []
            for mid in obj["slots"]:
                if mid is None:
                    slots.append(None)
                    continue
                if mid not in messages_by_id:
                    raise CorpusFormatError(
                        f"line {lineno}: manifest references unknown message '{mid}'")
                slots.append(messages_by_id[mid])
            chunks.append(SequenceChunk(obj["user_id"], tuple(slots),
                                        origin=obj.get("origin", 0)))
    if not chunks:
        raise CorpusFormatError("manifest contains no chunks")
    return chunks


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


def cmd_pretrain(cfg: dict) -> int:
    groups = ingest_jsonl(cfg["corpus"])
    by_id = {m.message_id: m for msgs in groups.values() for m in msgs}
    chunks = load_manifest(cfg["manifest"], by_id)
    if len(chunks) < 2:
        raise CliError("need at least 2 chunks to carve out a dev split")
    stride = max(2, round(1.0 / cfg["dev_fraction"])) if cfg["dev_fraction"] > 0 else None
    if stride is None:
        raise CliError("--dev-fraction must be positive")
    dev_chunks = [c for i, c in enumerate(chunks) if i % stride == 0]
    train_chunks = [c for i, c in enumerate(chunks) if i % stride != 0]
    if not train_chunks:
        raise CliError("dev split swallowed every chunk; lower --dev-fraction")

    source = _make_word_source(cfg)
    needed = [m for c in chunks for m in c.real_messages()]
    vectors = compute_message_vectors({m.message_id: m for m in needed}.values(), source)

    model = MeltModel(_melt_config(cfg), seed=cfg["seed"])
    pconfig = PretrainConfig(base_lr=cfg["lr"], weight_decay=cfg["weight_decay"],
                             warmup_steps=cfg["warmup_steps"], epochs=cfg["epochs"],
                             batch_size=cfg["batch_size"], seed=cfg["seed"],
                             grad_clip=cfg["grad_clip"])
    result = pretrain_mod.train(model, train_chunks, dev_chunks, vectors, pconfig)

    os.makedirs(cfg["out"], exist_ok=True)
    _write_csv(os.path.join(cfg["out"], "history.csv"), ["step", "lr", "loss"],
               ([s.step, _fmt(s.lr), _fmt(s.loss)] for s in result.steps))
    _write_csv(os.path.join(cfg["out"], "epochs.csv"), ["epoch", "dev_mse"],
               ([e.epoch, _fmt(e.dev_mse)] for e in result.epochs))
    ckpt_path = os.path.join(cfg["out"], "checkpoint.melt")
    save_checkpoint(ckpt_path, model, dev_mse=result.best_dev_mse,
                    epoch=result.best_epoch, seed=cfg["seed"],
                    params=result.best_params, extra={"word_encoder": _word_meta(cfg)})
    print(f"best epoch {result.best_epoch} dev_mse {result.best_dev_mse:.6f} "
          f"-> {ckpt_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------


def _split_examples(examples: Sequence[StanceExample]
                    ) -> Tuple[List[StanceExample], List[StanceExample], List[StanceExample]]:
    train = [e for e in examples if e.split == "train"]
    dev = [e for e in examples if e.split == "dev"]
    test = [e for e in examples if e.split == "test"]
    if not dev and len(train) >= 5:
        # No dev rows: carve a deterministic slice out of train.
        dev = train[::5]
        train = [e for i, e in enumerate(train) if i % 5 != 0]
    return train, dev, test


def _parse_history(cfg: dict) -> List[Optional[int]]:
    raw = cfg["history_len"]
    if raw is None:
        return [None]
    values = []
    for piece in str(raw).split(","):
        piece = piece.strip()
        if piece:
            values.append(int(piece))
    if not values:
        raise CliError("--history-len given but empty")
    return values


def _finetune_cfg(cfg: dict) -> FinetuneConfig:
    return FinetuneConfig(lr=cfg["lr"], weight_decay=cfg["weight_decay"],
                          dropout=cfg["head_dropout"], batch_size=cfg["batch_size"],
                          unfreeze_word=cfg["unfreeze_word"], max_epochs=cfg["epochs"],
                          patience=cfg["patience"], seed=cfg["seed"])


def _model_template(cfg: dict
                    ) -> Tuple[MeltConfig, Optional[Dict[str, np.ndarray]], Optional[dict]]:
    """Config, parameters and checkpoint header every per-target run starts from.

    With ``--rand-init`` there are no parameters (each run draws its own from
    the seed) and no header.
    """
    if cfg["rand_init"]:
        return _melt_config(cfg), None, None
    if not cfg["checkpoint"]:
        raise CliError("provide --checkpoint or pass --rand-init")
    model, header = load_checkpoint(cfg["checkpoint"])
    return model.config, {name: p.data for name, p in model.named_parameters()}, header


def _word_level_for(cfg: dict, source, messages):
    """The word level of one run, whose messages are ``messages``.

    ``source`` is the FrozenWordLevel every run shares, or the hash encoder
    or vector store an unfrozen level trains over. An unfrozen hash table
    holds only the rows ``messages`` reach.
    """
    if not cfg["unfreeze_word"]:
        return source
    if isinstance(source, HashEmbeddingEncoder):
        return wordenc.TrainableHashWordLevel(source, messages)
    return wordenc.TrainableAdapterWordLevel(source)


def _run_one_target(model_template: Tuple[MeltConfig, Optional[Dict[str, np.ndarray]]],
                    cfg: dict, source, train, dev, test,
                    history_len: Optional[int], tag: str):
    """Independent fine-tuning run; builds its own model so runs can parallelize.

    Returns only what the caller saves: (tag, model, best dev loss, best
    epoch, predictions). The head and an unfrozen word level are freed when
    the run ends.
    """
    model_cfg, params = model_template
    model = MeltModel(model_cfg, seed=cfg["seed"], params=params)
    head = StanceHead(model.config.d_model, hidden1=cfg["head_hidden1"],
                      hidden2=cfg["head_hidden2"], seed=cfg["seed"])
    word_level = _word_level_for(cfg, source, corpus_mod.all_messages([*train, *dev, *test]))
    fcfg = _finetune_cfg(cfg)
    result = stance_mod.finetune(model, head, word_level, train, dev, fcfg,
                                 history_len=history_len)
    preds = stance_mod.predict(model, head, word_level, test, history_len=history_len) \
        if test else []
    return tag, model, result.best_dev_loss, result.best_epoch, preds


def _prediction_rows(preds: Sequence[stance_mod.Prediction]):
    for p in preds:
        yield [p.example_id, p.stance_target, p.gold or "", p.label,
               _fmt(p.probs[0]), _fmt(p.probs[1]), _fmt(p.probs[2])]


PREDICTION_HEADER = ["example_id", "target", "gold", "pred",
                     "p_against", "p_none", "p_favor"]


def cmd_finetune(cfg: dict) -> int:
    examples = ingest_stance_jsonl(cfg["stance"])
    os.makedirs(cfg["out"], exist_ok=True)

    if cfg["targets"] == "all":
        targets = sorted({e.stance_target for e in examples})
    else:
        targets = [t.strip() for t in cfg["targets"].split(",") if t.strip()]
        unknown = [t for t in targets if t not in corpus_mod.STANCE_TARGETS]
        if unknown:
            raise CliError(f"unknown stance targets: {', '.join(unknown)}")

    history_lens = _parse_history(cfg)
    sweep = len(history_lens) > 1

    if cfg["arch"] == "mfc":
        train, _dev, test = _split_examples(examples)
        rows = []
        for target in targets:
            tr = [e for e in train if e.stance_target == target]
            te = [e for e in test if e.stance_target == target]
            if not tr or not te:
                raise CliError(f"target '{target}' lacks train or test rows")
            rows.extend(stance_mod.mfc_predict([e.label for e in tr], te))
        _write_csv(os.path.join(cfg["out"], "predictions.csv"), PREDICTION_HEADER,
                   _prediction_rows(rows))
        print(f"wrote {len(rows)} MFC predictions")
        return EXIT_OK

    if cfg["arch"] in ("word", "word-hist"):
        source = _make_word_source(cfg)
        vectors = compute_message_vectors(corpus_mod.all_messages(examples), source)
        train, dev, test = _split_examples(examples)
        rows = []
        fcfg = _finetune_cfg(cfg)
        for target in targets:
            tr = [e for e in train if e.stance_target == target]
            dv = [e for e in dev if e.stance_target == target]
            te = [e for e in test if e.stance_target == target]
            if not tr or not dv or not te:
                raise CliError(f"target '{target}' lacks train/dev/test rows")
            rows.extend(stance_mod.word_baseline(
                tr, dv, te, vectors, fcfg, with_history=cfg["arch"] == "word-hist",
                hidden1=cfg["head_hidden1"], hidden2=cfg["head_hidden2"]))
        _write_csv(os.path.join(cfg["out"], "predictions.csv"), PREDICTION_HEADER,
                   _prediction_rows(rows))
        print(f"wrote {len(rows)} {cfg['arch']} predictions")
        return EXIT_OK

    if cfg["arch"] != "melt":
        raise CliError(f"--arch must be melt | word | word-hist | mfc, got '{cfg['arch']}'")

    model_cfg, params, header = _model_template(cfg)
    if header is not None:
        # Checkpoint config wins over model flags; surface mismatches immediately.
        cfg["d_model"] = model_cfg.d_model
        cfg["layers"] = model_cfg.n_layers
        cfg["ff_dim"] = model_cfg.ff_dim
        cfg["heads"] = model_cfg.n_heads
        cfg["seq_len"] = model_cfg.max_seq
        _check_word_encoder(header.get("word_encoder"), cfg)
    source = _make_word_source(cfg)
    if not (cfg["unfreeze_word"] and isinstance(source, HashEmbeddingEncoder)):
        # A trainable hash table pools its own rows and never reads these
        # vectors; for a vector file this also checks every id up front.
        vectors = compute_message_vectors(corpus_mod.all_messages(examples), source)
        if not cfg["unfreeze_word"]:
            source = wordenc.FrozenWordLevel(cfg["d_model"], vectors)
    if source.dim != model_cfg.d_model:
        raise CliError(f"word vectors are {source.dim}-d but the model wants "
                       f"{model_cfg.d_model}")
    template = (model_cfg, params)

    train, dev, test = _split_examples(examples)
    sweep_rows = []
    all_preds: List[stance_mod.Prediction] = []
    for hist in history_lens:
        jobs = []
        if cfg["pooled"]:
            jobs.append(("all", train, dev, test))
        else:
            for target in targets:
                tr = [e for e in train if e.stance_target == target]
                dv = [e for e in dev if e.stance_target == target]
                te = [e for e in test if e.stance_target == target]
                if not tr or not dv:
                    raise CliError(f"target '{target}' lacks train or dev rows")
                jobs.append((target, tr, dv, te))
        results = []
        if cfg["jobs"] > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=cfg["jobs"]) as pool:
                futures = [pool.submit(_run_one_target, template, cfg, source,
                                       tr, dv, te, hist, tag)
                           for tag, tr, dv, te in jobs]
                results = [f.result() for f in futures]
        else:
            for tag, tr, dv, te in jobs:
                results.append(_run_one_target(template, cfg, source,
                                               tr, dv, te, hist, tag))
        results.sort(key=lambda r: r[0])
        preds_this: List[stance_mod.Prediction] = []
        for tag, model, best_dev_loss, best_epoch, preds in results:
            preds_this.extend(preds)
            if not sweep:
                suffix = f"snapshot_{tag}.melt"
                save_checkpoint(os.path.join(cfg["out"], suffix), model,
                                dev_mse=best_dev_loss, epoch=best_epoch,
                                seed=cfg["seed"],
                                extra={"word_encoder": _word_meta(cfg), "stance_tag": tag})
        if sweep:
            table = metrics_mod.per_target_report(
                [(p.stance_target, p.gold, p.label) for p in preds_this],
                pooled=cfg["pooled"])
            sweep_rows.append([hist, _fmt(table["aggregate_weighted_f1"])])
            print(f"history_len {hist}: weighted F1 {table['aggregate_weighted_f1']:.4f}")
        all_preds = preds_this

    _write_csv(os.path.join(cfg["out"], "predictions.csv"), PREDICTION_HEADER,
               _prediction_rows(all_preds))
    if sweep:
        _write_csv(os.path.join(cfg["out"], "history_sweep.csv"),
                   ["history_len", "weighted_f1"], sweep_rows)
    print(f"wrote {len(all_preds)} predictions")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def cmd_evaluate(cfg: dict) -> int:
    """Score predictions against gold labels.

    Every prediction id must be a gold id and appear once, and every gold
    test example of a target that has predictions must be predicted.
    """
    gold_examples = ingest_stance_jsonl(cfg["gold"])
    gold_by_id = {e.example_id: e for e in gold_examples}
    rows = []
    seen = set()
    with open(cfg["predictions"], "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = []
        repeated = []
        for record in reader:
            example_id = record["example_id"]
            ex = gold_by_id.get(example_id)
            if ex is None:
                missing.append(example_id)
                continue
            if example_id in seen:
                repeated.append(example_id)
                continue
            seen.add(example_id)
            rows.append((ex.stance_target, ex.label, record["pred"]))
        if missing:
            raise CliError("predictions reference ids absent from the gold file: "
                           + ", ".join(sorted(missing)))
        if repeated:
            raise CliError("predictions repeat example ids: "
                           + ", ".join(sorted(set(repeated))))
    if not rows:
        raise CliError("predictions file holds no rows")
    predicted_targets = {target for target, _, _ in rows}
    unpredicted = sorted(e.example_id for e in gold_examples
                         if e.split == "test" and e.stance_target in predicted_targets
                         and e.example_id not in seen)
    if unpredicted:
        raise CliError("predictions leave out gold test examples: " + ", ".join(unpredicted))
    table = metrics_mod.per_target_report(rows, pooled=cfg["pooled"])
    text = metrics_mod.render_target_table(table)
    pooled_rep = metrics_mod.report(
        metrics_mod.confusion([g for _, g, _ in rows], [p for _, _, p in rows]))
    text += "\n\npooled over all examples:\n" + metrics_mod.render_report(pooled_rep)
    print(text)
    if cfg["out"]:
        os.makedirs(cfg["out"], exist_ok=True)
        with open(os.path.join(cfg["out"], "metrics.txt"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        metrics_mod.write_report_csv(os.path.join(cfg["out"], "metrics.csv"), table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melt",
        description="message-level transformer pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in COMMAND_OPTS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override its keys")
        _add_options(p, opts)
    return parser


HANDLERS = {
    "prep": cmd_prep,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        echo_config(cfg, cfg.get("out"))
        return HANDLERS[args.command](cfg)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CliError, CorpusFormatError, VectorFileError, CheckpointError,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
