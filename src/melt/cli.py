"""Command-line pipeline: prep, pretrain, finetune, evaluate.

Configuration precedence is flag > MELT_* environment variable > config
file (JSON) > built-in default. Every command runs in three steps: set-up
checks every option, reads and checks every input and builds what the run
shares; then the command echoes its fully-resolved configuration to stdout
and to <out>/config.json; then it runs and writes its outputs. So a command
that set-up rejects exits 2 without making <out>, and rerunning with the
echoed file reproduces the outputs byte for byte, on the same numpy and
BLAS build with the same BLAS thread count. Fine-tuning from a
checkpoint records the checkpoint's model config, and a model option set to
another value exits 2.

Exit codes: 0 success, 2 bad input or configuration, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import pretrain as pretrain_mod
from . import stance as stance_mod
from . import wordenc
from .corpus import (LABELS, CorpusFormatError, RawMessage, SequenceChunk, StanceExample,
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


class Config(dict):
    """A resolved configuration; ``given`` names the options that the config
    file, a MELT_* variable or a flag set, as opposed to their defaults."""

    given: frozenset = frozenset()


# ---------------------------------------------------------------------------
# option tables and resolution
# ---------------------------------------------------------------------------

# (name, type, default, help); type "flag" is a boolean three-state
OUT_OPT = ("out", str, None, "output directory")

COMMON = [OUT_OPT, ("seed", int, 1337, "base random seed")]

# prep draws nothing, so it takes no seed
PREP_OPTS = [
    OUT_OPT,
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
    ("dev_fraction", float, 0.1, "fraction of chunks held out for dev, in (0, 0.5]"),
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
    ("jobs", int, 1, "per-target runs at a time; only 1 is accepted, as one run's "
                     "BLAS calls already use every core"),
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

# (least, greatest) value of each option that has one; None is unbounded.
# The classes these options configure check them too, but by their own
# field names, which are not always the option's.
BOUNDS = {
    "seed": (0, None), "word_seed": (0, None), "seq_len": (1, None), "layers": (1, None),
    "d_model": (1, None), "ff_dim": (1, None), "heads": (1, None), "word_buckets": (1, None),
    "lr": (0, None), "weight_decay": (0, None), "warmup_steps": (0, None),
    "epochs": (1, None), "batch_size": (1, None), "patience": (0, None),
    "head_dropout": (0.0, 0.05), "head_hidden1": (1, None), "head_hidden2": (1, None),
    "jobs": (1, 1),
}

REQUIRED = {
    "prep": ("corpus", "out"),
    "pretrain": ("corpus", "manifest", "out"),
    "finetune": ("stance", "out"),
    "evaluate": ("predictions", "gold"),
}


def _add_options(parser: argparse.ArgumentParser, opts) -> None:
    for name, typ, _default, help_text in opts:
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
    if typ == "flag":  # any other word raises KeyError
        words = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}
        return words[raw.strip().lower()]
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


def resolve_config(command: str, args: argparse.Namespace) -> Config:
    """Merge defaults, config file, MELT_* env vars, and explicit flags."""
    known = {name: (typ, default) for name, typ, default, _help in COMMAND_OPTS[command]}
    resolved = Config((name, default) for name, (typ, default) in known.items())
    given = set()
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
            given.add(key)
    for name, (typ, _default) in known.items():
        env_key = ENV_PREFIX + name.upper()
        if env_key in os.environ:
            try:
                resolved[name] = _parse_env(os.environ[env_key], typ)
                given.add(name)
            except (KeyError, ValueError):
                raise CliError(f"cannot parse env var {env_key}={os.environ[env_key]!r}") from None
    for name in known:
        value = getattr(args, name, None)
        if value is not None:
            resolved[name] = value
            given.add(name)
    resolved.given = frozenset(given)
    for name in REQUIRED[command]:
        if resolved.get(name) is None:
            raise CliError(f"'{command}' requires --{name.replace('_', '-')}")
    for name, (typ, _default) in known.items():
        value = resolved[name]
        if typ is float and value is not None and not np.isfinite(value):
            raise CliError(f"--{name.replace('_', '-')} must be a finite number, got {value}")
    for name, (low, high) in BOUNDS.items():
        value = resolved.get(name)
        if name in known and (value < low or (high is not None and value > high)):
            bound = (f"at least {low}" if high is None else f"{low}" if low == high
                     else f"within [{low}, {high}]")
            raise CliError(f"--{name.replace('_', '-')} must be {bound}, got {value}")
    resolved["command"] = command
    return resolved


def echo_config(cfg: dict, out_dir: Optional[str]) -> None:
    text = json.dumps(cfg, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _make_word_source(cfg: dict) -> Tuple[object, dict]:
    """The word source ``--word-encoder`` names, and the word meta a checkpoint records of it.

    The source is the hash encoder, or the FrozenWordLevel a vector file
    loads into; a vector file is recorded by the sha256 of the bytes its
    loader parsed.
    """
    choice = cfg["word_encoder"]
    if choice == "hash":
        return (HashEmbeddingEncoder(dim=cfg["d_model"], buckets=cfg["word_buckets"],
                                     seed=cfg["word_seed"]),
                {"kind": "hash", "dim": cfg["d_model"], "buckets": cfg["word_buckets"],
                 "seed": cfg["word_seed"], "row_scheme": wordenc.ROW_SCHEME})
    if not choice.startswith("precomputed:"):
        raise CliError(f"--word-encoder must be 'hash' or 'precomputed:<path>', got '{choice}'")
    frozen = load_precomputed(choice.split(":", 1)[1])
    if frozen.dim != cfg["d_model"]:
        raise CliError(f"precomputed vectors are {frozen.dim}-d but --d-model "
                       f"is {cfg['d_model']}")
    return frozen, {"kind": "precomputed", "dim": cfg["d_model"], "sha256": frozen.sha256}


def _check_word_encoder(recorded: Optional[dict], wanted: dict) -> None:
    """Reject word settings that differ from those the checkpoint was pre-trained with.

    The width is taken from the checkpoint already. A vector file is
    compared by its digest, so it may move but not change, and a
    vector-file checkpoint that records no digest matches no file. A hash
    checkpoint written before rows were drawn per bucket records no row
    scheme, and its table differs from every table drawn now.
    """
    if recorded is None:
        return
    for key in ("kind", "buckets", "seed", "row_scheme", "sha256"):
        if recorded.get(key) != wanted.get(key):
            raise CliError(f"checkpoint was pre-trained with word encoder "
                           f"{key.replace('_', ' ')} "
                           f"{recorded.get(key)!r}, but fine-tuning asks for "
                           f"{wanted.get(key)!r}")


# each model option and the MeltConfig field it sets
MODEL_FIELDS = {"layers": "n_layers", "d_model": "d_model", "ff_dim": "ff_dim",
                "heads": "n_heads", "dropout": "dropout", "seq_len": "max_seq",
                "positions": "use_positions"}


def _melt_config(cfg: dict) -> MeltConfig:
    return MeltConfig(**{field: cfg[option] for option, field in MODEL_FIELDS.items()})


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
    echo_config(cfg, cfg["out"])
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
                fh.write(json.dumps({"user_id": user_id, "slots": slots}) + "\n")
    stats = {"users": len(groups), "messages": n_messages, "chunks": n_chunks,
             "pad_slots": n_pad, "seq_len": cfg["seq_len"]}
    with open(os.path.join(cfg["out"], "stats.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(json.dumps(stats, sort_keys=True))
    return EXIT_OK


def load_manifest(path, messages_by_id: Dict[str, RawMessage],
                  seq_len: int) -> List[SequenceChunk]:
    """The manifest's chunks; every row holds the first row's slot count, at most ``seq_len``.

    Every row names at least one message. Keys other than ``user_id`` and
    ``slots`` are ignored.
    """
    chunks: List[SequenceChunk] = []
    for lineno, obj in corpus_mod.iter_jsonl(path):
        if not isinstance(obj.get("user_id"), str):
            raise CorpusFormatError(f"line {lineno}: manifest row needs a string 'user_id'")
        if not isinstance(obj.get("slots"), list):
            raise CorpusFormatError(f"line {lineno}: manifest row needs a 'slots' list")
        n_slots = len(obj["slots"])
        if n_slots > seq_len:
            raise CorpusFormatError(f"line {lineno}: manifest row has {n_slots} slots, "
                                    f"more than --seq-len {seq_len}")
        if chunks and n_slots != len(chunks[0].slots):
            raise CorpusFormatError(f"line {lineno}: manifest row has {n_slots} slots, "
                                    f"the first row {len(chunks[0].slots)}")
        if all(mid is None for mid in obj["slots"]):
            raise CorpusFormatError(f"line {lineno}: manifest row names no message")
        slots = []
        for mid in obj["slots"]:
            if mid is None:
                slots.append(None)
                continue
            if not isinstance(mid, str) or mid not in messages_by_id:
                raise CorpusFormatError(
                    f"line {lineno}: manifest references unknown message '{mid}'")
            slots.append(messages_by_id[mid])
        chunks.append(SequenceChunk(obj["user_id"], tuple(slots)))
    if not chunks:
        raise CorpusFormatError("manifest contains no chunks")
    return chunks


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------


def _pool_vectors(cfg: dict, messages) -> Tuple[Dict[str, np.ndarray], dict]:
    """The pooled vector of each of ``messages``, and the word meta: pre-training's worker.

    Training reads only the pooled vectors, so the word source, with any
    rows drawn, is freed on return.
    """
    source, word_meta = _make_word_source(cfg)
    return compute_message_vectors(messages, source), word_meta


def cmd_pretrain(cfg: dict) -> int:
    mconfig = _melt_config(cfg)
    pconfig = PretrainConfig(base_lr=cfg["lr"], weight_decay=cfg["weight_decay"],
                             warmup_steps=cfg["warmup_steps"], epochs=cfg["epochs"],
                             batch_size=cfg["batch_size"], seed=cfg["seed"],
                             grad_clip=cfg["grad_clip"])
    if not 0.0 < cfg["dev_fraction"] <= 0.5:
        # dev is every round(1/f)-th chunk; above 0.5 that is still every 2nd
        raise CliError(f"--dev-fraction must be in (0, 0.5], got {cfg['dev_fraction']}")
    if cfg["grad_clip"] is not None and cfg["grad_clip"] <= 0:
        # a clip at or below 0 would zero or reverse every update
        raise CliError(f"--grad-clip must be above 0, got {cfg['grad_clip']}")
    groups = ingest_jsonl(cfg["corpus"])
    by_id = {m.message_id: m for msgs in groups.values() for m in msgs}
    chunks = load_manifest(cfg["manifest"], by_id, cfg["seq_len"])
    if len(chunks) < 2:
        raise CliError("need at least 2 chunks to carve out a dev split")
    stride = round(1.0 / cfg["dev_fraction"])
    dev_chunks = [c for i, c in enumerate(chunks) if i % stride == 0]
    train_chunks = [c for i, c in enumerate(chunks) if i % stride != 0]

    needed = {m.message_id: m for c in chunks for m in c.real_messages()}
    # Pooling holds the GIL and the weight draws release it, so the worker
    # pools while this thread draws; both are done before training starts.
    with ThreadPoolExecutor(max_workers=1) as worker:
        word_side = worker.submit(_pool_vectors, cfg, needed.values())
        model = MeltModel(mconfig, seed=cfg["seed"])
        vectors, word_meta = word_side.result()
    dev_plans = pretrain_mod.make_dev_plans(dev_chunks, vectors,
                                            seed=cfg["seed"] ^ pretrain_mod.DEV_SEED_SALT)
    if not any(plan.selected_slots for plan in dev_plans):
        raise CliError(f"the dev mask plans select no slot of the {len(dev_chunks)} dev "
                       f"chunks; change --seed or --dev-fraction")
    echo_config(cfg, cfg["out"])
    result = pretrain_mod.train(model, train_chunks, dev_chunks, vectors, pconfig, dev_plans)

    _write_csv(os.path.join(cfg["out"], "history.csv"), ["step", "lr", "loss"],
               ([s.step, _fmt(s.lr), _fmt(s.loss)] for s in result.steps))
    _write_csv(os.path.join(cfg["out"], "epochs.csv"), ["epoch", "dev_mse"],
               ([e.epoch, _fmt(e.dev_mse)] for e in result.epochs))
    ckpt_path = os.path.join(cfg["out"], "checkpoint.melt")
    save_checkpoint(ckpt_path, model, dev_mse=result.best_dev_mse,
                    epoch=result.best_epoch, seed=cfg["seed"],
                    params=result.best_params, extra={"word_encoder": word_meta})
    print(f"best epoch {result.best_epoch} dev_mse {result.best_dev_mse:.6f} "
          f"-> {ckpt_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------


def _resolve_targets(cfg: dict, examples: Sequence[StanceExample]) -> List[str]:
    """The targets to run, sorted: those ``--targets`` names, or every target in the file."""
    if cfg["targets"] == "all":
        return sorted({e.stance_target for e in examples})
    named = [t.strip() for t in cfg["targets"].split(",") if t.strip()]
    if not named:
        raise CliError(f"--targets names no target: {cfg['targets']!r}")
    repeated = sorted({t for t in named if named.count(t) > 1})
    if repeated:
        raise CliError(f"--targets names {', '.join(repeated)} more than once")
    unknown = [t for t in named if t not in corpus_mod.STANCE_TARGETS]
    if unknown:
        raise CliError(f"unknown stance targets: {', '.join(unknown)}")
    return sorted(named)


# the splits each --arch reads
ARCH_SPLITS = {"mfc": ("train", "test"), "word": corpus_mod.SPLITS,
               "word-hist": corpus_mod.SPLITS, "melt": ("train", "dev")}

# the options each baseline never reads, so it rejects any value but the
# default: the word baselines train no encoder, in one run per target over
# a fixed history window, and mfc also draws nothing, reads no words and
# trains no head
_WORD_UNREAD = ("history_len", "checkpoint", "rand_init", "unfreeze_word", "pooled",
                "layers", "ff_dim", "heads", "dropout", "seq_len", "positions")
BASELINE_UNREAD = {"word": _WORD_UNREAD, "word-hist": _WORD_UNREAD,
                   "mfc": (*_WORD_UNREAD, "seed", "d_model", "word_encoder", "word_buckets",
                           "word_seed", "lr", "weight_decay", "head_dropout", "batch_size",
                           "epochs", "patience", "head_hidden1", "head_hidden2")}

Run = Tuple[str, List[StanceExample], List[StanceExample], List[StanceExample]]
# the worker model, at the weights every per-target run starts from, and the
# refill that sets it back to them
Template = Tuple[MeltModel, Callable[[], None]]


def _plan_runs(examples: Sequence[StanceExample], targets: Sequence[str], arch: str,
               pooled: bool) -> List[Run]:
    """``(tag, train, dev, test)`` of each run: one per target, or one ``all`` run.

    A file without dev rows gives every fifth train example, counted over
    all targets, to dev. Each run must hold the splits ``arch`` reads.
    """
    parts = {name: [e for e in examples if e.split == name] for name in corpus_mod.SPLITS}
    if not parts["dev"] and len(parts["train"]) >= 5:
        parts["dev"] = parts["train"][::5]
        del parts["train"][::5]
    runs = [("all", parts)] if pooled else [
        (target, {name: [e for e in rows if e.stance_target == target]
                  for name, rows in parts.items()})
        for target in targets]
    for tag, split in runs:
        for name in ARCH_SPLITS[arch]:
            if not split[name]:
                raise CliError(f"target '{tag}' has no {name} rows")
    return [(tag, split["train"], split["dev"], split["test"]) for tag, split in runs]


def _parse_history(cfg: dict) -> List[Optional[int]]:
    """The ``--history-len`` values, each an integer from 1 to the model's ``--seq-len``."""
    raw = cfg["history_len"]
    if raw is None:
        return [None]
    values = []
    for piece in str(raw).split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            value = int(piece)
        except ValueError:
            raise CliError(f"--history-len: '{piece}' is not an integer") from None
        if value < 1:
            raise CliError(f"--history-len: '{piece}' is below 1")
        if value > cfg["seq_len"]:
            raise CliError(f"--history-len: '{piece}' exceeds the model's max_seq "
                           f"{cfg['seq_len']}")
        values.append(value)
    if not values:
        raise CliError("--history-len given but empty")
    return values


def _model_template(cfg: Config, hold: ExitStack) -> Tuple[Template, Optional[dict]]:
    """The worker model and its refill, and the word meta its checkpoint records.

    With ``--rand-init`` the worker is the model drawn once from the seed,
    and a copy of its drawn weights is kept for the refill to copy back;
    there is no word meta to match. Otherwise the worker is the model the
    checkpoint loads into, and its model config is written into ``cfg``; a
    model option set to another value is rejected. The checkpoint stays
    open in ``hold``, and the refill reads its blocks back into the worker,
    after checking that the file's size and mtime are still those it had
    when it was loaded.
    """
    if cfg["rand_init"]:
        model = MeltModel(_melt_config(cfg), seed=cfg["seed"])
        params = {name: p.data.copy() for name, p in model.named_parameters()}
        return (model, lambda: pretrain_mod.load_params_into(model, params)), None
    if not cfg["checkpoint"]:
        raise CliError("provide --checkpoint or pass --rand-init")
    fh = hold.enter_context(open(cfg["checkpoint"], "rb"))
    loaded = os.fstat(fh.fileno())
    model, header = load_checkpoint(fh)
    recorded = {option: getattr(model.config, field) for option, field in MODEL_FIELDS.items()}
    for key, value in recorded.items():
        if key in cfg.given and cfg[key] != value:
            raise CliError(f"--{key.replace('_', '-')} is {cfg[key]!r}, but the "
                           f"checkpoint's model has {value!r}")
    cfg.update(recorded)

    def refill() -> None:
        now = os.fstat(fh.fileno())
        for what, before, after in (("size", loaded.st_size, now.st_size),
                                    ("mtime", loaded.st_mtime_ns, now.st_mtime_ns)):
            if before != after:
                raise CliError(f"checkpoint {cfg['checkpoint']} changed after set-up "
                               f"loaded it: {what} was {before}, is {after}")
        pretrain_mod.read_params_into(fh, model)

    return (model, refill), header.get("word_encoder")


def _run_one_target(model: MeltModel, snapshot: Dict[str, np.ndarray], cfg: dict,
                    fcfg: FinetuneConfig, word_level_of: Callable[[Run], object],
                    word_meta: dict, history_len: Optional[int], save: bool,
                    run: Run) -> List[stance_mod.Prediction]:
    """One target's fine-tuning run in ``model`` and ``snapshot``; returns its predictions.

    ``stance.finetune`` trains in the model's arrays and in the snapshot
    buffers. With ``save`` the run writes snapshot_<tag>.melt itself, so
    no finished run's model outlives it. The head and the run's word level,
    which ``word_level_of`` makes, are freed when the run ends.
    """
    tag, train, dev, test = run
    head = StanceHead(model.config.d_model, hidden1=cfg["head_hidden1"],
                      hidden2=cfg["head_hidden2"], seed=cfg["seed"])
    word_level = word_level_of(run)
    result = stance_mod.finetune(model, head, word_level, train, dev, fcfg,
                                 history_len=history_len, snapshot=snapshot)
    preds = stance_mod.predict(model, head, word_level, test, history_len=history_len) \
        if test else []
    if save:
        save_checkpoint(os.path.join(cfg["out"], f"snapshot_{tag}.melt"), model,
                        dev_mse=result.best_dev_loss, epoch=result.best_epoch,
                        seed=cfg["seed"], extra={"word_encoder": word_meta, "stance_tag": tag})
    return preds


def _melt_predictions(cfg: dict, fcfg: FinetuneConfig, template: Template,
                      word_level_of: Callable[[Run], object], word_meta: dict,
                      history_lens: Sequence[Optional[int]],
                      runs: Sequence[Run]) -> List[stance_mod.Prediction]:
    """Fine-tune every run at each history length; the last length's predictions.

    A single length has each run save its snapshot; a sweep writes the
    weighted F1 of each length to history_sweep.csv instead. The runs go
    in order on this thread, in the template's model and one snapshot made
    once per command. The first run trains in the model as set-up made it,
    and the template's refill resets it before every later run, at every
    length.
    """
    sweep = len(history_lens) > 1
    sweep_rows = []
    model, refill = template
    snapshot: Dict[str, np.ndarray] = {}
    fresh = True
    for hist in history_lens:
        preds = []
        for run in runs:
            if not fresh:
                refill()
            fresh = False
            preds += _run_one_target(model, snapshot, cfg, fcfg, word_level_of, word_meta,
                                     hist, not sweep, run)
        if sweep:
            table = metrics_mod.per_target_report(
                [(p.stance_target, p.gold, p.label) for p in preds], pooled=cfg["pooled"])
            sweep_rows.append([hist, _fmt(table["aggregate_weighted_f1"])])
            print(f"history_len {hist}: weighted F1 {table['aggregate_weighted_f1']:.4f}")
    if sweep:
        _write_csv(os.path.join(cfg["out"], "history_sweep.csv"),
                   ["history_len", "weighted_f1"], sweep_rows)
    return preds


def _prediction_rows(preds: Sequence[stance_mod.Prediction]):
    for p in preds:
        yield [p.example_id, p.stance_target, p.gold or "", p.label,
               _fmt(p.probs[0]), _fmt(p.probs[1]), _fmt(p.probs[2])]


PREDICTION_HEADER = ["example_id", "target", "gold", "pred",
                     "p_against", "p_none", "p_favor"]


def cmd_finetune(cfg: Config) -> int:
    arch = cfg["arch"]
    if arch not in ARCH_SPLITS:
        raise CliError(f"--arch must be melt | word | word-hist | mfc, got '{arch}'")
    defaults = {name: default for name, _typ, default, _help in FINETUNE_OPTS}
    for name in BASELINE_UNREAD.get(arch, ()):
        if cfg[name] != defaults[name]:
            flag = ("no-" if cfg[name] is False else "") + name.replace("_", "-")
            raise CliError(f"--{flag} is not read by --arch '{arch}'")
    fcfg = FinetuneConfig(lr=cfg["lr"], weight_decay=cfg["weight_decay"],
                          dropout=cfg["head_dropout"], batch_size=cfg["batch_size"],
                          unfreeze_word=cfg["unfreeze_word"], max_epochs=cfg["epochs"],
                          patience=cfg["patience"], seed=cfg["seed"])
    # the checkpoint stays open until every run has started from it
    with ExitStack() as hold:
        template, recorded_word = _model_template(cfg, hold) if arch == "melt" else (None, None)
        history_lens = _parse_history(cfg)
        # the word source is built once, so a vector file is read and checked
        # against the checkpoint before the stance file is read
        source, word_meta = _make_word_source(cfg) if arch != "mfc" else (None, None)
        _check_word_encoder(recorded_word, word_meta)
        examples = ingest_stance_jsonl(cfg["stance"])
        runs = _plan_runs(examples, _resolve_targets(cfg, examples), arch, cfg["pooled"])
        if cfg["unfreeze_word"] and isinstance(source, HashEmbeddingEncoder):
            # A trainable hash table pools its own rows, so none are pooled here,
            # and each run's table holds only the rows its messages reach. Set-up
            # draws every run's rows, so no run draws one.
            source.encode(corpus_mod.all_messages(
                [e for run in runs for split in run[1:] for e in split]))

            def word_level_of(run: Run):
                return wordenc.TrainableHashWordLevel(
                    source, corpus_mod.all_messages([e for split in run[1:] for e in split]))
        elif source is not None:
            # Every other run reads one FrozenWordLevel; for a vector file this
            # also checks every id up front. Rebinding frees the hash encoder,
            # and any rows drawn, before training.
            source = wordenc.FrozenWordLevel(cfg["d_model"], compute_message_vectors(
                corpus_mod.all_messages(examples), source))

            def word_level_of(run: Run):
                return wordenc.TrainableAdapterWordLevel(source) if cfg["unfreeze_word"] else source
        echo_config(cfg, cfg["out"])

        if arch == "mfc":
            preds = [p for _tag, train, _dev, test in runs
                     for p in stance_mod.mfc_predict([e.label for e in train], test)]
        elif arch in ("word", "word-hist"):
            preds = [p for _tag, train, dev, test in runs
                     for p in stance_mod.word_baseline(
                         train, dev, test, source.vectors, fcfg, with_history=arch == "word-hist",
                         hidden1=cfg["head_hidden1"], hidden2=cfg["head_hidden2"])]
        else:
            preds = _melt_predictions(cfg, fcfg, template, word_level_of, word_meta, history_lens,
                                      runs)
    _write_csv(os.path.join(cfg["out"], "predictions.csv"), PREDICTION_HEADER,
               _prediction_rows(preds))
    print(f"wrote {len(preds)} {arch} predictions")
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
        for column in ("example_id", "pred"):
            if column not in (reader.fieldnames or ()):
                raise CliError(f"predictions file has no '{column}' column")
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
            if record["pred"] not in LABELS:
                raise CliError(f"prediction for '{example_id}' is {record['pred']!r}, "
                               f"not one of {', '.join(LABELS)}")
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
    echo_config(cfg, cfg["out"])
    print(text)
    if cfg["out"]:
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
