"""Masked-document pre-training, the training loop every trainer shares, checkpoints.

``run_epochs`` is the one epoch loop and ``descend`` the one update step of
pre-training, stance fine-tuning and the word baselines. Pre-training re-rolls
the mask plans each epoch from a seed derived per epoch; the dev plans are
rolled once and reused so the dev MSE is comparable across epochs. The
checkpoint written at the end is the parameter snapshot of the epoch with the
lowest dev MSE (earliest epoch on ties).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .corpus import Action, MaskPlan, SequenceChunk, apply_masking
from .model import MeltConfig, MeltModel, embed_batch
from .optim import AdamW, warmup_lr
from .tensor import Tensor, backward, mse_loss, no_grad

CHECKPOINT_VERSION = 1
DEV_SEED_SALT = 0x5EED


@dataclass
class PretrainConfig:
    base_lr: float = 4e-3
    weight_decay: float = 0.1
    warmup_steps: int = 2000
    epochs: int = 5
    batch_size: int = 100
    seed: int = 1337
    grad_clip: Optional[float] = None

    def __post_init__(self):
        for name, low in (("base_lr", 0), ("weight_decay", 0), ("epochs", 1), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int, what: str = "loss"):
        super().__init__(f"{what} became non-finite at step {step}")
        self.step = step


@dataclass
class StepRecord:
    step: int
    lr: float
    loss: float


@dataclass
class EpochRecord:
    epoch: int
    dev_mse: float


EpochLog = List[Tuple[int, float, float]]  # (epoch, mean train loss, dev score)


@dataclass
class PretrainResult:
    best_epoch: int
    best_dev_mse: float
    best_params: Dict[str, np.ndarray]
    steps: List[StepRecord] = field(default_factory=list)
    epochs: List[EpochRecord] = field(default_factory=list)


def masked_loss(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error over all selected slots in the batch.

    With equal vector widths this equals the mean of per-slot MSEs. An empty
    selection contributes a constant zero (no gradient).
    """
    targets = np.asarray(targets)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"predictions {predictions.shape} and targets {targets.shape} are misaligned")
    if predictions.shape[0] == 0:
        return Tensor(np.zeros((), dtype=predictions.dtype))
    return mse_loss(predictions, Tensor(targets.astype(predictions.dtype, copy=False)))


def _input_rows(model: MeltModel, batch: Sequence[SequenceChunk],
                plans: Sequence[MaskPlan], vectors: Mapping[str, np.ndarray]) -> Tensor:
    """The (n, d) ``embed_batch`` rows: every real slot not marked MASK_TOKEN.

    In (batch, slot) order, a RANDOM_REPLACE slot's row is its recorded
    substitute and any other slot's row its message's own pooled vector.
    """
    rows = [plan.replacements[li][1] if action is Action.RANDOM_REPLACE
            else vectors[slot.message_id]
            for chunk, plan in zip(batch, plans)
            for li, (slot, action) in enumerate(zip(chunk.slots, plan.actions))
            if slot is not None and action is not Action.MASK_TOKEN]
    return Tensor(np.array(rows, dtype=model.dtype).reshape(-1, model.config.d_model))


def _forward_masked(model: MeltModel, batch: Sequence[SequenceChunk],
                    plans: Sequence[MaskPlan], vectors: Mapping[str, np.ndarray],
                    train: bool, rng: Optional[np.random.Generator]
                    ) -> Tuple[Optional[Tensor], Optional[np.ndarray]]:
    """Predictions and stacked targets over every selected slot in the batch.

    The encoder reads the selected slots, every action but KEEP, so the
    top layer computes exactly one row per selected slot; ascending
    ``selected_slots`` puts the targets in the same order.
    """
    targets = [plan.targets[slot] for plan in plans for slot in plan.selected_slots]
    if not targets:
        return None, None
    x, attn = embed_batch(model, batch, plans, _input_rows(model, batch, plans, vectors))
    read = np.array([[action is not Action.KEEP for action in plan.actions]
                     for plan in plans])
    out = model.forward(x, attn, train=train, rng=rng, rows=read)
    return model.reconstruct_rows(out), np.stack(targets)


def make_dev_plans(dev_chunks: Sequence[SequenceChunk],
                   vectors: Mapping[str, np.ndarray], seed: int) -> List[MaskPlan]:
    """Fixed dev mask plans, rolled once from ``seed``; pre-training derives it
    as ``PretrainConfig.seed ^ DEV_SEED_SALT``."""
    rng = np.random.default_rng(seed)
    pool = [m.message_id for c in dev_chunks for m in c.real_messages()]
    return [apply_masking(c, rng, vectors, pool) for c in dev_chunks]


def evaluate_dev(model: MeltModel, dev_chunks: Sequence[SequenceChunk],
                 dev_plans: Sequence[MaskPlan], vectors: Mapping[str, np.ndarray],
                 batch_size: int = 100) -> float:
    """Mean masked MSE over all selected dev slots; eval mode, no updates."""
    if not dev_chunks:
        raise ValueError("dev set is empty")
    if len(dev_chunks) != len(dev_plans):
        raise ValueError("one mask plan per dev chunk is required")
    total_sq = 0.0
    total_elems = 0
    for start in range(0, len(dev_chunks), batch_size):
        batch = list(dev_chunks[start:start + batch_size])
        plans = list(dev_plans[start:start + batch_size])
        with no_grad():
            preds, targets = _forward_masked(model, batch, plans, vectors, train=False,
                                             rng=None)
        if preds is None:
            continue
        diff = preds.data - targets
        total_sq += float((diff * diff).sum())
        total_elems += diff.size
    if total_elems == 0:
        raise ValueError("dev plans selected no slots; cannot compute dev MSE")
    return total_sq / total_elems


def train(model: MeltModel, train_chunks: Sequence[SequenceChunk],
          dev_chunks: Sequence[SequenceChunk], vectors: Mapping[str, np.ndarray],
          config: PretrainConfig, dev_plans: Sequence[MaskPlan]) -> PretrainResult:
    """Run the masked-reconstruction loop and track the best-dev epoch.

    Every epoch trains on ``train_chunks`` in order, drawing masks and
    dropout from a generator seeded ``seed ^ epoch``, and none stops the run
    early. Every epoch scores ``dev_chunks`` under the same ``dev_plans``
    (``make_dev_plans``). The model keeps the last epoch's values,
    ``best_params`` the best's.

    The word level is frozen by construction: only message-transformer
    parameters are registered with the optimizer, and the pooled vectors are
    plain arrays that gradients cannot enter.

    Raises TrainingDivergedError when a training loss or a dev MSE is not
    finite.
    """
    if not train_chunks:
        raise ValueError("training set is empty")
    opt = AdamW(model.named_parameters(), base_lr=config.base_lr,
                weight_decay=config.weight_decay)
    steps: List[StepRecord] = []

    def train_batch(batch, rng, step):
        pool = [m.message_id for c in batch for m in c.real_messages()]
        plans = [apply_masking(c, rng, vectors, pool) for c in batch]
        lr = warmup_lr(step, config.base_lr, config.warmup_steps)
        preds, targets = _forward_masked(model, batch, plans, vectors, train=True, rng=rng)
        loss_val = 0.0 if preds is None else \
            descend(opt, masked_loss(preds, targets), step, lr, config.grad_clip)
        steps.append(StepRecord(step, lr, loss_val))
        return loss_val

    def dev_mse():
        return evaluate_dev(model, dev_chunks, dev_plans, vectors,
                            batch_size=config.batch_size)

    history, best_epoch, best_dev_mse, best_params, _ = run_epochs(
        model.named_parameters(), config.epochs, patience=config.epochs,
        batch_size=config.batch_size,
        epoch_order=lambda epoch: (train_chunks, np.random.default_rng(config.seed ^ epoch)),
        train_batch=train_batch, dev_score=dev_mse, dev_name="dev MSE")
    return PretrainResult(best_epoch, best_dev_mse, best_params, steps,
                          [EpochRecord(epoch, dev) for epoch, _, dev in history])


def descend(opt: AdamW, loss: Tensor, step: int, lr: Optional[float] = None,
            grad_clip: Optional[float] = None) -> float:
    """Backward from a training loss and one update; returns the loss.

    Gradients are clipped to a global norm of ``grad_clip`` when it is set,
    and ``lr`` of None steps at the optimizer's base rate. Only the float is
    returned, so the step's graph and its intermediate gradients are freed
    with the caller's step frame, before dev evaluation.

    Raises TrainingDivergedError when the loss is not finite.
    """
    loss_val = float(loss.data)
    if not np.isfinite(loss_val):
        raise TrainingDivergedError(step)
    backward(loss)
    if grad_clip is not None:
        _clip_grads(opt.params, grad_clip)
    opt.step(lr)
    return loss_val


def run_epochs(params: Sequence[Tuple[str, Tensor]], epochs: int, patience: int,
               batch_size: int,
               epoch_order: Callable[[int], Tuple[Sequence, np.random.Generator]],
               train_batch: Callable[[Sequence, np.random.Generator, int], float],
               dev_score: Callable[[], float], dev_name: str,
               snapshot: Optional[Dict[str, np.ndarray]] = None
               ) -> Tuple[EpochLog, int, float, Dict[str, np.ndarray], bool]:
    """Train in epochs of batches, score dev after each, keep the best epoch's values.

    ``epoch_order(epoch)`` gives the epoch's items in training order and the
    generator its batches draw from. ``train_batch(batch, rng, step)`` updates
    on a slice of at most ``batch_size`` items, ``step`` counting batches over
    the run, and returns their mean loss. ``dev_score()`` runs after every
    epoch. Only a strictly lower score improves, so ties keep the earlier
    epoch; an improving epoch's values are copied into the ``snapshot``
    buffers, and the run stops after ``patience`` + 1 epochs in a row
    without one. A name's buffer is allocated only when ``snapshot`` (a new
    dict when None) has none of its shape and dtype, so a caller that passes
    the dict an earlier run filled trains in no new snapshot memory.

    Returns the (epoch, mean train loss, dev score) history, the best epoch,
    its score, the snapshot and whether the run stopped early. A non-finite
    dev score raises TrainingDivergedError naming ``dev_name`` and the epoch.
    """
    history: EpochLog = []
    best_epoch, best_score = -1, float("inf")
    snapshot = {} if snapshot is None else snapshot
    since_best = step = 0
    for epoch in range(1, epochs + 1):
        items, rng = epoch_order(epoch)
        epoch_loss = 0.0
        for start in range(0, len(items), batch_size):
            batch = items[start:start + batch_size]
            epoch_loss += train_batch(batch, rng, step) * len(batch)
            step += 1
        score = dev_score()
        if not np.isfinite(score):
            raise TrainingDivergedError(step, what=f"{dev_name} after epoch {epoch}")
        history.append((epoch, epoch_loss / len(items), score))
        if score < best_score:
            best_epoch, best_score = epoch, score
            for name, p in params:
                kept = snapshot.get(name)
                if kept is None or kept.shape != p.data.shape or kept.dtype != p.data.dtype:
                    snapshot[name] = p.data.copy()
                else:
                    np.copyto(kept, p.data)
            since_best = 0
        else:
            since_best += 1
            if since_best > patience:
                break
    return history, best_epoch, best_score, snapshot, since_best > patience


def _clip_grads(params, max_norm: float) -> None:
    """Scale every gradient down to a global norm of ``max_norm``."""
    total = 0.0
    for _, p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for _, p in params:
            if p.grad is not None:
                p.grad = p.grad * np.asarray(scale, dtype=p.grad.dtype)


def load_params_into(model: MeltModel, params: Mapping[str, np.ndarray]) -> None:
    """Copy ``params[name]`` into each parameter's own array, of its shape; none is allocated."""
    for name, p in model.named_parameters():
        src = np.asarray(params[name])
        if src.shape != p.data.shape:
            raise ValueError(f"parameter '{name}' shape {src.shape} != {p.data.shape}")
        np.copyto(p.data, src)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
#
# One line of JSON (version, config, manifest of name/shape pairs, dev MSE,
# epoch, seed, optional extras), a newline, then the raw little-endian
# float32 parameter blocks concatenated in manifest order.


class CheckpointError(RuntimeError):
    """A checkpoint that cannot be read."""


def save_params(path, header: dict, named_params: Sequence[Tuple[str, np.ndarray]]) -> None:
    """Atomically write header + parameter blocks (temp file, then rename)."""
    header = dict(header)
    header["manifest"] = [[name, list(arr.shape)] for name, arr in named_params]
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8"))
            fh.write(b"\n")
            for _, arr in named_params:
                fh.write(np.ascontiguousarray(arr, dtype="<f4"))  # from its own buffer
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_manifest_entry(entry) -> bool:
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(isinstance(n, int) and n >= 0 for n in entry[1]))


def _read_manifest(fh) -> Tuple[dict, List[Tuple[str, tuple]]]:
    """The header and the (name, shape) blocks of the checkpoint open in ``fh``.

    Reads from the start of the file and leaves ``fh`` at the first block.
    The file must hold exactly the blocks the manifest lists, so no block
    is allocated for a file too short to fill it.
    """
    fh.seek(0)
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise CheckpointError("checkpoint header line is incomplete")
    try:
        header = json.loads(line)
    except json.JSONDecodeError:
        raise CheckpointError("checkpoint header is not valid JSON") from None
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {header.get('version')!r}, "
            f"this build reads version {CHECKPOINT_VERSION}")
    manifest = header.get("manifest")
    if not isinstance(manifest, list):
        raise CheckpointError("checkpoint header lacks a manifest")
    blocks = []
    end, offset = os.fstat(fh.fileno()).st_size, len(line)
    for i, entry in enumerate(manifest):
        if not _is_manifest_entry(entry):
            raise CheckpointError(
                f"manifest entry {i} is not a [name, shape] pair: {json.dumps(entry)}")
        name, shape = entry[0], tuple(entry[1])
        offset += 4 * math.prod(shape)
        if offset > end:
            raise CheckpointError(f"checkpoint ends mid-block for parameter '{name}'")
        blocks.append((name, shape))
    if offset < end:
        raise CheckpointError("trailing bytes after the last manifest block")
    return header, blocks


def _read_blocks(fh, arrays: Sequence[Tuple[str, np.ndarray]]) -> None:
    """Read each block's bytes straight into its named float32 array, in order.

    The blocks are little-endian, so a big-endian array is byteswapped in
    place after its read.
    """
    for name, out in arrays:
        if out.dtype.str not in ("<f4", ">f4"):
            raise CheckpointError(f"parameter '{name}' is {out.dtype}, not float32")
        if fh.readinto(out) != out.nbytes:
            raise CheckpointError(f"checkpoint ends mid-block for parameter '{name}'")
        if out.dtype.str == ">f4":
            out.byteswap(inplace=True)


def load_params(source) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Header and parameter blocks of the checkpoint at a path or open in a binary file."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "rb") as fh:
            return load_params(fh)
    header, blocks = _read_manifest(source)
    arrays = [(name, np.empty(shape, dtype="<f4")) for name, shape in blocks]
    _read_blocks(source, arrays)
    return header, dict(arrays)


def _check_layout(blocks: List[Tuple[str, tuple]], model: MeltModel) -> None:
    if blocks != [(name, p.data.shape) for name, p in model.named_parameters()]:
        raise CheckpointError("manifest does not match this model layout")


def read_params_into(fh, model: MeltModel) -> None:
    """Read the checkpoint open in ``fh`` into the model's own arrays; none is allocated.

    The manifest must list the model's parameters, in order and by shape.
    """
    _header, blocks = _read_manifest(fh)
    _check_layout(blocks, model)
    _read_blocks(fh, [(name, p.data) for name, p in model.named_parameters()])


def save_checkpoint(path, model: MeltModel, *, dev_mse: float, epoch: int, seed: int,
                    params: Optional[Mapping[str, np.ndarray]] = None,
                    extra: Optional[dict] = None) -> None:
    """Persist model parameters (or an explicit snapshot) with metadata."""
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "dev_mse": dev_mse,
        "epoch": epoch,
        "seed": seed,
    }
    if extra:
        header.update(extra)
    if params is None:
        named = [(name, p.data) for name, p in model.named_parameters()]
    else:
        named = [(name, np.asarray(params[name])) for name, _ in model.named_parameters()]
    save_params(path, header, named)


def load_checkpoint(source) -> Tuple[MeltModel, dict]:
    """Rebuild a model whose forward outputs are bit-identical to the saved one.

    ``source`` is a path or a binary file open on the checkpoint.
    """
    # Read, then copy into an unfilled model: reading in place halves this
    # call's peak but slows fine-tuning, as freeing the read arrays here is
    # what lifts glibc's dynamic mmap threshold (mallopt(3)) above fine-
    # tuning's transients, which are otherwise mapped and faulted each call.
    header, params = load_params(source)
    if not isinstance(header.get("config"), dict):
        raise CheckpointError("checkpoint header lacks a 'config' object")
    try:
        config = MeltConfig(**header["config"])
    except (TypeError, ValueError) as exc:  # an unknown key, or a value the model rejects
        raise CheckpointError(f"checkpoint 'config' does not fit: {exc}") from None
    model = MeltModel(config, seed=None)
    _check_layout([(name, tuple(shape)) for name, shape in header["manifest"]], model)
    load_params_into(model, params)
    return model, header
