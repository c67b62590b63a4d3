"""Masked-document pre-training: loop, dev evaluation, checkpointing.

Each epoch re-rolls the mask plans from a seed derived per epoch; the dev
plans are rolled once and reused so the dev MSE is comparable across
epochs. The checkpoint written at the end is the parameter snapshot of the
epoch with the lowest dev MSE (earliest epoch on ties).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .corpus import Action, MaskPlan, SequenceChunk, apply_masking, batch_chunks
from .model import MeltConfig, MeltModel, copy_param, embed_batch
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
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if min(self.base_lr, self.weight_decay) < 0 or self.batch_size < 1:
            raise ValueError("config values must be positive")


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


@dataclass
class PretrainResult:
    model: MeltModel
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
    """The ``embed_batch`` rows: one per real slot not marked MASK_TOKEN.

    A RANDOM_REPLACE slot gives its recorded substitute, every other slot
    its message's own pooled vector.
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

    The top layer runs only at a (B, qmax) grid of slots, qmax being the
    largest selection in the batch: row b lists its selected slots first,
    and its remaining cells point at slot 0 and are never read.
    """
    selected = [plan.selected_slots for plan in plans]
    counts = [len(sel) for sel in selected]
    if not any(counts):
        return None, None
    grid = np.zeros((len(plans), max(counts)), dtype=np.int64)
    for bi, sel in enumerate(selected):
        grid[bi, :len(sel)] = sel
    targets = [plan.targets[slot] for plan, sel in zip(plans, selected) for slot in sel]
    x, attn = embed_batch(model, batch, plans, _input_rows(model, batch, plans, vectors))
    out = model.forward(x, attn, train=train, rng=rng, rows=grid)
    b_idx = np.repeat(np.arange(len(plans)), counts)
    cells = np.concatenate([np.arange(c) for c in counts])
    preds = model.reconstruct_rows(out, b_idx, cells)
    return preds, np.stack(targets)


def make_dev_plans(dev_chunks: Sequence[SequenceChunk],
                   vectors: Mapping[str, np.ndarray], seed: int) -> List[MaskPlan]:
    """Fixed dev mask plans, rolled once from the derived dev seed."""
    rng = np.random.default_rng(seed)
    pool = [m.message_id for c in dev_chunks for m in c.real_messages()]
    return [apply_masking(c, rng, vectors, pool, seed=seed) for c in dev_chunks]


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
          config: PretrainConfig) -> PretrainResult:
    """Run the masked-reconstruction loop and track the best-dev epoch.

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
    dev_plans = make_dev_plans(dev_chunks, vectors, seed=config.seed ^ DEV_SEED_SALT)
    result = PretrainResult(model=model, best_epoch=-1, best_dev_mse=float("inf"),
                            best_params={})
    global_step = 0
    for epoch in range(1, config.epochs + 1):
        rng = np.random.default_rng(config.seed ^ epoch)
        for batch in batch_chunks(train_chunks, config.batch_size):
            pool = [m.message_id for c in batch for m in c.real_messages()]
            plans = [apply_masking(c, rng, vectors, pool, seed=config.seed ^ epoch)
                     for c in batch]
            lr = warmup_lr(global_step, config.base_lr, config.warmup_steps)
            loss_val = _train_step(model, opt, batch, plans, vectors, rng, lr,
                                   config.grad_clip, global_step)
            result.steps.append(StepRecord(global_step, lr, loss_val))
            global_step += 1
        dev_mse = evaluate_dev(model, dev_chunks, dev_plans, vectors,
                               batch_size=config.batch_size)
        if not np.isfinite(dev_mse):
            raise TrainingDivergedError(global_step, what=f"dev MSE after epoch {epoch}")
        result.epochs.append(EpochRecord(epoch, dev_mse))
        if dev_mse < result.best_dev_mse:
            result.best_dev_mse = dev_mse
            result.best_epoch = epoch
            result.best_params = {name: p.data.copy() for name, p in model.named_parameters()}
    return result


def _train_step(model: MeltModel, opt: AdamW, batch: Sequence[SequenceChunk],
                plans: Sequence[MaskPlan], vectors: Mapping[str, np.ndarray],
                rng: np.random.Generator, lr: float, grad_clip: Optional[float],
                step: int) -> float:
    """One forward/backward/update; returns the loss (0.0 when nothing is selected).

    Only the float leaves this frame, so the step's graph and its
    intermediate gradients are freed before the caller runs dev evaluation.
    """
    preds, targets = _forward_masked(model, batch, plans, vectors, train=True, rng=rng)
    if preds is None:
        return 0.0
    loss = masked_loss(preds, targets)
    loss_val = float(loss.data)
    if not np.isfinite(loss_val):
        raise TrainingDivergedError(step)
    backward(loss)
    if grad_clip is not None:
        _clip_grads(opt.params, grad_clip)
    opt.step(lr)
    return loss_val


def _clip_grads(params, max_norm: float) -> None:
    """Scale every gradient down to a global norm of ``max_norm``.

    Works on the dense form of each gradient, so a clipped row-sparse
    gradient reaches AdamW dense.
    """
    total = 0.0
    for _, p in params:
        if p.grad is not None:
            total += float((np.asarray(p.grad, dtype=np.float64) ** 2).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for _, p in params:
            if p.grad is not None:
                g = np.asarray(p.grad)
                p.grad = g * np.asarray(scale, dtype=g.dtype)


def load_params_into(model: MeltModel, params: Mapping[str, np.ndarray]) -> None:
    """Replace every parameter of ``model`` by one copy of ``params[name]``."""
    for name, p in model.named_parameters():
        p.data = copy_param(name, params[name], p.data.shape, model.dtype)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
#
# One line of JSON (version, config, manifest of name/shape pairs, dev MSE,
# epoch, seed, optional extras), a newline, then the raw little-endian
# float32 parameter blocks concatenated in manifest order.


class CheckpointError(RuntimeError):
    """Base class for unreadable checkpoints."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointManifestError(CheckpointError):
    pass


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
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_manifest_entry(entry) -> bool:
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(isinstance(n, int) and n >= 0 for n in entry[1]))


def load_params(path) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Header and parameter blocks; the arrays are read-only views of the bytes read."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise CheckpointTruncatedError("checkpoint header line is incomplete")
        try:
            header = json.loads(line)
        except json.JSONDecodeError:
            raise CheckpointManifestError("checkpoint header is not valid JSON") from None
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint version {header.get('version')!r}, "
                f"this build reads version {CHECKPOINT_VERSION}")
        manifest = header.get("manifest")
        if not isinstance(manifest, list):
            raise CheckpointManifestError("checkpoint header lacks a manifest")
        params: Dict[str, np.ndarray] = {}
        for i, entry in enumerate(manifest):
            if not _is_manifest_entry(entry):
                raise CheckpointManifestError(
                    f"manifest entry {i} is not a [name, shape] pair: {json.dumps(entry)}")
            name, shape = entry[0], tuple(entry[1])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 4)
            if len(raw) != count * 4:
                raise CheckpointTruncatedError(
                    f"checkpoint ends mid-block for parameter '{name}'")
            params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
        if fh.read(1):
            raise CheckpointManifestError("trailing bytes after the last manifest block")
    return header, params


def save_checkpoint(path, model: MeltModel, *, dev_mse: float, epoch: int, seed: int,
                    params: Optional[Mapping[str, np.ndarray]] = None,
                    extra: Optional[dict] = None) -> None:
    """Persist model parameters (or an explicit snapshot) with metadata."""
    header = {
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
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


def load_checkpoint(path) -> Tuple[MeltModel, dict]:
    """Rebuild a model whose forward outputs are bit-identical to the saved one."""
    header, params = load_params(path)
    if not isinstance(header.get("config"), dict):
        raise CheckpointManifestError("checkpoint header lacks a 'config' object")
    try:
        config = MeltConfig(**header["config"])
    except TypeError as exc:
        raise CheckpointManifestError(f"checkpoint 'config' does not fit: {exc}") from None
    layout_error = CheckpointManifestError("manifest does not match this model layout")
    try:
        model = MeltModel(config, seed=header.get("seed", 0), params=params)
    except KeyError:
        raise layout_error from None
    manifest = [entry[0] for entry in header["manifest"]]
    if [name for name, _ in model.named_parameters()] != manifest:
        raise layout_error
    return model, header
