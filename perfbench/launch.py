"""Run one melt CLI command in this interpreter and record timing spans.

Usage: python3 launch.py --spans OUT.json --mode {coarse,full} -- <melt args>

The benchmark starts every CLI command through this file, in a fresh
interpreter, so that each command pays the start-up a user pays. The
launcher imports ``melt.cli``, wraps the names the consumer modules
import (``melt.pretrain.backward``, ``melt.stance.embed_token_batch``,
``AdamW.step`` and so on) and then calls ``melt.cli.main``. Nothing under
``src/melt`` is changed: the wrappers replace module attributes only in
this process.

Spans are kept in memory as (name, start, end, parent, attrs) and written
to ``--spans`` when the command ends, whatever its exit code. Times come
from CLOCK_MONOTONIC, which is system-wide on Linux, so the benchmark can
line them up with the launch and exit times it records itself.

``coarse`` mode records only the work calls (``pretrain.train``,
``pretrain.evaluate_dev``, ``stance.finetune``, ``stance.predict``) and is
used for the end-to-end numbers. ``full`` mode wraps every layer boundary
listed in ``full_hooks`` and is used for the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Recorder:
    """In-memory span store; one per process, single-threaded (--jobs 1)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent_index, attrs]
        self.stack = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, now(), None, parent, {}])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = now()
        self.stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` timed as span ``name``.

        ``attrs(args, kwargs, result)`` runs after the span has closed, so
        the counts it computes do not add to the measured time.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if attrs is not None:
                recorder.spans[index][4] = attrs(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))


def _slot_counts(chunks, plans=None, targets=None) -> dict:
    slots = sum(len(c.slots) for c in chunks)
    real = sum(c.n_real for c in chunks)
    if plans is not None:
        selected = sum(len(p.selected_slots) for p in plans)
    else:
        selected = targets
    return {"slots": slots, "pad": slots - real, "real": real, "selected": selected}


def coarse_hooks(rec: Recorder) -> None:
    from melt import pretrain, stance

    rec.patch(pretrain, "train", "pretrain.train",
              lambda a, k, r: {"train_chunks": len(a[1]), "epochs": a[4].epochs})
    rec.patch(pretrain, "evaluate_dev", "pretrain.evaluate_dev",
              lambda a, k, r: {"dev_chunks": len(a[1])})
    rec.patch(stance, "finetune", "stance.finetune",
              lambda a, k, r: {"train_examples": len(a[3]), "epochs_run": len(r.history)})
    rec.patch(stance, "predict", "stance.predict",
              lambda a, k, r: {"examples": len(a[3])})


def full_hooks(rec: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    from melt import cli, metrics, model, optim, pretrain, stance, wordenc

    coarse_hooks(rec)

    # corpus: ingest and chunking, as the CLI and the training loops call them
    rec.patch(cli, "ingest_jsonl", "corpus.ingest_jsonl",
              lambda a, k, r: {"messages": sum(len(v) for v in r.values())})
    rec.patch(cli, "ingest_stance_jsonl", "corpus.ingest_stance_jsonl",
              lambda a, k, r: {"messages": len(
                  {m.message_id for e in r for m in [e.target, *e.history]})})
    rec.patch(cli, "load_manifest", "cli.load_manifest",
              lambda a, k, r: {"chunks": len(r)})
    rec.patch(cli, "build_chunks", "corpus.build_chunks",
              lambda a, k, r: {"chunks": len(r)})
    rec.patch(stance, "build_finetune_sequence", "corpus.build_finetune_sequence",
              lambda a, k, r: {"chunks": 1})
    rec.patch(pretrain, "apply_masking", "corpus.apply_masking")

    # wordenc: the table is a class the CLI both calls and tests with
    # isinstance, so it is wrapped by a subclass rather than a function.
    base = cli.HashEmbeddingEncoder

    class TracedHashEmbeddingEncoder(base):
        def __init__(self, *args, **kwargs):
            index = rec.open("wordenc.HashEmbeddingEncoder")
            try:
                super().__init__(*args, **kwargs)
            finally:
                rec.close(index)

    cli.HashEmbeddingEncoder = TracedHashEmbeddingEncoder
    rec.patch(cli, "compute_message_vectors", "wordenc.compute_message_vectors",
              lambda a, k, r: {"messages": len(r)})
    for cls in (wordenc.FrozenWordLevel, wordenc.TrainableHashWordLevel,
                wordenc.TrainableAdapterWordLevel):
        rec.patch(cls, "batch_vectors", "wordenc.batch_vectors",
                  lambda a, k, r: {"messages": len(a[1])})

    # model
    rec.patch(model.MeltModel, "__init__", "model.MeltModel.init")
    rec.patch(pretrain, "embed_batch", "model.embed_batch",
              lambda a, k, r: _slot_counts(a[1], plans=a[2]))
    rec.patch(stance, "embed_token_batch", "model.embed_token_batch",
              lambda a, k, r: _slot_counts(a[1], targets=len(a[1])))
    rec.patch(model.MeltModel, "forward", "model.MeltModel.forward")
    rec.patch(model.MeltModel, "reconstruct_rows", "model.MeltModel.reconstruct_rows")
    rec.patch(stance.StanceHead, "forward", "stance.StanceHead.forward")

    # tensor: backward as each training loop imports it
    rec.patch(pretrain, "backward", "tensor.backward")
    rec.patch(stance, "backward", "tensor.backward")

    # optim: counts taken before the step, since the step clears the grads
    step = optim.AdamW.step

    @functools.wraps(step)
    def traced_step(self, *args, **kwargs):
        values = sum(p.data.size for _, p in self.params if p.grad is not None)
        state = sum(s.m.nbytes + s.v.nbytes for s in self.states.values())
        index = rec.open("optim.AdamW.step")
        try:
            return step(self, *args, **kwargs)
        finally:
            rec.close(index)
            rec.spans[index][4] = {"values": values, "state_bytes": state}

    optim.AdamW.step = traced_step

    # checkpoints
    rec.patch(cli, "save_checkpoint", "pretrain.save_checkpoint",
              lambda a, k, r: {"bytes": os.path.getsize(a[0])})
    rec.patch(cli, "load_checkpoint", "pretrain.load_checkpoint")
    rec.patch(pretrain, "load_params_into", "pretrain.load_params_into")

    # metrics, as the CLI calls them (report is also reached from inside
    # per_target_report, which shows as a child span)
    rec.patch(metrics, "per_target_report", "metrics.per_target_report")
    rec.patch(metrics, "report", "metrics.report")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: launch.py --spans OUT.json --mode {coarse,full} -- <melt args>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    own, melt_args = argv[:split], argv[split + 1:]
    opts = dict(zip(own[0::2], own[1::2]))
    spans_path, mode = opts["--spans"], opts["--mode"]

    rec = Recorder()
    started = now()
    code = 1
    try:
        index = rec.open("cli.import")
        try:
            from melt import cli
        finally:
            rec.close(index)
        (full_hooks if mode == "full" else coarse_hooks)(rec)
        index = rec.open("cli.main")
        try:
            code = cli.main(melt_args)
        finally:
            rec.close(index)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"started": started, "mode": mode, "argv": melt_args,
                       "exit": code, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
