"""Turn the launcher's span files into end-to-end and per-layer numbers.

A ``Command`` is one CLI process: the launch and exit times the benchmark
took around it, its exit code, its peak RSS and the spans ``launch.py``
wrote. Everything here is pure arithmetic on those records, so the
self-check can feed it hand-made spans.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

# Spans that are envelopes around a whole command, not a layer of it.
ENVELOPES = ("cli.main",)
WORK_CALLS = ("pretrain.train", "stance.finetune")


@dataclass
class Command:
    name: str
    launched: float
    exited: float
    exit_code: int
    rss_kb: int
    started: Optional[float] = None  # first statement of launch.py
    spans: List[list] = field(default_factory=list)  # [name, t0, t1, parent, attrs]

    @property
    def wall(self) -> float:
        return self.exited - self.launched

    def named(self, *names: str) -> List[list]:
        return [s for s in self.spans if s[0] in names]


def duration(span) -> float:
    return span[2] - span[1]


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def self_times(commands: Iterable[Command]) -> Dict[str, dict]:
    """Per span name: calls, inclusive seconds, and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; with one thread, children lie inside their parent and do not
    overlap one another.
    """
    table: Dict[str, dict] = {}
    for cmd in commands:
        child_time = [0.0] * len(cmd.spans)
        for span in cmd.spans:
            if span[3] >= 0:
                child_time[span[3]] += duration(span)
        for i, span in enumerate(cmd.spans):
            row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration(span)
            row["self_s"] += duration(span) - child_time[i]
    return table


def coverage(cmd: Command) -> float:
    """Share of the command's in-process time that layer spans cover.

    The denominator runs from the launcher's first statement to the return
    of ``melt.cli.main``; interpreter start-up and tear-down lie outside
    every span and are reported apart (``process_overhead_s``). The
    numerator is the time under the top-level layer spans, which contain
    all their children.
    """
    envelopes = {i for i, s in enumerate(cmd.spans) if s[0] in ENVELOPES}
    main_end = max(s[2] for s in cmd.spans)
    inside = main_end - cmd.started
    covered = sum(duration(s) for s in cmd.spans
                  if s[0] not in ENVELOPES and (s[3] < 0 or s[3] in envelopes))
    return covered / inside if inside > 0 else 0.0


def process_overhead_s(cmd: Command) -> float:
    """Interpreter start-up plus tear-down: the command's wall outside launch.py."""
    main_end = max(s[2] for s in cmd.spans)
    return (cmd.started - cmd.launched) + (cmd.exited - main_end)


def _sum(cmds, *names) -> float:
    return sum(duration(s) for c in cmds for s in c.named(*names))


def _count(cmds, *names) -> int:
    return sum(len(c.named(*names)) for c in cmds)


def _attr(cmds, names, key) -> float:
    return sum(s[4].get(key, 0) for c in cmds for s in c.named(*names))


def _inside(cmd: Command, span, outer_names) -> bool:
    parent = span[3]
    while parent >= 0:
        if cmd.spans[parent][0] in outer_names:
            return True
        parent = cmd.spans[parent][3]
    return False


def end_to_end(commands: Sequence[Command], train_command: str) -> Dict[str, float]:
    """Numbers one iteration of a workload gives, from coarse boundaries only.

    ``train_items_per_s`` and ``eval_items_per_s`` read the work calls:
    pre-training counts train chunks x epochs inside ``pretrain.train`` and
    dev chunks inside ``pretrain.evaluate_dev``; fine-tuning counts train
    examples x epochs run inside ``stance.finetune`` and test examples
    inside ``stance.predict``.
    """
    train_cmd = next(c for c in commands if c.name == train_command)
    first_work = min(s[1] for s in train_cmd.named(*WORK_CALLS))
    if train_command == "pretrain":
        train_items = sum(s[4]["train_chunks"] * s[4]["epochs"]
                          for c in commands for s in c.named("pretrain.train"))
        train_s = _sum(commands, "pretrain.train")
        eval_items = _attr(commands, ["pretrain.evaluate_dev"], "dev_chunks")
        eval_s = _sum(commands, "pretrain.evaluate_dev")
    else:
        train_items = sum(s[4]["train_examples"] * s[4]["epochs_run"]
                          for c in commands for s in c.named("stance.finetune"))
        train_s = _sum(commands, "stance.finetune")
        eval_items = _attr(commands, ["stance.predict"], "examples")
        eval_s = _sum(commands, "stance.predict")
    return {
        "setup_s": first_work - train_cmd.launched,
        "wall_s": commands[-1].exited - commands[0].launched,
        "peak_rss_mb": max(c.rss_kb for c in commands) / 1024.0,
        "train_items_per_s": train_items / train_s,
        "eval_items_per_s": eval_items / eval_s,
    }


def _step_intervals(cmd: Command) -> List[float]:
    """Intervals between AdamW.step returns inside pretrain.train.

    The first interval starts at the entry of pretrain.train, so a run of a
    single step still has one.
    """
    out = []
    for train in cmd.named("pretrain.train"):
        marks = [train[1]] + [s[2] for s in cmd.named("optim.AdamW.step")
                              if train[1] <= s[1] and s[2] <= train[2]]
        out.extend(b - a for a, b in zip(marks, marks[1:]))
    return out


def _stance_steps(cmd: Command) -> List[float]:
    """Fine-tuning step: start of its batch_vectors call to the end of its AdamW.step.

    Each step reads its batch's message vectors first; the latest
    batch_vectors span before a step's optimizer call therefore opens it.
    Steps are taken this way, not as intervals between optimizer calls,
    because one epoch of a small train set is a single step and every such
    interval would also hold a dev evaluation.
    """
    out = []
    last_vectors = None
    for span in cmd.spans:
        if span[0] == "wordenc.batch_vectors":
            last_vectors = span[1]
        elif span[0] == "optim.AdamW.step" and _inside(cmd, span, ("stance.finetune",)):
            if last_vectors is not None:
                out.append(span[2] - last_vectors)
    return out


def _median_or_none(values):
    return statistics.median(values) if values else None


def per_layer(commands: Sequence[Command]) -> Dict[str, Optional[float]]:
    """Per-module numbers of one traced iteration; None where a layer is not run."""
    by_name = {c.name: c for c in commands}
    embeds = [s[4] for c in commands for s in c.named("model.embed_batch",
                                                      "model.embed_token_batch")]
    slots = sum(e["slots"] for e in embeds)
    real = sum(e["real"] for e in embeds)
    steps = [s[4] for c in commands for s in c.named("optim.AdamW.step")]
    pretrain_steps = [s for c in commands for s in c.named("optim.AdamW.step")
                      if _inside(c, s, ("pretrain.train",))]
    stance_steps = [s for c in commands for s in c.named("optim.AdamW.step")
                    if _inside(c, s, ("stance.finetune",))]
    metric_spans = [duration(s) for c in commands for s in c.spans
                    if s[0].startswith("metrics.") and
                    (s[3] < 0 or not c.spans[s[3]][0].startswith("metrics."))]

    def wall(name):
        return by_name[name].wall if name in by_name else None

    def timed(*names):
        return _sum(commands, *names) if _count(commands, *names) else None

    covs = [coverage(c) for c in commands]
    return {
        "cli.import_s": _sum(commands, "cli.import"),
        "cli.prep_s": wall("prep"),
        "cli.pretrain_s": wall("pretrain"),
        "cli.finetune_s": wall("finetune"),
        "cli.evaluate_s": wall("evaluate"),
        "corpus.ingest_s": _sum(commands, "corpus.ingest_jsonl",
                                "corpus.ingest_stance_jsonl", "cli.load_manifest"),
        "corpus.messages": _attr(commands, ["corpus.ingest_jsonl",
                                            "corpus.ingest_stance_jsonl"], "messages"),
        "corpus.chunk_s": _sum(commands, "corpus.build_chunks",
                               "corpus.build_finetune_sequence"),
        "corpus.chunks": _attr(commands, ["corpus.build_chunks",
                                          "corpus.build_finetune_sequence"], "chunks"),
        "corpus.mask_s": timed("corpus.apply_masking"),
        "corpus.mask_calls": _count(commands, "corpus.apply_masking"),
        "corpus.pad_slot_share": (slots - real) / slots if slots else None,
        "corpus.selected_slot_share":
            sum(e["selected"] for e in embeds) / real if real else None,
        "wordenc.table_build_s": _sum(commands, "wordenc.HashEmbeddingEncoder"),
        "wordenc.vectors_s": _sum(commands, "wordenc.compute_message_vectors"),
        "wordenc.messages_encoded": _attr(commands, ["wordenc.compute_message_vectors"],
                                          "messages"),
        "wordenc.batch_vectors_s": timed("wordenc.batch_vectors"),
        "wordenc.batch_vectors_calls": _count(commands, "wordenc.batch_vectors"),
        "model.embed_s": _sum(commands, "model.embed_batch", "model.embed_token_batch"),
        "model.embed_calls": _count(commands, "model.embed_batch",
                                    "model.embed_token_batch"),
        "model.forward_s": _sum(commands, "model.MeltModel.forward"),
        "model.forward_calls": _count(commands, "model.MeltModel.forward"),
        "model.head_s": _sum(commands, "model.MeltModel.reconstruct_rows",
                             "stance.StanceHead.forward"),
        "tensor.backward_s": _sum(commands, "tensor.backward"),
        "tensor.backward_calls": _count(commands, "tensor.backward"),
        "optim.step_s": _sum(commands, "optim.AdamW.step"),
        "optim.step_calls": len(steps),
        "optim.values_updated": _median_or_none([s["values"] for s in steps]),
        "optim.state_mb": max(s["state_bytes"] for s in steps) / 1e6 if steps else None,
        "pretrain.step_s": _median_or_none(
            [x for c in commands for x in _step_intervals(c)]),
        "pretrain.steps": len(pretrain_steps),
        "pretrain.dev_eval_s": timed("pretrain.evaluate_dev"),
        "pretrain.checkpoint_save_s": _sum(commands, "pretrain.save_checkpoint"),
        "pretrain.checkpoint_bytes": _attr(commands, ["pretrain.save_checkpoint"], "bytes"),
        "pretrain.checkpoint_load_s": timed("pretrain.load_checkpoint"),
        "stance.finetune_s": timed("stance.finetune"),
        "stance.epochs_run": _attr(commands, ["stance.finetune"], "epochs_run"),
        "stance.steps": len(stance_steps),
        "stance.step_s": _median_or_none([x for c in commands for x in _stance_steps(c)]),
        "stance.predict_s": timed("stance.predict"),
        "stance.predict_examples": _attr(commands, ["stance.predict"], "examples"),
        "metrics.report_s": sum(metric_spans) if metric_spans else None,
        "trace.coverage": min(covs),
    }
