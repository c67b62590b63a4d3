"""The benchmark's traced mode wraps melt functions by module attribute.

``perfbench/launch.py`` replaces names such as ``melt.stance.embed_token_batch``
or ``MeltModel.forward`` with timed wrappers, and raises AttributeError when
one has gone. These tests install its hooks in a fresh interpreter and
drive the pre-training and fine-tuning forwards through them, so a rename
or a changed signature in ``melt`` fails here rather than in a traced
benchmark run. The last test drives whole commands through the coarse
hooks and reads the end-to-end metrics from their spans.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
import time

from synthdata import marker_corpus, stance_corpus, write_corpus_jsonl, write_stance_jsonl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import numpy as np
import launch
rec = launch.Recorder()
launch.full_hooks(rec)
from melt import pretrain, stance
from melt.corpus import Action, MaskPlan, RawMessage, SequenceChunk, StanceExample
from melt.model import MeltConfig, MeltModel
from melt.tensor import Tensor
from melt.wordenc import FrozenWordLevel
model = MeltModel(MeltConfig(n_layers=1, d_model=8, ff_dim=16, n_heads=2, max_seq=4))
model.forward(Tensor(np.zeros((2, 4, 8), dtype=np.float32)), np.ones((2, 4), dtype=bool),
              rows=np.arange(4) == np.array([[0], [3]]))
messages = [RawMessage("u", f"m{i}", i, f"text {i}") for i in range(3)]
vectors = {m.message_id: np.full(8, i, dtype=np.float32) for i, m in enumerate(messages)}
chunk = SequenceChunk("u", (*messages, None))
plan = MaskPlan((Action.MASK_TOKEN, Action.KEEP, Action.KEEP, Action.KEEP),
                {0: vectors["m0"]})
pretrain._forward_masked(model, [chunk], [plan], vectors, train=False, rng=None)
example = StanceExample(messages[2], "favor", "climate", messages[:2])
head = stance.StanceHead(8, hidden1=4, hidden2=4)
stance._forward_examples(model, head, FrozenWordLevel(8, vectors), [example], None,
                         p_drop=0.0, train=False, rng=None)
print(" ".join(sorted({span[0] for span in rec.spans})))
"""


def test_full_hooks_install_and_record():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert {"model.embed_batch", "model.embed_token_batch", "model.MeltModel.forward",
            "model.MeltModel.reconstruct_rows", "model.MeltModel.init",
            "stance.StanceHead.forward"} <= set(proc.stdout.split())


WORD_LEVEL_SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import launch
rec = launch.Recorder()
launch.full_hooks(rec)
from melt.corpus import RawMessage
from melt.wordenc import HashEmbeddingEncoder, TrainableHashWordLevel
messages = [RawMessage("u", "m0", 0, "alpha beta"), RawMessage("u", "m1", 1, "")]
level = TrainableHashWordLevel(HashEmbeddingEncoder(dim=4, buckets=64, seed=0), messages)
level.batch_vectors(messages)
print(" ".join(sorted({span[0] for span in rec.spans})))
"""


def test_full_hooks_record_the_word_level_built_from_messages():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", WORD_LEVEL_SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["wordenc.batch_vectors"]


PRETRAIN_SCRIPT = """
import json, os, sys, tempfile
sys.path.insert(0, "perfbench")
sys.path.insert(0, "tests")
import launch
from synthdata import marker_corpus, write_corpus_jsonl
rec = launch.Recorder()
launch.full_hooks(rec)
from melt import cli
work = tempfile.mkdtemp()
corpus = os.path.join(work, "corpus.jsonl")
write_corpus_jsonl(corpus, marker_corpus(n_users=4, n_msgs=45, seed=4))
assert cli.main(["prep", "--corpus", corpus, "--out", os.path.join(work, "prep")]) == 0
first = len(rec.spans)
code = cli.main(["pretrain", "--corpus", corpus,
                 "--manifest", os.path.join(work, "prep", "manifest.jsonl"),
                 "--out", os.path.join(work, "pre"), "--layers", "1", "--d-model", "16",
                 "--ff-dim", "32", "--heads", "2", "--word-buckets", "256",
                 "--epochs", "1", "--batch-size", "4"])
print(json.dumps({"exit": code, "spans": [s[:3] for s in rec.spans[first:]]}))
"""


def test_full_hooks_record_the_pretraining_worker():
    # pre-training pools on a worker thread; its span must be recorded and closed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", PRETRAIN_SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["exit"] == 0
    for name in ("wordenc.compute_message_vectors", "model.MeltModel.init"):
        spans = [span for span in record["spans"] if span[0] == name]
        assert len(spans) == 1, name
        assert spans[0][2] is not None and spans[0][2] >= spans[0][1], name


def _launch(work: str, name: str, *args: str):
    """One melt command through ``launch.py --mode coarse``, as the benchmark starts it."""
    spans = _perfbench_module("spans")
    spans_path = os.path.join(work, f"{name}.spans.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    with open(os.path.join(work, f"{name}.log"), "wb") as log:
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen([sys.executable, os.path.join(ROOT, "perfbench", "launch.py"),
                                 "--spans", spans_path, "--mode", "coarse", "--", name, *args],
                                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        exited = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, open(os.path.join(work, f"{name}.log")).read()[-2000:]
    with open(spans_path, encoding="utf-8") as fh:
        record = json.load(fh)
    return spans.Command(name, launched, exited, proc.returncode, usage.ru_maxrss,
                         started=record["started"], spans=record["spans"])


def _perfbench_module(name: str):
    """``perfbench/<name>.py``, imported once as ``perfbench_<name>``."""
    if f"perfbench_{name}" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[f"perfbench_{name}"]


def test_coarse_spans_give_every_end_to_end_metric(tmp_path):
    # the benchmark reads the work calls by position; a changed signature
    # shows here as a missing, zero or non-finite metric
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = [metric["name"] for metric in json.load(fh)["end_to_end"]]
    spans = _perfbench_module("spans")
    work = str(tmp_path)
    corpus, stance = tmp_path / "corpus.jsonl", tmp_path / "stance.jsonl"
    write_corpus_jsonl(corpus, marker_corpus(n_users=4, n_msgs=45, seed=4))
    write_stance_jsonl(stance, stance_corpus(120, n_history=6, seed=21,
                                             split_fracs=(0.6, 0.2)))
    model = ["--layers", "1", "--d-model", "16", "--ff-dim", "32", "--heads", "2",
             "--word-buckets", "256"]
    pretrain = [_launch(work, "prep", "--corpus", str(corpus), "--out", f"{work}/prep"),
                _launch(work, "pretrain", "--corpus", str(corpus),
                        "--manifest", f"{work}/prep/manifest.jsonl", "--out", f"{work}/pre",
                        *model, "--epochs", "1", "--batch-size", "4")]
    finetune = [_launch(work, "finetune", "--stance", str(stance),
                        "--checkpoint", f"{work}/pre/checkpoint.melt", "--out", f"{work}/ft",
                        "--word-buckets", "256", "--head-hidden1", "16", "--head-hidden2", "8",
                        "--epochs", "2"),
                _launch(work, "evaluate", "--predictions", f"{work}/ft/predictions.csv",
                        "--gold", str(stance))]
    for commands, train_command in ((pretrain, "pretrain"), (finetune, "finetune")):
        metrics = spans.end_to_end(commands, train_command)
        assert sorted(metrics) == sorted(wanted), train_command
        for name in wanted:
            assert math.isfinite(metrics[name]) and metrics[name] > 0, (train_command, name)
