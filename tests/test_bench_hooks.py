"""The benchmark's traced mode wraps melt functions by module attribute.

``perfbench/launch.py`` replaces names such as ``melt.stance.embed_token_batch``
or ``MeltModel.forward`` with timed wrappers, and raises AttributeError when
one has gone. These tests install its hooks in a fresh interpreter, so a
rename in ``melt`` fails here rather than in a traced benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import numpy as np
import launch
rec = launch.Recorder()
launch.full_hooks(rec)
from melt.model import MeltConfig, MeltModel
from melt.tensor import Tensor
model = MeltModel(MeltConfig(n_layers=1, d_model=8, ff_dim=16, n_heads=2, max_seq=4))
model.forward(Tensor(np.zeros((2, 4, 8), dtype=np.float32)), np.ones((2, 4), dtype=bool),
              rows=np.zeros((2, 1), dtype=np.int64))
print(" ".join(sorted({span[0] for span in rec.spans})))
"""


def test_full_hooks_install_and_record():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["model.MeltModel.forward", "model.MeltModel.init"]


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
