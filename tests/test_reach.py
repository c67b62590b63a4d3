"""Every function in the ``melt`` package is reached by some command.

``MATRIX`` runs each command in-process, at a small width, under
``sys.setprofile`` and ``threading.setprofile``: pre-training pools its
vectors on a worker thread, which only the thread hook sees. Every ``def``
and ``lambda`` in the package, nested ones included, must be entered by
some run. Comprehensions are expressions, not functions, and are not
counted. The only exceptions are the failure paths in ``FAILURE_PATHS``.

Run it alone with ``python -m pytest tests/test_reach.py``. When it names a
function that no command enters, delete that function (moving what only
tests need into ``tests/``), or add the run that reaches it to ``MATRIX``.
"""

import inspect
import os
import sys
import threading
from types import CodeType

import melt
from melt.cli import main
from melt.corpus import all_messages
from melt.wordenc import HashEmbeddingEncoder, compute_message_vectors
from synthdata import (marker_corpus, stance_corpus, write_corpus_jsonl, write_stance_jsonl,
                       write_vector_file)

PACKAGE = os.path.dirname(os.path.realpath(melt.__file__))

# Entered only when a run fails, so no command of a working run reaches them.
FAILURE_PATHS = {
    "pretrain.TrainingDivergedError.__init__",  # a loss or dev score that is not finite
    "tensor._swept",  # the rule of a record that backward has already swept
}

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

TABLE = ["--word-buckets", "256", "--word-seed", "3"]
MODEL = ["--d-model", "16", "--layers", "1", "--ff-dim", "32", "--heads", "2",
         "--seq-len", "8", *TABLE]
HEAD = ["--head-hidden1", "16", "--head-hidden2", "8", "--epochs", "2", "--patience", "0"]
WORD = ["--d-model", "16", *TABLE, *HEAD]
VECTORS = "precomputed:{vectors}"

# (out, argv, MELT_* variables); "{name}" in an argument is a path of the run's root
MATRIX = [
    ("prep", ["prep", "--corpus", "{corpus}", "--seq-len", "8"], {}),
    ("pre_hash", ["pretrain", "--corpus", "{corpus}", "--manifest", "{prep}/manifest.jsonl",
                  *MODEL, "--epochs", "1", "--batch-size", "4", "--warmup-steps", "1",
                  "--grad-clip", "0.01"], {}),
    ("pre_vec", ["pretrain", "--corpus", "{corpus}", "--manifest", "{prep}/manifest.jsonl",
                 *MODEL, "--epochs", "1", "--batch-size", "4", "--word-encoder", VECTORS], {}),
    ("ft_ckpt", ["finetune", "--stance", "{stance}", "--checkpoint",
                 "{pre_hash}/checkpoint.melt", *TABLE, *HEAD], {}),
    ("ft_unfreeze_hash", ["finetune", "--stance", "{stance}", "--checkpoint",
                          "{pre_hash}/checkpoint.melt", "--unfreeze-word", *TABLE, *HEAD],
                          {}),
    ("ft_unfreeze_vec", ["finetune", "--stance", "{stance}", "--checkpoint",
                         "{pre_vec}/checkpoint.melt", "--word-encoder", VECTORS,
                         "--unfreeze-word", *HEAD], {}),
    ("ft_sweep", ["finetune", "--stance", "{stance}", "--rand-init", *MODEL, *HEAD,
                  "--history-len", "2,4"], {}),
    ("ft_pooled", ["finetune", "--stance", "{stance}", "--rand-init", *MODEL, *HEAD,
                   "--pooled"], {}),
    ("word", ["finetune", "--stance", "{stance}", "--config", "{word_config}"], {}),
    ("word_hist", ["finetune", "--stance", "{stance}", "--arch", "word-hist", *WORD],
     {"MELT_LR": "0.002"}),
    ("mfc", ["finetune", "--stance", "{stance}", "--arch", "mfc"], {}),
    ("eval", ["evaluate", "--predictions", "{ft_ckpt}/predictions.csv", "--gold", "{stance}"],
     {}),
]


def write_inputs(root) -> dict:
    """The matrix's input files under ``root``, by the names its arguments use."""
    paths = {name: os.path.join(root, name) for name, _, _ in MATRIX}
    paths.update(corpus=os.path.join(root, "corpus.jsonl"),
                 stance=os.path.join(root, "stance.jsonl"),
                 vectors=os.path.join(root, "vectors.tsv"),
                 word_config=os.path.join(root, "word.json"))
    corpus = marker_corpus(n_users=4, n_msgs=30, seed=4)
    stance = stance_corpus(40, n_history=6, seed=21, split_fracs=(0.6, 0.2),
                           targets=("abortion", "climate"))
    write_corpus_jsonl(paths["corpus"], corpus)
    write_stance_jsonl(paths["stance"], stance)
    write_vector_file(paths["vectors"], 16, compute_message_vectors(
        corpus + all_messages(stance), HashEmbeddingEncoder(16, 256, 3)).items())
    with open(paths["word_config"], "w", encoding="utf-8") as fh:
        fh.write('{"arch": "word", "d_model": 16, "word_buckets": 256, "word_seed": 3, '
                 '"head_hidden1": 16, "head_hidden2": 8, "epochs": 2, "patience": 0}\n')
    return paths


def run_matrix(root) -> None:
    """Run every command of ``MATRIX`` with its outputs under ``root``."""
    paths = write_inputs(root)
    for out, argv, env in MATRIX:
        os.environ.update(env)
        try:
            code = main([arg.format(**paths) for arg in argv] + ["--out", paths[out]])
        finally:
            for key in env:
                del os.environ[key]
        assert code == 0, out


def package_functions() -> dict:
    """``module.qualname`` of every def and lambda in the package, by code location."""
    found = {}
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, filename)
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, CodeType):
                    stack.append(const)
                    # a class body runs at import, and is not a function
                    if const.co_flags & inspect.CO_OPTIMIZED \
                            and const.co_name not in COMPREHENSIONS:
                        found[(path, const.co_firstlineno, const.co_qualname)] = \
                            f"{filename[:-3]}.{const.co_qualname}"
    return found


def entered_code(run) -> set:
    """The code objects that ``run()`` enters on any thread."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    before = sys.getprofile(), threading.getprofile()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(before[0])
        threading.setprofile(before[1])
    return entered


def test_every_function_is_reached_by_a_command(tmp_path):
    entered = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname)
               for code in entered_code(lambda: run_matrix(str(tmp_path)))}
    functions = package_functions()
    missed = sorted(f"{name} (line {key[1]})" for key, name in functions.items()
                    if key not in entered and name not in FAILURE_PATHS)
    assert not missed, "no command enters:\n" + "\n".join(missed)
    assert FAILURE_PATHS <= set(functions.values())
