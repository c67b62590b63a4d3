"""Benchmark for melt: drive the real CLI over seeded synthetic corpora.

Run from the root of a melt checkout:

    python3 perfbench/run.py --workload pretrain-paper --seed 1 --seconds 42 --trace 0

One benchmark process runs one CLI command at a time, each in a fresh
interpreter started through ``launch.py`` (a closed loop with one client,
``--jobs 1``, BLAS threads left at what the machine gives a user). Each
iteration runs the workload's commands once; iterations repeat until the
next one would end past ``--seconds``. Every command's outputs are checked.

With ``--trace 0`` only the work calls are timed and the end-to-end metrics
are reported. With ``--trace 1`` untraced and traced iterations alternate
in the order U T T U U T T U ..., so that a slow start or a drift within
the run falls on both kinds; the traced ones time every layer boundary and
give the per-layer metrics, and the difference in wall time between the
two kinds is the tracing overhead.

Human-readable tables, the environment record and the per-workload metric
names go to standard output; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A full record
of the run is written to ``.bench_work/results/``. Metric names, units and
bounds come from ``BENCHMARK.json``; ``perfbench/README.md`` says why each
workload and metric exists.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans as sp  # noqa: E402
import synth  # noqa: E402
from launch import now  # noqa: E402

LAUNCHER = os.path.join(HERE, "launch.py")
RUN_LIMIT_S = 170.0  # every run must end within 180 s
COVERAGE_FLAG = 0.95


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


@dataclass(frozen=True)
class Scale:
    """Model and table widths. ``PAPER`` is what the workloads measure;
    ``TINY`` lets the self-check run every workload in seconds."""

    name: str
    d_model: int
    ff_dim: int
    heads: int
    layers: int
    buckets: int

    def model_flags(self) -> List[str]:
        return ["--layers", str(self.layers), "--d-model", str(self.d_model),
                "--ff-dim", str(self.ff_dim), "--heads", str(self.heads),
                "--seq-len", str(synth.SEQ_LEN), "--word-buckets", str(self.buckets)]


PAPER = Scale("paper", d_model=768, ff_dim=2048, heads=8, layers=2, buckets=65536)
TINY = Scale("tiny", d_model=32, ff_dim=64, heads=4, layers=2, buckets=1024)

PRETRAIN_BATCH = 100
PRETRAIN_FULL_BATCHES = 1
PRETRAIN_DEV_FRACTION = "0.34"  # every third chunk: 50 dev chunks beside 100 train
CHECKPOINT_CHUNKS = 12  # corpus behind the fine-tuning workloads' checkpoint
FINETUNE_FLAGS = ["--batch-size", "10", "--epochs", "2", "--patience", "5", "--jobs", "1"]
# target -> (train, dev, test) examples
UNFROZEN_SPLITS = {"climate": (10, 4, 25), "feminism": (10, 4, 25)}
FROZEN_SPLITS = {"abortion": (10, 6, 80), "climate": (10, 6, 80), "feminism": (10, 6, 80)}


def chunks_for_train(n_train: int, stride: int) -> int:
    """Corpus chunk count whose 1-in-``stride`` dev split leaves n_train to train."""
    total = n_train
    while total - -(-total // stride) < n_train:
        total += 1
    return total


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def header(path) -> dict:
    with open(path, "rb") as fh:
        return json.loads(fh.readline())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class PretrainPaper:
    """prep -> pretrain at paper width: one full batch of 100 train chunks, 50 dev."""

    name = "pretrain-paper"
    train_command = "pretrain"
    aliases = [("pretrain_seq_per_s", "e2e", "train_items_per_s", "sequences/s"),
               ("dev_mse", "quality", "dev_loss", "mse")]

    def prepare(self, run: "Run") -> None:
        stride = max(2, round(1.0 / float(PRETRAIN_DEV_FRACTION)))  # as melt.cli splits
        n_chunks = chunks_for_train(PRETRAIN_FULL_BATCHES * PRETRAIN_BATCH, stride)
        self.corpus = os.path.join(run.dir, "corpus.jsonl")
        run.inputs = synth.write_corpus(self.corpus, run.rng, n_chunks)

    def commands(self, run: "Run", out: str):
        return [
            ("prep", ["--corpus", self.corpus, "--out", f"{out}/prep",
                      "--seq-len", str(synth.SEQ_LEN)]),
            ("pretrain", ["--corpus", self.corpus, "--manifest", f"{out}/prep/manifest.jsonl",
                          "--out", f"{out}/pre", *run.scale.model_flags(),
                          "--batch-size", str(PRETRAIN_BATCH), "--epochs", "1",
                          "--dev-fraction", PRETRAIN_DEV_FRACTION]),
        ]

    def outputs(self, out: str) -> Dict[str, str]:
        return {"prep/manifest.jsonl": "prep", "prep/stats.json": "prep",
                "pre/checkpoint.melt": "pretrain", "pre/history.csv": "pretrain",
                "pre/epochs.csv": "pretrain"}

    def check(self, run: "Run", out: str) -> List[tuple]:
        return []

    def quality(self, out: str) -> Dict[str, float]:
        return {"dev_loss": header(os.path.join(out, "pre/checkpoint.melt"))["dev_mse"]}


class Finetune:
    """finetune -> evaluate from a paper-width checkpoint written in preparation."""

    train_command = "finetune"
    aliases = [("finetune_ex_per_s", "e2e", "train_items_per_s", "examples/s"),
               ("predict_ex_per_s", "e2e", "eval_items_per_s", "examples/s"),
               ("weighted_f1", "quality", "weighted_f1", "share"),
               ("dev_cross_entropy", "quality", "dev_loss", "nats")]

    def __init__(self, name: str, unfreeze: bool, splits):
        self.name = name
        self.unfreeze = unfreeze
        self.splits = splits

    def prepare(self, run: "Run") -> None:
        corpus = os.path.join(run.dir, "ckpt_corpus.jsonl")
        synth.write_corpus(corpus, run.rng, CHECKPOINT_CHUNKS)
        self.stance = os.path.join(run.dir, "stance.jsonl")
        run.inputs = synth.write_stance(self.stance, run.rng, self.splits)
        prep_dir = os.path.join(run.dir, "prepare")
        os.makedirs(prep_dir)
        run.command("prep", ["--corpus", corpus, "--out", f"{prep_dir}/prep"], "coarse",
                    prep_dir)
        run.command("pretrain", ["--corpus", corpus, "--manifest",
                                 f"{prep_dir}/prep/manifest.jsonl", "--out", f"{prep_dir}/pre",
                                 *run.scale.model_flags(), "--batch-size",
                                 str(PRETRAIN_BATCH), "--epochs", "1"], "coarse", prep_dir)
        self.checkpoint = f"{prep_dir}/pre/checkpoint.melt"
        problem = run.load_check(self.checkpoint)
        if problem:
            run.fail(f"preparation: {problem}")
            raise CommandFailed("pretrain")

    def commands(self, run: "Run", out: str):
        word = "--unfreeze-word" if self.unfreeze else "--no-unfreeze-word"
        return [
            ("finetune", ["--stance", self.stance, "--checkpoint", self.checkpoint,
                          "--out", f"{out}/ft", word, "--word-buckets", str(run.scale.buckets),
                          *FINETUNE_FLAGS]),
            ("evaluate", ["--predictions", f"{out}/ft/predictions.csv", "--gold", self.stance,
                          "--out", f"{out}/ev"]),
        ]

    def outputs(self, out: str) -> Dict[str, str]:
        files = {"ft/predictions.csv": "finetune", "ev/metrics.csv": "evaluate",
                 "ev/metrics.txt": "evaluate"}
        for target in self.splits:
            files[f"ft/snapshot_{target}.melt"] = "finetune"
        return files

    def check(self, run: "Run", out: str) -> List[tuple]:
        """Each test example id exactly once; an aggregate row in metrics.csv."""
        problems = []
        with open(os.path.join(out, "ft/predictions.csv"), newline="",
                  encoding="utf-8") as fh:
            ids = [row["example_id"] for row in csv.DictReader(fh)]
        if sorted(ids) != sorted(run.inputs["test_ids"]):
            problems.append(("finetune", "predictions.csv does not hold each test id "
                             f"exactly once ({len(ids)} rows, "
                             f"{len(run.inputs['test_ids'])} test examples)"))
        if self.f1(out) is None:
            problems.append(("evaluate", "metrics.csv lacks the aggregate 'all' row"))
        return problems

    @staticmethod
    def f1(out: str) -> Optional[float]:
        with open(os.path.join(out, "ev/metrics.csv"), newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["target"] == "all"]
        return float(rows[0]["weighted_f1"]) if len(rows) == 1 else None

    def quality(self, out: str) -> Dict[str, float]:
        losses = [header(os.path.join(out, f"ft/snapshot_{t}.melt"))["dev_mse"]
                  for t in sorted(self.splits)]
        return {"dev_loss": statistics.fmean(losses), "weighted_f1": self.f1(out)}


WORKLOADS = {
    "pretrain-paper": lambda: PretrainPaper(),
    "finetune-unfrozen": lambda: Finetune("finetune-unfrozen", True, UNFROZEN_SPLITS),
    "finetune-frozen": lambda: Finetune("finetune-frozen", False, FROZEN_SPLITS),
}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _openblas_threads() -> Optional[int]:
    import ctypes

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment(root: str, seed: int) -> dict:
    """What a reader needs to tell whether two results are like for like."""
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "melt", "**", "*.py"),
                                 recursive=True)):
        source.update(os.path.relpath(path, root).encode())
        source.update(sha256(path).encode())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, root: str, workload_name: str, seed: int, seconds: int, trace: bool,
                 scale: Scale = PAPER):
        if not os.path.isfile(os.path.join(root, "src", "melt", "cli.py")):
            raise BenchError(f"no melt sources under {os.path.join(root, 'src')}; "
                             "run from the root of a melt checkout")
        if workload_name not in WORKLOADS:
            raise BenchError(f"unknown workload '{workload_name}'; "
                             f"choose from {', '.join(WORKLOADS)}")
        import numpy as np

        if os.path.join(root, "src") not in sys.path:
            sys.path.insert(0, os.path.join(root, "src"))
        self.root = root
        self.workload = WORKLOADS[workload_name]()
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.rng = np.random.default_rng([seed, list(WORKLOADS).index(workload_name)])
        self.work = os.path.join(root, ".bench_work")
        tag = f"{workload_name}-seed{seed}-trace{int(trace)}-{scale.name}"
        self.dir = os.path.join(self.work, "runs", f"{tag}-{os.getpid()}")
        self.tag = tag
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("MELT_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.started = now()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.inputs: dict = {}
        self.reference: Optional[Dict[str, str]] = None
        self.kept: Optional[str] = None  # output of the first good iteration
        self.iterations: List[dict] = []

    # -- commands ---------------------------------------------------------

    def command(self, name: str, args: List[str], mode: str, out_dir: str) -> sp.Command:
        """Run one CLI command in a fresh interpreter; a failure is recorded."""
        spans_path = os.path.join(out_dir, f"{name}.spans.json")
        log_path = os.path.join(out_dir, f"{name}.log")
        argv = [sys.executable, LAUNCHER, "--spans", spans_path, "--mode", mode, "--",
                name, *args]
        limit = max(1.0, RUN_LIMIT_S - (now() - self.started))
        self.attempted += 1
        with open(log_path, "wb") as log:
            launched = now()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            exited = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cmd = sp.Command(name, launched, exited, proc.returncode, usage.ru_maxrss)
        if os.path.isfile(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                record = json.load(fh)
            cmd.started, cmd.spans = record["started"], record["spans"]
        if cmd.exit_code != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            self.fail(f"{name} exited with {cmd.exit_code}:\n{tail}")
            raise CommandFailed(name)
        return cmd

    def fail(self, message: str, commands: int = 1) -> None:
        self.failed += commands
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def load_check(self, path: str) -> Optional[str]:
        """None when the checkpoint loads with melt's own reader, else why not."""
        from melt.pretrain import CheckpointError, load_checkpoint

        try:
            load_checkpoint(path)
        except (CheckpointError, OSError, ValueError, KeyError) as exc:
            return f"{os.path.basename(path)} does not load: {exc}"
        return None

    # -- iterations -------------------------------------------------------

    def iteration(self, index: int, traced: bool) -> None:
        out = os.path.join(self.dir, f"it{index}")
        os.makedirs(out)
        plan = self.workload.commands(self, out)
        cmds: List[sp.Command] = []
        try:
            for name, args in plan:
                cmds.append(self.command(name, args, "full" if traced else "coarse", out))
        except CommandFailed:
            skipped = len(plan) - len(cmds) - 1
            if skipped:
                self.attempted += skipped
                self.fail(f"{skipped} later command(s) of iteration {index} not run",
                          commands=skipped)
            shutil.rmtree(out, ignore_errors=True)
            return
        failed = self.check_outputs(out, index)
        record = {"index": index, "traced": traced, "ok": not failed,
                  "wall_s": cmds[-1].exited - cmds[0].launched,
                  "commands": [{"name": c.name, "wall_s": c.wall, "exit": c.exit_code,
                                "rss_mb": c.rss_kb / 1024.0} for c in cmds]}
        if not failed:
            record["e2e"] = sp.end_to_end(cmds, self.workload.train_command)
            record["quality"] = self.workload.quality(out)
            if traced:
                record["layers"] = sp.per_layer(cmds)
                record["self_times"] = sp.self_times(cmds)
                record["coverage"] = {c.name: sp.coverage(c) for c in cmds}
                record["process_overhead_s"] = {c.name: sp.process_overhead_s(c)
                                                for c in cmds}
        self.iterations.append(record)
        if out != self.kept:
            shutil.rmtree(out, ignore_errors=True)

    def load_checks(self) -> None:
        """Checkpoints of the kept iteration load; the others hold the same bytes.

        Run after the timed loop so that loading does not eat into it. A file
        that does not load fails its command in every good iteration.
        """
        if self.kept is None:
            return
        outputs = self.workload.outputs(self.kept)
        for rel in sorted(r for r in outputs if r.endswith(".melt")):
            problem = self.load_check(os.path.join(self.kept, rel))
            if problem:
                for record in self.iterations:
                    if record["ok"]:
                        record["ok"] = False
                        self.fail(f"iteration {record['index']}: {problem}")

    def check_outputs(self, out: str, index: int) -> bool:
        """Files exist, the workload's own checks pass, bytes equal the reference.

        The reference is the first good iteration of this run, or the record
        an earlier run of the same sources and seed left in this checkout.
        Returns True when any check failed; each failing command counts once.
        """
        bad = set()
        outputs = self.workload.outputs(out)
        present = {rel: cmd for rel, cmd in outputs.items()
                   if os.path.isfile(os.path.join(out, rel))}
        for rel in sorted(set(outputs) - set(present)):
            bad.add(outputs[rel])
            self.problems.append(f"iteration {index}: {rel} missing")
        if not bad:
            for cmd, message in self.workload.check(self, out):
                bad.add(cmd)
                self.problems.append(f"iteration {index}: {message}")
        digests = {rel: sha256(os.path.join(out, rel)) for rel in present}
        if self.reference is None and not bad:
            self.reference = self.stored_digests() or digests
            self.kept = out
        if self.reference is not None:
            for rel, value in digests.items():
                if self.reference.get(rel) != value:
                    bad.add(outputs[rel])
                    self.problems.append(f"iteration {index}: {rel} bytes differ from an "
                                         "earlier run of this source and seed")
        for cmd in sorted(bad):
            self.fail(f"iteration {index}: output check of '{cmd}' failed")
        return bool(bad)

    # -- determinism record across runs of one checkout -------------------

    def digest_path(self) -> str:
        """One record per program source, benchmark source, workload, seed and scale."""
        key = hashlib.sha256(self.environment["source_sha256"].encode())
        for path in sorted(glob.glob(os.path.join(HERE, "*.py"))):
            key.update(sha256(path).encode())
        return os.path.join(self.work, "digests",
                            f"{key.hexdigest()[:16]}-{self.workload.name}-seed{self.seed}-"
                            f"{self.scale.name}.json")

    def stored_digests(self) -> Optional[Dict[str, str]]:
        path = self.digest_path()
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        return None

    def store_digests(self) -> None:
        if self.failed or self.reference is None or self.stored_digests() is not None:
            return
        path = self.digest_path()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.reference, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)

    # -- the whole run ----------------------------------------------------

    def execute(self) -> None:
        self.environment = environment(self.root, self.seed)
        os.makedirs(self.dir)
        try:
            self.workload.prepare(self)
        except CommandFailed:
            return
        began = now()
        durations: List[float] = []
        while True:
            # At least two iterations, so that no median rests on one sample.
            expected = statistics.fmean(durations) if durations else 0.0
            if len(durations) >= 2 and now() - began + expected > self.seconds:
                break
            if now() - self.started + expected > RUN_LIMIT_S:
                break
            t0 = now()
            index = len(durations)
            self.iteration(index, traced=self.trace and index % 4 in (1, 2))
            durations.append(now() - t0)
        self.load_checks()
        self.store_digests()

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class CommandFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def load_spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def summarise(run: Run, spec: dict) -> dict:
    """Medians and quartiles over the run's good iterations."""
    good = [it for it in run.iterations if it["ok"]]
    plain = [it for it in good if not it["traced"]]
    traced = [it for it in good if it["traced"]]
    rows: Dict[str, dict] = {}

    def add(name, unit, values):
        values = [v for v in values if v is not None]
        if values:
            q1, med, q3 = sp.quartiles(values)
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(values)}

    for m in spec["end_to_end"]:
        add(m["name"], m["unit"], [it["e2e"].get(m["name"]) for it in plain])
    # the same numbers under the names they have on this workload
    for alias, section, key, unit in run.workload.aliases:
        add(alias, unit, [it[section][key] for it in plain])
    layers: Dict[str, Optional[float]] = {}
    if traced:
        names = traced[0]["layers"].keys()
        for name in names:
            values = [it["layers"][name] for it in traced if it["layers"][name] is not None]
            layers[name] = statistics.median(values) if values else None
        layers["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced) -
                                      statistics.median(it["wall_s"] for it in plain)
                                      if plain else None)
    return {"end_to_end": rows, "layers": layers,
            "error_rate": run.failed / run.attempted if run.attempted else 1.0}


def print_report(run: Run, summary: dict) -> None:
    print(f"melt benchmark: workload={run.workload.name} seed={run.seed} "
          f"seconds={run.seconds} trace={int(run.trace)} scale={run.scale.name}")
    print("environment: " + json.dumps(run.environment, sort_keys=True))
    print("inputs: " + json.dumps({k: v for k, v in run.inputs.items() if k != "test_ids"},
                                  sort_keys=True))
    print(f"{'metric':<22}{'unit':<13}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for name, row in summary["end_to_end"].items():
        print(f"{name:<22}{row['unit']:<13}{row['median']:>14.6g}{row['q1']:>14.6g}"
              f"{row['q3']:>14.6g}{row['n']:>4}")
    print(f"{'error_rate':<22}{'share':<13}{summary['error_rate']:>14.6g}"
          f"   ({run.failed} of {run.attempted} commands failed)")
    for problem in run.problems:
        print(f"  problem: {problem}")
    traced = [it for it in run.iterations if it["ok"] and it["traced"]]
    if not traced:
        return
    print("per-layer metrics (median over traced iterations; n/a = layer not run here):")
    for name, value in summary["layers"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<30}{shown:>14}")
    last = traced[-1]
    print("spans of the last traced iteration: calls, total s, self s")
    for name, row in sorted(last["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<36}{row['calls']:>7}{row['total_s']:>11.4f}{row['self_s']:>11.4f}")
    print("coverage per command (layer spans / in-process time; "
          "process start and exit in s):")
    for name, share in last["coverage"].items():
        flag = "  LOW: a layer is missing from the trace" if share < COVERAGE_FLAG else ""
        print(f"  {name:<12}{share:>8.4f}{last['process_overhead_s'][name]:>9.3f}{flag}")


def result_line(run: Run, summary: dict, spec: dict) -> dict:
    metrics = {}
    if run.trace:
        for m in spec["per_layer"]:
            value = summary["layers"].get(m["name"])
            if value is not None:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            row = summary["end_to_end"].get(m["name"])
            if row is not None:
                metrics[m["name"]] = {"value": row["median"], "unit": m["unit"]}
    wanted = spec["per_layer" if run.trace else "end_to_end"]
    complete = len(metrics) == len(wanted)
    if not complete and not run.failed:
        missing = sorted({m["name"] for m in wanted} - set(metrics))
        run.fail(f"metrics not measured: {', '.join(missing)}", commands=0)
    return {"correct": run.failed == 0 and complete, "attempted": max(run.attempted, 1),
            "failed": run.failed, "metrics": metrics}


def write_record(run: Run, summary: dict, line: dict) -> str:
    path = os.path.join(run.work, "results", f"{run.tag}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": run.workload.name, "seed": run.seed, "seconds": run.seconds,
                   "trace": run.trace, "scale": run.scale.name,
                   "environment": run.environment,
                   "inputs": {k: v for k, v in run.inputs.items() if k != "test_ids"},
                   "summary": summary, "result": line, "problems": run.problems,
                   "iterations": run.iterations}, fh, indent=1, sort_keys=True)
    return path


def benchmark(root: str, workload: str, seed: int, seconds: int, trace: bool,
              scale: Scale = PAPER) -> dict:
    """Run one workload and print its report; returns the result line."""
    spec = load_spec(root)
    run = Run(root, workload, seed, seconds, trace, scale)
    try:
        run.execute()
    finally:
        run.cleanup()
    summary = summarise(run, spec)
    line = result_line(run, summary, spec)
    print_report(run, summary)
    print(f"record: {write_record(run, summary, line)}")
    return line


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    try:
        line = benchmark(os.getcwd(), args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
