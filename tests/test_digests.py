"""Every command's outputs keep the bytes recorded in ``digests.json``.

The test runs ``test_reach.MATRIX`` (every command, at a small width) and
compares the sha256 of each file it writes, inputs included, with the
committed table. ``config.json`` is left out, since it holds paths. The
bytes depend on the numeric environment, so the table records numpy's
version, the BLAS build and the BLAS thread count; where this process's
differ, the test skips and names both.

A change that moves bytes on purpose rewrites the table with

    PYTHONPATH=src python tests/test_digests.py

and says which files moved and why.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_reach import run_matrix  # noqa: E402

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def blas_threads():
    """The thread count of the BLAS that numpy loaded, or None where it cannot be read."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads()}


def output_digests(root) -> dict:
    """sha256 of every file under ``root`` but config.json, by its path under ``root``."""
    digests = {}
    for folder, _, names in os.walk(root):
        for name in names:
            if name != "config.json":
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def test_outputs_keep_their_recorded_bytes(tmp_path):
    with open(TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    here = environment()
    if here != table["environment"]:
        pytest.skip(f"digests recorded under {table['environment']}, this process has {here}")
    run_matrix(str(tmp_path))
    got = output_digests(tmp_path)
    moved = sorted(name for name in table["files"].keys() | got.keys()
                   if table["files"].get(name) != got.get(name))
    assert not moved, "bytes differ from digests.json in: " + ", ".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root, contextlib.redirect_stdout(io.StringIO()):
        run_matrix(root)
        record = {"environment": environment(), "files": output_digests(root)}
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(record['files'])} digests to {TABLE}")
