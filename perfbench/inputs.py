"""Reading a workload's generated inputs through the program: the work that
``setup_s`` times.

    python3 perfbench/inputs.py <workload> <workdir>

imports from ``src/`` the amrkit modules the workload's timed path uses,
reads the inputs under ``<workdir>`` and prints ``ready``.  It imports
nothing else of the benchmark, so ``setup_s`` moves with the program's
imports and readers and not with the benchmark's own modules.  Calls go
through module attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import importlib
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = {
    "eval": ("graph", "linearize", "repair", "smatch"),
    "kd-build": ("seqmodel", "decode", "distill", "pipeline", "linearize", "repair"),
    "corpus-io": ("graph", "linearize", "repair", "pipeline"),
}


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def read(workload: str, workdir: str) -> dict:
    """The workload's inputs, as flat lists."""
    mod = {name: importlib.import_module(f"amrkit.{name}") for name in MODULES[workload]}
    if workload == "eval":
        return {"golds": mod["graph"].read_amr_file(os.path.join(workdir, "gold.amr")),
                "preds": [mod["linearize"].from_line(line)
                          for line in _lines(os.path.join(workdir, "pred.txt"))]}
    if workload == "kd-build":
        return {"teacher": mod["seqmodel"].ToyCondModel.load(os.path.join(workdir, "teacher.json")),
                "sents": _lines(os.path.join(workdir, "english.txt"))}
    texts = []
    while os.path.exists(path := os.path.join(workdir, f"round-{len(texts)}.amr")):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    return {"texts": texts}


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    read(sys.argv[1], sys.argv[2])
    print("ready", flush=True)
