"""Generate one workload's inputs in a fresh interpreter of its own.

    PYTHONPATH=src python3 perfbench/prepare.py WORKLOAD SEED DIR

writes ``DIR/inputs.json``: the seeded inputs, held as JSON text, and the
expected outputs, computed apart from the library (the transformer's
concrete ``compose`` results aside). ``worker.py`` loads that file.
Generation runs apart from the worker, so the worker's peak memory is that
of the library at work and not that of the generated Python objects, and
the cli workload's largest child process is a call of the command.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

from setup_probe import WORKLOAD_MODULES


def main(workload: str, seed: int, work: Path):
    module = importlib.import_module(WORKLOAD_MODULES[workload])
    inputs = (module.prepare(seed, work) if workload == "cli"
              else module.prepare(seed))
    path = work / "inputs.json"
    path.write_text(json.dumps(inputs))
    print(json.dumps({"inputs": str(path)}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
