"""A short self-check of the benchmark, about a minute.

    python3 perfbench/selfcheck.py

- runs every workload for one second with every output check on, and
  requires correct outputs, failed operations only among those named in
  ``common.KNOWN_FAULTS`` (the ``over`` at 520 foci in ``transformer``,
  the deep input in ``cli``), and every end-to-end metric above 0 with
  the unit BENCHMARK.json gives;
- runs one traced run and requires every per-layer metric of
  BENCHMARK.json with its unit;
- runs the benchmark in a directory that holds only BENCHMARK.json and
  perfbench/, and requires it to exit with another code than 0 and to
  print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import KNOWN_FAULTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILED = "failed operation: "


def run(cwd: Path, workload: str, trace: int, seconds: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def check_metrics(got: dict, wanted: list, problems: list, where: str):
    for m in wanted:
        value = got.get(m["name"])
        if value is None:
            problems.append(f"{where}: no {m['name']}")
        elif value["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} in {value['unit']}, "
                            f"not {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        proc = run(ROOT, workload, 0)
        if proc.returncode != 0:
            problems.append(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        # "failed operation: NAME (EXCEPTION)", one line per name
        failed = {line[len(FAILED):].rsplit(" (", 1)[0]
                  for line in proc.stderr.splitlines() if line.startswith(FAILED)}
        known = KNOWN_FAULTS.get(workload, frozenset())
        print(f"{workload}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} "
              f"({', '.join(sorted(failed)) or 'none'})")
        if not result["correct"]:
            problems.append(f"{workload}: wrong output\n{proc.stderr}")
        if not failed <= known or bool(failed) != bool(result["failed"]):
            problems.append(f"{workload}: failed {sorted(failed)}, known "
                            f"faults {sorted(known)}\n{proc.stderr}")
        check_metrics(result["metrics"], spec["end_to_end"], problems, workload)
        problems += [f"{workload}: {name} is {v['value']}"
                     for name, v in result["metrics"].items() if not v["value"] > 0]

    proc = run(ROOT, "chains", 1)
    if proc.returncode != 0:
        problems.append(f"traced: exit {proc.returncode}\n{proc.stderr}")
    else:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check_metrics(result["metrics"], spec["per_layer"], problems, "traced")
        print(f"traced: {len(result['metrics'])} per-layer metrics")

    (HERE / "results").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "results"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run(bare, "documents", 0)
        printed = proc.stdout.strip()
        print(f"without the library: exit {proc.returncode}")
        if proc.returncode == 0 or printed:
            problems.append(f"without the library: exit {proc.returncode}, "
                            f"printed {printed[:200]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-check passed" if not problems else "self-check FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
