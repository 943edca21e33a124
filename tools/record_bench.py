"""Record the benchmark of one checkout in ``BENCH_<label>.json``.

Run from the root of a checkout:

    python3 tools/record_bench.py LABEL

For each seed in ``SEEDS`` and each workload in ``BENCHMARK.json`` it runs
the unmodified ``python3 bench/run.py`` twice, one run after another:
untraced (``--trace 0``, the end-to-end metrics) and traced (``--trace 1``,
the per-layer metrics), each for the file's ``run_seconds``. It then writes
``BENCH_<label>.json`` in the current directory with:

- the git commit of the checkout, and whether its tracked files differ from it
- the host: ``nproc``, the Python and numpy versions
- every run's arguments, exit status and JSON line
- per workload, the median of every metric over its runs, and whether all
  runs were correct with no failed episode

A record takes about ``len(SEEDS) * 3 * 2 * run_seconds`` seconds (11 min).
The host's other load moves the raw times; the normalised ones less so.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

#: fixed seeds of every record; the study runs its own fixed seeds whatever these are
SEEDS = (1, 2, 3)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()


def _run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    summary = proc.stderr.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass  # recorded as a run without a result, so its workload is not correct
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "returncode": proc.returncode,
        "result": result if isinstance(result, dict) else None,
        "summary": summary[-1] if summary else "",
    }


def _medians(runs: list) -> dict:
    values: dict = {}
    for run in runs:
        for name, metric in (run["result"] or {}).get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in sorted(values.items())}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    label = sys.argv[1]
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    for seed in SEEDS:
        for workload in workloads:
            for trace in (0, 1):
                run = _run(workload, seed, trace, spec["run_seconds"])
                print(f"{workload} seed {seed} trace {trace}: {run['summary']}", file=sys.stderr)
                runs.append(run)
    per_workload = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        per_workload[workload] = {
            "correct": all(r["result"] is not None and r["result"]["correct"] for r in mine),
            "failed": sum((r["result"] or {}).get("failed", 0) for r in mine),
            "medians": _medians(mine),
        }
    record = {
        "label": label,
        "commit": _git("rev-parse", "HEAD"),
        "tracked_files_modified": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": per_workload,
        "runs": runs,
    }
    out = Path(f"BENCH_{label}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(w["correct"] for w in per_workload.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
