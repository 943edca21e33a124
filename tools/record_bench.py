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
- per workload, the medians of the traced runs' times (``*_ms`` and ``*_s``)
  normalised like ``norm_wall_s``: each run's figure × ``REF_LOOP_MS`` / its
  ``run.ref_loop_ms``, so that host drift between runs cancels out of them

A record takes about ``len(SEEDS) * 3 * 2 * run_seconds`` seconds (11 min).
The host's other load moves the raw times; the normalised ones less so.
"""

import importlib.util
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


def _bench_run_module():
    """bench/run.py of this checkout, loaded without running its main."""
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: nominal ms of bench/run.py's reference loop, the scale of normalised times
REF_LOOP_MS = _bench_run_module().REF_LOOP_S * 1e3


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


def _normalised_medians(runs: list) -> dict:
    """Medians over the traced runs of each time figure × REF_LOOP_MS / that run's reference loop.

    Only traced runs report ``run.ref_loop_ms``; the loop's own figure is left out.
    """
    values: dict = {}
    for run in runs:
        metrics = (run["result"] or {}).get("metrics", {})
        ref_ms = metrics.get("run.ref_loop_ms", {}).get("value")
        if not ref_ms:
            continue
        for name, metric in metrics.items():
            if name.endswith(("_ms", "_s")) and name != "run.ref_loop_ms":
                values.setdefault(name, []).append(metric["value"] * REF_LOOP_MS / ref_ms)
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
            "normalised_medians": _normalised_medians(mine),
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
