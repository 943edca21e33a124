"""Compare two checkouts on the benchmark, in alternating pairs of runs.

Run from anywhere, naming the two checkouts:

    python3 tools/ab_pairs.py PARENT CHANGE --workload walker --seeds 300..309 [--seconds 35] [--trace 0]
        [--metric norm_wall_s ...]

For each seed it runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace X`` once in each checkout, from that checkout's root,
one process at a time. The parent runs first on even pairs (the first,
third, ...) and the change first on odd ones, so that a host that drifts
during a pair favours neither side. It prints each run as it ends, then
for each metric each side's median and quartiles, and for each compared
metric (``--metric``, default ``norm_wall_s``) the pairs the change won and
whether a gain may be claimed. A gain needs at least ten pairs run, the
change better in at least nine tenths of them, ties and pairs with a failed
run counting for neither side, and the medians apart by more than the
distance between the parent's quartiles.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
summarised beside the compared ones, and each gets a verdict against the
bound ``BENCHMARK.json`` fixes for it (a fraction of the parent's median),
as in the ``choosing-metrics`` guide, section 6.5: "worse beyond bound"
when the change's median is worse than the parent's by more than the
bound; else "unresolved: spread wider than bound" when either side's
quartiles lie further apart than the bound, unless every run of the change
reads better than every run of the parent; else "no worse".

With ``--trace 1`` the compared metrics are per-layer names, and times
(``*_ms``, ``*_s``) are normalised like ``tools/record_bench.py``'s: × its
``REF_LOOP_MS`` / the run's ``run.ref_loop_ms``. Which way is better comes
from ``BENCHMARK.json`` in the change checkout, lower where it names none.
Exits 1 when a run fails or reports ``correct: false``, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from record_bench import REF_LOOP_MS  # noqa: E402


#: pairs a gain claim needs (the choosing-metrics guide, section 8)
MIN_PAIRS = 10


def parse_seeds(text: str) -> list:
    """``A..B`` (inclusive) or a comma-separated list of seeds."""
    if ".." in text:
        lo, hi = (int(v) for v in text.split("..", 1))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(v) for v in text.split(",")]
    if not seeds:
        raise argparse.ArgumentTypeError(f"seeds {text!r} name no seed")
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run in ``checkout``: its JSON result, or None when it gave none."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def metric_value(result, name: str):
    """The metric of a run, a traced time scaled to the nominal reference loop; None when absent."""
    metrics = (result or {}).get("metrics", {})
    if name not in metrics:
        return None
    value = metrics[name]["value"]
    ref_ms = metrics.get("run.ref_loop_ms", {}).get("value")
    if ref_ms and name.endswith(("_ms", "_s")) and name != "run.ref_loop_ms":
        value *= REF_LOOP_MS / ref_ms
    return value


def quartiles(values: list):
    """(first quartile, median, third quartile), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def claim(pairs: list, lower_is_better: bool):
    """(wins, median difference, parent IQR, gain claimed) over (parent, change) values per pair."""
    wins = sum(
        p is not None and c is not None and (c < p if lower_is_better else c > p) for p, c in pairs
    )
    parent = [p for p, _ in pairs if p is not None]
    change = [c for _, c in pairs if c is not None]
    if not parent or not change:
        return wins, None, None, False
    p1, p_med, p3 = quartiles(parent)
    diff = quartiles(change)[1] - p_med
    better = -diff if lower_is_better else diff
    gain = len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and better > p3 - p1
    return wins, diff, p3 - p1, gain


def verdict(pairs: list, lower_is_better: bool, bound: float):
    """(verdict, relative change of the median, relative spread) of an end-to-end metric.

    ``pairs`` are (parent, change) values per pair, None for a failed run;
    ``bound`` is the worsening the benchmark allows, as a fraction of the
    parent's median. The spread is the wider of the two sides' distances
    between quartiles, as a fraction of the parent's median.
    """
    parent = [p for p, _ in pairs if p is not None]
    change = [c for _, c in pairs if c is not None]
    if not parent or not change:
        return "unresolved: no runs", None, None
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    scale = abs(p_med) or 1.0
    rel = (c_med - p_med) / scale
    spread = max(p3 - p1, c3 - c1) / scale
    worse = rel if lower_is_better else -rel
    if worse > bound:
        return "worse beyond bound", rel, spread
    all_better = max(change) < min(parent) if lower_is_better else min(change) > max(parent)
    if spread > bound and not all_better:
        return "unresolved: spread wider than bound", rel, spread
    return "no worse", rel, spread


def directions(spec: dict) -> dict:
    return {m["name"]: m.get("better", "lower") for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--metric", action="append", dest="metrics", help="a compared metric; may repeat")
    args = p.parse_args(argv)
    compared = args.metrics or ["norm_wall_s"]
    spec_path = args.change / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.exists() else {}
    better = directions(spec)
    summarised = list(compared)
    if args.trace == 0:
        summarised += [m["name"] for m in spec.get("end_to_end", []) if m["name"] not in compared]

    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    failed = 0
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(sides[side], args.workload, seed, args.seconds, args.trace)
            ok = result is not None and result.get("correct") is True and result.get("failed", 0) == 0
            failed += not ok
            results[side].append(result if ok else None)
            shown = " ".join(f"{name} {metric_value(result, name)}" for name in compared)
            print(f"pair {i} seed {seed} {side}: {shown}" + ("" if ok else " FAILED"), flush=True)

    print(f"\n{args.workload}, seeds {args.seeds[0]}..{args.seeds[-1]} ({len(args.seeds)} pairs), "
          f"--seconds {args.seconds:g} --trace {args.trace}: median [first quartile, third quartile]")
    for name in summarised:
        line = []
        for side in ("parent", "change"):
            values = [v for v in (metric_value(r, name) for r in results[side]) if v is not None]
            if values:
                q1, med, q3 = quartiles(values)
                line.append(f"{side} {med:.6g} [{q1:.6g}, {q3:.6g}]")
            else:
                line.append(f"{side} -")
        print(f"  {name}: " + "  ".join(line))
    def pairs_of(name):
        return [
            (metric_value(pr, name), metric_value(cr, name))
            for pr, cr in zip(results["parent"], results["change"])
        ]

    for name in compared:
        lower = better.get(name, "lower") == "lower"
        wins, diff, iqr, gain = claim(pairs_of(name), lower)
        detail = "" if diff is None else f", median change {diff:+.6g} against a parent IQR of {iqr:.6g}"
        print(f"{name} ({'lower' if lower else 'higher'} is better): change better in {wins}/{len(args.seeds)}"
              f" pairs{detail}; gain {'claimed' if gain else 'not claimed'}")
    if args.trace == 0:
        for m in spec.get("end_to_end", []):
            if "bound" not in m:
                continue
            name = m["name"]
            word, rel, spread = verdict(pairs_of(name), m.get("better", "lower") == "lower", m["bound"])
            detail = "" if rel is None else f"median {rel:+.1%} of the parent's, spread {spread:.1%}; "
            print(f"{name} (bound {m['bound']:.0%}): {detail}{word}")
    if failed:
        print(f"{failed} runs failed or were not correct", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
