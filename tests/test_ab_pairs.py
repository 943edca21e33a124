"""tools/ab_pairs.py: the order of the runs, the claim rule, and one real pair."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def result(norm_wall_s, correct=True):
    return {"correct": correct, "failed": 0, "metrics": {"norm_wall_s": {"value": norm_wall_s}}}


def test_the_parent_runs_first_on_even_pairs(monkeypatch, capsys):
    calls = []

    def fake(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed))
        return result(2.0 if checkout.name == "parent" else 1.9)

    monkeypatch.setattr(ab_pairs, "run_bench", fake)
    assert ab_pairs.main(["parent", "change", "--workload", "walker", "--seeds", "7..10"]) == 0
    assert calls == [
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
        ("parent", 9), ("change", 9), ("change", 10), ("parent", 10),
    ]
    assert "norm_wall_s (lower is better): change better in 4/4 pairs" in capsys.readouterr().out


def test_a_failed_or_incorrect_run_fails_the_comparison_and_wins_no_pair(monkeypatch, capsys):
    runs = iter([result(2.0), None, result(2.0), result(1.0, correct=False)])
    monkeypatch.setattr(ab_pairs, "run_bench", lambda *args: next(runs))
    assert ab_pairs.main(["p", "c", "--workload", "walker", "--seeds", "0,1"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAILED") == 2
    assert "change better in 0/2 pairs" in out


@pytest.mark.parametrize(
    "pairs, lower, gain",
    [
        # 9 of 10 won, medians 0.9 apart, parent quartiles 0.55 apart
        ([(3.0 + 0.1 * i, 2.0 + 0.1 * i) for i in range(9)] + [(2.0, 3.0)], True, True),
        # 8 of 10 won
        ([(3.0 + 0.1 * i, 2.5 + 0.1 * i) for i in range(8)] + [(2.0, 3.0)] * 2, True, False),
        # every pair won, by less than the parent's spread
        ([(3.0 + 0.1 * i, 2.95 + 0.1 * i) for i in range(10)], True, False),
        # higher is better
        ([(2.0, 1.0)] * 10, False, False),
        ([(1.0 + i, 20.0 + i) for i in range(10)], False, True),
    ],
)
def test_the_claim_rule(pairs, lower, gain):
    assert ab_pairs.claim(pairs, lower)[3] is gain


def test_seeds():
    assert ab_pairs.parse_seeds("3..5") == [3, 4, 5]
    assert ab_pairs.parse_seeds("4,1") == [4, 1]


def test_one_short_override_pair_of_a_checkout_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_pairs.py"), str(ROOT), str(ROOT),
         "--workload", "override", "--seeds", "0", "--seconds", "0.1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("pair 0 seed 0 parent: norm_wall_s ")
    assert lines[1].startswith("pair 0 seed 0 change: norm_wall_s ")
    for name in ("norm_wall_s", "setup_s", "norm_sim_rate", "peak_rss_mb"):
        assert any(line.startswith(f"  {name}: parent ") and " change " in line for line in lines), name
    assert any(line.startswith("norm_wall_s (lower is better): change better in ") for line in lines)
