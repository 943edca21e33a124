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
        # every pair won by far, but fewer than ten pairs run
        ([(3.0 + 0.1 * i, 1.0 + 0.1 * i) for i in range(9)], True, False),
    ],
)
def test_the_claim_rule(pairs, lower, gain):
    assert ab_pairs.claim(pairs, lower)[3] is gain


@pytest.mark.parametrize(
    "pairs, lower, verdict",
    [
        # medians 2.0 and 2.2 (+10%), quartiles 0.05 apart: inside a 25% bound
        ([(2.0 + 0.01 * i, 2.2 + 0.01 * i) for i in range(10)], True, "no worse"),
        # +30%
        ([(2.0 + 0.01 * i, 2.6 + 0.01 * i) for i in range(10)], True, "worse beyond bound"),
        # worse beyond the bound however wide the spread
        ([(2.0 + 0.3 * i, 3.0 + 0.3 * i) for i in range(10)], True, "worse beyond bound"),
        # +5%, but the parent's quartiles lie 34% of its median apart
        ([(1.0 + 0.15 * i, 1.05 + 0.15 * i) for i in range(10)], True, "unresolved: spread wider than bound"),
        # the change's own runs spread wide
        ([(2.0, 1.0 + 0.3 * i) for i in range(10)], True, "unresolved: spread wider than bound"),
        # a wide spread, but every run of the change reads better than every run of the parent
        ([(3.0 + 0.3 * i, 0.5 + 0.2 * i) for i in range(10)], True, "no worse"),
        # higher is better: -30% is worse, +30% is not
        ([(200.0, 140.0)] * 10, False, "worse beyond bound"),
        ([(200.0, 260.0)] * 10, False, "no worse"),
        # failed runs count on neither side; no run of one side at all settles nothing
        ([(2.0, 2.1), (None, 2.1), (2.0, None)] * 4, True, "no worse"),
        ([(2.0, None)] * 3, True, "unresolved: no runs"),
    ],
)
def test_the_verdict_against_the_bound(pairs, lower, verdict):
    assert ab_pairs.verdict(pairs, lower, 0.25)[0] == verdict


def test_every_bounded_end_to_end_metric_gets_a_verdict(monkeypatch, capsys, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "norm_wall_s", "better": "lower", "bound": 0.25},'
        ' {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}'
    )

    def fake(checkout, workload, seed, seconds, trace):
        rss = 50.0 if checkout.name == "parent" else 60.0
        run = result(2.0)
        run["metrics"]["peak_rss_mb"] = {"value": rss}
        return run

    monkeypatch.setattr(ab_pairs, "run_bench", fake)
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((tmp_path / "BENCHMARK.json").read_text())
    assert ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "walker",
                          "--seeds", "0..2"]) == 0
    out = capsys.readouterr().out
    assert "norm_wall_s (bound 25%): median +0.0% of the parent's, spread 0.0%; no worse" in out
    assert "peak_rss_mb (bound 10%): median +20.0% of the parent's, spread 0.0%; worse beyond bound" in out


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
    for name in ("setup_s", "norm_wall_s", "norm_sim_rate", "peak_rss_mb"):
        verdicts = ("no worse", "worse beyond bound", "unresolved: spread wider than bound")
        assert any(line.startswith(f"{name} (bound ") and line.endswith(verdicts) for line in lines), name
