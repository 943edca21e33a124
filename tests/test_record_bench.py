"""tools/record_bench.py: runs without a result, and the normalised per-layer times."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


def fake_run(stdout, returncode=0, stderr="walker: 3 passes\n"):
    def run(cmd, capture_output, text):
        return subprocess.CompletedProcess(cmd, returncode, stdout, stderr)

    return run


@pytest.mark.parametrize("stdout", ["progress\nTraceback: not json\n", "progress\n[1, 2]\n"])
def test_a_last_line_that_is_not_a_result_records_no_result(monkeypatch, stdout):
    monkeypatch.setattr(record_bench.subprocess, "run", fake_run(stdout))
    run = record_bench._run("walker", 1, 0, 35)
    assert run["result"] is None
    assert run["returncode"] == 0
    assert run["summary"] == "walker: 3 passes"
    assert record_bench._medians([run]) == {}


def test_a_json_last_line_is_the_result(monkeypatch):
    line = '{"correct": true, "failed": 0, "metrics": {"setup_s": {"value": 0.3}}}'
    monkeypatch.setattr(record_bench.subprocess, "run", fake_run("progress\n" + line + "\n"))
    run = record_bench._run("walker", 1, 0, 35)
    assert run["result"]["correct"] is True
    assert record_bench._medians([run, run]) == {"setup_s": 0.3}


def test_a_failed_run_records_no_result(monkeypatch):
    monkeypatch.setattr(record_bench.subprocess, "run", fake_run('{"correct": true}\n', returncode=1))
    assert record_bench._run("walker", 1, 0, 35)["result"] is None


def traced(ref_loop_ms, step_ms, engine_self_s):
    values = {
        "sim.step_ms": step_ms,
        "sim.step_ms.n": 100,
        "sim.engine_self_s": engine_self_s,
        "sim.physics_ticks": 100,
        "run.ref_loop_ms": ref_loop_ms,
    }
    return {"result": {"metrics": {name: {"value": v} for name, v in values.items()}}}


def test_traced_times_are_scaled_to_the_reference_loop():
    runs = [
        traced(34.0, 0.02, 3.0),
        traced(17.0, 0.01, 2.0),
        traced(8.5, 0.004, 0.5),
        # an untraced run reports no reference loop and counts for nothing here
        {"result": {"metrics": {"norm_wall_s": {"value": 5.0}}}},
        {"result": None},
    ]
    got = record_bench._normalised_medians(runs)
    # per run: 0.01, 0.01, 0.008 ms and 1.5, 2.0, 1.0 s
    assert got == {"sim.engine_self_s": pytest.approx(1.5), "sim.step_ms": pytest.approx(0.01)}
    # the raw medians stay as they were
    assert record_bench._medians(runs)["sim.step_ms"] == 0.01

