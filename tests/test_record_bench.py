"""tools/record_bench.py keeps a record going when one run's output is not a result."""

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
