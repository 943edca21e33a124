"""Golden sha256 digests of every file an episode writes.

Determinism within one process run is checked elsewhere; this pins the bytes
across code changes. It reruns a fixed matrix of shipped scenarios,
conditions and seeds and compares the sha256 of each trace CSV and each
announcement file with ``tests/data/golden_digests.txt``.

Regenerate the file (only on purpose, and say why in CHANGES.md) with:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import hashlib
import sys
from pathlib import Path

import pytest

from crossnav.harness import load_scenario
from crossnav.sim import Condition, run_episode

DIGESTS = Path(__file__).parent / "data" / "golden_digests.txt"
SCENARIOS = ("canonical", "canonical_bend", "hanging_lamp")
SEEDS = (0, 1)

HEADER = """\
# sha256 of every file run_episode writes for the scenarios
# {canonical, canonical_bend, hanging_lamp} x conditions {unassisted,
# singleview, crossview} x seeds {0, 1}: the trace CSV, and the
# .announcements.txt where one is written. tests/test_golden.py checks them.
# The traces print floats, so a numpy or libm upgrade may change their bytes
# without any change to crossnav; regenerate then only on purpose, with
#   PYTHONPATH=src python3 tests/test_golden.py --write
# and record the regeneration and its reason in CHANGES.md.
"""


def episode_digests(scenario: str, out_dir: Path) -> dict:
    """Run the scenario's conditions and seeds; map each written file name to its sha256."""
    config = load_scenario(scenario)
    for condition in Condition:
        for seed in SEEDS:
            run_episode(config, condition, seed, out_dir)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def read_golden() -> dict:
    lines = DIGESTS.read_text().splitlines()
    return dict(line.split()[::-1] for line in lines if line and not line.startswith("#"))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_episode_outputs_match_the_golden_digests(scenario, tmp_path):
    prefixes = tuple(f"{scenario}_{condition.value}_" for condition in Condition)
    golden = {name: d for name, d in read_golden().items() if name.startswith(prefixes)}
    assert episode_digests(scenario, tmp_path) == golden


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    rows = []
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            rows += [f"{d}  {f}" for f, d in episode_digests(name, Path(tmp)).items()]
    DIGESTS.write_text(HEADER + "\n".join(rows) + "\n")
