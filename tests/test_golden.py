"""Golden sha256 digests of every file an episode writes.

Determinism within one process run is checked elsewhere; this pins the bytes
across code changes. It reruns a fixed matrix of shipped scenarios,
conditions and seeds and compares the sha256 of each trace CSV and each
announcement file with ``tests/data/golden_digests.txt``. One more episode,
``NOISY``, runs with depth noise on, so the noise draws are pinned too. Where
numpy's OpenBLAS picks its matrix kernel per CPU, two pinned episodes are rerun
under two kernels, so a trace that leans on BLAS rounding shows.

Regenerate the file (only on purpose, and say why in CHANGES.md) with:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossnav.harness import load_scenario
from crossnav.sim import Condition, run_episode

DIGESTS = Path(__file__).parent / "data" / "golden_digests.txt"
SCENARIOS = ("canonical", "canonical_bend", "hanging_lamp")
SEEDS = (0, 1)
#: (scenario, condition, seed, depth noise sigma in meters) of the noisy episode
NOISY = ("hanging_lamp", Condition.CROSS_VIEW, 0, 0.03)

HEADER = """\
# sha256 of every file run_episode writes for the scenarios
# {canonical, canonical_bend, hanging_lamp} x conditions {unassisted,
# singleview, crossview} x seeds {0, 1}: the trace CSV, and the
# .announcements.txt where one is written; then the same files of one episode
# with depth noise on (the names that carry "_sigma"). tests/test_golden.py
# checks them.
# The traces print floats, so a numpy or libm upgrade may change their bytes
# without any change to crossnav; regenerate then only on purpose, with
#   PYTHONPATH=src python3 tests/test_golden.py --write
# and record the regeneration and its reason in CHANGES.md.
"""


def file_digests(out_dir: Path) -> dict:
    """Map each file name in ``out_dir`` to its sha256."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def episode_digests(scenario: str, out_dir: Path) -> dict:
    """Run the scenario's conditions and seeds; map each written file name to its sha256."""
    config = load_scenario(scenario)
    for condition in Condition:
        for seed in SEEDS:
            run_episode(config, condition, seed, out_dir)
    return file_digests(out_dir)


def noisy_digests(out_dir: Path) -> dict:
    """Run the NOISY episode; map each written file name to its sha256."""
    scenario, condition, seed, sigma = NOISY
    config = load_scenario(scenario)
    config = dataclasses.replace(config, sim=dataclasses.replace(config.sim, depth_sigma_m=sigma))
    name = f"{scenario}_sigma{sigma}_{condition.value}_seed{seed:04d}.csv"
    run_episode(config, condition, seed, out_dir, trace_name=name)
    return file_digests(out_dir)


def read_golden() -> dict:
    lines = DIGESTS.read_text().splitlines()
    return dict(line.split()[::-1] for line in lines if line and not line.startswith("#"))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_episode_outputs_match_the_golden_digests(scenario, tmp_path):
    prefixes = tuple(f"{scenario}_{condition.value}_" for condition in Condition)
    golden = {name: d for name, d in read_golden().items() if name.startswith(prefixes)}
    assert episode_digests(scenario, tmp_path) == golden


def test_a_noisy_episode_matches_its_golden_digests(tmp_path):
    golden = {name: d for name, d in read_golden().items() if "_sigma" in name}
    assert len(golden) == 2  # the trace and its announcements
    assert noisy_digests(tmp_path) == golden


def _openblas_picks_kernels_and_cpu_has_avx2() -> bool:
    """True when numpy's OpenBLAS picks its kernel per CPU and this x86-64 CPU can run Haswell's."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        x86 = config["Machine Information"]["host"]["cpu"] == "x86_64"
        cpu_flags = Path("/proc/cpuinfo").read_text()
    except (TypeError, KeyError, OSError):
        return False
    return (x86 and "openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and re.search(r"\bavx2\b", cpu_flags) is not None)


#: the pinned crossview seed 0 episodes rerun under each kernel: an upright
#: one, and the bent chest's, the one shipped cloud whose rotation is not a
#: permutation, so its products round
KERNEL_SCENARIOS = ("canonical", "canonical_bend")

#: runs KERNEL_SCENARIOS' crossview seed 0 episodes into argv[1], then prints
#: the sha256 of 2,000 random 3x3 products, which shows which kernel ran
_KERNEL_RUN = f"""
import hashlib, sys
import numpy as np
from crossnav.harness import load_scenario
from crossnav.sim import Condition, run_episode
for scenario in {KERNEL_SCENARIOS!r}:
    run_episode(load_scenario(scenario), Condition.CROSS_VIEW, 0, sys.argv[1])
a, b = np.random.default_rng(0).normal(size=(2, 2000, 3, 3))
print(hashlib.sha256(b"".join((x @ y).tobytes() for x, y in zip(a, b))).hexdigest())
"""


@pytest.mark.skipif(not _openblas_picks_kernels_and_cpu_has_avx2(),
                    reason="needs numpy on OpenBLAS DYNAMIC_ARCH and an x86-64 CPU with avx2")
def test_traces_do_not_depend_on_the_blas_kernel(tmp_path):
    golden = {name: d for name, d in read_golden().items()
              if name.startswith(tuple(f"{sc}_crossview_seed0000" for sc in KERNEL_SCENARIOS))}
    assert len(golden) == 4  # each episode's trace and announcements
    src = str(Path(__file__).resolve().parents[1] / "src")
    products = set()
    for kernel in ("Nehalem", "Haswell"):
        out = tmp_path / kernel
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _KERNEL_RUN, str(out)], env=env,
                             capture_output=True, text=True, check=True)
        products.add(run.stdout.strip())
        assert file_digests(out) == golden, kernel
    assert len(products) == 2  # the two kernels really ran: their products differ in bits


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    rows = []
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            rows += [f"{d}  {f}" for f, d in episode_digests(name, Path(tmp)).items()]
    with tempfile.TemporaryDirectory() as tmp:
        rows += [f"{d}  {f}" for f, d in noisy_digests(Path(tmp)).items()]
    DIGESTS.write_text(HEADER + "\n".join(rows) + "\n")
