"""Print the sha256 of every file a fixed matrix of episodes writes.

Run from the root of a checkout, on the package in its ``src``:

    python3 tools/trace_digests.py

It runs each scenario under every condition (unassisted, single-view and
cross-view) for seeds 0 to 19 (180 episodes, about 25 s on a 2-core VM),
writing into a temporary directory. It prints one line per written file,
the trace CSV and the announcements file where there is one, as
``<sha256>  <file name>`` in name order, then ``<sha256>  ALL``: the sha256
of the lines above it. Run it on two checkouts and compare the output:
equal ``ALL`` lines mean every file has the same bytes, and a diff of the
lists names the episodes that differ.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

# as in bench/run.py: the episodes are single-threaded, and one OpenBLAS
# thread keeps two checkouts run side by side from competing with themselves
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crossnav.harness import load_scenario  # noqa: E402
from crossnav.sim import Condition, run_episode  # noqa: E402

SCENARIOS = ("canonical", "canonical_bend", "hanging_lamp")
CONDITIONS = (Condition.UNASSISTED, Condition.SINGLE_VIEW, Condition.CROSS_VIEW)


def digest_lines(scenarios, seeds) -> list:
    """Run the episodes; one ``<sha256>  <name>`` line per written file, then the ``ALL`` line."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for scenario in scenarios:
            config = load_scenario(scenario)
            for condition in CONDITIONS:
                for seed in seeds:
                    run_episode(config, condition, seed, out)
        lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}" for p in sorted(out.iterdir())]
    whole = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    return lines + [f"{whole}  ALL"]


def main() -> None:
    for line in digest_lines(SCENARIOS, range(20)):
        print(line)


if __name__ == "__main__":
    main()
