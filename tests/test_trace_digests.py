"""tools/trace_digests.py: its list agrees with the golden digests and ends in the digest of the list."""

import hashlib
import importlib.util
from pathlib import Path

from test_golden import read_golden

_PATH = Path(__file__).resolve().parents[1] / "tools" / "trace_digests.py"
_spec = importlib.util.spec_from_file_location("trace_digests", _PATH)
trace_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_digests)


def test_one_seed_of_one_scenario_lists_the_golden_digests():
    *files, whole = trace_digests.digest_lines(["hanging_lamp"], range(1))
    listed = dict(line.split("  ")[::-1] for line in files)
    # the unassisted trace, then single-view and cross-view, each a trace and
    # an announcements file
    golden = read_golden()
    assert "hanging_lamp_unassisted_seed0000.csv" in listed
    assert len(listed) == 5 and listed == {name: golden[name] for name in listed}
    assert [line.split("  ")[1] for line in files] == sorted(listed)
    assert whole == hashlib.sha256("".join(line + "\n" for line in files).encode()).hexdigest() + "  ALL"
