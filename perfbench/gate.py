"""The correctness gate: every report is checked against its known answer.

A job run fails when it raises, when its verdict or check count differs
from the known answer, when its failing checks differ from the expected
ones, when a failing entry has no witness, or when its report bytes differ
from the golden hash (bundled jobs) or from its own first pass.  The known
answers in expected.json were taken on the commit that introduced the
benchmark and hold for every seed.
"""

import hashlib
import json
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def job_key(name: str) -> str:
    """The seed-independent name of a job: its prime is replaced by p."""
    return re.sub(r"_gf\d+", "_gfp", name)


def failing_checks(entries) -> list:
    return sorted([e["command"], e["check"], e["subject"]]
                  for e in entries if e["status"] != "pass")


class Gate:
    def __init__(self, expected=None):
        if expected is None:
            expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
        self.golden = expected["golden_sha256"]
        self.known = expected["jobs"]
        self.first = {}  # job position -> digest of its first report

    def check(self, position, name, text, entries, summary) -> list:
        """Problems with one job run's report; empty when it is correct."""
        problems = []
        known = self.known.get(job_key(name))
        if known is None:
            return [f"{name}: no known answer"]
        if summary["checks"] != known["checks"]:
            problems.append(f"{name}: {summary['checks']} checks, expected {known['checks']}")
        if summary["status"] != known["status"]:
            problems.append(f"{name}: verdict {summary['status']}, expected {known['status']}")
        if failing_checks(entries) != known.get("failing", []):
            problems.append(f"{name}: failing checks differ from the expected ones")
        if any(e["status"] != "pass" and e.get("witness") is None for e in entries):
            problems.append(f"{name}: a failing entry has no witness")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        golden = self.golden.get(name)
        if golden is not None and digest != golden:
            problems.append(f"{name}: report differs from its golden hash")
        if self.first.setdefault(position, digest) != digest:
            problems.append(f"{name}: report differs from its first pass")
        return problems
