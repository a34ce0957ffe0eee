"""The default `run` report of every bundled job, byte for byte: its SHA-256
must equal the golden hash that the benchmark gate checks
(`perfbench/expected.json`, read only)."""

import hashlib
import json
from pathlib import Path

import pytest

from hgalois.cli import render_json, run_commands
from hgalois.examples import BUILTINS, builtin_job
from hgalois.jobs import Job

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
GOLDEN = json.loads(EXPECTED.read_text(encoding="utf-8"))["golden_sha256"]


def test_every_bundled_job_has_a_golden_hash():
    assert sorted(GOLDEN) == sorted(BUILTINS)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_default_run_report_matches_golden_hash(name):
    doc = builtin_job(name)
    entries, summary = run_commands(Job(doc), doc["commands"])
    text = render_json(entries, summary)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[name]
