"""Every seed-1 document of the benchmark workloads passes the benchmark's
correctness gate: its verdict, its check count and its failing checks are
the known answers, and a bundled job's report has its golden hash.  Every
function the per-layer tracer wraps exists where the tracer reads it.  The
workload generator, the gate and the tracer are loaded from `perfbench/`,
read only."""

import importlib.util
from pathlib import Path

import pytest

from hgalois.cli import render_json, run_commands
from hgalois.jobs import Job

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate, workloads, tracer = _load("gate"), _load("workloads"), _load("tracer")


@pytest.mark.parametrize("workload", ["many_small", "lemma55", "completion"])
def test_seed_one_documents_pass_the_gate(workload):
    checker = gate.Gate()
    problems = []
    for position, doc in enumerate(workloads.generate(workload, 1)):
        entries, summary = run_commands(Job(doc), doc["commands"])
        problems += checker.check(position, doc["name"], render_json(entries, summary),
                                  entries, summary)
    assert problems == []


def test_every_traced_target_exists():
    """The tracer wraps a method from its class `__dict__`, a module-level
    function as a module attribute, and a counted constant read as a
    property of its field class."""
    missing = []
    for span, targets in tracer.SPANS.items():
        for owner, attr in targets:
            found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
            if not found:
                missing.append(f"{span}: {owner.__name__}.{attr}")
    for cls, attr in tracer.CONST_READS:
        if not isinstance(cls.__dict__.get(attr), property):
            missing.append(f"const read: {cls.__name__}.{attr}")
    assert missing == []
