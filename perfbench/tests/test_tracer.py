import json
from pathlib import Path

import pytest

import gate
import tracer as tracing
import workloads
from run import Runner

BENCH_DIR = Path(__file__).resolve().parents[1]


def _bindings():
    """(owner, attribute, value) for every function the tracer wraps, where
    the package defines it."""
    return [(owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            for targets in tracing.SPANS.values() for owner, attr in targets]


def _holders(functions):
    """(module, name) pairs in hgalois.* that hold one of the functions."""
    ids = {id(f) for f in functions}
    return [(module.__name__, name) for module in tracing.hgalois_modules()
            for name, value in vars(module).items() if id(value) in ids]


LAYER_CALLS = {}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_reports_match_untraced_and_originals_come_back(workload):
    docs = workloads.generate(workload, 5)
    before = _bindings()
    module_functions = [value for owner, _, value in before if not isinstance(owner, type)]
    holders = _holders(module_functions)
    untraced = Runner(docs, gate.Gate())
    untraced.one_pass()
    traced = Runner(docs, gate.Gate())
    with tracing.Tracer() as tracer:
        assert _holders(module_functions) == []
        assert all(owner.__dict__[attr] is not value
                   for owner, attr, value in before if isinstance(owner, type))
        traced.one_pass(tracer)
    assert _bindings() == before
    assert _holders(module_functions) == holders
    assert untraced.problems == [] and traced.problems == []
    assert traced.gate.first == untraced.gate.first  # SHA-256 of every report
    LAYER_CALLS[workload] = traced.layers[0]


def test_every_layer_records_calls_on_every_workload():
    # so that no per-layer time reads zero on any workload
    assert set(LAYER_CALLS) == set(workloads.WORKLOADS), "run the module as a whole"
    for workload, layer in LAYER_CALLS.items():
        for name, unit in tracing.metric_names():
            if name.endswith((".calls", ".self_s")):
                assert layer[name] > 0, (workload, name)


def test_counts_repeat_exactly_for_one_seed():
    docs = workloads.generate("many_small", 9)
    counts = []
    for _ in range(2):
        runner = Runner(docs, gate.Gate())
        with tracing.Tracer() as tracer:
            runner.one_pass(tracer)
        layer = runner.layers[0]
        counts.append({k: v for k, v in layer.items() if k.endswith(tracing.COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert counts[0]["presentations.reduce_terms.calls"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    per_layer = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert per_layer == set(tracing.metric_names()) | {("trace.overhead_frac", "ratio")}
    from run import END_TO_END_UNITS
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(END_TO_END_UNITS.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
