import json

import pytest

import gate
import workloads
from run import Runner


def _shape(value):
    """The document with its seeded parts blanked: coefficients, prime, name."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if key == "coeff":
                out[key] = None
            elif key == "field" and item != "rationals":
                out[key] = "prime"
            elif key == "name" and isinstance(item, str):
                out[key] = gate.job_key(item)
            else:
                out[key] = _shape(item)
        return out
    if isinstance(value, list):
        return [_shape(item) for item in value]
    return value


def _by_key(docs):
    return {gate.job_key(d["name"]): d for d in docs}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_documents(workload):
    first = json.dumps(workloads.generate(workload, 7))
    assert json.dumps(workloads.generate(workload, 7)) == first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_differ_in_coefficients_not_in_shapes(workload):
    a, b = _by_key(workloads.generate(workload, 1)), _by_key(workloads.generate(workload, 2))
    assert set(a) == set(b)
    assert {k: _shape(d) for k, d in a.items()} == {k: _shape(d) for k, d in b.items()}
    assert a != b
    known = gate.Gate().known
    assert all(k in known for k in a)  # so both seeds share the known check counts


def test_generated_families_are_all_present():
    names = {gate.job_key(d["name"]) for w in workloads.WORKLOADS
             for d in workloads.generate(w, 3)}
    for prefix in ("exterior_E", "taft_T", "laurent_L", "logcan_", "kxy_trunc", "_mutant"):
        assert any(prefix in n for n in names), prefix


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [11, 12])
def test_known_verdicts_hold(workload, seed):
    runner = Runner(workloads.generate(workload, seed), gate.Gate())
    runner.one_pass()
    assert runner.problems == []
