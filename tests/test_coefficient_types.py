"""Every coefficient the package stores or reports is exact and nonzero:
over Q a plain `int` or a `Fraction`, over GF(p) exactly an `int` residue
c with 0 < c < p, and never a float, a bool or a zero.  Each bundled job,
two failing variants of `sweedler_h4` that carry witnesses, and one that
writes x^2 = 0 with a zero term, runs over Q and over GF(5) while every
presentation, sparse echelon, report entry, element and tensor it makes is
recorded; then the normal-form memos, the rules, the echelon rows, the
witnesses, the inverses computed, every element and tensor made and every
one reachable from the job's parsed structures are walked."""

from fractions import Fraction

import pytest

from hgalois import AlgebraPresentation, Element, TensorElement, cli
from hgalois.cli import run_commands
from hgalois.examples import BUILTINS, builtin_job
from hgalois.jobs import Job
from hgalois.presentations import SparseEchelon, Terms

FIELDS = {"Q": ("rationals", lambda c: type(c) in (int, Fraction) and c != 0),
          "GF5": ({"prime": 5}, lambda c: type(c) is int and 0 < c < 5)}


def _mutant(change):
    doc = builtin_job("sweedler_h4")
    change(doc["mu"]["x"])
    return doc


JOBS = {name: lambda name=name: builtin_job(name) for name in BUILTINS}
JOBS["sweedler_h4 without a summand"] = lambda: _mutant(lambda terms: terms.pop(2))
JOBS["sweedler_h4 with a coefficient 1/3"] = lambda: _mutant(
    lambda terms: terms[1].update(coeff="1/3"))


def _zero_rhs():
    doc = builtin_job("sweedler_h4")
    doc["presentation"]["relations"][1]["rhs"] = [{"coeff": "1", "word": ["g"]},
                                                  {"coeff": "-1", "word": ["g"]}]
    return doc


PASSING = set(BUILTINS) | {"sweedler_h4 with x^2 = g - g"}
JOBS["sweedler_h4 with x^2 = g - g"] = _zero_rhs


def _recorded(monkeypatch, owner, name, seen, *, returned=False):
    """Wrap function `name` of a class or module so that every call appends
    its first argument (the instance, for a method) to `seen`, or its
    return value when `returned` is set."""
    function = getattr(owner, name)

    def wrapper(first, *args, **kwargs):
        out = function(first, *args, **kwargs)
        seen.append(out if returned else first)
        return out
    monkeypatch.setattr(owner, name, wrapper)


def _element_coefficients(obj, where, seen, out):
    """(where, coefficient) of every element and tensor reachable from obj
    through containers and package objects."""
    if id(obj) in seen or isinstance(obj, (str, bytes, int, Fraction)):
        return
    seen.add(id(obj))
    if isinstance(obj, Terms):
        out += [(f"{where} {obj!r}", c) for c in obj.terms.values()]
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = enumerate(obj)
    elif type(obj).__module__.startswith("hgalois."):
        names = set(vars(obj)) if hasattr(obj, "__dict__") else set()
        names.update(s for c in type(obj).__mro__ for s in getattr(c, "__slots__", ()))
        children = ((n, getattr(obj, n, None)) for n in sorted(names))
    else:
        return
    for key, child in children:
        _element_coefficients(child, f"{where}.{key}", seen, out)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", sorted(JOBS))
def test_every_coefficient_is_exact(name, field, monkeypatch):
    spec, exact = FIELDS[field]
    presentations, echelons, entries, inverses, made = [], [], [], [], []
    _recorded(monkeypatch, AlgebraPresentation, "__init__", presentations)
    _recorded(monkeypatch, SparseEchelon, "insert", echelons)
    _recorded(monkeypatch, cli, "entry_to_json", entries)
    _recorded(monkeypatch, AlgebraPresentation, "invert", inverses, returned=True)
    _recorded(monkeypatch, Element, "__init__", made)
    _recorded(monkeypatch, TensorElement, "__init__", made)
    _recorded(monkeypatch, TensorElement, "_like", made, returned=True)
    doc = JOBS[name]()
    doc["field"] = spec
    job = Job(doc)
    _, summary = run_commands(job, job.commands)

    found = []
    for p in presentations:
        for word, nf in p._nf_cache.items():
            found += [(f"{p.name} memo {word}", c) for c in nf.values()]
        for rule in p.rules:
            found += [(f"{p.name} rule {rule.lhs}", c) for c in rule.rhs_terms.values()]
        for lhs, terms in p.user_relations:
            found += [(f"{p.name} relation {lhs}", c) for c in terms.values()]
    for echelon in echelons:
        for lead, row in echelon.rows.items():
            found += [(f"echelon row {lead}", c) for c in row.values()]
    for i, value in enumerate(made):
        found += [(f"made {type(value).__name__} {i}", c) for c in value.terms.values()]
    seen = set()
    for i, entry in enumerate(entries):
        _element_coefficients(entry.witness, f"entry {i} witness", seen, found)
    _element_coefficients(inverses, "inverse", seen, found)
    _element_coefficients(job._parsed, "job", seen, found)

    assert presentations and found
    if summary["status"] == "fail":
        assert any(entry.witness for entry in entries)
    assert summary["status"] == ("pass" if name in PASSING else "fail")
    if any(c in ("build-envelope", "check-lemma55") for c in job.commands):
        assert echelons  # the envelope's product-relation echelon was walked
    assert [(where, c) for where, c in found if not exact(c)] == []
