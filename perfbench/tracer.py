"""Per-layer spans recorded from outside the package.

`Tracer` wraps the public functions of each `hgalois` module for the length
of a `with` block and restores every original afterwards.  Methods are
wrapped on their classes.  A module-level function is rebound in every
loaded `hgalois.*` module that holds it, so the aliases made by
`from .x import f` are wrapped as well (for example `triple_bracket` in
`envelope` and the check functions in `cli`).

Each call of a wrapped function is one span: name, start, end, parent span
and job id, kept in memory until the run writes them out.  A span's self
time is its duration minus the time covered by its child spans.  Layer
metrics are named `<layer>.<function>.<stat>`; the layers are the module
names.
"""

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

from hgalois import (cli, envelope, fields, hopf_galois, jobs, maps, ore, poisson,
                     presentations, reports, tensors)

_ENV = envelope.EnvelopePresentation
_PRES = presentations.AlgebraPresentation
_TENSOR = tensors.TensorElement

# span name -> the functions it covers: (class, attribute) for methods,
# (module, attribute) for module-level functions
SPANS = {
    "presentations.reduce_terms": [(_PRES, "reduce_terms")],
    "presentations.multiply": [(_PRES, "multiply")],
    "presentations.init": [(_PRES, "__init__")],
    "presentations.finite_basis": [(_PRES, "finite_basis")],
    "presentations.multiplication_table": [(_PRES, "multiplication_table")],
    "presentations.invert": [(_PRES, "invert")],
    "presentations.unresolved_critical_pairs": [(_PRES, "unresolved_critical_pairs")],
    "presentations.complete_rules": [(_PRES, "complete_rules")],
    "tensors.mul": [(_TENSOR, "__mul__")],
    "tensors.add": [(_TENSOR, "__add__"), (_TENSOR, "__sub__")],
    "tensors.slot": [(_TENSOR, "slot_transform"), (_TENSOR, "expand_slot"),
                     (_TENSOR, "fold_adjacent"), (_TENSOR, "fold_all")],
    "tensors.outer": [(_TENSOR, "outer")],
    "maps.apply_word": [(maps.GeneratorMap, "apply_word")],
    "maps.apply": [(maps.GeneratorMap, "apply")],
    "maps.check_map_respects_relations": [(maps, "check_map_respects_relations")],
    "hopf_galois.check_hopf_galois": [(hopf_galois, "check_hopf_galois")],
    "hopf_galois.check_hopf": [(hopf_galois, "check_hopf")],
    "hopf_galois.is_grouplike": [(hopf_galois, "is_grouplike")],
    "hopf_galois.hopf_to_galois": [(hopf_galois, "hopf_to_galois")],
    "poisson.bracket": [(poisson.PoissonStructure, "bracket")],
    "poisson.triple_bracket": [(poisson, "triple_bracket")],
    "poisson.check_poisson": [(poisson, "check_poisson")],
    "poisson.check_poisson_hg": [(poisson, "check_poisson_hg")],
    "ore.check_thm28": [(ore, "check_thm28")],
    "ore.check_thm44": [(ore, "check_thm44")],
    "ore.OreData.validate": [(ore.OreData, "validate")],
    "ore.PoissonOreData.validate": [(ore.PoissonOreData, "validate")],
    "envelope.build_envelope": [(envelope, "build_envelope")],
    "envelope.relation_instance_report": [(envelope, "relation_instance_report")],
    "envelope.alpha_of": [(_ENV, "alpha_of")],
    "envelope.beta_of": [(_ENV, "beta_of")],
    "envelope.xi": [(envelope.TripleEnvelope, "xi")],
    "envelope.alpha3": [(envelope.TripleEnvelope, "alpha3")],
    "envelope.check_lemma55": [(envelope, "check_lemma55")],
    "envelope.check_thm59": [(envelope, "check_thm59")],
    "jobs.parse": [(jobs.Job, name) for name in (
        "__init__", "presentation", "hopf_galois", "poisson", "hopf", "alpha_map",
        "ore_data", "poisson_ore_data", "quotient")],
    "reports.entry_to_json": [(reports, "entry_to_json")],
    "cli.render_json": [(cli, "render_json")],
    "cli.run_commands": [(cli, "run_commands")],
}

# reads of the zero/one properties of the coefficient fields; counted only,
# because a span around every coefficient read would swamp the arithmetic
CONST_READS = [(cls, attr) for cls in (fields.Rationals, fields.PrimeField)
               for attr in ("zero", "one")]

# extra counts: span name -> (stat, function of (call arguments, result))
EXTRA = {
    "presentations.reduce_terms": [("terms_in", lambda args, out: len(args[1])),
                                   ("terms_out", lambda args, out: len(out))],
    "presentations.unresolved_critical_pairs": [("unresolved", lambda args, out: len(out))],
    "presentations.complete_rules": [("rules_added", lambda args, out: out)],
    "tensors.mul": [("terms_out", lambda args, out: len(out.terms))],
    "envelope.build_envelope": [("rules", lambda args, out: len(out.presentation.rules))],
}

# the metrics that repeat exactly for one seed (work done, not time)
COUNT_SUFFIXES = (".calls", ".terms_in", ".terms_out", ".unresolved", ".rules_added", ".rules")


def metric_names() -> list:
    """Every per-layer metric a traced pass reports, with its unit."""
    names = []
    for span in SPANS:
        names.append((f"{span}.calls", "count"))
        names.append((f"{span}.self_s", "s"))
        names += [(f"{span}.{stat}", "count") for stat, _ in EXTRA.get(span, ())]
    names += [("presentations.complete_rules.rules_per_scan", "ratio"),
              ("envelope.builds_per_job", "ratio"),
              ("fields.const.calls", "count")]
    return names


def hgalois_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hgalois" or name.startswith("hgalois."))]


class Tracer:
    """Wraps the functions in `SPANS` while active and records their spans."""

    def __init__(self):
        self.job = -1
        self.names = list(SPANS)
        # spans in parallel arrays, one entry per span; parent is a span index or -1
        self.name_ids, self.job_ids = array("i"), array("i")
        self.starts, self.ends, self.parents = array("d"), array("d"), array("q")
        self._stack = []  # [span index, name id, child time] per open span
        self._calls = Counter()
        self._self_s = Counter()
        self._extra = Counter()
        self._const_reads = 0
        self._completion_scans = 0
        self._jobs_with_builds = set()
        self._restore = []  # (owner, attribute, original), in wrapping order
        self._complete_id = self.names.index("presentations.complete_rules")
        self._scan_id = self.names.index("presentations.unresolved_critical_pairs")
        self._build_id = self.names.index("envelope.build_envelope")

    # ------------------------------------------------------------------
    def __enter__(self):
        for span, targets in SPANS.items():
            nid = self.names.index(span)
            for owner, attr in targets:
                self._wrap(owner, attr, nid, EXTRA.get(span, ()))
        for cls, attr in CONST_READS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, property(self._counted(original.fget)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _wrap(self, owner, attr, nid, extra):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapper = property(self._span(original.fget, nid, extra))
            elif isinstance(original, classmethod):
                wrapper = classmethod(self._span(original.__func__, nid, extra))
            else:
                wrapper = self._span(original, nid, extra)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        original = getattr(owner, attr)
        wrapper = self._span(original, nid, extra)
        for module in hgalois_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)

    def _counted(self, fget):
        def read(obj):
            self._const_reads += 1
            return fget(obj)
        return read

    def _span(self, fn, nid, extra):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.starts)
            parent = stack[-1] if stack else None
            self.name_ids.append(nid)
            self.parents.append(parent[0] if parent else -1)
            self.job_ids.append(self.job)
            self.starts.append(0.0)
            self.ends.append(0.0)
            frame = [index, nid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.starts[index] = start
                self.ends[index] = end
                self._calls[nid] += 1
                self._self_s[nid] += duration - frame[2]
                if parent:
                    parent[2] += duration
            for stat, count in extra:
                self._extra[nid, stat] += count(args, result)
            if nid == self._scan_id and parent and parent[1] == self._complete_id:
                self._completion_scans += 1
            elif nid == self._build_id:
                self._jobs_with_builds.add(self.job)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def take_metrics(self) -> dict:
        """The per-layer metrics recorded since the last call, then reset."""
        out = {}
        for nid, span in enumerate(self.names):
            out[f"{span}.calls"] = self._calls[nid]
            out[f"{span}.self_s"] = self._self_s[nid]
            for stat, _ in EXTRA.get(span, ()):
                out[f"{span}.{stat}"] = self._extra[nid, stat]
        scans = self._completion_scans
        out["presentations.complete_rules.rules_per_scan"] = (
            out["presentations.complete_rules.rules_added"] / scans if scans else 0.0)
        builds = out["envelope.build_envelope.calls"]
        jobs_built = len(self._jobs_with_builds)
        out["envelope.builds_per_job"] = builds / jobs_built if jobs_built else 0.0
        out["fields.const.calls"] = self._const_reads
        self._calls.clear()
        self._self_s.clear()
        self._extra.clear()
        self._const_reads = 0
        self._completion_scans = 0
        self._jobs_with_builds.clear()
        return out

    def write_spans(self, path):
        """All spans as gzipped tab-separated rows, one per span."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i, nid in enumerate(self.name_ids):
                handle.write(f"{i}\t{self.names[nid]}\t{self.starts[i]!r}\t"
                             f"{self.ends[i]!r}\t{self.parents[i]}\t{self.job_ids[i]}\n")
