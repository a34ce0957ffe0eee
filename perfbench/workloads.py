"""Seeded job documents for the benchmark workloads.

Every document is plain JSON data in the job-file format that `hgalois run`
reads.  The seed draws the prime, the bracket and Taft constants and the job
order; the job shapes, their commands and their check counts do not depend
on it.  Log-canonical brackets {x_i, x_j} = q_ij x_i x_j on monomial
quotients are Poisson for any constants, so every generated job except the
mutants has the known verdict "pass".
"""

import copy
import itertools
import random
from fractions import Fraction

from hgalois.examples import BUILTINS, builtin_job

# p = 1 (mod 105), so GF(p) holds primitive 3rd, 5th and 7th roots of unity
# for the Taft algebras; every prime is far from the forbidden 2 and 3.
PRIMES = (211, 421, 631, 1051, 1471, 2311, 2521)


# job-file term builders, kept here so the documents do not depend on
# private helpers of the package
def _e(coeff, *word):
    return {"coeff": coeff, "word": list(word)}


def _t(coeff, *factors):
    return {"coeff": coeff, "factors": [list(f) for f in factors]}


def _gf(p):
    return {"prime": p}


def _suffix(field) -> str:
    return "" if field == "rationals" else f"_gf{field['prime']}"


class Draw:
    """The seed's choices: one prime for every GF(p) job, and constants."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.p = self.rng.choice(PRIMES)

    def const(self) -> str:
        """A small nonzero rational a/b; it is also nonzero in GF(p)."""
        a = self.rng.choice((-1, 1)) * self.rng.randint(1, 7)
        return str(Fraction(a, self.rng.randint(1, 3)))

    def unit_root(self, n: int) -> int:
        """A primitive n-th root of unity in GF(p), for prime n dividing p - 1."""
        while True:
            q = pow(self.rng.randint(2, self.p - 1), (self.p - 1) // n, self.p)
            if q != 1:
                return q


# ----------------------------------------------------------------------
# families

def gfp_image(doc: dict, p: int) -> dict:
    """The same job over GF(p)."""
    image = copy.deepcopy(doc)
    image["name"] = f"{doc['name']}_gf{p}"
    image["field"] = _gf(p)
    return image


def exterior_hopf(n: int) -> dict:
    """E(n) = <g, x_1..x_n | g^2 = 1, x_i^2 = 0, x_i g = -g x_i,
    x_j x_i = -x_i x_j>, each x_i skew-primitive: Delta(x_i) = x_i⊗1 + g⊗x_i."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    relations = [{"lhs": ["g", "g"], "rhs": [_e("1")]}]
    for x in xs:
        relations.append({"lhs": [x, x], "rhs": []})
        relations.append({"lhs": [x, "g"], "rhs": [_e("-1", "g", x)]})
    for xi, xj in itertools.combinations(xs, 2):
        relations.append({"lhs": [xj, xi], "rhs": [_e("-1", xi, xj)]})
    return {
        "name": f"exterior_E{n}",
        "field": "rationals",
        "forbidden_characteristics": [2],
        "presentation": {
            "generators": ["g"] + xs,
            "relations": relations,
        },
        "hopf": {
            "comultiplication": {
                "g": [_t("1", ["g"], ["g"])],
                **{x: [_t("1", [x], []), _t("1", ["g"], [x])] for x in xs},
            },
            "counit": {"g": "1", **{x: "0" for x in xs}},
            "antipode": {"g": [_e("1", "g")], **{x: [_e("-1", "g", x)] for x in xs}},
        },
        "commands": ["convert hopf-to-galois"],
    }


def taft(n: int, p: int, q: int) -> dict:
    """Taft algebra <g, x | g^n = 1, x^n = 0, x g = q g x> over GF(p), with q a
    primitive n-th root of unity, Delta(x) = x⊗1 + g⊗x and S(x) = -g^(n-1) x."""
    return {
        "name": f"taft_T{n}_gf{p}",
        "field": _gf(p),
        "cap": 4 * n,
        "presentation": {
            "generators": ["g", "x"],
            "relations": [
                {"lhs": [f"g^{n}"], "rhs": [_e("1")]},
                {"lhs": [f"x^{n}"], "rhs": []},
                {"lhs": ["x", "g"], "rhs": [_e(str(q), "g", "x")]},
            ],
        },
        "hopf": {
            "comultiplication": {
                "g": [_t("1", ["g"], ["g"])],
                "x": [_t("1", ["x"], []), _t("1", ["g"], ["x"])],
            },
            "counit": {"g": "1", "x": "0"},
            "antipode": {
                "g": [_e("1", f"g^{n - 1}")],
                "x": [_e("-1", f"g^{n - 1}", "x")],
            },
        },
        "commands": ["convert hopf-to-galois"],
    }


def laurent_multi(k: int, field, lambdas, qs) -> dict:
    """k[g_1^±1..g_k^±1, x] with {x, g_i} = lambda_i g_i x, log-canonical
    {g_i, g_j} = q_ij g_i g_j, and the Hopf-Galois map of the Hopf algebra
    with group-like g_i and Delta(x) = 1⊗x + x⊗h^-1, h = g_1 ... g_k."""
    gs = [f"g{i}" for i in range(1, k + 1)]
    gs_inv = [f"{g}^-1" for g in gs]
    bracket = [{"pair": ["x", g], "value": [_e(lam, g, "x")]}
               for g, lam in zip(gs, lambdas)]
    bracket += [{"pair": [a, b], "value": [_e(q, a, b)]}
                for (a, b), q in zip(itertools.combinations(gs, 2), qs)]
    mu = {g: [_t("1", [g], [f"{g}^-1"], [g])] for g in gs}
    mu["x"] = [
        _t("1", [], [], ["x"]),
        _t("-1", [], ["x"] + gs, gs_inv),
        _t("1", ["x"], gs, gs_inv),
    ]
    return {
        "name": f"laurent_L{k}{_suffix(field)}",
        "field": field,
        "presentation": {
            "generators": [{"name": g, "invertible": True} for g in gs] + [{"name": "x"}],
            "commutative": True,
        },
        "bracket": bracket,
        "mu": mu,
        "commands": ["check-hopf-galois", "check-poisson", "check-poisson-hg"],
    }


def mutant(doc: dict, term: int, coeff: str) -> dict:
    """The job with the coefficient of one term of mu(x) replaced."""
    bad = copy.deepcopy(doc)
    bad["name"] = f"{doc['name']}_mutant{term}"
    bad["mu"]["x"][term]["coeff"] = coeff
    return bad


def log_canonical(name, gens, zero_monomials, field, qs, commands, *, cap=6,
                  sample_words=None) -> dict:
    """k[gens]/(zero_monomials) with {x_i, x_j} = q_ij x_i x_j for i < j."""
    bracket = [{"pair": [a, b], "value": [_e(q, a, b)]}
               for (a, b), q in zip(itertools.combinations(gens, 2), qs)]
    envelope = {"cap": cap}
    if sample_words is not None:
        envelope["sample_words"] = sample_words
    return {
        "name": name + _suffix(field),
        "field": field,
        "presentation": {
            "generators": list(gens),
            "commutative": True,
            "relations": [{"lhs": list(m), "rhs": []} for m in zero_monomials],
        },
        "bracket": bracket,
        "envelope": envelope,
        "commands": list(commands),
    }


def kxy_truncation(field, c: str) -> dict:
    """k[x,y]/(all monomials of degree 3) with {x, y} = c x, enveloped."""
    doc = builtin_job("kxy_truncated")
    doc["name"] = "kxy_trunc" + _suffix(field)
    doc["field"] = field
    doc["bracket"][0]["value"][0]["coeff"] = c
    doc["commands"] = ["build-envelope"]
    del doc["envelope"]["sample_words"]
    return doc


def z2_lemma55() -> dict:
    """The bundled Z/2 envelope job, running the Lemma 5.5 checks."""
    doc = builtin_job("z2_zero_bracket")
    doc["name"] = "z2_lemma55"
    doc["commands"] = ["check-lemma55"]
    return doc


# ----------------------------------------------------------------------
# workloads

# Small jobs that reach every traced layer, added to the two heavy workloads
# (about 0.1 s of a 6-9 s pass) so that no per-layer time reads zero there.
COVERAGE = ("sweedler_h4", "ore_q2_laurent", "poisson_ore_laurent", "laurent_lambda1",
            "z2_zero_bracket")


def coverage() -> list:
    return [builtin_job(name) for name in COVERAGE] + [exterior_hopf(2), z2_lemma55()]


SMALL_BUILTINS = tuple(sorted(n for n in BUILTINS if n != "kxy_truncated"))


def _laurent_constants(draw, k):
    lambdas = [draw.const() for _ in range(k)]
    qs = [draw.const() for _ in range(k * (k - 1) // 2)]
    return lambdas, qs


def many_small(draw: Draw) -> list:
    """Many short verifications: bundled jobs and small Hopf and Poisson
    families, over Q and GF(p), plus two known-fail mutants."""
    p = draw.p
    jobs = []
    for name in SMALL_BUILTINS:
        doc = builtin_job(name)
        jobs.append(doc)
        if p not in doc.get("forbidden_characteristics", []):
            jobs.append(gfp_image(doc, p))
    jobs += [exterior_hopf(n) for n in (2, 3, 4)]
    jobs += [taft(n, p, draw.unit_root(n)) for n in (3, 5, 7)]
    for k in (2, 3, 4):
        for field in ("rationals", _gf(p)):
            jobs.append(laurent_multi(k, field, *_laurent_constants(draw, k)))
    base_q = laurent_multi(2, "rationals", *_laurent_constants(draw, 2))
    base_p = laurent_multi(2, _gf(p), *_laurent_constants(draw, 2))
    jobs.append(mutant(base_q, 1, _changed(draw, "-1")))
    jobs.append(mutant(base_p, 2, _changed(draw, "1")))
    jobs.append(z2_lemma55())
    return jobs


def _changed(draw, coeff):
    while True:
        new = draw.const()
        if new != coeff:
            return new


def lemma55(draw: Draw) -> list:
    """The Lemma 5.5 checks on fixed envelopes, over Q and GF(p)."""
    kxy = builtin_job("kxy_truncated")
    return [
        kxy,
        gfp_image(kxy, draw.p),
        log_canonical("logcan_x2y3", ("x", "y"), (("x", "x"), ("y", "y", "y")),
                      "rationals", [draw.const()],
                      ("build-envelope", "check-lemma55"), cap=4,
                      sample_words=[[], ["x"], ["y"]]),
    ] + coverage()


def completion(draw: Draw) -> list:
    """Envelope builds whose time is rule completion, source dimension 6 and 7.

    Dimension 8 is left out: one such build takes 6 to 10 s, and a pass made
    of one long job leaves too few passes in a run for a steady median."""
    xyz = ("x", "y", "z")
    return [
        kxy_truncation(_gf(draw.p), draw.const()),
        log_canonical("logcan_x2y3", ("x", "y"), (("x", "x"), ("y", "y", "y")), _gf(draw.p),
                      [draw.const()], ("build-envelope",)),
        log_canonical("logcan_x2y2z2xyz", xyz, (("x", "x"), ("y", "y"), ("z", "z"), xyz),
                      "rationals", [draw.const() for _ in range(3)], ("build-envelope",)),
    ] + coverage()


FAMILIES = {"many_small": many_small, "lemma55": lemma55, "completion": completion}
WORKLOADS = tuple(FAMILIES)


def generate(workload: str, seed: int) -> list:
    """The workload's job documents for one seed, in the seed's order."""
    draw = Draw(seed)
    jobs = FAMILIES[workload](draw)
    draw.rng.shuffle(jobs)
    return jobs
