"""A verdict census of single-coefficient mutants.  Each `coeff` string of
the bundled jobs is raised by 1, one at a time, and the mutant runs through
`hgalois run`.  The golden reports guard only pass paths; this table pins
the fail paths, with their witnesses (through the report's SHA-256), and
the refusals (exit 2, through the stderr line).  A mutant that still passes
carries the reason why its verdict cannot change.  Regenerate the table only
on an intended report change, and name it in CHANGES.md."""

import hashlib
import json
from fractions import Fraction

import pytest

from test_golden_reports import GOLDEN

from hgalois.cli import main
from hgalois.examples import BUILTINS, builtin_job

# the report of a passing mutant that is its job's default report byte for
# byte (the golden hash of perfbench/expected.json)
DEFAULT = "default"

LAURENT_BRACKET = ("{x, g} = lambda g x is a Poisson bracket and mu a Poisson map "
                   "for every lambda")
LAURENT_MU_G = "scaling mu(g) scales both sides of the Poisson Hopf-Galois law alike"
LAURENT_MU_X = ("each term of mu(x) holds x once, so both sides of the Poisson "
                "Hopf-Galois law scale with its coefficients alike")
MOD_X_BRACKET = ("(x) is a Poisson ideal for every lambda, and the quotient k[h^±1] "
                 "has one generator, so no pushed bracket pair is checked")
MOD_X_MU_X = "pushforward reads mu only at the section's lift g of h, never mu(x)"
HOPF_UNREAD = "sweedler_h4 runs only check-hopf-galois, which never reads the hopf block"
GROUPLIKE = "g enters only as g ⊗ g^-1 and g g^-1, which 2g leaves unchanged"

# (job, coefficient path) -> (0, report SHA-256, reason)
PASSING = {
    ("kxy_truncated", "bracket[0].value[0].coeff"): (
        0, DEFAULT, "{x, y} = 2x is still a Poisson bracket, and check-lemma55 reads "
                    "an envelope that passed its relation report"),
    ("laurent_lambda1", "bracket[0].value[0].coeff"): (0, DEFAULT, LAURENT_BRACKET),
    ("laurent_lambda1", "mu.g[0].coeff"): (0, DEFAULT, LAURENT_MU_G),
    ("laurent_lambda1", "mu.x[0].coeff"): (0, DEFAULT, LAURENT_MU_X),
    ("laurent_lambda1", "mu.x[1].coeff"): (0, DEFAULT, LAURENT_MU_X),
    ("laurent_lambda1", "mu.x[2].coeff"): (0, DEFAULT, LAURENT_MU_X),
    ("laurent_lambda2", "bracket[0].value[0].coeff"): (0, DEFAULT, LAURENT_BRACKET),
    ("laurent_lambda2", "mu.g[0].coeff"): (0, DEFAULT, LAURENT_MU_G),
    ("laurent_lambda2", "mu.x[0].coeff"): (0, DEFAULT, LAURENT_MU_X),
    ("laurent_lambda2", "mu.x[1].coeff"): (0, DEFAULT, LAURENT_MU_X),
    ("laurent_lambda2", "mu.x[2].coeff"): (0, DEFAULT, LAURENT_MU_X),
    ("laurent_mod_x", "bracket[0].value[0].coeff"): (0, DEFAULT, MOD_X_BRACKET),
    ("laurent_mod_x", "mu.x[0].coeff"): (0, DEFAULT, MOD_X_MU_X),
    ("laurent_mod_x", "mu.x[1].coeff"): (0, DEFAULT, MOD_X_MU_X),
    ("laurent_mod_x", "mu.x[2].coeff"): (0, DEFAULT, MOD_X_MU_X),
    ("laurent_mod_x", "quotient.ideal[0][0].coeff"): (
        0, DEFAULT, "2x generates the same ideal as x"),
    ("ore_q2_laurent", "ore.grouplike[0].coeff"): (0, DEFAULT, GROUPLIKE),
    ("poisson_ore_laurent", "poisson_ore.delta.g[0].coeff"): (
        0, "f8981b9fc3110432688111fd0e30a58bffe7c3cc82cb1baa6a3e83b6f679e052",
        "alpha and the base bracket are zero, so each Theorem 4.4 law is linear in delta "
        "and holds for delta(g) = 2g"),
    ("poisson_ore_laurent", "poisson_ore.grouplike[0].coeff"): (0, DEFAULT, GROUPLIKE),
    ("sweedler_h4", "hopf.comultiplication.g[0].coeff"): (0, DEFAULT, HOPF_UNREAD),
    ("sweedler_h4", "hopf.comultiplication.x[0].coeff"): (0, DEFAULT, HOPF_UNREAD),
    ("sweedler_h4", "hopf.comultiplication.x[1].coeff"): (0, DEFAULT, HOPF_UNREAD),
    ("sweedler_h4", "hopf.antipode.g[0].coeff"): (0, DEFAULT, HOPF_UNREAD),
    ("sweedler_h4", "hopf.antipode.x[0].coeff"): (0, DEFAULT, HOPF_UNREAD),
}

# (job, coefficient path) -> (1, report SHA-256, the failing checks)
FAILING = {
    ("laurent_mod_x", "mu.g[0].coeff"): (
        1, "75e660400f5b8317f27b1d666644a3c18c32916838bed842ca488475b2997153",
        ("left unit law", "right unit law")),
    ("sweedler_h4", "presentation.relations[0].rhs[0].coeff"): (
        1, "f3fe7c72d67aa47c86b81631b8ed6997593e02d099c2da5c41dc104d81e02b38",
        ("left unit law", "mu respects relation", "right unit law")),
    ("sweedler_h4", "mu.g[0].coeff"): (
        1, "b87762d1745f0437132b19a6e36668cbe27e7c086c65262b43752df166fe70e1",
        ("coassociativity (rank 5)", "left unit law", "mu respects relation",
         "right unit law")),
    ("sweedler_h4", "mu.x[0].coeff"): (
        1, "c3912c744774f003af24e98baa9211128572ae5616c086f507e6f72f40856263",
        ("coassociativity (rank 5)", "left unit law", "right unit law")),
    ("sweedler_h4", "mu.x[1].coeff"): (
        1, "d8954f3341f3d0b44858003c5f9c5d88bb274987613e6d1b754b62a0350dc6d7",
        ("left unit law", "right unit law")),
    ("sweedler_h4", "mu.x[2].coeff"): (
        1, "b386c90079a3ed37c88610ff1431c104f961907d055d270f3058b234d9530a74",
        ("coassociativity (rank 5)", "left unit law", "right unit law")),
    ("z2_zero_bracket", "presentation.relations[0].rhs[0].coeff"): (
        1, "4e8fc9477084e760a81acd5124800f6e130ce1c8143005cacfaa87ba75462cad",
        ("U(mu) respects relation",)),
    ("z2_zero_bracket", "mu.c[0].coeff"): (
        1, "6399216178783818d75febc009ccc97402d7477ec412df0dff836a1483f55cdd",
        ("U(mu) respects relation",)),
}

NOT_A_PREIMAGE = ("error: laurent_mod_x [pushforward]: pushforward: section of 'h' "
                  "is not a preimage under f")
TAU_INVERSE = "error: ore_q2_laurent [check-thm28]: tau inverse does not invert tau on generator g"

# (job, coefficient path) -> (2, the stderr line)
REFUSED = {
    ("laurent_mod_x", "quotient.map.g[0].coeff"): (2, NOT_A_PREIMAGE),
    ("laurent_mod_x", "quotient.section.h[0].coeff"): (2, NOT_A_PREIMAGE),
    ("ore_q2_laurent", "mu.g[0].coeff"): (
        2, "error: ore_q2_laurent [check-thm28]: check_thm28: g is not group-like "
           "(mu(g) is not g ⊗ g^-1 ⊗ g)"),
    ("ore_q2_laurent", "ore.tau.g[0].coeff"): (2, TAU_INVERSE),
    ("ore_q2_laurent", "ore.tau_inverse.g[0].coeff"): (2, TAU_INVERSE),
    ("poisson_ore_laurent", "mu.g[0].coeff"): (
        2, "error: poisson_ore_laurent [check-thm44]: check_thm44: g is not group-like "
           "(mu(g) is not g ⊗ g^-1 ⊗ g)"),
    ("sweedler_h4", "presentation.relations[2].rhs[0].coeff"): (
        2, "error: sweedler_h4.presentation: presentation sweedler_h4 is not locally "
           "confluent; first unresolved overlap: x*g^2 between [x*g -> 0] and [g^2 -> (1)]"),
}

CENSUS = {**PASSING, **FAILING, **REFUSED}


def coefficients(node, path=""):
    """(path, the dict that holds it) for every `coeff` string of a job
    document, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "coeff":
                yield f"{path}.coeff".lstrip("."), node
            else:
                yield from coefficients(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from coefficients(value, f"{path}[{i}]")


def test_census_covers_every_coefficient_of_the_bundled_jobs():
    found = [(name, path) for name in sorted(BUILTINS)
             for path, _ in coefficients(builtin_job(name))]
    assert sorted(found) == sorted(CENSUS)
    assert (len(PASSING), len(FAILING), len(REFUSED)) == (24, 8, 7)
    assert all(reason for _, _, reason in PASSING.values())


@pytest.mark.parametrize("name,path", sorted(CENSUS), ids=[f"{n}:{p}" for n, p in sorted(CENSUS)])
def test_mutant_verdict(name, path, tmp_path, capsys):
    doc = builtin_job(name)
    holder = dict(coefficients(doc))[path]
    holder["coeff"] = str(Fraction(holder["coeff"]) + 1)
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    code = main(["run", "--input", str(job)])
    out, err = capsys.readouterr()
    if code == 2:
        assert (code, err.strip()) == CENSUS[name, path]
        return
    entries = json.loads(out)[:-1]
    failing = tuple(sorted({e["check"] for e in entries if e["status"] == "fail"}))
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    expected_code, expected_digest, detail = CENSUS[name, path]
    if expected_digest == DEFAULT:
        expected_digest = GOLDEN[name]
    assert (code, digest) == (expected_code, expected_digest)
    assert failing == (() if code == 0 else detail)
