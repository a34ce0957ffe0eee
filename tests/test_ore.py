import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgalois import (
    QQ,
    AlgebraPresentation,
    GeneratorMap,
    GeneratorSymbol,
    HopfGaloisStructure,
    InputError,
    OreData,
    PoissonHopfGaloisStructure,
    PoissonOreData,
    PoissonStructure,
    TensorElement,
    build_ore,
    build_poisson_ore,
    check_hopf_galois,
    check_poisson,
    check_poisson_hg,
    check_thm28,
    check_thm44,
    mu_map,
)
import hgalois.ore as ore_module
from hgalois.cli import run_commands
from hgalois.examples import builtin_job
from hgalois.jobs import Job
from hgalois.ore import assemble_ore, assemble_poisson_ore, mu_z_tensor
from hgalois.tensors import OP, PLAIN
from conftest import make_h4

ONE = QQ.one
HALF = Fraction(1, 2)
TWO = Fraction(2)
SIG = (PLAIN, OP, PLAIN)


def laurent_base():
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("g", invertible=True)],
                               commutative=True, name="A")
    g = pres.atom_element("g")
    gi = pres.atom_element("g^-1")
    mu = mu_map(pres, {"g": TensorElement.outer([g, gi, g], SIG)})
    return pres, HopfGaloisStructure(pres, mu)


def q2_data(pres, delta_g=None, cap=8):
    g = pres.atom_element("g")
    tau = GeneratorMap.algebra_map(pres, pres, {"g": g.scale(TWO)}, name="tau")
    tau_inv = GeneratorMap.algebra_map(pres, pres, {"g": g.scale(HALF)},
                                       name="tau_inv")
    delta = {"g": pres.zero() if delta_g is None else delta_g}
    return OreData(pres, tau, delta, tau_inverse=tau_inv, variable="z", cap=cap)


class TestBuildOre:
    def test_q2_rewrite_rule(self):
        pres, _ = laurent_base()
        ore = build_ore(q2_data(pres))
        z, g = ore.atom_element("z"), ore.atom_element("g")
        assert z * g == (g * z).scale(TWO)
        assert z * ore.atom_element("g^-1") == (ore.atom_element("g^-1") * z).scale(HALF)

    def test_central_polynomial_extension(self):
        pres, _ = laurent_base()
        tau = GeneratorMap.identity(pres)
        d = OreData(pres, tau, {"g": pres.zero()}, variable="z", cap=8)
        ore = build_ore(d)
        assert ore.atom_element("z") * ore.atom_element("g") == \
            ore.atom_element("g") * ore.atom_element("z")

    def test_trivial_central_extension_of_h4(self):
        h4 = make_h4()
        tau = GeneratorMap.identity(h4)
        d = OreData(h4, tau, {"g": h4.zero(), "x": h4.zero()}, variable="z", cap=8)
        ore = build_ore(d)
        z = ore.atom_element("z")
        for atom in ("g", "x"):
            assert z * ore.atom_element(atom) == ore.atom_element(atom) * z

    def test_normal_forms_are_base_words_times_z_powers(self):
        pres, _ = laurent_base()
        ore = build_ore(q2_data(pres))
        rng = random.Random(7)
        atoms = ore.atoms
        for _ in range(40):
            word = tuple(rng.choice(atoms) for _ in range(rng.randint(1, 6)))
            nf = ore.normal_form(word)
            for w in nf.terms:
                seen_z = False
                for a in w:
                    if a == "z":
                        seen_z = True
                    else:
                        assert not seen_z, f"z before base atom in {w}"

    def test_variable_name_clash_rejected(self):
        pres, _ = laurent_base()
        d = q2_data(pres)
        d.variable = "g"
        with pytest.raises(InputError, match="clash"):
            build_ore(d)


class TestOreDataValidation:
    def test_delta_inverse_image_derived(self):
        pres, _ = laurent_base()
        g = pres.atom_element("g")
        gi = pres.atom_element("g^-1")
        d = q2_data(pres, delta_g=g)
        # 0 = delta(g g^-1) = tau(g) delta(g^-1) + delta(g) g^-1
        assert d.delta.images["g^-1"] == gi.scale(-HALF)
        d.validate()

    def test_sigma_derivation_law_on_basis_pairs(self):
        h4 = make_h4()
        x = h4.atom_element("x")
        tau = GeneratorMap.identity(h4)
        d = OreData(h4, tau, {"g": x, "x": h4.zero()}, variable="z", cap=8)
        d.validate()
        basis = [h4.element({w: ONE}) for w in h4.finite_basis()]
        for a, b in itertools.product(basis, repeat=2):
            assert d.delta.apply(a * b) == \
                tau.apply_element(a) * d.delta.apply(b) + d.delta.apply(a) * b

    def test_tau_not_algebra_map_rejected(self):
        pres, _ = laurent_base()
        g = pres.atom_element("g")
        with pytest.raises(InputError):
            # tau(g) = 2g + 1 has no inverse image for g^-1
            GeneratorMap.algebra_map(pres, pres, {"g": g.scale(TWO) + pres.one()},
                                     name="tau")

    def test_wrong_tau_inverse_rejected(self):
        pres, _ = laurent_base()
        g = pres.atom_element("g")
        tau = GeneratorMap.algebra_map(pres, pres, {"g": g.scale(TWO)}, name="tau")
        bad_inv = GeneratorMap.algebra_map(pres, pres, {"g": g.scale(Fraction(1, 3))},
                                           name="tau_inv")
        d = OreData(pres, tau, {"g": pres.zero()}, tau_inverse=bad_inv)
        with pytest.raises(InputError, match="does not invert"):
            d.validate()

    def test_ill_defined_delta_rejected(self):
        h4 = make_h4()
        tau = GeneratorMap.identity(h4)
        # delta(g) = 1 conflicts with g^2 -> 1: delta(g^2) = g + g != 0
        d = OreData(h4, tau, {"g": h4.one(), "x": h4.zero()}, variable="z")
        with pytest.raises(InputError, match="not well defined"):
            d.validate()

    def test_second_validate_does_no_work(self, monkeypatch):
        pres, _ = laurent_base()
        d = q2_data(pres)
        d.validate()
        calls = []
        monkeypatch.setattr(ore_module, "check_map_respects_relations",
                            lambda *a, **k: calls.append("map"))
        monkeypatch.setattr(d.delta, "check_relations", lambda: calls.append("delta"))
        d.validate()
        build_ore(d)
        assert calls == []

    def test_invalid_data_raises_on_every_call(self):
        pres, _ = laurent_base()
        g = pres.atom_element("g")
        tau = GeneratorMap.algebra_map(pres, pres, {"g": g.scale(TWO)}, name="tau")
        bad_inv = GeneratorMap.algebra_map(pres, pres, {"g": g.scale(Fraction(1, 3))},
                                           name="tau_inv")
        d = OreData(pres, tau, {"g": pres.zero()}, tau_inverse=bad_inv)
        for _ in range(3):
            with pytest.raises(InputError, match="does not invert"):
                d.validate()


class TestThm28:
    def test_q2_all_conditions_pass(self):
        pres, hg = laurent_base()
        report = check_thm28(q2_data(pres), hg, pres.atom_element("g"))
        assert report.passed
        checks = {(e.check, e.subject) for e in report.entries}
        assert len(checks) == 6  # three conditions x two atoms

    def test_trivial_data_passes(self):
        pres, hg = laurent_base()
        tau = GeneratorMap.identity(pres)
        tau_inv = GeneratorMap.identity(pres)
        d = OreData(pres, tau, {"g": pres.zero()}, tau_inverse=tau_inv)
        report = check_thm28(d, hg, pres.one())
        assert report.passed

    def test_missing_tau_inverse_rejected(self):
        pres, hg = laurent_base()
        g = pres.atom_element("g")
        tau = GeneratorMap.algebra_map(pres, pres, {"g": g.scale(TWO)}, name="tau")
        d = OreData(pres, tau, {"g": pres.zero()})
        with pytest.raises(InputError, match="inverse of tau"):
            check_thm28(d, hg, g)

    def test_non_grouplike_rejected(self):
        pres, hg = laurent_base()
        g = pres.atom_element("g")
        with pytest.raises(InputError, match="group-like"):
            check_thm28(q2_data(pres), hg, g + pres.one())

    def test_delta_mutation_breaks_only_condition_three(self):
        pres, hg = laurent_base()
        d = q2_data(pres, delta_g=pres.one())
        report = check_thm28(d, hg, pres.atom_element("g"))
        assert not report.passed
        failing = {e.check for e in report.failures()}
        assert failing == {"delta compatibility"}
        assert all(e.witness for e in report.failures())


class TestExtension:
    def test_q2_extension_passes_full_check_at_cap_8(self):
        pres, hg = laurent_base()
        g = pres.atom_element("g")
        assert check_thm28(q2_data(pres), hg, g).passed
        ext = assemble_ore(q2_data(pres), hg, g)
        assert ext.presentation.cap == 8
        assert set(ext.mu.images) == {"g", "g^-1", "z"}
        report = check_hopf_galois(ext)
        assert report.passed

    def test_polynomial_extension_with_unit_grouplike(self):
        pres, hg = laurent_base()
        tau = GeneratorMap.identity(pres)
        d = OreData(pres, tau, {"g": pres.zero()}, tau_inverse=tau)
        assert check_thm28(d, hg, pres.one()).passed
        ext = assemble_ore(d, hg, pres.one())
        ore = ext.presentation
        z, one = ore.atom_element("z"), ore.one()
        assert ext.mu.images["z"] == (
            TensorElement.outer([z, one, one], SIG)
            + TensorElement.outer([one, one, z], SIG)
            - TensorElement.outer([one, z, one], SIG))
        assert check_hopf_galois(ext).passed

    def test_refusal_names_the_condition(self):
        """ore-extend assembles nothing when a Thm 2.8 condition fails, and
        its report names that condition."""
        doc = builtin_job("ore_q2_laurent")
        doc["ore"]["delta"] = {"g": [{"coeff": "1", "word": []}]}
        entries, summary = run_commands(Job(doc), ["ore-extend"])
        assert summary["status"] == "fail" and "results" not in summary
        assert {e["check"] for e in entries if e["status"] == "fail"} == {"delta compatibility"}

    def test_failing_criterion_implies_failing_full_check(self):
        pres, hg = laurent_base()
        d = q2_data(pres, delta_g=pres.one())
        ore = build_ore(d)
        images = {a: img.transport((ore, ore, ore))
                  for a, img in hg.mu.images.items()}
        images["z"] = mu_z_tensor(ore, pres.atom_element("g"),
                                  pres.atom_element("g^-1"), "z")
        bad = HopfGaloisStructure(ore, mu_map(ore, images))
        assert not check_hopf_galois(bad).passed

    def test_assemble_refuses_non_grouplike(self):
        pres, hg = laurent_base()
        g = pres.atom_element("g")
        with pytest.raises(InputError, match="assemble_ore: g is not group-like"):
            assemble_ore(q2_data(pres), hg, g + pres.one())

    def test_mutated_mu_z_fails_unit_laws(self):
        pres, hg = laurent_base()
        ore = build_ore(q2_data(pres))
        g, gi = ore.atom_element("g"), ore.atom_element("g^-1")
        z, one = ore.atom_element("z"), ore.one()
        # third summand -g⊗g^-1 z⊗1 dropped
        mu_z = (TensorElement.outer([z, one, one], SIG)
                + TensorElement.outer([g, gi, z], SIG))
        images = {a: img.transport((ore, ore, ore))
                  for a, img in hg.mu.images.items()}
        images["z"] = mu_z
        report = check_hopf_galois(HopfGaloisStructure(ore, mu_map(ore, images)))
        failing = {(e.check, e.subject) for e in report.failures()}
        assert ("right unit law", "generator z") in failing


def zero_bracket_laurent():
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("g", invertible=True)],
                               commutative=True, name="B")
    g = pres.atom_element("g")
    gi = pres.atom_element("g^-1")
    p = PoissonStructure(pres, {})
    mu = mu_map(pres, {"g": TensorElement.outer([g, gi, g], SIG)})
    return pres, p, PoissonHopfGaloisStructure(p, HopfGaloisStructure(pres, mu))


class TestPoissonOre:
    def test_build_extends_bracket(self):
        pres, p, _ = zero_bracket_laurent()
        d = PoissonOreData(p, alpha={"g": pres.zero()},
                           delta={"g": pres.atom_element("g")}, variable="x", cap=8)
        ext = build_poisson_ore(d)
        bx = ext.presentation
        assert ext.bracket(bx.atom_element("x"), bx.atom_element("g")) == \
            bx.atom_element("g")
        assert check_poisson(ext).passed

    def test_zero_data_gives_zero_extension(self):
        pres, p, _ = zero_bracket_laurent()
        d = PoissonOreData(p, alpha={"g": pres.zero()}, delta={"g": pres.zero()},
                           variable="x", cap=8)
        ext = build_poisson_ore(d)
        bx = ext.presentation
        assert ext.bracket(bx.atom_element("x"), bx.atom_element("g")).is_zero()

    def test_alpha_failing_poisson_derivation_rejected(self, kxy):
        pres, p = kxy
        d = PoissonOreData(p, alpha={"x": pres.atom_element("y"), "y": pres.zero()},
                           delta={"x": pres.zero(), "y": pres.zero()},
                           variable="t", cap=8)
        with pytest.raises(InputError, match="Poisson derivation"):
            build_poisson_ore(d)

    def test_delta_failing_twisted_rule_rejected(self, kxy):
        pres, p = kxy
        d = PoissonOreData(p, alpha={"x": pres.zero(), "y": pres.zero()},
                           delta={"x": pres.atom_element("y"), "y": pres.zero()},
                           variable="t", cap=8)
        with pytest.raises(InputError, match="twisted Lie rule"):
            build_poisson_ore(d)


    def test_validate_runs_its_checks_once(self, monkeypatch):
        pres, p, _ = zero_bracket_laurent()
        g = pres.atom_element("g")
        d = PoissonOreData(p, alpha={"g": pres.zero()}, delta={"g": g},
                           variable="x", cap=8)
        calls = []
        for derivation in (d.alpha, d.delta):
            real = derivation.check_relations
            monkeypatch.setattr(derivation, "check_relations",
                                lambda real=real: calls.append(1) or real())
        for _ in range(3):
            d.validate()
        build_poisson_ore(d)
        assert len(calls) == 2

    def test_invalid_data_raises_on_every_call(self, kxy):
        pres, p = kxy
        d = PoissonOreData(p, alpha={"x": pres.atom_element("y"), "y": pres.zero()},
                           delta={"x": pres.zero(), "y": pres.zero()}, variable="t")
        for _ in range(3):
            with pytest.raises(InputError, match="Poisson derivation"):
                d.validate()


class TestThm44:
    def test_delta_g_passes_and_extension_verifies(self):
        pres, p, ph = zero_bracket_laurent()
        d = PoissonOreData(p, alpha={"g": pres.zero()},
                           delta={"g": pres.atom_element("g")}, variable="x", cap=8)
        report = check_thm44(d, ph, pres.atom_element("g"))
        assert report.passed
        # the report ends with the assembled-extension compatibility checks
        assert any(e.check == "mu is a Poisson map" for e in report.entries)

    def test_trivial_data_passes(self):
        pres, p, ph = zero_bracket_laurent()
        d = PoissonOreData(p, alpha={"g": pres.zero()}, delta={"g": pres.zero()},
                           variable="x", cap=8)
        assert check_thm44(d, ph, pres.one()).passed

    def test_raw_image_mutation_fails_condition_410(self):
        pres, p, ph = zero_bracket_laurent()
        g, gi = pres.atom_element("g"), pres.atom_element("g^-1")
        d = PoissonOreData(p, alpha={"g": pres.zero()},
                           delta={"g": g * g, "g^-1": -gi}, variable="x", cap=8)
        report = check_thm44(d, ph, g)
        failing = {e.check for e in report.failures()}
        assert failing == {"mu-delta compatibility"}
        assert all(e.witness for e in report.failures())

    def test_consistently_derived_square_is_a_positive_instance(self):
        """With delta(g^-1) forced from delta(g) = g^2 the data genuinely
        satisfies every condition; the g^3 analogue does not."""
        pres, p, ph = zero_bracket_laurent()
        g = pres.atom_element("g")
        d2 = PoissonOreData(p, alpha={"g": pres.zero()}, delta={"g": g * g},
                            variable="x", cap=8)
        assert check_thm44(d2, ph, g).passed
        d3 = PoissonOreData(p, alpha={"g": pres.zero()}, delta={"g": g * g * g},
                            variable="x", cap=8)
        report = check_thm44(d3, ph, g)
        assert {e.check for e in report.failures()} == {"mu-delta compatibility"}

    def test_assembled_extension_passes_poisson_hg(self):
        pres, p, ph = zero_bracket_laurent()
        g = pres.atom_element("g")
        d = PoissonOreData(p, alpha={"g": pres.zero()}, delta={"g": g},
                           variable="x", cap=8)
        extended = assemble_poisson_ore(d, ph, g)
        assert check_poisson_hg(extended).passed
        assert check_hopf_galois(extended.hopf_galois).passed


# Non-degenerate Ore data.  Every other passing Ore instance has delta = 0
# (Thm 2.8) or alpha = 0 over a zero bracket (Thm 4.4), where whole terms
# of the laws vanish, so a sign error in them goes unseen.  Each instance
# below passes, and each test names an operator mutant of ore.py that it
# kills and that the rest of this file, the acceptance, golden, CLI and
# mutant-census tests all miss.

def _term(coeff, *word):
    return {"coeff": coeff, "word": list(word)}


def thm28_job(delta_g):
    """k[g^±1] with tau(g) = 2g and delta(g) given, checked by Theorem 2.8
    and assembled (`check-thm28`, `ore-extend`)."""
    doc = builtin_job("ore_q2_laurent")
    doc["ore"]["delta"] = {"g": delta_g}
    return doc


def thm44_job(delta_g2):
    """k[g1^±1, g2^±1] with {g1, g2} = 3 g1 g2, group-like g1,
    alpha(g2) = 3 g2 (= g1^-1 {g1, g2}), delta(g1) = 0 and delta(g2) given,
    checked by Theorem 4.4 and assembled (`check-thm44`,
    `poisson-ore-extend`)."""
    gens = ("g1", "g2")
    return {
        "name": "poisson_ore_log_canonical",
        "field": "rationals",
        "presentation": {"generators": [{"name": g, "invertible": True} for g in gens],
                         "commutative": True},
        "bracket": [{"pair": ["g1", "g2"], "value": [_term("3", "g1", "g2")]}],
        "mu": {g: [{"coeff": "1", "factors": [[g], [g + "^-1"], [g]]}] for g in gens},
        "poisson_ore": {"variable": "x", "cap": 8,
                        "alpha": {"g1": [], "g2": [_term("3", "g2")]},
                        "delta": {"g1": [], "g2": delta_g2},
                        "grouplike": [_term("1", "g1")]},
        "commands": ["check-thm44", "poisson-ore-extend"],
    }


def _checks_passed(doc):
    entries, summary = run_commands(Job(doc), doc["commands"])
    assert [e["check"] for e in entries if e["status"] == "fail"] == []
    return summary["passed"]


def test_thm28_inner_delta_passes():
    """delta(g) = g, the inner tau-derivation -(a - tau(a)).  Kills
    `term1 - term2 + term3` in `check_thm28`'s delta compatibility."""
    assert _checks_passed(thm28_job([_term("1", "g")])) == 25


def test_thm28_delta_g_squared_passes():
    """delta(g) = g^2.  Kills `term1 + term2 - term3` and
    `(term1 + term2 + term3) + rhs3` in `check_thm28`'s delta
    compatibility."""
    assert _checks_passed(thm28_job([_term("1", "g", "g")])) == 25


def test_thm44_delta_g2_passes():
    """delta(g2) = g2.  Kills `PoissonOreData.validate` with `-` for `+` in
    the alpha-derivation rule ({alpha(s), t} - {s, alpha(t)}), and
    `check_thm44` with `+` for `-` in Eq (4.6) (alpha determined by g) and
    Eq (4.9) (the alpha cross law)."""
    assert _checks_passed(thm44_job([_term("1", "g2")])) == 78


def test_thm44_delta_g1g2_passes():
    """delta(g2) = g1 g2.  Kills `PoissonOreData.validate` with a flipped
    sign in the twisted Lie rule ({delta(s), t} - {s, delta(t)}), and
    `check_thm44` with `+` for `-` in Eq (4.7) (mu-alpha compatibility) and
    Eq (4.8) (the third-slot alpha law)."""
    assert _checks_passed(thm44_job([_term("1", "g1", "g2")])) == 78


# Theorem 2.8 as an oracle: the criterion is an "if and only if", so on any
# Ore data its verdict must equal the full Hopf-Galois check of the
# assembled extension.  delta(g) stays of degree at most 2: a g^3 term makes
# `build_ore` refuse the rule z g -> 2 g z + delta(g).

SMALL = st.integers(-3, 3)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(SMALL, SMALL, SMALL)
@example(0, 0, 0)    # delta = 0
@example(0, 1, 0)    # delta(g) = g
@example(0, -3, 0)   # delta(g) = -3g
@example(0, 0, 1)    # delta(g) = g^2
@example(0, 1, 1)    # delta(g) = g + g^2
@example(1, 0, 0)    # delta(g) = 1, which fails
@example(-1, 1, 0)   # delta(g) = g - 1, which fails
def test_thm28_verdict_equals_the_full_check(a, b, c):
    """Over k[g^±1] with tau(g) = 2g and delta(g) = a + b g + c g^2,
    `check_thm28` passes exactly when `check_hopf_galois` passes on
    `build_ore` with mu(z) = `mu_z_tensor` (`assemble_ore`)."""
    pres, hg = laurent_base()
    g = pres.atom_element("g")
    d = q2_data(pres, delta_g=pres.one().scale(a) + g.scale(b) + (g * g).scale(c))
    assert check_thm28(d, hg, g).passed == check_hopf_galois(assemble_ore(d, hg, g)).passed


# Theorem 4.4 as an oracle, over the base of `thm44_job`: alpha(g1) in
# {0, g1}, alpha(g2) = lam g2 for lam in {2, 3, 4}, and delta(g1), delta(g2)
# each in {0, 1, g1, g2, g1 g2}.  `PoissonOreData.validate` accepts 12 of
# these 150 draws.  The criterion's verdict is that of the entries anchored
# "Thm 4.4 ..."; `check_thm44` appends the direct check of the assembly
# only when they pass.

def log_canonical_laurent():
    """k[g1^±1, g2^±1] with {g1, g2} = 3 g1 g2 and mu(gi) = gi ⊗ gi^-1 ⊗ gi."""
    pres = AlgebraPresentation(QQ, [GeneratorSymbol(g, invertible=True) for g in ("g1", "g2")],
                               commutative=True, name="B")
    g1, g2 = pres.atom_element("g1"), pres.atom_element("g2")
    p = PoissonStructure(pres, {("g1", "g2"): (g1 * g2).scale(3)})
    mu = mu_map(pres, {g: TensorElement.outer([e, pres.atom_element(g + "^-1"), e], SIG)
                       for g, e in (("g1", g1), ("g2", g2))})
    return pres, p, PoissonHopfGaloisStructure(p, HopfGaloisStructure(pres, mu))


def thm44_verdicts(d, ph, g):
    """(the criterion's verdict, `check_poisson_hg` and `check_hopf_galois`
    on `assemble_poisson_ore`)."""
    criterion = all(e.passed for e in check_thm44(d, ph, g).entries
                    if e.anchor.startswith("Thm 4.4"))
    extended = assemble_poisson_ore(d, ph, g)
    return criterion, (check_poisson_hg(extended).passed,
                       check_hopf_galois(extended.hopf_galois).passed)


def test_thm44_passing_criterion_implies_the_full_check():
    """On every accepted draw, a passing criterion means that the assembled
    B[x] passes both direct checks.  3 of the 12 accepted draws pass the
    criterion; the other 9 fail it and still pass both direct checks (see
    the next test)."""
    pres, p, ph = log_canonical_laurent()
    g1, g2 = pres.atom_element("g1"), pres.atom_element("g2")
    values = [pres.zero(), pres.one(), g1, g2, g1 * g2]
    verdicts = []
    for alpha_g1, lam, delta_g1, delta_g2 in itertools.product(
            (pres.zero(), g1), (2, 3, 4), values, values):
        d = PoissonOreData(p, alpha={"g1": alpha_g1, "g2": g2.scale(lam)},
                           delta={"g1": delta_g1, "g2": delta_g2}, variable="x", cap=8)
        try:
            d.validate()
        except InputError:
            continue
        criterion, direct = thm44_verdicts(d, ph, g1)
        verdicts.append((criterion, direct))
        if criterion:
            assert direct == (True, True)
    assert len(verdicts) == 12
    assert sum(criterion for criterion, _ in verdicts) == 3
    assert all(direct == (True, True) for _, direct in verdicts)


@pytest.mark.xfail(strict=True, reason=(
    "Thm 4.4 holds in one direction only here: with alpha(g2) = 4 g2 and delta = 0, "
    "check_thm44 fails Eqs (4.6), (4.8) and (4.10) on g2 and g2^-1, yet the assembled "
    "B[x] passes check_poisson_hg and check_hopf_galois; by hand, the 3 of {g1, g2} "
    "cancels between the first two terms of the triple bracket for every lam"))
def test_thm44_verdict_equals_the_full_check():
    pres, p, ph = log_canonical_laurent()
    g1, g2 = pres.atom_element("g1"), pres.atom_element("g2")
    d = PoissonOreData(p, alpha={"g1": pres.zero(), "g2": g2.scale(4)},
                       delta={"g1": pres.zero(), "g2": pres.zero()}, variable="x", cap=8)
    criterion, direct = thm44_verdicts(d, ph, g1)
    assert criterion == all(direct)
