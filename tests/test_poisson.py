import collections
import itertools
from fractions import Fraction

import pytest

import hgalois.poisson as poisson_module
from hgalois import (
    QQ,
    AlgebraPresentation,
    GeneratorMap,
    GeneratorSymbol,
    GF,
    InputError,
    PoissonHopfGaloisStructure,
    PoissonHopfStructure,
    PoissonStructure,
    TensorElement,
    check_hopf_galois,
    check_poisson,
    check_poisson_hg,
    check_poisson_hopf,
    galois_to_hopf,
    hopf_to_galois,
    poisson_pushforward,
    tensor_bracket,
    triple_bracket,
)
from hgalois.cli import run_commands
from hgalois.examples import builtin_job
from hgalois.jobs import Job
from hgalois.tensors import OP, PLAIN
from conftest import make_kxy_hopf, make_kz2, make_laurent38

from oracles import (
    jacobi_verdict_full_basis,
    naive_bracket,
    poisson_hg_verdict_full_basis,
)

ONE = QQ.one
SIG = (PLAIN, OP, PLAIN)


class TestBracket:
    def test_example38_generator_bracket(self, laurent38):
        pres, p, _ = laurent38
        g, x = pres.atom_element("g"), pres.atom_element("x")
        assert p.bracket(x, g) == g * x

    def test_bracket_with_unit_vanishes(self, laurent38, kxy):
        pres, p, _ = laurent38
        for atom in pres.atoms:
            assert p.bracket(pres.atom_element(atom), pres.one()).is_zero()
        presk, pk = kxy
        for atom in presk.atoms:
            assert pk.bracket(presk.one(), presk.atom_element(atom)).is_zero()

    def test_forced_inverse_brackets(self, laurent38):
        pres, p, _ = laurent38
        g, gi, x = (pres.atom_element(a) for a in ("g", "g^-1", "x"))
        assert p.bracket(g, gi).is_zero()
        assert p.bracket(x, gi) == -(gi * x)
        # {a, g^-1} = -g^-2 {a, g} on products too
        a = x * x * g
        assert p.bracket(a, gi) == -(gi * gi) * p.bracket(a, g)

    def test_lambda_two_scales(self):
        pres, p, _ = make_laurent38(lam=Fraction(2))
        g, gi, x = (pres.atom_element(a) for a in ("g", "g^-1", "x"))
        assert p.bracket(x, g) == (g * x).scale(Fraction(2))
        assert p.bracket(x, gi) == (gi * x).scale(Fraction(-2))

    def test_leibniz_on_all_kxy_basis_triples(self, kxy):
        pres, p = kxy
        basis = [pres.element({w: ONE}) for w in pres.finite_basis()]
        for a, b, c in itertools.product(basis, repeat=3):
            assert p.bracket(a, b * c) == p.bracket(a, b) * c + b * p.bracket(a, c)

    def test_bracket_matches_naive_on_basis_pairs(self, kxy):
        pres, p = kxy
        basis = pres.finite_basis()
        for u, v in itertools.product(basis, repeat=2):
            got = p.bracket(pres.element({u: ONE}), pres.element({v: ONE}))
            assert got.terms == naive_bracket(p, {u: ONE}, {v: ONE})

    def test_inverse_bracket_values_are_forced_not_user_data(self, laurent38):
        pres, _, _ = laurent38
        with pytest.raises(InputError, match="forced"):
            PoissonStructure(pres, {("x", "g^-1"): pres.atom_element("x")})

    def test_noncommutative_presentation_rejected(self, h4):
        with pytest.raises(InputError, match="commutative"):
            PoissonStructure(h4, {})


class TestCheckPoisson:
    def test_example38_passes(self, laurent38):
        _, p, _ = laurent38
        assert check_poisson(p).passed

    def test_zero_bracket_passes(self, kz2):
        pres, _ = kz2
        assert check_poisson(PoissonStructure(pres, {})).passed

    def test_kxy_passes(self, kxy):
        _, p = kxy
        report = check_poisson(p)
        assert report.passed
        kinds = {e.check for e in report.entries}
        assert kinds == {"commutative presentation", "antisymmetry", "Jacobi identity"}

    def test_jacobi_failure_detected_on_three_generators(self):
        pres = AlgebraPresentation(
            QQ,
            [GeneratorSymbol("x"), GeneratorSymbol("y"), GeneratorSymbol("z")],
            relations=[(w, {}) for w in itertools.combinations_with_replacement(
                ("x", "y", "z"), 2)],
            commutative=True, name="deg1",
        )
        x, z = pres.atom_element("x"), pres.atom_element("z")
        bad = PoissonStructure(pres, {
            ("x", "y"): z, ("y", "z"): x, ("x", "z"): x,
        })
        report = check_poisson(bad)
        failing = [e for e in report.failures() if e.check == "Jacobi identity"]
        assert failing and failing[0].witness

    def test_generator_jacobi_verdict_matches_full_basis(self, kxy, laurent38):
        _, p = kxy
        assert check_poisson(p).passed == jacobi_verdict_full_basis(p) is True

    @pytest.mark.parametrize("name", ["kxy_truncated", "laurent_lambda1", "laurent_lambda2",
                                      "laurent_mod_x", "poisson_ore_laurent"])
    def test_commutativity_is_tested_once_per_structure(self, name, monkeypatch):
        """A `PoissonStructure` tests its presentation's commutativity when
        it is built and freezes the presentation, so `check_poisson` does not
        test it again; its "commutative presentation" entry still passes."""
        calls = collections.Counter()
        test, init = AlgebraPresentation.is_commutative_on_atoms, PoissonStructure.__init__

        def counted_test(pres):
            calls["test"] += 1
            return test(pres)

        def counted_init(p, *args):
            calls["structure"] += 1
            init(p, *args)

        monkeypatch.setattr(AlgebraPresentation, "is_commutative_on_atoms", counted_test)
        monkeypatch.setattr(PoissonStructure, "__init__", counted_init)
        doc = builtin_job(name)
        entries, _ = run_commands(Job(doc), doc["commands"])
        commutative = [e for e in entries if e["check"] == "commutative presentation"]
        assert commutative and all(e["status"] == "pass" for e in commutative)
        assert calls["test"] == calls["structure"] >= len(commutative)


class TestTensorBrackets:
    def test_disjoint_slots_commute(self, laurent38):
        pres, p, _ = laurent38
        g, x = pres.atom_element("g"), pres.atom_element("x")
        t1 = TensorElement.outer([x, pres.one()], (PLAIN, PLAIN))
        t2 = TensorElement.outer([pres.one(), g], (PLAIN, PLAIN))
        assert not tensor_bracket(p, p, t1, t2)

    def test_first_slot_bracket(self, laurent38):
        pres, p, _ = laurent38
        g, x = pres.atom_element("g"), pres.atom_element("x")
        t1 = TensorElement.outer([x, pres.one()], (PLAIN, PLAIN))
        t2 = TensorElement.outer([g, pres.one()], (PLAIN, PLAIN))
        assert tensor_bracket(p, p, t1, t2) == TensorElement.outer(
            [g * x, pres.one()], (PLAIN, PLAIN))

    def test_tensor_bracket_antisymmetric_on_samples(self, kxy):
        pres, p = kxy
        elems = [pres.one(), pres.atom_element("x"), pres.atom_element("y")]
        for a, b, c, d in itertools.product(elems, repeat=4):
            t1 = TensorElement.outer([a, b], (PLAIN, PLAIN))
            t2 = TensorElement.outer([c, d], (PLAIN, PLAIN))
            assert tensor_bracket(p, p, t1, t2) == -tensor_bracket(p, p, t2, t1)

    def test_triple_bracket_middle_sign(self, kxy):
        pres, p = kxy
        x, y = pres.atom_element("x"), pres.atom_element("y")
        one = pres.one()
        lhs = triple_bracket(
            p,
            TensorElement.outer([one, x, one], SIG),
            TensorElement.outer([one, y, one], SIG),
        )
        assert lhs == -TensorElement.outer([one, p.bracket(x, y), one], SIG)

    def test_triple_bracket_alternating(self, laurent38):
        pres, p, hg = laurent38
        s = hg.mu.images["x"]
        assert not triple_bracket(p, s, s)

    def test_example38_middle_computation(self, laurent38):
        pres, p, hg = laurent38
        mu_x, mu_g = hg.mu.images["x"], hg.mu.images["g"]
        assert triple_bracket(p, mu_x, mu_g) == mu_g * mu_x


class TestPoissonHopfGalois:
    def test_example38_passes_for_both_lambdas(self):
        for lam in (Fraction(1), Fraction(2)):
            pres, p, hg = make_laurent38(lam=lam)
            ph = PoissonHopfGaloisStructure(p, hg)
            report = check_poisson_hg(ph)
            assert report.passed
            subjects = {e.subject for e in report.entries}
            assert subjects == {"pair (g,g^-1)", "pair (g,x)", "pair (g^-1,x)"}

    def test_zero_bracket_always_compatible(self, kz2):
        pres, hg = kz2
        ph = PoissonHopfGaloisStructure(PoissonStructure(pres, {}), hg)
        assert check_poisson_hg(ph).passed

    def test_corrupted_bracket_fails_with_witness(self, laurent38):
        pres, _, hg = laurent38
        bad = PoissonStructure(pres, {("x", "g"): pres.atom_element("x")})
        report = check_poisson_hg(PoissonHopfGaloisStructure(bad, hg))
        assert not report.passed
        assert any(e.witness for e in report.failures())

    def test_flipped_middle_sign_fails(self, laurent38, monkeypatch):
        """Sign-discipline regression: Eq (3.5) with +xx'⊗{y,y'}⊗zz' must
        make the Example 3.8 check fail."""
        pres, p, hg = laurent38

        def flipped(pstr, s, t):
            out = TensorElement.zero(s.factors, s.signature, s.field)
            for (x, y, z), c1 in s.terms.items():
                ex, ey, ez = (pres.element({w: ONE}) for w in (x, y, z))
                for (x2, y2, z2), c2 in t.terms.items():
                    ex2, ey2, ez2 = (pres.element({w: ONE}) for w in (x2, y2, z2))
                    coeff = c1 * c2
                    xx, yy, zz = ex * ex2, ey * ey2, ez * ez2
                    out = out + TensorElement.outer(
                        [pstr.bracket(ex, ex2), yy, zz], s.signature).scale(coeff)
                    out = out + TensorElement.outer(
                        [xx, pstr.bracket(ey, ey2), zz], s.signature).scale(coeff)
                    out = out + TensorElement.outer(
                        [xx, yy, pstr.bracket(ez, ez2)], s.signature).scale(coeff)
            return out

        monkeypatch.setattr(poisson_module, "triple_bracket", flipped)
        report = check_poisson_hg(PoissonHopfGaloisStructure(p, hg))
        assert not report.passed

    def test_generator_verdict_matches_full_basis_oracle(self, kz2):
        pres, hg = kz2
        p = PoissonStructure(pres, {})
        ph = PoissonHopfGaloisStructure(p, hg)
        assert check_poisson_hg(ph).passed == poisson_hg_verdict_full_basis(
            p, hg.mu.images) is True

    def test_generator_sufficiency_needs_a_verified_structure_map(self, kxy):
        """On the truncation the primitive-derived structure map does not
        respect the truncation relations, and then generator pairs no
        longer determine the law on the whole basis; this pins down why the
        checker documents its precondition."""
        pres, p = kxy
        ph = PoissonHopfGaloisStructure(p, hopf_to_galois(make_kxy_hopf(pres)))
        assert not check_hopf_galois(ph.hopf_galois).passed  # mu fails x^3 -> 0
        assert check_poisson_hg(ph).passed  # generator pairs alone still agree
        assert poisson_hg_verdict_full_basis(p, ph.mu.images) is False


class TestPoissonHopf:
    def test_group_hopf_zero_bracket(self):
        kz2, hg = make_kz2(gen="c")
        eps = GeneratorMap.scalar_map(kz2, {"c": ONE}, name="eps")
        from hgalois import galois_to_hopf
        hs = galois_to_hopf(hg, eps)
        ph = PoissonHopfStructure(PoissonStructure(kz2, {}), hs)
        assert check_poisson_hopf(ph).passed

    def test_kxy_primitive_generators_pass(self, kxy):
        pres, p = kxy
        ph = PoissonHopfStructure(p, make_kxy_hopf(pres))
        report = check_poisson_hopf(ph)
        assert report.passed
        kinds = {e.check for e in report.entries}
        assert kinds == {"Delta is a Poisson map", "counit kills bracket",
                         "antipode anti-respects bracket"}

    def test_kxy_constant_bracket_fails(self, kxy):
        pres, _ = kxy
        bad = PoissonStructure(pres, {("x", "y"): pres.one()})
        ph = PoissonHopfStructure(bad, make_kxy_hopf(pres))
        report = check_poisson_hopf(ph)
        failing = {e.check for e in report.failures()}
        assert "Delta is a Poisson map" in failing
        assert "counit kills bracket" in failing


    def test_laurent_group_hopf_zero_bracket(self):
        pres = AlgebraPresentation(
            QQ, [GeneratorSymbol("g", invertible=True)],
            commutative=True, name="laurent")
        g = pres.atom_element("g")
        gi = pres.atom_element("g^-1")
        from hgalois import hopf_structure
        hs = hopf_structure(
            pres,
            delta_images={"g": TensorElement.outer([g, g], (PLAIN, PLAIN))},
            counit_images={"g": ONE},
            antipode_images={"g": gi},
        )
        ph = PoissonHopfStructure(PoissonStructure(pres, {}), hs)
        assert check_poisson_hopf(ph).passed


class TestProp37:
    """Prop 3.7 as compositions: a Poisson Hopf algebra gives a Poisson
    Hopf-Galois algebra through hopf_to_galois, and a Poisson Hopf-Galois
    algebra with an algebra map alpha to k gives a Poisson Hopf algebra
    through galois_to_hopf when alpha kills every bracket."""

    def test_phg_from_poisson_hopf_kxy(self, kxy):
        pres, p = kxy
        ph = PoissonHopfGaloisStructure(p, hopf_to_galois(make_kxy_hopf(pres)))
        assert check_poisson_hg(ph).passed

    def test_phg_from_poisson_hopf_zero_bracket(self):
        kz2, hg = make_kz2(gen="c")
        eps = GeneratorMap.scalar_map(kz2, {"c": ONE}, name="eps")
        hs = galois_to_hopf(hg, eps)
        ph = PoissonHopfGaloisStructure(PoissonStructure(kz2, {}), hopf_to_galois(hs))
        c = kz2.atom_element("c")
        assert ph.mu.images["c"] == TensorElement.outer([c, c, c], SIG)
        assert check_poisson_hg(ph).passed

    def test_poisson_hopf_from_phg_example38(self, laurent38):
        pres, p, hg = laurent38
        alpha = GeneratorMap.scalar_map(pres, {"g": ONE, "x": QQ.zero},
                                        name="alpha")
        ph = PoissonHopfStructure(p, galois_to_hopf(hg, alpha))
        assert check_poisson_hopf(ph).passed
        from hgalois import check_hopf
        assert check_hopf(ph.hopf).passed

    @staticmethod
    def _alpha_x_one(field):
        """Example 3.8 with alpha(g) = alpha(x) = 1: an algebra map on the
        free commutative presentation that does not kill {g, x} = -g x."""
        pres, p, hg = make_laurent38(field=field)
        one = field.one
        alpha = GeneratorMap.scalar_map(pres, {"g": one, "x": one}, name="alpha")
        return pres, PoissonHopfStructure(p, galois_to_hopf(hg, alpha))

    def test_kernel_condition_enforced(self):
        for field in (QQ, GF(101)):
            pres, ph = self._alpha_x_one(field)
            counit = {e.subject: e.witness for e in check_poisson_hopf(ph).failures()
                      if e.check == "counit kills bracket"}
            assert counit["pair (g,x)"] == pres.scalar(-field.one)

    def test_alpha_x_one_violates_kernel_even_when_algebra_map(self):
        # alpha is an algebra map, so galois_to_hopf builds a Hopf structure
        # that passes check_hopf; only the Poisson law on the counit fails
        from hgalois import check_hopf
        for field in (QQ, GF(101)):
            _, ph = self._alpha_x_one(field)
            assert check_hopf(ph.hopf).passed
            failing = {(e.check, e.subject) for e in check_poisson_hopf(ph).failures()}
            assert ("counit kills bracket", "pair (g,x)") in failing


class TestPoissonPushforward:
    def test_example38_mod_x(self, laurent38):
        pres, p, hg = laurent38
        target = AlgebraPresentation(
            QQ, [GeneratorSymbol("h", invertible=True)],
            commutative=True, name="laurent")
        f = GeneratorMap.algebra_map(
            pres, target, {"g": target.atom_element("h"), "x": target.zero()},
            name="f")
        ph = PoissonHopfGaloisStructure(p, hg)
        pushed = poisson_pushforward(ph, f, {"h": pres.atom_element("g")},
                                     [pres.atom_element("x")])
        assert check_poisson_hg(pushed).passed
        assert check_hopf_galois(pushed.hopf_galois).passed
        assert all(v.is_zero() for v in pushed.poisson.table.values())

    def test_identity_quotient(self, laurent38):
        pres, p, hg = laurent38
        ident = GeneratorMap.identity(pres)
        section = {g.name: pres.atom_element(g.name) for g in pres.generators}
        pushed = poisson_pushforward(
            PoissonHopfGaloisStructure(p, hg), ident, section, [])
        assert pushed.poisson.table == p.table

    def test_section_missing_a_generator_rejected(self, laurent38):
        pres, p, hg = laurent38
        with pytest.raises(InputError, match="section does not cover generator 'x'"):
            poisson_pushforward(PoissonHopfGaloisStructure(p, hg), GeneratorMap.identity(pres),
                                {"g": pres.atom_element("g")}, [])

    def test_non_poisson_ideal_rejected(self, laurent38):
        pres, p, hg = laurent38
        target = AlgebraPresentation(QQ, [GeneratorSymbol("x")],
                                     commutative=True, name="kx")
        f = GeneratorMap.algebra_map(
            pres, target, {"g": target.one(), "x": target.atom_element("x")},
            name="f")
        with pytest.raises(InputError, match="not a Poisson ideal"):
            poisson_pushforward(
                PoissonHopfGaloisStructure(p, hg), f,
                {"x": pres.atom_element("x")},
                [pres.atom_element("g") - pres.one()])
