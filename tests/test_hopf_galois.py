import itertools

import pytest

from hgalois import (
    QQ,
    AlgebraPresentation,
    GeneratorMap,
    GeneratorSymbol,
    HopfGaloisStructure,
    InputError,
    TensorElement,
    check_hopf,
    check_hopf_galois,
    galois_to_hopf,
    hopf_to_galois,
    is_grouplike,
    mu_map,
    pushforward,
)
from hgalois.maps import compose
from hgalois.tensors import OP, PLAIN
from conftest import make_h4_mu, make_kz2

from oracles import hg_verdict_full_basis

ONE = QQ.one
SIG = (PLAIN, OP, PLAIN)


def mutate_term(tensor, index, mode):
    """Drop or sign-flip the index-th term (in sorted order)."""
    items = tensor.sorted_terms()
    key, coeff = items[index]
    terms = dict(tensor.terms)
    if mode == "drop":
        del terms[key]
    else:
        terms[key] = -coeff
    return TensorElement(tensor.factors, tensor.signature, terms, tensor.field)


class TestCheckHopfGalois:
    def test_h4_passes_all_axioms(self, h4_hg):
        report = check_hopf_galois(h4_hg)
        assert report.passed
        checks = {e.check for e in report.entries}
        assert checks == {"mu respects relation", "left unit law",
                          "right unit law", "coassociativity (rank 5)"}

    def test_trivial_algebra_passes(self):
        pres = AlgebraPresentation(QQ, [GeneratorSymbol("e")],
                                   relations=[(("e",), {(): ONE})], name="k")
        mu = mu_map(pres, {"e": TensorElement.unit((pres,) * 3, SIG)})
        assert check_hopf_galois(HopfGaloisStructure(pres, mu)).passed

    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["drop", "flip"])
    def test_every_single_summand_mutation_fails(self, h4, index, mode):
        mu = make_h4_mu(h4)
        bad = mu.with_images({"x": mutate_term(mu.images["x"], index, mode)})
        report = check_hopf_galois(HopfGaloisStructure(h4, bad))
        failures = report.failures()
        assert failures
        assert any(e.witness is not None and e.witness for e in failures)

    def test_dropping_third_summand_fails_right_law(self, h4):
        mu = make_h4_mu(h4)
        # sorted order of mu(x): g⊗g⊗x, -g⊗gx⊗1, x⊗1⊗1; drop g⊗g⊗x
        bad = mu.with_images({"x": mutate_term(mu.images["x"], 0, "drop")})
        report = check_hopf_galois(HopfGaloisStructure(h4, bad))
        failing = {(e.check, e.subject) for e in report.failures()}
        assert ("right unit law", "generator x") in failing

    def test_example38_passes(self, laurent38):
        _, _, hg = laurent38
        assert check_hopf_galois(hg).passed

    def test_generator_verdict_matches_full_basis_oracle(self, h4, h4_hg):
        assert check_hopf_galois(h4_hg).passed == hg_verdict_full_basis(
            h4, h4_hg.mu.images)

    def test_mutated_verdict_matches_full_basis_oracle(self, h4):
        mu = make_h4_mu(h4)
        for index in range(3):
            bad = mu.with_images({"x": mutate_term(mu.images["x"], index, "drop")})
            verdict = check_hopf_galois(HopfGaloisStructure(h4, bad)).passed
            assert verdict == hg_verdict_full_basis(h4, bad.images) == False  # noqa: E712


class TestGroupLike:
    def test_h4_g_is_grouplike(self, h4_hg):
        g = h4_hg.presentation.atom_element("g")
        assert is_grouplike(h4_hg, g)

    def test_unit_is_grouplike(self, h4_hg, laurent38):
        assert is_grouplike(h4_hg, h4_hg.presentation.one())
        _, _, hg = laurent38
        assert is_grouplike(hg, hg.presentation.one())

    def test_h4_x_rejected_without_inverse(self, h4_hg):
        result = is_grouplike(h4_hg, h4_hg.presentation.atom_element("x"))
        assert not result
        assert result.reason == "no inverse"

    def test_scalar_multiples_and_powers_stay_grouplike(self, laurent38):
        pres, _, hg = laurent38
        g = pres.atom_element("g")
        assert is_grouplike(hg, g * g)
        assert is_grouplike(hg, -g)  # the three slot signs cancel

    def test_invertible_but_wrong_mu_shape(self, h4_hg):
        h4 = h4_hg.presentation
        one_plus_x = h4.one() + h4.atom_element("x")
        result = is_grouplike(h4_hg, one_plus_x)
        assert result.inverse == h4.one() - h4.atom_element("x")
        assert not result and result.witness

    def test_products_of_grouplikes_in_z4(self):
        kz4 = AlgebraPresentation(
            QQ, [GeneratorSymbol("h")],
            relations=[(("h", "h", "h", "h"), {(): ONE})],
            commutative=True, name="kZ4")
        h = kz4.atom_element("h")
        mu = mu_map(kz4, {"h": TensorElement.outer([h, h * h * h, h], SIG)})
        hg = HopfGaloisStructure(kz4, mu)
        assert check_hopf_galois(hg).passed
        grouplikes = [e for e in (kz4.one(), h, h * h, h * h * h)
                      if is_grouplike(hg, e)]
        assert len(grouplikes) == 4
        for a, b in itertools.product(grouplikes, repeat=2):
            assert is_grouplike(hg, a * b)


def laurent_hg():
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("g", invertible=True)],
                               commutative=True, name="laurent")
    g = pres.atom_element("g")
    gi = pres.atom_element("g^-1")
    mu = mu_map(pres, {"g": TensorElement.outer([g, gi, g], SIG)})
    return pres, HopfGaloisStructure(pres, mu)


def kz4_with_map(source, source_gen="g"):
    kz4 = AlgebraPresentation(
        QQ, [GeneratorSymbol("h")],
        relations=[(("h", "h", "h", "h"), {(): ONE})],
        commutative=True, name="kZ4")
    f = GeneratorMap.algebra_map(source, kz4,
                                 {source_gen: kz4.atom_element("h")}, name="f1")
    return kz4, f


class TestPushforward:
    def test_laurent_mod_g2_gives_z2(self):
        pres, hg = laurent_hg()
        kz2, _ = make_kz2(gen="c")
        f = GeneratorMap.algebra_map(pres, kz2, {"g": kz2.atom_element("c")},
                                     name="f")
        pushed = pushforward(hg, f, {"c": pres.atom_element("g")})
        c = kz2.atom_element("c")
        assert pushed.mu.images["c"] == TensorElement.outer([c, c, c], SIG)
        assert check_hopf_galois(pushed).passed

    def test_identity_quotient(self, laurent38):
        pres, _, hg = laurent38
        ident = GeneratorMap.identity(pres)
        section = {g.name: pres.atom_element(g.name) for g in pres.generators}
        pushed = pushforward(hg, ident, section)
        assert all(pushed.mu.images[a] == hg.mu.images[a] for a in pres.atoms)

    def test_functorial_along_quotient_chain(self):
        # k[g,g^-1] -> k[Z4] -> k[Z2]
        pres, hg = laurent_hg()
        g = pres.atom_element("g")
        kz4, f1 = kz4_with_map(pres)
        hg4 = pushforward(hg, f1, {"h": g})
        assert check_hopf_galois(hg4).passed
        kz2 = AlgebraPresentation(QQ, [GeneratorSymbol("c")],
                                  relations=[(("c", "c"), {(): ONE})],
                                  commutative=True, name="kZ2")
        f2 = GeneratorMap.algebra_map(kz4, kz2, {"h": kz2.atom_element("c")},
                                      name="f2")
        hg2 = pushforward(hg4, f2, {"c": kz4.atom_element("h")})
        composite = compose(f2, f1, name="f2f1")
        hg2_direct = pushforward(hg, composite, {"c": g})
        assert all(hg2.mu.images[a] == hg2_direct.mu.images[a]
                   for a in kz2.atoms)

    def test_bad_section_rejected(self):
        pres, hg = laurent_hg()
        kz2, _ = make_kz2(gen="c")
        f = GeneratorMap.algebra_map(pres, kz2, {"g": kz2.atom_element("c")},
                                     name="f")
        with pytest.raises(InputError, match="preimage"):
            pushforward(hg, f, {"c": pres.one()})

    def test_killing_x_to_one_is_a_valid_quotient(self, laurent38):
        pres, _, hg = laurent38
        kz2, _ = make_kz2(gen="c")
        f = GeneratorMap.algebra_map(
            pres, kz2, {"g": kz2.atom_element("c"), "x": kz2.one()}, name="f")
        pushed = pushforward(hg, f, {"c": pres.atom_element("g")})
        assert check_hopf_galois(pushed).passed

    def test_non_algebra_map_rejected(self):
        kz4 = AlgebraPresentation(
            QQ, [GeneratorSymbol("h")],
            relations=[(("h", "h", "h", "h"), {(): ONE})],
            commutative=True, name="kZ4")
        h = kz4.atom_element("h")
        mu = mu_map(kz4, {"h": TensorElement.outer([h, h * h * h, h], SIG)})
        hg = HopfGaloisStructure(kz4, mu)
        kz3 = AlgebraPresentation(
            QQ, [GeneratorSymbol("w")],
            relations=[(("w", "w", "w"), {(): ONE})],
            commutative=True, name="kZ3")
        f = GeneratorMap.algebra_map(kz4, kz3, {"h": kz3.atom_element("w")},
                                     name="f")
        with pytest.raises(InputError, match="not an algebra map"):
            pushforward(hg, f, {"w": h})


class TestProp24:
    def test_hopf_axioms_hold_for_h4(self, h4_hopf):
        assert check_hopf(h4_hopf).passed

    def test_hopf_to_galois_reproduces_example(self, h4, h4_hg, h4_hopf):
        derived = hopf_to_galois(h4_hopf)
        assert all(derived.mu.images[a] == h4_hg.mu.images[a] for a in h4.atoms)
        assert check_hopf_galois(derived).passed

    def test_round_trip_on_h4(self, h4, h4_hopf):
        hg = hopf_to_galois(h4_hopf)
        back = galois_to_hopf(hg, h4_hopf.counit)
        g, x = h4.atom_element("g"), h4.atom_element("x")
        assert back.delta.images["x"] == TensorElement.outer([x, h4.one()], (PLAIN, PLAIN)) \
            + TensorElement.outer([g, x], (PLAIN, PLAIN))
        assert back.delta.images["g"] == TensorElement.outer([g, g], (PLAIN, PLAIN))
        assert back.antipode.images["x"].to_element() == -(g * x)
        assert back.antipode.images["g"].to_element() == g
        assert back.counit.images["g"].scalar() == ONE
        assert back.counit.images["x"].scalar() == QQ.zero
        assert check_hopf(back).passed

    def test_group_algebra_z2(self):
        kz2, hg = make_kz2(gen="c")
        eps = GeneratorMap.scalar_map(kz2, {"c": ONE}, name="eps")
        hs = galois_to_hopf(hg, eps)
        c = kz2.atom_element("c")
        assert hs.delta.images["c"] == TensorElement.outer([c, c], (PLAIN, PLAIN))
        assert hs.antipode.images["c"].to_element() == c
        assert check_hopf(hs).passed

    def test_z3_grouplike_square_antipode(self):
        kz3 = AlgebraPresentation(QQ, [GeneratorSymbol("w")],
                                  relations=[(("w", "w", "w"), {(): ONE})],
                                  commutative=True, name="kZ3")
        w = kz3.atom_element("w")
        mu = mu_map(kz3, {"w": TensorElement.outer([w, w * w, w], SIG)})
        hg = HopfGaloisStructure(kz3, mu)
        assert check_hopf_galois(hg).passed
        assert is_grouplike(hg, w)
        eps = GeneratorMap.scalar_map(kz3, {"w": ONE}, name="eps")
        hs = galois_to_hopf(hg, eps)
        assert hs.antipode.images["w"].to_element() == w * w
        assert check_hopf(hs).passed

    def test_z3_hopf_to_galois_forward(self):
        kz3 = AlgebraPresentation(QQ, [GeneratorSymbol("w")],
                                  relations=[(("w", "w", "w"), {(): ONE})],
                                  commutative=True, name="kZ3")
        w = kz3.atom_element("w")
        from hgalois import hopf_structure
        hs = hopf_structure(
            kz3,
            delta_images={"w": TensorElement.outer([w, w], (PLAIN, PLAIN))},
            counit_images={"w": ONE},
            antipode_images={"w": w * w},
        )
        assert check_hopf(hs).passed
        hg = hopf_to_galois(hs)
        assert hg.mu.images["w"] == TensorElement.outer([w, w * w, w], SIG)
        assert check_hopf_galois(hg).passed

    def test_h4_over_gf3(self):
        from hgalois import GF
        from conftest import make_h4 as mk
        h4p = mk(field=GF(3))
        from conftest import make_h4_mu as mkmu
        mup = mkmu(h4p)
        assert check_hopf_galois(HopfGaloisStructure(h4p, mup)).passed

    def test_alpha_not_algebra_map_rejected(self, h4_hg):
        bad = GeneratorMap.scalar_map(h4_hg.presentation, {"g": ONE, "x": ONE},
                                      name="alpha")
        with pytest.raises(InputError, match="algebra map"):
            galois_to_hopf(h4_hg, bad)
