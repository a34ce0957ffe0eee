import itertools

import pytest

from hgalois import (
    QQ,
    AlgebraPresentation,
    DegreeCapError,
    EnvelopePresentation,
    GeneratorMap,
    GeneratorSymbol,
    HopfGaloisStructure,
    InputError,
    PoissonHopfGaloisStructure,
    PoissonStructure,
    TensorElement,
    TripleEnvelope,
    build_envelope,
    check_lemma55,
    check_thm59,
    mu_map,
    relation_instance_report,
)
from hgalois.examples import builtin_job
from hgalois.jobs import Job
from hgalois.maps import check_map_respects_relations, compose
from hgalois.reports import entry_to_json
from hgalois.tensors import OP, PLAIN
from conftest import make_kxy, make_kz2, make_laurent38
from oracles import reference_relation_instance_report

ONE = QQ.one
SIG = (PLAIN, OP, PLAIN)


@pytest.fixture(scope="module")
def z2_env():
    pres, hg = make_kz2(gen="c")
    p = PoissonStructure(pres, {})
    return pres, p, hg, build_envelope(p, cap=6)


@pytest.fixture(scope="module")
def kxy_env():
    pres, p = make_kxy()
    return pres, p, build_envelope(p, cap=4)


class TestBuildZ2:
    def test_beta_of_generator_reduces_to_zero(self, z2_env):
        pres, _, _, env = z2_env
        assert env.normal_form(env.beta_of(pres.atom_element("c"))).is_zero()

    def test_beta_of_unit_is_zero(self, z2_env):
        pres, _, _, env = z2_env
        assert env.beta_of(pres.one()).is_zero()

    def test_trivial_algebra_envelope_collapses(self):
        pres = AlgebraPresentation(QQ, [GeneratorSymbol("e")],
                                   relations=[(("e",), {(): ONE})], name="k")
        env = build_envelope(PoissonStructure(pres, {}), cap=4)
        # the only basis word is 1, so there are no doubled generators at all
        assert env.presentation.generators == []
        assert env.alpha_of(pres.one()) == env.presentation.one()

    def test_relation_instances_reduce_to_zero(self, z2_env):
        *_, env = z2_env
        report = relation_instance_report(env)
        assert report.passed
        anchors = {e.anchor for e in report.entries}
        assert anchors == {
            "Def 5.1 Eq (5.1)", "Remark 5.4 Eq (5.1')", "Lemma 5.3 Eq (5.3)",
            "Remark 5.4 Eq (5.4)", "Remark 5.4 Eq (5.5)",
        }

    def test_locally_confluent_at_cap_6(self, z2_env):
        *_, env = z2_env
        assert env.presentation.cap == 6
        assert env.presentation.unresolved_critical_pairs() == []

    def test_infinite_dimensional_source_rejected(self):
        pres, p, _ = make_laurent38()
        with pytest.raises(InputError, match="finite"):
            build_envelope(p, cap=6)


class TestBuildKxy:
    def test_commutation_rule_present(self, kxy_env):
        pres, _, env = kxy_env
        # beta(x) alpha(y) -> alpha(y) beta(x) + alpha({x,y}) with {x,y} = x
        bx = env.beta_of(pres.atom_element("x"))
        ay = env.alpha_of(pres.atom_element("y"))
        ax = env.alpha_of(pres.atom_element("x"))
        assert env.normal_form(bx * ay) == ay * bx + ax

    def test_zero_bracket_pair_commutes(self, z2_env):
        pres, _, _, env = z2_env
        # k[Z2] has zero bracket, so beta a-symbols commute past alpha ones;
        # here beta(c) is itself 0, which subsumes the commutation
        assert env.normal_form(env.beta_of(pres.atom_element("c"))
                               * env.alpha_of(pres.atom_element("c"))).is_zero()

    def test_relation_instances_reduce_to_zero(self, kxy_env):
        *_, env = kxy_env
        assert relation_instance_report(env).passed

    def test_locally_confluent(self, kxy_env):
        *_, env = kxy_env
        assert env.presentation.unresolved_critical_pairs() == []

    def test_doubling_the_cap_preserves_normal_forms(self, kxy_env):
        pres, p, env = kxy_env
        env8 = build_envelope(p, cap=8)
        atoms = env.presentation.atoms
        rng_words = [
            (a,) for a in atoms
        ] + [
            (a, b) for a, b in itertools.product(atoms[:6], repeat=2)
        ] + [
            ("b[x]", "b[y]", "a[x]"), ("b[y]", "b[x]", "a[y]", "a[x]"),
        ]
        for w in rng_words:
            nf4 = env.presentation.normal_form(w)
            nf8 = env8.presentation.normal_form(w)
            assert nf4.terms == nf8.terms

    def test_product_relation_forces_high_beta_collapse(self, kxy_env):
        pres, _, env = kxy_env
        x = pres.atom_element("x")
        ax = env.alpha_of(x)
        bx2 = env.beta_of(x * x)
        # beta(x^2) = 2 a(x) b(x), so a(x) b(x) reduces to beta(x^2)/2
        assert env.normal_form(ax * env.beta_of(x)) == bx2.scale(QQ.parse("1/2"))

    def test_cap_overflow_is_hard_error(self, kxy_env):
        *_, env = kxy_env
        bx = env.beta_of(env.source.presentation.atom_element("x"))
        with pytest.raises(DegreeCapError):
            _ = bx * bx * bx * bx * bx


def test_a_built_envelope_refuses_a_new_rule():
    """`build_envelope` freezes the envelope's presentation: b[x] -> 0 is
    refused, naming the presentation, and the rule count, the normal form
    of b[x] and beta(x) stay as they were."""
    job = Job(builtin_job("kxy_truncated"))
    env, x = job.envelope(), job.presentation.atom_element("x")
    envp = env.presentation
    bx = ("b[x]",)
    before = (len(envp.rules), envp.normal_form(bx).terms, env.beta_of(x).terms)
    assert before[1:] == ({bx: ONE}, {bx: ONE})
    with pytest.raises(InputError, match=r"^presentation U\(kxy_truncated\) is frozen"):
        envp.add_rule_data(bx, {})
    assert (len(envp.rules), envp.normal_form(bx).terms, env.beta_of(x).terms) == before


def report_rows(report, field):
    """Each entry as its JSON form under `build-envelope` (command, check,
    anchor, subject, status and serialized witness) together with the raw
    witness."""
    return [(entry_to_json(e, field.render, "build-envelope"), e.witness)
            for e in report.entries]


DROPPED_RULES = range(0, 105, 7)  # 15 of the 105 rules of the kxy envelope at cap 4


def drop_rule(env, k):
    """The envelope rebuilt by hand from its rules with rule k left out."""
    envp = env.presentation
    rules = [(r.lhs, r.rhs_terms) for i, r in enumerate(envp.rules) if i != k]
    broken = AlgebraPresentation(envp.field, envp.generators, rules, cap=envp.cap,
                                 check=False, name=f"{envp.name} without rule {k}")
    return EnvelopePresentation(env.source, env.basis, broken, env.alpha_names, env.beta_names)


class TestRelationReport:
    @pytest.mark.parametrize("fixture", ["z2_env", "kxy_env"])
    def test_matches_the_mid_product_reference(self, fixture, request):
        env = request.getfixturevalue(fixture)[-1]
        field = env.presentation.field
        report = relation_instance_report(env)
        assert len(report.entries) == 1 + 9 * (len(env.basis) - 1) ** 2
        assert report_rows(report, field) == \
            report_rows(reference_relation_instance_report(env), field)

    @pytest.mark.parametrize("k", DROPPED_RULES)
    def test_matches_the_reference_with_a_rule_dropped(self, kxy_env, k):
        *_, env = kxy_env
        assert len(env.presentation.rules) == 105
        broken = drop_rule(env, k)
        report = relation_instance_report(broken)
        assert report_rows(report, QQ) == \
            report_rows(reference_relation_instance_report(broken), QQ)
        assert all(e.witness is not None for e in report.failures())

    def test_dropped_rules_break_every_opposite_law(self, kxy_env):
        *_, env = kxy_env
        failed = {e.check for k in DROPPED_RULES
                  for e in relation_instance_report(drop_rule(env, k)).failures()}
        assert {"opposite product law", "opposite product law (mirrored)",
                "opposite commutator", "opposite commutator (mirrored)"} <= failed

    def test_four_envelope_products_per_pair_and_no_tensor_product(self, kxy_env, monkeypatch):
        *_, env = kxy_env
        envp = env.presentation
        calls = {"multiply": 0, "tensor": 0}
        multiply, tensor_mul = AlgebraPresentation.multiply, TensorElement.__mul__

        def counted_multiply(self, a, b):
            calls["multiply"] += self is envp
            return multiply(self, a, b)

        def counted_tensor_mul(self, other):
            calls["tensor"] += 1
            return tensor_mul(self, other)

        monkeypatch.setattr(AlgebraPresentation, "multiply", counted_multiply)
        monkeypatch.setattr(TensorElement, "__mul__", counted_tensor_mul)
        relation_instance_report(env)
        assert calls == {"multiply": 4 * (len(env.basis) - 1) ** 2, "tensor": 0}


class TestXi:
    def test_kills_tensor_unit(self, kxy_env):
        pres, _, env = kxy_env
        te = TripleEnvelope(env)
        unit = TensorElement.unit((pres, pres, pres), SIG)
        assert not te.xi(unit)

    def test_single_slot_projections(self, kxy_env):
        pres, _, env = kxy_env
        te = TripleEnvelope(env)
        x = pres.atom_element("x")
        one = pres.one()
        envp = env.presentation
        bx = env.beta_of(x)
        cases = [
            ([x, one, one], TensorElement.outer([bx, envp.one(), envp.one()], SIG)),
            ([one, x, one], TensorElement.outer([envp.one(), bx, envp.one()], SIG)),
            ([one, one, x], TensorElement.outer([envp.one(), envp.one(), bx], SIG)),
        ]
        for slots, expected in cases:
            assert te.xi(TensorElement.outer(slots, SIG)) == expected

    def test_zero_bracket_grouplike_tensor_killed(self, z2_env):
        pres, _, _, env = z2_env
        te = TripleEnvelope(env)
        c = pres.atom_element("c")
        assert not te.xi(TensorElement.outer([c, c, c], SIG))

    def test_linear(self, kxy_env):
        pres, _, env = kxy_env
        te = TripleEnvelope(env)
        x, y = pres.atom_element("x"), pres.atom_element("y")
        one = pres.one()
        t1 = TensorElement.outer([x, y, one], SIG)
        t2 = TensorElement.outer([y, one, x], SIG)
        two = QQ.parse("2")
        assert te.xi(t1.scale(two) - t2) == te.xi(t1).scale(two) - te.xi(t2)


class TestLemma55:
    def test_zero_bracket_case_trivial(self, z2_env):
        *_, env = z2_env
        report = check_lemma55(TripleEnvelope(env))
        assert report.passed

    def test_kxy_all_laws_on_729_pairs(self, kxy_env):
        *_, env = kxy_env
        report = check_lemma55(TripleEnvelope(env))
        assert report.passed
        by_check = {}
        for e in report.entries:
            by_check.setdefault(e.check, 0)
            by_check[e.check] += 1
        assert by_check == {
            "xi is a Lie map": 729,
            "slot-map bracket law": 729,
            "xi product law": 729,
            "slot map is multiplicative": 729,
        }

    def test_middle_slot_sign_case(self, kxy_env):
        """The twisted middle slot makes the commutator of middle-slot
        beta images land on the bracket with the sign reversed, matching
        the negative middle term of the triple bracket."""
        pres, p, env = kxy_env
        te = TripleEnvelope(env)
        x, y = pres.atom_element("x"), pres.atom_element("y")
        one = pres.one()
        t1 = TensorElement.outer([one, x, one], SIG)
        t2 = TensorElement.outer([one, y, one], SIG)
        from hgalois import triple_bracket
        lhs = te.xi(triple_bracket(p, t1, t2))
        envp = env.presentation
        expected = -TensorElement.outer(
            [envp.one(), env.beta_of(p.bracket(x, y)), envp.one()], SIG)
        assert lhs == expected
        x1, x2 = te.xi(t1), te.xi(t2)
        assert lhs == x1 * x2 - x2 * x1


def quotient_chain(pres, p):
    """kxy -> k[y]/(y^3) (kill x, a Poisson ideal) -> k[y]/(y^2)."""
    ky3 = AlgebraPresentation(QQ, [GeneratorSymbol("y")],
                              relations=[(("y", "y", "y"), {})],
                              commutative=True, name="ky3")
    ky2 = AlgebraPresentation(QQ, [GeneratorSymbol("y")],
                              relations=[(("y", "y"), {})],
                              commutative=True, name="ky2")
    p3 = PoissonStructure(ky3, {})
    p2 = PoissonStructure(ky2, {})
    phi1 = GeneratorMap.algebra_map(
        pres, ky3, {"x": ky3.zero(), "y": ky3.atom_element("y")}, name="phi1")
    phi2 = GeneratorMap.algebra_map(
        ky3, ky2, {"y": ky2.atom_element("y")}, name="phi2")
    return (ky3, p3), (ky2, p2), phi1, phi2


def induced_map(phi, ua, ub):
    """U(phi) on the doubled generators (Lemma 5.8 Eq (5.15)):
    a_A(w) -> a_B(phi(w)) and b_A(w) -> b_B(phi(w)).  The envelope relations
    encode both the product and the bracket compatibility of phi, so a
    non-Poisson phi surfaces as a failed envelope relation."""
    images = {}
    for i in range(1, len(ua.basis)):
        image = phi.apply_element(ua.basis_element(i))
        images[ua.alpha_names[i]] = ub.alpha_of(image)
        images[ua.beta_names[i]] = ub.beta_of(image)
    umap = GeneratorMap.algebra_map(ua.presentation, ub.presentation, images,
                                    name="U(phi)")
    check_map_respects_relations(umap, anchor="Lemma 5.8 Eq (5.15)").require(
        "induced map violates envelope relation {subject} (phi is not a Poisson homomorphism)")
    return umap


class TestInducedMap:
    def test_identity_is_identity(self, kxy_env):
        pres, p, env = kxy_env
        u = induced_map(GeneratorMap.identity(pres), env, env)
        for atom in env.presentation.atoms:
            e = env.presentation.atom_element(atom)
            assert u.apply_element(e) == e

    def test_poisson_quotient_kills_beta_x(self, kxy_env):
        pres, p, env = kxy_env
        (ky3, p3), _, phi1, _ = quotient_chain(pres, p)
        env3 = build_envelope(p3, cap=4)
        u = induced_map(phi1, env, env3)
        assert u.apply_element(env.beta_of(pres.atom_element("x"))).is_zero()
        assert u.apply_element(env.alpha_of(pres.atom_element("y"))) == \
            env3.alpha_of(ky3.atom_element("y"))

    def test_functorial_along_chain(self, kxy_env):
        pres, p, env = kxy_env
        (_, p3), (_, p2), phi1, phi2 = quotient_chain(pres, p)
        env3 = build_envelope(p3, cap=4)
        env2 = build_envelope(p2, cap=4)
        u1 = induced_map(phi1, env, env3)
        u2 = induced_map(phi2, env3, env2)
        u21 = induced_map(compose(phi2, phi1), env, env2)
        for atom in env.presentation.atoms:
            e = env.presentation.atom_element(atom)
            assert u21.apply_element(e) == u2.apply_element(u1.apply_element(e))

    def test_non_poisson_map_rejected(self, kxy_env):
        pres, p, env = kxy_env
        swap = GeneratorMap.algebra_map(
            pres, pres,
            {"x": pres.atom_element("y"), "y": pres.atom_element("x")},
            name="swap")
        with pytest.raises(InputError, match="not a Poisson homomorphism"):
            induced_map(swap, env, env)

    def test_killing_y_is_not_poisson(self, kxy_env):
        # {x, y} = x does not lie in the ideal (y)
        pres, p, env = kxy_env
        kx = AlgebraPresentation(QQ, [GeneratorSymbol("x")],
                                 relations=[(("x", "x", "x"), {})],
                                 commutative=True, name="kx3")
        px = PoissonStructure(kx, {})
        envx = build_envelope(px, cap=4)
        phi = GeneratorMap.algebra_map(
            pres, kx, {"x": kx.atom_element("x"), "y": kx.zero()}, name="phi")
        with pytest.raises(InputError, match="not a Poisson homomorphism"):
            induced_map(phi, env, envx)


class TestThm59:
    def test_z2_condition_holds_everywhere(self, z2_env):
        pres, p, hg, env = z2_env
        report = check_thm59(PoissonHopfGaloisStructure(p, hg), env)
        assert report.passed
        per_element = [e for e in report.entries if e.check == "condition (5.17)"]
        assert [e.subject for e in per_element] == [
            "basis element 1", "basis element c"]
        relation_entries = [e for e in report.entries
                            if e.check == "U(mu) respects relation"]
        assert relation_entries and all(e.passed for e in relation_entries)

    def test_trivial_algebra(self):
        pres = AlgebraPresentation(QQ, [GeneratorSymbol("e")],
                                   relations=[(("e",), {(): ONE})], name="k")
        p = PoissonStructure(pres, {})
        mu = mu_map(pres, {"e": TensorElement.unit((pres,) * 3, SIG)})
        env = build_envelope(p, cap=4)
        report = check_thm59(
            PoissonHopfGaloisStructure(p, HopfGaloisStructure(pres, mu)), env)
        assert report.passed

    def test_kxy_truncation_golden_outcome(self, kxy_env):
        """On the 6-dimensional truncation with primitive generators the
        (5.17) residue vanishes for every basis element, while the induced
        map cannot respect the truncation relations (the structure map does
        not either), so exactly the relation entries fail."""
        pres, p, env = kxy_env
        from conftest import make_kxy_hopf
        from hgalois import hopf_to_galois
        ph = PoissonHopfGaloisStructure(p, hopf_to_galois(make_kxy_hopf(pres)))
        report = check_thm59(ph, env)
        per_element = [e for e in report.entries if e.check == "condition (5.17)"]
        assert len(per_element) == 6
        assert all(e.passed for e in per_element)
        failing_kinds = {e.check for e in report.failures()}
        assert failing_kinds == {"U(mu) respects relation"}

    def test_kxy_residue_hand_check_for_x(self, kxy_env):
        # mu(x) = x⊗1⊗1 - 1⊗x⊗1 + 1⊗1⊗x folds through alpha⊗beta⊗alpha
        # to -beta(x), so the residue beta(x) + fold vanishes
        pres, p, env = kxy_env
        x = pres.atom_element("x")
        one = pres.one()
        envp = env.presentation
        fold = (env.alpha_of(x) * env.beta_of(one) * env.alpha_of(one)
                - env.alpha_of(one) * env.beta_of(x) * env.alpha_of(one)
                + env.alpha_of(one) * env.beta_of(one) * env.alpha_of(x))
        assert envp.normal_form(env.beta_of(x) + fold).is_zero()
