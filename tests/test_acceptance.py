"""Acceptance criteria, one test per criterion.

Every comparison is exact equality of normalized sparse representations;
there are no tolerances anywhere.  Each test prints a single PASS line on
success (run with -s to see them).
"""

import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import hgalois
import hgalois.poisson as poisson_module
from hgalois import (
    QQ,
    GeneratorMap,
    HopfGaloisStructure,
    OreData,
    PoissonHopfGaloisStructure,
    PoissonOreData,
    PoissonStructure,
    TensorElement,
    TripleEnvelope,
    build_envelope,
    build_ore,
    check_hopf_galois,
    check_lemma55,
    check_poisson,
    check_poisson_hg,
    check_thm28,
    check_thm44,
    check_thm59,
    galois_to_hopf,
    hopf_to_galois,
    is_grouplike,
    mu_map,
    relation_instance_report,
)
from hgalois.cli import main as cli_main
from hgalois.examples import BUILTINS
from hgalois.ore import assemble_ore, mu_z_tensor
from hgalois.tensors import OP, PLAIN
from conftest import (
    make_h4,
    make_h4_hopf,
    make_h4_mu,
    make_kxy,
    make_kz2,
    make_laurent38,
)
from oracles import (
    hg_verdict_full_basis,
    jacobi_verdict_full_basis,
    poisson_hg_verdict_full_basis,
)

ONE = QQ.one
SIG = (PLAIN, OP, PLAIN)


def report_line(number, text):
    print(f"ACCEPTANCE {number}: PASS — {text}")


def test_criterion_01_sweedler_h4_axioms_and_mutations(tmp_path):
    assert cli_main(["check-hopf-galois", "--builtin", "sweedler_h4",
                     "--report", str(tmp_path / "r.json")]) == 0
    h4 = make_h4()
    mu = make_h4_mu(h4)
    report = check_hopf_galois(HopfGaloisStructure(h4, mu))
    assert report.passed
    per_check = {}
    for e in report.entries:
        per_check.setdefault(e.check, []).append(e.subject)
    assert set(per_check) == {"mu respects relation", "left unit law",
                              "right unit law", "coassociativity (rank 5)"}
    for law in ("left unit law", "right unit law", "coassociativity (rank 5)"):
        assert {"generator g", "generator x"} <= set(per_check[law])

    keys = [k for k, _ in mu.images["x"].sorted_terms()]
    assert len(keys) == 3
    for key in keys:
        for mode in ("drop", "flip"):
            terms = dict(mu.images["x"].terms)
            if mode == "drop":
                del terms[key]
            else:
                terms[key] = -terms[key]
            mutated = mu.with_images({"x": TensorElement(
                (h4, h4, h4), SIG, terms, QQ)})
            bad = check_hopf_galois(HopfGaloisStructure(h4, mutated))
            failures = bad.failures()
            assert failures, f"mutation {mode} {key} went undetected"
            assert any(e.witness is not None and bool(e.witness) for e in failures)
    report_line(1, "H4 passes all axioms; every single-summand mutation of "
                   "mu(x) fails with a nonzero witness")


def test_criterion_02_grouplikes():
    h4 = make_h4()
    hg = HopfGaloisStructure(h4, make_h4_mu(h4))
    assert is_grouplike(hg, h4.atom_element("g"))
    assert is_grouplike(hg, h4.one())
    pres38, _, hg38 = make_laurent38()
    assert is_grouplike(hg38, pres38.one())
    rejected = is_grouplike(hg, h4.atom_element("x"))
    assert not rejected
    assert rejected.reason == "no inverse"
    report_line(2, "group-likes accepted for (H4, g) and units; (H4, x) "
                   "rejected with reason 'no inverse'")


def test_criterion_03_prop24_round_trip():
    h4 = make_h4()
    hs = make_h4_hopf(h4)
    back = galois_to_hopf(hopf_to_galois(hs), hs.counit)
    g, x = h4.atom_element("g"), h4.atom_element("x")
    assert back.delta.images["x"] == TensorElement.outer(
        [x, h4.one()], (PLAIN, PLAIN)) + TensorElement.outer([g, x], (PLAIN, PLAIN))
    assert back.antipode.images["x"].to_element() == -(g * x)
    assert back.delta.images["g"] == TensorElement.outer([g, g], (PLAIN, PLAIN))
    assert back.antipode.images["g"].to_element() == g
    report_line(3, "round trip recovers Delta(x)=x⊗1+g⊗x, S(x)=-g*x, "
                   "Delta(g)=g⊗g, S(g)=g exactly")


def test_criterion_04_example38_both_lambdas(tmp_path, monkeypatch):
    for name in ("laurent_lambda1", "laurent_lambda2"):
        assert cli_main(["run", "--builtin", name,
                         "--report", str(tmp_path / f"{name}.json")]) == 0
    for lam in (Fraction(1), Fraction(2)):
        pres, p, hg = make_laurent38(lam=lam)
        assert check_poisson(p).passed
        assert check_poisson_hg(PoissonHopfGaloisStructure(p, hg)).passed
        g, gi, x = (pres.atom_element(a) for a in ("g", "g^-1", "x"))
        assert p.bracket(g, gi).is_zero()
        assert p.bracket(x, gi) == (gi * x).scale(-lam)

    # sign-discipline regression: flip the middle sign of the triple bracket
    pres, p, hg = make_laurent38()
    original = poisson_module.triple_bracket

    def flipped(pstr, s, t):
        value = original(pstr, s, t)
        mixed = TensorElement.zero(s.factors, s.signature, s.field)
        two = QQ.parse("2")
        for (x1, y1, z1), c1 in s.terms.items():
            ex, ey, ez = (pres.element({w: ONE}) for w in (x1, y1, z1))
            for (x2, y2, z2), c2 in t.terms.items():
                ex2, ey2, ez2 = (pres.element({w: ONE}) for w in (x2, y2, z2))
                mixed = mixed + TensorElement.outer(
                    [ex * ex2, pstr.bracket(ey, ey2), ez * ez2],
                    s.signature).scale(c1 * c2 * two)
        return value + mixed  # adds 2·(middle term): net effect flips its sign

    monkeypatch.setattr(poisson_module, "triple_bracket", flipped)
    assert not check_poisson_hg(PoissonHopfGaloisStructure(p, hg)).passed
    monkeypatch.undo()
    report_line(4, "Example 3.8 passes for lambda in {1,2} with the forced "
                   "inverse brackets; flipping the middle sign breaks it")


def test_criterion_05_thm28_end_to_end():
    pres, _, _ = make_laurent38()  # only for field constants
    from hgalois import AlgebraPresentation, GeneratorSymbol
    A = AlgebraPresentation(QQ, [GeneratorSymbol("g", invertible=True)],
                            commutative=True, name="A")
    g, gi = A.atom_element("g"), A.atom_element("g^-1")
    hg = HopfGaloisStructure(A, mu_map(A, {"g": TensorElement.outer([g, gi, g], SIG)}))
    tau = GeneratorMap.algebra_map(A, A, {"g": g.scale(Fraction(2))}, name="tau")
    tau_inv = GeneratorMap.algebra_map(A, A, {"g": g.scale(Fraction(1, 2))},
                                       name="tau_inv")
    good = OreData(A, tau, {"g": A.zero()}, tau_inverse=tau_inv, variable="z", cap=8)
    report = check_thm28(good, hg, g)
    assert report.passed
    extension = assemble_ore(good, hg, g)
    assert extension.presentation.cap == 8
    assert check_hopf_galois(extension).passed

    mutated = OreData(A, tau, {"g": A.one()}, tau_inverse=tau_inv,
                      variable="z", cap=8)
    bad_report = check_thm28(mutated, hg, g)
    assert {e.check for e in bad_report.failures()} == {"delta compatibility"}
    ore = build_ore(mutated)
    images = {a: img.transport((ore, ore, ore)) for a, img in hg.mu.images.items()}
    images["z"] = mu_z_tensor(ore, g, gi, "z")
    assert not check_hopf_galois(HopfGaloisStructure(ore, mu_map(ore, images))).passed
    report_line(5, "q=2 Ore data passes conditions (1)-(3) and the cap-8 "
                   "full check; the delta mutation fails both")


def test_criterion_06_thm44_end_to_end():
    from hgalois import AlgebraPresentation, GeneratorSymbol
    B = AlgebraPresentation(QQ, [GeneratorSymbol("g", invertible=True)],
                            commutative=True, name="B")
    g, gi = B.atom_element("g"), B.atom_element("g^-1")
    p = PoissonStructure(B, {})
    ph = PoissonHopfGaloisStructure(
        p, HopfGaloisStructure(B, mu_map(B, {"g": TensorElement.outer([g, gi, g], SIG)})))
    good = PoissonOreData(p, alpha={"g": B.zero()}, delta={"g": g},
                          variable="x", cap=8)
    report = check_thm44(good, ph, g)
    assert report.passed
    anchors = {e.anchor for e in report.entries}
    assert {"Thm 4.4 Eq (4.6)", "Thm 4.4 Eq (4.7)", "Thm 4.4 Eq (4.8)",
            "Thm 4.4 Eq (4.9)", "Thm 4.4 Eq (4.10)"} <= anchors
    assert any(e.check == "mu is a Poisson map" for e in report.entries)

    mutated = PoissonOreData(p, alpha={"g": B.zero()},
                             delta={"g": g * g, "g^-1": -gi},
                             variable="x", cap=8)
    bad_report = check_thm44(mutated, ph, g)
    failures = bad_report.failures()
    assert failures
    assert {e.anchor for e in failures} == {"Thm 4.4 Eq (4.10)"}
    assert all(e.witness is not None and bool(e.witness) for e in failures)
    report_line(6, "alpha=0, delta(g)=g passes Eq (4.6)-(4.10) plus the cap-8 "
                   "extension check; the delta(g)=g^2 mutation fails Eq (4.10) "
                   "with a witness")


def test_criterion_07_envelope_z2():
    pres, _ = make_kz2(gen="g")
    p = PoissonStructure(pres, {})
    env = build_envelope(p, cap=6)
    assert env.normal_form(env.beta_of(pres.atom_element("g"))).is_zero()
    instances = relation_instance_report(env)
    assert instances.passed
    assert {e.anchor for e in instances.entries} == {
        "Def 5.1 Eq (5.1)", "Remark 5.4 Eq (5.1')", "Lemma 5.3 Eq (5.3)",
        "Remark 5.4 Eq (5.4)", "Remark 5.4 Eq (5.5)"}
    assert env.presentation.cap == 6
    assert env.presentation.unresolved_critical_pairs() == []
    report_line(7, "Z/2 envelope reduces beta(g) to 0, closes every defining-"
                   "law instance, and is locally confluent at cap 6")


def test_criterion_08_lemma55_729_pairs():
    pres, p = make_kxy()
    env = build_envelope(p, cap=4)
    words = [(), ("x",), ("y",)]
    report = check_lemma55(TripleEnvelope(env), words)
    assert report.passed
    counts = {}
    for e in report.entries:
        counts[e.check] = counts.get(e.check, 0) + 1
    assert counts["xi is a Lie map"] == 729
    assert counts["slot-map bracket law"] == 729
    assert counts["xi product law"] == 729
    report_line(8, "all 729 basis-triple pairs over {1,x,y} satisfy Eq (5.6) "
                   "and both step-2 laws at cap 4")


def test_criterion_09_thm59_z2(tmp_path):
    assert cli_main(["run", "--builtin", "z2_zero_bracket",
                     "--report", str(tmp_path / "r.json")]) == 0
    pres, hg = make_kz2(gen="c")
    p = PoissonStructure(pres, {})
    env = build_envelope(p, cap=6)
    report = check_thm59(PoissonHopfGaloisStructure(p, hg), env)
    assert report.passed
    per_element = [e for e in report.entries if e.check == "condition (5.17)"]
    assert len(per_element) == len(env.basis)
    assert all(e.passed for e in per_element)
    relation_entries = [e for e in report.entries
                        if e.check == "U(mu) respects relation"]
    assert relation_entries and all(e.passed for e in relation_entries)
    report_line(9, "condition (5.17) holds for every basis element of the Z/2 "
                   "example and the induced map respects all envelope relations")


def test_criterion_10_oracle_equivalence():
    # passing and failing verdicts of each checker, reproduced independently
    h4 = make_h4()
    mu = make_h4_mu(h4)
    assert check_hopf_galois(HopfGaloisStructure(h4, mu)).passed \
        == hg_verdict_full_basis(h4, mu.images) is True
    for index in range(3):
        key = [k for k, _ in mu.images["x"].sorted_terms()][index]
        terms = dict(mu.images["x"].terms)
        del terms[key]
        bad = mu.with_images({"x": TensorElement((h4, h4, h4), SIG, terms, QQ)})
        assert check_hopf_galois(HopfGaloisStructure(h4, bad)).passed \
            == hg_verdict_full_basis(h4, bad.images) is False

    kz2, hg2 = make_kz2(gen="c")
    p2 = PoissonStructure(kz2, {})
    assert check_poisson_hg(PoissonHopfGaloisStructure(p2, hg2)).passed \
        == poisson_hg_verdict_full_basis(p2, hg2.mu.images) is True
    kz4, hg4 = _kz4_structure()
    p4 = PoissonStructure(kz4, {})
    assert check_poisson_hg(PoissonHopfGaloisStructure(p4, hg4)).passed \
        == poisson_hg_verdict_full_basis(p4, hg4.mu.images) is True

    presk, pk = make_kxy()
    assert check_poisson(pk).passed == jacobi_verdict_full_basis(pk) is True
    pres3, bad3 = _broken_three_generator_poisson()
    assert check_poisson(bad3).passed == jacobi_verdict_full_basis(bad3) is False
    report_line(10, "generator-level verdicts match full-basis brute force on "
                    "every finite-dimensional builtin, for passing and failing "
                    "inputs alike")


def _kz4_structure():
    from hgalois import AlgebraPresentation, GeneratorSymbol
    kz4 = AlgebraPresentation(QQ, [GeneratorSymbol("h")],
                              relations=[(("h", "h", "h", "h"), {(): ONE})],
                              commutative=True, name="kZ4")
    h = kz4.atom_element("h")
    mu = mu_map(kz4, {"h": TensorElement.outer([h, h * h * h, h], SIG)})
    return kz4, HopfGaloisStructure(kz4, mu)


def _broken_three_generator_poisson():
    from hgalois import AlgebraPresentation, GeneratorSymbol
    pres = AlgebraPresentation(
        QQ, [GeneratorSymbol("x"), GeneratorSymbol("y"), GeneratorSymbol("z")],
        relations=[(w, {}) for w in itertools.combinations_with_replacement(
            ("x", "y", "z"), 2)],
        commutative=True, name="deg1")
    table = {
        ("x", "y"): pres.atom_element("z"),
        ("y", "z"): pres.atom_element("x"),
        ("x", "z"): pres.atom_element("x"),
    }
    return pres, PoissonStructure(pres, table)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_criterion_11_determinism(name, tmp_path):
    paths = [tmp_path / f"run{i}.json" for i in (1, 2)]
    for path in paths:
        assert cli_main(["run", "--builtin", name, "--report", str(path)]) in (0, 1)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    if name == sorted(BUILTINS)[-1]:
        report_line(11, "every bundled job produces byte-identical reports "
                        "across repeated runs")


@pytest.mark.parametrize("name", ["kxy_truncated", "poisson_ore_laurent"])
def test_reports_do_not_depend_on_the_hash_seed(name, tmp_path):
    """String hashing, and with it the iteration order of a set or of a
    dict filled from one, changes with PYTHONHASHSEED; none of it may reach
    a rule list or a report.  `kxy_truncated` completes its envelope."""
    src = str(pathlib.Path(hgalois.__file__).parents[1])
    reports = []
    for seed in ("0", "12345"):
        path = tmp_path / f"seed{seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "hgalois.cli", "run", "--builtin", name,
                               "--report", str(path)], env=env, timeout=120)
        assert done.returncode == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
