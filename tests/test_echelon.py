"""The sparse echelon routine against the dense solver and the seed-rule
elimination it replaced (copies in `oracles.py`)."""

import random

import pytest

from hgalois import (
    GF,
    QQ,
    AlgebraPresentation,
    Element,
    GeneratorSymbol,
    PoissonStructure,
    build_envelope,
)
from hgalois.envelope import _product_relation_rules
from conftest import log_canonical_x2y3, make_h4, make_kxy, make_kz2
from oracles import reference_invert, reference_product_relation_rules

GF421 = GF(421)


def make_taft(n, field):
    """<g, x | g^n = 1, x^n = 0, x g = q g x> with q a primitive n-th root of 1."""
    q = next(k for k in range(2, field.p)
             if pow(k, n, field.p) == 1 and all(pow(k, e, field.p) != 1 for e in range(1, n)))
    return AlgebraPresentation(
        field, [GeneratorSymbol("g"), GeneratorSymbol("x")],
        relations=[(("g",) * n, {(): field.one}), (("x",) * n, {}),
                   (("x", "g"), {("g", "x"): field.of_int(q)})],
        cap=4 * n, name=f"T{n}",
    )


ALGEBRAS = {
    "H4/Q": lambda: make_h4(QQ),
    "H4/GF421": lambda: make_h4(GF421),
    "T3/GF421": lambda: make_taft(3, GF421),
    "T5/GF421": lambda: make_taft(5, GF421),
    "Z2/Q": lambda: make_kz2(QQ)[0],
    "Z2/GF421": lambda: make_kz2(GF421)[0],
}


def _random_elements(pres, count, seed):
    rng = random.Random(seed)
    basis = pres.finite_basis()
    field = pres.field
    out = []
    for _ in range(count):
        words = rng.sample(basis, rng.randint(1, min(3, len(basis))))
        terms = {w: field.of_int(rng.randint(-2, 2)) for w in words}
        out.append(pres.element(terms))
    return out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_invert_matches_dense_reference(name):
    pres = ALGEBRAS[name]()
    one = pres.field.one
    elements = [Element(pres, {w: one}) for w in pres.finite_basis()]
    elements += _random_elements(pres, 40, seed=len(name))
    results = []
    for e in elements:
        got, want = pres.invert(e), reference_invert(pres, e)
        assert got == want, (e, got, want)
        if got is not None:
            assert pres.multiply(got, e) == pres.one() == pres.multiply(e, got)
        results.append(got)
    # both kinds occur: units (the group-likes, 1 + nilpotent) and non-units
    # (x, the zero element, 1 + c in k[Z2])
    assert any(r is None for r in results) and any(r is not None for r in results)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_non_invertible_elements_give_none(name):
    pres = ALGEBRAS[name]()
    assert pres.invert(pres.zero()) is None
    if "x" in pres.atoms:
        assert pres.invert(pres.atom_element("x")) is None
    else:  # (1 + c)(1 - c) = 0 in k[c]/(c^2 - 1)
        assert pres.invert(pres.one() + pres.atom_element("c")) is None


def _envelope_sources(field):
    pres, _ = make_kz2(field)
    return {"kxy": make_kxy(field)[1], "x2y3": log_canonical_x2y3(field),
            "z2": PoissonStructure(pres, {})}


@pytest.mark.parametrize("field", [QQ, GF421], ids=["Q", "GF421"])
@pytest.mark.parametrize("source", ["kxy", "x2y3", "z2"])
def test_seed_rules_match_reference(source, field):
    p = _envelope_sources(field)[source]
    env = build_envelope(p)
    args = (field, len(env.basis), p.presentation.multiplication_table(),
            env.alpha_names, env.beta_names)
    got = _product_relation_rules(args[0], env.presentation.word_key, *args[1:])
    assert got == reference_product_relation_rules(*args)
    assert all(all(rhs.values()) for _, rhs in got)  # no zero coefficient stored
