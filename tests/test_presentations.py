import itertools

import pytest

from hgalois import (
    QQ,
    AlgebraPresentation,
    ConfluenceError,
    DegreeCapError,
    GeneratorSymbol,
    InputError,
    word_str,
)
from hgalois import presentations
from conftest import make_h4, make_kxy, make_laurent38, with_rules

from oracles import naive_reduce_terms

ONE = QQ.one


def test_h4_normal_forms():
    h4 = make_h4()
    g, x = h4.atom_element("g"), h4.atom_element("x")
    assert x * g == -(g * x)
    assert (x * x).is_zero()
    assert h4.normal_form(()) == h4.one()
    assert (g * x) * (g * x) == h4.zero()


def test_laurent_inverse_cancellation():
    pres, _, _ = make_laurent38()
    g = pres.atom_element("g")
    gi = pres.atom_element("g^-1")
    assert g * gi * g == g
    assert gi * gi * g * g == pres.one()


def test_laurent_normal_form_is_signed_power_times_x_power():
    pres, _, _ = make_laurent38()
    x, g, gi = (pres.atom_element(a) for a in ("x", "g", "g^-1"))
    e = x * gi * x * g * gi
    assert list(e.terms) == [("g^-1", "x", "x")]


def test_multiplication_is_associative_on_h4_basis():
    h4 = make_h4()
    basis = [h4.element({w: ONE}) for w in h4.finite_basis()]
    for a, b, c in itertools.product(basis, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_multiply_matches_naive_reduction():
    h4 = make_h4()
    basis = h4.finite_basis()
    for wa, wb in itertools.product(basis, repeat=2):
        prod = h4.multiply(h4.element({wa: ONE}), h4.element({wb: ONE}))
        assert prod.terms == naive_reduce_terms(h4, {wa + wb: ONE})


def test_mixed_presentation_multiplication_rejected():
    h4a, h4b = make_h4(), make_h4()
    with pytest.raises(InputError):
        h4a.atom_element("g") * h4b.atom_element("g")


def test_unknown_symbol_rejected():
    h4 = make_h4()
    with pytest.raises(InputError):
        h4.normal_form(("q",))


def test_degree_cap_is_a_hard_error():
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("t")], cap=4, name="free")
    t = pres.atom_element("t")
    e = t * t * t * t
    with pytest.raises(DegreeCapError) as exc:
        _ = e * t
    assert "multiply" in str(exc.value)


def test_rule_orientation_must_decrease_order():
    with pytest.raises(InputError, match="degree-lexicographic"):
        AlgebraPresentation(
            QQ, [GeneratorSymbol("a"), GeneratorSymbol("b")],
            relations=[(("a", "b"), {("b", "a"): ONE})],
        )


def test_confluence_failure_is_reported():
    # a^3 -> a and a^2 -> 0 cannot both hold; the error names the first
    # unresolved overlap, in its message and as `word`
    relations = [(("a", "a", "a"), {("a",): ONE}), (("a", "a"), {})]
    with pytest.raises(ConfluenceError) as exc:
        AlgebraPresentation(QQ, [GeneratorSymbol("a")], relations=relations)
    unchecked = with_rules(AlgebraPresentation(QQ, [GeneratorSymbol("a")]), relations)
    word, r1, r2, _ = unchecked.unresolved_critical_pairs()[0]
    assert str(exc.value) == ("presentation <anonymous> is not locally confluent; "
                              f"first unresolved overlap: {word_str(word)} between "
                              f"[{unchecked.rule_text(r1)}] and [{unchecked.rule_text(r2)}]")
    assert exc.value.word == word


def test_critical_pairs_all_resolve_on_fixtures():
    for pres in (make_h4(), make_laurent38()[0], make_kxy()[0]):
        assert pres.unresolved_critical_pairs() == []


def test_finite_basis_h4():
    h4 = make_h4()
    assert [word_str(w) for w in h4.finite_basis()] == ["1", "g", "x", "g*x"]


def test_finite_basis_kxy_dimension():
    pres, _ = make_kxy()
    assert len(pres.finite_basis()) == 6


def test_laurent_has_no_finite_basis():
    pres, _, _ = make_laurent38()
    assert pres.finite_basis() is None


def test_basis_index_error_names_both_limits():
    """A None basis does not say which limit stopped the search, so the
    error names both, with their values."""
    pres, _, _ = make_laurent38()
    with pytest.raises(InputError, match=(
            rf": the basis search stopped at one of its limits, the degree cap {pres.cap} or "
            rf"MAX_BASIS_SIZE = {presentations.MAX_BASIS_SIZE} basis words$")):
        pres.basis_index()


def test_basis_size_guard(monkeypatch):
    """Commutative k[x,y]/(x^40, y^40) at cap 80 has 1600 basis words, of
    length at most 78: past `MAX_BASIS_SIZE` words the basis is None,
    though the cap alone would let the closure finish."""
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("x"), GeneratorSymbol("y")],
                               relations=[(("x",) * 40, {}), (("y",) * 40, {})],
                               commutative=True, cap=80)
    assert presentations.MAX_BASIS_SIZE < 1600
    assert pres.finite_basis() is None
    monkeypatch.setattr(presentations, "MAX_BASIS_SIZE", 1600)
    assert len(pres.finite_basis()) == 1600


def test_multiplication_table_closed():
    h4 = make_h4()
    table = h4.multiplication_table()
    n = len(h4.finite_basis())
    assert set(table) == {(i, j) for i in range(n) for j in range(n)}
    for coeffs in table.values():
        assert all(0 <= k < n for k in coeffs)


def test_invert_solves_over_basis():
    h4 = make_h4()
    g = h4.atom_element("g")
    assert h4.invert(g) == g
    assert h4.invert(h4.atom_element("x")) is None
    kz4 = AlgebraPresentation(
        QQ, [GeneratorSymbol("h")],
        relations=[(("h", "h", "h", "h"), {(): ONE})],
        commutative=True, name="kZ4",
    )
    h = kz4.atom_element("h")
    assert kz4.invert(h) == h * h * h


def test_basis_index_and_its_readers_follow_a_new_rule():
    # k<x>/(x^3), then x^2 -> 0 shrinks the basis 1, x, x^2 to 1, x
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("x")], [(("x",) * 3, {})], name="x3")
    x = pres.atom_element("x")
    x2 = x * x
    assert pres.basis_index() == {(): 0, ("x",): 1, ("x", "x"): 2}
    assert pres.coeff_vector(x2 - x) == {1: -1, 2: 1}
    assert pres.multiplication_table()[(1, 1)] == {2: 1}
    assert pres.invert(pres.one() + x) == pres.one() - x + x2

    pres.add_rule_data(("x", "x"), {})
    assert pres.finite_basis() == [(), ("x",)]
    assert pres.basis_index() == {(): 0, ("x",): 1}
    assert pres.coeff_vector(pres.one() - x) == {0: 1, 1: -1}
    with pytest.raises(InputError, match="not a basis word"):
        pres.coeff_vector(x2)  # reduced under the old rules
    assert pres.multiplication_table() == {(0, 0): {0: 1}, (0, 1): {1: 1},
                                           (1, 0): {1: 1}, (1, 1): {}}
    assert pres.invert(pres.one() + x) == pres.one() - x


def test_a_frozen_presentation_completes_only_when_nothing_is_missing():
    """`complete_rules` on a frozen presentation returns 0 when its rules
    are confluent; when it would add a rule, `_add_rule` refuses it and the
    rules stay as they were."""
    pres, _ = make_kxy()  # the bracket freezes its presentation
    assert pres.frozen and pres.complete_rules() == 0
    # x^3 -> 0 and x^2 -> x: x^3 reduces to 0 and to x, so x -> 0 is missing
    open_ = with_rules(AlgebraPresentation(QQ, [GeneratorSymbol("x")], name="x3"),
                       [(("x",) * 3, {}), (("x", "x"), {("x",): ONE})])
    open_.freeze()
    with pytest.raises(InputError, match="^presentation x3 is frozen"):
        open_.complete_rules()
    assert len(open_.rules) == 2 and open_.unresolved_critical_pairs()


def test_invert_syntactic_for_laurent_monomials():
    pres, _, _ = make_laurent38()
    g = pres.atom_element("g")
    e = (g * g).scale(QQ.parse("3"))
    inv = pres.invert(e)
    assert inv * e == pres.one()
    assert e * inv == pres.one()
    assert pres.invert(pres.atom_element("x")) is None


def test_zero_coefficients_never_stored():
    h4 = make_h4()
    g = h4.atom_element("g")
    diff = g - g
    assert diff.terms == {}
    assert not diff


def test_normal_form_idempotent():
    pres, _, _ = make_laurent38()
    e = pres.element({("x", "g", "g^-1", "x"): ONE, ("g",): QQ.parse("2")})
    assert pres.normal_form(e) == e


def test_element_repr_deterministic():
    h4 = make_h4()
    e = h4.atom_element("x") + h4.atom_element("g")
    assert repr(e) == "(1)*g + (1)*x"
