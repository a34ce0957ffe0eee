import itertools

import pytest

from hgalois import QQ, InputError, TensorElement, build_envelope
from hgalois.tensors import OP, PLAIN
from conftest import make_h4, make_kxy, make_laurent38

from oracles import naive_tensor_mul

ONE = QQ.one
SIG = (PLAIN, OP, PLAIN)


def mid(pres, e):
    """1 ⊗ e ⊗ 1 with the twisted middle slot."""
    return TensorElement.outer([pres.one(), e, pres.one()], SIG)


def test_op_twist_on_all_h4_basis_pairs():
    """mid(u) mid(v) = mid(v u): on all basis pairs of H4, and on the atoms
    and length-2 atom words of the kxy envelope, where the envelope
    relation report derives its opposite-product laws from it."""
    h4 = make_h4()
    envp = build_envelope(make_kxy()[1], cap=4).presentation
    words = [(a,) for a in envp.atoms] + list(itertools.product(envp.atoms, repeat=2))
    for pres, elems in [(h4, [h4.element({w: ONE}) for w in h4.finite_basis()]),
                        (envp, [envp.element({w: ONE}) for w in words])]:
        for a, b in itertools.product(elems, repeat=2):
            assert mid(pres, a) * mid(pres, b) == mid(pres, b * a)


def test_tensor_multiply_matches_naive():
    h4 = make_h4()
    t3 = (h4, h4, h4)
    basis = h4.finite_basis()
    for w1, w2 in itertools.product(basis[:3], repeat=2):
        s = TensorElement(t3, SIG, {(w1, ("g",), w2): ONE})
        t = TensorElement(t3, SIG, {(w2, ("x",), w1): ONE})
        assert (s * t).terms == naive_tensor_mul(h4, SIG, s.terms, t.terms)


def test_signature_mismatch_rejected():
    h4 = make_h4()
    a = TensorElement.unit((h4, h4, h4), SIG)
    b = TensorElement.unit((h4, h4, h4), (PLAIN, PLAIN, PLAIN))
    with pytest.raises(InputError):
        _ = a * b


def test_tensor_unit():
    pres, _, _ = make_laurent38()
    g = pres.atom_element("g")
    s = TensorElement.outer([g, g, g], SIG)
    assert s * TensorElement.unit((pres,) * 3, SIG) == s


def test_laurent_commuting_square():
    pres, _, _ = make_laurent38()
    g, gi = pres.atom_element("g"), pres.atom_element("g^-1")
    s = TensorElement.outer([g, gi, g], SIG)
    sq = s * s
    assert sq == TensorElement.outer([g * g, gi * gi, g * g], SIG)


def test_fold_adjacent_uses_plain_product():
    h4 = make_h4()
    g, x = h4.atom_element("g"), h4.atom_element("x")
    t = TensorElement.outer([h4.one(), g, x], SIG)
    folded = t.fold_adjacent(1)
    assert folded == TensorElement.outer([h4.one(), g * x], (PLAIN, PLAIN))


def test_fold_all_left_to_right():
    h4 = make_h4()
    g, x = h4.atom_element("g"), h4.atom_element("x")
    t = TensorElement.outer([x, g, g], SIG)
    assert t.fold_all() == x * g * g


def test_expand_slot_into_twisted_slot_rejected():
    h4 = make_h4()
    from conftest import make_h4_mu
    mu = make_h4_mu(h4)
    t = mu.images["x"]
    with pytest.raises(InputError):
        t.expand_slot(1, mu)


def test_linearity_of_slot_transform():
    h4 = make_h4()
    g, x = h4.atom_element("g"), h4.atom_element("x")
    t = TensorElement.outer([g + x, g, h4.one()], SIG)
    doubled = t.slot_transform(0, lambda e: e.scale(QQ.parse("2")))
    assert doubled == t.scale(QQ.parse("2"))


def test_rank0_scalar_tensor():
    t = TensorElement.scalar_value(QQ, QQ.parse("3/2"))
    assert t.scalar() == QQ.parse("3/2")
    assert (t * t).scalar() == QQ.parse("9/4")
