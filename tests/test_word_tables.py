"""Word tables against the loops they replace: Leibniz brackets read from
the word-pair table of a `PoissonStructure`, and word images read from the
prefix table of a `GeneratorMap`, compared with the per-letter references
in oracles.py on every bundled structure over Q and GF(p), before and
after a presentation gains a rule, and at the degree cap."""

import itertools
import random

import pytest

from hgalois import (
    MU_SIGNATURE,
    PLAIN,
    QQ,
    AlgebraPresentation,
    DegreeCapError,
    Element,
    GeneratorMap,
    GeneratorSymbol,
    PoissonStructure,
    TensorElement,
    tensor_bracket,
    triple_bracket,
)
from hgalois.examples import BUILTINS, builtin_job
from hgalois.jobs import Job

from oracles import (
    reference_apply,
    reference_apply_word,
    reference_atom_bracket,
    reference_bracket,
    reference_triple_bracket,
)

FIELDS = {"q": "rationals", "gf421": {"prime": 421}}
POISSON_JOBS = sorted(n for n in BUILTINS if "bracket" in builtin_job(n))
MAP_JOBS = sorted(n for n in BUILTINS if {"mu", "hopf", "alpha"} & set(builtin_job(n)))


def _job(name, field):
    doc = builtin_job(name)
    doc["field"] = FIELDS[field]
    return Job(doc)


def _words(atoms, max_len):
    return [w for n in range(max_len + 1) for w in itertools.product(atoms, repeat=n)]


def _random_elements(pres, words, count, seed):
    """Sparse elements of one to four terms with small coefficients."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        terms = {w: pres.field.parse(f"{rng.randint(-5, 5) or 1}/{rng.randint(1, 4)}")
                 for w in rng.sample(words, min(len(words), rng.randint(1, 4)))}
        out.append(pres.element(terms))
    return out


def _maps(job):
    doc = job.doc
    maps = []
    if "mu" in doc:
        maps.append(job.hopf_galois().mu)
    if "hopf" in doc:
        hs = job.hopf()
        maps += [hs.delta, hs.counit, hs.antipode]
    if "alpha" in doc:
        maps.append(job.alpha_map())
    return maps


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", POISSON_JOBS)
def test_brackets_match_the_letter_loop(name, field):
    """Atom brackets (inverse atoms included), brackets of all words of
    length at most two, and of random sparse elements; each is asked twice,
    so the second answer comes from the tables."""
    p = _job(name, field).poisson()
    pres = p.presentation
    for s, t in itertools.product(pres.atoms, repeat=2):
        assert p.atom_bracket(s, t) == reference_atom_bracket(p, s, t)
    words = _words(pres.atoms, 2)
    elems = [pres.element({w: pres.field.one}) for w in words]
    elems += _random_elements(pres, words, 12, seed=len(words))
    pairs = list(itertools.product(elems, repeat=2))
    first = [p.bracket(a, b) for a, b in pairs]
    for (a, b), value in zip(pairs, first):
        expected = reference_bracket(p, a, b)
        assert value == expected
        assert p.bracket(a, b) == expected


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", MAP_JOBS)
def test_map_images_match_the_fold(name, field):
    """Every mu, Delta, counit, antipode and alpha map of the bundled jobs:
    images of all words of length at most three and of random elements,
    each asked twice."""
    job = _job(name, field)
    pres = job.presentation
    words = _words(pres.atoms, 3)
    elems = _random_elements(pres, _words(pres.atoms, 2), 12, seed=len(words))
    for gmap in _maps(job):
        first = [gmap.apply_word(w) for w in reversed(words)]
        for w, image in zip(reversed(words), first):
            assert image == reference_apply_word(gmap, w), (gmap.name, w)
            assert gmap.apply_word(w) == image
        for e in elems:
            assert gmap.apply(e) == reference_apply(gmap, e), gmap.name


def test_tensor_brackets_reduce_slot_words_first():
    """A tensor built without normalisation may hold slot words that are
    not normal forms; the triple and tensor brackets reduce them before
    reading the tables, so they see the element the tensor stands for.
    On k[x, y]/(x^2) with {x, y} = y the Leibniz sum of the raw word x*x
    is 2xy, not the bracket of its normal form 0."""
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("x"), GeneratorSymbol("y")],
                               [(("x", "x"), {})], commutative=True, cap=6)
    p = PoissonStructure(pres, {("x", "y"): pres.atom_element("y")})
    raw = {(("x", "x"), ("y", "x"), ()): QQ.one, (("y",), (), ("x", "x")): QQ.parse("-2")}
    loose = TensorElement((pres,) * 3, MU_SIGNATURE, raw, normalize=False)
    pure = TensorElement.outer([pres.atom_element(a) for a in "yxy"], MU_SIGNATURE)
    for s, t in ((loose, pure), (pure, loose), (loose, loose)):
        assert triple_bracket(p, s, t).terms == reference_triple_bracket(p, s, t)
    normal = TensorElement((pres,) * 3, MU_SIGNATURE, raw)
    assert triple_bracket(p, loose, pure) == triple_bracket(p, normal, pure)

    raw2 = {(("x", "x"), ("y",)): QQ.one, (("y", "x"), ("x", "x")): QQ.one}
    loose2 = TensorElement((pres, pres), (PLAIN, PLAIN), raw2, normalize=False)
    normal2 = TensorElement((pres, pres), (PLAIN, PLAIN), raw2)
    pure2 = TensorElement.outer([pres.atom_element("y"), pres.atom_element("x")],
                                (PLAIN, PLAIN))
    assert tensor_bracket(p, p, loose2, pure2) == tensor_bracket(p, p, normal2, pure2)
    assert tensor_bracket(p, p, pure2, loose2) == tensor_bracket(p, p, pure2, normal2)


def _kx_y(rules=()):
    """k[x, y] with the given extra rules and the bracket {x, y} = y."""
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("x"), GeneratorSymbol("y")],
                               list(rules), commutative=True, cap=6)
    return PoissonStructure(pres, {("x", "y"): pres.atom_element("y")})


def test_bracket_tables_follow_new_rules():
    """A bracket computed before `add_rule_data` is not served afterwards:
    {x, y^2} = 2 y^2 until y^2 -> 0 is added, and then it is what a
    structure built with that rule gives."""
    y2 = {("y", "y"): QQ.one}
    p = _kx_y()
    pres = p.presentation
    x, yy = pres.atom_element("x"), Element(pres, dict(y2))
    assert p.bracket(x, yy).terms == {("y", "y"): QQ.parse("2")}
    assert p.atom_bracket("x", "y") == pres.atom_element("y")

    pres.add_rule_data(("y", "y"), {})
    fresh = _kx_y([(("y", "y"), {})])
    fx, fyy = fresh.presentation.atom_element("x"), Element(fresh.presentation, dict(y2))
    assert p.bracket(x, yy).terms == fresh.bracket(fx, fyy).terms == {}
    assert p.bracket(x, yy) == reference_bracket(p, x, yy)


def test_map_images_follow_new_rules():
    """An image computed before the target gains a rule is not served
    afterwards: x^2 -> y^2 until y^2 -> 0 is added to the target."""
    def make(rules=()):
        source = AlgebraPresentation(QQ, [GeneratorSymbol("x")], cap=6)
        target = AlgebraPresentation(QQ, [GeneratorSymbol("y")], list(rules), cap=6)
        return GeneratorMap.algebra_map(source, target, {"x": target.atom_element("y")})

    f = make()
    assert f.apply_word(("x", "x")).terms == {(("y", "y"),): QQ.one}
    f.targets[0].add_rule_data(("y", "y"), {})
    fresh = make([(("y", "y"), {})])
    assert f.apply_word(("x", "x")).terms == fresh.apply_word(("x", "x")).terms == {}
    assert f.apply_word(("x", "x", "x")) == reference_apply_word(f, ("x", "x", "x"))


def test_cap_errors_are_not_memoized():
    """A word pair whose Leibniz products exceed the cap, and a word whose
    image does, raise `DegreeCapError` with the same label on every call,
    also after their shorter neighbours were tabled."""
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("x"), GeneratorSymbol("y")],
                               commutative=True, cap=3)
    p = PoissonStructure(pres, {("x", "y"): pres.element({("x", "y"): QQ.one})})
    x, y = pres.atom_element("x"), pres.atom_element("y")
    xx, yy = pres.element({("x", "x"): QQ.one}), pres.element({("y", "y"): QQ.one})
    assert p.bracket(xx, y) == reference_bracket(p, xx, y)
    for _ in range(2):
        with pytest.raises(DegreeCapError) as err:
            p.bracket(xx, yy)
        assert (err.value.operation, err.value.word_length, err.value.cap) == ("multiply", 4, 3)
    assert p.bracket(x, y).terms == {("x", "y"): QQ.one}

    f = GeneratorMap.algebra_map(pres, pres, {"x": xx, "y": y})
    assert f.apply_word(("x",)) == reference_apply_word(f, ("x",))
    for _ in range(2):
        with pytest.raises(DegreeCapError) as err:
            f.apply_word(("x", "x"))
        assert (err.value.operation, err.value.word_length, err.value.cap) == \
            ("normal_form", 4, 3)
