"""Word tables against the loops they replace: Leibniz brackets read from
the word-pair table of a `PoissonStructure`, word images read from the
prefix table of a `GeneratorMap`, and derivations read from the prefix
table of a `Derivation`, compared with the per-letter references in
oracles.py on every bundled structure over Q and GF(p), with and without
extra rules, and at the degree cap; and the freezing that keeps every
table entry valid: a presentation a structure reads refuses new rules."""

import itertools
import random
from functools import partial

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
    InputError,
    OreData,
    PoissonStructure,
    TensorElement,
    check_map_respects_relations,
    tensor_bracket,
    triple_bracket,
)
from hgalois.examples import BUILTINS, builtin_job
from hgalois.fields import field_from_spec
from hgalois.jobs import Job
from hgalois.maps import Derivation

from conftest import make_h4
from oracles import (
    reference_apply,
    reference_apply_word,
    reference_atom_bracket,
    reference_bracket,
    reference_delta_word,
    reference_derivation_word,
    reference_forced_inverse,
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
    atom = {a: Element(pres, {(a,): pres.field.one}) for a in pres.atoms}
    for s, t in itertools.product(pres.atoms, repeat=2):
        assert p.bracket(atom[s], atom[t]) == reference_atom_bracket(p, s, t)
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
                               list(rules), commutative=True, cap=6, name="kxy")
    return PoissonStructure(pres, {("x", "y"): pres.atom_element("y")})


# Each reader below is made from the rules given: (the presentation it
# reads, a read of its tables as term maps, the oracles' answer to that read)

def _poisson_reader(rules=()):
    """{x, y^2} with y^2 a raw word: 2 y^2, or 0 under y^2 -> 0."""
    p = _kx_y(rules)
    pres = p.presentation
    x, yy = pres.atom_element("x"), Element(pres, {("y", "y"): QQ.one})
    return (pres, lambda: p.bracket(x, yy).terms,
            lambda: reference_bracket(p, x, yy).terms)


def _map_reader(rules=()):
    """The image of x^3 under x -> y into k<y>."""
    source = AlgebraPresentation(QQ, [GeneratorSymbol("x")], cap=6, name="S")
    target = AlgebraPresentation(QQ, [GeneratorSymbol("y")], list(rules), cap=6, name="T")
    f = GeneratorMap.algebra_map(source, target, {"x": target.atom_element("y")})
    word = ("x",) * 3
    return (target, lambda: f.apply_word(word).terms,
            lambda: reference_apply_word(f, word).terms)


def _derivation_reader(rules=()):
    """D(x x y) for D(x) = y, D(y) = 0 on k[x, y]."""
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("x"), GeneratorSymbol("y")],
                               list(rules), commutative=True, cap=6, name="B")
    d = Derivation(pres, {"x": pres.atom_element("y"), "y": pres.zero()}, "D")
    word = ("x", "x", "y")
    return (pres, lambda: d.apply_word(word).terms,
            lambda: reference_derivation_word(pres, d.images, word).terms)


def _ore_reader(rules=()):
    """Validated Ore data on the Laurent polynomials with tau = id and
    delta = 0: tau and delta of g g."""
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("g", invertible=True)], list(rules),
                               commutative=True, name="A")
    identity = GeneratorMap.identity(pres)
    d = OreData(pres, identity, {"g": pres.zero()}, tau_inverse=identity)
    word = ("g", "g")

    def read():
        d.validate()
        return d.tau.apply_word(word).terms, d.delta.apply_word(word).terms
    return (pres, read,
            lambda: (reference_apply_word(d.tau, word).terms, reference_delta_word(d, word).terms))


Y2 = [(("y", "y"), {})]
READERS = {"poisson": (_poisson_reader, Y2), "map-target": (_map_reader, Y2),
           "derivation-base": (_derivation_reader, Y2),
           "ore": (_ore_reader, [(("g", "g"), {(): QQ.one}), (("g^-1",), {("g",): QQ.one})])}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_a_structure_freezes_what_it_reads(kind):
    """A bracket, a map (its target), a derivation (its algebra) and Ore
    data (its base) freeze the presentation they read: a new rule raises
    `InputError` naming it, and the rule count, the normal form of the
    rule's lhs and the tabled answer stay as they were.  A structure built
    with the rules reads them; both answers match the oracles."""
    make, rules = READERS[kind]
    pres, read, reference = make()
    before = read()
    assert before == reference()
    (lhs, rhs), count, nf = rules[0], len(pres.rules), pres.normal_form(rules[0][0])
    with pytest.raises(InputError, match=rf"^presentation {pres.name} is frozen"):
        pres.add_rule_data(lhs, rhs)
    assert (len(pres.rules), pres.normal_form(lhs), read()) == (count, nf, before)
    _, fresh, fresh_reference = make(rules)
    assert fresh() == fresh_reference() != before


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


# ----------------------------------------------------------------------
# derivations

# images of g that make every derivation of the Laurent jobs nonzero, with
# a degree-2 term so that the degree cap can be reached
NONZERO = [{"coeff": "1", "word": ["g", "g"]}, {"coeff": "-1/3", "word": ["g^-1"]}]
DERIVATION_BLOCKS = {"ore_q2_laurent": ("ore", ("delta",)),
                     "poisson_ore_laurent": ("poisson_ore", ("alpha", "delta"))}
DERIVATION_CASES = [("ore_q2_laurent", "bundled"), ("ore_q2_laurent", "nonzero"),
                    ("poisson_ore_laurent", "bundled"), ("poisson_ore_laurent", "nonzero"),
                    ("h4", "bundled")]
# confluent rule sets that change some derivation image: g^2 = 1 on the
# Laurent polynomials, x = 0 on H4
NEW_RULES = {"ore_q2_laurent": [(("g", "g"), {(): "1"}), (("g^-1",), {("g",): "1"})],
             "h4": [(("x",), {})]}
NEW_RULES["poisson_ore_laurent"] = NEW_RULES["ore_q2_laurent"]


def _derivations(case, field, *, images="bundled", relations=(), cap=None):
    """(derivation, reference on words, tau) for each derivation of a case:
    the delta of ore_q2_laurent, the alpha and delta of poisson_ore_laurent
    (with their bundled images, or `NONZERO` on g), and delta(g) = x,
    delta(x) = 0 with tau = id on H4; `relations` are added to the base
    presentation, and `cap` replaces its degree cap."""
    if case == "h4":
        h4 = make_h4(field_from_spec(FIELDS[field]))
        pres = AlgebraPresentation(
            h4.field, h4.generators,
            h4.user_relations + [(lhs, {w: h4.field.parse(c) for w, c in rhs.items()})
                                 for lhs, rhs in relations],
            cap=cap or h4.cap)
        d = OreData(pres, GeneratorMap.identity(pres),
                    {"g": pres.atom_element("x"), "x": pres.zero()})
        return [(d.delta, partial(reference_delta_word, d), d.tau)]
    doc = builtin_job(case)
    doc["field"] = FIELDS[field]
    doc["presentation"].setdefault("relations", []).extend(
        {"lhs": list(lhs), "rhs": [{"coeff": c, "word": list(w)} for w, c in rhs.items()]}
        for lhs, rhs in relations)
    if cap is not None:
        doc["presentation"]["cap"] = cap
    block, keys = DERIVATION_BLOCKS[case]
    if images == "nonzero":
        doc[block].update({key: {"g": NONZERO} for key in keys})
    job = Job(doc)
    if block == "ore":
        d, _ = job.ore_data()
        return [(d.delta, partial(reference_delta_word, d), d.tau)]
    d, _ = job.poisson_ore_data()
    pres = d.base.presentation
    return [(d.alpha, partial(reference_derivation_word, pres, d.alpha.images), None),
            (d.delta, partial(reference_derivation_word, pres, d.delta.images), None)]


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("case,images", DERIVATION_CASES)
def test_derivations_match_the_letter_loop(case, images, field):
    """Forced inverse images, images of all words of length at most three
    (non-normal ones such as g g^-1 included) and of random elements, each
    word asked twice."""
    for d, reference, tau in _derivations(case, field, images=images):
        pres = d.presentation
        for gen in pres.generators:
            if gen.invertible:
                inv = gen.name + "^-1"
                assert d.images[inv] == reference_forced_inverse(pres, tau, gen.name,
                                                                 d.images[gen.name])
                assert not d.apply_word((gen.name, inv)) and not d.apply_word((inv, gen.name))
        words = _words(pres.atoms, 3)
        first = [d.apply_word(w) for w in reversed(words)]
        for w, image in zip(reversed(words), first):
            assert image == reference(w), (d.label, w)
            assert d.apply_word(w) == image
        for e in _random_elements(pres, _words(pres.atoms, 2), 12, seed=len(words)):
            expected = pres.zero()
            for w, c in e.terms.items():
                expected = expected + reference(w).scale(c)
            assert d.apply(e) == expected, d.label


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("case", sorted(NEW_RULES))
def test_derivations_with_new_rules_match_the_letter_loop(case, field):
    """Data built with the new rules: every word of length at most three
    has the image the reference gives, and at least one image differs from
    the data without them.  The reference reduces a word before it applies
    tau, so it is compared only where tau respects the new rules
    (tau(g) = 2g does not respect g^2 = 1)."""
    old = _derivations(case, field, images="nonzero")
    words = _words(old[0][0].presentation.atoms, 3)
    fresh = _derivations(case, field, images="nonzero", relations=NEW_RULES[case])
    changed = False
    for (d, _, _), (f, reference, tau) in zip(old, fresh):
        tau_respects = tau is None or check_map_respects_relations(tau).passed
        for w in words:
            image = f.apply_word(w)
            assert not tau_respects or image == reference(w), (f.label, w)
            changed |= image.terms != d.apply_word(w).terms
    assert changed


# a word whose image passes the degree cap, and that cap: the normal words
# of H4 have length at most two
CAP_CASES = {"ore_q2_laurent": (("g",) * 5, 3), "poisson_ore_laurent": (("g",) * 5, 3),
             "h4": (("g", "x", "g"), 2)}


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("case", sorted(CAP_CASES))
def test_derivation_cap_errors_are_not_memoized(case, field):
    """A word whose image exceeds the cap raises `DegreeCapError` with the
    same label on every call, as the reference does, and leaves the table
    serving shorter words."""
    word, cap = CAP_CASES[case]
    for d, reference, _ in _derivations(case, field, images="nonzero", cap=cap):
        labels = []
        for _ in range(2):
            with pytest.raises(DegreeCapError) as err:
                d.apply_word(word)
            labels.append((err.value.operation, err.value.word_length, err.value.cap))
        assert labels[0] == labels[1] and labels[0][2] == cap
        with pytest.raises(DegreeCapError):
            reference(word)
        assert d.apply_word(word[:2]) == reference(word[:2])
