"""The Lemma 5.5 fast path against the per-term references in oracles.py:
xi and alpha3 from cached basis-word images, one outer product per term
and slot pattern, triple brackets and tensor products accumulated in one
pass, memo-backed slot normalisation, and the whole check summed from
tables that it fills once: (2K)^2 + 2K^2 slot products and brackets for
K sample words, and the alpha and beta images of the 2K^2 source
products and brackets.  Each law is summed in one map by one
outer-product kernel (`add_products`), with no tensor product or triple
bracket per pair, the Lie and product-law image products summed once per
unordered pair, and a tensor built only for a failing law's witness."""

import collections
import itertools
import re
import sys

import pytest

from hgalois import (
    GF,
    QQ,
    AlgebraPresentation,
    DegreeCapError,
    Element,
    GeneratorSymbol,
    InputError,
    PoissonStructure,
    TensorElement,
    TripleEnvelope,
    build_envelope,
    check_lemma55,
    triple_bracket,
    word_str,
)
from hgalois import envelope as envelope_module
from hgalois import poisson as poisson_module
from hgalois.envelope import MU_SIGNATURE, SLOT_PATTERNS
from conftest import log_canonical_x2y3, make_kxy, make_kz2

from oracles import (
    reference_alpha3,
    reference_alpha_word,
    reference_beta_word,
    reference_check_lemma55,
    reference_tensor_mul,
    reference_triple_bracket,
    reference_xi,
)


def _z2():
    pres, _ = make_kz2(gen="c")
    return PoissonStructure(pres, {})


ENVELOPES = {
    "kxy_truncated_q": (lambda: make_kxy(QQ)[1], 6),
    "kxy_truncated_gf421": (lambda: make_kxy(GF(421))[1], 6),
    "log_canonical_x2y3": (lambda: log_canonical_x2y3(QQ), 6),
    "z2": (_z2, 6),
}


@pytest.fixture(scope="module", params=sorted(ENVELOPES))
def case(request):
    """(Poisson algebra, envelope, triple envelope, sample triples): the
    pure tensors of unit and generators that `check_lemma55` draws from."""
    make, cap = ENVELOPES[request.param]
    p = make()
    env = build_envelope(p, cap=cap)
    pres = p.presentation
    elems = [pres.one()] + [pres.atom_element(a) for a in pres.atoms]
    triples = [TensorElement.outer(combo, MU_SIGNATURE)
               for combo in itertools.product(elems, repeat=3)]
    return p, env, TripleEnvelope(env), triples


def _pairs(triples):
    return list(itertools.product(triples, repeat=2))


def test_basis_word_images_match_atom_normal_forms(case):
    p, env, _, _ = case
    pres = p.presentation
    for word in env.basis:
        value = Element(pres, {word: pres.field.one})
        assert env.alpha_of(value).terms == reference_alpha_word(env, word)
        assert env.beta_of(value).terms == reference_beta_word(env, word)


def test_alpha_of_rejects_a_word_outside_the_basis(case):
    p, env, te, _ = case
    pres = p.presentation
    outside = (pres.atoms[0],) * (len(env.basis) + 1)
    value = Element(pres, {outside: pres.field.one})
    with pytest.raises(InputError, match="is not a basis word"):
        env.alpha_of(value)
    with pytest.raises(InputError, match="is not a basis word"):
        env.beta_of(value)
    t = TensorElement((pres, pres, pres), MU_SIGNATURE,
                      {(outside, (), ()): pres.field.one}, normalize=False)
    with pytest.raises(InputError, match="is not a basis word"):
        te.xi(t)


def test_xi_and_alpha3_match_on_triples_brackets_and_products(case):
    p, env, te, triples = case
    for t in triples:
        assert te.xi(t).terms == reference_xi(env, t)
        assert te.alpha3(t).terms == reference_alpha3(env, t)
    for t1, t2 in _pairs(triples):
        for t in (triple_bracket(p, t1, t2), t1 * t2):
            assert te.xi(t).terms == reference_xi(env, t)
            assert te.alpha3(t).terms == reference_alpha3(env, t)


def test_xi_and_alpha3_memos_match_the_references(case):
    """A fresh triple envelope: on every triple of basis words alpha3 runs
    before xi, so state shared by the two maps would hand xi the image of
    alpha3.  Then multi-term tensors whose terms repeat those triples, and
    every single triple once more: each image must still be the
    reference's (no earlier call changed what a later one reads)."""
    p, env, _, _ = case
    pres = p.presentation
    field = pres.field
    te = TripleEnvelope(env)
    words = list(itertools.product(env.basis, repeat=3))

    def tensor(terms):
        return TensorElement((pres,) * 3, MU_SIGNATURE, terms, field, normalize=False)

    for key in words:
        t = tensor({key: field.one})
        assert te.alpha3(t).terms == reference_alpha3(env, t)
        assert te.xi(t).terms == reference_xi(env, t)
    coeffs = [field.one, field.parse("2/3"), field.parse("-5")]
    for start in range(0, len(words), 7):
        t = tensor({key: coeffs[i % 3] for i, key in enumerate(words[start:start + 11])})
        assert te.xi(t).terms == reference_xi(env, t)
        assert te.alpha3(t).terms == reference_alpha3(env, t)
    for key in words:
        t = tensor({key: field.one})
        assert te.xi(t).terms == reference_xi(env, t)
        assert te.alpha3(t).terms == reference_alpha3(env, t)


def test_triple_bracket_matches(case):
    p, _, _, triples = case
    for t1, t2 in _pairs(triples):
        assert triple_bracket(p, t1, t2).terms == reference_triple_bracket(p, t1, t2)


def test_tensor_products_match(case):
    _, _, te, triples = case
    images = [f(t) for t in triples for f in (te.xi, te.alpha3)]
    for s, t in itertools.chain(_pairs(triples), _pairs(images[::5])):
        assert (s * t).terms == reference_tensor_mul(s, t)


def test_slot_word_over_the_cap_still_raises(case):
    _, env, _, _ = case
    envp = env.presentation
    atom = env.alpha_names[1]
    long_word = (atom,) * (envp.cap // 2 + 1)
    t = TensorElement((envp, envp, envp), MU_SIGNATURE,
                      {(long_word, (), ()): envp.field.one}, normalize=False)
    with pytest.raises(DegreeCapError) as fast:
        t * t
    with pytest.raises(DegreeCapError) as reference:
        reference_tensor_mul(t, t)
    assert fast.value.operation == reference.value.operation == "normal_form"
    assert (fast.value.word_length, fast.value.cap) == \
        (reference.value.word_length, reference.value.cap) == (len(long_word) * 2, envp.cap)


def test_triple_bracket_slot_word_over_the_cap_still_raises(case):
    """`triple_bracket` reads slot normal forms from the memo first; a word
    over the cap is never a memo key, so it still raises as the reference
    does."""
    p, _, _, _ = case
    pres = p.presentation
    long_word = (pres.atoms[0],) * (pres.cap + 1)
    t = TensorElement((pres, pres, pres), MU_SIGNATURE,
                      {((), long_word, ()): pres.field.one}, normalize=False)
    unit = TensorElement.unit((pres, pres, pres), MU_SIGNATURE)
    for s, u in ((t, unit), (unit, t)):
        with pytest.raises(DegreeCapError) as fast:
            triple_bracket(p, s, u)
        with pytest.raises(DegreeCapError) as reference:
            reference_triple_bracket(p, s, u)
        assert fast.value.operation == reference.value.operation == "normal_form"
        assert (fast.value.word_length, fast.value.cap) == \
            (reference.value.word_length, reference.value.cap) == (len(long_word), pres.cap)


def test_check_lemma55_matches_the_reference(case):
    _, _, te, _ = case
    entries = [(e.check, e.anchor, e.subject, e.passed, e.witness and e.witness.terms)
               for e in check_lemma55(te).entries]
    assert entries == reference_check_lemma55(te)


def _failing_x2y3(field):
    """The triple envelope of x2y3 read against the bracket doubled."""
    p = log_canonical_x2y3(field)
    pres = p.presentation
    env = build_envelope(p, cap=6)
    env.source = PoissonStructure(pres, {("x", "y"): pres.element({("x", "y"): field.parse("4/3")})})
    return TripleEnvelope(env)


def _check_failing_laws(field):
    """The x2y3 envelope read against the bracket doubled: the two bracket
    laws fail, and every witness is the reference's.  The Lie law of the
    pair (j, i) has the negated witness of the pair (i, j), and on the
    diagonal it passes.  Returns the report."""
    te = _failing_x2y3(field)
    report = check_lemma55(te)
    entries = [(e.check, e.anchor, e.subject, e.passed, e.witness and e.witness.terms)
               for e in report.entries]
    assert {e[0] for e in entries if not e[3]} == {"xi is a Lie map", "slot-map bracket law"}
    assert entries == reference_check_lemma55(te)
    lie = {e.subject: e for e in report.entries if e.check == "xi is a Lie map"}
    for subject, entry in lie.items():
        left, right = subject[len("pair "):].split(" x ")
        mirror = lie[f"pair {right} x {left}"]
        if left == right:
            assert entry.passed
        elif entry.passed:
            assert mirror.passed
        else:
            assert mirror.witness.terms == field.canonical(
                {k: -c for k, c in entry.witness.terms.items()})
    return report


def test_check_lemma55_matches_the_reference_on_failing_laws():
    _check_failing_laws(QQ)


def test_check_lemma55_matches_the_reference_on_failing_laws_over_gf421():
    """Each law is summed from int representatives and made canonical once,
    so every witness coefficient is a residue 0 < c < p."""
    field = GF(421)
    report = _check_failing_laws(field)
    coeffs = [c for e in report.failures() for c in e.witness.terms.values()]
    assert coeffs and all(type(c) is int and 0 < c < field.p for c in coeffs)


@pytest.mark.parametrize("field", [QQ, GF(421)], ids=["q", "gf421"])
def test_permuting_the_sample_words_permutes_the_entries(field):
    """Each (check, subject) keeps its status and witness terms when the
    sample words are permuted, though the pairs that build the shared
    parts of the Lie and product laws change with the order.  Run on the
    failing x2y3 case, so that witnesses are compared too."""
    te = _failing_x2y3(field)

    def entries(words):
        report = check_lemma55(te, sample_words=words)
        out = {(e.check, e.subject): (e.passed, e.witness and e.witness.terms)
               for e in report.entries}
        assert len(out) == len(report.entries)
        return out

    words = [(), ("x",), ("y",)]
    expected = entries(words)
    assert len(expected) == 4 * 3 ** 6 and not all(v[0] for v in expected.values())
    for order in ((2, 0, 1), (1, 2, 0)):
        assert entries([words[n] for n in order]) == expected


def test_check_lemma55_makes_one_outer_product_per_needed_term_pair(case, monkeypatch):
    """Outer products of one check, closed form, counted where they are
    formed: one per pair of index triples in each part that `add_products`
    sums, and one per `add_outer` call, of which there are none.  With X_i
    xi patterns and A_i alpha3 patterns for sample triple i, a check makes
    16 per ordered pair for the images of t_i t_j and {t_i, t_j} (one part
    per slot pattern of a map, times the three bracketed slots for the
    bracket: 3 + 1 for the product, 9 + 3 for the bracket), 2 X_i A_j for
    the bracket law and A_i A_j for the multiplicative law per ordered
    pair, and, per unordered pair i < j, 2 X_i X_j for the Lie law and
    A_i X_j + A_j X_i for the product law, plus 2 A_i X_i on the diagonal
    for the product law.  A check reads only tables that it fills itself,
    so a second check on the same triple envelope makes as many."""
    p, env, _, _ = case
    pres = p.presentation
    elems = [pres.one()] + [pres.atom_element(a) for a in pres.atoms]
    nonzero = [[bool(env.alpha_of(e).terms) for e in elems],
               [bool(env.beta_of(e).terms) for e in elems]]

    def count(name, combo):
        return sum(all(nonzero[m][l] for m, l in zip(pattern, combo))
                   for pattern in SLOT_PATTERNS[name])

    combos = list(itertools.product(range(len(elems)), repeat=3))
    xs = [count("xi", combo) for combo in combos]
    a3s = [count("alpha3", combo) for combo in combos]
    sx, sa = sum(xs), sum(a3s)
    expected = (16 * len(combos) ** 2 + 2 * sx * sa + sa ** 2
                + sx ** 2 - sum(x * x for x in xs) + sa * sx + sum(a * x for a, x in zip(a3s, xs)))
    calls = collections.Counter()
    add_outer, add_products = envelope_module.add_outer, envelope_module.add_products

    def counted_outer(*args):
        calls["add_outer"] += 1
        add_outer(*args)

    def counted_products(out, one, *parts):
        calls["outer"] += sum(len(left) * len(right) for _, _, left, right in parts)
        add_products(out, one, *parts)

    monkeypatch.setattr(envelope_module, "add_outer", counted_outer)
    monkeypatch.setattr(poisson_module, "add_outer", counted_outer)
    monkeypatch.setattr(envelope_module, "add_products", counted_products)
    te = TripleEnvelope(env)
    for _ in range(2):
        check_lemma55(te)
        assert calls == {"outer": expected}
        calls.clear()
    if pres.name == "kxy":
        assert expected == 19_611


@pytest.mark.parametrize("field", [QQ, GF(421)], ids=["q", "gf421"])
def test_check_lemma55_builds_a_tensor_for_each_failing_law_only(field, monkeypatch):
    """`TripleEnvelope.tensor` wraps the summed map of a failing law into
    its witness, once, and is never called for a passing law."""
    te = _failing_x2y3(field)
    built = []
    tensor = TripleEnvelope.tensor

    def counted(self, terms):
        built.append(tensor(self, terms))
        return built[-1]

    monkeypatch.setattr(TripleEnvelope, "tensor", counted)
    report = check_lemma55(te)
    failures = report.failures()
    assert failures and len(failures) < len(report.entries)
    assert len(built) == len(failures)
    assert all(entry.witness is witness for entry, witness in zip(failures, built))


def test_check_lemma55_rejects_a_repeated_sample_word(case):
    """A repeated sample word would repeat every law on it."""
    p, _, te, _ = case
    a = p.presentation.atoms[0]
    with pytest.raises(InputError, match=r"^sample_words\[2\]: repeats sample word \[1\]$"):
        check_lemma55(te, sample_words=[(), (a,), [a]])


def test_check_lemma55_rejects_two_sample_words_with_one_normal_form(case):
    """Two different words with one normal form would repeat every law on
    equal tensors: ab and ba in a commutative algebra, c^2 and 1 in k[Z/2]."""
    p, _, te, _ = case
    atoms = p.presentation.atoms
    words = [atoms[:2], atoms[1::-1]] if len(atoms) > 1 else [[], atoms * 2]
    message = (f"sample_words[1]: {word_str(words[1])} has the normal form of "
               f"sample word [0], {word_str(words[0])}")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        check_lemma55(te, sample_words=words)


def test_check_lemma55_rejects_an_empty_sample_word_list(case):
    """No sample words would give a check with no laws at all."""
    _, _, te, _ = case
    with pytest.raises(InputError, match=r"^sample_words: no sample words, so every law "
                                         r"would be vacuous$"):
        check_lemma55(te, sample_words=[])


@pytest.mark.parametrize("word", [("x", "x", "x"), ("y", "x", "y")])
def test_check_lemma55_rejects_a_sample_word_of_normal_form_zero(word):
    """Every law on a word that reduces to zero compares zero tensors."""
    _, p = make_kxy(QQ)
    te = TripleEnvelope(build_envelope(p, cap=4))
    message = (f"sample_words[1]: {word_str(word)} has normal form zero, so every law on "
               f"it would be vacuous")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        check_lemma55(te, sample_words=[("x",), word])


def test_default_sample_words_skip_a_generator_of_normal_form_zero():
    """In k[x, y]/(y, x^2) the generator y is zero, so the default sample
    words are 1 and x: 8 triples, 64 pairs, 4 laws each."""
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("x"), GeneratorSymbol("y")],
                               [(("y",), {}), (("x", "x"), {})], commutative=True)
    report = check_lemma55(TripleEnvelope(build_envelope(PoissonStructure(pres, {}), cap=4)))
    assert len(report.entries) == 256 and not report.failures()
    assert not any("y" in e.subject for e in report.entries)


def test_default_sample_words_keep_one_word_per_normal_form():
    """In k[x, y]/(y - x, x^2) the generator y reduces to x, so the default
    sample words are 1 and x: 8 triples, 64 pairs, 4 laws each."""
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("x"), GeneratorSymbol("y")],
                               [(("y",), {("x",): 1}), (("x", "x"), {})], commutative=True)
    report = check_lemma55(TripleEnvelope(build_envelope(PoissonStructure(pres, {}), cap=4)))
    assert len(report.entries) == 256 and not report.failures()


def _caller():
    """The name of the function that called the caller, past any
    comprehension frame in between."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def test_check_lemma55_sums_each_law_in_one_map(case, monkeypatch):
    """No law forms a tensor product, sum or difference, no pair takes a
    triple bracket, and no tensor is built through `TensorElement.__init__`:
    every law is summed from table entries straight into one term map, and
    `TripleEnvelope.tensor` wraps it when the law fails."""
    _, _, te, _ = case
    calls = collections.Counter()
    init = TensorElement.__init__

    def counted_init(self, *args, **kwargs):
        calls["__init__ from " + sys._getframe(1).f_code.co_name] += 1
        init(self, *args, **kwargs)

    def forbidden(name):
        def call(*args):
            calls[name] += 1
            return NotImplemented
        return call

    monkeypatch.setattr(TensorElement, "__init__", counted_init)
    for name in ("__mul__", "__add__", "__sub__"):
        monkeypatch.setattr(TensorElement, name, forbidden(name))
    monkeypatch.setattr(poisson_module, "triple_bracket", forbidden("triple_bracket"))
    check_lemma55(te)
    assert calls == {}


def test_check_lemma55_forms_five_tensor_products_per_pair(case, monkeypatch):
    """The products x_i x_j, x_j x_i, x_i a_j, a_j x_i, a_i x_j and a_i a_j
    of each pair, and t_i t_j and {t_i, t_j}, are read from tables that
    the check fills once: with K sample words, (2K)^2 products of the slot
    images in U, K^2 products and K^2 brackets of the sample elements, and
    no other product or bracket is taken by the check itself."""
    p, _, te, _ = case
    k = len(p.presentation.atoms) + 1
    calls = collections.Counter()
    multiply, bracket = AlgebraPresentation.multiply_terms, PoissonStructure.bracket_terms

    def counted(name, method):
        def call(self, a, b):
            calls[name, _caller()] += 1
            return method(self, a, b)
        return call

    monkeypatch.setattr(AlgebraPresentation, "multiply_terms", counted("multiply", multiply))
    monkeypatch.setattr(PoissonStructure, "bracket_terms", counted("bracket", bracket))
    report = check_lemma55(te)
    assert len(report.entries) == 4 * k ** 6
    assert {key: n for key, n in calls.items() if key[1] == "check_lemma55"} == {
        ("multiply", "check_lemma55"): (2 * k) ** 2 + k ** 2,
        ("bracket", "check_lemma55"): k ** 2}


def _xy_bracket(pres, coeff):
    """{x, y} = coeff * xy on `pres`."""
    return PoissonStructure(pres, {("x", "y"): pres.element({("x", "y"): pres.field.parse(coeff)})})


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["q", "gf101"])
def test_check_lemma55_matches_the_reference_on_multi_term_sample_elements(field):
    """In k[x, y, z]/(z - x - y, x^2, y^2) with {x, y} = (3/5) xy the sample
    word z has the two-term normal form x + y.  Every entry, witness terms
    included, is the reference's: first with every law passing, then read
    against the bracket changed to 7 xy, where 40 laws fail."""
    pres = AlgebraPresentation(field, [GeneratorSymbol(g) for g in "xyz"],
                               [(("z",), {("x",): 1, ("y",): 1}), (("x", "x"), {}),
                                (("y", "y"), {})], commutative=True, cap=6)
    env = build_envelope(_xy_bracket(pres, "3/5"), cap=4)
    for words, bracket, size, failed in (([(), ("z",), ("x", "z")], "3/5", 2916, 0),
                                         ([("z",), ("y",)], "7", 256, 40)):
        env.source = _xy_bracket(pres, bracket)
        te = TripleEnvelope(env)
        report = check_lemma55(te, sample_words=words)
        entries = [(e.check, e.anchor, e.subject, e.passed, e.witness and e.witness.terms)
                   for e in report.entries]
        assert (len(entries), len(report.failures())) == (size, failed)
        assert entries == reference_check_lemma55(te, words)
