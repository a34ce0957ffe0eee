"""Property tests of the sparse-accumulate kernels, word reduction,
critical pairs and completion on generated rewrite systems, the term-map
arithmetic of elements and tensors, the tensor-product kernel, and the
vanishing-law report entry against plain dict arithmetic or the references
in oracles.py, over Q and GF(5)."""

import itertools
import math
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgalois import (
    GF,
    MU_SIGNATURE,
    QQ,
    AlgebraPresentation,
    CheckEntry,
    ConfluenceError,
    DegreeCapError,
    Element,
    GeneratorSymbol,
    InputError,
    VerificationReport,
)
from hgalois import presentations
from hgalois.examples import builtin_job
from hgalois.jobs import Job
from hgalois.presentations import axpy, linear_terms
from hgalois.tensors import OP, PLAIN, TensorElement, add_outer

from conftest import resolved_keys
from oracles import (
    naive_reduce_terms,
    reference_complete_rules,
    reference_reduce_terms,
    reference_tensor_mul,
    reference_unresolved_critical_pairs,
)

# deterministic, and no example database
SETTINGS = settings(derandomize=True, database=None, max_examples=150)

FIELDS = {"Q": QQ, "GF5": GF(5)}
KEYS = st.sampled_from([(), ("a",), ("b",), ("a", "b"), ("b", "a")])


@st.composite
def field_and_values(draw):
    """A field and a coefficient strategy over it with small values, so that
    sums cancel often; the field's shared one is among them.  Over Q the
    values mix plain ints, proper fractions and integral fractions that
    were never demoted to ints (such as `Fraction(1, 2) * 2`)."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    if field is QQ:
        value = st.one_of(
            st.builds(lambda n, d: QQ.parse(f"{n}/{d}"),
                      st.integers(-2, 2), st.sampled_from([1, 2])),
            st.builds(lambda n: Fraction(n, 2) * 2, st.integers(-2, 2)))
    else:
        value = st.builds(field.of_int, st.integers(0, 4))
    return field, st.one_of(value, st.just(field.one))


def term_maps(values, keys=KEYS):
    """Sparse term maps: no zero coefficient stored."""
    return st.dictionaries(keys, values, max_size=5).map(
        lambda d: {k: c for k, c in d.items() if c})


def residues(field, terms):
    """The nonzero terms of a term map, each coefficient taken modulo the
    characteristic p of a prime field: over GF(p) the kernels combine int
    representatives, and only their callers reduce the results."""
    p = field.characteristic
    return {k: r for k, c in terms.items() if (r := c % p if p else c)}


def naive_add(field, *scaled):
    """sum of c * m over (c, m) pairs, by dense dict arithmetic."""
    out = {}
    for scale, terms in scaled:
        for k, c in terms.items():
            out[k] = out.get(k, field.zero) + c * scale
    return residues(field, out)


@SETTINGS
@given(st.data())
def test_axpy_matches_naive(data):
    field, values = data.draw(field_and_values())
    dst, src = data.draw(term_maps(values)), data.draw(term_maps(values))
    scale = data.draw(values | st.just(field.zero) | st.just(-field.one))
    expected = naive_add(field, (field.one, dst), (scale, src))
    axpy(dst, src, scale)
    assert residues(field, dst) == expected
    assert all(dst.values())


@SETTINGS
@given(st.data())
def test_axpy_cancels_exactly(data):
    field, values = data.draw(field_and_values())
    terms = data.draw(term_maps(values))
    dst = dict(terms)
    axpy(dst, terms, -field.one)
    assert dst == {}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_missing_keys_take_the_added_coefficient(name):
    """A key the destination lacks takes the added coefficient (negated for
    a difference), and a zero one is not stored."""
    field = FIELDS[name]
    two, zero = field.of_int(2), field.zero
    empty, added = Element(PRES[field], {}), Element(PRES[field], {("a",): two, ("b",): zero})
    assert (empty + added).terms == {("a",): two}
    assert (empty - added).terms == {("a",): field.of_int(-2)}
    dst = {}
    axpy(dst, {("a",): two, ("b",): two}, zero)
    axpy(dst, {("a",): two, ("b",): zero}, two)
    assert dst == {("a",): two * two}
    terms = {}
    add_outer(terms, [{("a",): two, ("b",): zero}], two, field)
    assert terms == {(("a",),): two * two}


def single_term_slots(values):
    """A slot that is one word, with the field's shared one or another
    coefficient (no word when the drawn coefficient is zero)."""
    return st.builds(lambda k, c: {k: c} if c else {}, KEYS, values)


def naive_outer(field, slots) -> dict:
    """s_1 ⊗ ... ⊗ s_k by `itertools.product`."""
    outer = {}
    for combo in itertools.product(*(s.items() for s in slots)):
        c = field.one
        for _, f in combo:
            c = c * f
        key = tuple(k for k, _ in combo)
        outer[key] = outer.get(key, field.zero) + c
    return outer


@SETTINGS
@given(st.data())
def test_add_outer_matches_naive(data):
    """Ranks 0 to 3; about half the slots are single-term, so they fall
    before, between and after multi-term and empty slots."""
    field, values = data.draw(field_and_values())
    rank = data.draw(st.integers(0, 3))
    slots = [data.draw(single_term_slots(values) | term_maps(values)) for _ in range(rank)]
    terms = data.draw(term_maps(values, st.tuples(*[KEYS] * rank)))
    coeff = data.draw(values | st.just(field.zero))
    expected = naive_add(field, (field.one, terms), (coeff, naive_outer(field, slots)))
    add_outer(terms, slots, coeff, field)
    assert residues(field, terms) == expected
    assert all(terms.values())


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_add_outer_single_term_slots_in_every_position(name):
    """Every arrangement of up to three slots of four kinds: one word with
    the field's shared one, one word with another coefficient, two words,
    and no word; added into an empty map and into the map it cancels."""
    field = FIELDS[name]
    one, two, three = field.one, field.of_int(2), field.of_int(3)
    kinds = [{("a",): one}, {("b",): two}, {("a",): three, ("a", "b"): one}, {}]
    for rank in range(4):
        for slots in itertools.product(kinds, repeat=rank):
            for coeff in (one, three):
                expected = naive_add(field, (coeff, naive_outer(field, slots)))
                terms = {}
                add_outer(terms, slots, coeff, field)
                assert residues(field, terms) == expected
                add_outer(terms, slots, -coeff, field)
                assert terms == {}


@SETTINGS
@given(st.data())
def test_add_outer_cancels_exactly(data):
    field, values = data.draw(field_and_values())
    slots = [data.draw(term_maps(values)) for _ in range(2)]
    coeff = data.draw(values)
    terms = {}
    add_outer(terms, slots, coeff, field)
    add_outer(terms, slots, -coeff, field)
    assert terms == {}


# generated rewrite systems: 2-3 atoms, rules whose left-hand sides have
# 1-3 atoms and whose right-hand sides are smaller in deg-lex order, cap 6
SYSTEM_CAP = 6


def _words(atoms, max_len):
    return [w for n in range(max_len + 1) for w in itertools.product(atoms, repeat=n)]


@st.composite
def rewrite_systems(draw, values):
    """(atoms, rules): each rule (lhs, rhs) with rhs a term map of words
    strictly below lhs in the deg-lex order of the atoms as listed."""
    atoms = "abc"[:draw(st.integers(2, 3))]
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        lhs = draw(st.sampled_from(_words(atoms, 3)[1:]))
        key = (len(lhs), tuple(atoms.index(a) for a in lhs))
        below = [w for w in _words(atoms, len(lhs))
                 if (len(w), tuple(atoms.index(a) for a in w)) < key]
        rhs = draw(st.dictionaries(st.sampled_from(below), values, max_size=2))
        rules.append((lhs, {w: c for w, c in rhs.items() if c}))
    return atoms, rules


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.data())
def test_reduce_terms_matches_the_references_on_generated_systems(data):
    """`reduce_terms`, with its memo filled by earlier calls, against
    `reference_reduce_terms` (the package's leftmost-redex strategy, its own
    memo) on every drawn system, and against `naive_word_reduce` (another
    strategy) on the locally confluent ones, where normal forms are unique
    (every overlap has at most 5 atoms, within the cap)."""
    field, values = data.draw(field_and_values())
    atoms, rules = data.draw(rewrite_systems(values))
    pres = AlgebraPresentation(field, [GeneratorSymbol(a) for a in atoms], rules,
                               cap=SYSTEM_CAP, check=False)
    confluent = not pres.unresolved_critical_pairs()
    memo = {}
    for terms in data.draw(st.lists(term_maps(values, st.sampled_from(_words(atoms, SYSTEM_CAP))),
                                    min_size=1, max_size=3)):
        got = pres.reduce_terms(terms)
        assert got == reference_reduce_terms(pres, terms, memo)
        assert all(type(c) is int and 0 < c < field.characteristic for c in got.values()) \
            if field.characteristic else all(got.values())
        if confluent:
            assert got == naive_reduce_terms(pres, terms)


def _completed(make, complete):
    """(rules, number added or the type of the error raised) after running
    `complete` on a fresh presentation from `make`."""
    pres = make()
    try:
        outcome = complete(pres)
    except (ConfluenceError, InputError) as exc:
        outcome = type(exc)
    return [(r.lhs, r.rhs_terms) for r in pres.rules], outcome


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.data())
def test_completion_matches_the_references_on_generated_systems(data):
    """`unresolved_critical_pairs` and `complete_rules` against the
    full-scan references on every drawn system: the same pairs in the same
    order, and the same rules added, or the same error (`ConfluenceError`
    over budget, `InputError` when the system collapses to zero)."""
    field, values = data.draw(field_and_values())
    atoms, rules = data.draw(rewrite_systems(values))

    def make():
        return AlgebraPresentation(field, [GeneratorSymbol(a) for a in atoms], rules,
                                   cap=SYSTEM_CAP, check=False)

    pres = make()
    assert pres.unresolved_critical_pairs() == reference_unresolved_critical_pairs(pres)
    assert _completed(make, lambda p: p.complete_rules()) == \
        _completed(make, reference_complete_rules)


def exhaustive_rows(pres):
    """The overlap rows as a scan of every rule pair gives them: row r1 holds
    `_overlaps(r1, r2, cap)` for r2 in rule order."""
    return [[o for r2 in pres.rules for o in presentations._overlaps(r1, r2, pres.cap)]
            for r1 in pres.rules]


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.data())
def test_indexed_overlap_rows_match_the_exhaustive_rows_on_generated_systems(data):
    """The rows that the lhs indexes build, after construction and after
    completion (or its error), against every rule pair in product order."""
    field, values = data.draw(field_and_values())
    atoms, rules = data.draw(rewrite_systems(values))
    pres = AlgebraPresentation(field, [GeneratorSymbol(a) for a in atoms], rules,
                               cap=SYSTEM_CAP, check=False)
    assert pres._overlaps == exhaustive_rows(pres)
    try:
        pres.complete_rules()
    except (ConfluenceError, InputError):
        pass
    assert pres._overlaps == exhaustive_rows(pres)


def test_envelope_rows_come_only_from_overlapping_pairs(monkeypatch):
    """Building the kxy_truncated envelope calls `_overlaps` only on rule
    pairs that overlap, though perhaps only past the cap, and its rows are
    the exhaustive ones."""
    found = []
    overlaps = presentations._overlaps

    def counted(r1, r2, cap):
        found.append(len(overlaps(r1, r2, math.inf)))
        return overlaps(r1, r2, cap)

    with monkeypatch.context() as m:
        m.setattr(presentations, "_overlaps", counted)
        pres = Job(builtin_job("kxy_truncated")).envelope().presentation
    assert found and min(found) > 0
    assert pres._overlaps == exhaustive_rows(pres)


class _Watched(AlgebraPresentation):
    """A presentation that, once `watch` is set, checks what survives each
    rule that `complete_rules` adds against a fresh reduction under the
    current rules (`reference_reduce_terms`, the package's strategy, with an
    empty memo): every memo entry and, through `check_resolved`, every pair
    that the worklist carries as resolved.  Mid-completion the rules are not
    confluent, so the reference must follow the package's choice of redex."""

    watch = False
    rules_checked = 0
    pairs_checked = 0

    def _fresh(self, memo):
        return lambda terms: reference_reduce_terms(self, terms, memo)

    def _add_rule(self, lhs, rhs_terms):
        added = super()._add_rule(lhs, rhs_terms)
        if self.watch:
            fresh = self._fresh({})
            for word, nf in self._nf_cache.items():
                assert nf == fresh({word: self.field.one}), word
            self.rules_checked += 1
        return added

    def check_resolved(self, resolved):
        fresh = self._fresh({})

        def one_step(word, pos, rule):
            head, tail = word[:pos], word[pos + len(rule.lhs):]
            return {head + rw + tail: rc for rw, rc in rule.rhs_terms.items()}

        for i, j in resolved:
            word, pos2, r2 = self._overlaps[i][j]
            assert fresh(one_step(word, 0, self.rules[i])) == \
                fresh(one_step(word, pos2, r2)), word
            self.pairs_checked += 1


def test_a_new_rule_keeps_only_what_a_fresh_reduction_gives():
    """`_add_rule` drops exactly the memo words that contain the new lhs
    and their ancestors, and the worklist of `complete_rules` keeps a
    resolved pair while the words of its reducts keep their entries;
    nothing it keeps may differ from a fresh reduction.  Some drawn system
    must carry a resolved pair past an added rule, or the pair check would
    not have run."""
    carried = []
    reopen = presentations._Worklist.reopen

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(st.data())
    def run(data):
        field, values = data.draw(field_and_values())
        atoms, rules = data.draw(rewrite_systems(values))
        pres = _Watched(field, [GeneratorSymbol(a) for a in atoms], rules,
                        cap=SYSTEM_CAP, check=False)
        pres.watch = True

        def checked(work, opened, dropped):
            reopen(work, opened, dropped)
            pres.check_resolved(resolved_keys(work))

        try:
            with mock.patch.object(presentations._Worklist, "reopen", checked):
                added = pres.complete_rules()
        except (ConfluenceError, InputError):
            return
        finally:
            carried.append(pres.pairs_checked)
        assert pres.rules_checked == added

    run()
    assert sum(carried) > 0


# the quantum plane ba = 2ab cut by a^3 = 0 and b^3 = 0 (confluent), with a
# cap that two drawn operand words of 3 atoms each overrun by one
PRODUCT_CAP = 5
SLOT_WORDS = st.lists(st.sampled_from("ab"), max_size=3).map(tuple)
PRODUCT_PRES = {
    field: AlgebraPresentation(
        field, [GeneratorSymbol("a"), GeneratorSymbol("b")],
        [(("b", "a"), {("a", "b"): field.of_int(2)}), (("a",) * 3, {}), (("b",) * 3, {})],
        cap=PRODUCT_CAP)
    for field in FIELDS.values()}


@st.composite
def product_operands(draw, values, keys, signature):
    """Two nonempty term maps; optionally a pair of terms of the first and
    second whose product word is split at other points into one more pair
    with the negated coefficient, so that the two pairs cancel."""
    s, t = (draw(st.dictionaries(keys, values, min_size=1, max_size=4)
                 .map(lambda d: {k: c for k, c in d.items() if c})) for _ in range(2))
    if s and t and draw(st.booleans()):
        (ks, cs), (kt, ct) = draw(st.sampled_from(sorted(s.items()))), \
            draw(st.sampled_from(sorted(t.items())))
        left, right = [], []
        for u, v, op in zip(ks, kt, signature):
            word = v + u if op else u + v
            cut = draw(st.integers(max(0, len(word) - 3), min(3, len(word))))
            head, tail = word[:cut], word[cut:]
            left.append(tail if op else head)
            right.append(head if op else tail)
        s[tuple(left)], t[tuple(right)] = cs, -ct
    return s, t


@SETTINGS
@given(st.data())
def test_tensor_product_matches_reference(data):
    """Multi-term tensors of rank 1-3 with op slots, over slot words whose
    concatenations coincide (and whose sums often cancel) and reach the cap
    or overrun it: the product is the reference's, and it raises
    `DegreeCapError` exactly when the reference does, on the same word."""
    field, values = data.draw(field_and_values())
    pres = PRODUCT_PRES[field]
    rank = data.draw(st.integers(1, 3))
    signature = tuple(data.draw(st.lists(st.sampled_from([PLAIN, OP]),
                                         min_size=rank, max_size=rank)))
    s, t = (TensorElement((pres,) * rank, signature, terms, field, normalize=False)
            for terms in data.draw(product_operands(values, st.tuples(*[SLOT_WORDS] * rank),
                                                    signature)))
    try:
        expected = reference_tensor_mul(s, t)
    except DegreeCapError as exc:
        with pytest.raises(DegreeCapError) as fast:
            s * t
        assert (fast.value.operation, fast.value.word_length, fast.value.cap) == \
            (exc.operation, exc.word_length, exc.cap)
        assert exc.operation == "normal_form" and exc.word_length > exc.cap == PRODUCT_CAP
    else:
        product = s * t
        assert product.terms == expected and all(product.terms.values())
        assert (product.factors, product.signature, product.field) == \
            (s.factors, signature, field)


def test_tensor_product_cancels_coinciding_pairs():
    """a * bb and ab * b give the same word with opposite coefficients and
    cancel; ab * bb reduces to 0 by b^3 = 0; -a * b is what is left."""
    pres = PRODUCT_PRES[QQ]
    one = QQ.one
    s = TensorElement((pres,), (PLAIN,), {(("a",),): one, (("a", "b"),): one},
                      QQ, normalize=False)
    t = TensorElement((pres,), (PLAIN,), {(("b", "b"),): one, (("b",),): -one},
                      QQ, normalize=False)
    assert (s * t).terms == reference_tensor_mul(s, t) == {(("a", "b"),): -one}


PRES = {field: AlgebraPresentation(field, [GeneratorSymbol("a"), GeneratorSymbol("b")])
        for field in FIELDS.values()}


@SETTINGS
@given(st.data(), st.booleans())
def test_add_vanishing_passes_iff_difference_is_zero(data, as_tensor):
    field, values = data.draw(field_and_values())
    pres = PRES[field]
    if as_tensor:
        diff = TensorElement((pres, pres), (PLAIN, PLAIN),
                             data.draw(term_maps(values, st.tuples(KEYS, KEYS))), field,
                             normalize=False)
    else:
        diff = Element(pres, data.draw(term_maps(values)))
    report = VerificationReport()
    report.add_vanishing("law", "anchor", "subject", diff)
    (entry,) = report.entries
    assert entry.passed == (not diff.terms) == report.passed
    if diff.terms:
        assert entry.witness is diff
    else:
        assert entry.witness is None
    # an entry made directly keeps the same rule: a zero witness is a pass
    assert CheckEntry("law", "anchor", "subject", diff).witness is entry.witness


@SETTINGS
@given(st.data())
def test_linear_terms_matches_naive(data):
    field, values = data.draw(field_and_values())
    terms = data.draw(term_maps(values))
    images = {k: data.draw(term_maps(values)) for k in terms}
    out = linear_terms(terms, images.__getitem__)
    assert residues(field, out) == naive_add(field, *((c, images[k]) for k, c in terms.items()))
    assert all(out.values())


def _term_map_kind(pres, field, as_tensor):
    """(key strategy, constructor) of an element of pres, or of a rank-2
    tensor over (pres, pres)."""
    if as_tensor:
        return st.tuples(KEYS, KEYS), lambda terms: TensorElement(
            (pres, pres), (PLAIN, PLAIN), terms, field, normalize=False)
    return KEYS, lambda terms: Element(pres, terms)


@SETTINGS
@given(st.data(), st.booleans())
def test_term_map_arithmetic_matches_naive(data, as_tensor):
    field, values = data.draw(field_and_values())
    keys, make = _term_map_kind(PRES[field], field, as_tensor)
    a, b = data.draw(term_maps(values, keys)), data.draw(term_maps(values, keys))
    scalar = data.draw(values | st.just(field.zero))
    x, y = make(dict(a)), make(dict(b))
    one = field.one
    results = {
        "+": (x + y, naive_add(field, (one, a), (one, b))),
        "-": (x - y, naive_add(field, (one, a), (-one, b))),
        "neg": (-x, naive_add(field, (-one, a))),
        "scale": (x.scale(scalar), naive_add(field, (scalar, a))),
        "rmul": (scalar * x, naive_add(field, (scalar, a))),
        "mul": (x * scalar, naive_add(field, (scalar, a))),
    }
    for name, (result, expected) in results.items():
        assert type(result) is type(x), name
        assert result.terms == expected and all(result.terms.values()), name
        assert result == make(expected), name  # the same parent
    assert bool(x) == bool(a) == (not x.is_zero())
    assert (x == y) == (a == b) and (x != y) == (a != b)
    assert (x.terms, y.terms) == (a, b)  # the operands are unchanged


@SETTINGS
@given(st.data(), st.sampled_from([operator.add, operator.sub]), st.booleans())
def test_sum_and_difference_match_naive(data, op, as_tensor):
    """`+` and `-` of elements and of tensors, the one `axpy` kernel behind
    both: the naive sum or difference with no zero stored, both operands
    unchanged, and x - x is zero."""
    field, values = data.draw(field_and_values())
    keys, make = _term_map_kind(PRES[field], field, as_tensor)
    a, b = data.draw(term_maps(values, keys)), data.draw(term_maps(values, keys))
    x, y = make(dict(a)), make(dict(b))
    sign = field.one if op is operator.add else -field.one
    out = op(x, y)
    assert out.terms == naive_add(field, (field.one, a), (sign, b))
    assert all(out.terms.values())
    assert (x.terms, y.terms) == (a, b)  # a copy, not in place
    assert (x - x).terms == {}


def test_term_maps_keep_their_parents_messages_and_hashing():
    p = PRES[QQ]
    q = AlgebraPresentation(QQ, [GeneratorSymbol("a"), GeneratorSymbol("b")])
    one = QQ.one
    e = Element(p, {("a",): one})
    assert e != Element(q, {("a",): one})
    with pytest.raises(InputError, match="^elements belong to different presentations$"):
        e + Element(q, {("a",): one})
    assert hash(e) == hash(Element(p, {("a",): one}))

    t = TensorElement((p, p), (PLAIN, PLAIN), {(("a",), ()): one}, QQ, normalize=False)
    others = [
        ((p, q), (PLAIN, PLAIN), "tensor factors over different presentations"),
        ((p,), (PLAIN,), "tensor factors over different presentations"),
        ((p, p), (PLAIN, OP), "tensor signature mismatch"),
    ]
    for factors, signature, message in others:
        other = TensorElement(factors, signature, {}, QQ, normalize=False)
        assert t != other
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(InputError, match=f"^{message}$"):
                op(t, other)
    with pytest.raises(TypeError):
        hash(t)
    assert e != t and t != e
    with pytest.raises(TypeError):
        e + t


def test_tensor_repr_of_rank_three_and_rank_zero():
    pres = AlgebraPresentation(QQ, [GeneratorSymbol("g", invertible=True), GeneratorSymbol("x")])
    t = TensorElement((pres,) * 3, MU_SIGNATURE, {
        (("x",), (), ("g",)): QQ.parse("3/2"),
        (("g^-1", "g^-1"), ("x",), ()): -QQ.one,
        ((), ("g", "x"), ("x", "x")): QQ.parse("-1/4"),
    })
    assert repr(t) == "(-1/4)·1 ⊗ g*x ⊗ x^2 + (3/2)·x ⊗ 1 ⊗ g + (-1)·g^-2 ⊗ x ⊗ 1"
    assert repr(t - t) == "0"
    assert repr(TensorElement.scalar_value(QQ, QQ.parse("-2/3"))) == "(-2/3)·1"
    assert repr(TensorElement.scalar_value(GF(5), GF(5).of_int(3))) == "(3 (mod 5))·1"
    assert repr(TensorElement.scalar_value(QQ, QQ.zero)) == "0"
