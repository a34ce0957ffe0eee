"""The hashed redex lookup against the linear scan, incremental completion
against the full-rescan reference, its budget, and the lifetime of
presentations and their rules."""

import gc
import random
import weakref

import pytest

from hgalois import (
    GF,
    QQ,
    AlgebraPresentation,
    ConfluenceError,
    GeneratorSymbol,
    InputError,
    PoissonStructure,
    RewriteRule,
    build_envelope,
    word_str,
)
from hgalois import presentations
from hgalois.cli import run_commands
from hgalois.examples import BUILTINS, builtin_job
from hgalois.jobs import Job
from conftest import log_canonical_x2y3, make_kxy, resolved_keys, with_rules

from oracles import (
    naive_word_reduce,
    reference_complete_rules,
    reference_find_redex,
    reference_unresolved_critical_pairs,
    rule_data,
)

ONE = QQ.one


class _Seed(Exception):
    pass


def envelope_seed(p, cap, monkeypatch):
    """The envelope presentation of `p` as `build_envelope` seeds it, before
    completion."""
    def stop(pres, **_):
        raise _Seed(pres)

    with monkeypatch.context() as m:
        m.setattr(AlgebraPresentation, "complete_rules", stop)
        with pytest.raises(_Seed) as exc:
            build_envelope(p, cap=cap)
    return exc.value.args[0]


def braid_like():
    """bab = aba, b^2 = a^2 in the free algebra on a < b: four rules short."""
    return with_rules(
        AlgebraPresentation(QQ, [GeneratorSymbol("a"), GeneratorSymbol("b")], cap=8, name="braid"),
        [(("b", "a", "b"), {("a", "b", "a"): ONE}), (("b", "b"), {("a", "a"): ONE})])


def containment():
    """b lies strictly inside cba; the only critical pair is that containment."""
    return with_rules(
        AlgebraPresentation(QQ, [GeneratorSymbol(g) for g in "abc"], cap=8, name="containment"),
        [(("c", "b", "a"), {("a",): ONE}), (("b",), {("a",): ONE})])


def rescan():
    """a^2 b = 2ab, b^2 = 2a, ba = -b - a^2 on a < b: the overlap a^2 b^2
    resolves in the second round and fails in the third, once the shorter
    rule ab = -b - a^2 has been added."""
    return with_rules(
        AlgebraPresentation(QQ, [GeneratorSymbol("a"), GeneratorSymbol("b")], cap=7, name="rescan"),
        [(("a", "a", "b"), {("a", "b"): 2}),
         (("b", "b"), {("a",): 2}),
         (("b", "a"), {("b",): -1, ("a", "a"): -1})])


SEEDS = {
    "kxy_q": lambda mp: envelope_seed(make_kxy(QQ)[1], 4, mp),
    "kxy_gf421": lambda mp: envelope_seed(make_kxy(GF(421))[1], 4, mp),
    "log_canonical_x2y3": lambda mp: envelope_seed(log_canonical_x2y3(QQ), 6, mp),
    "braid_like": lambda mp: braid_like(),
    "containment": lambda mp: containment(),
    "rescan": lambda mp: rescan(),
}


def rule_list(pres):
    return [(r.lhs, r.rhs_terms) for r in pres.rules]


@pytest.mark.parametrize("seed", SEEDS)
def test_completion_matches_full_rescan(seed, monkeypatch):
    expected, actual = SEEDS[seed](monkeypatch), SEEDS[seed](monkeypatch)
    assert rule_list(expected) == rule_list(actual)
    assert actual.complete_rules() == reference_complete_rules(expected) > 0
    assert rule_list(actual) == rule_list(expected)
    assert actual.unresolved_critical_pairs() == []


@pytest.mark.parametrize("seed", SEEDS)
def test_memo_left_by_completion_holds_normal_forms(seed, monkeypatch):
    """The completed system is confluent, so every word has one normal form;
    each memo entry kept across added rules must be it."""
    pres = SEEDS[seed](monkeypatch)
    pres.complete_rules()
    rules = rule_data(pres)
    assert pres._nf_cache
    for word, nf in pres._nf_cache.items():
        assert nf == naive_word_reduce(rules, word, pres.field), word_str(word)


def test_parent_lists_hold_each_parent_once():
    """A word that is dropped and recomputed is listed again above each of
    its reducts only if it is not listed there still."""
    env = Job(builtin_job("kxy_truncated")).envelope()
    parents = env.presentation._parents
    assert parents
    for word, above in parents.items():
        assert len(above) == len(set(above)), word_str(word)


def test_stale_scan_matches_atoms_not_their_names():
    """Generators a, b and ab, and the rule a*b -> ab: the memo word a*b*x
    holds the lhs and is dropped, while the one-atom word ab, whose name
    spells the lhs, stays.  The second rule ab*x -> x drops ab*x, coded at
    the first scan, and its parent a*b*x, reduced again after it.  A word
    with an atom outside the presentation stays through both scans."""
    pres = AlgebraPresentation(QQ, [GeneratorSymbol(g) for g in ("a", "b", "ab", "x")])
    memo = pres._nf_cache
    for word in (("a", "b", "x"), ("ab",), ("ab", "x")):
        pres.normal_form(word)
    pres.reduce_terms({("q",): ONE})
    pres.add_rule_data(("a", "b"), {("ab",): ONE})
    assert ("a", "b", "x") not in memo
    assert {("ab",), ("ab", "x"), ("q",)} <= memo.keys()
    assert pres.normal_form(("a", "b", "x")).terms == {("ab", "x"): ONE}
    pres.add_rule_data(("ab", "x"), {("x",): ONE})
    assert ("a", "b", "x") not in memo and ("ab", "x") not in memo
    assert pres._codes.keys() == memo.keys() >= {("ab",), ("q",)}
    assert pres.normal_form(("a", "b", "x")).terms == {("x",): ONE}


def test_resolved_pair_is_rescanned_after_a_shorter_rule(monkeypatch):
    """A pair that resolved goes back to the worklist when a rule is added
    that drops a memo word of its two one-step reducts; here it then fails.
    `test_completion_matches_full_rescan` compares this seed's rule list
    with the reference."""
    events = []  # per added rule: (the failing key, resolved before, dropped, resolved after)
    reopen = presentations._Worklist.reopen

    def spy(work, opened, dropped):
        before = resolved_keys(work)
        failing = work.pending[0]
        reopen(work, opened, dropped)
        events.append((failing, before, set(dropped), resolved_keys(work)))

    monkeypatch.setattr(presentations._Worklist, "reopen", spy)
    pres = rescan()
    pres.complete_rules()
    word, pos2, r2 = pres._overlap_rows[0][0]
    _, reducts = pres._pair_difference(word, pres.rules[0], pos2, r2)
    # a^2 b^2, the overlap of rule 0 (a^2 b) with rule 1 (b^2), has resolved
    # when the rule ab -> -b - a^2 is added; that rule drops its reduct ab^2,
    # so the pair goes back to the heap, fails there and gives the next rule
    failing, before, dropped, after = events[1]
    assert pres.rules[4].lhs == ("a", "b")
    assert (0, 0) in before and (0, 0) not in after
    assert ("a", "b", "b") in dropped and ("a", "b", "b") in reducts
    assert events[2][0] == (0, 0)


def _random_words(pres, rng, count=200):
    """Words over the atoms of `pres` up to its cap, half of them built
    around a rule's lhs so that most hold a redex."""
    top = min(pres.cap, 8)
    words = []
    for i in range(count):
        word = [rng.choice(pres.atoms) for _ in range(rng.randint(0, top))]
        if i % 2 and pres.rules:
            lhs = rng.choice(pres.rules).lhs
            pos = rng.randint(0, len(word))
            word = (word[:pos] + list(lhs) + word[pos:])[:max(top, len(lhs))]
        words.append(tuple(word))
    return words


def assert_redex_as_scan(pres, seed=0):
    rng = random.Random(seed)
    for word in _random_words(pres, rng):
        got, want = pres._find_redex(word), reference_find_redex(pres.rules, word)
        if want is None:
            assert got is None, word
        else:
            assert got[0] == want[0] and got[1] is want[1], word


def test_redex_matches_scan_on_bundled_presentations(monkeypatch):
    made = []
    init = AlgebraPresentation.__init__

    def record(pres, *args, **kwargs):
        init(pres, *args, **kwargs)
        made.append(pres)
    monkeypatch.setattr(AlgebraPresentation, "__init__", record)
    for name in BUILTINS:
        job = Job(builtin_job(name))
        run_commands(job, job.commands)
    assert len(made) >= len(BUILTINS)
    for i, pres in enumerate(made):
        assert_redex_as_scan(pres, seed=i)


@pytest.mark.parametrize("seed", SEEDS)
def test_redex_matches_scan_on_completed_seeds(seed, monkeypatch):
    pres = SEEDS[seed](monkeypatch)
    pres.complete_rules()
    assert_redex_as_scan(pres)


def test_redex_prefers_the_smaller_index_over_the_shorter_lhs():
    """cba (rule 0) and cb (rule 1) both match at 0 in cba: rule 0 wins."""
    pres = with_rules(
        AlgebraPresentation(QQ, [GeneratorSymbol(g) for g in "abc"], cap=8, name="lengths"),
        [(("c", "b", "a"), {("a",): ONE}), (("c", "b"), {("b",): ONE}), (("b", "a"), {})])
    cba, cb, ba = pres.rules
    assert pres._find_redex(("a", "c", "b", "a")) == (1, cba)
    assert pres._find_redex(("c", "b", "b")) == (0, cb)
    assert pres._find_redex(("a", "b", "a", "c", "b")) == (1, ba)
    assert_redex_as_scan(pres)


def test_redex_of_a_duplicate_lhs_is_its_first_rule():
    pres = with_rules(
        AlgebraPresentation(QQ, [GeneratorSymbol("a"), GeneratorSymbol("b")], cap=8,
                            name="duplicate"),
        [(("b", "a"), {("a",): ONE}), (("b", "a"), {("b",): ONE}), (("b", "b"), {})])
    first, _, bb = pres.rules
    assert pres._find_redex(("a", "b", "a")) == (1, first)
    assert pres._find_redex(("b", "b", "a")) == (0, bb)
    assert pres.normal_form(("b", "a")).terms == {("a",): ONE}
    assert_redex_as_scan(pres)


@pytest.mark.parametrize("seed", ["kxy_gf421", "braid_like", "containment"])
def test_unresolved_pairs_keep_the_full_scan_order(seed, monkeypatch):
    pres = SEEDS[seed](monkeypatch)
    pairs = pres.unresolved_critical_pairs()
    assert pairs
    assert pairs == reference_unresolved_critical_pairs(pres)


def test_completion_budget_is_exact():
    needed = braid_like().complete_rules()
    assert needed == 4
    assert braid_like().complete_rules(max_new_rules=needed) == needed

    pres = braid_like()
    before = len(pres.rules)
    with pytest.raises(ConfluenceError) as exc:
        pres.complete_rules(max_new_rules=2)
    assert len(pres.rules) == before + 2
    word, r1, r2, _ = pres.unresolved_critical_pairs()[0]
    assert str(exc.value).endswith(
        f"at its budget of 2 added rules; unresolved overlap: {word_str(word)} "
        f"between [{pres.rule_text(r1)}] and [{pres.rule_text(r2)}]")
    assert exc.value.word == word


def test_completion_of_a_zero_algebra_names_the_overlap():
    """ba = 1 and ab = 0 give b = bab = 0, then a = 0, then 1 = 0: completion
    stops with an input error (exit 2 on the command line) that names the
    presentation and the overlap, not with a rule of empty left-hand side."""
    a, b = GeneratorSymbol("a"), GeneratorSymbol("b")
    pres = with_rules(AlgebraPresentation(QQ, [a, b], name="zero"),
                      [(("b", "a"), {(): ONE}), (("a", "b"), {})])
    with pytest.raises(InputError) as exc:
        pres.complete_rules()
    message = str(exc.value)
    assert message.startswith("presentation zero collapses to zero: overlap b*a between [")
    assert message.endswith("gives 1 = 0")
    assert all(rule.lhs for rule in pres.rules)


def test_envelope_presentations_are_freed_without_the_cycle_collector():
    gc.disable()
    try:
        pres, p = make_kxy()
        env = build_envelope(p, cap=4)
        refs = [weakref.ref(x) for x in (pres, p, env, env.presentation)]
        rule = env.presentation.rules[-1]
        del pres, p, env
        assert [r() for r in refs] == [None] * len(refs)
        assert rule.lhs  # the rule outlives its presentation
    finally:
        gc.enable()


def test_rule_text_spells_a_rule_in_its_presentation():
    pres = braid_like()
    assert pres.rule_text(pres.rules[0]) == "b*a*b -> (1)*a*b*a"
    assert pres.rule_text(RewriteRule(("b", "b"), {("a",): 2, (): -1})) == "b^2 -> (-1) + (2)*a"


def log_canonical(field, gens, zero_monomials, qs):
    """k[gens]/(zero_monomials) with {s, t} = q st for each pair of `qs`,
    its generators in the order of `gens`: a monomial is written in that
    order, and a pair listed the other way round takes -q."""
    pres = AlgebraPresentation(field, [GeneratorSymbol(g) for g in gens],
                               relations=[(tuple(sorted(m, key=gens.index)), {})
                                          for m in zero_monomials],
                               commutative=True)
    brackets = {}
    for (s, t), q in qs.items():
        sign = 1 if gens.index(s) < gens.index(t) else -1
        s, t = sorted((s, t), key=gens.index)
        brackets[s, t] = pres.element({(s, t): sign * field.parse(q)})
    return PoissonStructure(pres, brackets)


def hilbert_counts(pres):
    """The number of irreducible words of each length up to the cap.
    Irreducible words are closed under taking factors, so each level is
    the one below extended by one atom, keeping the extensions that end in
    no lhs."""
    level, counts = [()], [1]
    lhss = [r.lhs for r in pres.rules]
    for _ in range(pres.cap):
        level = [w + (a,) for w in level for a in pres.atoms
                 if not any((w + (a,))[-len(lhs):] == lhs for lhs in lhss)]
        counts.append(len(level))
    return counts


HILBERT = [
    # k[x,y]/(x^2, y^3) and k[x,y,z]/(x^2, y^2, z^2, xyz), their envelopes at cap 5
    (("x", "y"), [("x", "x"), ("y", "y", "y")], {("x", "y"): "2/3"},
     [1, 10, 11, 11, 13, 15]),
    (("x", "y", "z"), [("x", "x"), ("y", "y"), ("z", "z"), ("x", "y", "z")],
     {("x", "y"): "2", ("x", "z"): "3/5", ("y", "z"): "-7"}, [1, 12, 20, 22, 30, 39]),
]


@pytest.mark.parametrize("gens,zeros,qs,counts", HILBERT, ids=["x2y3", "x2y2z2xyz"])
def test_envelope_hilbert_counts_do_not_depend_on_the_rules_found(gens, zeros, qs, counts):
    """The number of irreducible words of each length belongs to the
    enveloping algebra, not to the rule set that completion finds, which
    changes with the generator order and the field: the same counts under
    the reversed order (its deg-lex order differs, and each bracket
    constant flips sign with its pair), and over GF(101), which divides no
    constant.  A missed rule or a stale memo entry shows here even when
    the rule list agrees with itself."""
    for field, order in ((QQ, gens), (QQ, gens[::-1]), (GF(101), gens)):
        env = build_envelope(log_canonical(field, order, zeros, qs), cap=5)
        assert hilbert_counts(env.presentation) == counts, (field, order)
