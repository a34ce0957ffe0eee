"""Incremental completion against the full-rescan reference, its budget, and
the lifetime of presentations and their rules."""

import gc
import weakref

import pytest

from hgalois import (
    GF,
    QQ,
    AlgebraPresentation,
    ConfluenceError,
    Element,
    GeneratorSymbol,
    InputError,
    RewriteRule,
    build_envelope,
    word_str,
)
from conftest import log_canonical_x2y3, make_kxy

from oracles import reference_complete_rules, reference_unresolved_critical_pairs

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
    return AlgebraPresentation(
        QQ, [GeneratorSymbol("a"), GeneratorSymbol("b")],
        relations=[(("b", "a", "b"), {("a", "b", "a"): ONE}),
                   (("b", "b"), {("a", "a"): ONE})],
        check=False, cap=8, name="braid",
    )


def containment():
    """b lies strictly inside cba; the only critical pair is that containment."""
    return AlgebraPresentation(
        QQ, [GeneratorSymbol(g) for g in "abc"],
        relations=[(("c", "b", "a"), {("a",): ONE}), (("b",), {("a",): ONE})],
        check=False, cap=8, name="containment",
    )


SEEDS = {
    "kxy_q": lambda mp: envelope_seed(make_kxy(QQ)[1], 4, mp),
    "kxy_gf421": lambda mp: envelope_seed(make_kxy(GF(421))[1], 4, mp),
    "log_canonical_x2y3": lambda mp: envelope_seed(log_canonical_x2y3(QQ), 6, mp),
    "braid_like": lambda mp: braid_like(),
    "containment": lambda mp: containment(),
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
        f"after 2 rules; unresolved overlap: {word_str(word)} between [{r1}] and [{r2}]")


def test_envelope_presentations_are_freed_without_the_cycle_collector():
    gc.disable()
    try:
        pres, p = make_kxy()
        env = build_envelope(p, cap=4)
        refs = [weakref.ref(x) for x in (pres, p, env, env.presentation)]
        rule = env.presentation.rules[-1]
        del pres, p, env
        assert [r() for r in refs] == [None] * len(refs)
        with pytest.raises(InputError, match="freed"):
            rule.rhs
    finally:
        gc.enable()


def test_rule_rhs_is_the_element_it_was_built_from():
    pres = braid_like()
    rhs = Element(pres, {("a", "b", "a"): ONE})
    assert RewriteRule(("b", "a", "b"), rhs).rhs == rhs
    assert pres.rules[0].rhs == rhs
    assert pres.rules[0].rhs.presentation is pres
