from fractions import Fraction

import pytest

from hgalois import (
    GF,
    PLAIN,
    QQ,
    AlgebraPresentation,
    GeneratorMap,
    GeneratorSymbol,
    InputError,
    TensorElement,
    transport_element,
)
from hgalois.cli import run_commands
from hgalois.errors import JobError
from hgalois.examples import builtin_job
from hgalois.fields import PRIME_BOUND, _is_prime, field_from_spec
from hgalois.jobs import Job


def test_rational_parse():
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.parse("-1") == Fraction(-1)
    assert QQ.render(Fraction(-5, 3)) == "-5/3"


def test_rationals_are_ints_until_a_division_leaves_a_remainder():
    assert (type(QQ.zero), type(QQ.one), type(QQ.of_int(-3))) == (int, int, int)
    for text, value in [("-1", -1), ("0", 0), ("3/1", 3), ("6/2", 3)]:
        assert type(QQ.parse(text)) is int and QQ.parse(text) == value
    assert type(QQ.parse("3/2")) is Fraction and QQ.parse("3/2") == Fraction(3, 2)
    assert type(QQ.div(4, 2)) is int and QQ.div(4, 2) == 2
    assert type(QQ.div(1, 2)) is Fraction and QQ.div(1, 2) == Fraction(1, 2)
    half = Fraction(1, 2)
    assert type(QQ.div(half, half)) is int and QQ.div(half, half) == 1
    assert type(QQ.div(True, 1)) is int
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(half, 0)


def test_prime_field_div():
    F = GF(5)
    assert F.div(F.of_int(3), F.of_int(4)) == F.of_int(2)
    assert F.div(-2, 9) == F.div(3, 4) == 2  # int representatives
    for zero in (F.zero, 5, -10):
        with pytest.raises(ZeroDivisionError):
            F.div(F.one, zero)


def test_rational_parse_rejects_garbage():
    with pytest.raises(InputError):
        QQ.parse("1.5x")


def test_prime_field_arithmetic():
    """Residues are plain ints; sums and products of int representatives
    come back to residues through `canonical`, which drops the zeros."""
    F = GF(5)
    a, b = F.of_int(3), F.of_int(4)
    assert (a, b, F.of_int(-3), F.of_int(12), F.zero, F.one) == (3, 4, 2, 2, 0, 1)
    raw = {"sum": a + b, "product": a * b, "negated": -a, "zero": a + 2, "big": 5**40 + 1}
    assert F.canonical(raw) == {"sum": 2, "product": 2, "negated": 2, "big": 1}
    assert F.div(a, b) == F.canonical({"q": a * F.of_int(4)})["q"]  # 4^-1 = 4 mod 5
    assert F.parse("7") == F.of_int(2)
    assert F.parse("1/2") == F.of_int(3)
    assert {type(F.parse(t)) for t in ("7", "-1", "1/2")} == {int}
    assert F.render(3) == "3" and F.spell(3) == "3 (mod 5)"
    assert QQ.canonical(raw) is raw and QQ.spell(Fraction(-1, 2)) == "-1/2"


def test_prime_field_requires_prime():
    with pytest.raises(InputError):
        GF(6)


def _gf_presentation(p):
    return AlgebraPresentation(GF(p), [GeneratorSymbol("x")], [(("x", "x"), {})],
                               name=f"x2_gf{p}")


def test_mixed_prime_fields_rejected():
    """Residues are bare ints, so the field is checked where data of one
    presentation meets another: elements, tensors, maps, transports and
    rule right-hand sides over GF(5) and GF(7) raise `InputError`."""
    p5, p7 = _gf_presentation(5), _gf_presentation(7)
    x5, x7 = p5.atom_element("x"), p7.atom_element("x")
    with pytest.raises(InputError, match="different presentations"):
        x5 + x7
    with pytest.raises(InputError, match="different presentations"):
        x5 * x7
    with pytest.raises(InputError, match="different fields"):
        TensorElement((p5, p7), (PLAIN, PLAIN), {(("x",), ("x",)): 1})
    t5 = TensorElement.outer([x5, x5], (PLAIN, PLAIN))
    with pytest.raises(InputError, match="different fields"):
        t5.transport((p7, p7))
    with pytest.raises(InputError, match="different presentations"):
        t5 + TensorElement.outer([x7, x7], (PLAIN, PLAIN))
    with pytest.raises(InputError, match="different fields"):
        transport_element(x5, p7)
    with pytest.raises(InputError, match="different fields"):
        GeneratorMap.algebra_map(p5, p7, {"x": x7})
    with pytest.raises(InputError, match="different field"):
        p5.add_rule_data(("x", "x", "x"), x7)


def test_a_job_has_one_field():
    """No job reaches a mix of fields: every presentation a job builds,
    the quotient's target included, is over the job's "field", and a
    "field" written into the quotient's presentation block is not read."""
    doc = builtin_job("laurent_mod_x") | {"field": {"prime": 7}}
    doc["quotient"]["presentation"]["field"] = {"prime": 5}
    job = Job(doc)
    f, _, _ = job.quotient()
    assert {f.source.field, f.targets[0].field, job.presentation.field} == {GF(7)}
    assert run_commands(job, job.commands)[1]["status"] == "pass"


def test_every_nonzero_scalar_inverts():
    F = GF(7)
    for n in range(1, 7):
        assert F.canonical({"unit": F.of_int(n) * F.div(F.one, F.of_int(n))}) == {"unit": F.one}
    q = Fraction(22, 7)
    assert q * QQ.div(QQ.one, q) == QQ.one


def test_field_from_spec():
    assert field_from_spec("rationals") is QQ
    assert field_from_spec({"prime": 3}).characteristic == 3
    with pytest.raises(InputError):
        field_from_spec({"weird": 1})


@pytest.mark.parametrize("p,text", [(5, "1/0"), (7, "1/7"), (7, " 3 / 14 "), (7, "3/14")])
def test_prime_field_zero_denominator_rejected(p, text):
    """A denominator that is zero mod p gives that reason, not the
    `ValueError` of `pow(0, -1, p)`; " 3 / 14 ", with blanks inside, fails
    the grammar before any division."""
    with pytest.raises(InputError, match="cannot parse coefficient") as err:
        GF(p).parse(text)
    reason = ("expected an optional sign, digits and an optional /digits" if " " in text
              else "the denominator is zero")
    assert str(err.value) == f"cannot parse coefficient {text!r} over GF({p}): {reason}"


GRAMMAR_PROBES = {
    # an optional sign, ASCII digits, an optional /digits, blanks around the whole text
    "3": True, "+4": True, "-6/4": True, " 3/2\t": True, "007/010": True,
    "0.5": False, "1e3": False, "3/-2": False, " 3 / 14 ": False, "1_000": False,
    "٣": False, "١/٢": False, "": False, "/2": False, "3/": False,
    "--3": False, "½": False, "3\n": False,
}


@pytest.mark.parametrize("text", sorted(GRAMMAR_PROBES))
def test_both_fields_parse_one_grammar(text):
    for field in (QQ, GF(7)):
        if GRAMMAR_PROBES[text]:
            assert field.parse(text) == field.div(*map(field.of_int, _quotient(text)))
        else:
            with pytest.raises(InputError) as err:
                field.parse(text)
            assert str(err.value).startswith(f"cannot parse coefficient {text!r} over {field.name}: ")


def _quotient(text):
    num, _, den = text.strip().partition("/")
    return int(num), int(den or 1)


def test_zero_denominator_in_a_job_names_the_coefficient():
    doc = builtin_job("sweedler_h4")
    doc["field"] = {"prime": 5}
    doc["mu"]["x"][0]["coeff"] = "1/0"
    with pytest.raises(JobError) as err:
        Job(doc).hopf_galois()
    assert err.value.path == "sweedler_h4.mu.x[0].coeff"


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_agrees_with_trial_division():
    assert [n for n in range(50_000) if _is_prime(n) != _trial_division(n)] == []


# a Carmichael number and the least strong pseudoprimes to the first 4, 9
# and 12 prime bases
@pytest.mark.parametrize("n", [561, 3_215_031_751, 3_825_123_056_546_413_051,
                               318_665_857_834_031_151_167_461])
def test_strong_pseudoprimes_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(InputError, match="not prime"):
        field_from_spec({"prime": n})


def test_prime_bound():
    # PRIME_BOUND is itself a strong pseudoprime to all 13 bases, so only the
    # bound keeps it out
    assert _is_prime(PRIME_BOUND)
    with pytest.raises(InputError, match="supported bound"):
        field_from_spec({"prime": PRIME_BOUND})


def test_h4_over_a_61_bit_prime():
    doc = builtin_job("sweedler_h4")
    doc["field"] = {"prime": 2**61 - 1}
    _, summary = run_commands(Job(doc), ["check-hopf-galois"])
    assert (summary["field"], summary["status"]) == (f"GF({2**61 - 1})", "pass")

