"""Exact coefficient fields: the rationals and prime fields GF(p).

Over Q a coefficient is a plain `int` until a division leaves a remainder,
and a `fractions.Fraction` after that; over GF(p) it is a plain `int`.
Every term map that the package stores or returns holds nonzero
coefficients, and over GF(p) each is a residue c with 0 < c < p.  Inside a
term-map kernel, GF(p) coefficients are int representatives combined with
plain `+`, `-` and `*`, which is sound because Z -> GF(p) is a ring map;
`field.canonical` maps a kernel's result back to residues once, where the
kernel stores or returns it.  Over Q `canonical` returns its map unchanged.
`field.div` is the one division on coefficients: over Q it returns the
exact quotient, an `int` whenever that is integral, and never a float.
The Lemma 5.5 check keeps its kernel in ints over Q as well: it scales its
tables by the lcm D of their denominators and divides only a failing
law's map by D^3 (`envelope.check_lemma55`).
There is no floating point anywhere, so equality of elements is decidable
and exact.
"""

import re
from fractions import Fraction

from .errors import InputError

# an optional sign, ASCII digits, and an optional "/" and ASCII digits,
# with blanks allowed around the whole text only
_COEFF_RE = re.compile(r"[ \t]*([+-]?[0-9]+)(?:/([0-9]+))?[ \t]*")


def parse_coefficient(field, text: str):
    """The coefficient that `text` spells in `field`, by the one grammar of
    both fields: `field.of_int` of the numerator, `field.div` by the
    denominator when there is one."""
    m = _COEFF_RE.fullmatch(text)
    try:
        if m is None:
            raise ValueError("expected an optional sign, digits and an optional /digits")
        num, den = m.groups()
        value = field.of_int(int(num))
        return value if den is None else field.div(value, field.of_int(int(den)))
    except ValueError as exc:  # the grammar, or more digits than int() converts
        reason = exc
    except ZeroDivisionError:
        reason = "the denominator is zero"
    raise InputError(f"cannot parse coefficient {text!r} over {field.name}: {reason}")


# `str` refuses an int of more digits than sys.get_int_max_str_digits()
# (4300 by default, never below 640), so `_decimal` spells 600 at a time
_CHUNK = 10 ** 600


def _decimal(n: int) -> str:
    """n in decimal, whatever its length."""
    head, chunks = abs(n), []
    while head >= _CHUNK:
        head, r = divmod(head, _CHUNK)
        chunks.append(f"{r:0600d}")
    return ("-" if n < 0 else "") + str(head) + "".join(reversed(chunks))


class Rationals:
    """The field of rational numbers; elements are `int` or `Fraction`.

    `zero`, `one` and `of_int` give plain ints, and `parse` gives an int
    whenever the denominator is 1.  Int arithmetic stays int; a `Fraction`
    first appears where `div` leaves a remainder, or where a coefficient
    text is a proper fraction.  A `Fraction` with denominator 1 (from
    `Fraction(1, 2) * 2`) equals and hashes like its int, so both forms
    may meet in one term map.
    """

    characteristic = 0
    name = "rationals"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of_int(self, n: int):
        return n

    def div(self, a, b):
        """The exact quotient a / b, demoted to an int when it is integral;
        `ZeroDivisionError` when b is zero."""
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def canonical(self, terms: dict) -> dict:
        """`terms` itself: exact rational sums need no reduction."""
        return terms

    parse = parse_coefficient

    def render(self, value) -> str:
        """`str(value)`, however many digits it has."""
        try:
            return str(value)
        except ValueError:  # past the limit on int-to-text conversion
            num, den = value.numerator, value.denominator
            return _decimal(num) if den == 1 else f"{_decimal(num)}/{_decimal(den)}"

    spell = render

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PRIME_BOUND = psi_13, the least odd composite that is a strong
# probable prime to all of them; the first 12 bases are not enough
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for every p < PRIME_BOUND."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a prime p; elements are `int` residues c with 0 <= c < p.

    `render` spells a residue as its digits (the report's "coeff"), and
    `spell` as "c (mod p)" (the coefficient of a term in an element's or a
    tensor's `repr`).
    """

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise InputError(f"prime modulus {p} is not below the supported bound {PRIME_BOUND}")
        if not _is_prime(p):
            raise InputError(f"{p} is not prime; prime fields require a prime modulus")
        self.p = p
        self.characteristic = p
        self.name = f"GF({p})"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def of_int(self, n: int):
        return n % self.p

    def div(self, a, b):
        """The residue of a / b for int representatives a and b;
        `ZeroDivisionError` when b is zero mod p."""
        p = self.p
        if not b % p:
            raise ZeroDivisionError(f"division by zero in GF({p})")
        return a * pow(b, -1, p) % p

    def canonical(self, terms: dict) -> dict:
        """The nonzero residues of a term map of int representatives."""
        p, out = self.p, {}
        for k, c in terms.items():
            c %= p
            if c:
                out[k] = c
        return out

    parse = parse_coefficient

    def render(self, value) -> str:
        return str(value)

    def spell(self, value) -> str:
        return f"{value} (mod {self.p})"

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


QQ = Rationals()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def field_from_spec(spec) -> "Rationals | PrimeField":
    """Build a field from a job-file descriptor: "rationals" or {"prime": p}."""
    if spec == "rationals":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        return GF(int(spec["prime"]))
    raise InputError(f"unknown field descriptor {spec!r}")
