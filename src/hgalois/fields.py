"""Exact coefficient fields: the rationals and prime fields GF(p).

Over Q a coefficient is a plain `int` until a division leaves a remainder,
and a `fractions.Fraction` after that; over GF(p) it is an `FpElement`.
`field.div` is the one division on coefficients: over Q it returns the
exact quotient, an `int` whenever that is integral, and never a float.
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

    parse = parse_coefficient

    def render(self, value) -> str:
        return str(value)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")


class FpElement:
    """Residue modulo a prime, with field arithmetic via operators."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise InputError(f"mixed prime fields GF({self.p}) and GF({other.p})")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else FpElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else FpElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else FpElement(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else FpElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return FpElement(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


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
    """GF(p) for a prime p; elements are `FpElement` residues.

    `zero` and `one` return one shared residue each; an `FpElement` is
    assigned only in `__init__`, so sharing it is safe.
    """

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise InputError(f"prime modulus {p} is not below the supported bound {PRIME_BOUND}")
        if not _is_prime(p):
            raise InputError(f"{p} is not prime; prime fields require a prime modulus")
        self.p = p
        self.characteristic = p
        self.name = f"GF({p})"
        self._zero = FpElement(0, p)
        self._one = FpElement(1, p)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def of_int(self, n: int):
        return FpElement(n, self.p)

    def div(self, a, b):
        """a / b in GF(p); `ZeroDivisionError` when b is zero."""
        return a / b

    parse = parse_coefficient

    def render(self, value) -> str:
        return str(value.v)

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
    if spec in (None, "rationals", "Q", "QQ"):
        return QQ
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        return GF(int(spec["prime"]))
    raise InputError(f"unknown field descriptor {spec!r}")
