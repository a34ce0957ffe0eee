"""Exact coefficient fields: the rationals and prime fields GF(p).

Every coefficient in the package is either a `fractions.Fraction` or an
`FpElement`; there is no floating point anywhere, so equality of elements
is decidable and exact.
"""

from fractions import Fraction

from .errors import InputError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Rationals:
    """The field of rational numbers; elements are `Fraction` instances.

    `zero` and `one` return shared constants; coefficients are immutable,
    so no caller can change them.
    """

    characteristic = 0
    name = "rationals"

    @property
    def zero(self):
        return _ZERO

    @property
    def one(self):
        return _ONE

    def of_int(self, n: int):
        return Fraction(n)

    def parse(self, text: str):
        try:
            return Fraction(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational coefficient {text!r}: {exc}")

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


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """GF(p) for a prime p; elements are `FpElement` residues.

    `zero` and `one` return one shared residue each; an `FpElement` is
    assigned only in `__init__`, so sharing it is safe.
    """

    def __init__(self, p: int):
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

    def parse(self, text: str):
        text = str(text).strip()
        if "/" in text:
            num, _, den = text.partition("/")
            try:
                return self.of_int(int(num)) / self.of_int(int(den))
            except ValueError as exc:
                raise InputError(f"cannot parse coefficient {text!r} over {self.name}: {exc}")
        try:
            return self.of_int(int(text))
        except ValueError as exc:
            raise InputError(f"cannot parse coefficient {text!r} over {self.name}: {exc}")

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
