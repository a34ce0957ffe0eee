"""Sparse twisted tensor products of presented algebras.

A `TensorElement` of rank k stores terms as k-tuples of normal-form words.
Each slot carries a twist flag; flagged slots multiply in the opposite
order, so for signature (plain, op, plain):

    (x ⊗ y ⊗ z) * (x' ⊗ y' ⊗ z')  =  x x' ⊗ y' y ⊗ z z'.

Folds always use the plain product of the underlying algebra in written
order: they realize the multiplication maps applied to adjacent slots,
which act on elements of the algebra itself, not of its opposite.

Linear arithmetic, equality and `repr` come from `presentations.Terms`,
shared with `Element`; slot maps and folds extend linearly (`linear_terms`).
"""

from .errors import InputError
from .presentations import Element, Terms, axpy, linear_terms, word_str

PLAIN = False
OP = True


def add_outer(terms: dict, slots, coeff, field) -> None:
    """terms += coeff * (s_1 ⊗ ... ⊗ s_k) for slot term maps s_i: the
    combinations are built slot by slot, and each is then added in; a
    missing key takes the product itself, and zero sums are dropped.
    Factors that are the field's shared one (the coefficient of a word that
    is its own normal form) are skipped.  A single-term slot builds no
    combinations: its word joins `run`, the words that every combination
    ends in so far, and its factor scales them all.  Like `axpy`, it leaves
    int representatives over GF(p) for its caller to pass through
    `field.canonical`."""
    one = field.one
    combos = [((), coeff)]
    run = ()
    for slot in slots:
        if len(slot) == 1:
            for w, f in slot.items():
                run += (w,)
                if f is not one:
                    combos = [(words, c * f) for words, c in combos]
        elif slot:
            combos = [(words + run + (w,), c if f is one else c * f)
                      for words, c in combos for w, f in slot.items()]
            run = ()
        else:
            return
    for words, c in combos:
        if run:
            words += run
        s = terms[words] + c if words in terms else c
        if s:
            terms[words] = s
        else:
            terms.pop(words, None)


def slot_normal_forms(factors, key) -> list:
    """The normal form of each slot word of `key` in its factor, read
    through the factor's memo (`_word_nf`), which checks the cap first."""
    return [f._word_nf(w, "normal_form") for f, w in zip(factors, key)]


class TensorElement(Terms):
    __slots__ = ("factors", "signature", "field")

    def __init__(self, factors, signature, terms, field=None, *, normalize=True):
        self.factors = tuple(factors)
        self.signature = tuple(bool(s) for s in signature)
        if len(self.factors) != len(self.signature):
            raise InputError("tensor signature length differs from factor count")
        if field is None:
            if not self.factors:
                raise InputError("rank-0 tensor needs an explicit field")
            field = self.factors[0].field
        self.field = field
        for p in self.factors:
            if p.field != field:
                raise InputError("tensor factors over different fields")
        self.terms = self._normalize(terms) if normalize else dict(terms)

    # ------------------------------------------------------------------
    def _normalize(self, raw) -> dict:
        """The nonzero terms of `raw` with their keys checked as k-tuples of
        words, through `_normal_terms`."""
        terms = [(tuple(map(tuple, key)), c) for key, c in raw.items() if c]
        if any(len(key) != len(self.factors) for key, _ in terms):
            raise InputError("tensor term rank differs from factor count")
        return self._normal_terms(terms)

    def _normal_terms(self, terms) -> dict:
        """The one normalisation kernel: the sum of the (key, coeff) pairs
        `terms`, each key a k-tuple of words and each coeff nonzero, as the
        outer products of the slots' memoized normal forms (`add_outer`,
        `slot_normal_forms`), with canonical coefficients."""
        out: dict = {}
        factors, field = self.factors, self.field
        for key, coeff in terms:
            add_outer(out, slot_normal_forms(factors, key), coeff, field)
        return field.canonical(out)

    @classmethod
    def unit(cls, factors, signature, field=None):
        factors = tuple(factors)
        if field is None and factors:
            field = factors[0].field
        empty = tuple(() for _ in factors)
        return cls(factors, signature, {empty: field.one}, field, normalize=False)

    @classmethod
    def zero(cls, factors, signature, field=None):
        return cls(factors, signature, {}, field, normalize=False)

    @classmethod
    def outer(cls, elements, signature):
        """Pure tensor e_1 ⊗ ... ⊗ e_k of algebra elements."""
        elements = list(elements)
        factors = tuple(e.presentation for e in elements)
        field = factors[0].field if factors else None
        terms: dict = {}
        add_outer(terms, [e.terms for e in elements], field.one, field)
        return cls(factors, signature, field.canonical(terms), field, normalize=False)

    @classmethod
    def scalar_value(cls, field, value):
        return cls((), (), field.canonical({(): value} if value else {}), field, normalize=False)

    # ------------------------------------------------------------------
    def _like(self, terms):
        out = TensorElement.__new__(TensorElement)
        out.factors, out.signature, out.field = self.factors, self.signature, self.field
        out.terms = terms
        return out

    def _mismatch(self, other):
        if self.factors != other.factors:  # presentations compare by identity
            return "tensor factors over different presentations"
        if self.signature != other.signature:
            return "tensor signature mismatch"
        return None

    def _term_key(self, words):
        return tuple(f.word_key(w) for f, w in zip(self.factors, words))

    def _term_str(self, words, c):
        return f"({self.field.spell(c)})·{' ⊗ '.join(map(word_str, words)) if words else '1'}"

    @property
    def rank(self):
        return len(self.factors)

    # in the class dict, where perfbench/tracer.py wraps them by name
    __add__ = Terms.__add__
    __sub__ = Terms.__sub__

    def __mul__(self, other):
        """Slot-wise product; op slots reverse the operand order.  The term
        pairs are summed by their concatenated slot words, and the nonzero
        sums normalised by `_normal_terms`; the cap is checked on those
        summed words."""
        if not isinstance(other, TensorElement):
            return self.scale(other)
        self._check_same(other)
        signature = self.signature
        raw: dict = {}
        # a key is made from a list, which costs less per term pair than a
        # generator; the keys of one left term's row are distinct
        for ks, cs in self.terms.items():
            axpy(raw, {tuple([t + s if op else s + t for s, t, op in zip(ks, kt, signature)]): ct
                       for kt, ct in other.terms.items()}, cs)
        return self._like(self._normal_terms(raw.items()))

    # ------------------------------------------------------------------
    def slot_transform(self, i, func):
        """Apply a linear map Element -> Element to slot i of every term."""
        pres = self.factors[i]
        raw = linear_terms(self.terms, lambda key: {
            key[:i] + (w,) + key[i + 1:]: c
            for w, c in func(Element(pres, {key[i]: pres.field.one})).terms.items()})
        return TensorElement(self.factors, self.signature, raw, self.field)

    def expand_slot(self, i, gmap):
        """Replace slot i by the image tensor of a generator map.

        For a rank-1 map the slot keeps its own twist flag (the map just
        substitutes elements of the same underlying space).  For other
        ranks the map's full signature is spliced in; this is only
        meaningful on plain slots and is rejected on twisted ones.
        """
        sub_rank = len(gmap.targets)
        if sub_rank == 1:
            new_sig = self.signature
            new_factors = self.factors[:i] + (gmap.targets[0],) + self.factors[i + 1:]
        else:
            if self.signature[i]:
                raise InputError("cannot splice a multi-slot map into a twisted slot")
            new_sig = self.signature[:i] + gmap.signature + self.signature[i + 1:]
            new_factors = self.factors[:i] + gmap.targets + self.factors[i + 1:]
        raw = linear_terms(self.terms, lambda key: {
            key[:i] + sub + key[i + 1:]: c for sub, c in gmap.apply_word(key[i]).terms.items()})
        return TensorElement(new_factors, new_sig, raw, self.field)

    def fold_adjacent(self, i):
        """Multiply slots i and i+1 in the plain algebra product; the merged
        slot is plain in the result."""
        if not 0 <= i < self.rank - 1:
            raise InputError("fold_adjacent: slot out of range")
        if self.factors[i] is not self.factors[i + 1]:
            raise InputError("fold_adjacent: slots over different presentations")
        new_factors = self.factors[:i] + self.factors[i + 1:]
        new_sig = self.signature[:i] + (PLAIN,) + self.signature[i + 2:]
        one = self.field.one
        raw = linear_terms(self.terms, lambda key: {
            key[:i] + (key[i] + key[i + 1],) + key[i + 2:]: one})
        return TensorElement(new_factors, new_sig, raw, self.field)

    def fold_all(self) -> Element:
        """Multiply all slots left to right in the plain product of the
        (shared) underlying algebra."""
        if self.rank == 0:
            raise InputError("fold_all needs rank >= 1")
        pres = self.factors[0]
        for p in self.factors:
            if p is not pres:
                raise InputError("fold_all: slots over different presentations")
        one = self.field.one
        raw = linear_terms(self.terms, lambda key: {tuple(a for w in key for a in w): one})
        return pres.normal_form(Element(pres, raw))

    def to_element(self) -> Element:
        if self.rank != 1:
            raise InputError("to_element needs rank 1")
        return Element(self.factors[0], {k[0]: c for k, c in self.terms.items()})

    def scalar(self):
        if self.rank != 0:
            raise InputError("scalar needs rank 0")
        return self.terms.get((), self.field.zero)

    def transport(self, new_factors):
        """Reinterpret over other presentations sharing the atom names."""
        new_factors = tuple(new_factors)
        if len(new_factors) != self.rank:
            raise InputError("transport: rank mismatch")
        return TensorElement(new_factors, self.signature, dict(self.terms), self.field)
