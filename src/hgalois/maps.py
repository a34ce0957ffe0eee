"""Generator-image maps extended to whole algebras: multiplicatively, or
by the Leibniz rule.

A `GeneratorMap` stores one target tensor per atom of the source
presentation and extends to words by slot-wise tensor multiplication, so
twisted target slots automatically make the extension anti-multiplicative
there.  Images of formal inverses are derived from single-term images
when not supplied, and are always verified to multiply to the unit.  A
`Derivation` stores one element per atom and extends to words by the
(twisted) Leibniz rule.  Both compute the image of every word once, from
the image of the word without its last atom, and keep it in a word table.
Both freeze the presentations whose rules they read (a map its targets, a
derivation its algebra), so every table entry stays valid.
"""

from .errors import InputError
from .presentations import Element, inverse_atom, linear_terms
from .reports import VerificationReport
from .tensors import OP, PLAIN, TensorElement


class GeneratorMap:
    def __init__(self, source, targets, signature, images, *, name="map"):
        self.source = source
        self.targets = tuple(targets)
        self.signature = tuple(bool(s) for s in signature)
        self.name = name
        self.field = self.targets[0].field if self.targets else source.field
        if len(self.targets) != len(self.signature):
            raise InputError(f"{name}: signature length differs from target count")
        if source.field != self.field:
            raise InputError(f"{name}: source and targets over different fields")

        self.images: dict[str, TensorElement] = {}
        for atom, img in images.items():
            source.atom_key(atom)
            self.images[atom] = self._coerce_image(atom, img)
        self._complete_inverses()
        missing = [a for a in source.atoms if a not in self.images]
        if missing:
            raise InputError(f"{name}: missing image for generator {missing[0]!r}")
        for target in self.targets:
            target.freeze()
        self._word_images = {(): TensorElement.unit(self.targets, self.signature, self.field)}

    def _coerce_image(self, atom, img) -> TensorElement:
        if isinstance(img, Element):
            img = TensorElement.outer([img], self.signature or (PLAIN,))
        if not isinstance(img, TensorElement):
            raise InputError(f"{self.name}: image of {atom!r} is not a tensor or element")
        if img.factors != self.targets:  # presentations compare by identity
            raise InputError(f"{self.name}: image of {atom!r} has wrong factor presentations")
        if img.signature != self.signature:
            raise InputError(f"{self.name}: image of {atom!r} has wrong twist signature")
        return img

    def _complete_inverses(self):
        unit = TensorElement.unit(self.targets, self.signature, self.field)
        for gen in self.source.generators:
            if not gen.invertible:
                continue
            inv = inverse_atom(gen.name)
            img = self.images.get(gen.name)
            if img is None:
                raise InputError(f"{self.name}: missing image for generator {gen.name!r}")
            if inv not in self.images:
                derived = _invert_tensor(img)
                if derived is None:
                    raise InputError(
                        f"{self.name}: cannot derive image of {inv}; supply it explicitly"
                    )
                self.images[inv] = derived
            if (img * self.images[inv] != unit) or (self.images[inv] * img != unit):
                raise InputError(
                    f"{self.name}: image of {inv} is not a two-sided inverse of the "
                    f"image of {gen.name}"
                )

    # ------------------------------------------------------------------
    @property
    def rank(self):
        return len(self.targets)

    def apply_word(self, word) -> TensorElement:
        """The image of a word: the unit times the atom images from left to
        right.  Every prefix image is kept in the word table, so a word is
        the kept image of its longest known prefix times the rest."""
        return _fill_prefixes(self._word_images, tuple(word), self.images, self.name,
                              lambda out, _w, _a, img: out * img)

    def apply(self, value: Element) -> TensorElement:
        """Image of an Element of the source algebra; `apply_word` takes a word."""
        if value.presentation is not self.source:
            raise InputError(f"{self.name}: element from a different presentation")
        out = linear_terms(value.terms, lambda w: self.apply_word(w).terms)
        return TensorElement(self.targets, self.signature, self.field.canonical(out),
                             self.field, normalize=False)

    def apply_element(self, value) -> Element:
        return self.apply(value).to_element()

    def apply_scalar(self, value):
        return self.apply(value).scalar()

    def with_images(self, replacements, *, name=None):
        """Copy of the map with some atom images replaced (inverse images
        are re-derived unless explicitly replaced)."""
        images = {a: img for a, img in self.images.items()}
        for gen in self.source.generators:
            if gen.invertible and gen.name in replacements:
                images.pop(inverse_atom(gen.name), None)
        images.update(replacements)
        return GeneratorMap(self.source, self.targets, self.signature, images,
                            name=name or self.name)

    # ------------------------------------------------------------------
    @classmethod
    def algebra_map(cls, source, target, images, *, name="map"):
        return cls(source, (target,), (PLAIN,), images, name=name)

    @classmethod
    def anti_algebra_map(cls, source, target, images, *, name="map"):
        """Target carries the opposite product, so words map anti-multiplicatively."""
        return cls(source, (target,), (OP,), images, name=name)

    @classmethod
    def scalar_map(cls, source, images, *, name="map"):
        field = source.field
        tensor_images = {
            atom: TensorElement.scalar_value(field, value)
            for atom, value in images.items()
        }
        return cls(source, (), (), tensor_images, name=name)

    @classmethod
    def identity(cls, pres, *, name="id"):
        images = {g.name: pres.atom_element(g.name) for g in pres.generators}
        return cls.algebra_map(pres, pres, images, name=name)

    def __repr__(self):
        sig = ",".join("op" if s else "plain" for s in self.signature)
        return f"GeneratorMap({self.name}: rank {self.rank} [{sig}])"


class Derivation:
    """A tau-derivation D, D(uv) = D(u) v + tau(u) D(v), of a presented algebra,
    given by its images on atoms; `tau` is a rank-1 endomorphism, None for
    the identity.  Supplied images are taken literally; a missing inverse
    image is forced by 0 = D(g g^-1):  D(g^-1) = -tau(g^-1) D(g) g^-1.
    Words are extended by their last atom, D(w a) = D(w) a + tau(w) D(a),
    and every word image is kept in a word table.
    """

    def __init__(self, pres, images: dict, label: str, *, tau: GeneratorMap = None):
        self.presentation = pres
        self.tau = tau
        self.label = label
        self.images: dict = {}
        for atom, value in images.items():
            pres.atom_key(atom)
            if not isinstance(value, Element) or value.presentation is not pres:
                raise InputError(f"{label}({atom}) must be an element of the base algebra")
            self.images[atom] = pres.normal_form(value)
        pres.freeze()
        self._word_images = {(): pres.zero()}
        for gen in pres.generators:
            if gen.name not in self.images:
                raise InputError(f"{label}: missing image for generator {gen.name!r}")
            inv = inverse_atom(gen.name)
            if gen.invertible and inv not in self.images:
                self.images[inv] = -(self._tau_word((inv,)) * self.images[gen.name]
                                     * pres.atom_element(inv))

    def _tau_word(self, word) -> Element:
        if self.tau is None:
            return self.presentation.normal_form(word)
        return self.tau.apply_word(word).to_element()

    def _extend(self, d_w: Element, w, atom, img) -> Element:
        return d_w * self.presentation.atom_element(atom) + self._tau_word(w) * img

    def apply_word(self, word) -> Element:
        """D of a raw word (not reduced first), read from the word table."""
        return _fill_prefixes(self._word_images, tuple(word), self.images, self.label,
                              self._extend)

    def apply(self, value: Element) -> Element:
        pres = self.presentation
        if value.presentation is not pres:
            raise InputError(f"{self.label}: element from a different presentation")
        return Element(pres, pres.field.canonical(
            linear_terms(value.terms, lambda w: self.apply_word(w).terms)))

    def check_relations(self):
        """Raise InputError unless D of the raw left-hand word of every rule
        equals D of its right-hand side."""
        pres = self.presentation
        for rule in pres.rules:
            if self.apply_word(rule.lhs) != self.apply(Element(pres, rule.rhs_terms)):
                raise InputError(f"{self.label} is not well defined: fails on relation "
                                 f"{pres.rule_text(rule)}")


def _fill_prefixes(table: dict, word: tuple, images: dict, name, step):
    """table[word], from the longest prefix already in the table: each longer
    prefix p + (a,) gets step(table[p], p, a, images[a])."""
    k = len(word)
    while word[:k] not in table:
        k -= 1
    out = table[word[:k]]
    for n in range(k, len(word)):
        img = images.get(word[n])
        if img is None:
            raise InputError(f"{name}: no image for atom {word[n]!r}")
        out = table[word[:n + 1]] = step(out, word[:n], word[n], img)
    return out


def _invert_tensor(img: TensorElement):
    if len(img.terms) != 1:
        return None
    words, coeff = next(iter(img.terms.items()))
    inv_words = []
    for pres, w in zip(img.factors, words):
        inv = pres.invert(Element(pres, {w: pres.field.one}))
        if inv is None or len(inv.terms) != 1:
            return None
        (iw, ic), = inv.terms.items()
        if ic != pres.field.one:
            return None
        inv_words.append(iw)
    field = img.field
    return TensorElement(img.factors, img.signature,
                         {tuple(inv_words): field.div(field.one, coeff)}, field)


def compose(outer: GeneratorMap, inner: GeneratorMap, *, name="composite") -> GeneratorMap:
    """outer ∘ inner for a rank-1 inner map."""
    if inner.rank != 1:
        raise InputError("compose: inner map must have rank 1")
    if inner.targets[0] is not outer.source:
        raise InputError("compose: inner target differs from outer source")
    images = {
        g.name: outer.apply(inner.apply_element(inner.source.atom_element(g.name)))
        for g in inner.source.generators
    }
    return GeneratorMap(inner.source, outer.targets, outer.signature, images, name=name)


def check_map_respects_relations(gmap: GeneratorMap, *, anchor="algebra map well-defined") -> VerificationReport:
    """One entry per rewrite rule of the source: image(lhs) == image(rhs)."""
    report, source = VerificationReport(), gmap.source
    for rule in source.rules:
        rhs = Element(source, rule.rhs_terms)
        report.add_vanishing(f"{gmap.name} respects relation", anchor, source.rule_text(rule),
                             gmap.apply_word(rule.lhs) - gmap.apply(rhs))
    return report
