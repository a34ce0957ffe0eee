"""Hopf-Galois structures: axiom checks, group-likes, quotients, and the
two conversions between Hopf structures and Hopf-Galois structures.

The structure map mu sends the algebra R into R ⊗ R^op ⊗ R; all laws are
verified on generators (and formal inverses), which suffices because both
sides of each law are algebra maps once mu respects the relations.  The
test suite backs this sufficiency argument with full-basis brute force on
every finite-dimensional instance.
"""

from .errors import InputError
from .maps import GeneratorMap, check_map_respects_relations
from .presentations import Element, linear_terms
from .reports import VerificationReport
from .tensors import OP, PLAIN, TensorElement

MU_SIGNATURE = (PLAIN, OP, PLAIN)

ANCHOR_ALGEBRA_MAP = "Def 2.1 (mu is an algebra map)"
ANCHOR_LEFT_LAW = "Def 2.1 Eq (2.1) left law"
ANCHOR_RIGHT_LAW = "Def 2.1 Eq (2.1) right law"
ANCHOR_COASSOC = "Def 2.1 Eq (2.2) coassociativity"
ANCHOR_PUSHFORWARD = "Remark 2.2(1) quotient pushforward"
ANCHOR_HG_TO_HOPF = "Prop 2.4 Eq (2.3)"


def mu_map(presentation, images, *, name="mu") -> GeneratorMap:
    """Structure map from generator images in R ⊗ R^op ⊗ R."""
    return GeneratorMap(
        presentation,
        (presentation, presentation, presentation),
        MU_SIGNATURE,
        images,
        name=name,
    )


class HopfGaloisStructure:
    def __init__(self, presentation, mu: GeneratorMap):
        if mu.source is not presentation:
            raise InputError("mu is not defined on the given presentation")
        if mu.rank != 3 or any(t is not presentation for t in mu.targets):
            raise InputError("mu must map into R ⊗ R^op ⊗ R")
        if mu.signature != MU_SIGNATURE:
            raise InputError("mu must target twist signature (plain, op, plain)")
        self.presentation = presentation
        self.mu = mu

    def __repr__(self):
        return f"HopfGaloisStructure({self.presentation!r})"


def check_hopf_galois(h: HopfGaloisStructure) -> VerificationReport:
    """All structure axioms: relation preservation, both unit-type laws,
    and the rank-5 coassociativity identity, per generator."""
    pres = h.presentation
    report = check_map_respects_relations(h.mu, anchor=ANCHOR_ALGEBRA_MAP)
    for atom in pres.atoms:
        t = h.mu.apply_word((atom,))
        a_elem = pres.atom_element(atom)
        one = pres.one()

        subject = f"generator {atom}"
        report.add_vanishing(
            "left unit law", ANCHOR_LEFT_LAW, subject,
            t.fold_adjacent(1) - TensorElement.outer([a_elem, one], (PLAIN, PLAIN)))
        report.add_vanishing(
            "right unit law", ANCHOR_RIGHT_LAW, subject,
            t.fold_adjacent(0) - TensorElement.outer([one, a_elem], (PLAIN, PLAIN)))
        report.add_vanishing("coassociativity (rank 5)", ANCHOR_COASSOC, subject,
                             t.expand_slot(0, h.mu) - t.expand_slot(2, h.mu))
    return report


class GroupLikeResult:
    __slots__ = ("ok", "reason", "inverse", "witness")

    def __init__(self, ok, reason="", inverse=None, witness=None):
        self.ok = ok
        self.reason = reason
        self.inverse = inverse
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"GroupLikeResult({'ok' if self.ok else self.reason!r})"


def is_grouplike(h: HopfGaloisStructure, g: Element) -> GroupLikeResult:
    """g is group-like iff it is invertible and mu(g) = g ⊗ g^-1 ⊗ g."""
    if g.presentation is not h.presentation:
        raise InputError("is_grouplike: element from a different presentation")
    inverse = h.presentation.invert(g)
    if inverse is None:
        return GroupLikeResult(False, "no inverse")
    expected = TensorElement.outer([g, inverse, g], MU_SIGNATURE)
    actual = h.mu.apply(g)
    diff = actual - expected
    if diff:
        return GroupLikeResult(False, "mu(g) is not g ⊗ g^-1 ⊗ g", inverse, diff)
    return GroupLikeResult(True, "", inverse)


def pushforward(h: HopfGaloisStructure, f: GeneratorMap, section: dict) -> HopfGaloisStructure:
    """Push the structure along a surjection f: R -> B.

    `section` maps each generator atom of B to an element of R with
    f(section(b)) = b; the induced images are (f ⊗ f ⊗ f)(mu(section(b))).
    The induced map must respect B's relations, otherwise the quotient is
    rejected with the offending rule.
    """
    if f.source is not h.presentation or f.rank != 1:
        raise InputError("pushforward: f must be a rank-1 map defined on R")
    target = f.targets[0]
    check_map_respects_relations(f, anchor=ANCHOR_PUSHFORWARD).require(
        "pushforward: f is not an algebra map; fails on {subject}")

    images = {}
    for atom, lift in section.items():
        target.atom_key(atom)
        if not isinstance(lift, Element) or lift.presentation is not h.presentation:
            raise InputError(f"pushforward: section of {atom!r} must be an element of R")
        if f.apply_element(lift) != target.atom_element(atom):
            raise InputError(f"pushforward: section of {atom!r} is not a preimage under f")
        t = h.mu.apply(lift)
        for slot in range(3):
            t = t.expand_slot(slot, f)
        images[atom] = t
    missing = [g.name for g in target.generators if g.name not in images]
    if missing:
        raise InputError(f"pushforward: section does not cover generator {missing[0]!r}")

    mu_b = mu_map(target, images, name=f"{h.mu.name}_pushforward")
    check_map_respects_relations(mu_b, anchor=ANCHOR_PUSHFORWARD).require(
        "pushforward: induced map does not respect quotient relation {subject}")
    return HopfGaloisStructure(target, mu_b)


# ----------------------------------------------------------------------
# Hopf structures and the Prop 2.4 conversions

ANCHOR_HOPF_COASSOC = "Hopf coassociativity"
ANCHOR_HOPF_COUNIT = "Hopf counit law"
ANCHOR_HOPF_ANTIPODE = "Hopf antipode law"


class HopfStructure:
    """Comultiplication, counit, and antipode given on generators.

    The antipode is registered as a map into the opposite algebra, which
    makes its multiplicative extension an anti-homomorphism, as it must be.
    """

    def __init__(self, presentation, delta: GeneratorMap, counit: GeneratorMap,
                 antipode: GeneratorMap):
        expected = {
            "delta": (delta, 2, (PLAIN, PLAIN)),
            "counit": (counit, 0, ()),
            "antipode": (antipode, 1, (OP,)),
        }
        for label, (gmap, rank, sig) in expected.items():
            if gmap.source is not presentation:
                raise InputError(f"{label} is not defined on the given presentation")
            if gmap.rank != rank or gmap.signature != sig:
                raise InputError(f"{label} has the wrong rank or twist signature")
            if any(t is not presentation for t in gmap.targets):
                raise InputError(f"{label} must map back into the same presentation")
        self.presentation = presentation
        self.delta = delta
        self.counit = counit
        self.antipode = antipode

    def __repr__(self):
        return f"HopfStructure({self.presentation!r})"


def hopf_structure(presentation, delta_images, counit_images, antipode_images) -> HopfStructure:
    delta = GeneratorMap(presentation, (presentation, presentation), (PLAIN, PLAIN),
                         delta_images, name="Delta")
    counit = GeneratorMap.scalar_map(presentation, counit_images, name="epsilon")
    antipode = GeneratorMap.anti_algebra_map(presentation, presentation,
                                             antipode_images, name="S")
    return HopfStructure(presentation, delta, counit, antipode)


def check_hopf(hs: HopfStructure) -> VerificationReport:
    pres = hs.presentation
    report = VerificationReport()
    report.extend(check_map_respects_relations(hs.delta, anchor=ANCHOR_HOPF_COASSOC))
    report.extend(check_map_respects_relations(hs.counit, anchor=ANCHOR_HOPF_COUNIT))
    report.extend(check_map_respects_relations(hs.antipode, anchor=ANCHOR_HOPF_ANTIPODE))
    for atom in pres.atoms:
        d = hs.delta.apply_word((atom,))
        a_elem = pres.atom_element(atom)
        subject = f"generator {atom}"
        report.add_vanishing("coassociativity", ANCHOR_HOPF_COASSOC, subject,
                             d.expand_slot(0, hs.delta) - d.expand_slot(1, hs.delta))
        report.add_vanishing("counit law (left)", ANCHOR_HOPF_COUNIT, subject,
                             d.expand_slot(0, hs.counit).to_element() - a_elem)
        report.add_vanishing("counit law (right)", ANCHOR_HOPF_COUNIT, subject,
                             d.expand_slot(1, hs.counit).to_element() - a_elem)
        target = pres.scalar(hs.counit.apply_word((atom,)).scalar())
        report.add_vanishing("antipode law (left)", ANCHOR_HOPF_ANTIPODE, subject,
                             d.expand_slot(0, hs.antipode).fold_adjacent(0).to_element() - target)
        report.add_vanishing("antipode law (right)", ANCHOR_HOPF_ANTIPODE, subject,
                             d.expand_slot(1, hs.antipode).fold_adjacent(0).to_element() - target)
    return report


def hopf_to_galois(hs: HopfStructure) -> HopfGaloisStructure:
    """mu(x) = x_1 ⊗ S(x_2) ⊗ x_3, from the double comultiplication."""
    pres = hs.presentation
    images = {}
    for atom in pres.atoms:
        d2 = hs.delta.apply_word((atom,)).expand_slot(0, hs.delta)
        with_s = d2.slot_transform(1, hs.antipode.apply_element)
        images[atom] = TensorElement(with_s.factors, MU_SIGNATURE, with_s.terms,
                                     with_s.field, normalize=False)
    return HopfGaloisStructure(pres, mu_map(pres, images))


def galois_to_hopf(h: HopfGaloisStructure, alpha: GeneratorMap) -> HopfStructure:
    """Delta(x) = alpha(x_2) x_1 ⊗ x_3 and S(x) = alpha(x_1 x_3) x_2, with
    counit alpha; alpha must be a unital algebra map into the field."""
    pres = h.presentation
    if alpha.source is not pres or alpha.rank != 0:
        raise InputError("galois_to_hopf: alpha must be a scalar-valued map on R")
    check_map_respects_relations(alpha, anchor=ANCHOR_HG_TO_HOPF).require(
        "galois_to_hopf: alpha is not an algebra map; fails on {subject}")

    delta_images = {}
    antipode_images = {}
    for atom in pres.atoms:
        t = h.mu.apply_word((atom,)).terms
        delta_terms = linear_terms(
            t, lambda k: {(k[0], k[2]): alpha.apply_word(k[1]).scalar()})
        delta_images[atom] = TensorElement((pres, pres), (PLAIN, PLAIN),
                                           pres.field.canonical(delta_terms), pres.field,
                                           normalize=False)
        antipode_images[atom] = Element(pres, pres.field.canonical(linear_terms(
            t, lambda k: {k[1]: alpha.apply_word(k[0] + k[2]).scalar()})))

    delta = GeneratorMap(pres, (pres, pres), (PLAIN, PLAIN), delta_images, name="Delta")
    antipode = GeneratorMap.anti_algebra_map(pres, pres, antipode_images, name="S")
    return HopfStructure(pres, delta, alpha, antipode)
