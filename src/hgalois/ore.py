"""Ore extensions A[z; tau, delta] and Poisson Ore extensions B[x; alpha, delta],
with the criteria that decide when a structure map extends over them.

delta (a tau-derivation) and alpha (a derivation) are `Derivation`s given
per generator atom, extended to words by the Leibniz rule with a word
table; images of formal inverses default to the forced values
(0 = delta(g g^-1) determines delta(g^-1)) but may be supplied explicitly,
in which case they are taken literally — the extension criteria below then
check the given data instead of silently repairing it.  The name of the
adjoined variable is checked when the data is built.  `validate` runs its
checks once and keeps a success flag, so later calls return at once
(invalid data raises on every call); the data's maps and derivations
freeze the base, so no rule can be added that the flag has not seen.  The
Poisson Ore extension B[x] is kept beside that flag, so the Thm 4.4 check
and the assembly share one build.  One path adjoins the variable for both
kinds of extension, one extends mu for `assemble_ore` and
`assemble_poisson_ore` (mu's images transported, plus mu(z) or mu(x)),
and one guard finds the inverse of g.
"""

import itertools
from functools import partial

from .errors import InputError
from .hopf_galois import MU_SIGNATURE, HopfGaloisStructure, is_grouplike, mu_map
from .maps import Derivation, GeneratorMap, check_map_respects_relations
from .presentations import (
    AlgebraPresentation,
    Element,
    GeneratorSymbol,
    transport_element,
)
from .poisson import PoissonHopfGaloisStructure, PoissonStructure, check_poisson_hg
from .reports import VerificationReport
from .tensors import TensorElement

ANCHOR_ORE_RELATION = "Ore relation z a = tau(a) z + delta(a)"
ANCHOR_THM28 = {1: "Thm 2.8 condition (1)", 2: "Thm 2.8 condition (2)",
                3: "Thm 2.8 condition (3)"}
ANCHOR_THM44 = {6: "Thm 4.4 Eq (4.6)", 7: "Thm 4.4 Eq (4.7)", 8: "Thm 4.4 Eq (4.8)",
                9: "Thm 4.4 Eq (4.9)", 10: "Thm 4.4 Eq (4.10)"}


def _check_variable(base: AlgebraPresentation, variable: str) -> str:
    """The adjoined variable's name: a valid generator name that is not the
    name of a base generator."""
    GeneratorSymbol(variable)
    if variable in {g.name for g in base.generators}:
        raise InputError(f"variable name {variable!r} clashes with a base generator")
    return variable


def grouplike_inverse(caller: str, h: HopfGaloisStructure, g: Element) -> Element:
    """The inverse of g, which must be group-like for h; found once per
    command and handed to the checks and the assembly that need it."""
    glike = is_grouplike(h, g)
    if not glike:
        raise InputError(f"{caller}: g is not group-like ({glike.reason})")
    return glike.inverse


class OreData:
    """Data of an Ore extension: an endomorphism tau and a tau-derivation
    delta of the base algebra, plus the fresh variable name."""

    def __init__(self, base: AlgebraPresentation, tau: GeneratorMap,
                 delta: dict, *, tau_inverse: GeneratorMap = None,
                 variable: str = "z", cap: int = 8):
        for label, m in (("tau", tau), ("tau inverse", tau_inverse)):
            if m is not None and (m.source is not base or m.rank != 1 or m.targets[0] is not base):
                raise InputError(f"{label} must be a rank-1 endomorphism of the base algebra")
        self.base = base
        self.tau = tau
        self.tau_inverse = tau_inverse
        self.variable = _check_variable(base, variable)
        self.cap = cap
        self.delta = Derivation(base, delta, "delta", tau=tau)
        self._valid = False  # set by a successful validate

    def validate(self):
        """Raise InputError unless tau is a (checked) algebra map, the
        supplied tau inverse really inverts it, and delta is well defined
        against every base relation."""
        if self._valid:
            return
        check_map_respects_relations(self.tau, anchor=ANCHOR_ORE_RELATION).require(
            "tau is not an algebra map; fails on {subject}")
        if self.tau_inverse is not None:
            check_map_respects_relations(self.tau_inverse, anchor=ANCHOR_ORE_RELATION).require(
                "tau inverse is not an algebra map; fails on {subject}")
            for atom in self.base.atoms:
                e = self.base.atom_element(atom)
                there = self.tau.apply_element(self.tau_inverse.apply_element(e))
                back = self.tau_inverse.apply_element(self.tau.apply_element(e))
                if there != e or back != e:
                    raise InputError(f"tau inverse does not invert tau on generator {atom}")
        self.delta.check_relations()
        self._valid = True


def _adjoin_variable(base: AlgebraPresentation, variable: str, relations, *,
                     commutative: bool, cap: int, default: str) -> AlgebraPresentation:
    """The base generators plus the checked variable, with `relations`; an
    unnamed base is called `default` in the name of the result."""
    x = _check_variable(base, variable)
    gens = [GeneratorSymbol(g.name, g.invertible) for g in base.generators] + [GeneratorSymbol(x)]
    return AlgebraPresentation(base.field, gens, relations, commutative=commutative, cap=cap,
                               name=f"{base.name or default}[{x}]")


def build_ore(d: OreData) -> AlgebraPresentation:
    """The extension with rewrite rules  z a -> tau(a) z + delta(a); normal
    forms are base words followed by a power of z."""
    d.validate()
    base, z = d.base, d.variable
    relations = list(base.user_relations)
    if base.commutative:
        # regenerated here because the extension itself is noncommutative
        relations.extend(base.commutation_rules())
    for atom in base.atoms:
        tau_a = d.tau.apply_element(base.atom_element(atom))
        # the tau part's words end in z and the delta part's do not: no shared key
        rhs = {**{w + (z,): c for w, c in tau_a.terms.items()}, **d.delta.images[atom].terms}
        relations.append(((z, atom), rhs))
    return _adjoin_variable(base, z, relations, commutative=False, cap=d.cap, default="A")


def check_thm28(d: OreData, h: HopfGaloisStructure, g: Element,
                g_inv: Element = None) -> VerificationReport:
    """The three tensor identities that make mu extend over A[z; tau, delta]
    with mu(z) = z ⊗ 1 ⊗ 1 + g ⊗ g^-1 ⊗ z - g ⊗ g^-1 z ⊗ 1.  `g_inv`, when
    given, is the `grouplike_inverse` of g."""
    if h.presentation is not d.base:
        raise InputError("check_thm28: structure and Ore data disagree on the base algebra")
    if g_inv is None:
        g_inv = grouplike_inverse("check_thm28", h, g)
    d.validate()
    if d.tau_inverse is None:
        raise InputError("check_thm28: condition (3) needs the inverse of tau; supply it")
    base = d.base

    def conj(e: Element) -> Element:
        return g * e * g_inv

    tau = d.tau.apply_element
    tau_inv = d.tau_inverse.apply_element

    report = VerificationReport()
    for atom in base.atoms:
        t = h.mu.apply_word((atom,))
        a_elem = base.atom_element(atom)

        subject = f"generator {atom}"
        mu_tau = h.mu.apply(tau(a_elem))
        first = t.slot_transform(0, tau)
        first_two = first.slot_transform(1, tau)
        all_three = first_two.slot_transform(2, tau)
        report.add_vanishing("mu-tau compatibility", ANCHOR_THM28[1], subject,
                             (mu_tau - first) or (first - all_three))

        lhs2 = t.slot_transform(0, conj).slot_transform(1, conj)
        report.add_vanishing("conjugation matches tau", ANCHOR_THM28[2], subject,
                             lhs2 - first_two)

        term1 = t.slot_transform(0, d.delta.apply)
        g_first = t.slot_transform(0, lambda e: g * e)
        term2 = (g_first.slot_transform(1, lambda e: e * g_inv)
                 .slot_transform(2, d.delta.apply))
        term3 = g_first.slot_transform(1, lambda e: g_inv * d.delta.apply(tau_inv(conj(e))))
        rhs3 = h.mu.apply(d.delta.apply(a_elem))
        report.add_vanishing("delta compatibility", ANCHOR_THM28[3], subject,
                             (term1 + term2 + term3) - rhs3)
    return report


def mu_z_tensor(ore_pres, g: Element, g_inv: Element, variable: str) -> TensorElement:
    """mu(z) = z ⊗ 1 ⊗ 1 + g ⊗ g^-1 ⊗ z - g ⊗ g^-1 z ⊗ 1 over the extension
    (also mu(x) of a Poisson Ore extension, Thm 4.4 Eq (4.5))."""
    g_t = transport_element(g, ore_pres)
    gi_t = transport_element(g_inv, ore_pres)
    z_el = ore_pres.atom_element(variable)
    one = ore_pres.one()
    return (TensorElement.outer([z_el, one, one], MU_SIGNATURE)
            + TensorElement.outer([g_t, gi_t, z_el], MU_SIGNATURE)
            - TensorElement.outer([g_t, gi_t * z_el, one], MU_SIGNATURE))


def _mu_extender(caller: str, h: HopfGaloisStructure, g: Element, variable: str, g_inv):
    """The function that extends mu over an extension `ext` by `variable`:
    h's images transported, plus mu_z_tensor.  Without `g_inv`, checks that
    g is group-like."""
    if g_inv is None:
        g_inv = grouplike_inverse(caller, h, g)

    def extend(ext: AlgebraPresentation) -> HopfGaloisStructure:
        images = {atom: img.transport((ext, ext, ext)) for atom, img in h.mu.images.items()}
        images[variable] = mu_z_tensor(ext, g, g_inv, variable)
        return HopfGaloisStructure(ext, mu_map(ext, images))
    return extend


def assemble_ore(d: OreData, h: HopfGaloisStructure, g: Element,
                 g_inv: Element = None) -> HopfGaloisStructure:
    """A[z; tau, delta] with mu extended by mu(z), for data that passed Thm 2.8."""
    extend = _mu_extender("assemble_ore", h, g, d.variable, g_inv)
    return extend(build_ore(d))


# ----------------------------------------------------------------------
# Poisson Ore extensions

class PoissonOreData:
    """Data of a Poisson Ore extension: a Poisson derivation alpha and a
    multiplicative derivation delta of the base, extending the bracket by
    {x, b} = alpha(b) x + delta(b)."""

    def __init__(self, base: PoissonStructure, alpha: dict, delta: dict,
                 *, variable: str = "x", cap: int = 8):
        self.base = base
        self.variable = _check_variable(base.presentation, variable)
        self.cap = cap
        self.alpha = Derivation(base.presentation, alpha, "alpha")
        self.delta = Derivation(base.presentation, delta, "delta")
        self._valid = False  # set by a successful validate
        self._extension = None  # B[x], once built

    def validate(self):
        """Check well-definedness against the base relations, that alpha is
        a Poisson derivation, and the twisted Lie rule for delta."""
        if self._valid:
            return
        pres = self.base.presentation
        p = self.base
        self.alpha.check_relations()
        self.delta.check_relations()
        for s, t in itertools.combinations(pres.atoms, 2):
            es, et = pres.atom_element(s), pres.atom_element(t)
            br = p.bracket(es, et)
            a_lhs = self.alpha.apply(br)
            a_rhs = p.bracket(self.alpha.apply(es), et) + p.bracket(es, self.alpha.apply(et))
            if a_lhs != a_rhs:
                raise InputError(f"alpha is not a Poisson derivation: fails on pair ({s},{t})")
            d_lhs = self.delta.apply(br)
            d_rhs = (p.bracket(self.delta.apply(es), et)
                     + p.bracket(es, self.delta.apply(et))
                     + self.alpha.apply(es) * self.delta.apply(et)
                     - self.delta.apply(es) * self.alpha.apply(et))
            if d_lhs != d_rhs:
                raise InputError(f"delta fails the twisted Lie rule on pair ({s},{t})")
        self._valid = True

    def extension(self) -> AlgebraPresentation:
        """B[x] (`extension_presentation`), built once."""
        if self._extension is None:
            self._extension = extension_presentation(self)
        return self._extension


def extension_presentation(d: PoissonOreData) -> AlgebraPresentation:
    """The commutative polynomial extension B[x] (no bracket validation)."""
    pres = d.base.presentation
    return _adjoin_variable(pres, d.variable, list(pres.user_relations),
                            commutative=True, cap=d.cap, default="B")


def build_poisson_ore(d: PoissonOreData) -> PoissonStructure:
    """B[x] with bracket table extended by {x, b} = alpha(b) x + delta(b)."""
    d.validate()
    pres = d.base.presentation
    ext = d.extension()
    x_el = ext.atom_element(d.variable)
    table = {pair: transport_element(value, ext) for pair, value in d.base.table.items()}
    for gen in pres.generators:
        alpha_g = transport_element(d.alpha.images[gen.name], ext)
        delta_g = transport_element(d.delta.images[gen.name], ext)
        table[(d.variable, gen.name)] = alpha_g * x_el + delta_g
    return PoissonStructure(ext, table)


def check_thm44(d: PoissonOreData, ph: PoissonHopfGaloisStructure,
                g: Element) -> VerificationReport:
    """The five identities deciding whether the bracket extension carries
    the structure map mu(x) = x⊗1⊗1 - g⊗g^-1 x⊗1 + g⊗g^-1⊗x; on success the
    assembled extension is itself re-checked as a Poisson Hopf-Galois algebra.

    The identities are evaluated on the supplied alpha/delta images as
    data; consistency of those images is deliberately part of what the
    conditions test, not a precondition.
    """
    base = d.base
    pres = base.presentation
    if ph.presentation is not pres:
        raise InputError("check_thm44: structure and Ore data disagree on the base algebra")
    g_inv = grouplike_inverse("check_thm44", ph.hopf_galois, g)

    ext = d.extension()
    trip = (ext, ext, ext)
    x_el = ext.atom_element(d.variable)

    to_ext = partial(transport_element, presentation=ext)
    to_base = partial(transport_element, presentation=pres)

    def bracket_ginv_x(e_ext: Element) -> Element:
        # {g^-1 x, b} = g^-1 (alpha(b) x + delta(b)) + {g^-1, b} x  for b in B
        b = to_base(e_ext)
        lead = to_ext(base.bracket(g_inv, b)) * x_el
        core = to_ext(g_inv * d.alpha.apply(b)) * x_el + to_ext(g_inv * d.delta.apply(b))
        return lead + core

    report = VerificationReport()
    atoms = pres.atoms
    for atom in atoms:
        a_elem = pres.atom_element(atom)
        t = ph.mu.apply_word((atom,))

        subject = f"generator {atom}"
        report.add_vanishing("alpha determined by g", ANCHOR_THM44[6], subject,
                             d.alpha.images[atom] - g_inv * base.bracket(g, a_elem))
        report.add_vanishing("mu-alpha compatibility", ANCHOR_THM44[7], subject,
                             ph.mu.apply(d.alpha.apply(a_elem))
                             - t.slot_transform(0, d.alpha.apply))
        report.add_vanishing("third-slot alpha law", ANCHOR_THM44[8], subject,
                             t.slot_transform(2, d.alpha.apply)
                             - t.slot_transform(1, lambda e: g * base.bracket(g_inv, e)))

        t_ext = t.transport(trip)
        lhs10 = ph.mu.apply(d.delta.apply(a_elem)).transport(trip)
        term1 = t_ext.slot_transform(0, lambda e: to_ext(d.delta.apply(to_base(e))))
        g_first = t_ext.slot_transform(0, lambda e: to_ext(g) * e)
        term2 = g_first.slot_transform(1, bracket_ginv_x)
        term3 = (g_first.slot_transform(1, lambda e: to_ext(g_inv) * e)
                 .slot_transform(2, lambda e: to_ext(d.delta.apply(to_base(e)))))
        report.add_vanishing("mu-delta compatibility", ANCHOR_THM44[10], subject,
                             lhs10 - (term1 + term2 + term3))

    for s, t_atom in itertools.combinations(atoms, 2):
        es, et = pres.atom_element(s), pres.atom_element(t_atom)
        report.add_vanishing("alpha cross law", ANCHOR_THM44[9], f"pair ({s},{t_atom})",
                             base.bracket(g_inv, et) * d.alpha.images[s]
                             - base.bracket(g_inv, es) * d.alpha.images[t_atom])

    if report.passed:
        extended = assemble_poisson_ore(d, ph, g, g_inv)
        report.extend(check_poisson_hg(extended))
    return report


def assemble_poisson_ore(d: PoissonOreData, ph: PoissonHopfGaloisStructure,
                         g: Element, g_inv: Element = None) -> PoissonHopfGaloisStructure:
    """The extended Poisson Hopf-Galois structure on B[x]."""
    extend = _mu_extender("assemble_poisson_ore", ph.hopf_galois, g, d.variable, g_inv)
    p_ext = build_poisson_ore(d)
    return PoissonHopfGaloisStructure(p_ext, extend(p_ext.presentation))
