"""Poisson brackets on presented commutative algebras.

The bracket is stored on unordered pairs of plain generators and extended
to everything else by bilinearity, antisymmetry and the Leibniz rule.
Brackets against a formal inverse are forced, never user data:

    {a, g^-1} = -g^-2 {a, g}

which follows from 0 = {a, g^-1 g}.  The bracket {u, v} of each pair of
words, atoms included, is computed once and kept in one word-pair table;
the structure freezes its presentation, so an entry never goes stale.  A
word pair is split at a last letter by the Leibniz rules
{w a, v} = {w, v} a + w {a, v}  and  {a, w b} = {a, w} b + w {a, b},  each
smaller bracket read from the table; the bracket of two elements sums
their coefficient products times the tabled word brackets.  The module
also provides the induced brackets on tensor squares and on the twisted
triple product (with its negative middle term), and the compatibility
checks tying a bracket to a Hopf-Galois or Hopf structure.
"""

import itertools

from .errors import InputError
from .hopf_galois import (
    HopfGaloisStructure,
    HopfStructure,
    pushforward,
)
from .maps import GeneratorMap
from .presentations import Element, axpy, inverse_atom
from .reports import VerificationReport
from .tensors import TensorElement, add_outer, slot_normal_forms

ANCHOR_POISSON = "Def 3.1 Poisson algebra"
ANCHOR_JACOBI = "Def 3.1 Jacobi identity"
ANCHOR_POISSON_HG = "Def 3.5 Eq (3.4)"
ANCHOR_POISSON_HOPF = "Def 3.3 Eq (3.3)"
ANCHOR_COUNIT_BRACKET = "Lemma 3.4 counit kills brackets"
ANCHOR_ANTIPODE_BRACKET = "Lemma 3.4 antipode anti-respects brackets"


class PoissonStructure:
    def __init__(self, presentation, table: dict):
        """table maps pairs of plain generator atoms to Elements; pairs are
        canonicalized to (smaller, larger) with the sign flipped as needed."""
        self.presentation = presentation
        bad = presentation.is_commutative_on_atoms()
        if bad:
            s, t = bad[0]
            raise InputError(
                f"Poisson structures need a commutative algebra; "
                f"{s} and {t} do not commute"
            )
        self.table: dict = {}
        for (a, b), value in table.items():
            for atom in (a, b):
                if presentation.atom_key(atom)[1]:
                    raise InputError(
                        f"bracket value for inverse atom {atom!r} is forced; "
                        f"supply brackets on plain generators only"
                    )
            if not isinstance(value, Element) or value.presentation is not presentation:
                raise InputError(f"bracket value for ({a},{b}) is not an element of the algebra")
            if a == b:
                if value:
                    raise InputError(f"bracket {{{a},{a}}} must vanish")
                continue
            if presentation.atom_key(a) > presentation.atom_key(b):
                a, b, value = b, a, -value
            if (a, b) in self.table and self.table[(a, b)] != value:
                raise InputError(f"conflicting bracket values for pair ({a},{b})")
            self.table[(a, b)] = presentation.normal_form(value)
        presentation.freeze()
        self._word_brackets: dict = {}

    # ------------------------------------------------------------------
    def _forced_atom_bracket(self, s: str, t: str) -> dict:
        """{s, t} for atoms as a term map: the table value, or the value
        forced by antisymmetry or by {a, g^-1} = -g^-2 {a, g}."""
        pres = self.presentation
        if s == t:
            return {}
        if pres.atom_key(s) > pres.atom_key(t):
            return pres.field.canonical({w: -c for w, c in self._word_bracket((t,), (s,)).items()})
        # now s < t in atom order; an inverse atom sorts after its generator
        if pres.atom_key(t)[1]:
            inv, inner = t, self._word_bracket((s,), (inverse_atom(t),))
        elif pres.atom_key(s)[1]:
            inv, inner = s, self._word_bracket((inverse_atom(s),), (t,))
        else:
            value = self.table.get((s, t))
            return {} if value is None else value.terms
        inv_sq = pres.reduce_terms({(inv, inv): pres.field.one})
        return pres.field.canonical({w: -c for w, c in pres.multiply_terms(inv_sq, inner).items()})

    def _word_bracket(self, u, v) -> dict:
        """{u, v} for words as a term map, filled into the word-pair table by
        {w a, v} = {w, v} a + w {a, v}  and  {a, w b} = {a, w} b + w {a, b}."""
        memo = self._word_brackets
        out = memo.get((u, v))
        if out is None:
            if len(u) > 1:
                w, a = u[:-1], u[-1:]
                out = self._leibniz(self._word_bracket(w, v), a, w, self._word_bracket(a, v))
            elif len(v) > 1:
                w, b = v[:-1], v[-1:]
                out = self._leibniz(self._word_bracket(u, w), b, w, self._word_bracket(u, b))
            else:
                out = self._forced_atom_bracket(u[0], v[0]) if u and v else {}
            memo[(u, v)] = out
        return out

    def _leibniz(self, left: dict, a, w, right: dict) -> dict:
        """The normal form of left * a + w * right, for words a and w."""
        pres = self.presentation
        raw = {x + a: c for x, c in left.items()}
        axpy(raw, {w + y: c for y, c in right.items()}, pres.field.one)
        return pres.reduce_terms(raw, operation="multiply")

    def bracket_terms(self, a: dict, b: dict) -> dict:
        """The bracket of two term maps, as a term map: the sum of
        ca * cb * {u, v} over their terms, {u, v} from `_word_bracket`."""
        word_bracket = self._word_bracket
        out: dict = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                axpy(out, word_bracket(wa, wb), ca * cb)
        return self.presentation.field.canonical(out)

    def bracket(self, a: Element, b: Element) -> Element:
        """Bilinear, antisymmetric, Leibniz-in-each-argument extension."""
        pres = self.presentation
        for e in (a, b):
            if not isinstance(e, Element) or e.presentation is not pres:
                raise InputError("bracket: elements must belong to the Poisson algebra")
        return Element(pres, self.bracket_terms(a.terms, b.terms))

    def __repr__(self):
        entries = ", ".join(
            f"{{{a},{b}}}={v}" for (a, b), v in sorted(self.table.items())
        )
        return f"PoissonStructure({self.presentation!r}; {entries or 'zero bracket'})"


def check_poisson(p: PoissonStructure) -> VerificationReport:
    """Commutativity, antisymmetry of the extended bracket, and the Jacobi
    identity on all generator triples (inverse atoms included).  The
    structure refused a non-commuting atom pair and froze its presentation
    when it was built, so the commutativity entry passes without a second
    test."""
    pres = p.presentation
    report = VerificationReport()
    atoms = pres.atoms
    elems = {a: pres.atom_element(a) for a in atoms}
    report.add_vanishing("commutative presentation", ANCHOR_POISSON, "all atom pairs",
                         pres.zero())
    for s, t in itertools.combinations(atoms, 2):
        report.add_vanishing("antisymmetry", ANCHOR_POISSON, f"pair ({s},{t})",
                             p.bracket(elems[s], elems[t]) + p.bracket(elems[t], elems[s]))
    for s, t, u in itertools.combinations_with_replacement(atoms, 3):
        a, b, c = elems[s], elems[t], elems[u]
        report.add_vanishing("Jacobi identity", ANCHOR_JACOBI, f"triple ({s},{t},{u})",
                             p.bracket(a, p.bracket(b, c))
                             + p.bracket(b, p.bracket(c, a))
                             + p.bracket(c, p.bracket(a, b)))
    return report


# the slot signs of the bracket on R ⊗ R^op ⊗ R (`triple_bracket`)
TRIPLE_SIGNS = (1, -1, 1)


def _slotwise_bracket(structures, signs, s: TensorElement, t: TensorElement) -> TensorElement:
    """The bracket of s and t taken slot by slot, term pair by term pair,
    with the brackets of structures[i] in slot i: for pure tensors, the sum
    over slots i of signs[i] times the outer product of the slot products
    with slot i replaced by its bracket.  The factors of s and t are the
    presentations of the structures; each slot word is read as its
    memoised normal form under the degree cap (`slot_normal_forms`)."""
    field = s.field
    out: dict = {}
    right = [(slot_normal_forms(t.factors, k2), c2) for k2, c2 in t.terms.items()]
    for k1, c1 in s.terms.items():
        e1 = slot_normal_forms(s.factors, k1)
        for e2, c2 in right:
            products = [f.multiply_terms(a, b) for f, a, b in zip(s.factors, e1, e2)]
            brackets = [p.bracket_terms(a, b) for p, a, b in zip(structures, e1, e2)]
            coeff = c1 * c2
            for i, sign in enumerate(signs):
                factors = list(products)
                factors[i] = brackets[i]
                add_outer(out, factors, coeff if sign > 0 else -coeff, field)
    return s._like(field.canonical(out))


def tensor_bracket(p_left: PoissonStructure, p_right: PoissonStructure,
                   t1: TensorElement, t2: TensorElement) -> TensorElement:
    """Bracket on A ⊗ B:  {a⊗b, a'⊗b'} = aa' ⊗ {b,b'} + {a,a'} ⊗ bb'."""
    if t1.rank != 2 or t2.rank != 2:
        raise InputError("tensor_bracket needs rank-2 tensors")
    pa, pb = p_left.presentation, p_right.presentation
    if t1.factors != (pa, pb) or t2.factors != (pa, pb):
        raise InputError("tensor factors do not match the Poisson presentations")
    return _slotwise_bracket((p_left, p_right), (1, 1), t1, t2)


def triple_bracket(p: PoissonStructure, s: TensorElement, t: TensorElement) -> TensorElement:
    """Bracket on R ⊗ R^op ⊗ R with the signed middle term:

    {x⊗y⊗z, x'⊗y'⊗z'} = {x,x'}⊗yy'⊗zz' - xx'⊗{y,y'}⊗zz' + xx'⊗yy'⊗{z,z'}.
    """
    pres = p.presentation
    if s.rank != 3 or t.rank != 3:
        raise InputError("triple_bracket needs rank-3 tensors")
    if s.factors != (pres, pres, pres) or t.factors != (pres, pres, pres):
        raise InputError("tensor factors do not match the Poisson presentation")
    if s.signature != t.signature:
        raise InputError("tensor signature mismatch")
    return _slotwise_bracket((p, p, p), TRIPLE_SIGNS, s, t)


# ----------------------------------------------------------------------
# combined structures

class PoissonHopfGaloisStructure:
    def __init__(self, poisson: PoissonStructure, hopf_galois: HopfGaloisStructure):
        if poisson.presentation is not hopf_galois.presentation:
            raise InputError("Poisson and Hopf-Galois structures live on different algebras")
        self.poisson = poisson
        self.hopf_galois = hopf_galois
        self.presentation = poisson.presentation

    @property
    def mu(self):
        return self.hopf_galois.mu


class PoissonHopfStructure:
    def __init__(self, poisson: PoissonStructure, hopf: HopfStructure):
        if poisson.presentation is not hopf.presentation:
            raise InputError("Poisson and Hopf structures live on different algebras")
        self.poisson = poisson
        self.hopf = hopf
        self.presentation = poisson.presentation


def check_poisson_hg(ph: PoissonHopfGaloisStructure) -> VerificationReport:
    """mu({a,b}) = {mu(a), mu(b)} for every unordered generator pair, the
    right side taken with the signed triple-tensor bracket."""
    pres = ph.presentation
    p = ph.poisson
    report = VerificationReport()
    atoms = pres.atoms
    for s, t in itertools.combinations(atoms, 2):
        es, et = pres.atom_element(s), pres.atom_element(t)
        lhs = ph.mu.apply(p.bracket(es, et))
        rhs = triple_bracket(p, ph.mu.apply(es), ph.mu.apply(et))
        report.add_vanishing("mu is a Poisson map", ANCHOR_POISSON_HG, f"pair ({s},{t})",
                             lhs - rhs)
    return report


def check_poisson_hopf(ph: PoissonHopfStructure) -> VerificationReport:
    """Per generator pair: Delta({a,b}) = {Delta a, Delta b} on the tensor
    square, the counit kills brackets, and the antipode anti-respects them."""
    pres = ph.presentation
    p, hs = ph.poisson, ph.hopf
    report = VerificationReport()
    for s, t in itertools.combinations(pres.atoms, 2):
        es, et = pres.atom_element(s), pres.atom_element(t)
        br = p.bracket(es, et)
        subject = f"pair ({s},{t})"
        report.add_vanishing("Delta is a Poisson map", ANCHOR_POISSON_HOPF, subject,
                             hs.delta.apply(br)
                             - tensor_bracket(p, p, hs.delta.apply(es), hs.delta.apply(et)))
        report.add_vanishing("counit kills bracket", ANCHOR_COUNIT_BRACKET, subject,
                             pres.scalar(hs.counit.apply_scalar(br)))
        report.add_vanishing("antipode anti-respects bracket", ANCHOR_ANTIPODE_BRACKET,
                             subject, hs.antipode.apply_element(br)
                             - p.bracket(hs.antipode.apply_element(et),
                                         hs.antipode.apply_element(es)))
    return report


def poisson_pushforward(ph: PoissonHopfGaloisStructure, f: GeneratorMap,
                        section: dict, ideal_generators) -> PoissonHopfGaloisStructure:
    """Quotient by a Poisson ideal: both the bracket and the structure map
    descend.  The ideal generators are checked against every algebra
    generator: each bracket must map to zero in the quotient."""
    pres = ph.presentation
    p = ph.poisson
    for u in ideal_generators:
        if not isinstance(u, Element) or u.presentation is not pres:
            raise InputError("ideal generators must be elements of the source algebra")
        if f.apply_element(u):
            raise InputError(f"ideal generator {u} does not map to zero under f")
        for atom in pres.atoms:
            br = p.bracket(pres.atom_element(atom), u)
            if f.apply_element(br):
                raise InputError(
                    f"not a Poisson ideal: {{{atom}, {u}}} = {br} does not lie in "
                    f"the ideal (pair ({atom}, ideal generator))"
                )
    hg_b = pushforward(ph.hopf_galois, f, section)
    target = f.targets[0]
    table = {}
    for s, t in itertools.combinations([g.name for g in target.generators], 2):
        table[(s, t)] = f.apply_element(p.bracket(section[s], section[t]))
    p_b = PoissonStructure(target, table)
    return PoissonHopfGaloisStructure(p_b, hg_b)
