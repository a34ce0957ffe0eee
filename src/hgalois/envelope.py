"""Degree-truncated presentations of Poisson enveloping algebras.

For a finite-dimensional Poisson algebra A with basis {a_0 = 1, a_1, ...}
the envelope is generated by one symbol a(w) (the algebra-map image) and
one symbol b(w) (the Lie-map image) per non-unit basis word w, subject to

    b_i a_j  ->  a_j b_i + alpha({a_i, a_j})          (commutation)
    b_i b_j  ->  b_j b_i + beta({a_i, a_j})   (i > j)  (straightening)
    a_i a_j  ->  alpha(a_i a_j)                        (product collapse)

together with the linear consequences of

    beta(a_i a_j) = alpha(a_i) beta(a_j) + alpha(a_j) beta(a_i),

which are closed under left multiplication by the a-symbols and solved by
exact Gaussian elimination; each echelon row becomes one more rewrite
rule (this is where identities like beta(g) -> 0 on k[g]/(g^2-1) appear).
Consequences in higher beta-degree that the linear pass cannot see are
derived afterwards by bounded critical-pair completion, and the finished
rule set is required to be locally confluent at the cap.  a(1) is the
empty word and b(1) is zero, both forced by the defining laws.
"""

import itertools
import math
from functools import partial

from .errors import InputError
from .hopf_galois import MU_SIGNATURE
from .maps import GeneratorMap, check_map_respects_relations
from .poisson import TRIPLE_SIGNS, PoissonStructure
from .presentations import (
    AlgebraPresentation,
    Element,
    GeneratorSymbol,
    SparseEchelon,
    axpy,
    linear_terms,
    word_str,
)
from .reports import VerificationReport
from .tensors import TensorElement, add_outer

ANCHOR_DEFINING = "Def 5.1 Eq (5.1)"
ANCHOR_MIRROR = "Remark 5.4 Eq (5.1')"
ANCHOR_SWAPPED = "Lemma 5.3 Eq (5.3)"
ANCHOR_OP_PRODUCT = "Remark 5.4 Eq (5.4)"
ANCHOR_OP_BRACKET = "Remark 5.4 Eq (5.5)"
ANCHOR_XI_LIE = "Lemma 5.5(2) Eq (5.6)"
ANCHOR_ALPHA3_HOM = "Lemma 5.5(1)"
ANCHOR_STEP2_BRACKET = "Lemma 5.7 step 2 (bracket law)"
ANCHOR_STEP2_PRODUCT = "Lemma 5.7 step 2 (product law)"
ANCHOR_UMU = "Theorem 5.9 Eq (5.16)"
ANCHOR_5_17 = "Theorem 5.9 Eq (5.17)"


def _basis_label(word) -> str:
    return word_str(word).replace("^", "").replace("*", ".")


class EnvelopePresentation:
    """The built envelope together with the two structure maps.

    alpha and beta are linear, so each is kept as the image term map of
    every source basis word, computed once from the finished presentation,
    which the constructor freezes.
    `relation_report` is the `relation_instance_report` that
    `build_envelope` ran on it (None for an envelope made by hand).
    """

    def __init__(self, source: PoissonStructure, basis, presentation,
                 alpha_names, beta_names):
        self.source = source
        self.basis = basis
        self.presentation = presentation
        self.alpha_names = alpha_names
        self.beta_names = beta_names
        self.relation_report = None
        presentation.freeze()
        atom_terms = [presentation.atom_element(name).terms
                      for name in alpha_names[1:] + beta_names[1:]]
        one = presentation.one().terms
        n = len(basis)
        self.alpha_images = dict(zip(basis, [one] + atom_terms[:n - 1]))
        self.beta_images = dict(zip(basis, [{}] + atom_terms[n - 1:]))

    @staticmethod
    def word_image(images, word) -> dict:
        """The image term map of a source basis word under alpha or beta."""
        image = images.get(word)
        if image is None:
            raise InputError(f"word {word_str(word)} is not a basis word")
        return image

    def _map_of(self, images, value: Element) -> Element:
        if value.presentation is not self.source.presentation:
            raise InputError("element does not belong to the enveloped Poisson algebra")
        return Element(self.presentation, self.presentation.field.canonical(linear_terms(
            value.terms, partial(self.word_image, images))))

    def alpha_of(self, value: Element) -> Element:
        """The algebra-map image; alpha(1) is the unit."""
        return self._map_of(self.alpha_images, value)

    def beta_of(self, value: Element) -> Element:
        """The Lie-map image; beta(1) is zero."""
        return self._map_of(self.beta_images, value)

    def normal_form(self, value) -> Element:
        return self.presentation.normal_form(value)

    def basis_element(self, i) -> Element:
        src = self.source.presentation
        return src.element({self.basis[i]: src.field.one})

    def __repr__(self):
        return f"EnvelopePresentation(dim {len(self.basis)} source; {self.presentation!r})"


def build_envelope(p: PoissonStructure, cap: int = 6) -> EnvelopePresentation:
    pres = p.presentation
    field = pres.field
    basis = pres.finite_basis()
    if basis is None:
        raise InputError(f"enveloping requires a finite basis, and {pres.basis_limits()}")
    n = len(basis)
    if basis[0] != ():
        raise InputError("basis does not contain the unit word")
    table = pres.multiplication_table()
    elems = [Element(pres, {w: field.one}) for w in basis]

    labels = [_basis_label(w) for w in basis]
    if len(set(labels)) != n:
        labels = [str(i) for i in range(n)]
    alpha_names = [None] + [f"a[{labels[i]}]" for i in range(1, n)]
    beta_names = [None] + [f"b[{labels[i]}]" for i in range(1, n)]
    generators = [GeneratorSymbol(name) for name in alpha_names[1:] + beta_names[1:]]
    env_pres = AlgebraPresentation(field, generators, cap=cap, name=f"U({pres.name or 'A'})")

    add = env_pres.add_rule_data
    for i in range(1, n):
        for j in range(1, n):
            br = pres.coeff_vector(p.bracket(elems[i], elems[j]))
            add((alpha_names[i], alpha_names[j]), _alpha_words(table[(i, j)], alpha_names))
            # the swapped word has length 2 and the bracket part's words at most
            # length 1, so the two parts share no key
            add((beta_names[i], alpha_names[j]), {
                (alpha_names[j], beta_names[i]): field.one, **_alpha_words(br, alpha_names)})
            if i > j:
                add((beta_names[i], beta_names[j]), {
                    (beta_names[j], beta_names[i]): field.one, **_beta_words(br, beta_names)})
    for lhs, rhs in _product_relation_rules(field, env_pres.word_key, n, table,
                                            alpha_names, beta_names):
        add(lhs, rhs)

    # the seeded rules generate the right algebra but may miss oriented
    # consequences in higher beta-degree; complete_rules derives them
    env_pres.complete_rules()
    env = EnvelopePresentation(p, basis, env_pres, alpha_names, beta_names)
    env.relation_report = relation_instance_report(env)
    env.relation_report.require("envelope defining laws do not close: {check} fails on {subject}")
    return env


def _alpha_words(vec, alpha_names) -> dict:
    """A coordinate vector {basis index: coeff} as a map of alpha words;
    a(1) is the empty word.  Distinct indices give distinct words."""
    return {(() if k == 0 else (alpha_names[k],)): c for k, c in vec.items()}


def _beta_words(vec, beta_names) -> dict:
    """A coordinate vector as a map of beta words; b(1) is zero."""
    return {(beta_names[k],): c for k, c in vec.items() if k}


def _product_relation_rules(field, word_order, n, table, alpha_names, beta_names):
    """Echelonized consequences of beta(a_i a_j) = a_i b_j + a_j b_i.

    Relation vectors live in the span of the words b_k and a_m b_k; the
    span is closed under left multiplication by each a_p, and the closure
    is row-reduced with the largest word under `word_order` (the
    envelope's deg-lex key) as pivot.
    """
    one = field.one

    def left_mult(p_idx, vec):
        def image(word):
            if len(word) == 1:  # (b_k,)
                return {(alpha_names[p_idx],) + word: one}
            m = alpha_names.index(word[0])  # (a_m, b_k)
            return {w + word[1:]: c for w, c in
                    _alpha_words(table[(p_idx, m)], alpha_names).items()}
        return linear_terms(vec, image)

    queue = []
    for i in range(1, n):
        for j in range(i, n):
            vec = _beta_words(table[(i, j)], beta_names)
            for m, k in ((i, j), (j, i)):
                axpy(vec, {(alpha_names[m], beta_names[k]): one}, -one)
            queue.append(vec)

    echelon = SparseEchelon(word_order, field)
    while queue:
        vec, lead = echelon.reduce(queue.pop(0))
        if lead is not None:
            monic = echelon.insert(vec, lead)
            queue.extend(left_mult(p_idx, monic) for p_idx in range(1, n))
    return [(lead, field.canonical({w: -c for w, c in echelon.rows[lead].items() if w != lead}))
            for lead in sorted(echelon.rows, key=word_order)]


def relation_instance_report(env: EnvelopePresentation) -> VerificationReport:
    """Every defining law and its mirrored and opposite-product variants,
    instantiated on all basis pairs, must reduce to zero.

    The opposite-product laws live in U ⊗ U^op ⊗ U on mid(u) = 1 ⊗ u ⊗ 1,
    and mid(u) mid(v) = mid(v u) in the op slot, so each is mid(d) of an
    envelope law d reduced here: the opposite product law is mid of the
    mirrored product law, its mirror mid of the defining product law, the
    opposite commutator mid of the defining commutator and its mirror mid
    of the mirrored commutator.  The words of a normal form are normal, so
    `in_middle(d)` = mid(d) needs no reduction.  The swapped-role
    commutator is the mirrored commutator term for term.
    """
    p = env.source
    pres = p.presentation
    envp = env.presentation
    factors, field = (envp, envp, envp), envp.field
    report = VerificationReport()

    def in_middle(d: Element) -> TensorElement:
        return TensorElement(factors, MU_SIGNATURE, {((), w, ()): c for w, c in d.terms.items()},
                             field, normalize=False)

    report.add_vanishing("beta kills the unit", ANCHOR_DEFINING, "basis word 1",
                         env.beta_of(pres.one()))

    basis_elems = [env.basis_element(i) for i in range(len(env.basis))]
    for i, j in itertools.product(range(1, len(env.basis)), repeat=2):
        ei, ej = basis_elems[i], basis_elems[j]
        label = f"pair ({word_str(env.basis[i])},{word_str(env.basis[j])})"
        a_i, a_j = env.alpha_of(ei), env.alpha_of(ej)
        b_i, b_j = env.beta_of(ei), env.beta_of(ej)
        a_br, b_prod = env.alpha_of(p.bracket(ei, ej)), env.beta_of(ei * ej)
        ai_bj, bj_ai, bi_aj, aj_bi = a_i * b_j, b_j * a_i, b_i * a_j, a_j * b_i

        defining_comm = a_br - (bi_aj - aj_bi)
        defining_prod = b_prod - (ai_bj + aj_bi)
        mirrored_comm = a_br - (ai_bj - bj_ai)
        mirrored_prod = b_prod - (bi_aj + bj_ai)
        for name, anchor, diff in [
            ("defining commutator", ANCHOR_DEFINING, defining_comm),
            ("defining product law", ANCHOR_DEFINING, defining_prod),
            ("mirrored commutator", ANCHOR_MIRROR, mirrored_comm),
            ("mirrored product law", ANCHOR_MIRROR, mirrored_prod),
            ("swapped-role commutator", ANCHOR_SWAPPED, mirrored_comm),
            ("opposite product law", ANCHOR_OP_PRODUCT, in_middle(mirrored_prod)),
            ("opposite product law (mirrored)", ANCHOR_OP_PRODUCT, in_middle(defining_prod)),
            ("opposite commutator", ANCHOR_OP_BRACKET, in_middle(defining_comm)),
            ("opposite commutator (mirrored)", ANCHOR_OP_BRACKET, in_middle(mirrored_comm)),
        ]:
            report.add_vanishing(name, anchor, label, diff)
    return report


# the slot patterns of the two maps of the triple tensor: per slot, 0 takes
# the alpha image and 1 the beta image of the source word in that slot
SLOT_PATTERNS = {"alpha3": ((0, 0, 0),),
                 "xi": ((0, 0, 1), (0, 1, 0), (1, 0, 0))}


class TripleEnvelope:
    """U(A) ⊗ U(A)^op ⊗ U(A) with the two structure maps of the triple
    tensor: the slot-wise algebra map and the three-term Lie map xi.

    Both maps are linear and read the envelope's image of each source
    basis word, fixed with its frozen presentation: `xi` and `alpha3` add
    one outer product per term of their argument and per slot pattern
    straight into one term map, and wrap it once (`tensor`).
    """

    def __init__(self, envelope: EnvelopePresentation):
        self.envelope = envelope
        envp = envelope.presentation
        self.factors = (envp, envp, envp)
        self.signature = MU_SIGNATURE
        self._zero = TensorElement.zero(self.factors, self.signature, envp.field)

    def tensor(self, terms: dict) -> TensorElement:
        """The tensor of U ⊗ U^op ⊗ U with the term map `terms` of normal
        slot words, its coefficients made canonical, built without the
        checks of `TensorElement.__init__`."""
        zero = self._zero
        return zero._like(zero.field.canonical(terms))

    def _apply(self, name, t: TensorElement) -> TensorElement:
        env = self.envelope
        src = env.source.presentation
        if t.rank != 3 or any(f is not src for f in t.factors):
            raise InputError("expected a rank-3 tensor over the enveloped algebra")
        images = (env.alpha_images, env.beta_images)
        out: dict = {}
        for words, coeff in t.terms.items():
            for pattern in SLOT_PATTERNS[name]:
                add_outer(out, [env.word_image(images[m], w) for m, w in zip(pattern, words)],
                          coeff, src.field)
        return self.tensor(out)

    def alpha3(self, t: TensorElement) -> TensorElement:
        return self._apply("alpha3", t)

    def xi(self, t: TensorElement) -> TensorElement:
        """xi = alpha⊗alpha⊗beta + alpha⊗beta⊗alpha + beta⊗alpha⊗alpha."""
        return self._apply("xi", t)


def _nf_key(pres, word):
    """The normal form of `word` in `pres`, as a hashable key."""
    return frozenset(pres.reduce_terms({word: pres.field.one}).items())


def sample_word_fault(pres, words):
    """(where, reason) for the first fault of `words` as Lemma 5.5 sample
    words, or None.  `where` is "" for the list itself and "[i]" for word
    i.  Every law would be vacuous for an empty list or on a word whose
    normal form in `pres` is zero, and a word whose normal form is that of
    an earlier word j would repeat every law on equal tensors; the reason
    names j, and both words when they differ."""
    if not words:
        return "", "no sample words, so every law would be vacuous"
    first: dict = {}
    for i, w in enumerate(words):
        key = _nf_key(pres, w)
        if not key:
            return f"[{i}]", (f"{word_str(w)} has normal form zero, so every law "
                              "on it would be vacuous")
        j = first.setdefault(key, i)
        if j != i:
            if words[j] == w:
                return f"[{i}]", f"repeats sample word [{j}]"
            return f"[{i}]", (f"{word_str(w)} has the normal form of sample word "
                              f"[{j}], {word_str(words[j])}")
    return None


def add_products(out: dict, one, *parts) -> None:
    """out += scale * left * right over the parts (scale, tables, left,
    right): left and right are lists of index triples, and the index pair
    (x_s, y_s) reads the entry tables[s][x_s][y_s], a tuple of (word,
    coeff) items, in slot s, so each pair of triples adds one outer product
    of three entries.  The terms go straight into `out`: a missing key
    takes the product itself and zero sums are dropped (as in `axpy`), a
    factor that is the field's shared `one` is not multiplied in, and a
    scale of -1 (the only other scale) negates the first slot's factor.
    Like `add_outer`, it leaves int representatives over GF(p) for the
    caller to pass through `field.canonical`; over Q `check_lemma55`
    passes it int coefficients too, scaled by D, and never a `Fraction`."""
    for scale, (t0, t1, t2), left, right in parts:
        negate = scale < 0
        for x0, x1, x2 in left:
            r0, r1, r2 = t0[x0], t1[x1], t2[x2]
            for y0, y1, y2 in right:
                e1, e2 = r1[y1], r2[y2]
                for w0, c0 in r0[y0]:
                    if negate:
                        c0 = -c0
                    for w1, c1 in e1:
                        c01 = c0 if c1 is one else c0 * c1
                        for w2, c2 in e2:
                            c = c01 if c2 is one else c01 * c2
                            key = (w0, w1, w2)
                            s = out[key] + c if key in out else c
                            if s:
                                out[key] = s
                            else:
                                out.pop(key, None)


def check_lemma55(te: TripleEnvelope, sample_words=None) -> VerificationReport:
    """The Lie law of xi, the algebra-map law of the slot-wise map, and the
    two mixed laws tying them together, over all pairs of pure tensors with
    slots drawn from the sample words, which must be at least one word,
    none of normal form zero, with distinct normal forms (default: the unit
    and the generators, the first word of each nonzero normal form).

    A sample triple t_i = e_a ⊗ e_b ⊗ e_c is a pure tensor, products and
    brackets are slot-wise, and alpha and beta are linear, so every law is
    a signed sum of outer products of table entries filled once per check:
    for K sample words, the (2K)^2 products in U of the slot images
    alpha(e_k) and beta(e_k), and the alpha and beta images of the K^2
    products and the K^2 brackets of the e_k in A, each reduced under its
    presentation's cap and kept as a tuple of (word, coeff) items.
    xi(t_i) and alpha3(t_i) are lists of slot-image index triples, so
    xi(t_i) xi(t_j) is one outer product per pattern pair, the op slot
    multiplied in reverse.  A map's image of t_i t_j is one outer product
    of product images per slot pattern of the map, the op slot again in
    reverse, and its image of {t_i, t_j} is one per slot pattern and
    bracketed slot n, signed TRIPLE_SIGNS[n], with slot n read from the
    bracket images and the other slots from the product images in order,
    the op slot included, as `triple_bracket` multiplies them.  Every
    outer product is summed by one kernel (`add_products`).
    Each law is summed in one term map and made canonical once; a law
    whose map is then empty passes and builds no tensor, and only a
    failing law wraps its map as the witness (`TripleEnvelope.tensor`).
    Over Q every coefficient of the tables is scaled by D, the lcm of all
    their denominators, so the kernel sums plain ints: each outer product
    has three factors, a law's map is D^3 times its value, and only a
    failing law's map is divided by D^3 to give its witness.

    Two image-product parts are summed once per unordered pair i < j and
    held until the pair (j, i): the Lie law's -xi(t_i)xi(t_j) +
    xi(t_j)xi(t_i), which (j, i) adds negated, and the product law's
    -(alpha3(t_i)xi(t_j) + alpha3(t_j)xi(t_i)), which (j, i) adds as it
    is.  On the diagonal the Lie part cancels and is not formed.  The
    images of {t_i, t_j} and t_i t_j, and the image products of the other
    two laws, are summed for every ordered pair, so no verdict rests
    on the bracket being antisymmetric.
    """
    env = te.envelope
    p = env.source
    pres = p.presentation
    field = pres.field
    if sample_words is None:  # one word per nonzero normal form
        default = {}
        for w in [()] + [(a,) for a in pres.atoms]:
            key = _nf_key(pres, w)
            if key:
                default.setdefault(key, w)
        sample_words = list(default.values())
    sample_words = [pres.validate_word(w) for w in sample_words]
    fault = sample_word_fault(pres, sample_words)
    if fault:
        raise InputError("sample_words%s: %s" % fault)
    elems = [pres.element({w: field.one}) for w in sample_words]
    k = len(elems)
    combos = list(itertools.product(range(k), repeat=3))
    labels = ["(" + ",".join(word_str(sample_words[n]) for n in combo) + ")" for combo in combos]

    def images(rows):
        """The alpha and beta images of a table of source term maps."""
        return [[[image(Element(pres, x)).terms for x in row] for row in rows]
                for image in (env.alpha_of, env.beta_of)]

    # slot image m * k + l is alpha(e_l) for m = 0 and beta(e_l) for m = 1
    slots = [env.alpha_of(e).terms for e in elems] + [env.beta_of(e).terms for e in elems]
    envp = env.presentation
    source = [e.terms for e in elems]
    tables = [[[envp.multiply_terms(x, y) for y in slots] for x in slots],
              *images([[pres.multiply_terms(x, y) for y in source] for x in source]),
              *images([[p.bracket_terms(x, y) for y in source] for x in source])]
    # D, the lcm of the tables' denominators, over Q only
    lcd = None if field.characteristic else math.lcm(*{
        c.denominator for rows in tables for row in rows for terms in row for c in terms.values()})

    def items(rows):
        """A table of term maps as a table of (word, coeff) item tuples,
        each coeff scaled by D over Q."""
        if lcd is None:
            return [[tuple(terms.items()) for terms in row] for row in rows]
        return [[tuple((w, c.numerator * (lcd // c.denominator)) for w, c in terms.items())
                 for terms in row] for row in rows]

    def by_slot(rows):
        """A product table read as [left][right] in each slot of the triple
        tensor: an op slot multiplies in reverse."""
        return tuple([[list(col) for col in zip(*rows)] if op else rows for op in MU_SIGNATURE])

    u, *tables = map(items, tables)
    u, products, brackets = by_slot(u), tables[:2], tables[2:]
    product_slots = [by_slot(table) for table in products]

    def image_parts(name):
        """The map's images of t_i t_j and of {t_i, t_j}, each a list of
        (sign, tables) parts; a pattern's slot s reads the alpha or the beta
        images as the pattern names."""
        patterns = SLOT_PATTERNS[name]
        return ([(1, tuple(product_slots[m][s] for s, m in enumerate(pattern)))
                 for pattern in patterns],
                [(sign, tuple((brackets if s == n else products)[m]
                              for s, m in enumerate(pattern)))
                 for n, sign in enumerate(TRIPLE_SIGNS) for pattern in patterns])

    def patterns(name, combo):
        """name(e_a ⊗ e_b ⊗ e_c) as slot-image index triples, one per slot
        pattern whose slots are all nonzero (beta(1) = 0)."""
        out = []
        for pattern in SLOT_PATTERNS[name]:
            index = [m * k + l for m, l in zip(pattern, combo)]
            if all(slots[n] for n in index):
                out.append(index)
        return out

    xi = [patterns("xi", combo) for combo in combos]
    a3 = [patterns("alpha3", combo) for combo in combos]
    xi_product, xi_bracket = image_parts("xi")
    a3_product, a3_bracket = image_parts("alpha3")
    triples = [[combo] for combo in combos]
    report = VerificationReport()
    one = field.one

    def law(check, anchor, image, *parts, part=None, sign=1):
        """The image parts `image` of the pair, plus sign * part, a term map
        shared with the mirrored pair, plus the outer products of `parts`
        (`add_products`); a nonzero sum is the witness."""
        diff: dict = {}
        if part:
            axpy(diff, part, sign)
        add_products(diff, one, *[(scale, tables, t_i, t_j) for scale, tables in image], *parts)
        diff = field.canonical(diff)
        if diff and lcd:  # a failing law over Q: its value is diff / D^3
            diff = {key: field.div(c, lcd ** 3) for key, c in diff.items()}
        report.add_vanishing(check, anchor, label, te.tensor(diff) if diff else None)

    # unordered pair (i, j), i < j -> its Lie and product-law parts, which
    # the pair (j, i) adds with the signs -1 and +1
    shared: dict = {}
    for i, j in itertools.product(range(len(combos)), repeat=2):
        label = f"pair {labels[i]} x {labels[j]}"
        t_i, t_j = triples[i], triples[j]
        x_i, x_j, a_i, a_j = xi[i], xi[j], a3[i], a3[j]
        sign = 1
        if i < j:
            lie, mixed = shared[i, j] = ({}, {})
            add_products(lie, one, (-1, u, x_i, x_j), (1, u, x_j, x_i))
            add_products(mixed, one, (-1, u, a_i, x_j), (-1, u, a_j, x_i))
        elif i > j:
            lie, mixed = shared.pop((j, i))
            sign = -1
        else:  # the Lie part cancels term for term
            lie, mixed = None, {}
            add_products(mixed, one, (-1, u, a_i, x_i), (-1, u, a_i, x_i))
        law("xi is a Lie map", ANCHOR_XI_LIE, xi_bracket, part=lie, sign=sign)
        law("slot-map bracket law", ANCHOR_STEP2_BRACKET, a3_bracket,
            (-1, u, x_i, a_j), (1, u, a_j, x_i))
        law("xi product law", ANCHOR_STEP2_PRODUCT, xi_product, part=mixed)
        law("slot map is multiplicative", ANCHOR_ALPHA3_HOM, a3_product, (-1, u, a_i, a_j))
    return report


def check_thm59(ph, env: EnvelopePresentation) -> VerificationReport:
    """Whether the envelope of a Poisson Hopf-Galois algebra carries the
    induced structure map.

    Builds U(mu) with a-symbols mapped through the slot-wise map and
    b-symbols through xi, reports whether it respects every envelope
    relation, and then evaluates, per basis element, the residue

        beta(a) + alpha(a_(1)) beta(a_(2)) alpha(a_(3)),

    whose vanishing for all a is the exact criterion.
    """
    pres = ph.presentation
    if env.source.presentation is not pres:
        raise InputError("check_thm59: envelope was built over a different algebra")
    te = TripleEnvelope(env)
    envp = env.presentation

    images = {}
    for i in range(1, len(env.basis)):
        mu_i = ph.mu.apply(env.basis_element(i))
        images[env.alpha_names[i]] = te.alpha3(mu_i)
        images[env.beta_names[i]] = te.xi(mu_i)
    umu = GeneratorMap(envp, te.factors, te.signature, images, name="U(mu)")

    report = check_map_respects_relations(umu, anchor=ANCHOR_UMU)
    a, b, image, product = env.alpha_images, env.beta_images, env.word_image, envp.multiply_terms

    def fold(words):
        """alpha(w1) beta(w2) alpha(w3) for a term w1 ⊗ w2 ⊗ w3 of mu(a)."""
        w1, w2, w3 = words
        return product(product(image(a, w1), image(b, w2)), image(a, w3))

    for i in range(len(env.basis)):
        a_elem = env.basis_element(i)
        folded = envp.field.canonical(linear_terms(ph.mu.apply(a_elem).terms, fold))
        report.add_vanishing("condition (5.17)", ANCHOR_5_17,
                             f"basis element {word_str(env.basis[i])}",
                             env.beta_of(a_elem) + Element(envp, folded))
    return report
