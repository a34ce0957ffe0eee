"""Independent brute-force evaluators.

Everything here re-implements reduction, tensor products, and map
extension from the raw rule data, without the package's indexing, caching,
or fold helpers, and quantifies laws over entire finite bases instead of
generators.  Checker verdicts are compared against these in the tests.
"""

import itertools
from fractions import Fraction

from hgalois import (
    MU_SIGNATURE,
    ConfluenceError,
    InputError,
    TensorElement,
    VerificationReport,
    word_str,
)


def _mod(field, c):
    """The oracles' own normal form of a coefficient: its residue modulo the
    characteristic p of a prime field, where coefficients are ints, and c
    itself over Q."""
    p = field.characteristic
    return c % p if p else c


def exact_div(a, b, field):
    """a / b without floating point: rational coefficients may be plain ints,
    and `/` on two ints gives a float; over GF(p), the residue of a times
    the inverse of b modulo p."""
    p = field.characteristic
    if p:
        return a * pow(b, -1, p) % p
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def naive_word_reduce(rules, word, field):
    """{word: coeff} normal form by scanning the rule list front to back."""
    terms = {tuple(word): field.one}
    changed = True
    while changed:
        changed = False
        for w in list(terms):
            for lhs, rhs_terms in rules:
                n = len(lhs)
                for pos in range(len(w) - n + 1):
                    if w[pos:pos + n] == lhs:
                        coeff = terms.pop(w)
                        for rw, rc in rhs_terms.items():
                            nw = w[:pos] + rw + w[pos + n:]
                            s = _mod(field, terms.get(nw, field.zero) + coeff * rc)
                            if s:
                                terms[nw] = s
                            else:
                                terms.pop(nw, None)
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    return terms


def rule_data(pres):
    return [(r.lhs, dict(r.rhs_terms)) for r in pres.rules]


def naive_reduce_terms(pres, terms):
    rules = rule_data(pres)
    out = {}
    for w, c in terms.items():
        for nw, nc in naive_word_reduce(rules, w, pres.field).items():
            s = _mod(pres.field, out.get(nw, pres.field.zero) + c * nc)
            if s:
                out[nw] = s
            else:
                out.pop(nw, None)
    return out


def naive_mul(pres, t1, t2):
    raw = {}
    for w1, c1 in t1.items():
        for w2, c2 in t2.items():
            w = w1 + w2
            raw[w] = _mod(pres.field, raw.get(w, pres.field.zero) + c1 * c2)
    return naive_reduce_terms(pres, raw)


def naive_tensor_mul(pres, signature, s, t):
    """Terms are {tuple-of-words: coeff}; op slots reverse the order."""
    out = {}
    for ks, cs in s.items():
        for kt, ct in t.items():
            raw_words = tuple(
                kt[i] + ks[i] if signature[i] else ks[i] + kt[i]
                for i in range(len(signature))
            )
            reduced = [naive_reduce_terms(pres, {w: pres.field.one}) for w in raw_words]
            for combo in itertools.product(*(r.items() for r in reduced)):
                key = tuple(w for w, _ in combo)
                c = cs * ct
                for _, f in combo:
                    c = c * f
                s2 = _mod(pres.field, out.get(key, pres.field.zero) + c)
                if s2:
                    out[key] = s2
                else:
                    out.pop(key, None)
    return out


def naive_apply(pres, signature, images, word):
    """Multiplicative extension of atom images (tensor term dicts)."""
    acc = {tuple(() for _ in signature): pres.field.one}
    for atom in word:
        acc = naive_tensor_mul(pres, signature, acc, images[atom])
    return acc


MU_SIG = (False, True, False)


def tensor_terms(tensor):
    return dict(tensor.terms)


def naive_mu_of_word(pres, mu_images, word):
    return naive_apply(pres, MU_SIG, {a: tensor_terms(t) for a, t in mu_images.items()}, word)


def hg_laws_on_word(pres, mu_images, word):
    """(left law holds, right law holds, rank-5 law holds) for one basis word."""
    field = pres.field
    t = naive_mu_of_word(pres, mu_images, word)

    left = {}
    right = {}
    for (w1, w2, w3), c in t.items():
        for nw, nc in naive_reduce_terms(pres, {w2 + w3: c}).items():
            key = (w1, nw)
            s = _mod(field, left.get(key, field.zero) + nc)
            if s:
                left[key] = s
            else:
                left.pop(key, None)
        for nw, nc in naive_reduce_terms(pres, {w1 + w2: c}).items():
            key = (nw, w3)
            s = _mod(field, right.get(key, field.zero) + nc)
            if s:
                right[key] = s
            else:
                right.pop(key, None)
    left_expected = {(w, ()): c for w, c in naive_reduce_terms(pres, {word: field.one}).items()}
    right_expected = {((), w): c for w, c in naive_reduce_terms(pres, {word: field.one}).items()}

    five_a = {}
    five_b = {}
    for (w1, w2, w3), c in t.items():
        for (u1, u2, u3), cu in naive_mu_of_word(pres, mu_images, w1).items():
            key = (u1, u2, u3, w2, w3)
            s = _mod(field, five_a.get(key, field.zero) + c * cu)
            if s:
                five_a[key] = s
            else:
                five_a.pop(key, None)
        for (u1, u2, u3), cu in naive_mu_of_word(pres, mu_images, w3).items():
            key = (w1, w2, u1, u2, u3)
            s = _mod(field, five_b.get(key, field.zero) + c * cu)
            if s:
                five_b[key] = s
            else:
                five_b.pop(key, None)
    return left == left_expected, right == right_expected, five_a == five_b


def hg_verdict_full_basis(pres, mu_images):
    """All three laws on every basis word, plus relation preservation."""
    basis = pres.finite_basis()
    for word in basis:
        results = hg_laws_on_word(pres, mu_images, word)
        if not all(results):
            return False
    images = {a: tensor_terms(t) for a, t in mu_images.items()}
    for rule in pres.rules:
        lhs = naive_apply(pres, MU_SIG, images, rule.lhs)
        rhs = {}
        for w, c in rule.rhs_terms.items():
            for key, cc in naive_apply(pres, MU_SIG, images, w).items():
                s = _mod(pres.field, rhs.get(key, pres.field.zero) + c * cc)
                if s:
                    rhs[key] = s
                else:
                    rhs.pop(key, None)
        if lhs != rhs:
            return False
    return True


def naive_atom_bracket(p, s, t):
    """Bracket of two atoms from the table, deriving inverse atoms."""
    pres = p.presentation
    field = pres.field
    if s == t:
        return {}
    if pres.atom_key(s) > pres.atom_key(t):
        return {w: _mod(field, -c) for w, c in naive_atom_bracket(p, t, s).items()}
    if pres.atom_key(t)[1]:
        inner = naive_atom_bracket(p, s, t[:-3])
        scaled = naive_mul(pres, {(t, t): -field.one}, inner)
        return scaled
    if pres.atom_key(s)[1]:
        inner = naive_atom_bracket(p, s[:-3], t)
        return naive_mul(pres, {(s, s): -field.one}, inner)
    value = p.table.get((s, t))
    return dict(value.terms) if value is not None else {}


def naive_bracket(p, t1, t2):
    """Double-Leibniz expansion over atom positions; terms are dicts."""
    pres = p.presentation
    field = pres.field
    out = {}
    for wa, ca in t1.items():
        for wb, cb in t2.items():
            for i in range(len(wa)):
                for j in range(len(wb)):
                    core = naive_atom_bracket(p, wa[i], wb[j])
                    if not core:
                        continue
                    rest = naive_mul(pres, {wa[:i] + wa[i + 1:]: ca * cb}, core)
                    rest = naive_mul(pres, rest, {wb[:j] + wb[j + 1:]: field.one})
                    for w, c in rest.items():
                        s = _mod(field, out.get(w, field.zero) + c)
                        if s:
                            out[w] = s
                        else:
                            out.pop(w, None)
    return out


def naive_triple_bracket(p, s, t):
    pres = p.presentation
    field = pres.field
    out = {}

    def shove(sign, first, mid, last):
        for combo in itertools.product(first.items(), mid.items(), last.items()):
            (w1, c1), (w2, c2), (w3, c3) = combo
            key = (w1, w2, w3)
            c = sign * c1 * c2 * c3
            acc = _mod(field, out.get(key, field.zero) + c)
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)

    for (x, y, z), c1 in s.items():
        for (x2, y2, z2), c2 in t.items():
            coeff = c1 * c2
            one = field.one
            xx = naive_mul(pres, {x: coeff}, {x2: one})
            yy = naive_mul(pres, {y: one}, {y2: one})
            zz = naive_mul(pres, {z: one}, {z2: one})
            shove(one, naive_bracket(p, {x: coeff}, {x2: one}), yy, zz)
            shove(-one, xx, naive_bracket(p, {y: one}, {y2: one}), zz)
            shove(one, xx, yy, naive_bracket(p, {z: one}, {z2: one}))
    return out


def poisson_hg_verdict_full_basis(p, mu_images):
    """mu({u,v}) = {mu u, mu v} quantified over all basis pairs."""
    pres = p.presentation
    field = pres.field
    basis = pres.finite_basis()
    images = {a: tensor_terms(t) for a, t in mu_images.items()}
    for u, v in itertools.product(basis, repeat=2):
        br = naive_bracket(p, {u: field.one}, {v: field.one})
        lhs = {}
        for w, c in br.items():
            for key, cc in naive_apply(pres, MU_SIG, images, w).items():
                s = _mod(field, lhs.get(key, field.zero) + c * cc)
                if s:
                    lhs[key] = s
                else:
                    lhs.pop(key, None)
        rhs = naive_triple_bracket(
            p,
            naive_apply(pres, MU_SIG, images, u),
            naive_apply(pres, MU_SIG, images, v),
        )
        if lhs != rhs:
            return False
    return True


def jacobi_verdict_full_basis(p):
    pres = p.presentation
    field = pres.field
    basis = pres.finite_basis()
    for u, v, w in itertools.combinations_with_replacement(basis, 3):
        total = {}
        for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
            inner = naive_bracket(p, {b: field.one}, {c: field.one})
            outer = naive_bracket(p, {a: field.one}, inner)
            for word, coeff in outer.items():
                s = _mod(field, total.get(word, field.zero) + coeff)
                if s:
                    total[word] = s
                else:
                    total.pop(word, None)
        if total:
            return False
    return True


def reference_find_redex(rules, word):
    """(position, rule) of the leftmost redex of `word`, taking at that
    position the first rule in list order whose lhs starts with the atom
    there and matches: the scan of the package's original `_find_redex`."""
    for pos in range(len(word)):
        for rule in rules:
            lhs = rule.lhs
            if lhs[0] == word[pos] and word[pos:pos + len(lhs)] == lhs:
                return pos, rule
    return None


def reference_reduce_terms(pres, terms, memo):
    """{word: coeff} normal form under the package's strategy (always rewrite
    the redex of `reference_find_redex`), with its own word memo `memo`, which
    the caller must empty whenever a rule is added."""
    field = pres.field

    def word_nf(word):
        if word not in memo:
            hit = reference_find_redex(pres.rules, word)
            if hit is None:
                memo[word] = {word: field.one}
            else:
                pos, rule = hit
                head, tail = word[:pos], word[pos + len(rule.lhs):]
                out = {}
                for rw, rc in rule.rhs_terms.items():
                    out = _add_into(out, {w: rc * c for w, c in word_nf(head + rw + tail).items()},
                                    field)
                memo[word] = out
        return memo[word]

    out = {}
    for w, c in terms.items():
        out = _add_into(out, {nw: c * nc for nw, nc in word_nf(tuple(w)).items()}, field)
    return out


def reference_unresolved_critical_pairs(pres, *, max_overlap=None):
    """Full scan over every rule pair, copied from the package's original
    `unresolved_critical_pairs`: the pair order the package must keep.
    Reduces through `reference_reduce_terms` with a memo of its own, so it
    shares neither the package's redex lookup nor its normal-form memo."""
    if max_overlap is None:
        max_lhs = max((len(r.lhs) for r in pres.rules), default=0)
        max_overlap = min(2 * max_lhs, pres.cap)
    bad = []
    memo = {}

    def one_step(word, pos, rule):
        head, tail = word[:pos], word[pos + len(rule.lhs):]
        return {head + rw + tail: rc for rw, rc in rule.rhs_terms.items()}

    def compare(word, pos1, r1, pos2, r2):
        a = reference_reduce_terms(pres, one_step(word, pos1, r1), memo)
        b = reference_reduce_terms(pres, one_step(word, pos2, r2), memo)
        if a != b:
            diff = dict(a)
            for w, c in b.items():
                s = _mod(pres.field, diff.get(w, pres.field.zero) - c)
                if s:
                    diff[w] = s
                else:
                    diff.pop(w, None)
            bad.append((word, r1, r2, diff))

    for r1, r2 in itertools.product(pres.rules, repeat=2):
        l1, l2 = r1.lhs, r2.lhs
        # suffix of l1 == prefix of l2 (length k), overlap word l1 + l2[k:];
        # k = len covers prefix/suffix containments of the shorter lhs
        for k in range(1, min(len(l1), len(l2)) + 1):
            if r1 is r2 and k == len(l1):
                continue
            if l1[len(l1) - k:] == l2[:k]:
                word = l1 + l2[k:]
                if len(word) <= max_overlap:
                    compare(word, 0, r1, len(l1) - k, r2)
        # l2 strictly inside l1
        if len(l2) < len(l1):
            for pos in range(1, len(l1) - len(l2)):
                if l1[pos:pos + len(l2)] == l2:
                    compare(l1, 0, r1, pos, r2)
    return bad


def reference_overlaps(r1, r2, cap):
    """Overlaps of lhs(r1) with lhs(r2) that the package's scan checks, in
    scan order, as (word, position of lhs(r2) in word, r2), by testing
    every overlap length and position of the pair: the package's original
    per-pair `_overlaps`.  lhs(r1) starts every word at 0.  A suffix/prefix
    overlap longer than `cap` is left out; a contained lhs is checked
    whatever the cap."""
    l1, l2 = r1.lhs, r2.lhs
    out = []
    # suffix of l1 == prefix of l2 (length k), overlap word l1 + l2[k:];
    # k = len covers prefix/suffix containments of the shorter lhs
    for k in range(1, min(len(l1), len(l2)) + 1):
        if r1 is r2 and k == len(l1):
            continue
        if l1[len(l1) - k:] == l2[:k] and len(l1) + len(l2) - k <= cap:
            out.append((l1 + l2[k:], len(l1) - k, r2))
    # l2 strictly inside l1
    if len(l2) < len(l1):
        for pos in range(1, len(l1) - len(l2)):
            if l1[pos:pos + len(l2)] == l2:
                out.append((l1, pos, r2))
    return out


def reference_complete_rules(pres, *, max_new_rules=500, max_overlap=None):
    """Completion by a full rescan after every new rule, copied from the
    package's original `complete_rules`.  Each rescan starts an empty memo
    (`reference_unresolved_critical_pairs`), so nothing is carried from one
    rule set to the next.  Its budget check runs one rule late; the
    comparisons never reach the budget."""
    added = 0
    while True:
        pairs = reference_unresolved_critical_pairs(pres, max_overlap=max_overlap)
        if not pairs:
            return added
        _, _, _, diff = pairs[0]
        lead = max(diff, key=pres.word_key)
        lead_coeff = diff[lead]
        rhs = {w: _mod(pres.field, -exact_div(c, lead_coeff, pres.field))
               for w, c in diff.items() if w != lead}
        pres._add_rule(lead, rhs)
        added += 1
        if added > max_new_rules:
            word, r1, r2, _ = pairs[0]
            raise ConfluenceError(
                f"completion stopped at its budget of {max_new_rules} added rules; "
                f"last unresolved overlap: {word_str(word)}"
            )


# ----------------------------------------------------------------------
# Per-term Lemma 5.5 evaluation, copied from the package's original
# `TensorElement._normalize`/`__mul__`, `EnvelopePresentation.alpha_of`/
# `beta_of`, `TripleEnvelope._apply3`/`alpha3`/`xi` and `triple_bracket`:
# every slot reduced through `reduce_terms`, every image rebuilt from
# `atom_element`, and every outer product added into a fresh sum.  All
# return term maps {key: coeff}.

def _add_into(terms, other, field, sign=1):
    out = dict(terms)
    for k, c in other.items():
        s = _mod(field, out.get(k, field.zero) + (c if sign > 0 else -c))
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def reference_outer(terms_list, field):
    """Terms of the pure tensor of the given element term maps."""
    terms = {}
    for combo in itertools.product(*(t.items() for t in terms_list)):
        words = tuple(w for w, _ in combo)
        c = field.one
        for _, f in combo:
            c = c * f
        if _mod(field, c):
            terms[words] = _mod(field, terms.get(words, field.zero) + c)
    return terms


def reference_normalize(factors, field, raw):
    """Every slot word of every term reduced by `reduce_terms`, one at a time."""
    out = {}
    for key, coeff in raw.items():
        if not coeff:
            continue
        key = tuple(tuple(w) for w in key)
        reduced = [factors[i].reduce_terms({key[i]: field.one}) for i in range(len(key))]
        for combo in itertools.product(*(r.items() for r in reduced)):
            words = tuple(w for w, _ in combo)
            c = coeff
            for _, f in combo:
                c = c * f
            s = _mod(field, out.get(words, field.zero) + c)
            if s:
                out[words] = s
            else:
                out.pop(words, None)
    return out


def reference_tensor_mul(s, t):
    """Slot-wise product of two tensors; op slots reverse the operand order."""
    field = s.field
    raw = {}
    for ks, cs in s.terms.items():
        for kt, ct in t.terms.items():
            words = tuple(kt[i] + ks[i] if s.signature[i] else ks[i] + kt[i]
                          for i in range(len(s.factors)))
            acc = _mod(field, raw.get(words, field.zero) + cs * ct)
            if acc:
                raw[words] = acc
            else:
                raw.pop(words, None)
    return reference_normalize(s.factors, field, raw)


def _reference_map_of(env, names, word, unit_terms):
    envp = env.presentation
    i = list(env.basis).index(word)
    return dict(unit_terms) if i == 0 else envp.atom_element(names[i]).terms


def reference_alpha_word(env, word):
    return _reference_map_of(env, env.alpha_names, word, env.presentation.one().terms)


def reference_beta_word(env, word):
    return _reference_map_of(env, env.beta_names, word, {})


def _reference_apply3(env, t, slot_maps):
    field = env.presentation.field
    out = {}
    for words, coeff in t.terms.items():
        images = [slot_maps[k](env, w) for k, w in enumerate(words)]
        scaled = {k: c * coeff for k, c in reference_outer(images, field).items()}
        out = _add_into(out, scaled, field)
    return out


def reference_alpha3(env, t):
    a = reference_alpha_word
    return _reference_apply3(env, t, (a, a, a))


def reference_xi(env, t):
    """xi = alpha⊗alpha⊗beta + alpha⊗beta⊗alpha + beta⊗alpha⊗alpha."""
    a, b = reference_alpha_word, reference_beta_word
    field = env.presentation.field
    out = _reference_apply3(env, t, (a, a, b))
    out = _add_into(out, _reference_apply3(env, t, (a, b, a)), field)
    return _add_into(out, _reference_apply3(env, t, (b, a, a)), field)


def reference_triple_bracket(p, s, t):
    """{x⊗y⊗z, x'⊗y'⊗z'} = {x,x'}⊗yy'⊗zz' - xx'⊗{y,y'}⊗zz' + xx'⊗yy'⊗{z,z'}."""
    pres = p.presentation
    field = pres.field
    one = field.one
    out = {}
    for (x, y, z), c1 in s.terms.items():
        ex, ey, ez = (pres.element({w: one}) for w in (x, y, z))
        for (x2, y2, z2), c2 in t.terms.items():
            ex2, ey2, ez2 = (pres.element({w: one}) for w in (x2, y2, z2))
            coeff = c1 * c2
            xx, yy, zz = ex * ex2, ey * ey2, ez * ez2
            for sign, parts in ((1, (reference_bracket(p, ex, ex2), yy, zz)),
                                (-1, (xx, reference_bracket(p, ey, ey2), zz)),
                                (1, (xx, yy, reference_bracket(p, ez, ez2)))):
                outer = reference_outer([e.terms for e in parts], field)
                out = _add_into(out, {k: c * coeff for k, c in outer.items()}, field, sign)
    return out


def reference_check_lemma55(te, sample_words=None):
    """The Lemma 5.5 entries of `check_lemma55`, as (check, anchor, subject,
    passed, witness terms or None) tuples, from the references above: each
    pair (i, j) forms its six image products x_i x_j, x_j x_i, x_i a_j,
    a_j x_i, a_i x_j and a_i a_j afresh (x = xi, a = alpha3 of the sample
    triples), sharing nothing with the pair (j, i)."""
    env = te.envelope
    p = env.source
    pres = p.presentation
    field = pres.field
    if sample_words is None:
        sample_words = [()] + [(a,) for a in pres.atoms]
    combos = list(itertools.product([tuple(w) for w in sample_words], repeat=3))
    source = (pres,) * 3
    triples = [TensorElement(source, MU_SIGNATURE, reference_normalize(source, field, {c: field.one}),
                             field, normalize=False) for c in combos]
    labels = ["(" + ",".join(word_str(w) for w in c) + ")" for c in combos]

    def mul(s, t):
        return reference_tensor_mul(*(TensorElement(te.factors, te.signature, terms, field,
                                                    normalize=False) for terms in (s, t)))

    xi = [reference_xi(env, t) for t in triples]
    a3 = [reference_alpha3(env, t) for t in triples]
    entries = []
    for (i, t1), (j, t2) in itertools.product(enumerate(triples), repeat=2):
        br = TensorElement(source, MU_SIGNATURE, reference_triple_bracket(p, t1, t2), field,
                           normalize=False)
        prod = TensorElement(source, MU_SIGNATURE, reference_tensor_mul(t1, t2), field,
                             normalize=False)
        x1, x2, a1, a2 = xi[i], xi[j], a3[i], a3[j]
        a2_x1 = mul(a2, x1)
        laws = [
            ("xi is a Lie map", "Lemma 5.5(2) Eq (5.6)", reference_xi(env, br),
             _add_into(mul(x1, x2), mul(x2, x1), field, -1)),
            ("slot-map bracket law", "Lemma 5.7 step 2 (bracket law)", reference_alpha3(env, br),
             _add_into(mul(x1, a2), a2_x1, field, -1)),
            ("xi product law", "Lemma 5.7 step 2 (product law)", reference_xi(env, prod),
             _add_into(mul(a1, x2), a2_x1, field)),
            ("slot map is multiplicative", "Lemma 5.5(1)", reference_alpha3(env, prod),
             mul(a1, a2)),
        ]
        for check, anchor, lhs, rhs in laws:
            diff = _add_into(lhs, rhs, field, -1)
            entries.append((check, anchor, f"pair {labels[i]} x {labels[j]}", not diff,
                            diff or None))
    return entries


# ----------------------------------------------------------------------
# Word-level extensions, copied from the package's original atom and
# element brackets of `PoissonStructure` and `GeneratorMap.apply_word`/
# `apply`: nothing is memoized, every letter pair of every term pair is
# evaluated again, and every word is folded from the unit.

def reference_atom_bracket(p, s, t):
    """{s, t} for atoms; brackets against an inverse atom are forced."""
    pres = p.presentation
    if s == t:
        return pres.zero()
    if pres.atom_key(s) > pres.atom_key(t):
        return -reference_atom_bracket(p, t, s)
    if pres.atom_key(t)[1]:
        inv_sq = pres.element({(t, t): pres.field.one})
        return pres.normal_form(-(inv_sq * reference_atom_bracket(p, s, t[:-3])))
    if pres.atom_key(s)[1]:
        inv_sq = pres.element({(s, s): pres.field.one})
        return pres.normal_form(-(inv_sq * reference_atom_bracket(p, s[:-3], t)))
    return p.table.get((s, t), pres.zero())


def reference_bracket(p, a, b):
    """Leibniz extension, one letter pair at a time, added into a fresh sum."""
    pres = p.presentation
    out = pres.zero()
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            coeff = ca * cb
            for i in range(len(wa)):
                rest_a = pres.element({wa[:i] + wa[i + 1:]: pres.field.one})
                for j in range(len(wb)):
                    core = reference_atom_bracket(p, wa[i], wb[j])
                    if not core:
                        continue
                    rest_b = pres.element({wb[:j] + wb[j + 1:]: pres.field.one})
                    out = out + (rest_a * core * rest_b).scale(coeff)
    return out


def reference_apply_word(gmap, word):
    """The unit times the atom images, left to right."""
    out = TensorElement.unit(gmap.targets, gmap.signature, gmap.field)
    for atom in word:
        img = gmap.images.get(atom)
        if img is None:
            raise InputError(f"{gmap.name}: no image for atom {atom!r}")
        out = out * img
    return out


def reference_apply(gmap, element):
    out = TensorElement.zero(gmap.targets, gmap.signature, gmap.field)
    for word, coeff in element.terms.items():
        out = out + reference_apply_word(gmap, word).scale(coeff)
    return out


# ----------------------------------------------------------------------
# Derivations, copied from the package's original `OreData.delta_word`,
# `PoissonOreData._derivation_word` and their `derive` closures: nothing is
# memoized, and every letter of every word is expanded again.

def reference_delta_word(d, word):
    """delta of a raw word: the sum over its letters of
    tau(head) delta(letter) tail."""
    base = d.base
    out = base.zero()
    for i, atom in enumerate(word):
        head = base.element({tuple(word[:i]): base.field.one})
        tail = base.element({tuple(word[i + 1:]): base.field.one})
        out = out + d.tau.apply_element(head) * d.delta.images[atom] * tail
    return out


def reference_derivation_word(pres, images, word):
    """A derivation of a commutative algebra on a raw word: the sum over
    its letters of (word without the letter) * image of the letter."""
    out = pres.zero()
    for i, atom in enumerate(word):
        rest = pres.element({tuple(word[:i] + word[i + 1:]): pres.field.one})
        out = out + rest * images[atom]
    return out


def reference_forced_inverse(pres, tau, gen, image):
    """The image of gen^-1 forced by 0 = D(gen gen^-1): tau(gen)^-1 D(gen)
    gen^-1 negated for a tau-derivation, -gen^-2 D(gen) for a derivation of
    a commutative algebra (tau None)."""
    inv = pres.atom_element(gen + "^-1")
    if tau is None:
        return -(inv * inv * image)
    return -(pres.invert(tau.apply_element(pres.atom_element(gen))) * image * inv)


# ----------------------------------------------------------------------
# Linear algebra, copied from the package's original dense
# `AlgebraPresentation.invert`/`_solve_columns` and from the original
# `envelope._product_relation_rules` with its own `vec_reduce`.

def reference_solve_columns(field, n, cols, rhs):
    """Solve sum_v x_v * cols[v] = rhs by dense exact Gaussian elimination."""
    dense = [[cols[v].get(r, field.zero) for v in range(n)] for r in range(n)]
    vec = [rhs.get(r, field.zero) for r in range(n)]
    row = 0
    pivots = []
    for col in range(n):
        pivot_row = next((r for r in range(row, n) if dense[r][col]), None)
        if pivot_row is None:
            continue
        dense[row], dense[pivot_row] = dense[pivot_row], dense[row]
        vec[row], vec[pivot_row] = vec[pivot_row], vec[row]
        pv = dense[row][col]
        dense[row] = [exact_div(x, pv, field) for x in dense[row]]
        vec[row] = exact_div(vec[row], pv, field)
        for r in range(n):
            if r != row and dense[r][col]:
                factor = dense[r][col]
                dense[r] = [_mod(field, a - factor * b) for a, b in zip(dense[r], dense[row])]
                vec[r] = _mod(field, vec[r] - factor * vec[row])
        pivots.append((row, col))
        row += 1
        if row == n:
            break
    solution = {c: vec[r] for r, c in pivots}
    pivot_rows = {r for r, _ in pivots}
    if any(vec[r] for r in range(n) if r not in pivot_rows):
        return None
    check = [field.zero] * n
    for v, x in solution.items():
        for r, c in cols[v].items():
            check[r] = _mod(field, check[r] + x * c)
    if check != [rhs.get(r, field.zero) for r in range(n)]:
        return None
    return solution


def reference_invert(pres, element):
    """Two-sided inverse by the dense solve of element * y = 1, or None."""
    if len(element.terms) == 1:
        word, coeff = next(iter(element.terms.items()))
        if all(pres.generator_of(a).invertible for a in word):
            inv_word = tuple(a[:-3] if a.endswith("^-1") else a + "^-1" for a in reversed(word))
            return pres.element({inv_word: exact_div(pres.field.one, coeff, pres.field)})
    basis = pres.finite_basis()
    if basis is None:
        return None
    index = {w: i for i, w in enumerate(basis)}
    n = len(basis)
    cols = [pres.coeff_vector(element * pres.element({w: pres.field.one}))
            for w in basis]
    solution = reference_solve_columns(pres.field, n, cols, {index[()]: pres.field.one})
    if solution is None:
        return None
    candidate = pres.element({basis[v]: c for v, c in solution.items() if c})
    if candidate * element != pres.one() or element * candidate != pres.one():
        return None
    return candidate


def reference_product_relation_rules(field, n, table, alpha_names, beta_names):
    """Echelonized consequences of beta(a_i a_j) = a_i b_j + a_j b_i, closed
    under left multiplication by the a-symbols, as (lead, rhs) rules."""
    atom_rank = {name: pos for pos, name in enumerate(alpha_names[1:] + beta_names[1:])}

    def word_order(word):
        return (len(word), tuple(atom_rank[a] for a in word))

    def vec_reduce(vec, pivots):
        vec = {w: c for w, c in vec.items() if c}
        while vec:
            lead = max(vec, key=word_order)
            row = pivots.get(lead)
            if row is None:
                return vec, lead
            factor = vec[lead]
            for w, c in row.items():
                s = _mod(field, vec.get(w, field.zero) - factor * c)
                if s:
                    vec[w] = s
                else:
                    vec.pop(w, None)
        return vec, None

    def left_mult(p_idx, vec):
        out = {}
        for word, coeff in vec.items():
            if len(word) == 1:
                new = (alpha_names[p_idx],) + word
                out[new] = _mod(field, out.get(new, field.zero) + coeff)
            else:
                m = alpha_names.index(word[0])
                for q, c in table[(p_idx, m)].items():
                    new = word[1:] if q == 0 else (alpha_names[q],) + word[1:]
                    out[new] = _mod(field, out.get(new, field.zero) + coeff * c)
        return {w: c for w, c in out.items() if c}

    pivots = {}
    queue = []
    for i in range(1, n):
        for j in range(i, n):
            vec = {}
            for k, c in table[(i, j)].items():
                if k:
                    word = (beta_names[k],)
                    vec[word] = _mod(field, vec.get(word, field.zero) + c)
            for m, k in ((i, j), (j, i)):
                word = (alpha_names[m], beta_names[k])
                vec[word] = _mod(field, vec.get(word, field.zero) - field.one)
            queue.append(vec)
    while queue:
        vec, lead = vec_reduce(queue.pop(0), pivots)
        if lead is None:
            continue
        monic = {w: exact_div(c, vec[lead], field) for w, c in vec.items()}
        for row in pivots.values():
            if lead in row:
                factor = row[lead]
                for w, c in monic.items():
                    s = _mod(field, row.get(w, field.zero) - factor * c)
                    if s:
                        row[w] = s
                    else:
                        row.pop(w, None)
        pivots[lead] = monic
        for p_idx in range(1, n):
            queue.append(left_mult(p_idx, monic))
    return [(lead, {w: _mod(field, -c) for w, c in pivots[lead].items() if w != lead})
            for lead in sorted(pivots, key=word_order)]


def reference_relation_instance_report(env):
    """The envelope relation report, copied from the package's original
    `relation_instance_report`: ten envelope products and every law reduced
    on its own per basis pair, and each opposite-product law formed from
    mid(u) = 1 ⊗ u ⊗ 1 tensor products in U ⊗ U^op ⊗ U."""
    p = env.source
    pres = p.presentation
    envp = env.presentation
    report = VerificationReport()

    def mid(u):
        one = TensorElement.unit((envp, envp, envp), MU_SIGNATURE)
        return one.slot_transform(1, lambda e: envp.multiply(e, u))

    report.add_vanishing("beta kills the unit", "Def 5.1 Eq (5.1)", "basis word 1",
                         env.beta_of(pres.one()))

    basis_elems = [env.basis_element(i) for i in range(len(env.basis))]
    for i, j in itertools.product(range(1, len(env.basis)), repeat=2):
        ei, ej = basis_elems[i], basis_elems[j]
        label = f"pair ({word_str(env.basis[i])},{word_str(env.basis[j])})"
        br = p.bracket(ei, ej)
        prod = ei * ej
        a_i, a_j = env.alpha_of(ei), env.alpha_of(ej)
        b_i, b_j = env.beta_of(ei), env.beta_of(ej)
        a_br, b_prod = env.alpha_of(br), env.beta_of(prod)

        checks = [
            ("defining commutator", "Def 5.1 Eq (5.1)",
             a_br - (b_i * a_j - a_j * b_i)),
            ("defining product law", "Def 5.1 Eq (5.1)",
             b_prod - (a_i * b_j + a_j * b_i)),
            ("mirrored commutator", "Remark 5.4 Eq (5.1')",
             a_br - (a_i * b_j - b_j * a_i)),
            ("mirrored product law", "Remark 5.4 Eq (5.1')",
             b_prod - (b_i * a_j + b_j * a_i)),
            ("swapped-role commutator", "Lemma 5.3 Eq (5.3)",
             a_br - (a_i * b_j - b_j * a_i)),
        ]
        for name, anchor, diff in checks:
            report.add_vanishing(name, anchor, label, envp.normal_form(diff))

        op_checks = [
            ("opposite product law", "Remark 5.4 Eq (5.4)",
             mid(b_prod) - (mid(a_i) * mid(b_j) + mid(a_j) * mid(b_i))),
            ("opposite product law (mirrored)", "Remark 5.4 Eq (5.4)",
             mid(b_prod) - (mid(b_i) * mid(a_j) + mid(b_j) * mid(a_i))),
            ("opposite commutator", "Remark 5.4 Eq (5.5)",
             mid(a_br) - (mid(a_j) * mid(b_i) - mid(b_i) * mid(a_j))),
            ("opposite commutator (mirrored)", "Remark 5.4 Eq (5.5)",
             mid(a_br) - (mid(b_j) * mid(a_i) - mid(a_i) * mid(b_j))),
        ]
        for name, anchor, diff in op_checks:
            report.add_vanishing(name, anchor, label, diff)
    return report
