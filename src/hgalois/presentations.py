"""Finitely presented associative algebras with a rewriting normal form.

A presentation consists of an ordered list of generators (each optionally
invertible, which adds a formal inverse atom and the two cancellation
rules) and a set of oriented rewrite rules  word -> element.  Words are
tuples of atom names; an atom is a generator name or ``name^-1``.  Rules
must strictly decrease the degree-lexicographic order induced by the
generator order, which makes every reduction terminate; uniqueness of
normal forms is a separate, checkable property (`unresolved_critical_pairs`).

Invertible generators therefore normalize to signed powers: in k[g,g^-1]
the normal forms are exactly g^m with m in Z.

Critical pairs are scanned in a fixed order: rule pairs (r1, r2) in the
order of `itertools.product(rules, rules)`, then the overlap length k of a
suffix of lhs(r1) with a prefix of lhs(r2), then the position of lhs(r2)
strictly inside lhs(r1); a suffix/prefix overlap longer than the cap is
not checked.  The syntactic overlaps of a rule pair never change once both
rules exist, so each rule keeps one row of those the scan checks, built
when rules are added: a new rule appends its overlaps (old, new) to the
rows of the old rules that it overlaps and opens a row for (new, every
rule that it overlaps).  Four indexes from the rule left-hand sides (by
prefix, by suffix, by interior factor with its position, and by whole lhs)
name those overlaps: each index hit is one overlap entry, so the rows are
read off the hits, with no second test of the pair.  The new rule has the
highest index, so reading the rows in order is the product order, and a
pair is keyed by (row, entry).
`unresolved_critical_pairs` reads every row; `complete_rules` keeps a
worklist (`_Worklist`), a heap of the keys still to check, popped in scan
order.

Normal forms are memoised for every word of every reduction tree walked,
with an edge from each word to the words one rewrite above it.  A new rule
has the highest index, so it can change the normal form only of a word
whose tree holds its lhs as a factor: `_add_rule` drops exactly the memo
words that contain the lhs and, along the edges, their ancestors.  It
finds those words by a substring test: each memo word keeps a `str` code,
one character per atom, and a word contains the lhs exactly when its code
contains the lhs's code.  A resolved pair stays resolved while the words
of its two one-step reducts keep their entries, so the worklist registers
each resolved pair under those words, and the words that `_add_rule` drops
send back to the heap exactly the resolved pairs registered under them.

Rules are added only while a presentation is built: by the constructor,
`add_rule_data` and `complete_rules`.  A structure that keeps tables
computed from the rules (a map, a derivation, a bracket, an envelope)
calls `freeze` when it is built, and `_add_rule` then refuses every rule,
so no such table can outlive the rule set it was computed from.

A rule keeps its rhs as a term map and holds no reference to its
presentation (`rule_text` spells it), so a presentation is freed by
reference counting as soon as the last outside reference to it goes,
without the cycle collector.

`Terms`, the term-map core of `Element` and `tensors.TensorElement`, holds
their linear arithmetic; `linear_terms` extends a map on keys linearly.
`axpy` is the one general sparse-accumulate kernel: sums and differences,
reduction, `linear_terms` and the products of `multiply_terms` and
`TensorElement.__mul__` (one call per left term) all add through it.  Only
the two outer-product kernels of the hot paths, `tensors.add_outer` and
`envelope.add_products`, keep drop-zero loops of their own.  These kernels
combine coefficients with plain `+`, `-` and `*`, so over GF(p) their
results hold int representatives; the code that stores or returns such a
map passes it through `field.canonical` once (see `fields`).
"""

import collections
import heapq
import itertools
import re

from .errors import ConfluenceError, DegreeCapError, InputError

Word = tuple[str, ...]

DEFAULT_CAP = 12
# A generator name: one or more characters, none of them whitespace, "^" or
# "*", which spell words ("g^-1*x"); job-file word tokens use the same pattern.
NAME = r"[^\s^*]+"
_NAME_RE = re.compile(NAME)
MAX_BASIS_SIZE = 1024


def inverse_atom(name: str) -> str:
    return name[:-3] if name.endswith("^-1") else name + "^-1"


def word_str(word: Word) -> str:
    """Compressed human-readable form, e.g. ('g','g','x') -> 'g^2*x'."""
    return "*".join(word_to_tokens(word)) or "1"


def word_to_tokens(word: Word) -> list[str]:
    """Run-length encoded token list used in witness serialization."""
    if not word:
        return []
    tokens = []
    for atom, run in itertools.groupby(word):
        n = len(list(run))
        if atom.endswith("^-1"):
            base, exp = atom[:-3], -n
        else:
            base, exp = atom, n
        tokens.append(base if exp == 1 else f"{base}^{exp}")
    return tokens


def axpy(dst: dict, src: dict, scale) -> None:
    """dst += src * scale in place, each coefficient multiplied as c * scale;
    a missing key takes the product itself, and zero sums are dropped."""
    for w, c in src.items():
        s = dst[w] + c * scale if w in dst else c * scale
        if s:
            dst[w] = s
        else:
            dst.pop(w, None)


def linear_terms(terms: dict, image) -> dict:
    """The new term map sum of c * image(k) over the terms k: c (a linear extension)."""
    out: dict = {}
    for k, c in terms.items():
        axpy(out, image(k), c)
    return out


class SparseEchelon:
    """Sparse row echelon form over a field, rows keyed by their lead.

    A row's lead is its largest coordinate under the key function `order`
    (None compares the coordinates themselves), and every row is monic in
    it.  `reduce` cancels the lead of a vector against the rows until the
    lead is not the lead of any row; `insert` makes that vector a row, by
    the field's exact `div`, and cancels its lead from every earlier row
    (back-substitution).  Rows and remainders hold canonical coefficients,
    so a remainder's lead is nonzero in the field.
    """

    __slots__ = ("order", "field", "rows")

    def __init__(self, order, field):
        self.order = order
        self.field = field
        self.rows: dict = {}

    def reduce(self, vec: dict):
        """(remainder, its lead), or (empty map, None) when vec reduces to zero."""
        canonical = self.field.canonical
        vec = canonical({k: c for k, c in vec.items() if c})
        while vec:
            lead = max(vec, key=self.order)
            row = self.rows.get(lead)
            if row is None:
                vec = canonical(vec)  # over GF(p) the lead may be a multiple of p
                if lead in vec:
                    return vec, lead
            else:
                axpy(vec, row, -vec[lead])
        return vec, None

    def insert(self, vec: dict, lead) -> dict:
        """Add a remainder of `reduce` as a row; returns the monic row."""
        div, pivot, canonical = self.field.div, vec[lead], self.field.canonical
        monic = {k: div(c, pivot) for k, c in vec.items()}
        for key, row in self.rows.items():
            if lead in row:
                axpy(row, monic, -row[lead])
                self.rows[key] = canonical(row)
        self.rows[lead] = monic
        return monic


class GeneratorSymbol:
    """A named generator; invertible ones carry a formal inverse atom."""

    __slots__ = ("name", "invertible")

    def __init__(self, name: str, invertible: bool = False):
        if not _NAME_RE.fullmatch(name):
            raise InputError(f"invalid generator name {name!r}")
        self.name = name
        self.invertible = invertible

    def __repr__(self):
        return f"GeneratorSymbol({self.name!r}{', invertible' if self.invertible else ''})"


class RewriteRule:
    """An oriented rule  lhs (word) -> rhs, the rhs as a term map of normal
    words of its presentation (`AlgebraPresentation.rule_text` spells it)."""

    __slots__ = ("lhs", "rhs_terms")

    def __init__(self, lhs: Word, rhs_terms: dict):
        self.lhs = tuple(lhs)
        self.rhs_terms = rhs_terms


class Terms:
    """A sparse term map, key -> nonzero coefficient, with its linear
    arithmetic.  Subclasses supply the parent: `_like(terms)` (same parent),
    `_mismatch(other)` (why `other` has another parent, or None), `field`,
    `_term_key(key)` and `_term_str(key, c)` (sort key and `repr` of a term)."""

    __slots__ = ("terms",)

    def _check_same(self, other):
        reason = self._mismatch(other)
        if reason:
            raise InputError(reason)

    def _combine(self, other, sign):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        axpy(out, other.terms, sign)
        return self._like(self.field.canonical(out))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._like(self.field.canonical({k: -c for k, c in self.terms.items()}))

    def scale(self, scalar):
        if not scalar:
            return self._like({})
        return self._like(self.field.canonical({k: c * scalar for k, c in self.terms.items()}))

    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._mismatch(other) is None and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        key = self._term_key
        return sorted(self.terms.items(), key=lambda item: key(item[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(self._term_str(k, c) for k, c in self.sorted_terms())


class Element(Terms):
    """Sparse element of a presented algebra: normal-form words -> nonzero
    canonical coefficients.  The constructor takes its map as given;
    `AlgebraPresentation.element` normalises words and coefficients."""

    __slots__ = ("presentation",)

    def __init__(self, presentation, terms: dict):
        self.presentation = presentation
        self.terms = terms

    @property
    def field(self):
        return self.presentation.field

    def _like(self, terms):
        return Element(self.presentation, terms)

    def _mismatch(self, other):
        same = self.presentation is other.presentation
        return None if same else "elements belong to different presentations"

    def _term_key(self, word):
        return self.presentation.word_key(word)

    def _term_str(self, word, c):
        c = self.presentation.field.spell(c)
        return f"({c})*{word_str(word)}" if word else f"({c})"

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            return self.presentation.multiply(self, other)
        return self.scale(other)

    def __hash__(self):
        return hash((id(self.presentation), frozenset(self.terms.items())))


class AlgebraPresentation:
    """A finitely presented algebra with a terminating rewriting system.

    The constructor raises `ConfluenceError` unless its rules are locally
    confluent; `add_rule_data` adds a rule without that check.

    Parameters
    ----------
    field : coefficient field (`QQ` or `GF(p)`)
    generators : ordered list of `GeneratorSymbol`
    relations : list of (lhs word, rhs element-data) pairs; rhs may be given
        as a dict word->coeff or as an `Element` once construction is done
        (builders use `add_rule_data`).
    commutative : if set, commutation rules  t*s -> s*t  are added for every
        pair of distinct-generator atoms with t > s.
    cap : degree cap; any word longer than this aborts with `DegreeCapError`.
    """

    def __init__(self, field, generators, relations=(), *, commutative=False,
                 cap=DEFAULT_CAP, name=""):
        self.field = field
        self.name = name
        self.cap = cap
        self.commutative = commutative
        self.generators = list(generators)
        seen = set()
        for g in self.generators:
            if g.name in seen:
                raise InputError(f"duplicate generator name {g.name!r}")
            seen.add(g.name)

        self._atom_index: dict[str, tuple[int, int]] = {}
        atoms = []
        for i, g in enumerate(self.generators):
            self._atom_index[g.name] = (i, 0)
            atoms.append(g.name)
            if g.invertible:
                inv = inverse_atom(g.name)
                self._atom_index[inv] = (i, 1)
                atoms.append(inv)
        self.atoms: list[str] = atoms

        self.rules: list[RewriteRule] = []
        # one row per rule r1: (overlap word, position of r2, r2) for every
        # overlap of r1 with r2 that the scan checks, in scan order (module
        # docstring)
        self._overlap_rows: list[list[tuple]] = []
        # word -> indices, in order, of the rules whose lhs has it as a
        # prefix, as a suffix and as the whole lhs, and (index, position) of
        # each occurrence as a factor touching neither end: the overlaps of
        # a new rule (`_open_overlaps`)
        self._by_prefix = collections.defaultdict(list)
        self._by_suffix = collections.defaultdict(list)
        self._by_inner = collections.defaultdict(list)
        self._by_lhs = collections.defaultdict(list)
        # the sorted lhs lengths; with `_by_lhs`, the redex lookup of `_find_redex`
        self._lhs_lengths: list[int] = []
        self.user_relations: list[tuple[Word, dict]] = []
        self._basis_cache = self._basis_index = None
        self._table_cache = None
        # word -> normal form, for every word of every reduction tree that
        # `_word_nf` has walked, and word -> the memo words one step above it
        self._nf_cache: dict[Word, dict] = {}
        self._parents: dict[Word, list[Word]] = collections.defaultdict(list)
        # one character per atom, and memo word -> its characters as a str,
        # for the words in the memo at the last stale scan of `_add_rule`: a
        # word contains an lhs as a factor exactly when its code contains
        # the lhs's code as a substring
        self._atom_code = {a: chr(i + 1) for i, a in enumerate(atoms)}
        self._codes: dict[Word, str] = {}
        self.frozen = False  # set by `freeze`; `_add_rule` then refuses

        for g in self.generators:
            if g.invertible:
                inv = inverse_atom(g.name)
                self._add_rule((g.name, inv), {(): field.one})
                self._add_rule((inv, g.name), {(): field.one})
        if commutative:
            for lhs, rhs in self.commutation_rules():
                self._add_rule(lhs, rhs)
        for lhs, rhs in relations:
            self.add_rule_data(lhs, rhs)

        pairs = self.unresolved_critical_pairs()
        if pairs:
            word, r1, r2, _ = pairs[0]
            raise ConfluenceError(
                f"presentation {name or '<anonymous>'} is not locally confluent; "
                f"first unresolved overlap: {self._overlap_text(word, r1, r2)}",
                word,
            )

    # ------------------------------------------------------------------
    # atoms and ordering

    def generator_of(self, atom: str) -> GeneratorSymbol:
        return self.generators[self.atom_key(atom)[0]]

    def atom_key(self, atom: str):
        try:
            return self._atom_index[atom]
        except KeyError:
            raise InputError(f"unknown atom {atom!r} in presentation {self.name or '<anonymous>'}")

    def word_key(self, word: Word):
        return (len(word), tuple(self.atom_key(a) for a in word))

    def validate_word(self, word) -> Word:
        word = tuple(word)
        for a in word:
            self.atom_key(a)
        return word

    # ------------------------------------------------------------------
    # rules

    def commutation_rules(self) -> list:
        """The rules  t s -> s t  for every pair of atoms s < t of distinct
        generators; cancellation already orients same-generator pairs."""
        one = self.field.one
        return [((t, s), {(s, t): one}) for s, t in itertools.combinations(self.atoms, 2)
                if self.generator_of(s) is not self.generator_of(t)]

    def rule_text(self, rule: RewriteRule) -> str:
        """A rule of this presentation spelled  lhs -> rhs, as reports and
        messages show it."""
        return f"{word_str(rule.lhs)} -> {Element(self, rule.rhs_terms)}"

    def _overlap_text(self, word: Word, r1: RewriteRule, r2: RewriteRule) -> str:
        return f"{word_str(word)} between [{self.rule_text(r1)}] and [{self.rule_text(r2)}]"

    def freeze(self):
        """Fix the rule set: a structure built on this presentation reads
        its rules, so `_add_rule` refuses every later rule."""
        self.frozen = True

    def _add_rule(self, lhs: Word, rhs_terms: dict):
        """Add the rule lhs -> rhs_terms.  Returns the rule, the (row,
        entry) keys of the overlaps it opened and the memo words it dropped,
        which `complete_rules` hands to its worklist."""
        if self.frozen:
            raise InputError(
                f"presentation {self.name or '<anonymous>'} is frozen: a structure reads "
                f"its rules, so rule {word_str(lhs)} -> ... cannot be added")
        if not lhs:
            raise InputError("rewrite rule with empty left-hand side")
        rule = RewriteRule(lhs, self.field.canonical(dict(rhs_terms)))
        lk = self.word_key(lhs)
        for w in rule.rhs_terms:
            if self.word_key(w) >= lk:
                raise InputError(
                    f"rule {self.rule_text(rule)} does not decrease the "
                    f"degree-lexicographic order (offending term {word_str(w)}); "
                    f"reorder generators or reorient the relation"
                )
        opened = self._open_overlaps(rule)
        self._lhs_lengths = sorted({*self._lhs_lengths, len(lhs)})
        self._basis_cache = self._basis_index = None
        self._table_cache = None
        # the new rule has the largest index, so it loses every tie at a
        # position: it changes the redex of exactly the words that contain
        # its lhs, and with them the normal forms of their ancestors in the
        # memoised reduction trees; every other entry stays
        memo, parents, codes, code = self._nf_cache, self._parents, self._codes, self._atom_code
        # only `_add_rule` drops memo entries, so the words coded at the last
        # scan are the memo's first len(codes) and those added since are its
        # tail; an atom outside the presentation (`reduce_terms` does not
        # check atoms) codes as U+0000, which no lhs holds
        for w in itertools.islice(memo, len(codes), None):
            codes[w] = "".join([code.get(a, "\0") for a in w])
        key = "".join([code[a] for a in lhs])
        stale = [w for w, s in codes.items() if key in s]
        dropped = []
        while stale:
            w = stale.pop()
            if memo.pop(w, None) is not None:
                del codes[w]
                dropped.append(w)
                stale.extend(parents.pop(w, ()))
        return rule, opened, dropped

    def _open_overlaps(self, rule) -> list:
        """Append a new rule and its overlaps to the rules and their rows
        (module docstring), and index its lhs.  Returns the (row, entry) keys
        of the new overlaps.  Each index hit is one overlap, so the entries
        are read off the hits: an old row gains, for k ascending, its
        suffix/prefix overlaps of length k with the new lhs, then the new
        lhs at each inner position; the new row lists its partners in
        order, each with the same two parts."""
        lhs, rules, rows, cap = rule.lhs, self.rules, self._overlap_rows, self.cap
        n, m = len(rules), len(lhs)
        rules.append(rule)
        opened = []
        # r1 older: a suffix of lhs(r1) is lhs[:k], or lhs lies strictly
        # inside lhs(r1) at pos
        for k in range(1, m + 1):
            for i in self._by_suffix.get(lhs[:k], ()):
                l1 = rules[i].lhs
                if len(l1) + m - k <= cap:
                    opened.append((i, len(rows[i])))
                    rows[i].append((l1 + lhs[k:], len(l1) - k, rule))
        for i, pos in self._by_inner.get(lhs, ()):
            opened.append((i, len(rows[i])))
            rows[i].append((rules[i].lhs, pos, rule))
        # r2 older or the rule itself: a prefix of lhs(r2) is lhs[m - k:],
        # or lhs(r2) lies strictly inside lhs at a
        partners = collections.defaultdict(list)
        for k in range(1, m + 1):
            tail = lhs[m - k:]
            for j in self._by_prefix.get(tail, ()):
                l2 = rules[j].lhs
                if m + len(l2) - k <= cap:
                    partners[j].append((lhs + l2[k:], m - k, rules[j]))
            if k < m and tail == lhs[:k] and 2 * m - k <= cap:
                partners[n].append((lhs + lhs[k:], m - k, rule))
        for a in range(1, m - 1):
            for b in range(a + 1, m):
                for j in self._by_lhs.get(lhs[a:b], ()):
                    partners[j].append((lhs, a, rules[j]))
        row = [o for j in sorted(partners) for o in partners[j]]
        rows.append(row)
        opened += [(n, j) for j in range(len(row))]
        for k in range(1, m + 1):
            self._by_prefix[lhs[:k]].append(n)
            self._by_suffix[lhs[m - k:]].append(n)
        for a in range(1, m - 1):
            for b in range(a + 1, m):
                self._by_inner[lhs[a:b]].append((n, a))
        self._by_lhs[lhs].append(n)
        return opened

    def add_rule_data(self, lhs, rhs):
        """Add a rule; rhs is a dict {word: exact coeff}, whose zero terms are dropped."""
        if isinstance(rhs, Element):
            if rhs.field != self.field:
                raise InputError("rule right-hand side over a different field")
            rhs = rhs.terms
        rule, _, _ = self._add_rule(tuple(lhs), {tuple(w): c for w, c in rhs.items() if c})
        self.user_relations.append((rule.lhs, rule.rhs_terms))
        return rule

    # ------------------------------------------------------------------
    # reduction

    def _find_redex(self, word: Word):
        """The leftmost position where some lhs occurs, and at it the rule
        of smallest index: the first hit of a scan of the rules in order at
        each position."""
        index, lengths, end = self._by_lhs, self._lhs_lengths, len(word)
        for pos in range(end):
            best = None
            for n in lengths:
                if pos + n > end:
                    break
                hit = index.get(word[pos:pos + n])
                if hit is not None and (best is None or hit[0] < best):
                    best = hit[0]
            if best is not None:
                return pos, self.rules[best]
        return None

    def reduce_terms(self, terms: dict, *, operation="normal_form") -> dict:
        """Fully reduce a {word: coeff} map; `operation` names the caller in
        a `DegreeCapError`.

        Rules never increase word length, so the cap is checked once per
        word, on entry and before the memo lookup: a memoized normal form
        does not excuse a word longer than the cap.  The normal form of
        every word of a reduction tree is memoized (`_word_nf`).
        """
        out: dict = {}
        for w, c in terms.items():
            if c:
                axpy(out, self._word_nf(tuple(w), operation), c)
        return self.field.canonical(out)

    def _word_nf(self, word: Word, operation) -> dict:
        if len(word) > self.cap:
            raise DegreeCapError(operation, word, self.cap)
        memo = self._nf_cache
        nf = memo.get(word)
        if nf is not None:
            return nf
        # a post-order walk of the reduction tree: a word is reduced at its
        # redex (`_find_redex`) into its one-step reducts; an irreducible
        # word maps to itself, and a reducible one, once its reducts have
        # entries, to the sum of their entries times the rule coefficients.
        # Every word of the tree gets an entry, and each reduct records its
        # parent in `_parents` once, for `_add_rule`.  A word with one reduct of
        # coefficient one shares that reduct's entry: no caller mutates an
        # entry.
        find, parents = self._find_redex, self._parents
        one, canonical = self.field.one, self.field.canonical
        hit = find(word)
        if hit is None:
            nf = memo[word] = {word: one}
            return nf
        # (word, its one-step reducts), for the words whose entries wait on
        # their reducts
        stack = [(word, _reducts(word, hit))]
        while stack:
            w, reducts = stack[-1]
            if w in memo:  # pushed twice, and done since
                stack.pop()
                continue
            ready = True
            for child, _ in reducts:
                if child not in memo:
                    hit = find(child)
                    if hit is None:
                        memo[child] = {child: one}
                    else:
                        stack.append((child, _reducts(child, hit)))
                        ready = False
            if not ready:
                continue
            stack.pop()
            if len(reducts) == 1:
                child, rc = reducts[0]
                nf = memo[child]
                if rc != one:
                    nf = canonical({k: c * rc for k, c in nf.items()})
            else:
                nf = {}
                for child, rc in reducts:
                    axpy(nf, memo[child], rc)
                nf = canonical(nf)
            memo[w] = nf
            for child, _ in reducts:
                above = parents[child]
                if w not in above:  # a recomputed w may still be listed
                    above.append(w)
        return memo[word]

    def normal_form(self, value) -> Element:
        if isinstance(value, Element):
            if value.presentation is not self:
                raise InputError("element belongs to a different presentation")
            terms = value.terms
        else:
            terms = {self.validate_word(value): self.field.one}
        return Element(self, self.reduce_terms(terms))

    def multiply(self, a: Element, b: Element) -> Element:
        if a.presentation is not self or b.presentation is not self:
            raise InputError("multiply: elements from different presentations")
        return Element(self, self.multiply_terms(a.terms, b.terms))

    def multiply_terms(self, a: dict, b: dict) -> dict:
        """The normal form of the product of two term maps of this
        presentation, under the "multiply" cap label."""
        raw: dict = {}
        for wa, ca in a.items():  # the words of one row are distinct
            axpy(raw, {wa + wb: cb for wb, cb in b.items()}, ca)
        return self.reduce_terms(raw, operation="multiply")

    # ------------------------------------------------------------------
    # element constructors

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {(): self.field.one})

    def atom_element(self, atom: str) -> Element:
        return self.normal_form((atom,))

    def element(self, terms: dict) -> Element:
        """Normalize a {word-tuple: coeff} map into an Element; keys that
        name the same word are summed by `reduce_terms`."""
        for w in terms:
            self.validate_word(w)
        return Element(self, self.reduce_terms(terms))

    def scalar(self, c) -> Element:
        return Element(self, self.field.canonical({(): c} if c else {}))

    # ------------------------------------------------------------------
    # local confluence

    def unresolved_critical_pairs(self):
        """All critical pairs whose two one-step reducts have different normal
        forms, as (overlap word, rule1, rule2, nonzero difference) tuples, in
        scan order (module docstring).

        Overlaps considered: proper suffix/prefix overlaps of two rule
        left-hand sides and full containment of one lhs in another, i.e.
        words of length at most len(l1)+len(l2)-1.  Suffix/prefix overlaps
        longer than the cap are left out of the rows (`_open_overlaps`).
        """
        out = []
        for r1, row in zip(self.rules, self._overlap_rows):
            for word, pos2, r2 in row:
                diff, _ = self._pair_difference(word, r1, pos2, r2)
                if diff:
                    out.append((word, r1, r2, diff))
        return out

    def _pair_difference(self, word: Word, r1: RewriteRule, pos2: int, r2: RewriteRule):
        """(nf(reduct by r1 at 0) - nf(reduct by r2 at pos2), the words of
        the two one-step reducts) for the critical pair on `word`, summed in
        one accumulation; the difference is canonical, empty when the pair
        resolves."""
        out, words, nf = {}, [], self._word_nf
        for pos, rule, negate in ((0, r1, False), (pos2, r2, True)):
            head, tail = word[:pos], word[pos + len(rule.lhs):]
            for rw, rc in rule.rhs_terms.items():
                reduct = head + rw + tail
                words.append(reduct)
                axpy(out, nf(reduct, "normal_form"), -rc if negate else rc)
        return self.field.canonical(out), words

    def complete_rules(self, *, max_new_rules=500):
        """Bounded completion: orient each unresolved critical-pair difference
        by its leading monomial and add it as a rule, until locally confluent.
        Returns the number of rules added.

        The pairs wait in a worklist (`_Worklist`) and are checked in scan
        order, so the rules added, and their order, are those of a full
        rescan after every rule.  A pair that resolves leaves the heap; the
        first that does not gives the next rule, and stays first.  A new
        rule queues the overlaps it opens, and the memo words it drops
        (`_add_rule`) queue again the resolved pairs registered under them.
        Every other resolved pair keeps the normal forms of its reducts, so
        it resolves again, and an empty heap proves local confluence, as a
        full scan would.

        Every added rule is a consequence of the existing ones (the
        difference of two reductions of one word), so the presented algebra
        is unchanged.  Terminates because rules never increase word length
        and there are finitely many words below the cap.  Completion stops
        at its budget of `max_new_rules` added rules with a
        `ConfluenceError` naming the overlap still unresolved.  A difference
        that is a nonzero scalar means that the presented algebra is zero;
        that raises `InputError`, naming the overlap.
        """
        rows = self._overlap_rows
        work = _Worklist(rows)
        added = 0
        while work.pending:
            i, j = work.pending[0]
            word, pos2, r2 = rows[i][j]
            r1 = self.rules[i]
            diff, words = self._pair_difference(word, r1, pos2, r2)
            if not diff:
                work.resolve(words)
                continue
            if added == max_new_rules:
                raise ConfluenceError(
                    f"completion stopped at its budget of {max_new_rules} added rules; "
                    f"unresolved overlap: {self._overlap_text(word, r1, r2)}",
                    word,
                )
            lead = max(diff, key=self.word_key)
            if not lead:
                raise InputError(
                    f"presentation {self.name or '<anonymous>'} collapses to zero: overlap "
                    f"{self._overlap_text(word, r1, r2)} gives {self.field.spell(diff[lead])} = 0")
            div, lead_coeff = self.field.div, diff[lead]
            rhs = {w: -div(c, lead_coeff) for w, c in diff.items() if w != lead}
            _, opened, dropped = self._add_rule(lead, rhs)
            work.reopen(opened, dropped)
            added += 1
        return added

    # ------------------------------------------------------------------
    # finite basis and linear algebra

    def finite_basis(self):
        """Normal-form words reachable from 1 by right multiplication.

        Returns the sorted word list when the closure stabilizes, or None
        when the search reaches one of its limits (`basis_limits`): a word
        longer than the cap, or more than `MAX_BASIS_SIZE` words.  None
        does not say which, nor that the algebra is infinite-dimensional.
        """
        if self._basis_cache is not None:
            return self._basis_cache
        seen = {()}
        queue = [()]
        while queue:
            word = queue.pop(0)
            for atom in self.atoms:
                candidate = word + (atom,)
                if len(candidate) > self.cap:
                    return None
                for w in self.reduce_terms({candidate: self.field.one}):
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
                        if len(seen) > MAX_BASIS_SIZE:
                            return None
        self._basis_cache = sorted(seen, key=self.word_key)
        self._basis_index = {w: i for i, w in enumerate(self._basis_cache)}
        return self._basis_cache

    def basis_limits(self) -> str:
        """Why `finite_basis` returned None, for an error message: its
        search stopped at one of two limits and does not record which."""
        return (f"the basis search stopped at one of its limits, the degree cap {self.cap} "
                f"or MAX_BASIS_SIZE = {MAX_BASIS_SIZE} basis words")

    def basis_index(self) -> dict:
        """{word: its position in `finite_basis()`}, kept beside the basis."""
        if self.finite_basis() is None:
            raise InputError(f"presentation {self.name or '<anonymous>'}: {self.basis_limits()}")
        return self._basis_index

    def coeff_vector(self, element: Element) -> dict:
        index = self.basis_index()
        vec = {}
        for w, c in element.terms.items():
            if w not in index:
                raise InputError(f"word {word_str(w)} is not a basis word")
            vec[index[w]] = c
        return vec

    def multiplication_table(self):
        """Structure constants: (i, j) -> {k: c} with b_i * b_j = sum c * b_k."""
        if self._table_cache is not None:
            return self._table_cache
        basis = self.finite_basis()
        if basis is None:
            raise InputError("multiplication table requires a finite basis")
        index = self._basis_index
        table = {}
        for i, wi in enumerate(basis):
            for j, wj in enumerate(basis):
                prod = self.reduce_terms({wi + wj: self.field.one})
                table[(i, j)] = {index[w]: c for w, c in prod.items()}
        self._table_cache = table
        return table

    def invert(self, element: Element):
        """Two-sided inverse of an element, or None.

        Single words in invertible atoms invert syntactically; otherwise a
        finite basis is required and  element * y = 1  is solved exactly,
        then verified on the other side.
        """
        if element.presentation is not self:
            raise InputError("invert: element from a different presentation")
        if len(element.terms) == 1:
            word, coeff = next(iter(element.terms.items()))
            if all(self.generator_of(a).invertible for a in word):
                inv_word = tuple(inverse_atom(a) for a in reversed(word))
                inv_coeff = self.field.div(self.field.one, coeff)
                return self.normal_form(Element(self, {inv_word: inv_coeff}))
        basis = self.finite_basis()
        if basis is None:
            return None
        one = self.field.one
        # row v: the coordinates (1, i) of element * basis[v], plus the tag
        # coordinate (0, v), ordered below every basis word, that records
        # which combination of the products a reduced vector is; the tags
        # keep every row nonzero
        echelon = SparseEchelon(None, self.field)
        for v, word in enumerate(basis):
            prod = self.multiply(element, Element(self, {word: one}))
            row = {(1, i): c for i, c in self.coeff_vector(prod).items()}
            row[(0, v)] = one
            echelon.insert(*echelon.reduce(row))
        # 1 - sum y_v * row_v with no basis coordinate left is -y in the tags
        rest, lead = echelon.reduce({(1, self._basis_index[()]): one})
        if lead[0] == 1:
            return None
        candidate = Element(self, self.field.canonical(
            {basis[v]: -c for (_, v), c in rest.items()}))
        if self.multiply(candidate, element) != self.one():
            return None
        if self.multiply(element, candidate) != self.one():
            return None
        return candidate

    def is_commutative_on_atoms(self):
        """Pairs of atoms whose products differ; empty list means commutative."""
        bad = []
        for s, t in itertools.combinations(self.atoms, 2):
            st = self.reduce_terms({(s, t): self.field.one})
            ts = self.reduce_terms({(t, s): self.field.one})
            if st != ts:
                bad.append((s, t))
        return bad

    def __repr__(self):
        gens = ",".join(g.name + ("^±1" if g.invertible else "") for g in self.generators)
        return f"AlgebraPresentation({self.name or gens}; {len(self.rules)} rules)"


class _Worklist:
    """The critical pairs that `complete_rules` has yet to check, as (row,
    entry) keys of the overlap rows: a heap, popped in scan order, where a
    key may stand more than once.  A key that is not on the heap has
    resolved: it left the heap with every copy and is registered under the
    words of its two one-step reducts, and it goes back when one of those
    words loses its memo entry."""

    __slots__ = ("pending", "waiting")

    def __init__(self, rows: list):
        # generated in scan order, so already a heap
        self.pending = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
        # reduct word -> keys registered under it; a key may be listed again,
        # or still be listed after it went back to the heap
        self.waiting = collections.defaultdict(list)

    def resolve(self, words):
        """The first pending pair resolved, with reducts `words`."""
        pending = self.pending
        key = heapq.heappop(pending)
        while pending and pending[0] == key:
            heapq.heappop(pending)
        for w in words:
            self.waiting[w].append(key)

    def reopen(self, opened, dropped):
        """A rule was added: queue the overlaps it opened, and every key
        registered under a memo word it dropped."""
        pending = self.pending
        for key in opened:
            heapq.heappush(pending, key)
        for w in dropped:
            for key in self.waiting.pop(w, ()):
                heapq.heappush(pending, key)


def _reducts(word: Word, hit) -> list:
    """The one-step reducts of `word` at the redex `hit` (`_find_redex`),
    as (word, rule coefficient) pairs."""
    pos, rule = hit
    head, tail = word[:pos], word[pos + len(rule.lhs):]
    return [(head + rw + tail, rc) for rw, rc in rule.rhs_terms.items()]


def transport_element(element: Element, presentation: AlgebraPresentation) -> Element:
    """Reinterpret an element over another presentation sharing its atoms."""
    if element.field != presentation.field:
        raise InputError("transport: element and presentation over different fields")
    return presentation.normal_form(Element(presentation, dict(element.terms)))
