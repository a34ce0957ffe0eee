"""Job files: a single JSON document describing an algebra, optional
structure blocks, and a list of commands to run against them.

Coefficients are always strings ("3/2", "-1"), words are arrays of tokens
with exponent sugar ("g^-2" means two inverse atoms); floating point is
rejected everywhere.
"""

import json
import re
from functools import partial, wraps

from .envelope import EnvelopePresentation, build_envelope, sample_word_fault
from .errors import CharacteristicError, HgError, InputError, JobError
from .fields import field_from_spec
from .hopf_galois import (
    MU_SIGNATURE,
    HopfGaloisStructure,
    HopfStructure,
    hopf_structure,
    mu_map,
)
from .maps import GeneratorMap
from .ore import OreData, PoissonOreData
from .poisson import PoissonStructure
from .presentations import (DEFAULT_CAP, NAME, AlgebraPresentation, Element, GeneratorSymbol,
                            inverse_atom)
from .tensors import PLAIN, TensorElement

_TOKEN_RE = re.compile(rf"({NAME})(?:\^(-?[0-9]+))?")  # matched with fullmatch

_KINDS = {int: "an integer", bool: "true or false", str: "a string",
          list: "an array", dict: "an object"}
_REQUIRED = object()


def json_typed(value, kind, path: str):
    """`value`, which must have the JSON type `kind` (int, bool, str, list
    or dict); a boolean is not an integer, and a float is none of them."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise JobError(path, f"expected {_KINDS[kind]}, got {value!r:.60}")
    return value


def get(block: dict, key: str, kind, path: str, default=_REQUIRED):
    """Field `key` of the object `block` at `path`, of JSON type `kind`;
    `default` when the key is absent, which is an error if none is given."""
    if key in block:
        return json_typed(block[key], kind, f"{path}.{key}")
    if default is _REQUIRED:
        raise JobError(path, f'missing "{key}"')
    return default


def degree_cap(value, path: str) -> int:
    """A degree cap: an integer of at least 1."""
    if json_typed(value, int, path) < 1:
        raise JobError(path, f"a degree cap must be at least 1, got {value}")
    return value


class at:
    """Name the block at `path` in an error raised inside it that names no path
    yet: an `InputError` becomes a `JobError`, and a cap or confluence error
    keeps its class and gains the path as a prefix."""

    def __init__(self, path: str):
        self.path = path

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, HgError) and getattr(exc, "path", None) is None:
            if isinstance(exc, InputError):
                raise JobError(self.path, str(exc))
            exc.path, exc.args = self.path, (f"{self.path}: {exc}",)


def parse_word(tokens, path: str, cap: int, atoms) -> tuple:
    """The atoms of a word, an array of string tokens "a" or "a^n", each
    checked against `atoms` whatever its exponent ("a^0" too).  An exponent
    whose expansion is longer than the degree cap is rejected before the
    word is built."""
    word = ()
    for i, token in enumerate(json_typed(tokens, list, path)):
        tpath = f"{path}[{i}]"
        m = _TOKEN_RE.fullmatch(json_typed(token, str, tpath))
        if not m:
            raise JobError(tpath, f"cannot parse word token {token!r}")
        name, exp = m.groups()
        try:
            n = 1 if exp is None else int(exp)
        except ValueError:  # more digits than int() converts
            n = None
        if n is None or abs(n) > cap:
            raise JobError(tpath, f"token {token!r} expands to more atoms than the "
                                  f"degree cap {cap}")
        atom = name if n >= 0 else inverse_atom(name)
        if atom not in atoms:
            raise JobError(tpath, f"unknown atom {atom!r}")
        word += (atom,) * abs(n)
    return word


def _shared(parse):
    """A `Job` method whose block is parsed on first use and shared by every
    command; a parse that raises keeps nothing, so the next call raises again."""
    @wraps(parse)
    def shared(self):
        if parse not in self._parsed:
            self._parsed[parse] = parse(self)
        return self._parsed[parse]
    return shared


class Job:
    """Parsed job: the presentation plus lazily-built structure blocks."""

    def __init__(self, doc: dict, *, name="job", cap_override=None):
        self.doc = json_typed(doc, dict, name)
        self.name = get(doc, "name", str, name, name)
        with at(f"{self.name}.field"):
            spec = doc.get("field", "rationals")
            if isinstance(spec, dict) and "prime" in spec:
                json_typed(spec["prime"], int, f"{self.name}.field")
            self.field = field_from_spec(spec)
        forbidden = get(doc, "forbidden_characteristics", list, self.name, [])
        if self.field.characteristic in [
                json_typed(c, int, f"{self.name}.forbidden_characteristics[{i}]")
                for i, c in enumerate(forbidden)]:
            raise CharacteristicError(
                f"{self.name}: structure is not defined in characteristic "
                f"{self.field.characteristic}"
            )
        if cap_override is not None:
            cap_override = degree_cap(cap_override, f"{self.name}.cap_override")
        self.cap_override = cap_override
        self.cap = self.block_cap(doc, self.name).get("cap", DEFAULT_CAP)
        self.commands = [json_typed(c, str, f"{self.name}.commands[{i}]")
                         for i, c in enumerate(get(doc, "commands", list, self.name, []))]
        self._parsed = {}  # the results of the `_shared` methods

    # ------------------------------------------------------------------
    def block(self, key: str) -> dict:
        """The top-level object `key`, which the running command needs."""
        if key not in self.doc:
            raise JobError(self.name, f'this command needs the "{key}" block')
        return json_typed(self.doc[key], dict, f"{self.name}.{key}")

    def block_cap(self, block, path) -> dict:
        """The degree cap of a block as keyword arguments: the override, else
        its "cap" field, else none, and the default of what it builds holds."""
        if self.cap_override is not None:
            return {"cap": self.cap_override}
        return {"cap": degree_cap(block["cap"], f"{path}.cap")} if "cap" in block else {}

    def coeff(self, text, path):
        if isinstance(text, float):
            raise JobError(path, "floating-point coefficients are not accepted")
        with at(path):
            return self.field.parse(json_typed(text, str, path))

    def terms(self, data, path, slots, key="word") -> dict:
        """A term list summed into {key: coeff}.  Each term is {"coeff": str,
        key: ...}: a "word" read against the one slot (cap, atoms), or
        "factors", one word per slot, keyed by their tuple."""
        terms = {}
        for i, term in enumerate(json_typed(data, list, path)):
            tpath = f"{path}[{i}]"
            if not isinstance(term, dict) or set(term) - {"coeff", key}:
                raise JobError(tpath, f'term must be {{"coeff": ..., "{key}": [...]}}')
            if key == "word":
                k = parse_word(term.get("word", []), f"{tpath}.word", *slots[0])
            else:
                factors = get(term, "factors", list, tpath, [])
                if len(factors) != len(slots):
                    raise JobError(f"{tpath}.factors", f"expected {len(slots)} factor words")
                k = tuple(parse_word(w, f"{tpath}.factors[{j}]", *slot)
                          for j, (w, slot) in enumerate(zip(factors, slots)))
            c = self.coeff(term.get("coeff", "1"), f"{tpath}.coeff")
            terms[k] = terms[k] + c if k in terms else c
        return terms

    def element(self, pres, data, path) -> Element:
        """[{"coeff": str, "word": [tokens]}] -> Element of pres."""
        with at(path):
            return pres.element(self.terms(data, path, [(pres.cap, pres.atoms)]))

    def tensor(self, pres_tuple, signature, data, path) -> TensorElement:
        """[{"coeff": str, "factors": [[tokens], ...]}] -> TensorElement."""
        slots = [(p.cap, p.atoms) for p in pres_tuple]
        with at(path):
            return TensorElement(pres_tuple, signature, self.terms(data, path, slots, "factors"),
                                 self.field)

    def images(self, table, path, parse) -> dict:
        """{"gen": data} -> {gen: parse(data, path of the entry)}."""
        return {atom: parse(data, f"{path}.{atom}")
                for atom, data in json_typed(table, dict, path).items()}

    def grouplike(self, pres, block, path) -> Element:
        """The nonzero "grouplike" element of an Ore-type block."""
        g = self.element(pres, block.get("grouplike", []), f"{path}.grouplike")
        if g.is_zero():
            raise JobError(f"{path}.grouplike", "a group-like element is required")
        return g

    # ------------------------------------------------------------------
    def parse_presentation(self, block, path) -> AlgebraPresentation:
        gens = []
        for i, g in enumerate(get(block, "generators", list, path, [])):
            gpath = f"{path}.generators[{i}]"
            g = json_typed({"name": g} if isinstance(g, str) else g, dict, gpath)
            with at(gpath):
                gen = GeneratorSymbol(get(g, "name", str, gpath),
                                      get(g, "invertible", bool, gpath, False))
            if any(h.name == gen.name for h in gens):
                raise JobError(gpath, f"duplicate generator name {gen.name!r}")
            gens.append(gen)
        if not gens:
            raise JobError(f"{path}.generators", "at least one generator is required")
        cap = self.block_cap(block, path).get("cap", self.cap)
        slot = (cap, {g.name for g in gens} | {inverse_atom(g.name) for g in gens if g.invertible})
        relations = []
        for i, rel in enumerate(get(block, "relations", list, path, [])):
            rpath = f"{path}.relations[{i}]"
            lhs = parse_word(get(json_typed(rel, dict, rpath), "lhs", list, rpath),
                             f"{rpath}.lhs", *slot)
            relations.append((lhs, self.terms(rel.get("rhs", []), f"{rpath}.rhs", [slot])))
        with at(path):
            return AlgebraPresentation(self.field, gens, relations, cap=cap,
                                       commutative=get(block, "commutative", bool, path, False),
                                       name=get(block, "name", str, path, self.name))

    @property
    @_shared
    def presentation(self) -> AlgebraPresentation:
        return self.parse_presentation(self.block("presentation"), f"{self.name}.presentation")

    @_shared
    def hopf_galois(self) -> HopfGaloisStructure:
        """The "mu" block."""
        block, pres = self.block("mu"), self.presentation
        path = f"{self.name}.mu"
        mu = self.images(block, path, partial(self.tensor, (pres,) * 3, MU_SIGNATURE))
        with at(path):
            return HopfGaloisStructure(pres, mu_map(pres, mu))

    @_shared
    def poisson(self) -> PoissonStructure:
        """The "bracket" block (zero bracket if absent)."""
        pres = self.presentation
        path = f"{self.name}.bracket"
        table = {}
        for i, entry in enumerate(get(self.doc, "bracket", list, self.name, [])):
            epath = f"{path}[{i}]"
            pair = get(json_typed(entry, dict, epath), "pair", list, epath)
            if len(pair) != 2:
                raise JobError(f"{epath}.pair", "pair must name two generators")
            key = tuple(json_typed(a, str, f"{epath}.pair[{k}]") for k, a in enumerate(pair))
            value = self.element(pres, entry.get("value", []), f"{epath}.value")
            if table.setdefault(key, value) != value:
                raise JobError(path, f"conflicting bracket values for pair ({key[0]},{key[1]})")
        with at(path):
            return PoissonStructure(pres, table)

    @_shared
    def hopf(self) -> HopfStructure:
        """The "hopf" block."""
        block, pres = self.block("hopf"), self.presentation
        path = f"{self.name}.hopf"
        delta = self.images(get(block, "comultiplication", dict, path),
                            f"{path}.comultiplication",
                            partial(self.tensor, (pres, pres), (PLAIN, PLAIN)))
        counit = self.images(get(block, "counit", dict, path), f"{path}.counit", self.coeff)
        antipode = self.images(get(block, "antipode", dict, path), f"{path}.antipode",
                               partial(self.element, pres))
        with at(path):
            return hopf_structure(pres, delta, counit, antipode)

    def alpha_map(self) -> GeneratorMap:
        path = f"{self.name}.alpha"
        images = self.images(self.block("alpha"), path, self.coeff)
        with at(path):
            return GeneratorMap.scalar_map(self.presentation, images, name="alpha")

    @_shared
    def ore_data(self) -> tuple:
        block, pres = self.block("ore"), self.presentation
        path = f"{self.name}.ore"
        element = partial(self.element, pres)
        tau = self.images(get(block, "tau", dict, path), f"{path}.tau", element)
        tau_inverse = get(block, "tau_inverse", dict, path, None)
        if tau_inverse is not None:
            tau_inverse = self.images(tau_inverse, f"{path}.tau_inverse", element)
        delta = self.images(block.get("delta", {}), f"{path}.delta", element)
        with at(path):
            tau = GeneratorMap.algebra_map(pres, pres, tau, name="tau")
            if tau_inverse is not None:
                tau_inverse = GeneratorMap.algebra_map(pres, pres, tau_inverse,
                                                       name="tau_inverse")
            data = OreData(pres, tau, delta, tau_inverse=tau_inverse,
                           variable=get(block, "variable", str, path, "z"),
                           **self.block_cap(block, path))
        return data, self.grouplike(pres, block, path)

    @_shared
    def poisson_ore_data(self) -> tuple:
        block, pres = self.block("poisson_ore"), self.presentation
        path = f"{self.name}.poisson_ore"
        element = partial(self.element, pres)
        alpha = self.images(block.get("alpha", {}), f"{path}.alpha", element)
        delta = self.images(block.get("delta", {}), f"{path}.delta", element)
        with at(path):
            data = PoissonOreData(self.poisson(), alpha, delta,
                                  variable=get(block, "variable", str, path, "x"),
                                  **self.block_cap(block, path))
        return data, self.grouplike(pres, block, path)

    def envelope_block(self) -> dict:
        return get(self.doc, "envelope", dict, self.name, {})

    @_shared
    def envelope(self) -> EnvelopePresentation:
        """The envelope of the job's Poisson algebra."""
        poisson = self.poisson()
        return build_envelope(poisson, **self.block_cap(self.envelope_block(),
                                                        f"{self.name}.envelope"))

    def lemma55_words(self):
        """The envelope's "sample_words", read after the presentation."""
        pres = self.presentation
        words = get(self.envelope_block(), "sample_words", list, f"{self.name}.envelope", None)
        if words is None:
            return None
        path = f"{self.name}.envelope.sample_words"
        words = [parse_word(w, f"{path}[{i}]", pres.cap, pres.atoms) for i, w in enumerate(words)]
        fault = sample_word_fault(pres, words)
        if fault:
            raise JobError(path + fault[0], fault[1])
        return words

    def quotient(self) -> tuple:
        block, pres = self.block("quotient"), self.presentation
        path = f"{self.name}.quotient"
        target = self.parse_presentation(get(block, "presentation", dict, path),
                                         f"{path}.presentation")
        images = self.images(get(block, "map", dict, path), f"{path}.map",
                             partial(self.element, target))
        with at(f"{path}.map"):
            f = GeneratorMap.algebra_map(pres, target, images, name="f")
        section = self.images(get(block, "section", dict, path), f"{path}.section",
                              partial(self.element, pres))
        ideal = [self.element(pres, data, f"{path}.ideal[{i}]")
                 for i, data in enumerate(get(block, "ideal", list, path, []))]
        return f, section, ideal


def load_job(path: str, *, cap_override=None) -> Job:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise JobError(path, f"cannot read job file: {exc}")
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise JobError(path, f"invalid JSON: {exc}")
    return Job(doc, name=path, cap_override=cap_override)
