"""Job files: a single JSON document describing an algebra, optional
structure blocks, and a list of commands to run against them.

Coefficients are always strings ("3/2", "-1"), words are arrays of tokens
with exponent sugar ("g^-2" means two inverse atoms); floating point is
rejected everywhere.
"""

import json
import re

from .envelope import EnvelopePresentation, build_envelope
from .errors import CharacteristicError, InputError, JobError
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
from .presentations import AlgebraPresentation, Element, GeneratorSymbol
from .tensors import PLAIN, TensorElement

_TOKEN_RE = re.compile(r"^([^\^\*\s]+?)(?:\^(-?\d+))?$")

KNOWN_COMMANDS = (
    "check-hopf-galois",
    "check-poisson",
    "check-poisson-hg",
    "check-poisson-hopf",
    "convert hopf-to-galois",
    "convert galois-to-hopf",
    "ore-extend",
    "check-thm28",
    "poisson-ore-extend",
    "check-thm44",
    "build-envelope",
    "check-lemma55",
    "check-thm59",
    "pushforward",
)


def expand_token(token: str, path: str, cap: int):
    """The atoms of one token; an exponent whose expansion is longer than
    the degree cap is rejected before the word is built."""
    m = _TOKEN_RE.match(str(token))
    if not m:
        raise JobError(path, f"cannot parse word token {token!r}")
    name, exp = m.group(1), m.group(2)
    try:
        n = 1 if exp is None else int(exp)
    except ValueError:  # more digits than int() converts
        n = None
    if n is None or abs(n) > cap:
        raise JobError(path, f"token {token!r} expands to more atoms than the degree cap {cap}")
    if n >= 0:
        return (name,) * n
    return (name + "^-1",) * (-n)


def json_int(value, path: str) -> int:
    """A JSON integer; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobError(path, f"expected an integer, got {value!r}")
    return value


def json_bool(value, path: str) -> bool:
    """A JSON boolean; strings such as "false" are rejected, not read as truthy."""
    if not isinstance(value, bool):
        raise JobError(path, f"expected true or false, got {value!r}")
    return value


def json_list(value, path: str) -> list:
    """A JSON array."""
    if not isinstance(value, list):
        raise JobError(path, f"expected an array, got {value!r:.60}")
    return value


def json_object(value, path: str) -> dict:
    """A JSON object."""
    if not isinstance(value, dict):
        raise JobError(path, f"expected an object, got {value!r:.60}")
    return value


def parse_word(tokens, path: str, cap: int):
    word = ()
    for i, token in enumerate(json_list(tokens, path)):
        word += expand_token(token, f"{path}[{i}]", cap)
    return word


class Job:
    """Parsed job: the presentation plus lazily-built structure blocks."""

    def __init__(self, doc: dict, *, name="job", cap_override=None):
        if not isinstance(doc, dict):
            raise JobError(name, "job document must be a JSON object")
        self.doc = doc
        self.name = doc.get("name", name)
        spec = doc.get("field", "rationals")
        if isinstance(spec, dict) and "prime" in spec:
            json_int(spec["prime"], f"{self.name}.field")
        try:
            self.field = field_from_spec(spec)
        except InputError as exc:
            raise JobError(f"{self.name}.field", str(exc))
        forbidden = json_list(doc.get("forbidden_characteristics", []),
                              f"{self.name}.forbidden_characteristics")
        if self.field.characteristic in forbidden:
            raise CharacteristicError(
                f"{self.name}: structure is not defined in characteristic "
                f"{self.field.characteristic}"
            )
        self.cap_override = cap_override
        self.cap = cap_override if cap_override is not None \
            else json_int(doc.get("cap", 12), f"{self.name}.cap")
        commands = json_list(doc.get("commands", []), f"{self.name}.commands")
        for i, c in enumerate(commands):
            if not isinstance(c, str):
                raise JobError(f"{self.name}.commands[{i}]", f"expected a string, got {c!r}")
            if c not in KNOWN_COMMANDS:
                raise JobError(f"{self.name}.commands", f"unknown command {c!r}")
        self.commands = list(commands)
        # parsed blocks, built on first use and shared by every command
        self._presentation = None
        self._hopf_galois = None
        self._poisson = None
        self._hopf = None
        self._envelope = None

    # ------------------------------------------------------------------
    def coeff(self, text, path):
        if isinstance(text, float):
            raise JobError(path, "floating-point coefficients are not accepted")
        try:
            return self.field.parse(text)
        except InputError as exc:
            raise JobError(path, str(exc))

    def element(self, pres, data, path) -> Element:
        """[{"coeff": str, "word": [tokens]}] -> Element."""
        terms = {}
        for i, term in enumerate(json_list(data, path)):
            tpath = f"{path}[{i}]"
            if not isinstance(term, dict) or set(term) - {"coeff", "word"}:
                raise JobError(tpath, 'term must be {"coeff": ..., "word": [...]}')
            word = parse_word(term.get("word", []), f"{tpath}.word", pres.cap)
            try:
                pres.validate_word(word)
            except InputError as exc:
                raise JobError(f"{tpath}.word", str(exc))
            c = self.coeff(term.get("coeff", "1"), f"{tpath}.coeff")
            terms[word] = terms.get(word, self.field.zero) + c
        return pres.element(terms)

    def tensor(self, pres_tuple, signature, data, path) -> TensorElement:
        terms = {}
        for i, term in enumerate(json_list(data, path)):
            tpath = f"{path}[{i}]"
            if not isinstance(term, dict) or set(term) - {"coeff", "factors"}:
                raise JobError(tpath, 'term must be {"coeff": ..., "factors": [...]}')
            factors = json_list(term.get("factors", []), f"{tpath}.factors")
            if len(factors) != len(pres_tuple):
                raise JobError(f"{tpath}.factors",
                               f"expected {len(pres_tuple)} factor words")
            key = tuple(
                parse_word(w, f"{tpath}.factors[{k}]", pres_tuple[k].cap)
                for k, w in enumerate(factors)
            )
            for k, w in enumerate(key):
                try:
                    pres_tuple[k].validate_word(w)
                except InputError as exc:
                    raise JobError(f"{tpath}.factors[{k}]", str(exc))
            c = self.coeff(term.get("coeff", "1"), f"{tpath}.coeff")
            terms[key] = terms.get(key, self.field.zero) + c
        return TensorElement(pres_tuple, signature, terms, self.field)

    def block_cap(self, block, default, path) -> int:
        """The degree cap of a block: the override, else its "cap" field."""
        if self.cap_override is not None:
            return self.cap_override
        return json_int(block.get("cap", default), f"{path}.cap")

    # ------------------------------------------------------------------
    def parse_presentation(self, block, path, *, cap=None) -> AlgebraPresentation:
        json_object(block, path)
        gens = []
        for i, g in enumerate(json_list(block.get("generators", []), f"{path}.generators")):
            gpath = f"{path}.generators[{i}]"
            if isinstance(g, str):
                g = {"name": g}
            if not isinstance(g, dict) or "name" not in g:
                raise JobError(gpath, 'generator must be {"name": ..., "invertible"?: bool}')
            invertible = json_bool(g.get("invertible", False), f"{gpath}.invertible")
            try:
                gens.append(GeneratorSymbol(g["name"], invertible))
            except InputError as exc:
                raise JobError(gpath, str(exc))
        if not gens:
            raise JobError(f"{path}.generators", "at least one generator is required")
        if cap is None:
            cap = self.block_cap(block, self.cap, path)
        relations = []
        names = {g.name for g in gens}
        inv_names = {g.name + "^-1" for g in gens if g.invertible}
        valid = names | inv_names
        for i, rel in enumerate(json_list(block.get("relations", []), f"{path}.relations")):
            rpath = f"{path}.relations[{i}]"
            if not isinstance(rel, dict) or "lhs" not in rel:
                raise JobError(rpath, 'relation must be {"lhs": [...], "rhs": [...]}')
            lhs = parse_word(rel["lhs"], f"{rpath}.lhs", cap)
            for atom in lhs:
                if atom not in valid:
                    raise JobError(f"{rpath}.lhs", f"unknown generator token {atom!r}")
            rhs_terms = {}
            for j, term in enumerate(json_list(rel.get("rhs", []), f"{rpath}.rhs")):
                tpath = f"{rpath}.rhs[{j}]"
                json_object(term, tpath)
                word = parse_word(term.get("word", []), f"{tpath}.word", cap)
                for atom in word:
                    if atom not in valid:
                        raise JobError(f"{tpath}.word", f"unknown generator token {atom!r}")
                c = self.coeff(term.get("coeff", "1"), f"{tpath}.coeff")
                rhs_terms[word] = rhs_terms.get(word, self.field.zero) + c
            relations.append((lhs, rhs_terms))
        commutative = json_bool(block.get("commutative", False), f"{path}.commutative")
        try:
            return AlgebraPresentation(
                self.field, gens, relations,
                commutative=commutative,
                cap=cap,
                name=block.get("name", self.name),
            )
        except InputError as exc:
            raise JobError(path, str(exc))

    @property
    def presentation(self) -> AlgebraPresentation:
        if self._presentation is None:
            if "presentation" not in self.doc:
                raise JobError(self.name, 'missing "presentation" block')
            self._presentation = self.parse_presentation(
                self.doc["presentation"], f"{self.name}.presentation")
        return self._presentation

    # ------------------------------------------------------------------
    def generator_images(self, pres, block, path, *, target=None) -> dict:
        """{"gen": element-data} -> {atom: Element of target (default pres)}."""
        target = target or pres
        return {
            atom: self.element(target, data, f"{path}.{atom}")
            for atom, data in json_object(block, path).items()
        }

    def hopf_galois(self) -> HopfGaloisStructure:
        """The "mu" block, parsed on first use and shared by every command."""
        if self._hopf_galois is None:
            self._hopf_galois = self._parse_hopf_galois()
        return self._hopf_galois

    def _parse_hopf_galois(self) -> HopfGaloisStructure:
        if "mu" not in self.doc:
            raise JobError(self.name, 'this command needs a "mu" block')
        pres = self.presentation
        triple = (pres, pres, pres)
        images = {}
        for atom, data in json_object(self.doc["mu"], f"{self.name}.mu").items():
            images[atom] = self.tensor(triple, MU_SIGNATURE, data,
                                       f"{self.name}.mu.{atom}")
        try:
            return HopfGaloisStructure(pres, mu_map(pres, images))
        except InputError as exc:
            raise JobError(f"{self.name}.mu", str(exc))

    def poisson(self) -> PoissonStructure:
        """The "bracket" block (zero bracket if absent), parsed on first use
        and shared by every command, so they share its bracket tables."""
        if self._poisson is None:
            self._poisson = self._parse_poisson()
        return self._poisson

    def _parse_poisson(self) -> PoissonStructure:
        pres = self.presentation
        table = {}
        for i, entry in enumerate(json_list(self.doc.get("bracket", []), f"{self.name}.bracket")):
            path = f"{self.name}.bracket[{i}]"
            if not isinstance(entry, dict) or "pair" not in entry:
                raise JobError(path, 'bracket entry must be {"pair": [a, b], "value": [...]}')
            pair = entry["pair"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise JobError(f"{path}.pair", "pair must name two generators")
            value = self.element(pres, entry.get("value", []), f"{path}.value")
            table[(pair[0], pair[1])] = value
        try:
            return PoissonStructure(pres, table)
        except InputError as exc:
            raise JobError(f"{self.name}.bracket", str(exc))

    def hopf(self) -> HopfStructure:
        """The "hopf" block, parsed on first use and shared by every command."""
        if self._hopf is None:
            self._hopf = self._parse_hopf()
        return self._hopf

    def _parse_hopf(self) -> HopfStructure:
        if "hopf" not in self.doc:
            raise JobError(self.name, 'this command needs a "hopf" block')
        path = f"{self.name}.hopf"
        block = json_object(self.doc["hopf"], path)
        pres = self.presentation
        for key in ("comultiplication", "counit", "antipode"):
            if key not in block:
                raise JobError(path, f'missing "{key}"')
        delta = {
            atom: self.tensor((pres, pres), (PLAIN, PLAIN), data,
                              f"{path}.comultiplication.{atom}")
            for atom, data in json_object(block["comultiplication"],
                                          f"{path}.comultiplication").items()
        }
        counit = {
            atom: self.coeff(value, f"{path}.counit.{atom}")
            for atom, value in json_object(block["counit"], f"{path}.counit").items()
        }
        antipode = self.generator_images(pres, block["antipode"], f"{path}.antipode")
        try:
            return hopf_structure(pres, delta, counit, antipode)
        except InputError as exc:
            raise JobError(path, str(exc))

    def alpha_map(self) -> GeneratorMap:
        if "alpha" not in self.doc:
            raise JobError(self.name, 'this command needs an "alpha" block')
        pres = self.presentation
        images = {
            atom: self.coeff(value, f"{self.name}.alpha.{atom}")
            for atom, value in json_object(self.doc["alpha"], f"{self.name}.alpha").items()
        }
        try:
            return GeneratorMap.scalar_map(pres, images, name="alpha")
        except InputError as exc:
            raise JobError(f"{self.name}.alpha", str(exc))

    def ore_data(self) -> tuple:
        if "ore" not in self.doc:
            raise JobError(self.name, 'this command needs an "ore" block')
        path = f"{self.name}.ore"
        block = json_object(self.doc["ore"], path)
        pres = self.presentation
        if "tau" not in block:
            raise JobError(path, 'missing "tau"')
        cap = self.block_cap(block, 8, path)
        try:
            tau = GeneratorMap.algebra_map(
                pres, pres, self.generator_images(pres, block["tau"], f"{path}.tau"),
                name="tau")
            tau_inverse = None
            if "tau_inverse" in block:
                tau_inverse = GeneratorMap.algebra_map(
                    pres, pres,
                    self.generator_images(pres, block["tau_inverse"], f"{path}.tau_inverse"),
                    name="tau_inverse")
            delta = self.generator_images(pres, block.get("delta", {}), f"{path}.delta")
            data = OreData(pres, tau, delta, tau_inverse=tau_inverse,
                           variable=block.get("variable", "z"), cap=cap)
        except InputError as exc:
            raise JobError(path, str(exc))
        g = self.element(pres, block.get("grouplike", []), f"{path}.grouplike")
        if g.is_zero():
            raise JobError(f"{path}.grouplike", "a group-like element is required")
        return data, g

    def poisson_ore_data(self) -> tuple:
        if "poisson_ore" not in self.doc:
            raise JobError(self.name, 'this command needs a "poisson_ore" block')
        path = f"{self.name}.poisson_ore"
        block = json_object(self.doc["poisson_ore"], path)
        pres = self.presentation
        cap = self.block_cap(block, 8, path)
        try:
            data = PoissonOreData(
                self.poisson(),
                self.generator_images(pres, block.get("alpha", {}), f"{path}.alpha"),
                self.generator_images(pres, block.get("delta", {}), f"{path}.delta"),
                variable=block.get("variable", "x"),
                cap=cap)
        except InputError as exc:
            raise JobError(path, str(exc))
        g = self.element(pres, block.get("grouplike", []), f"{path}.grouplike")
        if g.is_zero():
            raise JobError(f"{path}.grouplike", "a group-like element is required")
        return data, g

    def envelope_block(self) -> dict:
        return json_object(self.doc.get("envelope", {}), f"{self.name}.envelope")

    def envelope_cap(self) -> int:
        return self.block_cap(self.envelope_block(), 6, f"{self.name}.envelope")

    def envelope(self) -> EnvelopePresentation:
        """The envelope of the job's Poisson algebra, built on first use and
        shared by every envelope command of the job."""
        if self._envelope is None:
            self._envelope = build_envelope(self.poisson(), cap=self.envelope_cap())
        return self._envelope

    def lemma55_words(self, pres):
        words = self.envelope_block().get("sample_words")
        if words is None:
            return None
        path = f"{self.name}.envelope.sample_words"
        out = []
        for i, w in enumerate(json_list(words, path)):
            word = parse_word(w, f"{path}[{i}]", pres.cap)
            try:
                out.append(pres.validate_word(word))
            except InputError as exc:
                raise JobError(f"{path}[{i}]", str(exc))
        return out

    def quotient(self) -> tuple:
        if "quotient" not in self.doc:
            raise JobError(self.name, 'this command needs a "quotient" block')
        path = f"{self.name}.quotient"
        block = json_object(self.doc["quotient"], path)
        if "presentation" not in block or "map" not in block or "section" not in block:
            raise JobError(path, 'quotient needs "presentation", "map", and "section"')
        pres = self.presentation
        target = self.parse_presentation(block["presentation"], f"{path}.presentation")
        try:
            f = GeneratorMap.algebra_map(
                pres, target,
                self.generator_images(pres, block["map"], f"{path}.map", target=target),
                name="f")
        except InputError as exc:
            raise JobError(f"{path}.map", str(exc))
        section = {
            atom: self.element(pres, data, f"{path}.section.{atom}")
            for atom, data in json_object(block["section"], f"{path}.section").items()
        }
        ideal = [
            self.element(pres, data, f"{path}.ideal[{i}]")
            for i, data in enumerate(json_list(block.get("ideal", []), f"{path}.ideal"))
        ]
        return f, section, ideal, target


def load_job(path: str, *, cap_override=None) -> Job:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise JobError(path, f"cannot read job file: {exc}")
    except json.JSONDecodeError as exc:
        raise JobError(path, f"invalid JSON: {exc}")
    name = doc.get("name", path) if isinstance(doc, dict) else path
    return Job(doc, name=name, cap_override=cap_override)
