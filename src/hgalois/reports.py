"""Verification reports: named check entries with exact failure witnesses."""

from .errors import InputError
from .presentations import Element, word_to_tokens


class CheckEntry:
    __slots__ = ("check", "anchor", "subject", "passed", "witness")

    def __init__(self, check, anchor, subject, passed, witness=None):
        self.check = check
        self.anchor = anchor
        self.subject = subject
        self.passed = bool(passed)
        self.witness = witness

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.check} ({self.subject})"


class VerificationReport:
    """An ordered list of check entries; passes iff every entry passes."""

    def __init__(self, entries=()):
        self.entries = list(entries)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def add(self, check, anchor, subject, passed, witness=None):
        self.entries.append(CheckEntry(check, anchor, subject, passed, witness))

    def add_vanishing(self, check, anchor, subject, diff):
        """A law that holds iff `diff` (an element or tensor) is zero; a
        nonzero difference is the failure witness."""
        self.entries.append(CheckEntry(check, anchor, subject, not diff, diff or None))

    def require(self, message):
        """Raise `InputError(message)` unless every entry passes; the fields
        `{check}` and `{subject}` of the message name the first failure."""
        if not self.passed:
            bad = self.failures()[0]
            raise InputError(message.format(check=bad.check, subject=bad.subject))

    def extend(self, other: "VerificationReport"):
        self.entries.extend(other.entries)
        return self

    def __repr__(self):
        n_fail = len(self.failures())
        status = "pass" if not n_fail else f"{n_fail} failing"
        return f"VerificationReport({len(self.entries)} checks, {status})"


def serialize_witness(witness, render_coeff):
    """Canonical JSON form of a failure witness (element, tensor, or text)."""
    if witness is None:
        return None
    if isinstance(witness, str):
        return {"kind": "note", "text": witness}
    doc = {"kind": "element"} if isinstance(witness, Element) else {
        "kind": "tensor", "signature": ["op" if s else "plain" for s in witness.signature]}
    doc["terms"] = terms_json(witness, render_coeff)
    return doc


def terms_json(value, render_coeff) -> list:
    """The sorted terms of an element, each coefficient with its "word", or
    of a tensor, each with its "factors" (one word per slot)."""
    if isinstance(value, Element):
        name, tokens = "word", word_to_tokens
    else:
        name, tokens = "factors", lambda words: [word_to_tokens(w) for w in words]
    return [{"coeff": render_coeff(c), name: tokens(k)} for k, c in value.sorted_terms()]


def entry_to_json(entry: CheckEntry, render_coeff) -> dict:
    doc = {
        "check": entry.check,
        "anchor": entry.anchor,
        "subject": entry.subject,
        "status": "pass" if entry.passed else "fail",
    }
    if not entry.passed:
        doc["witness"] = serialize_witness(entry.witness, render_coeff)
    return doc
