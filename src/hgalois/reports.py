"""Verification reports: named check entries with exact failure witnesses."""

from .errors import InputError
from .presentations import Element, word_to_tokens


class CheckEntry:
    """A law that fails iff it has a witness, a nonzero element or tensor."""

    __slots__ = ("check", "anchor", "subject", "witness")

    def __init__(self, check, anchor, subject, witness=None):
        self.check = check
        self.anchor = anchor
        self.subject = subject
        self.witness = witness or None

    @property
    def passed(self) -> bool:
        return self.witness is None

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

    def add_vanishing(self, check, anchor, subject, diff):
        """A law that holds iff `diff` (an element or tensor) is zero; a
        nonzero difference is the failure witness."""
        self.entries.append(CheckEntry(check, anchor, subject, diff))

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
    """Canonical JSON form of a failure witness, an element or a tensor."""
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


# the keys, in order, of a passing entry's dict; a failing entry's dict
# has its "witness" after them
PASSING_KEYS = ("command", "check", "anchor", "subject", "status")


def entry_to_json(entry: CheckEntry, render_coeff, command: str) -> dict:
    doc = {
        "command": command,
        "check": entry.check,
        "anchor": entry.anchor,
        "subject": entry.subject,
        "status": "pass" if entry.passed else "fail",
    }
    if not entry.passed:
        doc["witness"] = serialize_witness(entry.witness, render_coeff)
    return doc


def render_json(entries, summary) -> str:
    """The JSON report: the entry dicts, then the summary object, as
    `json.dumps(indent=2, ensure_ascii=False)` writes the list of them.  An
    entry dict with exactly the `PASSING_KEYS`, in that order, and only
    string values is written by one template; every other entry and the
    summary go through `json.dumps`, indented one level (a line break in
    its text is always a line of the layout, since strings escape theirs)."""
    import json  # here, so that `import hgalois` does not load json

    quote = json.encoder.encode_basestring
    out = []
    line = "[\n  "
    for entry in entries + [{"summary": summary}]:
        out.append(line)
        line = ",\n  "
        if type(entry) is dict and tuple(entry) == PASSING_KEYS:
            command, check, anchor, subject, status = entry.values()
            if type(command) is type(check) is type(anchor) is type(subject) \
                    is type(status) is str:
                out.append(f'{{\n    "command": {quote(command)},\n'
                           f'    "check": {quote(check)},\n    "anchor": {quote(anchor)},\n'
                           f'    "subject": {quote(subject)},\n'
                           f'    "status": {quote(status)}\n  }}')
                continue
        out.append(json.dumps(entry, indent=2, ensure_ascii=False).replace("\n", "\n  "))
    out.append("\n]\n")
    return "".join(out)


def render_text(entries, summary) -> str:
    """The text report: one line per entry under its command, each failing
    entry's witness in compact JSON, the summary line and the results."""
    import json  # here, so that `import hgalois` does not load json

    lines = [f"job: {summary['job']} (field: {summary['field']})"]
    current = None
    for e in entries:
        if e["command"] != current:
            current = e["command"]
            lines.append(f"== {current} ==")
        status = "PASS" if e["status"] == "pass" else "FAIL"
        lines.append(f"  {status}  {e['check']} [{e['anchor']}] :: {e['subject']}")
        if e["status"] == "fail":
            lines.append(f"        witness: {json.dumps(e['witness'], ensure_ascii=False)}")
    lines.append(
        f"summary: {summary['checks']} checks, {summary['passed']} passed, "
        f"{summary['failed']} failed -> {summary['status'].upper()}"
    )
    if "results" in summary:
        lines.append("results:")
        lines.append(json.dumps(summary["results"], indent=2, ensure_ascii=False))
    return "\n".join(lines) + "\n"
