"""Exception hierarchy shared across the package."""


class HgError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HgError):
    """Malformed or inconsistent user input (bad symbols, mixed parents, ...)."""


class CharacteristicError(InputError):
    """A structure was loaded over a field of forbidden characteristic."""


class DegreeCapError(HgError):
    """A normal-form computation hit the configured degree cap; `word` is
    the offending word.

    Raised instead of truncating: a silent cut-off would turn failed
    identities into fake passes.
    """

    def __init__(self, operation, word, cap):
        from .presentations import word_str  # presentations imports this module

        self.operation = operation
        self.word = word
        self.word_length = len(word)
        self.cap = cap
        super().__init__(
            f"{operation}: word {word_str(word)} of length {len(word)} exceeds degree cap {cap}"
        )


class ConfluenceError(HgError):
    """A critical pair of rewrite rules failed to resolve; `word` is its
    overlap word (None when the raiser does not give one)."""

    def __init__(self, message, word=None):
        self.word = word
        super().__init__(message)


class JobError(InputError):
    """A CLI job file violated the schema; carries a field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
