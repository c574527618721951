"""Exception types shared across the toolkit."""


class AcdlabError(Exception):
    """Base class for all toolkit errors."""


class InputError(AcdlabError):
    """A caller-supplied argument violates a documented precondition."""


class DomainError(AcdlabError):
    """An operation was applied outside its mathematical domain."""


class SizeLimitError(AcdlabError):
    """Group enumeration exceeded the configured order cap."""


class ConstructionError(AcdlabError):
    """A group specification violates one of its validity conditions."""


class EngineInvariantError(AcdlabError):
    """An internal consistency check of the engine failed: a bug, not bad input."""


class SpecSyntaxError(AcdlabError):
    """Spec text failed to parse; carries the character offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
