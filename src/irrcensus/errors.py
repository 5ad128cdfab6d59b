import operator


class DomainError(ValueError):
    """Invalid mathematical input (bad discriminant, composite prime, ...)."""


class ResourceLimitError(DomainError):
    """A configured search or memory bound would be exceeded."""


def as_int(value, what: str) -> int:
    """``operator.index(value)``, or a DomainError naming a value that is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
