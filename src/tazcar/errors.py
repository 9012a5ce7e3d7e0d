"""Exception and warning types shared across the toolkit, and the helper that
places an error in a parsed file at its line."""


class TazcarError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(TazcarError):
    """Malformed input data: bad graph edges, bad topology pairs, bad records."""


def located(path, linenos, entries, check, exc) -> ValidationError:
    """A file's rejected content as an error at ``path:line`` of the first
    entry that ``check(entry, seen)`` rejects, or at ``path`` when every entry
    passes; ``seen`` is a set that check may fill."""
    seen = set()
    for lineno, entry in zip(linenos, entries):
        try:
            check(entry, seen)
        except ValidationError as bad:
            return ValidationError(f"{path}:{lineno}: {bad}")
    return ValidationError(f"{path}: {exc}")


class DomainError(TazcarError):
    """Input is structurally valid but outside an operation's domain."""


class ConvergenceError(TazcarError):
    """An iterative procedure failed to converge within its budget."""


class McmcDivergenceError(TazcarError):
    """Sampler state became numerically unusable; carries diagnostics text."""


class ConnectivityWarning(UserWarning):
    """Graph or weight matrix is not fully connected."""


class DataWarning(UserWarning):
    """Suspicious but usable data (constant columns, pattern mismatches, ...)."""
