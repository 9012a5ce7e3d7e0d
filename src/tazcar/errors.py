"""Exception and warning types shared across the toolkit, and the one way in
for every input file: the line scanner of the text formats, the loader of the
JSON documents, and the helper that places a rejected entry at its line."""

import json


class TazcarError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(TazcarError):
    """Malformed input data: bad graph edges, bad topology pairs, bad records."""


# Node and zone counts, stated or implied by the largest id, above this are
# input errors: the graphs and matrices read allocate per node or zone.
MAX_COUNT = 1_000_000


def parse_count(word) -> int:
    """A ``nodes N`` or ``zones N`` header value: an integer in [1, MAX_COUNT]."""
    value = int(word)
    if not 1 <= value <= MAX_COUNT:
        raise ValueError(word)
    return value


def entry_count(stated, entries) -> int:
    """A stated node or zone count, or else one more than the largest id in
    the first two fields of the entries, capped at MAX_COUNT."""
    return stated or min(max((max(e[:2]) for e in entries), default=-1) + 1, MAX_COUNT)


def lines(path):
    """(line number, words) of each line of a text input that is not blank
    once a ``#`` comment is cut off."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                words = line.split("#", 1)[0].split()
                if words:
                    yield lineno, words
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def scan_lines(path, headers, parse):
    """Tokenise a line-oriented input file into (header values, entries,
    entry line numbers).

    ``headers`` maps a header keyword to ``(what, convert)``: its line must be
    ``keyword value`` and holds ``convert(value)``.  Every other line is an
    entry, ``parse(words)``.  A rejected line, whether ``parse`` raises a
    ``ValidationError`` or a conversion fails, is an error at ``path:line``.
    """
    values, entries, linenos = {}, [], []
    for lineno, words in lines(path):
        try:
            if words[0] in headers:
                what, convert = headers[words[0]]
                if len(words) != 2:
                    raise ValidationError(f"malformed header {' '.join(words)!r}")
                try:
                    values[words[0]] = convert(words[1])
                except ValueError:
                    raise ValidationError(f"bad {what} {words[1]!r}") from None
            else:
                try:
                    entries.append(parse(words))
                except ValueError:
                    raise ValidationError(f"malformed entry {' '.join(words)!r}") from None
                linenos.append(lineno)
        except ValidationError as bad:
            raise ValidationError(f"{path}:{lineno}: {bad}") from None
    return values, entries, linenos


def located(path, linenos, entries, check, exc) -> ValidationError:
    """A file's rejected content as an error at ``path:line`` of the first
    entry that ``check(entry, seen)`` rejects, or at ``path`` when every entry
    passes; ``seen`` is a dict that check may fill."""
    seen = {}
    for lineno, entry in zip(linenos, entries):
        try:
            check(entry, seen)
        except ValidationError as bad:
            return ValidationError(f"{path}:{lineno}: {bad}")
    return ValidationError(f"{path}: {exc}")


def load_json(path, build):
    """``build(document)`` for the JSON object stored at path.  Invalid JSON,
    a document that is not an object, and a ``TypeError``, ``ValueError`` or
    ``ValidationError`` from build are errors at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(document, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(document).__name__}")
    try:
        return build(document)
    except (TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def dump_json(fields, path=None) -> str:
    """The indented JSON text of ``fields``, also written to path when given."""
    text = json.dumps(fields, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


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
