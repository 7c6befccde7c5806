"""The one reader of input files: how a JSON input is read and decoded,
and how a malformed one is reported, always as a :class:`ModelFormatError`
that says what and where, starting with the file's path.  A repeated object
key is an error, a boolean is not an integer, and a string is not a list of
names.
"""

from __future__ import annotations

import json

from .errors import ExpressionError, ModelFormatError

# Kinds beyond JSON types, each a container whose items all have one type.
NAMES = "a list of names"
NAME_MAP = "an object of names"
FLAGS = "an object of booleans"
_CONTAINERS = {NAMES: (list, str), NAME_MAP: (dict, str), FLAGS: (dict, bool)}

_REQUIRED = object()

_KIND_TEXT = {dict: "an object", list: "a list", str: "a string",
              int: "an integer", float: "a real number", bool: "a boolean",
              type(None): "null"}


def decode_json(text: str, source: str = "", duplicate: str = "duplicate key"):
    """Decode JSON text.  An error message starts with `source` when one is
    given; an object with a repeated key is rejected as `duplicate`."""
    at = f"{source}: " if source else ""

    def unique_keys(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            # the key whose second occurrence comes first
            seen: set[str] = set()
            repeated = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise ModelFormatError(f"{at}{duplicate} {repeated!r}")
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"{at}syntax error: {err.msg} "
                               f"(line {err.lineno}, column {err.colno})") from None
    except RecursionError:
        raise ModelFormatError(f"{at}nested too deeply") from None


def read_json(path, convert, duplicate: str = "duplicate key"):
    """convert(the JSON document in the file at `path`).  An error in
    reading, decoding or converting it, an :class:`ExpressionError` or a
    ``ValueError`` of the converter's included, is a
    :class:`ModelFormatError` that starts with the path, the one place a
    file's errors are named."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = decode_json(fh.read(), duplicate=duplicate)
        return convert(doc)
    except (OSError, UnicodeDecodeError) as err:
        reason = f"cannot read: {getattr(err, 'strerror', None) or err}"
    except (ModelFormatError, ExpressionError, ValueError) as err:
        # a converter's own checks: a malformed expression, a value out of
        # range
        reason = err
    raise ModelFormatError(f"{path}: {reason}")


def dot_escape(name: str) -> str:
    """`name`, any JSON string, escaped for a DOT quoted string."""
    return name.replace("\\", "\\\\").replace('"', '\\"')


def expect(value, kind, what: str):
    """`value` if it has the kind `kind` (a type, :data:`NAMES`,
    :data:`NAME_MAP`, :data:`FLAGS`, or a tuple of these), else an error
    naming `what`."""
    if _has_kind(value, kind):
        return value
    kinds = kind if type(kind) is tuple else (kind,)
    shown = json.dumps(value, default=repr)
    if len(shown) > 40:
        shown = shown[:37] + "..."
    raise ModelFormatError(
        f"{what} must be {' or '.join(_KIND_TEXT.get(k, k) for k in kinds)}, got {shown}")


def field(doc: dict, key: str, kind, where: str, default=_REQUIRED):
    """`doc[key]` checked by :func:`expect`; `default` when the key is
    absent and a default is given."""
    if key not in doc:
        if default is _REQUIRED:
            raise ModelFormatError(f"{where}: missing key {key!r}")
        return default
    value = doc[key]
    # The message is formatted only for a value of the wrong kind.
    return value if _has_kind(value, kind) else expect(value, kind, f"{where}: {key!r}")


def _has_kind(value, kind) -> bool:
    if type(kind) is tuple:
        return any(_has_kind(value, k) for k in kind)
    if kind in _CONTAINERS:
        container, item = _CONTAINERS[kind]
        items = value.values() if type(value) is dict else value
        return type(value) is container and all(type(x) is item for x in items)
    # Exact types: bool is a subclass of int in Python, but not in JSON.
    return type(value) is kind
