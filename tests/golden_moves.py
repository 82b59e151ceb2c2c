"""What moved between a golden JSON document and a new one, key path by key
path, for `golden_cases.py --check`.  Kept apart from golden_cases.py, which
the benchmark harness loads from source in every set-up."""

import json

MISSING = object()


def moved(golden, new, path=""):
    """`path: golden -> new` for each JSON key path where the document new
    differs from golden, both parsed by parse, so a number that prints
    other digits moves even where the floats are equal.  A key or list item
    only one side has reads <missing> on the other."""
    if isinstance(golden, dict) and isinstance(new, dict):
        out = []
        for key in list(golden) + [k for k in new if k not in golden]:
            out += moved(golden.get(key, MISSING), new.get(key, MISSING),
                         f"{path}.{key}" if path else key)
        return out
    if isinstance(golden, list) and isinstance(new, list):
        out = []
        for i in range(max(len(golden), len(new))):
            out += moved(golden[i] if i < len(golden) else MISSING,
                         new[i] if i < len(new) else MISSING, f"{path}[{i}]")
        return out
    if golden == new and type(golden) is type(new):
        return []
    return [f"{path or '(document)'}: {_show(golden)} -> {_show(new)}"]


class _Number(str):
    """A JSON number as its text."""


def _show(value):
    if value is MISSING:
        return "<missing>"
    return value if isinstance(value, _Number) else json.dumps(value)


def parse(text):
    """The JSON document text, its numbers kept as their text (_Number), or
    text itself where it is not JSON."""
    try:
        return json.loads(text, parse_float=_Number)
    except ValueError:
        return text
