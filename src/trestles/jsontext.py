"""Indented JSON text at the speed of the C encoder.

``indented(value)`` is ``json.dumps(value, indent=2, sort_keys=True)``
for the values the command line prints: dicts with string keys, lists
and tuples, strings, bools, ints, floats and None.  CPython's json
module encodes in C only when ``indent`` is None, so an indented
certificate goes through the pure-Python encoder, about six times
slower than the compact text.

A list whose items are all scalars, or all non-empty lists of scalars
(a certificate's degrees, edges and matching), is written compactly by
the C encoder and then re-indented with ``str.replace``: with no string
in it (a string is always written with a quote), ``", "`` occurs only
between items, and ``"], ["`` only between rows.  Every other value is
written item by item, dict keys in sorted order, each scalar as json
writes it.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote


def indented(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``; a dict key that
    is not a string is a TypeError."""
    return _text(value, "\n")


def _text(value, pad: str) -> str:
    """``value`` written with its closing bracket at ``pad``, a newline
    and the spaces of its own depth."""
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return repr(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        if set(map(type, value)) != {str}:
            raise TypeError("only string dict keys are written")
        items = [_quote(k) + ": " + _text(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if not isinstance(value, (list, tuple)):
        return json.dumps(value)
    if not value:
        return "[]"
    compact = json.dumps(value)
    if '"' not in compact and "{" not in compact:
        rows = compact.count("[") - 1
        if rows == 0:
            return "[" + inner + compact[1:-1].replace(", ", "," + inner) + pad + "]"
        if rows == len(value) and all(value) and set(map(type, value)) <= {list, tuple}:
            deeper = inner + "  "
            body = compact[2:-2].replace(", ", "," + deeper)
            body = body.replace("]," + deeper + "[", inner + "]," + inner + "[" + deeper)
            return "[" + inner + "[" + deeper + body + inner + "]" + pad + "]"
    items = [_text(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(items) + pad + "]"
