"""Decode a ``POST /predict`` body's ``rows`` straight from its bytes.

:func:`decode_rows_first` reads the bodies every client in this repository
sends — ``{"rows": [[...], ...], ...}`` with ``rows`` first, as ``json.dumps``
writes it, every literal of one width and shape (``0``/``1``, ``0.0``/``1.0``,
fixed-point) and at most 15 digits — as the byte columns of one strided view,
and leaves ``json.loads`` only the rest of the document.  The digits form a
mantissa below 10**15 < 2**53 and ``10.0**f`` is exact for ``f <= 22``, so one
correctly rounded division is the correctly rounded decimal (Clinger's fast
path): bit for bit what ``float()`` returns.  Any other body returns ``None``.
"""

from __future__ import annotations

import json
import re
from typing import Optional, Tuple

import numpy as np

__all__ = ["decode_rows_first"]

_ROWS_FIRST = re.compile(rb'[ \t\n\r]*\{[ \t\n\r]*"rows"[ \t\n\r]*:[ \t\n\r]*')
# Byte classes: 1 literal byte, 2 ",", 3 "[", 4 "]", 5 " ", 0 anything else.
_KINDS = {**dict.fromkeys(b"0123456789-.", 1), ord(","): 2, ord("["): 3, ord("]"): 4, 32: 5}
_CLASS = bytes(_KINDS.get(c, 0) for c in range(256))
_LITERAL = re.compile(r"(-?)(d+)(?:\.(d+))?")


def decode_rows_first(body: bytes) -> Optional[Tuple[np.ndarray, dict]]:
    """``(matrix, rest)`` for a body in the fast form, else ``None``.

    ``matrix`` is byte-identical to ``np.asarray(json.loads(body)["rows"],
    np.float64)``; ``rest`` is ``json.loads(body)`` with ``"rows"`` replaced
    by ``[]``.
    """
    head = _ROWS_FIRST.match(body)
    if head is None:
        return None
    start = head.end()
    stops = [i for i in (body.find(b'"', start), body.find(b"}", start)) if i >= 0]
    end = body.rfind(b"]", start, min(stops, default=len(body))) + 1
    span = body[start:end]
    classes = span.translate(_CLASS)
    # Row 0 gives the shape — w literals of m bytes, k spaces after a comma —
    # and one compare against that layout checks every other byte.
    r, comma = classes.find(b"\x04"), classes.find(b"\x02")
    k = int(classes[comma + 1 : comma + 2] == b"\x05")
    w = classes.count(b"\x02", 0, r) + 1
    m, ragged = divmod(r - 2 - (w - 1) * (1 + k), w)
    if not 0 < m <= 17 or ragged:
        return None
    h, extra = divmod(len(span) - 1 + k, r + 1 + k)
    sep = b"\x02" + b"\x05" * k
    row = (b"\x01" * m + sep) * (w - 1) + b"\x01" * m
    if extra or classes != b"\x03\x03" + (b"\x04" + sep + b"\x03").join([row] * h) + b"\x04\x04":
        return None
    literals = np.frombuffer(span, np.uint8)[2:]
    strides = (1, r + 1 + k, m + 1 + k)  # column j: byte j of every literal
    values = _literal_values(np.lib.stride_tricks.as_strided(literals, (m, h, w), strides))
    tail = body[end:]
    if values is None or b"rows" in tail or b"\\" in tail:
        return None  # a later (possibly escaped) duplicate key would win in json
    try:
        rest = json.loads((body[:start] + b"[]" + tail).decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    return values, rest


def _literal_values(columns: np.ndarray) -> Optional[np.ndarray]:
    """Values of literals whose byte columns are each all "-", all "." or all digits."""
    kinds = ""
    for column in columns:  # "-" is 45, "." 46, digits 48-57
        low, high = int(column.min()), int(column.max())
        kinds += "d" if low >= 48 else "-" if high == 45 else "." if low == 46 == high else "?"
    literal = _LITERAL.fullmatch(kinds)
    if literal is None or kinds.count("d") > 15:
        return None
    sign, whole, fraction = literal.groups()
    if len(whole) > 1 and (columns[len(sign)] == 48).any():
        return None  # a leading zero
    mantissa = np.zeros(columns.shape[1:], np.int64)
    for column, kind in zip(columns, kinds):
        if kind == "d":
            mantissa *= 10
            mantissa += column
    mantissa -= 48 * (10 ** kinds.count("d") - 1) // 9
    if fraction is None:  # an integer "-0" is +0.0, as float(int("-0")) is
        return (-mantissa if sign else mantissa).astype(np.float64)
    values = mantissa / float(10 ** len(fraction))
    return -values if sign else values  # "-0.0" stays -0.0
