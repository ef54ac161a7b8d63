"""Plain-text file formats: spectrum/vector lists and tensor component lists.

Vector files hold comma- or whitespace-separated decimals (scientific
notation allowed) with ``#`` comments; values are printed back with
Python's shortest round-tripping representation, so write-read is
bit-exact.

Tensor files hold one component per line as ``i j k l value`` with 1-based
indices.  Only entries with i < j, k < l and (i, j) <= (k, l) in
lexicographic order may appear; every other component follows from the
algebraic symmetries.  An optional ``dim n`` line fixes the frame dimension,
otherwise the largest index seen is used.

numpy is imported by the functions that build or format arrays, once the
text has parsed, so a malformed file fails without loading it.  The float
parse of a vector text is numpy-free on its own (``_parse_floats``), so a
caller can check the number of entries before any array is built.
``parse_tensor_text`` hands the independent components it read to
``curvature._from_canonical``, which fills in the rest and decides the
layout: while numpy is not loaded, as in a ``model-space`` run of the CLI,
a tensor of dimension up to 12 is a flat tuple of Python floats, with the
bits of the array.  ``format_vector`` prints each value as a Python float,
so it loads no numpy, whose import costs more than that float work.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING

from .config import VectorParseError

if TYPE_CHECKING:
    import numpy as np

    from .curvature import CurvatureTensor

__all__ = [
    "VectorParseError",
    "parse_vector_text",
    "read_vector_file",
    "format_vector",
    "parse_tensor_text",
    "read_tensor_file",
]


def _parse_floats(text: str) -> list[float]:
    """The decimals of a vector text, separated by commas and/or whitespace,
    parsed without numpy.

    Surrounding parentheses or brackets are ignored, so tuple-style files
    like ``(1,2,3)`` load as written.
    """
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0]
        for ch in ",()[]":
            body = body.replace(ch, " ")
        for token in body.split():
            try:
                value = float(token)
            except ValueError:
                raise VectorParseError(f"not a number: {token!r}", lineno) from None
            if not math.isfinite(value):
                raise VectorParseError(f"non-finite value: {token!r}", lineno)
            values.append(value)
    if not values:
        raise VectorParseError("no numeric entries found", 1)
    return values


def parse_vector_text(text: str) -> np.ndarray:
    """Parse a vector text (see ``_parse_floats``) into a float array."""
    values = _parse_floats(text)
    import numpy as np

    return np.array(values, dtype=float)


def _read_text(path: str | Path) -> str:
    """UTF-8 file contents; a byte that does not decode is an error on its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise VectorParseError(f"not UTF-8 text ({exc.reason})", line) from None


def read_vector_file(path: str | Path) -> np.ndarray:
    return parse_vector_text(_read_text(path))


def format_vector(values) -> str:
    """Comma-separated shortest-representation decimals (bit-exact reload)
    of a sequence of floats or a 1-D float array."""
    return ",".join(repr(float(v)) for v in values)


def parse_tensor_text(text: str) -> CurvatureTensor:
    """Parse an ``i j k l value`` component list into a curvature tensor."""
    entries: dict[tuple[int, int, int, int], float] = {}  # 0-based keys
    dim: int | None = None
    max_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0]
        tokens = body.replace(",", " ").split()
        if not tokens:
            continue
        if tokens[0].lower() == "dim":
            if len(tokens) != 2:
                raise VectorParseError("dim line must be 'dim n'", lineno)
            try:
                dim = int(tokens[1])
            except ValueError:
                raise VectorParseError(f"bad dimension {tokens[1]!r}", lineno) from None
            continue
        if len(tokens) != 5:
            raise VectorParseError(
                f"expected 'i j k l value', got {len(tokens)} fields", lineno
            )
        ti, tj, tk, tl, field = tokens
        try:
            i, j, k, l = int(ti), int(tj), int(tk), int(tl)
            value = float(field)
        except ValueError:
            raise VectorParseError(f"bad component line: {body.strip()!r}", lineno) from None
        if not math.isfinite(value):
            raise VectorParseError(f"non-finite value: {field!r}", lineno)
        if i < 1 or j < 1 or k < 1 or l < 1:
            raise VectorParseError("indices are 1-based", lineno)
        if not (i < j and k < l and (i, j) <= (k, l)):
            raise VectorParseError(
                "need i < j, k < l and (i,j) <= (k,l); other components "
                "follow by symmetry",
                lineno,
            )
        key = (i - 1, j - 1, k - 1, l - 1)
        if key in entries and entries[key] != value:
            raise VectorParseError(f"conflicting duplicate for {(i, j, k, l)}", lineno)
        entries[key] = value
        # i < j, k < l and i <= k, so j or l is the largest index.
        max_index = max(max_index, j, l)
    n = dim if dim is not None else max_index
    if n < 3:
        raise VectorParseError("need dimension >= 3 (add a 'dim n' line?)", 1)
    if max_index > n:
        raise VectorParseError(f"index {max_index} exceeds dim {n}", 1)
    from .curvature import _from_canonical

    return _from_canonical(n, entries)


def read_tensor_file(path: str | Path) -> CurvatureTensor:
    return parse_tensor_text(_read_text(path))
