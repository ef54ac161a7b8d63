"""Plain-text file formats: spectrum/vector lists and tensor component lists.

Vector files hold comma- or whitespace-separated decimals (scientific
notation allowed) with ``#`` comments, in ASCII digits without the digit
separators ``float()`` and ``int()`` also read; values are printed back with
Python's shortest round-tripping representation, so write-read is
bit-exact.

Tensor files hold one component per line as ``i j k l value`` with 1-based
indices.  Only entries with i < j, k < l and (i, j) <= (k, l) in
lexicographic order may appear; every other component follows from the
algebraic symmetries.  An optional ``dim n`` line fixes the frame dimension,
otherwise the largest index seen is used.

The module imports no numpy.  A vector text parses to a list of Python
floats (``parse_vector_text``, ``read_vector_file``), which the CLI's
``cone-test`` and ``classify`` read their files through, so they check
the number of entries before any numeric module loads; a caller that
needs an array takes ``np.asarray`` of the list.  ``parse_tensor_text``
hands the independent components it read to ``curvature._from_canonical``,
which fills in the rest and decides the layout: while numpy is not
loaded, as in a ``model-space`` run of the CLI, a tensor of dimension up
to 12 is a flat tuple of Python floats, with the bits of the array.
``format_vector`` prints each value as a Python float, so it loads no
numpy, whose import costs more than that float work.
"""

from __future__ import annotations

import math
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from .config import VectorParseError

if TYPE_CHECKING:
    from .curvature import CurvatureTensor

__all__ = [
    "VectorParseError",
    "parse_vector_text",
    "read_vector_file",
    "format_vector",
    "parse_tensor_text",
    "read_tensor_file",
]


def _decimal(parse, token: str):
    """``parse(token)``, ``float`` or ``int``; ValueError on a ``_`` or a
    non-ASCII character, which those read but the decimal format does not."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return parse(token)


def _decimal_parsers(text: str):
    """``int`` and ``float`` for the tokens of ``text``: the builtins
    themselves where the text has no ``_`` and is all ASCII, so that no
    token can hold either, and otherwise their ``_decimal`` forms."""
    if "_" not in text and text.isascii():
        return int, float
    return partial(_decimal, int), partial(_decimal, float)


def parse_vector_text(text: str) -> list[float]:
    """The decimals of a vector text, separated by commas and/or whitespace,
    as a list of Python floats, parsed without numpy.

    Surrounding parentheses or brackets are ignored, so tuple-style files
    like ``(1,2,3)`` load as written.
    """
    values: list[float] = []
    _, parse_float = _decimal_parsers(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0]
        for ch in ",()[]":
            body = body.replace(ch, " ")
        for token in body.split():
            try:
                value = parse_float(token)
            except ValueError:
                raise VectorParseError(f"not a number: {token!r}", lineno) from None
            if not math.isfinite(value):
                raise VectorParseError(f"non-finite value: {token!r}", lineno)
            values.append(value)
    if not values:
        raise VectorParseError("no numeric entries found", 1)
    return values


def _read_text(path: str | Path) -> str:
    """UTF-8 file contents; a byte that does not decode is an error on its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise VectorParseError(f"not UTF-8 text ({exc.reason})", line) from None


def read_vector_file(path: str | Path) -> list[float]:
    return parse_vector_text(_read_text(path))


def format_vector(values) -> str:
    """Comma-separated shortest-representation decimals (bit-exact reload)
    of a sequence of floats or a 1-D float array."""
    return ",".join(repr(float(v)) for v in values)


def parse_tensor_text(text: str) -> CurvatureTensor:
    """Parse an ``i j k l value`` component list into a curvature tensor."""
    entries: dict[tuple[int, int, int, int], float] = {}  # 0-based keys
    dim: int | None = None
    max_index = max_line = 0
    parse_int, parse_float = _decimal_parsers(text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0]
        tokens = body.replace(",", " ").split()
        if not tokens:
            continue
        if tokens[0].lower() == "dim":
            if len(tokens) != 2:
                raise VectorParseError("dim line must be 'dim n'", lineno)
            try:
                size = parse_int(tokens[1])
            except ValueError:
                raise VectorParseError(f"bad dimension {tokens[1]!r}", lineno) from None
            if size < 3:
                raise VectorParseError(f"need dimension >= 3, got {size}", lineno)
            if dim is not None and size != dim:
                raise VectorParseError(f"conflicting dim {size} after dim {dim}", lineno)
            dim = size
            continue
        if len(tokens) != 5:
            raise VectorParseError(
                f"expected 'i j k l value', got {len(tokens)} fields", lineno
            )
        ti, tj, tk, tl, field = tokens
        try:
            i, j, k, l = parse_int(ti), parse_int(tj), parse_int(tk), parse_int(tl)
            value = parse_float(field)
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
        if max(j, l) > max_index:
            max_index, max_line = max(j, l), lineno
    n = dim if dim is not None else max_index
    if n < 3:
        raise VectorParseError("need dimension >= 3 (add a 'dim n' line?)", 1)
    if max_index > n:
        raise VectorParseError(f"index {max_index} exceeds dim {n}", max_line)
    from .curvature import _from_canonical

    return _from_canonical(n, entries)


def read_tensor_file(path: str | Path) -> CurvatureTensor:
    return parse_tensor_text(_read_text(path))
