"""Shared parts of the digest gates: the decision form of a record, the
comparison with a golden file, and the moved-line report of a ``--write``.

A digest gate hashes the record lines of each case twice: as they are, and
in their decision form, the same records with every float-valued field
dropped (``without_floats``).  The decision form keeps flags, cases,
integer counts, labels, notes and refusal texts, so a change that only
moves float digits moves the first digest and leaves the second alone.

``--write`` keeps a 16-hex-digit sha256 prefix of every line it wrote, per
case, in a ``.lines.json`` file next to the golden file (not committed), and
on the next ``--write`` counts the lines that moved in each case against
it, and names each saved case that is gone.  Run ``--write`` once before
an intended change to have the counts afterwards.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from gardinglab.config import Record


def _float_valued(value) -> bool:
    """A float, a float array, or a non-empty list of float-valued items."""
    if isinstance(value, float) or getattr(getattr(value, "dtype", None), "kind", "") == "f":
        return True
    return isinstance(value, (list, tuple)) and bool(value) and all(map(_float_valued, value))


def without_floats(value):
    """``value`` with every float-valued field of a dict or record dropped;
    a ``Record`` becomes its record, tagged with its type name."""
    if isinstance(value, Record):
        return {"type": type(value).__name__, **without_floats(value.to_record())}
    if isinstance(value, dict):
        return {k: without_floats(v) for k, v in value.items() if not _float_valued(v)}
    if isinstance(value, (list, tuple)):
        return [without_floats(item) for item in value]
    return value


def moved_cases(golden: Path, actual: dict) -> list:
    """The cases of ``golden`` whose digest in ``actual`` differs; the two
    must hold the same cases, and a mismatch names the missing and the
    extra ones."""
    expected = json.loads(golden.read_text(encoding="utf-8"))
    missing, extra = sorted(expected.keys() - actual), sorted(actual.keys() - expected)
    assert not missing and not extra, f"{golden.name}: missing {missing}, extra {extra}"
    return [case for case in expected if actual[case] != expected[case]]


def _line_hashes(lines: list) -> list:
    return [hashlib.sha256(line.encode()).hexdigest()[:16] for line in lines]


def report_moved_lines(golden: Path, lines: dict) -> None:
    """Print, per case of ``lines`` (case -> record lines), how many lines
    moved since the last ``--write`` of ``golden``, and each saved case that
    is gone; save the new line hashes for the next one."""
    saved = golden.with_suffix(".lines.json")
    old = json.loads(saved.read_text(encoding="utf-8")) if saved.exists() else None
    new = {case: _line_hashes(case_lines) for case, case_lines in lines.items()}
    if old is None:
        print(f"no saved lines at {saved.name}: moved lines are counted from the next --write")
    else:
        for case in sorted(new):
            before, after = old.get(case, []), new[case]
            moved = sum(a != b for a, b in zip(before, after)) + abs(len(before) - len(after))
            if moved:
                print(f"moved: {case}: {moved} of {len(after)} lines")
        for case in sorted(old.keys() - new.keys()):
            print(f"removed: {case}")
    saved.write_text(json.dumps(new, sort_keys=True) + "\n", encoding="utf-8")
