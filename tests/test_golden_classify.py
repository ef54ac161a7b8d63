"""Digest gate on the classifier: one sha256 per (kind, n, spectrum) case.

Each case classifies one spectrum at every shift strength of a grid, at
two cone tolerances, and hashes the ``json.dumps(..., sort_keys=True)``
records (or the refusal text) line by line.  The grid takes eps at every
verdict threshold, at every integer positivity target, at 3n/4 and at each
C_p(n), each times (1 +- 1 ulp), (1 +- 2^-40) and (1 +- 1e-9); the
spectrum's critical shift eps* times (1 +- 2^-40) and 1; and 20 random
shift strengths.  One more digest pins ``thresholds(n, n).to_record()`` for
n = 2..5000.  Each case has a second digest over the same records in their
decision form, with every float-valued field dropped
(``golden_digests.without_floats``): flags, ``m_positive``, Betti ranges,
verdict labels, notes, inequality texts and refusal texts stay, so a change
that only moves margin digits leaves it alone.  The expected digests live
in ``tests/golden/classify_digests.json`` and
``tests/golden/classify_decisions.json``; regenerate them only for an
intended output change, with

    PYTHONPATH=src python tests/test_golden_classify.py --write

which prints, per case, how many lines moved since the last ``--write``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import sys
from pathlib import Path

from gardinglab.classify import classify_first_kind, classify_kaehler, classify_second_kind
from gardinglab.tables import (
    KIND_FIRST,
    KIND_KAEHLER,
    KIND_SECOND,
    SPECTRUM_SIZES,
    Spectrum,
    form_degree_coeff,
    thresholds,
)
from golden_digests import moved_cases, report_moved_lines, without_floats

GOLDEN = Path(__file__).parent / "golden" / "classify_digests.json"
DECISIONS = GOLDEN.with_name("classify_decisions.json")

CLASSIFIERS = {
    KIND_FIRST: classify_first_kind,
    KIND_SECOND: classify_second_kind,
    KIND_KAEHLER: classify_kaehler,
}
DIMS = {KIND_FIRST: range(3, 9), KIND_SECOND: range(3, 9), KIND_KAEHLER: range(2, 6)}
TOLS = (1e-9, 1e-3)
THRESHOLD_DIMS = range(2, 5001)


def _spectra(N: int) -> dict:
    """Five sorted spectra of length N: constant, ramp, two-level, one with
    a negative entry, and uniform random."""
    rng = random.Random(N)
    z = N // 3
    return {
        "constant": [1.0] * N,
        "ramp": [float(i) for i in range(1, N + 1)],
        "two_level": [0.0] * z + [1.0] * (N - z),
        "negative": sorted([-0.25] + [1.0 + i / N for i in range(N - 1)]),
        "random": sorted(rng.uniform(-0.1, 1.0) for _ in range(N)),
    }


def _eps_at(m: float, N: int) -> float:
    """The eps whose m_eps is m: sqrt(m / ((N-1)(N-m)))."""
    return math.sqrt(m / ((N - 1) * (N - m)))


def critical_epsilon(values: list) -> float:
    """eps* = sqrt((N sum l^2 / S^2 - 1)/(N - 1)), S = sum l; 0 when S <= 0."""
    N = len(values)
    s = math.fsum(values)
    if s <= 0.0:
        return 0.0
    return math.sqrt(max(N * math.fsum(v * v for v in values) / (s * s) - 1.0, 0.0) / (N - 1))


def eps_grid(kind: str, n: int) -> list:
    """Shift strengths through every threshold and target of (kind, n)."""
    N = SPECTRUM_SIZES[kind][0](n)
    table = thresholds(None if kind == KIND_KAEHLER else n, n if kind == KIND_KAEHLER else None)
    centres = [t for t in table.to_record().values() if isinstance(t, float)]
    targets = [float(m) for m in range(1, N - 1)] + [2.0, 3.0, 3.0 - 2.0 / n, 3.0 * n / 4.0]
    if n >= 3:
        targets += [form_degree_coeff(n, p).coeff for p in range(1, n // 2 + 1)]
    centres += [_eps_at(m, N) for m in targets if 0.0 < m < N - 1]
    grid = list(centres)
    for c in centres:
        grid += [math.nextafter(c, 0.0), math.nextafter(c, 2.0)]
        grid += [c * (1 - 2.0**-40), c * (1 + 2.0**-40), c * (1 - 1e-9), c * (1 + 1e-9)]
    rng = random.Random(1000 * n + N)
    grid += [10.0 ** rng.uniform(-3.0, 0.0) for _ in range(20)]
    return sorted(set(grid))


def _lines(record: dict) -> tuple[str, str]:
    """The record's line and its decision line."""
    return tuple(json.dumps(r, sort_keys=True) for r in (record, without_floats(record)))


def _line(kind: str, spec: Spectrum, eps: float, tol: float) -> tuple[str, str]:
    try:
        record = CLASSIFIERS[kind](spec, eps, tol).to_record()
    except ValueError as exc:
        record = {"epsilon": eps, "error": str(exc), "tol": tol}
    return _lines(record)


@functools.cache
def case_lines() -> tuple[dict, dict]:
    """The record lines and the decision lines of every (kind, n, spectrum)
    case, and of the threshold tables."""
    pairs = {}
    for kind, dims in DIMS.items():
        for n in dims:
            N = SPECTRUM_SIZES[kind][0](n)
            grid = eps_grid(kind, n)
            for name, values in _spectra(N).items():
                spec = Spectrum(values, kind, n)
                star = critical_epsilon(values)
                eps_values = grid + [star, star * (1 - 2.0**-40), star * (1 + 2.0**-40)]
                eps_values = [e for e in eps_values if 0.0 < e < 1.0]
                pairs[f"{kind} n={n} {name}"] = [
                    _line(kind, spec, eps, tol) for tol in TOLS for eps in eps_values
                ]
    pairs[f"thresholds n={THRESHOLD_DIMS.start}..{THRESHOLD_DIMS.stop - 1}"] = [
        _lines(thresholds(n, n).to_record()) for n in THRESHOLD_DIMS
    ]
    return tuple({case: [pair[i] for pair in lines] for case, lines in pairs.items()} for i in (0, 1))


def case_digests(lines: dict) -> dict:
    """sha256 of the lines of every case."""
    digests = {}
    for case, records in lines.items():
        h = hashlib.sha256()
        for line in records:
            h.update(line.encode() + b"\n")
        digests[case] = h.hexdigest()
    return digests


def test_classification_digests_match_golden():
    moved = moved_cases(GOLDEN, case_digests(case_lines()[0]))
    assert moved == [], f"digest moved for: {', '.join(moved)}"


def test_classification_decisions_match_golden():
    moved = moved_cases(DECISIONS, case_digests(case_lines()[1]))
    assert moved == [], f"decision digest moved for: {', '.join(moved)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    for golden, lines in zip((GOLDEN, DECISIONS), case_lines()):
        print(f"{golden.name}:")
        report_moved_lines(golden, lines)
        golden.write_text(
            json.dumps(case_digests(lines), indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
