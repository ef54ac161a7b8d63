"""Digest gate on the single-vector helpers: one sha256 per function.

Each function runs over a fixed grid of inputs, and each call becomes one
``json.dumps(..., sort_keys=True)`` line: the result, or the refusal's
type and text.  Floats are written as ``float.hex`` and any other scalar
type is named, so a moved bit or a changed return type moves the digest.

* ``dichotomy_check``: random, rigid-witness, zero and non-member vectors,
  N = 3..40, each as a list and as an array;
* ``boundary_search``: N = 3..59, 100, 400 and 2000, at nine eps values and
  at the eps of integer m_eps targets;
* ``partial_sum_fractional``, ``normalized_partial_sum`` and
  ``sigma2_via_power_sums`` on sorted vectors of 1..40 and 100..300
  entries, with the clamp and the refusals;
* every public function of ``weighted``, with its refusals.

Each function has a second digest over the same lines in their decision
form, with every float-valued field of the result dropped
(``golden_digests.without_floats``): a change that only moves float digits
leaves it alone.  The expected digests live in
``tests/golden/single_vector_digests.json`` and
``tests/golden/single_vector_decisions.json``; regenerate them only for an
intended output change, with

    PYTHONPATH=src python tests/test_golden_single_vector.py --write

which prints, per function, how many lines moved since the last ``--write``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from gardinglab import weighted
from gardinglab.config import Record
from gardinglab.inclusion import (
    boundary_search,
    dichotomy_check,
    epsilon_for_target_m,
    epsilon_to_params,
    sharp_witness,
)
from gardinglab.symfun import (
    normalized_partial_sum,
    partial_sum_fractional,
    sigma2_via_power_sums,
)
from golden_digests import report_moved_lines, without_floats

GOLDEN = Path(__file__).parent / "golden" / "single_vector_digests.json"
DECISIONS = GOLDEN.with_name("single_vector_decisions.json")

BOUNDARY_DIMS = (*range(3, 60), 100, 400, 2000)
BOUNDARY_EPS = (1e-12, 1e-6, 0.01, 0.1, 0.25, 0.4, 0.5, 0.75, 0.99)


def _encode(value):
    """JSON-ready form: floats as ``float.hex``, other scalar types named."""
    if value is None or type(value) in (bool, int, str):
        return value
    if type(value) is float:
        return value.hex()
    if isinstance(value, np.ndarray):
        return {"type": "ndarray", "value": _encode(value.tolist())}
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, Record):
        return {"type": type(value).__name__, **_encode(value.to_record())}
    return {"type": type(value).__name__, "value": _encode(float(value))}


def _line(fn, *args) -> tuple[str, str]:
    """The record line of one call and its decision line."""
    try:
        outcome = {"result": fn(*args)}
    except (ValueError, TypeError) as exc:
        outcome = {"error": f"{type(exc).__name__}: {exc}"}
    return tuple(
        json.dumps(_encode({"args": list(args), **form}), sort_keys=True)
        for form in (outcome, without_floats(outcome))
    )


def _sorted_vectors(seed: int):
    """Sorted lists of 1..40, 100, 128, 129, 200 and 300 entries."""
    rng = random.Random(seed)
    for n in (*range(1, 41), 100, 128, 129, 200, 300):
        yield sorted(rng.uniform(-1.0, 2.0) for _ in range(n))


def _dichotomy_lines():
    rng = random.Random(27)
    for N in range(3, 41):
        targets = sorted({1, N // 2, N - 2} & set(range(1, N - 1)))
        eps_values = [0.1, 0.5, 0.9] + [epsilon_for_target_m(m, N) for m in targets]
        # Each vector with the eps values it is checked at; a rigid witness
        # at every eps, and again, scaled and shuffled, at its own.
        cases = [
            ([rng.uniform(0.5, 1.5) for _ in range(N)], eps_values),
            ([1.0 + rng.gauss(0.0, 0.3) for _ in range(N)], eps_values),
            ([0.0] * N, eps_values),
            ([rng.uniform(-1.0, 1.0) for _ in range(N)], eps_values),
        ]
        for m in targets:
            witness = sharp_witness(N, m).tolist()
            own = [epsilon_for_target_m(m, N)]
            cases += [
                (witness, eps_values),
                ([3.7 * t for t in witness], own),
                ([1e-200 * t for t in witness], own),
                (rng.sample(witness, N), own),
            ]
        for vector, grid in cases:
            for eps in grid:
                p = epsilon_to_params(eps, N)
                for form in (vector, np.array(vector)):
                    yield _line(dichotomy_check, form, p)
                yield _line(dichotomy_check, vector, p, 1e-3)
    p = epsilon_to_params(0.5, 4)
    for bad in ([1.0, 2.0, 3.0], [1.0, math.inf, 1.0, 1.0], [], [[1.0, 2.0], [3.0, 4.0]]):
        yield _line(dichotomy_check, bad, p)
    yield _line(dichotomy_check, [1.0] * 4, p, math.nan)


def _boundary_lines():
    for N in BOUNDARY_DIMS:
        eps_values = list(BOUNDARY_EPS)
        targets = {1, 2, 3, N // 3, N // 2, N - 3, N - 2}
        eps_values += [epsilon_for_target_m(m, N) for m in sorted(targets) if 1 <= m <= N - 2]
        for eps in eps_values:
            yield _line(boundary_search, N, eps)
        yield _line(boundary_search, N, 0.3, 1e-3)
    for args in ((2, 0.5), (5, 0.0), (5, 1.0), (5, 1e-17), (5, 0.5, -1.0)):
        yield _line(boundary_search, *args)


def _partial_sum_lines(fn):
    for x in _sorted_vectors(5):
        N = len(x)
        ms = {0.3, 1.0, 1.5, N / 2, N - 0.25, float(N), N * (1 + 1e-13), 2 * N, 0.0, -1.0}
        for m in sorted(ms):
            yield _line(fn, x, m)
            yield _line(fn, np.array(x), m)
        yield _line(fn, x, math.nan)
        if N > 1:
            yield _line(fn, x[::-1], 1.0)
    for bad in ([], [1.0, math.nan], [[0.0, 1.0]]):
        yield _line(fn, bad, 1.0)


def _sigma2_lines():
    for x in _sorted_vectors(6):
        for form in (x, x[::-1], np.array(x), [1e150 * t for t in x]):
            yield _line(sigma2_via_power_sums, form)
    for bad in ([], [1.0, math.inf], [[0.0, 1.0]]):
        yield _line(sigma2_via_power_sums, bad)


def _budgets(N: int, rng: random.Random):
    omega = rng.uniform(0.2, 2.0)
    for ratio in (0.5, 1.0, 1.5, N / 3, N - 0.5, float(N)):
        if 0 < ratio <= N:
            yield weighted.WeightBudget(Omega=omega, S=ratio * omega, N=N)


def _weighted_lines():
    lines = {name: [] for name in weighted.__all__}
    rng = random.Random(11)

    def add(fn, *args):
        lines[fn.__name__].append(_line(fn, *args))

    for args in ((5, 2), (2, 1), (5, 3)):
        add(weighted.FormDegreeCoeffs, *args)
    for args in ((1.0, 2.0, 3), (0.0, 1.0, 3), (1.0, -1.0, 3), (1.0, 1.0, 0),
                 (1.0, 3.0 + 1e-13, 3), (1.0, 3.1, 3), (math.nan, 1.0, 3)):
        add(weighted.WeightBudget, *args)
    for N in (*range(1, 13), 35, 44, 100, 200):
        x = sorted(rng.uniform(-0.5, 2.0) for _ in range(N))
        for b in _budgets(N, rng):
            for form in (x, np.array(x)):
                add(weighted.weighted_sup, form, b)
                add(weighted.weighted_inf, form, b)
                add(weighted.budget_normalized_bound, form, b)
            for m in [*sorted({0, 1, 2, N // 2, N, N + 1}), np.int64(1), 1.0]:
                add(weighted.anchored_lower_bound, x, b, m)
        full = weighted.WeightBudget(Omega=1.0, S=float(N), N=N)
        add(weighted.anchored_lower_bound, x, full, N)
        if N > 1:
            b = weighted.WeightBudget(Omega=1.0, S=1.0, N=N)
            add(weighted.weighted_sup, x[::-1], b)
            add(weighted.weighted_inf, x, weighted.WeightBudget(Omega=1.0, S=1.0, N=N - 1))
        for m in (0.5, 1.0, N / 2, float(N)):
            for level in (-1.0, 0.0, 0.25, 1.0):
                add(weighted.positivity_at_level, x, m, level)
        add(weighted.positivity_at_level, x, 1.0, 0.0, 1e-3)
        add(weighted.positivity_at_level, x, 1.0, 0.0, math.nan)
    add(weighted.positivity_at_level, [0.7] * 5, 2.5, 0.7)
    for n in range(2, 21):
        add(weighted.refined_one_form_coeff, n)
        add(weighted.trace_free_count, n)
        for p in range(0, n // 2 + 2):
            add(weighted.form_degree_coeff, n, p)
    for n in range(3, 9):
        N = weighted.trace_free_count(n)
        specs = (
            [1.0] * N,
            sorted(rng.uniform(-0.2, 1.0) for _ in range(N)),
            [-5.0] + [1.0] * (N - 1),
        )
        for x in specs:
            for kappa in (0.0, 0.5, 1.0):
                add(weighted.bulk_positivity, x, n, kappa)
                for p in range(1, n // 2 + 2):
                    add(weighted.form_degree_positivity, x, n, p, kappa)
        add(weighted.bulk_positivity, [1.0] * (N + 1), n, 0.0)
        add(weighted.form_degree_positivity, [1.0] * (N - 1), n, 1, 0.0)
        add(weighted.bulk_positivity, [2.0, 1.0] + [1.0] * (N - 2), n, 0.0)
    return lines


@functools.cache
def digest_lines() -> tuple[dict, dict]:
    """The record lines and the decision lines of each function, by name."""
    pairs = {
        "dichotomy_check": list(_dichotomy_lines()),
        "boundary_search": list(_boundary_lines()),
        "partial_sum_fractional": list(_partial_sum_lines(partial_sum_fractional)),
        "normalized_partial_sum": list(_partial_sum_lines(normalized_partial_sum)),
        "sigma2_via_power_sums": list(_sigma2_lines()),
        **{f"weighted.{name}": lines for name, lines in _weighted_lines().items() if lines},
    }
    return tuple({name: [pair[i] for pair in lines] for name, lines in pairs.items()} for i in (0, 1))


def digests(lines: dict) -> dict:
    """The line count and the sha256 of the lines of each function."""
    out = {}
    for name, function_lines in lines.items():
        h = hashlib.sha256()
        for line in function_lines:
            h.update(line.encode() + b"\n")
        out[name] = f"{len(function_lines)} {h.hexdigest()}"
    return out


def _moved(golden: Path, lines: dict) -> list:
    expected = json.loads(golden.read_text(encoding="utf-8"))
    actual = digests(lines)
    assert sorted(actual) == sorted(expected)
    return [name for name in expected if actual[name] != expected[name]]


def test_single_vector_digests_match_golden():
    lines = digest_lines()[0]
    public = {name for name in weighted.__all__ if callable(getattr(weighted, name))}
    assert {f"weighted.{name}" for name in public} <= set(lines)
    moved = _moved(GOLDEN, lines)
    assert moved == [], f"digest moved for: {', '.join(moved)}"


def test_single_vector_decisions_match_golden():
    moved = _moved(DECISIONS, digest_lines()[1])
    assert moved == [], f"decision digest moved for: {', '.join(moved)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    for golden, lines in zip((GOLDEN, DECISIONS), digest_lines()):
        print(f"{golden.name}:")
        report_moved_lines(golden, lines)
        golden.write_text(json.dumps(digests(lines), indent=1, sort_keys=True) + "\n", encoding="utf-8")
