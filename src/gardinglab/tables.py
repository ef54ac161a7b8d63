"""Operator dimension counts, the per-dimension verdict thresholds, and the
closed forms the classifier reads.

Everything here is a closed form in the frame dimension, or the check of
a spectrum, which ``Spectrum`` holds as a tuple of Python floats whatever
it is given as, so the module imports no numpy: ``gardinglab thresholds``
runs on it alone, and ``classify`` runs on it with ``cones`` and
``symfun``.  ``curvature``, ``weighted`` and ``classify`` import their
counts, formulas, kinds, ``Spectrum`` and table from here; ``curvature``
and ``weighted`` re-export the names they held before.

Each threshold is the eps at which m_eps reaches a fixed positivity target:
2 on 2-forms (N1 = n(n-1)/2), 3 on trace-free symmetric 2-tensors
(N2 = (n-1)(n+2)/2), and 3 - 2/n and 2 on the n^2-dimensional operator of a
complex dimension n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import gt
from typing import Optional

from .config import Record

__all__ = [
    "KIND_FIRST",
    "KIND_SECOND",
    "Spectrum",
    "two_form_count",
    "trace_free_count",
    "space_form_first_threshold",
    "space_form_second_threshold",
    "cpn_cohomology_threshold",
    "cpn_biholomorphic_threshold",
    "FormDegreeCoeffs",
    "form_degree_coeff",
    "ThresholdTable",
    "thresholds",
]

KIND_FIRST = "first_kind"
KIND_SECOND = "second_kind"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues with the operator kind and frame dimension.

    ``eigenvalues`` is a tuple of Python floats, the given finite,
    non-decreasing entries of a list, tuple or 1-d array, checked without
    numpy (``symfun._as_floats``, which refuses what ``as_array`` refuses,
    with the same errors).  Equality is identity and instances hash by
    identity, as for the holders of ``curvature``.
    """

    eigenvalues: tuple
    kind: str
    n: Optional[int]

    def __post_init__(self) -> None:
        from .symfun import _as_floats

        values = tuple(_as_floats(self.eigenvalues))
        if any(map(gt, values, values[1:])):
            raise ValueError("input must be sorted non-decreasing")
        object.__setattr__(self, "eigenvalues", values)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def two_form_count(n: int) -> int:
    """Dimension of the 2-form space: n(n-1)/2."""
    return n * (n - 1) // 2


def trace_free_count(n: int) -> int:
    """Dimension of trace-free symmetric 2-tensors: (n-1)(n+2)/2."""
    return (n - 1) * (n + 2) // 2


def space_form_first_threshold(n: int) -> float:
    """sqrt(2/((N1-1)(N1-2))) for N1 = n(n-1)/2; positivity target 2."""
    n1 = two_form_count(n)
    return math.sqrt(2.0 / ((n1 - 1) * (n1 - 2)))


def space_form_second_threshold(n: int) -> float:
    """sqrt(3/((N2-1)(N2-3))) for N2 = (n-1)(n+2)/2; positivity target 3."""
    n2 = trace_free_count(n)
    return math.sqrt(3.0 / ((n2 - 1) * (n2 - 3)))


def cpn_cohomology_threshold(n: int) -> float:
    """sqrt((3n-2)/((n^3-3n+2)(n^2-1))); positivity target 3 - 2/n."""
    return math.sqrt((3.0 * n - 2.0) / ((n**3 - 3 * n + 2) * (n * n - 1)))


def cpn_biholomorphic_threshold(n: int) -> float:
    """sqrt(2/((n^2-1)(n^2-2))); positivity target 2 for N3 = n^2."""
    n3 = n * n
    return math.sqrt(2.0 / ((n3 - 1) * (n3 - 2)))


@dataclass(frozen=True)
class FormDegreeCoeffs:
    """Coefficient C_p = total/highest weight for degree-p forms in dim n."""

    n: int
    p: int
    coeff: float
    highest_weight: float
    total_weight: float

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if not 1 <= self.p <= self.n // 2:
            raise ValueError(f"p must satisfy 1 <= p <= {self.n // 2}, got {self.p}")


def form_degree_coeff(n: int, p: int) -> FormDegreeCoeffs:
    """C_p(n) with its defining highest/total weight pair."""
    total = 1.5 * p * (n - p)
    highest = (n * n * p - n * p * p - 2 * n * p + 2 * n * n + 2 * n - 4 * p) / (
        n * (n + 2)
    )
    return FormDegreeCoeffs(
        n=n, p=p, coeff=total / highest, highest_weight=highest, total_weight=total
    )


@dataclass(frozen=True)
class ThresholdTable(Record):
    """Per-dimension eps thresholds gating each verdict label.

    Real-dimension columns are None below n = 3; the two complex columns are
    populated when a complex dimension is supplied.  ``vacuous`` lists the
    columns whose formula gives eps >= 1, where no admissible shift exists.
    """

    record_tag = "thresholds"

    n: Optional[int]
    kaehler_dim: Optional[int]
    space_form_first: Optional[float] = None
    space_form_second: Optional[float] = None
    cpn_cohomology: Optional[float] = None
    cpn_biholomorphic: Optional[float] = None
    vacuous: tuple = ()


def thresholds(n: Optional[int], kaehler_complex_dim: Optional[int] = None) -> ThresholdTable:
    """Threshold table for real dimension n and/or a complex dimension.

    ``n`` may be None (or 2, for convenience in tabulations) to request a
    Kaehler-only row; real columns then stay None.  Real columns require
    n >= 3, complex columns require a complex dimension >= 2.
    """
    if n is None and kaehler_complex_dim is None:
        raise ValueError("need a real dimension n >= 3 or a complex dimension >= 2")
    columns = {}
    if n is not None and n >= 3:
        columns["space_form_first"] = space_form_first_threshold(n)
        columns["space_form_second"] = space_form_second_threshold(n)
    elif n is not None and n != 2:
        raise ValueError(f"real dimension must be >= 3, got {n}")
    if kaehler_complex_dim is not None:
        if kaehler_complex_dim < 2:
            raise ValueError(
                f"complex dimension must be >= 2, got {kaehler_complex_dim}"
            )
        columns["cpn_cohomology"] = cpn_cohomology_threshold(kaehler_complex_dim)
        columns["cpn_biholomorphic"] = cpn_biholomorphic_threshold(kaehler_complex_dim)
    return ThresholdTable(
        n=n,
        kaehler_dim=kaehler_complex_dim,
        vacuous=tuple(name for name, thr in columns.items() if thr >= 1.0),
        **columns,
    )
