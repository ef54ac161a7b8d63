"""Operator dimension counts and the per-dimension verdict thresholds.

Everything here is a closed form in the frame dimension, so the module
imports no numpy: ``gardinglab thresholds`` runs on it alone.  ``curvature``
and ``classify`` import their counts, formulas and table from here.

Each threshold is the eps at which m_eps reaches a fixed positivity target:
2 on 2-forms (N1 = n(n-1)/2), 3 on trace-free symmetric 2-tensors
(N2 = (n-1)(n+2)/2), and 3 - 2/n and 2 on the n^2-dimensional operator of a
complex dimension n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .config import Record

__all__ = [
    "two_form_count",
    "trace_free_count",
    "space_form_first_threshold",
    "space_form_second_threshold",
    "cpn_cohomology_threshold",
    "cpn_biholomorphic_threshold",
    "ThresholdTable",
    "thresholds",
]


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
