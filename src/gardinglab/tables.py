"""Operator dimension counts, the checked spectrum, and the classifier's
rules as one table.

Every classifier rule is a bound on m_eps, the positivity index that open
membership in G_2(alpha_eps) gives, and ``RULES`` holds one row per rule,
with k = ceil(m_eps):

    kind     bound                             gives
    first    k <= ceil(n/2)                    b_1..b_{n-1} = 0
    first    ceil(n/2) < k <= n-1              b_1..b_{n-k} = 0, b_k..b_{n-1} = 0
    first    eps <= threshold at m = 2         spherical space form
    second   m_eps <= 3n/4                     b_1..b_{n-1} = 0
    second   m_eps <= C_p(n), 1 <= p <= n/2    b_p..b_{n-p} = 0
    second   eps <= threshold at m = 3         spherical space form
    kaehler  eps <= threshold at m = 3 - 2/n   rational cohomology CP^n
    kaehler  eps <= threshold at m = 2         biholomorphic CP^n

A threshold is the eps at which m_eps reaches m on the N entries of the
kind's spectrum (``SPECTRUM_SIZES``), sqrt(m/((N-1)(N-m))); the Kaehler
verdicts also need open P_m membership, the consequence they rest on.

Everything here is a closed form in the dimension, or the check of a
spectrum, which ``Spectrum`` holds as a tuple of Python floats, so the
module imports no numpy: ``gardinglab thresholds`` runs on it alone, and
``classify`` with ``cones`` and ``symfun``.  ``curvature`` and
``classify`` import their counts, formulas, kinds, ``Spectrum`` and table
from here and re-export the names they held before; ``weighted`` holds
nothing but its re-exports of ``FormDegreeCoeffs``, ``form_degree_coeff``
and ``trace_free_count``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from .config import Record

__all__ = [
    "KIND_FIRST",
    "KIND_SECOND",
    "KIND_KAEHLER",
    "SPECTRUM_SIZES",
    "MIN_DIMS",
    "Spectrum",
    "two_form_count",
    "trace_free_count",
    "space_form_first_threshold",
    "space_form_second_threshold",
    "cpn_cohomology_threshold",
    "cpn_biholomorphic_threshold",
    "FormDegreeCoeffs",
    "form_degree_coeff",
    "Rule",
    "RULES",
    "ThresholdTable",
    "thresholds",
]

KIND_FIRST = "first_kind"
KIND_SECOND = "second_kind"
KIND_KAEHLER = "kaehler"

VERDICT_SPACE_FORM = "spherical_space_form"
VERDICT_CPN_COHOMOLOGY = "rational_cohomology_CPn"
VERDICT_CPN_BIHOLOMORPHIC = "biholomorphic_CPn"


class Spectrum(Record, frozen=True, eq=False):
    """Eigenvalues with the operator kind and frame dimension.

    ``eigenvalues`` is a tuple of Python floats, the given finite,
    non-decreasing entries of a list, tuple or 1-d array, checked without
    numpy by ``symfun._sorted_entries`` (which refuses what ``as_array``
    refuses, with the same errors).  Equality is identity and instances
    hash by identity, as for the holders of ``curvature``.
    """

    def __init__(self, eigenvalues, kind: str, n: Optional[int]) -> None:
        from .symfun import _sorted_entries

        self.__dict__.update(eigenvalues=tuple(_sorted_entries(eigenvalues)), kind=kind, n=n)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def two_form_count(n: int) -> int:
    """Dimension of the 2-form space: n(n-1)/2."""
    return n * (n - 1) // 2


def trace_free_count(n: int) -> int:
    """Dimension of trace-free symmetric 2-tensors: (n-1)(n+2)/2."""
    return (n - 1) * (n + 2) // 2


# Each kind's spectrum size in its dimension (complex for the Kaehler kind)
# and the size's formula, read by the classifiers and the CLI's length check.
SPECTRUM_SIZES = {
    KIND_FIRST: (two_form_count, "n(n-1)/2"),
    KIND_SECOND: (trace_free_count, "(n-1)(n+2)/2"),
    KIND_KAEHLER: (lambda n: n * n, "n^2"),
}
# Each kind's least dimension, and that dimension's name in a refusal.
MIN_DIMS = {KIND_FIRST: (3, "real"), KIND_SECOND: (3, "real"), KIND_KAEHLER: (2, "complex")}


def _checked_dim(kind: str, n: int) -> int:
    """n, refused by name below the least dimension of its kind."""
    least, name = MIN_DIMS[kind]
    if n < least:
        raise ValueError(f"{name} dimension must be >= {least}, got {n}")
    return n


def space_form_first_threshold(n: int) -> float:
    """sqrt(2/((N1-1)(N1-2))) for N1 = n(n-1)/2; positivity target 2."""
    return _VERDICTS["space_form_first"].threshold(n)


def space_form_second_threshold(n: int) -> float:
    """sqrt(3/((N2-1)(N2-3))) for N2 = (n-1)(n+2)/2; positivity target 3."""
    return _VERDICTS["space_form_second"].threshold(n)


def cpn_cohomology_threshold(n: int) -> float:
    """sqrt((3n-2)/((n^3-3n+2)(n^2-1))); positivity target 3 - 2/n."""
    return _VERDICTS["cpn_cohomology"].threshold(n)


def cpn_biholomorphic_threshold(n: int) -> float:
    """sqrt(2/((n^2-1)(n^2-2))); positivity target 2 for N3 = n^2."""
    return _VERDICTS["cpn_biholomorphic"].threshold(n)


class FormDegreeCoeffs(Record, frozen=True):
    """Coefficient C_p = total/highest weight for degree-p forms in dim n."""

    _fields = ("n", "p", "coeff", "highest_weight", "total_weight")

    def __init__(self, n: int, p: int) -> None:
        if n < 3:
            raise ValueError(f"n must be >= 3, got {n}")
        if not 1 <= p <= n // 2:
            raise ValueError(f"p must satisfy 1 <= p <= {n // 2}, got {p}")
        total = 1.5 * p * (n - p)
        highest = (n * n * p - n * p * p - 2 * n * p + 2 * n * n + 2 * n - 4 * p) / (
            n * (n + 2)
        )
        self.__dict__.update(
            n=n, p=p, coeff=total / highest, highest_weight=highest, total_weight=total
        )


def form_degree_coeff(n: int, p: int) -> FormDegreeCoeffs:
    """C_p(n) with its defining highest/total weight pair."""
    return FormDegreeCoeffs(n, p)


class Rule(Record, frozen=True):
    """One rule: a bound on its kind's index, and what the bound gives.

    A Betti row gives b_lo..b_hi = 0, (lo, hi) = gives(n, index, p), when
    lower(n) < index <= bound(n, p), for each degree p in degrees(n), named
    with p.  A verdict row (with a ``target``) gives its label when
    eps <= threshold(n) < 1; a consequence target m also needs open P_m
    membership, whose partial sum the report names as ``said``.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        gives: Union[str, Callable],
        bound: Optional[Callable] = None,
        lower: Optional[Callable] = None,
        degrees: Callable = lambda n: (0,),
        target: Optional[Callable] = None,
        column: str = "",
        consequence: Optional[Callable] = None,
        said: str = "",
    ) -> None:
        self.__dict__.update(
            kind=kind, name=name, gives=gives, bound=bound, lower=lower, degrees=degrees,
            target=target, column=column, consequence=consequence, said=said,
        )

    def threshold(self, n: int) -> float:
        """The eps at which m_eps reaches target(n) = num/den; the float
        numerator rounds the integer denominator to a float first."""
        num, den = self.target(n)
        N = SPECTRUM_SIZES[self.kind][0](n)
        return math.sqrt(float(num) / ((N - 1) * (den * N - num)))


# Every rule the classifiers apply; each kind's rows in report order.
RULES = (
    Rule(KIND_FIRST, "two_form_full_vanishing", lambda n, k, p: (1, n - 1),
         bound=lambda n, p: math.ceil(n / 2)),
    Rule(KIND_FIRST, "two_form_split_vanishing_low", lambda n, k, p: (1, n - k),
         bound=lambda n, p: n - 1, lower=lambda n: math.ceil(n / 2)),
    Rule(KIND_FIRST, "two_form_split_vanishing_high", lambda n, k, p: (k, n - 1),
         bound=lambda n, p: n - 1, lower=lambda n: math.ceil(n / 2)),
    Rule(KIND_FIRST, "space_form_threshold_first_kind", VERDICT_SPACE_FORM,
         target=lambda n: (2, 1), column="space_form_first"),
    Rule(KIND_SECOND, "trace_free_full_vanishing", lambda n, m, p: (1, n - 1),
         bound=lambda n, p: 3.0 * n / 4.0),
    Rule(KIND_SECOND, "trace_free_degree_{p}_vanishing", lambda n, m, p: (p, n - p),
         bound=lambda n, p: form_degree_coeff(n, p).coeff,
         degrees=lambda n: range(1, n // 2 + 1)),
    Rule(KIND_SECOND, "space_form_threshold_second_kind", VERDICT_SPACE_FORM,
         target=lambda n: (3, 1), column="space_form_second"),
    Rule(KIND_KAEHLER, "cpn_cohomology_threshold", VERDICT_CPN_COHOMOLOGY,
         target=lambda n: (3 * n - 2, n), column="cpn_cohomology",
         consequence=lambda n: 3.0 - 2.0 / n, said="partial_sum({m:.12g})"),
    Rule(KIND_KAEHLER, "cpn_biholomorphic_threshold", VERDICT_CPN_BIHOLOMORPHIC,
         target=lambda n: (2, 1), column="cpn_biholomorphic",
         consequence=lambda n: 2.0, said="smallest pair sum"),
)
_VERDICTS = {rule.column: rule for rule in RULES if rule.column}


class ThresholdTable(Record, frozen=True):
    """Threshold table for real dimension n and/or a complex dimension: the
    per-dimension eps thresholds gating each verdict label.

    ``n`` may be None (or 2, for convenience in tabulations) to request a
    Kaehler-only row; real columns then stay None, and a complex dimension
    must be given.  Real columns require n >= 3, complex columns require a
    complex dimension >= 2.  ``vacuous`` lists the columns whose formula
    gives eps >= 1, where no admissible shift exists.
    """

    record_tag = "thresholds"
    _fields = (
        "n", "kaehler_dim", *(rule.column for rule in _VERDICTS.values()), "vacuous",
    )

    def __init__(self, n: Optional[int], kaehler_dim: Optional[int]) -> None:
        real = None if n == 2 else n
        if real is None and kaehler_dim is None:
            raise ValueError("need a real dimension n >= 3 or a complex dimension >= 2")
        columns = {}
        for rule in _VERDICTS.values():
            dim = kaehler_dim if rule.kind == KIND_KAEHLER else real
            if dim is not None:
                columns[rule.column] = rule.threshold(_checked_dim(rule.kind, dim))
        vacuous = tuple(name for name, thr in columns.items() if thr >= 1.0)
        self.__dict__.update(
            dict.fromkeys(self._fields), n=n, kaehler_dim=kaehler_dim, **columns, vacuous=vacuous
        )


def thresholds(n: Optional[int], kaehler_complex_dim: Optional[int] = None) -> ThresholdTable:
    """The ``ThresholdTable`` of real dimension n and/or a complex dimension."""
    return ThresholdTable(n, kaehler_complex_dim)
