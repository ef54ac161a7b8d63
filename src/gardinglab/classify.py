"""Map operator spectra to positivity facts and topological verdict labels.

Given an ordered spectrum, its frame dimension, the operator kind, and a
shift strength eps, the classifier tests membership of the spectrum in the
open shifted cone G_2((1-eps)/N), derives the m_eps-positivity that
membership implies, and emits:

* Betti-vanishing ranges.  For the 2-form operator with k = ceil(m_eps):
  k <= ceil(n/2) kills every b_p, while ceil(n/2)+1 <= k <= n-1 kills
  b_1..b_{n-k} and b_k..b_{n-1}.  For the trace-free operator, m_eps <=
  3n/4 kills every b_p, and m_eps <= C_p(n) kills b_p..b_{n-p} for each
  integer p up to n/2.
* Verdict labels gated by per-dimension eps thresholds: spherical space
  form for either real operator, and rational-cohomology / biholomorphic
  complex projective space for the unitary-holonomy operator.  Each
  threshold maps to a fixed positivity target (2, 3, 3 - 2/n, 2) through
  the m_eps formula, which is how the table is cross-checked.

Verdicts require *open* membership; spectra that only reach the closed
cone get a boundary note and no verdict.  Every emitted verdict records the
inequality it rests on with both numeric sides so reports can be audited
without rerunning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, Record
from .cones import ConeMembership, in_positivity_cone, in_shifted_cone
from .curvature import (
    KIND_FIRST,
    KIND_SECOND,
    Spectrum,
    trace_free_count,
    two_form_count,
)
from .inclusion import epsilon_to_params
from .symfun import VectorLike, as_array, partial_sum_fractional
from .weighted import form_degree_coeff

__all__ = [
    "KIND_KAEHLER",
    "VERDICT_SPACE_FORM",
    "VERDICT_CPN_COHOMOLOGY",
    "VERDICT_CPN_BIHOLOMORPHIC",
    "VERDICT_NONE",
    "ThresholdTable",
    "thresholds",
    "BettiRange",
    "VerdictRecord",
    "ClassificationReport",
    "classify_first_kind",
    "classify_second_kind",
    "classify_kaehler",
]

KIND_KAEHLER = "kaehler"

VERDICT_SPACE_FORM = "spherical_space_form"
VERDICT_CPN_COHOMOLOGY = "rational_cohomology_CPn"
VERDICT_CPN_BIHOLOMORPHIC = "biholomorphic_CPn"
VERDICT_NONE = "none"

# Threshold equality is accepted; this pads float comparison at the boundary.
_THRESHOLD_RTOL = 1e-12


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


def thresholds(n: Optional[int], kaehler_complex_dim: Optional[int] = None) -> ThresholdTable:
    """Threshold table for real dimension n and/or a complex dimension.

    ``n`` may be None (or 2, for convenience in tabulations) to request a
    Kaehler-only row; real columns then stay None.  Real columns require
    n >= 3, complex columns require a complex dimension >= 2.
    """
    if n is None and kaehler_complex_dim is None:
        raise ValueError("need a real dimension n >= 3 or a complex dimension >= 2")
    vacuous = []
    first = second = None
    if n is not None and n >= 3:
        first = space_form_first_threshold(n)
        second = space_form_second_threshold(n)
        if first >= 1.0:
            vacuous.append("space_form_first")
        if second >= 1.0:
            vacuous.append("space_form_second")
    elif n is not None and n != 2:
        raise ValueError(f"real dimension must be >= 3, got {n}")
    coh = bih = None
    if kaehler_complex_dim is not None:
        if kaehler_complex_dim < 2:
            raise ValueError(
                f"complex dimension must be >= 2, got {kaehler_complex_dim}"
            )
        coh = cpn_cohomology_threshold(kaehler_complex_dim)
        bih = cpn_biholomorphic_threshold(kaehler_complex_dim)
        if coh >= 1.0:
            vacuous.append("cpn_cohomology")
        if bih >= 1.0:
            vacuous.append("cpn_biholomorphic")
    return ThresholdTable(
        n=n,
        kaehler_dim=kaehler_complex_dim,
        space_form_first=first,
        space_form_second=second,
        cpn_cohomology=coh,
        cpn_biholomorphic=bih,
        vacuous=tuple(vacuous),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BettiRange(Record):
    """Inclusive vanishing range [lo, hi] and the rule that produced it."""

    lo: int
    hi: int
    rule: str
    bound_lhs: float
    bound_rhs: float


@dataclass(frozen=True)
class VerdictRecord(Record):
    """One verdict label plus the checked inequality with numeric sides."""

    verdict: str
    rule: str
    inequality: str
    lhs: float
    rhs: float
    holds: bool


@dataclass
class ClassificationReport(Record):
    """Everything a verdict rests on: membership, positivity, ranges, labels."""

    record_tag = "classification"

    kind: str
    n: int
    N: int
    epsilon: float
    alpha: float
    m_eps: float
    membership: ConeMembership
    m_positive: Optional[bool] = None
    m_positivity_margin: Optional[float] = None
    betti_zero_ranges: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def has_verdict(self) -> bool:
        return any(v.verdict != VERDICT_NONE for v in self.verdicts)


def _ceil_with_snap(m: float, tol: float) -> int:
    """ceil(m) with integers reached by float noise snapped back down."""
    return int(math.ceil(m - max(tol, 1e-12) * max(1.0, abs(m))))


def _at_most(value: float, bound: float) -> bool:
    """value <= bound, accepting equality up to relative float noise."""
    return value <= bound * (1.0 + _THRESHOLD_RTOL) + _THRESHOLD_RTOL


def _base_report(
    kind: str, n: int, values: np.ndarray, epsilon: float, tol: float
) -> ClassificationReport:
    params = epsilon_to_params(epsilon, values.size)
    membership = in_shifted_cone(values, 2, params.shift_params, tol)
    report = ClassificationReport(
        kind=kind,
        n=n,
        N=values.size,
        epsilon=params.epsilon,
        alpha=params.alpha_eps,
        m_eps=params.m_eps,
        membership=membership,
    )
    if membership.member_open:
        positivity = in_positivity_cone(values, params.m_eps, tol)
        report.m_positive = positivity.member_open
        report.m_positivity_margin = positivity.margin
    elif membership.member_closed:
        report.notes.append(
            "boundary: spectrum reaches only the closed shifted cone; "
            "verdicts need open membership"
        )
    return report


def _no_verdict(report: ClassificationReport) -> None:
    if not report.verdicts:
        reason = (
            "open-cone membership fails"
            if not report.membership.member_open
            else "no threshold inequality holds"
        )
        report.verdicts.append(
            VerdictRecord(
                verdict=VERDICT_NONE,
                rule="no_rule_applies",
                inequality=reason,
                lhs=report.membership.margin,
                rhs=report.membership.tol,
                holds=False,
            )
        )


def classify_first_kind(
    spec: Spectrum, epsilon: float, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a 2-form-operator spectrum at shift strength eps."""
    if spec.kind != KIND_FIRST:
        raise ValueError(f"expected a {KIND_FIRST} spectrum, got {spec.kind}")
    n = spec.n
    values = spec.array
    if n is None or values.size != two_form_count(n):
        raise ValueError("spectrum length does not match n(n-1)/2 for its dimension")
    report = _base_report(KIND_FIRST, n, values, epsilon, tol)
    if not report.membership.member_open:
        _no_verdict(report)
        return report

    k = _ceil_with_snap(report.m_eps, tol)
    half = math.ceil(n / 2)
    if k <= half:
        report.betti_zero_ranges.append(
            BettiRange(1, n - 1, "two_form_full_vanishing", float(k), float(half))
        )
    elif k <= n - 1:
        report.betti_zero_ranges.append(
            BettiRange(1, n - k, "two_form_split_vanishing_low", float(k), float(n - 1))
        )
        report.betti_zero_ranges.append(
            BettiRange(k, n - 1, "two_form_split_vanishing_high", float(k), float(n - 1))
        )
    if n % 2 == 1 and k == half:
        report.notes.append(
            "case-boundary: ceil(m_eps) equals ceil(n/2) with odd n, where the "
            "floor/ceil conventions for the full-vanishing case differ"
        )

    thr = space_form_first_threshold(n)
    if thr < 1.0 and _at_most(report.epsilon, thr):
        report.verdicts.append(
            VerdictRecord(
                verdict=VERDICT_SPACE_FORM,
                rule="space_form_threshold_first_kind",
                inequality=f"epsilon {report.epsilon:.12g} <= {thr:.12g}",
                lhs=report.epsilon,
                rhs=thr,
                holds=True,
            )
        )
    _no_verdict(report)
    return report


def classify_second_kind(
    spec: Spectrum, epsilon: float, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a trace-free-operator spectrum at shift strength eps."""
    if spec.kind != KIND_SECOND:
        raise ValueError(f"expected a {KIND_SECOND} spectrum, got {spec.kind}")
    n = spec.n
    values = spec.array
    if n is None or values.size != trace_free_count(n):
        raise ValueError(
            "spectrum length does not match (n-1)(n+2)/2 for its dimension"
        )
    report = _base_report(KIND_SECOND, n, values, epsilon, tol)
    if not report.membership.member_open:
        _no_verdict(report)
        return report

    bulk = 3.0 * n / 4.0
    if _at_most(report.m_eps, bulk):
        report.betti_zero_ranges.append(
            BettiRange(1, n - 1, "trace_free_full_vanishing", report.m_eps, bulk)
        )
    for p in range(1, n // 2 + 1):
        cp = form_degree_coeff(n, p).coeff
        if _at_most(report.m_eps, cp):
            report.betti_zero_ranges.append(
                BettiRange(p, n - p, f"trace_free_degree_{p}_vanishing", report.m_eps, cp)
            )

    thr = space_form_second_threshold(n)
    if thr < 1.0 and _at_most(report.epsilon, thr):
        report.verdicts.append(
            VerdictRecord(
                verdict=VERDICT_SPACE_FORM,
                rule="space_form_threshold_second_kind",
                inequality=f"epsilon {report.epsilon:.12g} <= {thr:.12g}",
                lhs=report.epsilon,
                rhs=thr,
                holds=True,
            )
        )
    _no_verdict(report)
    return report


def classify_kaehler(
    spec: VectorLike, n_complex: int, epsilon: float, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a unitary-holonomy-operator spectrum of length n_complex^2."""
    if n_complex < 2:
        raise ValueError(f"complex dimension must be >= 2, got {n_complex}")
    values = np.sort(as_array(spec), kind="stable")
    n3 = n_complex * n_complex
    if values.size != n3:
        raise ValueError(f"spectrum length {values.size} does not match n^2 = {n3}")
    report = _base_report(KIND_KAEHLER, n_complex, values, epsilon, tol)
    if not report.membership.member_open:
        _no_verdict(report)
        return report

    norm = float(np.linalg.norm(values))
    coh_thr = cpn_cohomology_threshold(n_complex)
    if coh_thr < 1.0 and _at_most(report.epsilon, coh_thr):
        m_target = 3.0 - 2.0 / n_complex
        consequence = partial_sum_fractional(values, m_target)
        if consequence / (m_target * norm) > tol:
            report.verdicts.append(
                VerdictRecord(
                    verdict=VERDICT_CPN_COHOMOLOGY,
                    rule="cpn_cohomology_threshold",
                    inequality=(
                        f"epsilon {report.epsilon:.12g} <= {coh_thr:.12g} and "
                        f"partial_sum({m_target:.12g}) = {consequence:.12g} > 0"
                    ),
                    lhs=report.epsilon,
                    rhs=coh_thr,
                    holds=True,
                )
            )
    bih_thr = cpn_biholomorphic_threshold(n_complex)
    if bih_thr < 1.0 and _at_most(report.epsilon, bih_thr):
        pair_sum = float(values[0] + values[1])
        if pair_sum / (2.0 * norm) > tol:
            report.verdicts.append(
                VerdictRecord(
                    verdict=VERDICT_CPN_BIHOLOMORPHIC,
                    rule="cpn_biholomorphic_threshold",
                    inequality=(
                        f"epsilon {report.epsilon:.12g} <= {bih_thr:.12g} and "
                        f"smallest pair sum = {pair_sum:.12g} > 0"
                    ),
                    lhs=report.epsilon,
                    rhs=bih_thr,
                    holds=True,
                )
            )
    _no_verdict(report)
    return report
