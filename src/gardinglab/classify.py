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
  the m_eps formula, which is how the table is cross-checked; the formulas
  and the table live in ``tables``.

Verdicts require *open* membership; spectra that only reach the closed
cone get a boundary note and no verdict.  Every verdict passes one gate,
eps <= threshold for a threshold below 1, with equality accepted (the two
complex labels also need their positivity consequence), and records the
inequality it rests on with both numeric sides so reports can be audited
without rerunning.  A report without a verdict gets a ``none`` entry that
says why.

The module loads no numpy: it reads ``tables``, ``cones`` and ``symfun``.
All three classifiers take a ``Spectrum``, which has checked its entries
(finite and sorted) and holds them as Python floats; each classifier checks
its kind and its length against ``tables.SPECTRUM_SIZES`` and reads the
entries as one list, on which the positivity tests run.  Only the shifted
G_2 test takes numpy, by ``symfun``'s length rule, past 16 entries where
numpy is loaded, with the same report; so the CLI classifies its
spectrum on floats up to 900 000 entries (``symfun._FLOAT_WORK`` at k = 2).

The first-kind rule takes k = ceil(m_eps) with an m_eps within float noise
above an integer snapped down to it (``_ceil_with_snap``), so an eps typed
to ten digits still reaches its integer target.  When the snap decides k,
the report says so in a note, and the odd-n case-boundary note names that
k, not ceil(m_eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .config import DEFAULT_TOL, Record
from .cones import ConeMembership, epsilon_to_params, in_positivity_cone, in_shifted_cone
from .symfun import partial_sum_batch
from .tables import (
    KIND_FIRST,
    KIND_KAEHLER,
    KIND_SECOND,
    SPECTRUM_SIZES,
    Spectrum,
    ThresholdTable,
    cpn_biholomorphic_threshold,
    cpn_cohomology_threshold,
    form_degree_coeff,
    space_form_first_threshold,
    space_form_second_threshold,
    thresholds,
)

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

VERDICT_SPACE_FORM = "spherical_space_form"
VERDICT_CPN_COHOMOLOGY = "rational_cohomology_CPn"
VERDICT_CPN_BIHOLOMORPHIC = "biholomorphic_CPn"
VERDICT_NONE = "none"

# Threshold equality is accepted; this pads float comparison at the boundary.
_THRESHOLD_RTOL = 1e-12


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
    """ceil(m) with integers reached by float noise snapped back down.

    The snap band is the cone tolerance, capped at ``DEFAULT_TOL``: a looser
    cone tolerance must not round an m that clears an integer by more than
    float noise down to that integer, which would claim a larger vanishing
    range than ceil(m) supports.
    """
    return int(math.ceil(m - max(min(tol, DEFAULT_TOL), 1e-12) * max(1.0, abs(m))))


def _at_most(value: float, bound: float) -> bool:
    """value <= bound, accepting equality up to relative float noise."""
    return value <= bound * (1.0 + _THRESHOLD_RTOL) + _THRESHOLD_RTOL


def _spectrum_report(
    spec: Spectrum, kind: str, epsilon: float, tol: float
) -> ClassificationReport:
    """Base report for a spectrum after checking its kind and its length
    (``tables.SPECTRUM_SIZES``), and for the Kaehler kind its complex
    dimension."""
    if spec.kind != kind:
        raise ValueError(f"expected a {kind} spectrum, got {spec.kind}")
    count, formula = SPECTRUM_SIZES[kind]
    if spec.n is None or len(spec) != count(spec.n):
        raise ValueError(f"spectrum length does not match {formula} for its dimension")
    if kind == KIND_KAEHLER and spec.n < 2:
        raise ValueError(f"complex dimension must be >= 2, got {spec.n}")
    values = list(spec.eigenvalues)
    params = epsilon_to_params(epsilon, len(values))
    membership = in_shifted_cone(values, 2, params.shift_params, tol)
    report = ClassificationReport(
        kind=kind,
        n=spec.n,
        N=len(values),
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


def _within_threshold(report: ClassificationReport, thr: float) -> bool:
    """eps <= thr for a non-vacuous threshold (thr < 1), equality accepted."""
    return thr < 1.0 and _at_most(report.epsilon, thr)


def _add_verdict(
    report: ClassificationReport, verdict: str, rule: str, thr: float, also: str = ""
) -> None:
    """Record a verdict resting on eps <= thr, plus any further checked fact."""
    report.verdicts.append(
        VerdictRecord(
            verdict=verdict,
            rule=rule,
            inequality=f"epsilon {report.epsilon:.12g} <= {thr:.12g}" + also,
            lhs=report.epsilon,
            rhs=thr,
            holds=True,
        )
    )


def _no_verdict(report: ClassificationReport) -> ClassificationReport:
    """Close a report: without a verdict it gets the reason none applies."""
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
    return report


def classify_first_kind(
    spec: Spectrum, epsilon: float, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a 2-form-operator spectrum at shift strength eps."""
    report = _spectrum_report(spec, KIND_FIRST, epsilon, tol)
    if report.membership.member_open:
        n = report.n
        k = _ceil_with_snap(report.m_eps, tol)
        if k < math.ceil(report.m_eps):
            report.notes.append(
                f"ceil-snap: m_eps = {report.m_eps!r} is within the snap band above "
                f"{k}, so k = {k} rather than ceil(m_eps) = {math.ceil(report.m_eps)}"
            )
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
                "case-boundary: k equals ceil(n/2) with odd n, where the "
                "floor/ceil conventions for the full-vanishing case differ"
            )
        thr = space_form_first_threshold(n)
        if _within_threshold(report, thr):
            _add_verdict(report, VERDICT_SPACE_FORM, "space_form_threshold_first_kind", thr)
    return _no_verdict(report)


def classify_second_kind(
    spec: Spectrum, epsilon: float, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a trace-free-operator spectrum at shift strength eps."""
    report = _spectrum_report(spec, KIND_SECOND, epsilon, tol)
    if report.membership.member_open:
        n = report.n
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
        if _within_threshold(report, thr):
            _add_verdict(report, VERDICT_SPACE_FORM, "space_form_threshold_second_kind", thr)
    return _no_verdict(report)


def classify_kaehler(
    spec: Spectrum, epsilon: float, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a unitary-holonomy-operator spectrum at shift strength eps;
    ``spec.n`` is the complex dimension and the spectrum has n^2 entries."""
    report = _spectrum_report(spec, KIND_KAEHLER, epsilon, tol)
    if report.membership.member_open:
        n = report.n
        values = list(spec.eigenvalues)
        thr = cpn_cohomology_threshold(n)
        if _within_threshold(report, thr):
            m_target = 3.0 - 2.0 / n
            if in_positivity_cone(values, m_target, tol).member_open:
                consequence = partial_sum_batch(values, m_target)
                _add_verdict(
                    report, VERDICT_CPN_COHOMOLOGY, "cpn_cohomology_threshold", thr,
                    f" and partial_sum({m_target:.12g}) = {consequence:.12g} > 0",
                )
        thr = cpn_biholomorphic_threshold(n)
        if _within_threshold(report, thr):
            if in_positivity_cone(values, 2.0, tol).member_open:
                pair_sum = values[0] + values[1]
                _add_verdict(
                    report, VERDICT_CPN_BIHOLOMORPHIC, "cpn_biholomorphic_threshold", thr,
                    f" and smallest pair sum = {pair_sum:.12g} > 0",
                )
    return _no_verdict(report)
