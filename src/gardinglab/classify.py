"""Map operator spectra to positivity facts and topological verdict labels.

Given an ordered spectrum, its frame dimension, the operator kind, and a
shift strength eps, the classifier tests membership of the spectrum in the
open shifted cone G_2((1-eps)/N), derives the m_eps-positivity that
membership implies, and applies the rows of ``tables.RULES`` of the
spectrum's kind, in one loop for all three kinds.  Each row is a bound on
m_eps: a Betti row that holds adds its vanishing range, a verdict row its
label, each with the inequality it rests on and both numeric sides, so
reports can be audited without rerunning.  Rules need *open* membership;
a spectrum that only reaches the closed cone gets a boundary note.  A
threshold equal to eps is accepted, and a report without a verdict gets a
``none`` entry that says why.

The module loads no numpy: it reads ``tables``, ``cones`` and ``symfun``,
and runs on the ``Spectrum``'s Python floats.  Only the shifted G_2 test
takes numpy, by ``symfun``'s length rule, past 16 entries where numpy is
loaded, with the same report; so the CLI classifies its spectrum on floats
up to 900 000 entries (``symfun._FLOAT_WORK`` at k = 2).
"""

from __future__ import annotations

import math
from typing import Optional

from .config import DEFAULT_TOL, Record
from .cones import ConeMembership, epsilon_to_params, in_positivity_cone, in_shifted_cone
from .symfun import partial_sum_batch
from .tables import (  # noqa: F401 - re-exports the threshold functions and form_degree_coeff
    KIND_FIRST,
    KIND_KAEHLER,
    KIND_SECOND,
    RULES,
    SPECTRUM_SIZES,
    VERDICT_CPN_BIHOLOMORPHIC,
    VERDICT_CPN_COHOMOLOGY,
    VERDICT_SPACE_FORM,
    Spectrum,
    ThresholdTable,
    _checked_dim,
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

VERDICT_NONE = "none"

# Threshold equality is accepted; this pads float comparison at the boundary.
_THRESHOLD_RTOL = 1e-12


class BettiRange(Record, frozen=True):
    """Inclusive vanishing range [lo, hi] and the rule that produced it."""

    def __init__(self, lo: int, hi: int, rule: str, bound_lhs: float, bound_rhs: float) -> None:
        self.__dict__.update(lo=lo, hi=hi, rule=rule, bound_lhs=bound_lhs, bound_rhs=bound_rhs)


class VerdictRecord(Record, frozen=True):
    """One verdict label plus the checked inequality with numeric sides;
    it ``holds`` for every label but ``VERDICT_NONE``."""

    _fields = ("verdict", "rule", "inequality", "lhs", "rhs", "holds")

    def __init__(self, verdict: str, rule: str, inequality: str, lhs: float, rhs: float) -> None:
        self.__dict__.update(
            verdict=verdict, rule=rule, inequality=inequality, lhs=lhs, rhs=rhs,
            holds=verdict != VERDICT_NONE,
        )


class ClassificationReport(Record):
    """Everything a verdict rests on: membership, positivity, ranges, labels."""

    record_tag = "classification"

    def __init__(
        self,
        kind: str,
        n: int,
        N: int,
        epsilon: float,
        alpha: float,
        m_eps: float,
        membership: ConeMembership,
        m_positive: Optional[bool] = None,
        m_positivity_margin: Optional[float] = None,
        betti_zero_ranges: Optional[list] = None,
        verdicts: Optional[list] = None,
        notes: Optional[list] = None,
    ) -> None:
        self.kind, self.n, self.N = kind, n, N
        self.epsilon, self.alpha, self.m_eps, self.membership = epsilon, alpha, m_eps, membership
        self.m_positive, self.m_positivity_margin = m_positive, m_positivity_margin
        self.betti_zero_ranges = [] if betti_zero_ranges is None else betti_zero_ranges
        self.verdicts = [] if verdicts is None else verdicts
        self.notes = [] if notes is None else notes

    @property
    def has_verdict(self) -> bool:
        return any(v.holds for v in self.verdicts)


def _at_most(value: float, bound: float) -> bool:
    """value <= bound, accepting equality up to relative float noise."""
    return value <= bound * (1.0 + _THRESHOLD_RTOL) + _THRESHOLD_RTOL


def _index(report: ClassificationReport, tol: float) -> float:
    """What the kind's Betti rows bound: m_eps, or for the first kind
    k = ceil(m_eps) with an m_eps within float noise above an integer
    snapped down to it, so an eps typed to ten digits still reaches its
    integer target.

    The snap band is the cone tolerance, capped at ``DEFAULT_TOL``: a looser
    cone tolerance must not round an m that clears an integer by more than
    float noise down to that integer, which would claim a larger vanishing
    range than ceil(m) supports.  A note says when the snap decides k, and
    the odd-n case-boundary note names that k, not ceil(m_eps).
    """
    if report.kind != KIND_FIRST:
        return report.m_eps
    m = report.m_eps
    k = int(math.ceil(m - max(min(tol, DEFAULT_TOL), 1e-12) * max(1.0, abs(m))))
    if k < math.ceil(m):
        report.notes.append(
            f"ceil-snap: m_eps = {m!r} is within the snap band above "
            f"{k}, so k = {k} rather than ceil(m_eps) = {math.ceil(m)}"
        )
    if report.n % 2 == 1 and k == math.ceil(report.n / 2):
        report.notes.append(
            "case-boundary: k equals ceil(n/2) with odd n, where the "
            "floor/ceil conventions for the full-vanishing case differ"
        )
    return k


def _classify(
    spec: Spectrum, kind: str, epsilon: float, tol: float
) -> ClassificationReport:
    """Report on a spectrum of a kind: each row of ``tables.RULES`` of the
    kind that holds, after checking the spectrum's kind, its length
    (``tables.SPECTRUM_SIZES``) and its dimension (``tables.MIN_DIMS``)."""
    if spec.kind != kind:
        raise ValueError(f"expected a {kind} spectrum, got {spec.kind}")
    count, formula = SPECTRUM_SIZES[kind]
    if spec.n is None or len(spec) != count(spec.n):
        raise ValueError(f"spectrum length does not match {formula} for its dimension")
    n = _checked_dim(kind, spec.n)
    values = list(spec.eigenvalues)
    params = epsilon_to_params(epsilon, len(values))
    membership = in_shifted_cone(values, 2, params.shift_params, tol)
    report = ClassificationReport(
        kind=kind,
        n=n,
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
        index = _index(report, tol)
        for rule in (rule for rule in RULES if rule.kind == kind):
            if rule.target is None:
                for p in rule.degrees(n):
                    bound = rule.bound(n, p)
                    if _at_most(index, bound) and (rule.lower is None or index > rule.lower(n)):
                        lo, hi = rule.gives(n, index, p)
                        report.betti_zero_ranges.append(
                            BettiRange(lo, hi, rule.name.format(p=p), float(index), float(bound))
                        )
                continue
            thr = rule.threshold(n)
            if thr >= 1.0 or not _at_most(params.epsilon, thr):
                continue
            inequality = f"epsilon {params.epsilon:.12g} <= {thr:.12g}"
            if rule.consequence is not None:
                m = rule.consequence(n)
                if not in_positivity_cone(values, m, tol).member_open:
                    continue
                said = rule.said.format(m=m)
                inequality += f" and {said} = {partial_sum_batch(values, m):.12g} > 0"
            report.verdicts.append(
                VerdictRecord(
                    verdict=rule.gives, rule=rule.name, inequality=inequality,
                    lhs=params.epsilon, rhs=thr,
                )
            )
    elif membership.member_closed:
        report.notes.append(
            "boundary: spectrum reaches only the closed shifted cone; "
            "verdicts need open membership"
        )
    if not report.verdicts:
        reason = (
            "no threshold inequality holds"
            if membership.member_open
            else "open-cone membership fails"
        )
        report.verdicts.append(
            VerdictRecord(
                verdict=VERDICT_NONE, rule="no_rule_applies", inequality=reason,
                lhs=membership.margin, rhs=membership.tol,
            )
        )
    return report


def classify_first_kind(
    spec: Spectrum, epsilon: float, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a 2-form-operator spectrum at shift strength eps."""
    return _classify(spec, KIND_FIRST, epsilon, tol)


def classify_second_kind(
    spec: Spectrum, epsilon: float, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a trace-free-operator spectrum at shift strength eps."""
    return _classify(spec, KIND_SECOND, epsilon, tol)


def classify_kaehler(
    spec: Spectrum, epsilon: float, tol: float = DEFAULT_TOL
) -> ClassificationReport:
    """Classify a unitary-holonomy-operator spectrum at shift strength eps;
    ``spec.n`` is the complex dimension and the spectrum has n^2 entries."""
    return _classify(spec, KIND_KAEHLER, epsilon, tol)
