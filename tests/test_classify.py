"""Threshold table and verdict logic for all three operator families."""

import math
import re

import numpy as np
import pytest

from gardinglab.classify import (
    KIND_KAEHLER,
    VERDICT_CPN_BIHOLOMORPHIC,
    VERDICT_CPN_COHOMOLOGY,
    VERDICT_NONE,
    VERDICT_SPACE_FORM,
    classify_first_kind,
    classify_kaehler,
    classify_second_kind,
    cpn_biholomorphic_threshold,
    cpn_cohomology_threshold,
    space_form_first_threshold,
    space_form_second_threshold,
    thresholds,
)
from gardinglab.config import DEFAULT_TOL
from gardinglab.curvature import (
    KIND_FIRST,
    KIND_SECOND,
    Spectrum,
    assemble_first_kind,
    assemble_second_kind,
    eigen_spectrum,
    model_product_spheres,
    model_space_form,
    trace_free_count,
    two_form_count,
)
from gardinglab.inclusion import epsilon_for_target_m, epsilon_to_params
from oracles import (
    cpn_cohomology_threshold_inverse_form,
    space_form_first_threshold_dim_form,
    space_form_second_threshold_dim_form,
)


def _spectrum(values, kind, n):
    return Spectrum(eigenvalues=np.sort(values, kind="stable"), kind=kind, n=n)


class TestThresholds:
    def test_dimension_four_values(self):
        table = thresholds(4, kaehler_complex_dim=4)
        assert table.space_form_first == pytest.approx(math.sqrt(0.1), rel=1e-15)
        assert table.space_form_second == pytest.approx(0.25, rel=1e-15)

    def test_dimension_three_first_is_vacuous(self):
        table = thresholds(3)
        assert table.space_form_first == pytest.approx(1.0)
        assert "space_form_first" in table.vacuous

    def test_kaehler_dimension_two(self):
        table = thresholds(None, kaehler_complex_dim=2)
        assert table.cpn_biholomorphic == pytest.approx(1 / math.sqrt(3), rel=1e-15)
        # Both complex thresholds coincide at n = 2 (target 3 - 2/n = 2).
        assert table.cpn_cohomology == pytest.approx(table.cpn_biholomorphic, rel=1e-12)

    def test_closed_forms_agree(self):
        for n in range(3, 65):
            assert space_form_first_threshold(n) == pytest.approx(
                space_form_first_threshold_dim_form(n), rel=1e-14, abs=1e-16
            )
            assert space_form_second_threshold(n) == pytest.approx(
                space_form_second_threshold_dim_form(n), rel=1e-14, abs=1e-16
            )
        for n in range(2, 65):
            assert cpn_cohomology_threshold(n) == pytest.approx(
                cpn_cohomology_threshold_inverse_form(n), rel=1e-14, abs=1e-16
            )

    def test_thresholds_map_to_positivity_targets(self):
        for n in range(3, 65):
            eps = space_form_first_threshold(n)
            if eps < 1.0:
                m = epsilon_to_params(eps, two_form_count(n)).m_eps
                assert m == pytest.approx(2.0, abs=1e-10)
            eps = space_form_second_threshold(n)
            if eps < 1.0:
                m = epsilon_to_params(eps, trace_free_count(n)).m_eps
                assert m == pytest.approx(3.0, abs=1e-10)
        for n in range(2, 33):
            m = epsilon_to_params(cpn_cohomology_threshold(n), n * n).m_eps
            assert m == pytest.approx(3.0 - 2.0 / n, abs=1e-10)
            m = epsilon_to_params(cpn_biholomorphic_threshold(n), n * n).m_eps
            assert m == pytest.approx(2.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            thresholds(None)
        with pytest.raises(ValueError):
            thresholds(1)
        with pytest.raises(ValueError):
            thresholds(4, kaehler_complex_dim=1)


class TestClassifyFirstKind:
    def test_round_sphere_at_threshold(self):
        spec = eigen_spectrum(assemble_first_kind(model_space_form(4, 1.0)))
        report = classify_first_kind(spec, math.sqrt(0.1))
        assert report.membership.member_open
        assert report.m_eps == pytest.approx(2.0, abs=1e-12)
        assert report.m_positive
        assert [(r.lo, r.hi) for r in report.betti_zero_ranges] == [(1, 3)]
        assert [v.verdict for v in report.verdicts] == [VERDICT_SPACE_FORM]

    def test_product_below_membership_threshold(self):
        spec = eigen_spectrum(assemble_first_kind(model_product_spheres(2, 2)))
        report = classify_first_kind(spec, 0.3)
        assert not report.membership.member_closed
        assert [v.verdict for v in report.verdicts] == [VERDICT_NONE]

    def test_product_at_membership_boundary(self):
        spec = eigen_spectrum(assemble_first_kind(model_product_spheres(2, 2)))
        report = classify_first_kind(spec, math.sqrt(0.4))
        assert report.membership.member_closed and not report.membership.member_open
        assert report.m_eps == pytest.approx(4.0, abs=1e-10)
        assert [v.verdict for v in report.verdicts] == [VERDICT_NONE]
        assert any("boundary" in note for note in report.notes)

    def test_split_betti_ranges(self):
        # Constant spectrum in n = 6 with m_eps between ceil(n/2)+1 and n-1.
        n = 6
        n1 = two_form_count(n)
        eps = math.sqrt(4.5 / ((n1 - 1) * (n1 - 4.5)))
        spec = _spectrum(np.ones(n1), KIND_FIRST, n)
        report = classify_first_kind(spec, eps)
        assert report.membership.member_open
        k = math.ceil(report.m_eps)
        assert k == 5
        ranges = [(r.lo, r.hi) for r in report.betti_zero_ranges]
        assert ranges == [(1, 1), (5, 5)]

    def test_loose_tol_does_not_widen_the_ceil_snap(self):
        # m_eps = 4.002 on S^7: ceil(m_eps) = 5 gives the split ranges.  A
        # snap band scaled by tol = 1e-3 would round 4.002 down to 4 and
        # claim the full vanishing range b_1..b_6.
        n = 7
        spec = eigen_spectrum(assemble_first_kind(model_space_form(n, 1.0)))
        eps = math.sqrt(4.002 / (20 * 16.998))
        for tol in (DEFAULT_TOL, 1e-3):
            report = classify_first_kind(spec, eps, tol)
            assert report.membership.member_open
            assert report.m_eps == pytest.approx(4.002, rel=1e-12)
            assert [(r.lo, r.hi, r.rule, r.bound_lhs) for r in report.betti_zero_ranges] == [
                (1, 2, "two_form_split_vanishing_low", 5.0),
                (5, 6, "two_form_split_vanishing_high", 5.0),
            ], tol

    def test_a_snap_that_decides_k_is_noted(self):
        # m_eps = 4.0000000026 on S^7: the snap band takes k = 4 and the full
        # vanishing range where ceil(m_eps) = 5 would give the split ranges,
        # so the report says the snap decided k.  An integer m_eps and an
        # m_eps past the band get no such note.
        spec = eigen_spectrum(assemble_first_kind(model_space_form(7, 1.0)))
        snapped = epsilon_for_target_m(4, 21) * (1 + 4e-10)
        report = classify_first_kind(spec, snapped)
        assert 4.0 < report.m_eps < 4.0 + 1e-8
        assert [r.rule for r in report.betti_zero_ranges] == ["two_form_full_vanishing"]
        snap_notes = [note for note in report.notes if note.startswith("ceil-snap")]
        assert snap_notes == [
            f"ceil-snap: m_eps = {report.m_eps!r} is within the snap band above 4, "
            "so k = 4 rather than ceil(m_eps) = 5"
        ]
        # k = 4 = ceil(7/2) with n odd: the case-boundary note names k, not
        # ceil(m_eps), so the two notes agree.
        assert [note for note in report.notes if note.startswith("case-boundary")] == [
            "case-boundary: k equals ceil(n/2) with odd n, where the floor/ceil "
            "conventions for the full-vanishing case differ"
        ]
        for eps in (epsilon_for_target_m(4, 21), math.sqrt(4.002 / (20 * 16.998))):
            report = classify_first_kind(spec, eps)
            assert not [note for note in report.notes if note.startswith("ceil-snap")]

    def test_no_overlap_between_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(4, 9))
            n1 = two_form_count(n)
            eps = float(rng.uniform(0.05, 0.95))
            spec = _spectrum(np.ones(n1), KIND_FIRST, n)
            report = classify_first_kind(spec, eps)
            rules = {r.rule for r in report.betti_zero_ranges}
            if "two_form_full_vanishing" in rules:
                assert not any(r.startswith("two_form_split") for r in rules)

    def test_scale_invariance(self):
        spec = eigen_spectrum(assemble_first_kind(model_space_form(5, 1.0)))
        scaled = _spectrum(np.asarray(spec.eigenvalues) * 7.3, KIND_FIRST, 5)
        a = classify_first_kind(spec, 0.2)
        b = classify_first_kind(scaled, 0.2)
        assert [v.verdict for v in a.verdicts] == [v.verdict for v in b.verdicts]
        assert [(r.lo, r.hi) for r in a.betti_zero_ranges] == [
            (r.lo, r.hi) for r in b.betti_zero_ranges
        ]

    def test_kind_mismatch(self):
        spec = eigen_spectrum(assemble_second_kind(model_space_form(4, 1.0)))
        with pytest.raises(ValueError):
            classify_first_kind(spec, 0.2)


class TestClassifySecondKind:
    def test_round_sphere_at_threshold(self):
        spec = eigen_spectrum(assemble_second_kind(model_space_form(4, 1.0)))
        report = classify_second_kind(spec, 0.25)
        assert report.membership.member_open
        assert report.m_eps == pytest.approx(3.0, abs=1e-12)
        assert VERDICT_SPACE_FORM in [v.verdict for v in report.verdicts]
        rules = {r.rule for r in report.betti_zero_ranges}
        # m_eps = 3 <= 3n/4 = 3 and <= C_2 = 4.5, but C_1 = 2.7 < 3.
        assert "trace_free_full_vanishing" in rules
        assert "trace_free_degree_2_vanishing" in rules
        assert "trace_free_degree_1_vanishing" not in rules

    def test_degree_rule_ranges(self):
        n = 6
        spec = _spectrum(np.ones(trace_free_count(n)), KIND_SECOND, n)
        eps = 0.2
        report = classify_second_kind(spec, eps)
        for rng_ in report.betti_zero_ranges:
            if rng_.rule.startswith("trace_free_degree_"):
                p = int(rng_.rule.split("_")[3])
                assert (rng_.lo, rng_.hi) == (p, n - p)

    def test_non_member(self):
        n = 4
        values = np.sort(np.concatenate([[-10.0], np.ones(trace_free_count(n) - 1)]))
        report = classify_second_kind(_spectrum(values, KIND_SECOND, n), 0.2)
        assert not report.membership.member_open
        assert [v.verdict for v in report.verdicts] == [VERDICT_NONE]

    def test_verdict_implies_triple_positivity(self):
        # Space-form verdicts imply 3-positivity of the spectrum.
        spec = eigen_spectrum(assemble_second_kind(model_space_form(5, 1.0)))
        table = thresholds(5)
        report = classify_second_kind(spec, table.space_form_second)
        assert VERDICT_SPACE_FORM in [v.verdict for v in report.verdicts]
        assert report.m_positive and report.m_positivity_margin > 0


class TestClassifyKaehler:
    def test_constant_spectrum_both_verdicts(self):
        for n in (2, 3, 5):
            eps = min(cpn_cohomology_threshold(n), cpn_biholomorphic_threshold(n))
            report = classify_kaehler(_spectrum(np.ones(n * n), KIND_KAEHLER, n), eps / 2)
            verdicts = [v.verdict for v in report.verdicts]
            assert VERDICT_CPN_COHOMOLOGY in verdicts
            assert VERDICT_CPN_BIHOLOMORPHIC in verdicts

    def test_dimension_two_threshold(self):
        report = classify_kaehler(_spectrum(np.ones(4), KIND_KAEHLER, 2), 1 / math.sqrt(3))
        assert report.m_eps == pytest.approx(2.0, abs=1e-12)
        assert VERDICT_CPN_BIHOLOMORPHIC in [v.verdict for v in report.verdicts]

    def test_above_threshold_no_verdict(self):
        n = 3
        eps = cpn_cohomology_threshold(n) * 3
        report = classify_kaehler(_spectrum(np.ones(9), KIND_KAEHLER, n), eps)
        assert [v.verdict for v in report.verdicts] == [VERDICT_NONE]

    def test_membership_decided_by_ball_identity(self):
        # (-1, 1, ..., 1) needs a large eps to enter the shifted cone.
        n = 3
        values = np.concatenate([[-1.0], np.ones(8)])
        report_small = classify_kaehler(_spectrum(values, KIND_KAEHLER, n), 0.2)
        assert not report_small.membership.member_open
        report_large = classify_kaehler(_spectrum(values, KIND_KAEHLER, n), 0.5)
        assert report_large.membership.member_open

    def test_length_validation(self):
        with pytest.raises(ValueError):
            classify_kaehler(_spectrum(np.ones(5), KIND_KAEHLER, 2), 0.3)


class TestImplicationChain:
    def test_space_form_verdicts_rest_on_pair_or_triple_positivity(self):
        from gardinglab.cones import in_positivity_cone

        spec1 = eigen_spectrum(assemble_first_kind(model_space_form(4, 1.0)))
        rep1 = classify_first_kind(spec1, math.sqrt(0.1))
        assert VERDICT_SPACE_FORM in [v.verdict for v in rep1.verdicts]
        assert rep1.m_positive and rep1.m_positivity_margin > 0
        assert in_positivity_cone(spec1.eigenvalues, 2).member_open

        spec2 = eigen_spectrum(assemble_second_kind(model_space_form(4, 1.0)))
        rep2 = classify_second_kind(spec2, 0.25)
        assert VERDICT_SPACE_FORM in [v.verdict for v in rep2.verdicts]
        assert rep2.m_positive and rep2.m_positivity_margin > 0
        assert in_positivity_cone(spec2.eigenvalues, 3).member_open

    def test_shrinking_eps_keeps_constant_spectrum_verdicts(self):
        # On constant spectra membership holds for every eps and the
        # space-form verdict appears exactly on eps <= threshold.
        n = 5
        spec = _spectrum(np.ones(two_form_count(n)), KIND_FIRST, n)
        thr = space_form_first_threshold(n)
        for eps in np.linspace(0.01, 0.95, 25):
            report = classify_first_kind(spec, float(eps))
            assert report.membership.member_open
            assert report.m_positive and report.m_positivity_margin > 0
            has_sf = VERDICT_SPACE_FORM in [v.verdict for v in report.verdicts]
            assert has_sf == (eps <= thr * (1 + 1e-12))


def _first(n, eps):
    return classify_first_kind(_spectrum(np.ones(two_form_count(n)), KIND_FIRST, n), eps)


def _second(n, eps):
    return classify_second_kind(_spectrum(np.ones(trace_free_count(n)), KIND_SECOND, n), eps)


def _kaehler(n, eps):
    return classify_kaehler(_spectrum(np.ones(n * n), KIND_KAEHLER, n), eps)


# (verdict, rule, threshold, classifier of a constant spectrum, dimensions)
_GATED_RULES = [
    (VERDICT_SPACE_FORM, "space_form_threshold_first_kind", space_form_first_threshold,
     _first, range(3, 13)),
    (VERDICT_SPACE_FORM, "space_form_threshold_second_kind", space_form_second_threshold,
     _second, range(3, 13)),
    (VERDICT_CPN_COHOMOLOGY, "cpn_cohomology_threshold", cpn_cohomology_threshold,
     _kaehler, range(2, 7)),
    (VERDICT_CPN_BIHOLOMORPHIC, "cpn_biholomorphic_threshold", cpn_biholomorphic_threshold,
     _kaehler, range(2, 7)),
]


class TestThresholdGate:
    @pytest.mark.parametrize("verdict, rule, threshold, classify, dims", _GATED_RULES)
    def test_equality_accepted_and_next_step_rejected(
        self, verdict, rule, threshold, classify, dims
    ):
        vacuous = []
        for n in dims:
            thr = threshold(n)
            if thr >= 1.0:
                vacuous.append(n)
                for eps in (0.5, 0.9, 1.0 - 1e-9):
                    report = classify(n, eps)
                    assert report.membership.member_open
                    assert rule not in [v.rule for v in report.verdicts]
                continue
            at = classify(n, thr)
            assert at.membership.member_open
            emitted = [v for v in at.verdicts if v.rule == rule]
            assert [v.verdict for v in emitted] == [verdict], (n, thr)
            assert emitted[0].lhs == thr and emitted[0].rhs == thr and emitted[0].holds
            above = classify(n, thr * (1.0 + 1e-9))
            assert above.membership.member_open
            assert rule not in [v.rule for v in above.verdicts], (n, thr)
        # Only the n = 3 first-kind threshold (exactly 1) is vacuous in range.
        assert vacuous == ([3] if threshold is space_form_first_threshold else [])


class TestValidationMessages:
    @pytest.mark.parametrize(
        "classify, kind, other, count, formula",
        [
            (classify_first_kind, KIND_FIRST, KIND_SECOND, two_form_count, "n(n-1)/2"),
            (classify_second_kind, KIND_SECOND, KIND_FIRST, trace_free_count,
             "(n-1)(n+2)/2"),
        ],
    )
    def test_real_kinds(self, classify, kind, other, count, formula):
        with pytest.raises(ValueError, match=f"^expected a {kind} spectrum, got {other}$"):
            classify(_spectrum(np.ones(count(4)), other, 4), 0.2)
        length = f"^spectrum length does not match {re.escape(formula)} for its dimension$"
        with pytest.raises(ValueError, match=length):
            classify(_spectrum(np.ones(count(4) + 1), kind, 4), 0.2)
        with pytest.raises(ValueError, match=length):
            classify(_spectrum(np.ones(count(4)), kind, None), 0.2)

    def test_kaehler(self):
        with pytest.raises(ValueError, match=f"^expected a {KIND_KAEHLER} spectrum, got {KIND_FIRST}$"):
            classify_kaehler(_spectrum(np.ones(6), KIND_FIRST, 4), 0.2)
        with pytest.raises(ValueError, match=r"^complex dimension must be >= 2, got 1$"):
            classify_kaehler(_spectrum(np.ones(1), KIND_KAEHLER, 1), 0.2)
        length = r"^spectrum length does not match n\^2 for its dimension$"
        with pytest.raises(ValueError, match=length):
            classify_kaehler(_spectrum(np.ones(5), KIND_KAEHLER, 2), 0.2)
        with pytest.raises(ValueError, match=length):
            classify_kaehler(_spectrum(np.ones(4), KIND_KAEHLER, None), 0.2)

    def test_unresolvable_epsilon_names_epsilon(self):
        # Below about 5.6e-17 the shift (1 - eps)/N rounds to 1/N, which
        # ShiftParams would refuse with a message about alpha.
        message = r"^epsilon 1e-300 is too small to resolve in float64 at N=6: "
        with pytest.raises(ValueError, match=message):
            classify_first_kind(_spectrum(np.ones(6), KIND_FIRST, 4), 1e-300)
        with pytest.raises(ValueError, match=message.replace("N=6", "N=9")):
            classify_second_kind(_spectrum(np.ones(9), KIND_SECOND, 4), 1e-300)
        with pytest.raises(ValueError, match=message.replace("N=6", "N=4")):
            classify_kaehler(_spectrum(np.ones(4), KIND_KAEHLER, 2), 1e-300)


class TestReportAuditing:
    def test_every_emitted_inequality_reevaluates_true(self):
        reports = []
        spec1 = eigen_spectrum(assemble_first_kind(model_space_form(4, 1.0)))
        reports.append(classify_first_kind(spec1, math.sqrt(0.1)))
        spec2 = eigen_spectrum(assemble_second_kind(model_space_form(4, 1.0)))
        reports.append(classify_second_kind(spec2, 0.25))
        reports.append(classify_kaehler(_spectrum(np.ones(9), KIND_KAEHLER, 3), 0.1))
        for report in reports:
            for verdict in report.verdicts:
                if verdict.verdict == VERDICT_NONE:
                    continue
                assert verdict.holds
                assert verdict.lhs <= verdict.rhs * (1 + 1e-12) + 1e-12

    def test_records_serialize(self):
        import json

        spec = eigen_spectrum(assemble_first_kind(model_space_form(4, 1.0)))
        report = classify_first_kind(spec, 0.25)
        json.dumps(report.to_record())


class TestFloatListsAndArrays:
    """The CLI builds its spectrum from a sorted list of Python floats, and
    the classifier's tests take the float path at every length in a process
    without numpy; in-process callers build it from arrays.  Both must give
    the same report, bit for bit."""

    def test_reports_match_over_the_threshold_and_integer_m_grid(self, monkeypatch):
        from gardinglab import symfun
        from gardinglab.inclusion import epsilon_for_target_m

        def classified(classify, kind, n):
            return lambda x, eps: classify(Spectrum(x, kind, n), eps)

        default = symfun._FLOAT_ENTRIES
        ulps = [1.0 + j * 2.0**-52 for j in range(-4, 5)]
        cases = [(n, two_form_count(n), classified(classify_first_kind, KIND_FIRST, n))
                 for n in range(3, 9)]
        cases += [(n, trace_free_count(n), classified(classify_second_kind, KIND_SECOND, n))
                  for n in range(3, 9)]
        cases += [(n, n * n, classified(classify_kaehler, KIND_KAEHLER, n))
                  for n in range(2, 6)]
        for n, size, call in cases:
            table = thresholds(n if n >= 3 else None, kaehler_complex_dim=n)
            targets = [
                table.space_form_first, table.space_form_second,
                table.cpn_cohomology, table.cpn_biholomorphic,
            ]
            targets += [epsilon_for_target_m(m, size) for m in range(1, size - 1)]
            grid = [t * u for t in targets if t is not None for u in ulps]
            spectra = [np.ones(size), 1.0 + np.arange(size) % 3, np.ones(size)]
            spectra[2][:2] = (0.0, -0.0)
            for values in spectra:
                as_array = np.sort(values, kind="stable")
                as_list = sorted(values.tolist())
                for eps in (e for e in grid if 0.0 < e < 1.0):
                    monkeypatch.setattr(symfun, "_FLOAT_ENTRIES", default)
                    expected = call(as_array, eps).to_record()
                    monkeypatch.setattr(symfun, "_FLOAT_ENTRIES", 10**9)
                    assert repr(call(as_list, eps).to_record()) == repr(expected), (n, size, eps)
