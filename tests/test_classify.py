"""Threshold table and verdict logic for all three operator families."""

import math

import numpy as np
import pytest

from gardinglab.classify import (
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
from gardinglab.inclusion import epsilon_to_params
from gardinglab.symfun import SortedVector
from oracles import (
    cpn_cohomology_threshold_inverse_form,
    space_form_first_threshold_dim_form,
    space_form_second_threshold_dim_form,
)


def _spectrum(values, kind, n):
    return Spectrum(eigenvalues=SortedVector.from_vector(values), kind=kind, n=n)


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
        scaled = _spectrum(spec.array * 7.3, KIND_FIRST, 5)
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
            report = classify_kaehler(np.ones(n * n), n, eps / 2)
            verdicts = [v.verdict for v in report.verdicts]
            assert VERDICT_CPN_COHOMOLOGY in verdicts
            assert VERDICT_CPN_BIHOLOMORPHIC in verdicts

    def test_dimension_two_threshold(self):
        report = classify_kaehler(np.ones(4), 2, 1 / math.sqrt(3))
        assert report.m_eps == pytest.approx(2.0, abs=1e-12)
        assert VERDICT_CPN_BIHOLOMORPHIC in [v.verdict for v in report.verdicts]

    def test_above_threshold_no_verdict(self):
        n = 3
        eps = cpn_cohomology_threshold(n) * 3
        report = classify_kaehler(np.ones(9), n, eps)
        assert [v.verdict for v in report.verdicts] == [VERDICT_NONE]

    def test_membership_decided_by_ball_identity(self):
        # (-1, 1, ..., 1) needs a large eps to enter the shifted cone.
        n = 3
        values = np.concatenate([[-1.0], np.ones(8)])
        report_small = classify_kaehler(values, n, 0.2)
        assert not report_small.membership.member_open
        report_large = classify_kaehler(values, n, 0.5)
        assert report_large.membership.member_open

    def test_length_validation(self):
        with pytest.raises(ValueError):
            classify_kaehler(np.ones(5), 2, 0.3)


class TestImplicationChain:
    def test_space_form_verdicts_rest_on_pair_or_triple_positivity(self):
        from gardinglab.cones import in_positivity_cone

        spec1 = eigen_spectrum(assemble_first_kind(model_space_form(4, 1.0)))
        rep1 = classify_first_kind(spec1, math.sqrt(0.1))
        assert VERDICT_SPACE_FORM in [v.verdict for v in rep1.verdicts]
        assert rep1.m_positive and rep1.m_positivity_margin > 0
        assert in_positivity_cone(spec1.array, 2).member_open

        spec2 = eigen_spectrum(assemble_second_kind(model_space_form(4, 1.0)))
        rep2 = classify_second_kind(spec2, 0.25)
        assert VERDICT_SPACE_FORM in [v.verdict for v in rep2.verdicts]
        assert rep2.m_positive and rep2.m_positivity_margin > 0
        assert in_positivity_cone(spec2.array, 3).member_open

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


class TestReportAuditing:
    def test_every_emitted_inequality_reevaluates_true(self):
        reports = []
        spec1 = eigen_spectrum(assemble_first_kind(model_space_form(4, 1.0)))
        reports.append(classify_first_kind(spec1, math.sqrt(0.1)))
        spec2 = eigen_spectrum(assemble_second_kind(model_space_form(4, 1.0)))
        reports.append(classify_second_kind(spec2, 0.25))
        reports.append(classify_kaehler(np.ones(9), 3, 0.1))
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
