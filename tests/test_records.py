"""The shared record serializer: tags, ok, the violation cap, hidden fields."""

import json
import math

import numpy as np

from gardinglab.classify import thresholds
from gardinglab.cones import NestingReport, _add_violation, in_garding_cone
from gardinglab.curvature import (
    KIND_FIRST,
    KIND_SECOND,
    model_space_form,
    scalar_curvature_checks,
)
from gardinglab.inclusion import (
    InclusionReport,
    boundary_search,
    epsilon_for_target_m,
    verify_inclusion_sampling,
)


def test_inclusion_record_caps_violations_at_ten():
    report = InclusionReport(
        N=3, epsilon=0.5, alpha_eps=0.1, m_eps=1.0, seed=0, tol=1e-9, samples_requested=15,
        violation_count=15,
        violations=[{"vector": [float(i), 1.0, 1.0], "margin": -1.0} for i in range(15)],
    )
    record = report.to_record()
    assert record["violations"] == report.violations[:10]
    assert record["violation_count"] == 15 and len(report.violations) == 15
    assert record["ok"] is False


def test_nesting_record_caps_violations_at_ten():
    report = NestingReport(N=3, samples=15, seed=0, tol=1e-9)
    for i in range(15):
        _add_violation(report, "garding_chain", np.array([float(i), 1.0, 1.0]), {})
    record = report.to_record()
    assert len(report.violations) == 15
    assert record["violations"] == report.violations[:10]
    assert record["ok"] is False and record["record"] == "nesting_check"


def test_hidden_fields_never_reach_records():
    sampled = verify_inclusion_sampling(5, 0.4, 50, seed=1, keep_members=True)
    assert sampled.members.shape == (50, 5)
    assert "members" not in sampled.to_record()
    searched = boundary_search(6, epsilon_for_target_m(2, 6))
    checks = scalar_curvature_checks(model_space_form(4, 1.0))
    assert set(checks.spectra) == {KIND_FIRST, KIND_SECOND}
    assert "spectra" not in checks.to_record()
    for report in (sampled, searched, checks):
        json.dumps(report.to_record())


def test_tag_leads_ok_closes_and_tuples_become_lists():
    record = thresholds(3, 2).to_record()
    assert next(iter(record)) == "record" and record["record"] == "thresholds"
    assert record["vacuous"] == ["space_form_first"]
    assert list(verify_inclusion_sampling(4, 0.5, 0, seed=0).to_record())[-1] == "ok"
    membership = in_garding_cone([1.0, 2.0, 3.0], 2).to_record()
    assert "record" not in membership and "ok" not in membership
    assert math.isclose(membership["margin"], 0.2619047619047619)
