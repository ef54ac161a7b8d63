"""The shared record serializer: tags, ok, the violation cap, hidden fields;
and the value classes built on ``config.Record``: their fields, defaults,
freezing, equality and hashing."""

import importlib
import inspect
import json
import math

import numpy as np
import pytest

from gardinglab.classify import classify_first_kind, thresholds
from gardinglab.config import Record, RunConfig
from gardinglab.cones import (
    NestingReport,
    _add_violation,
    epsilon_to_params,
    in_garding_cone,
    nesting_check,
)
from gardinglab.curvature import assemble_first_kind, model_space_form, scalar_curvature_checks
from gardinglab.inclusion import (
    InclusionReport,
    boundary_search,
    dichotomy_check,
    epsilon_for_target_m,
    verify_inclusion_sampling,
)
from gardinglab.tables import KIND_FIRST, RULES, Spectrum, form_degree_coeff
from gardinglab.weighted import WeightBudget


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


# Every record class: its constructor's positional parameters, with their
# defaults (a callable by its name), in declaration order; whether it is
# frozen; and how it compares ("value", "unhashable" for a mutable class
# compared by value, or "identity").
_CLASSES = {
    "RunConfig": ("tol=1e-09 seed=0 samples=100000 output_format='human'", True, "value"),
    "Spectrum": ("eigenvalues kind n", True, "identity"),
    "FormDegreeCoeffs": ("n p coeff highest_weight total_weight", True, "value"),
    "Rule": (
        "kind name gives bound=None lower=None degrees=<lambda> target=None column='' "
        "consequence=None said=''", True, "value",
    ),
    "ThresholdTable": (
        "n kaehler_dim space_form_first=None space_form_second=None cpn_cohomology=None "
        "cpn_biholomorphic=None vacuous=()", True, "value",
    ),
    "BettiRange": ("lo hi rule bound_lhs bound_rhs", True, "value"),
    "VerdictRecord": ("verdict rule inequality lhs rhs holds", True, "value"),
    "ClassificationReport": (
        "kind n N epsilon alpha m_eps membership m_positive=None m_positivity_margin=None "
        "betti_zero_ranges=None verdicts=None notes=None", False, "unhashable",
    ),
    "ConeMembership": ("member_open member_closed margin binding_constraint tol=1e-09", True, "value"),
    "ShiftParams": ("alpha N", True, "value"),
    "EpsilonParams": ("epsilon N alpha_eps m_eps", True, "value"),
    "NestingReport": ("N samples seed tol checks=0 violations=None", False, "unhashable"),
    "DichotomyVerdict": ("case c0 rigid_m=None", True, "value"),
    "InclusionReport": (
        "N epsilon alpha_eps m_eps seed tol samples_requested method='ball' method_used='' "
        "draws=0 accepted=0 acceptance_rate=0.0 min_margin=None violation_count=0 "
        "violations=None shortfall=False", False, "unhashable",
    ),
    "BoundarySearchReport": (
        "N epsilon m_eps tol min_c0 minimizer converged rigid_pattern=None "
        "max_pattern_diff=None matched_rigid=None", False, "unhashable",
    ),
    "WeightBudget": ("Omega S N", True, "value"),
    "CurvatureTensor": ("n components", True, "identity"),
    "OperatorMatrix": ("N entries kind", True, "identity"),
    "CurvatureIdentityReport": (
        "n scalar_curvature first_kind_sum second_kind_sum first_kind_rel_err "
        "second_kind_rel_err first_kind_ok second_kind_ok", True, "value",
    ),
}


def _instances():
    """One instance of every record class, as the library builds it."""
    tensor = model_space_form(4, 1.0)
    p = epsilon_to_params(0.5, 6)
    report = classify_first_kind(Spectrum((1.0,) * 6, KIND_FIRST, 4), 0.05)
    return [
        RunConfig(), report.membership, report, report.betti_zero_ranges[0],
        report.verdicts[0], Spectrum([1.0, 2.0, 3.0], KIND_FIRST, 3), form_degree_coeff(4, 1),
        RULES[0], thresholds(3, 2), p, p.shift_params, nesting_check(3, 5, 0),
        dichotomy_check([1.0] * 6, p), verify_inclusion_sampling(4, 0.5, 10, seed=0),
        boundary_search(6, 0.4), WeightBudget(1.0, 2.0, 3), tensor, assemble_first_kind(tensor),
        scalar_curvature_checks(tensor),
    ]


def _signature(cls) -> str:
    def form(p):
        if p.default is p.empty:
            return p.name
        return f"{p.name}={p.default.__name__ if callable(p.default) else repr(p.default)}"

    parameters = inspect.signature(cls).parameters.values()
    return " ".join(form(p) for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD)


def test_every_record_class_is_covered():
    found = set()
    for name in ("classify", "cones", "config", "curvature", "inclusion", "tables", "weighted"):
        module = importlib.import_module(f"gardinglab.{name}")
        found |= {
            value for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Record) and value is not Record
        }
    assert {cls.__name__ for cls in found} == set(_CLASSES)
    assert {type(x) for x in _instances()} == found


@pytest.mark.parametrize("instance", _instances(), ids=lambda x: type(x).__name__)
def test_records_list_the_fields_in_declaration_order(instance):
    cls = type(instance)
    signature, _, _ = _CLASSES[cls.__name__]
    assert _signature(cls) == signature
    fields = [token.split("=")[0] for token in signature.split()]
    assert list(cls._fields) == fields
    record = instance.to_record()
    tag = [] if cls.record_tag is None else ["record"]
    ok = ["ok"] if isinstance(getattr(cls, "ok", None), property) else []
    assert list(record) == tag + fields + ok
    assert repr(instance).startswith(f"{cls.__name__}({fields[0]}=")


@pytest.mark.parametrize("instance", _instances(), ids=lambda x: type(x).__name__)
def test_freezing_equality_and_hashing_are_kept(instance):
    cls = type(instance)
    _, frozen, compared = _CLASSES[cls.__name__]
    values = [getattr(instance, name) for name in cls._fields]
    by_keyword = cls(**dict(zip(cls._fields, values)))
    by_position = cls(*values)
    if compared == "identity":
        assert by_keyword != instance and instance == instance
        assert hash(instance) == object.__hash__(instance)
    else:
        assert by_keyword == instance == by_position
        assert instance.__eq__(object()) is NotImplemented
        if compared == "value":
            assert hash(by_keyword) == hash(instance)
        else:
            with pytest.raises(TypeError):
                hash(instance)
    name = cls._fields[0]
    if frozen:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(instance, name, values[0])
        with pytest.raises(AttributeError):
            delattr(instance, name)
        with pytest.raises(AttributeError):
            instance.no_such_field = 1
    else:
        setattr(instance, name, values[0])
        assert getattr(instance, name) is values[0]


def test_list_defaults_are_fresh_and_members_stay_outside_the_fields():
    a = NestingReport(3, 5, 0, 1e-9)
    b = NestingReport(3, 5, 0, 1e-9)
    assert a.violations == [] and a.violations is not b.violations
    sampled = verify_inclusion_sampling(5, 0.4, 20, seed=1, keep_members=True)
    copy = InclusionReport(*[getattr(sampled, name) for name in InclusionReport._fields])
    assert copy.members is None and copy == sampled
    assert "members" not in repr(sampled)
