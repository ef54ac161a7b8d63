"""The shared record serializer: tags, ok, the violation cap, hidden fields;
and the value classes built on ``config.Record``: their fields, defaults,
freezing, equality and hashing."""

import importlib
import inspect
import json
import math

import numpy as np
import pytest

from gardinglab.classify import (
    classify_first_kind,
    classify_kaehler,
    classify_second_kind,
    thresholds,
)
from gardinglab.config import Record, RunConfig
from gardinglab.cones import (
    NestingReport,
    _add_violation,
    epsilon_to_params,
    in_garding_cone,
    nesting_check,
)
from gardinglab.curvature import (
    OperatorMatrix,
    assemble_first_kind,
    assemble_second_kind,
    eigen_spectrum,
    model_product_spheres,
    model_space_form,
    scalar_curvature_checks,
)
from gardinglab.inclusion import (
    InclusionReport,
    boundary_search,
    dichotomy_check,
    epsilon_for_target_m,
    verify_inclusion_sampling,
)
from gardinglab.tables import (
    KIND_FIRST,
    KIND_KAEHLER,
    KIND_SECOND,
    RULES,
    Spectrum,
    form_degree_coeff,
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


# Every record class: its fields in order, each constructor parameter with
# its default (a callable by its name) and each field the class derives from
# them marked "*"; whether it is frozen; and how it compares ("value",
# "unhashable" for a mutable class compared by value, or "identity").
_CLASSES = {
    "RunConfig": ("tol=1e-09 seed=0 samples=100000 output_format='human'", True, "value"),
    "Spectrum": ("eigenvalues kind n", True, "identity"),
    "FormDegreeCoeffs": ("n p *coeff *highest_weight *total_weight", True, "value"),
    "Rule": (
        "kind name gives bound=None lower=None degrees=<lambda> target=None column='' "
        "consequence=None said=''", True, "value",
    ),
    "ThresholdTable": (
        "n kaehler_dim *space_form_first *space_form_second *cpn_cohomology "
        "*cpn_biholomorphic *vacuous", True, "value",
    ),
    "BettiRange": ("lo hi rule bound_lhs bound_rhs", True, "value"),
    "VerdictRecord": ("verdict rule inequality lhs rhs *holds", True, "value"),
    "ClassificationReport": (
        "kind n N epsilon alpha m_eps membership m_positive=None m_positivity_margin=None "
        "betti_zero_ranges=None verdicts=None notes=None", False, "unhashable",
    ),
    "ConeMembership": ("member_open member_closed margin binding_constraint tol=1e-09", True, "value"),
    "ShiftParams": ("alpha N", True, "value"),
    "EpsilonParams": ("epsilon N *alpha_eps *m_eps", True, "value"),
    "NestingReport": ("N samples seed tol checks=0 violations=None", False, "unhashable"),
    "DichotomyVerdict": ("case c0 rigid_m=None", True, "value"),
    "InclusionReport": (
        "N epsilon alpha_eps m_eps seed tol samples_requested method='ball' *method_used "
        "draws=0 accepted=0 *acceptance_rate min_margin=None violation_count=0 "
        "violations=None shortfall=False", False, "unhashable",
    ),
    "BoundarySearchReport": (
        "N epsilon m_eps tol min_c0 minimizer converged rigid_pattern=None "
        "max_pattern_diff=None *matched_rigid", False, "unhashable",
    ),
    "CurvatureTensor": ("n components", True, "identity"),
    "OperatorMatrix": ("*N entries kind", True, "identity"),
    "CurvatureIdentityReport": (
        "n scalar_curvature first_kind_sum second_kind_sum *first_kind_rel_err "
        "*second_kind_rel_err *first_kind_ok *second_kind_ok", True, "value",
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
        boundary_search(6, 0.4), tensor, assemble_first_kind(tensor),
        scalar_curvature_checks(tensor),
    ]


def _signature(cls) -> str:
    def form(p):
        if p.default is p.empty:
            return p.name
        return f"{p.name}={p.default.__name__ if callable(p.default) else repr(p.default)}"

    parameters = inspect.signature(cls).parameters.values()
    return " ".join(form(p) for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD)


def _inputs(cls) -> list:
    """The names of the constructor's positional parameters."""
    parameters = inspect.signature(cls).parameters.values()
    return [p.name for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD]


def _rebuilt(instance):
    """The instance built again from its constructor inputs, by keyword."""
    cls = type(instance)
    return cls(**{name: getattr(instance, name) for name in _inputs(cls)})


def test_every_record_class_is_covered():
    found = set()
    for name in ("classify", "cones", "config", "curvature", "inclusion", "tables"):
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
    declared = _CLASSES[cls.__name__][0].split()
    assert _signature(cls) == " ".join(t for t in declared if not t.startswith("*"))
    fields = [token.lstrip("*").split("=")[0] for token in declared]
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
    by_keyword = _rebuilt(instance)
    by_position = cls(*[getattr(instance, name) for name in _inputs(cls)])
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
    value = getattr(instance, name)
    if frozen:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(instance, name, value)
        with pytest.raises(AttributeError):
            delattr(instance, name)
        with pytest.raises(AttributeError):
            instance.no_such_field = 1
    else:
        setattr(instance, name, value)
        assert getattr(instance, name) is value


@pytest.mark.parametrize(
    "instance",
    [x for x in _instances() if "*" in _CLASSES[type(x).__name__][0]],
    ids=lambda x: type(x).__name__,
)
def test_a_derived_value_is_no_constructor_input(instance):
    cls = type(instance)
    declared = _CLASSES[cls.__name__][0].split()
    names = [t.split("=")[0] for t in declared if not t.startswith("*")]
    inputs = {name: getattr(instance, name) for name in names}
    for name in (t[1:] for t in declared if t.startswith("*")):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            cls(**inputs, **{name: getattr(instance, name)})
        with pytest.raises(AttributeError):
            setattr(instance, name, getattr(instance, name))


def _library_built():
    """Instances the library builds on the paths behind each CLI record."""
    for n in range(2, 13):
        yield thresholds(n if n >= 3 else None, n)
        if n >= 3:
            yield thresholds(n)
    for n in range(3, 21):
        for p in range(1, n // 2 + 1):
            yield form_degree_coeff(n, p)
    spectra = (
        Spectrum((1.0,) * 6, KIND_FIRST, 4),
        Spectrum((-5.0,) + (1.0,) * 5, KIND_FIRST, 4),
        Spectrum((1.0,) * 9, KIND_SECOND, 4),
        Spectrum((0.5,) + (1.0,) * 8, KIND_SECOND, 4),
        Spectrum((1.0,) * 4, KIND_KAEHLER, 2),
        Spectrum((-1.0,) + (1.0,) * 3, KIND_KAEHLER, 2),
    )
    classifiers = {
        KIND_FIRST: classify_first_kind,
        KIND_SECOND: classify_second_kind,
        KIND_KAEHLER: classify_kaehler,
    }
    for spectrum in spectra:
        for eps in (0.05, 0.3, 0.9):
            report = classifiers[spectrum.kind](spectrum, eps)
            yield from (report, report.membership, *report.betti_zero_ranges, *report.verdicts)
    for tensor in (model_space_form(4, 1.3), model_product_spheres(2, 2)):
        for assemble in (assemble_first_kind, assemble_second_kind):
            operator = assemble(tensor)
            yield from (tensor, operator, scalar_curvature_checks(tensor, operator))
            yield from (eigen_spectrum(operator), OperatorMatrix.from_entries(operator.entries))
    for samples in (0, 200):
        for method in ("ball", "rejection"):
            yield verify_inclusion_sampling(6, 0.4, samples, seed=3, method=method)
    for N in (4, 7):
        for eps in (0.3, *(epsilon_for_target_m(m, N) for m in range(1, N - 1))):
            yield from (boundary_search(N, eps), epsilon_to_params(eps, N))


def test_library_built_instances_equal_their_rebuilt_copies():
    instances = list(_library_built())
    for instance in instances:
        rebuilt = _rebuilt(instance)
        assert repr(rebuilt) == repr(instance)
        if _CLASSES[type(instance).__name__][2] != "identity":
            assert rebuilt == instance
            assert json.dumps(rebuilt.to_record()) == json.dumps(instance.to_record())
    assert {type(x).__name__ for x in instances} >= {
        "ThresholdTable", "FormDegreeCoeffs", "VerdictRecord", "EpsilonParams",
        "OperatorMatrix", "CurvatureIdentityReport", "InclusionReport", "BoundarySearchReport",
    }
    # Each derived value is met in each of its forms.
    assert {v.holds for v in instances if type(v).__name__ == "VerdictRecord"} == {True, False}
    searches = [x for x in instances if type(x).__name__ == "BoundarySearchReport"]
    assert {x.matched_rigid for x in searches} == {True, None}
    sampled = [x for x in instances if type(x).__name__ == "InclusionReport"]
    assert {x.method_used for x in sampled} == {"none", "ball", "rejection"}


def test_list_defaults_are_fresh_and_members_stay_outside_the_fields():
    a = NestingReport(3, 5, 0, 1e-9)
    b = NestingReport(3, 5, 0, 1e-9)
    assert a.violations == [] and a.violations is not b.violations
    sampled = verify_inclusion_sampling(5, 0.4, 20, seed=1, keep_members=True)
    copy = _rebuilt(sampled)
    assert copy.members is None and copy == sampled
    assert "members" not in repr(sampled)
