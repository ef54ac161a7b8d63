"""Shifted Garding cones, m-positivity, and curvature-operator classification.

The package tests vectors and operator spectra against three nested cone
families (Garding cones, their shifted variants, and m-positivity cones),
verifies the inclusion of shifted cones into positivity cones by sampling
and boundary optimization, builds curvature operators of model spaces with
a self-contained eigensolver, and classifies spectra into topological
verdict labels gated by per-dimension shift thresholds.

``import gardinglab`` loads neither numpy nor any submodule: each exported
name imports its module on first access (PEP 562).  The result is not
cached here, so ``gardinglab.<name>`` always reads the module's current
attribute, the one a wrapper set on the module replaces too.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "ClassificationReport",
            "classify_first_kind",
            "classify_kaehler",
            "classify_second_kind",
        ),
        "classify",
    ),
    **dict.fromkeys(
        (
            "ConeMembership",
            "EpsilonParams",
            "ShiftParams",
            "epsilon_to_params",
            "in_garding_cone",
            "in_positivity_cone",
            "in_shifted_cone",
            "nesting_check",
            "shift",
        ),
        "cones",
    ),
    **dict.fromkeys(("DEFAULT_TOL", "RunConfig", "load_config"), "config"),
    **dict.fromkeys(
        (
            "CurvatureTensor",
            "OperatorMatrix",
            "assemble_first_kind",
            "assemble_second_kind",
            "eigen_spectrum",
            "model_product_spheres",
            "model_space_form",
            "scalar_curvature_checks",
        ),
        "curvature",
    ),
    **dict.fromkeys(
        (
            "DichotomyVerdict",
            "boundary_search",
            "dichotomy_check",
            "epsilon_for_target_m",
            "sharp_witness",
            "shift_identity_residual",
            "verify_inclusion_sampling",
        ),
        "inclusion",
    ),
    **dict.fromkeys(
        (
            "elementary_symmetric",
            "normalized_partial_sum",
            "partial_sum_fractional",
        ),
        "symfun",
    ),
    **dict.fromkeys(
        ("FormDegreeCoeffs", "Spectrum", "ThresholdTable", "form_degree_coeff", "thresholds"),
        "tables",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
