"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Heavy sampling runs are cached at module scope so the determinism
criterion can compare byte-identical reruns without tripling the runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from gardinglab.classify import (
    VERDICT_SPACE_FORM,
    classify_first_kind,
    cpn_biholomorphic_threshold,
    cpn_cohomology_threshold,
    space_form_first_threshold,
    space_form_second_threshold,
)
from gardinglab.cones import nesting_check
from gardinglab.curvature import (
    assemble_first_kind,
    assemble_second_kind,
    eigen_spectrum,
    model_product_spheres,
    model_space_form,
    scalar_curvature_checks,
    trace_free_count,
    two_form_count,
)
from gardinglab.inclusion import (
    boundary_search,
    epsilon_for_target_m,
    epsilon_to_params,
    sharp_witness,
    verify_inclusion_sampling,
)
from gardinglab.symfun import (
    elementary_symmetric,
    normalized_partial_sum,
    partial_sum_fractional,
    sigma_prefix_batch,
)
from gardinglab.tables import form_degree_coeff

from oracles import (
    anchored_lower_bound,
    boundary_search_by_subgradient,
    cpn_cohomology_threshold_inverse_form,
    random_curvature_tensor,
    space_form_first_threshold_dim_form,
    space_form_second_threshold_dim_form,
    weighted_extremes_enum,
    weighted_extremes_greedy,
)

INCLUSION_DIMENSIONS = (3, 4, 6, 10, 28, 45)
SHARPNESS_PAIRS = ((1, 4), (2, 4), (1, 6), (2, 6), (4, 6))
SAMPLES = 100_000


def _inclusion_epsilons(n: int) -> list[float]:
    integer_target = min(2, n - 2)
    return [0.05, 0.2, epsilon_for_target_m(integer_target, n), 0.9]


def _report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def inclusion_runs():
    """Criterion-1 sampling runs, with per-pair wall time, keyed by (N, eps)."""
    runs = {}
    for i, n in enumerate(INCLUSION_DIMENSIONS):
        for j, eps in enumerate(_inclusion_epsilons(n)):
            seed = 1000 + 17 * (4 * i + j)
            start = time.perf_counter()
            report = verify_inclusion_sampling(
                N=n, epsilon=eps, samples=SAMPLES, seed=seed
            )
            elapsed = time.perf_counter() - start
            runs[(n, eps)] = (report, elapsed, seed)
    return runs


@pytest.fixture(scope="module")
def sharpness_runs():
    """Criterion-2 boundary searches keyed by (m, N)."""
    runs = {}
    for m, n in SHARPNESS_PAIRS:
        eps = epsilon_for_target_m(m, n)
        runs[(m, n)] = boundary_search(N=n, epsilon=eps)
    return runs


def test_criterion_1_inclusion_sampling(inclusion_runs):
    failures = []
    worst_margin = math.inf
    worst_time = 0.0
    for (n, eps), (report, elapsed, _) in inclusion_runs.items():
        worst_time = max(worst_time, elapsed)
        if report.accepted != SAMPLES or report.violation_count != 0:
            failures.append((n, eps, "violations or shortfall"))
        if report.min_margin is None or report.min_margin <= 0.0:
            failures.append((n, eps, f"min margin {report.min_margin}"))
        else:
            worst_margin = min(worst_margin, report.min_margin)
        if elapsed >= 60.0:
            failures.append((n, eps, f"runtime {elapsed:.1f}s"))
    ok = not failures
    _report_line(
        1,
        ok,
        f"{len(inclusion_runs)} (N, eps) pairs x {SAMPLES} members, "
        f"min open margin {worst_margin:.3e}, slowest pair {worst_time:.1f}s",
    )
    assert ok, failures


def test_criterion_2_sharpness(sharpness_runs):
    failures = []
    for (m, n), report in sharpness_runs.items():
        if not (-1e-8 <= report.min_c0 <= 1e-6):
            failures.append((m, n, f"min {report.min_c0}"))
        if not report.matched_rigid or report.max_pattern_diff > 1e-6:
            failures.append((m, n, f"pattern diff {report.max_pattern_diff}"))
        if not report.converged:
            failures.append((m, n, "not converged"))
        witness = sharp_witness(n, m)
        p = epsilon_to_params(epsilon_for_target_m(m, n), n)
        shifted = witness - p.alpha_eps * witness.sum()
        if abs(elementary_symmetric(shifted, 2)) > 1e-10:
            failures.append((m, n, "witness sigma_2"))
        if abs(partial_sum_fractional(np.sort(witness), p.m_eps)) > 1e-12:
            failures.append((m, n, "witness partial sum"))
    # The closed form against the restarted subgradient search it replaced.
    for m, n in SHARPNESS_PAIRS + ((7, 40),):
        eps = epsilon_for_target_m(m, n)
        report = sharpness_runs.get((m, n)) or boundary_search(N=n, epsilon=eps)
        oracle = boundary_search_by_subgradient(n, eps, restarts=32, seed=7700 + m + n)
        gap = np.max(np.abs(np.array(report.minimizer) - oracle.minimizer))
        if abs(report.min_c0 - oracle.min_c0) > 1e-12 or gap > 1e-12:
            failures.append((m, n, f"subgradient oracle differs by {gap:.2e}"))
    ok = not failures
    worst = max(abs(r.min_c0) for r in sharpness_runs.values())
    _report_line(
        2,
        ok,
        f"{len(sharpness_runs)} (m, N) targets, |min c0| <= {worst:.2e}, "
        "rigid minimizers recovered, witnesses exact, subgradient oracle agrees",
    )
    assert ok, failures


def test_criterion_3_shift_identity():
    rng = np.random.default_rng(33)
    total = 1_000_000
    dims = rng.integers(2, 65, size=total)
    worst = 0.0
    count = 0
    for n in np.unique(dims):
        b = int((dims == n).sum())
        rows = rng.normal(size=(b, int(n))) * rng.uniform(0.1, 10.0, size=(b, 1))
        eps = rng.uniform(1e-3, 1 - 1e-3, size=(b, 1))
        alpha = (1.0 - eps) / n
        sums = rows.sum(axis=1, keepdims=True)
        shifted = rows - alpha * sums
        sigma2 = sigma_prefix_batch(shifted, 2)[:, 1]
        q = (1.0 + (int(n) - 1) * eps[:, 0] ** 2) / n
        rhs = q * sums[:, 0] ** 2 - (rows * rows).sum(axis=1)
        resid = np.abs(2.0 * sigma2 - rhs)
        bound = 1e-9 * (1.0 + (rows * rows).sum(axis=1))
        worst = max(worst, float((resid / bound).max()))
        count += b
    ok = worst <= 1.0
    _report_line(
        3, ok, f"{count} random (v, N, eps) triples, worst residual ratio {worst:.3e}"
    )
    assert ok


def test_criterion_4_monotonicity_and_nesting():
    rng = np.random.default_rng(44)
    total = 100_000
    dims = rng.integers(2, 33, size=total)
    violations = 0
    for n in np.unique(dims):
        b = int((dims == n).sum())
        rows = np.sort(rng.normal(size=(b, int(n))), axis=1)
        ms = np.sort(rng.uniform(1.0, int(n), size=(b, 2)), axis=1)
        cums = np.cumsum(rows, axis=1)

        def psum(m_col):
            fl = np.floor(m_col).astype(int)
            frac = m_col - fl
            head = np.where(fl > 0, cums[np.arange(b), np.maximum(fl, 1) - 1], 0.0)
            nxt = rows[np.arange(b), np.minimum(fl, int(n) - 1)]
            return head + np.where(frac > 0, frac * nxt, 0.0)

        lhs = psum(ms[:, 0]) / ms[:, 0]
        rhs = psum(ms[:, 1]) / ms[:, 1]
        violations += int((lhs > rhs + 1e-12).sum())

    nest_checks = 0
    nest_ok = True
    per_dim = 3300
    for n in range(2, 33):
        report = nesting_check(N=n, samples=per_dim, seed=4000 + n)
        nest_ok = nest_ok and report.ok
        nest_checks += report.samples
    ok = violations == 0 and nest_ok and nest_checks >= total - per_dim
    _report_line(
        4,
        ok,
        f"{total} monotonicity instances ({violations} violations), "
        f"{nest_checks} nesting samples across N=2..32",
    )
    assert ok


def _spectrum_sums_hold(tensor) -> bool:
    """scal = 2 * sum(first-kind spectrum) = 2n/(n+2) * sum(second-kind spectrum)."""
    n = tensor.n
    scal = tensor.scalar_curvature()
    first = 2.0 * np.asarray(eigen_spectrum(assemble_first_kind(tensor)).eigenvalues).sum()
    second = 2.0 * n / (n + 2.0) * np.asarray(eigen_spectrum(assemble_second_kind(tensor)).eigenvalues).sum()
    tol = 1e-8 * max(1.0, abs(scal))
    return abs(first - scal) <= tol and abs(second - scal) <= tol


def test_criterion_5_scalar_curvature_identities():
    failures = []
    for n in range(3, 15):
        tensor = model_space_form(n, 1.0)
        spectrum = eigen_spectrum(assemble_first_kind(tensor)).eigenvalues
        if not np.allclose(spectrum, 1.0, atol=1e-10):
            failures.append((n, "spectrum"))
        report = scalar_curvature_checks(tensor)
        if abs(report.scalar_curvature - n * (n - 1)) > 1e-8 * n * (n - 1):
            failures.append((n, "scal value"))
        if report.first_kind_rel_err > 1e-8 or report.second_kind_rel_err > 1e-8:
            failures.append((n, "identity"))
        if not _spectrum_sums_hold(tensor):
            failures.append((n, "spectrum sums"))
    product = eigen_spectrum(assemble_first_kind(model_product_spheres(2, 2))).eigenvalues
    if np.max(np.abs(product - np.array([0, 0, 0, 0, 1, 1.0]))) > 1e-10:
        failures.append(("S2xS2", "spectrum"))
    for p in range(2, 8):
        for q in range(p, 8):
            # On 2-forms: 1 on each factor's own 2-forms, 0 on the mixed ones.
            ones = two_form_count(p) + two_form_count(q)
            expected = np.r_[np.zeros(p * q), np.ones(ones)]
            tensor = model_product_spheres(p, q)
            spectrum = eigen_spectrum(assemble_first_kind(tensor)).eigenvalues
            if np.max(np.abs(spectrum - expected)) > 1e-10:
                failures.append((f"S{p}xS{q}", "spectrum"))
            report = scalar_curvature_checks(tensor)
            scal = p * (p - 1) + q * (q - 1)
            if abs(report.scalar_curvature - scal) > 1e-8 * scal:
                failures.append((f"S{p}xS{q}", "scal value"))
            if report.first_kind_rel_err > 1e-8 or report.second_kind_rel_err > 1e-8:
                failures.append((f"S{p}xS{q}", "identity"))
            if not _spectrum_sums_hold(tensor):
                failures.append((f"S{p}xS{q}", "spectrum sums"))
    for n in range(3, 10):
        tensor = random_curvature_tensor(n, seed=n)
        if not (scalar_curvature_checks(tensor).ok and _spectrum_sums_hold(tensor)):
            failures.append((f"random n={n}", "identity"))
    ok = not failures
    _report_line(
        5,
        ok,
        "unit spheres n=3..14, the products S^p x S^q, 2 <= p <= q <= 7, and "
        "random tensors n=3..9 match both identities as traces and as spectrum sums",
    )
    assert ok, failures


def test_criterion_6_threshold_table():
    worst_target = 0.0
    worst_forms = 0.0
    for n in range(3, 65):
        for value, dim_form, count, target in (
            (
                space_form_first_threshold(n),
                space_form_first_threshold_dim_form(n),
                two_form_count(n),
                2.0,
            ),
            (
                space_form_second_threshold(n),
                space_form_second_threshold_dim_form(n),
                trace_free_count(n),
                3.0,
            ),
        ):
            worst_forms = max(worst_forms, abs(value - dim_form))
            if value < 1.0:
                m = epsilon_to_params(value, count).m_eps
                worst_target = max(worst_target, abs(m - target))
    for n in range(2, 65):
        coh = cpn_cohomology_threshold(n)
        worst_forms = max(worst_forms, abs(coh - cpn_cohomology_threshold_inverse_form(n)))
        worst_target = max(
            worst_target, abs(epsilon_to_params(coh, n * n).m_eps - (3.0 - 2.0 / n))
        )
        bih = cpn_biholomorphic_threshold(n)
        worst_target = max(worst_target, abs(epsilon_to_params(bih, n * n).m_eps - 2.0))
    ok = worst_target <= 1e-10 and worst_forms <= 1e-14
    _report_line(
        6,
        ok,
        f"targets off by <= {worst_target:.2e}, closed forms differ by <= {worst_forms:.2e}",
    )
    assert ok


def test_criterion_7_weighted_calculus():
    rng = np.random.default_rng(77)
    instances = 10_000
    sup_err = 0.0
    dominance_violations = 0
    for _ in range(instances):
        n = int(rng.integers(2, 9))
        spec = np.sort(rng.normal(size=n) * rng.uniform(0.3, 3.0))
        omega = float(rng.uniform(0.2, 2.0))
        ratio = float(rng.choice(np.arange(2, 2 * n + 1) / 2.0))
        total = min(ratio * omega, n * omega)
        inf, sup = weighted_extremes_greedy(spec, omega, total)
        lo, hi = weighted_extremes_enum(spec, omega, total)
        sup_err = max(sup_err, abs(sup - hi), abs(inf - lo))
        tri = total * normalized_partial_sum(spec, total / omega)
        if sup < tri - 1e-9 or inf < tri - 1e-9 or abs(inf - tri) > 1e-9:
            dominance_violations += 1
        top = n if abs(total - n * omega) <= 1e-12 else n - 1
        for m in range(1, top + 1):
            if anchored_lower_bound(spec, omega, total, m) > inf + 1e-9:
                dominance_violations += 1
    coeff_ok = True
    for n in range(3, 65):
        coeffs = [form_degree_coeff(n, p).coeff for p in range(1, n // 2 + 1)]
        if coeffs[0] > 3 * n / 4 + 1e-12:
            coeff_ok = False
        if len(coeffs) > 1 and coeffs[1] <= 3 * n / 4:
            coeff_ok = False
        if any(b < a - 1e-12 for a, b in zip(coeffs, coeffs[1:])):
            coeff_ok = False
    ok = sup_err <= 1e-6 and dominance_violations == 0 and coeff_ok
    _report_line(
        7,
        ok,
        f"{instances} instances: enum gap {sup_err:.2e}, "
        f"{dominance_violations} dominance violations, coefficients ordered",
    )
    assert ok


def test_criterion_8_classifier_audit():
    failures = []
    sphere = eigen_spectrum(assemble_first_kind(model_space_form(4, 1.0)))
    report = classify_first_kind(sphere, math.sqrt(0.1))
    verdicts = [v.verdict for v in report.verdicts]
    if verdicts != [VERDICT_SPACE_FORM]:
        failures.append(f"sphere verdicts {verdicts}")
    for verdict in report.verdicts:
        if not (verdict.holds and verdict.lhs <= verdict.rhs * (1 + 1e-12) + 1e-12):
            failures.append(f"inequality fails to re-evaluate: {verdict}")

    product = eigen_spectrum(assemble_first_kind(model_product_spheres(2, 2)))
    boundary_eps = math.sqrt(0.4)
    for eps in np.linspace(0.02, boundary_eps - 1e-6, 40):
        rep = classify_first_kind(product, float(eps))
        if rep.membership.member_closed or rep.has_verdict:
            failures.append(f"product eps={eps} unexpectedly member")
            break
    rep = classify_first_kind(product, boundary_eps)
    if not (rep.membership.member_closed and not rep.membership.member_open):
        failures.append("product not boundary-only at the critical eps")
    if rep.has_verdict:
        failures.append("boundary membership must not produce a verdict")
    if abs(rep.m_eps - 4.0) > 1e-10:
        failures.append(f"critical m_eps {rep.m_eps}")
    ok = not failures
    _report_line(
        8,
        ok,
        "sphere verdict re-evaluates, product spectrum stays non-member below "
        "the critical shift and boundary-only at it",
    )
    assert ok, failures


def test_criterion_9_determinism(inclusion_runs, sharpness_runs):
    mismatches = []
    for (n, eps), (report, _, seed) in inclusion_runs.items():
        fresh = verify_inclusion_sampling(N=n, epsilon=eps, samples=SAMPLES, seed=seed)
        a = json.dumps(report.to_record(), sort_keys=True).encode()
        b = json.dumps(fresh.to_record(), sort_keys=True).encode()
        if a != b:
            mismatches.append(("inclusion", n, eps))
    for (m, n), report in sharpness_runs.items():
        fresh = boundary_search(N=n, epsilon=epsilon_for_target_m(m, n))
        a = json.dumps(report.to_record(), sort_keys=True).encode()
        b = json.dumps(fresh.to_record(), sort_keys=True).encode()
        if a != b:
            mismatches.append(("boundary", m, n))
    ok = not mismatches
    _report_line(
        9,
        ok,
        f"{len(inclusion_runs)} sampling and {len(sharpness_runs)} boundary reruns "
        "byte-identical",
    )
    assert ok, mismatches
