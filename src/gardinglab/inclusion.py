"""Shift-parameter maps and verification of the cone inclusion.

For ``0 < eps < 1`` and dimension ``N`` the paired parameters are

    alpha_eps = (1 - eps) / N,
    m_eps     = N (N - 1) eps^2 / (1 + (N - 1) eps^2),

and the closed shifted cone ``G_2(alpha_eps)`` is contained in the closed
m-positivity cone ``P_{m_eps}``.  The workhorse is the algebraic identity

    2 sigma_2(v - alpha_eps * sum(v)) = q * sum(v)^2 - sum(v^2),
    q = (1 + (N - 1) eps^2) / N,

which turns membership into a ball condition around the diagonal: on the
slice ``sum(v) = 1`` the feasible set is exactly the ball of radius
``eps * sqrt((N-1)/N)`` about the barycenter in the sum-zero hyperplane.
The ball sampler and the boundary optimizer exploit that geometry; Gaussian
rejection sampling does not assume it, and the residual of the identity
itself is exposed for independent checking.

Equality in the inclusion is rigid: it forces ``m_eps`` to be a positive
integer and the sorted vector to consist of ``m_eps`` zeros followed by
equal positive entries.  ``sharp_witness`` builds those extremal vectors and
``boundary_search`` recovers them numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, Record
from .cones import ShiftParams, in_shifted_cone, positivity_margins_batch
from .symfun import (
    RealVector,
    VectorLike,
    as_array,
    elementary_symmetric,
    partial_sum_batch,
    partial_sum_fractional,
    partial_sum_weights,
)

__all__ = [
    "EpsilonParams",
    "DichotomyVerdict",
    "epsilon_to_params",
    "epsilon_for_target_m",
    "shift_identity_residual",
    "dichotomy_check",
    "sharp_witness",
    "verify_inclusion_sampling",
    "InclusionReport",
    "boundary_search",
    "BoundarySearchReport",
    "boundary_minimum_closed_form",
]

CASE_STRICT = "strict_positive"
CASE_BOUNDARY = "boundary_rigid"
CASE_NOT_MEMBER = "not_member"

# A sampling run stops short of its target after max(_DRAW_CAP, 50 * samples)
# raw draws; no batch holds more than _MAX_BATCH rows.
_DRAW_CAP = 100_000_000
_MAX_BATCH = 2_000_000
# The boundary search refines its restarts every this many iterations.
_REFINE_EVERY = 10


@dataclass(frozen=True)
class EpsilonParams:
    """(eps, alpha_eps, m_eps, N) bundle tying a shift to its positivity index."""

    epsilon: float
    N: int
    alpha_eps: float
    m_eps: float

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    @property
    def shift_params(self) -> ShiftParams:
        return ShiftParams(alpha=self.alpha_eps, N=self.N)

    @property
    def quadratic_coefficient(self) -> float:
        """q = (1 + (N-1) eps^2) / N, the coefficient in the ball identity."""
        return (1.0 + (self.N - 1) * self.epsilon**2) / self.N

    @property
    def slice_radius(self) -> float:
        """Ball radius on the sum = 1 slice: eps * sqrt((N-1)/N)."""
        return self.epsilon * math.sqrt((self.N - 1) / self.N)


def epsilon_to_params(epsilon: float, N: int) -> EpsilonParams:
    """Populate alpha_eps and m_eps from their closed forms."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    e2 = epsilon * epsilon
    return EpsilonParams(
        epsilon=epsilon,
        N=N,
        alpha_eps=(1.0 - epsilon) / N,
        m_eps=N * (N - 1) * e2 / (1.0 + (N - 1) * e2),
    )


def epsilon_for_target_m(m_target: float, N: int) -> float:
    """Inverse map: the eps whose positivity index equals m_target."""
    m_target = float(m_target)
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not 0.0 < m_target < N - 1:
        raise ValueError(f"m_target must lie in (0, {N - 1}), got {m_target}")
    return math.sqrt(m_target / ((N - 1) * (N - m_target)))


def shift_identity_residual(v: VectorLike, p: EpsilonParams) -> float:
    """Residual of 2 sigma_2(shifted v) = q*sum(v)^2 - sum(v^2).

    sigma_2 is evaluated by the coefficient recurrence, not the power-sum
    shortcut, so the two sides are computed along independent routes; the
    result should vanish to roundoff for every vector.
    """
    x = as_array(v)
    if x.size != p.N:
        raise ValueError(f"vector length {x.size} does not match N={p.N}")
    shifted = x - p.alpha_eps * x.sum()
    lhs = 2.0 * elementary_symmetric(shifted, 2)
    rhs = p.quadratic_coefficient * float(x.sum()) ** 2 - float((x * x).sum())
    return lhs - rhs


@dataclass(frozen=True)
class DichotomyVerdict(Record):
    """Classification of a vector against the inclusion dichotomy.

    ``case`` is one of strict_positive, boundary_rigid, not_member.  ``c0``
    is the fractional partial sum at m_eps.  ``rigid_m`` is the integer zero
    count when the boundary pattern (m zeros, then equal positive entries)
    was confirmed; it is None for the degenerate zero vector or when the
    pattern could not be confirmed at tolerance.
    """

    case: str
    c0: float
    rigid_m: Optional[int] = None


def _rigid_zero_count(sorted_x: np.ndarray, m_eps: float, tol: float) -> Optional[int]:
    """Number of leading zeros if the sorted vector matches the rigid pattern."""
    n = sorted_x.size
    m_int = round(m_eps)
    if abs(m_eps - m_int) > max(tol, 1e-9) * max(1.0, abs(m_eps)):
        return None
    if not 1 <= m_int <= n - 1:
        return None
    scale = float(np.max(np.abs(sorted_x)))
    atol = 10.0 * max(tol, 1e-12) * max(1.0, scale)
    head = sorted_x[:m_int]
    tail = sorted_x[m_int:]
    if np.max(np.abs(head)) > atol:
        return None
    if tail.max() - tail.min() > atol or tail.min() <= atol:
        return None
    return int(m_int)


def dichotomy_check(
    v: VectorLike, p: EpsilonParams, tol: float = DEFAULT_TOL
) -> DichotomyVerdict:
    """Classify v: outside the closed shifted cone, strictly inside P_{m_eps},
    or on the rigid boundary.

    The strict/boundary split uses the scale-normalized partial sum
    ``c0 / (m_eps ||v||)`` so the verdict is invariant under positive
    rescaling.  The zero vector is the one closed member with ``sum(v) = 0``
    and is reported as a degenerate boundary case (rigid_m None).
    """
    x = as_array(v)
    membership = in_shifted_cone(x, 2, p.shift_params, tol)
    sorted_x = np.sort(x, kind="stable")
    c0 = partial_sum_fractional(sorted_x, p.m_eps)
    if not membership.member_closed:
        return DichotomyVerdict(case=CASE_NOT_MEMBER, c0=c0)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return DichotomyVerdict(case=CASE_BOUNDARY, c0=0.0, rigid_m=None)
    if c0 / (p.m_eps * norm) > tol:
        return DichotomyVerdict(case=CASE_STRICT, c0=c0)
    return DichotomyVerdict(
        case=CASE_BOUNDARY, c0=c0, rigid_m=_rigid_zero_count(sorted_x, p.m_eps, tol)
    )


def sharp_witness(N: int, m: int) -> RealVector:
    """Extremal boundary vector: m zeros followed by N - m ones.

    With eps chosen so that m_eps = m, the witness sits exactly on the
    sigma_2 boundary of the shifted cone and has vanishing partial sum.
    """
    if not 1 <= m <= N - 1:
        raise ValueError(f"m must satisfy 1 <= m <= {N - 1}, got {m}")
    return RealVector([0.0] * m + [1.0] * (N - m))


# ---------------------------------------------------------------------------
# Sampling verification
# ---------------------------------------------------------------------------


def _sum_zero_basis(N: int) -> np.ndarray:
    """(N-1, N) orthonormal rows spanning the sum-zero hyperplane (Helmert)."""
    basis = np.zeros((N - 1, N))
    for k in range(1, N):
        basis[k - 1, :k] = 1.0
        basis[k - 1, k] = -float(k)
        basis[k - 1] /= math.sqrt(k * (k + 1))
    return basis


def _ball_points(
    rng: np.random.Generator, size: int, dim: int, radius: float
) -> np.ndarray:
    """(size, dim) i.i.d. uniform points in the ball of the given radius.

    A normalized Gaussian direction is uniform on the sphere, and the radius
    ``radius * U^(1/dim)`` has the law of a uniform point's norm (Muller 1959).
    """
    w = rng.normal(size=(size, dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w *= radius * rng.uniform(size=(size, 1)) ** (1.0 / dim)
    return w


@dataclass
class InclusionReport(Record):
    """Outcome of sampled verification that shifted-cone members are m-positive.

    ``min_margin`` is the smallest normalized P_{m_eps} margin seen over the
    accepted members; any accepted member whose margin is not > 0 (NaN
    included) is a violation.
    """

    record_tag = "verify_inclusion"

    N: int
    epsilon: float
    alpha_eps: float
    m_eps: float
    seed: int
    tol: float
    samples_requested: int
    method: str = "ball"
    method_used: str = ""
    draws: int = 0
    accepted: int = 0
    acceptance_rate: float = 0.0
    min_margin: Optional[float] = None
    violation_count: int = 0
    violations: list = field(default_factory=list)
    shortfall: bool = False
    # Debug aid: the raw member vectors, kept only on request and never
    # serialized into records.
    members: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False, metadata={"record": False}
    )

    @property
    def ok(self) -> bool:
        return self.violation_count == 0 and not self.shortfall


def _strict_member_mask(rows: np.ndarray, p: EpsilonParams, tol: float) -> np.ndarray:
    """Open-membership mask for G_2(alpha_eps), same normalization as cones.

    Kept apart from ``garding_margins_batch(k=2)``, which gives the same
    masks.  With the coefficient-major sigma kernel that route costs
    0.97-1.15x this closed form on 5000-row batches (N = 6/28/45, 2 cores),
    but routing the sampler through it gained nothing on ``inclusion_grid``
    over 3 pairs (``job_tail_ms`` median 10.5 -> 10.8 ms, ``wall_s``
    0.334 -> 0.341 s), so the sampler keeps the form without a loop.
    """
    n = p.N
    sums = rows.sum(axis=1)
    shifted = rows - p.alpha_eps * sums[:, None]
    norms = np.linalg.norm(shifted, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    s1 = shifted.sum(axis=1)
    s2 = (s1 * s1 - (shifted * shifted).sum(axis=1)) / 2.0
    margin = np.minimum(s1 / (n * safe), s2 / (math.comb(n, 2) * safe**2))
    return (margin > tol) & (norms > 0.0)


def _collect_members(
    report: InclusionReport, members: np.ndarray, p: EpsilonParams
) -> None:
    margins = positivity_margins_batch(members, p.m_eps)
    batch_min = float(margins.min()) if margins.size else None
    if batch_min is not None:
        report.min_margin = (
            batch_min if report.min_margin is None else min(report.min_margin, batch_min)
        )
    # A NaN margin is no evidence of membership, so it counts as a violation.
    bad = np.flatnonzero(~(margins > 0.0))
    report.violation_count += int(bad.size)
    for i in bad[: max(0, 10 - len(report.violations))]:
        report.violations.append(
            {"vector": [float(t) for t in members[i]], "margin": float(margins[i])}
        )


def verify_inclusion_sampling(
    N: int,
    epsilon: float,
    samples: int,
    seed: int,
    method: str = "ball",
    tol: float = DEFAULT_TOL,
    keep_members: bool = False,
) -> InclusionReport:
    """Sample members of the open shifted cone and test them against P_{m_eps}.

    ``method`` selects the member generator:

    * ``ball`` -- i.i.d. uniform points of the sum = 1 slice, where the cone
      section is the ball of radius ``eps * sqrt((N-1)/N)`` about the
      barycenter: a Gaussian direction in the sum-zero hyperplane and a
      radius ``rho * U^(1/(N-1))``.  Exact and independent, and as cheap
      in a narrow cone as in a wide one;
    * ``rejection`` -- rotation-invariant Gaussian draws.  It is the one
      route that does not assume the ball identity being checked, but its
      acceptance rate collapses for narrow cones in high dimension.

    Every draw of either method passes the same strict membership test
    before it counts as a member; ball draws within ``tol`` of the sphere are
    rejected like any other.  ``draws`` counts raw draws and
    ``acceptance_rate`` is ``accepted / draws``.  After
    ``max(1e8, 50 * samples)`` draws the run stops and flags a shortfall.

    Samples and all derived randomness come from one seeded generator in a
    fixed order; reports are reproducible byte-for-byte for a given seed.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if method not in ("ball", "rejection"):
        raise ValueError(f"unknown method {method!r}")
    p = epsilon_to_params(epsilon, N)
    report = InclusionReport(
        N=N,
        epsilon=p.epsilon,
        alpha_eps=p.alpha_eps,
        m_eps=p.m_eps,
        seed=seed,
        tol=tol,
        samples_requested=samples,
        method=method,
    )
    if samples == 0:
        report.method_used = "none"
        return report
    report.method_used = method
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    basis = _sum_zero_basis(N) if method == "ball" else None
    kept: list[np.ndarray] = []
    hard_cap = max(_DRAW_CAP, 50 * samples)
    while report.accepted < samples and report.draws < hard_cap:
        if method == "ball":
            # What is still missing plus as many draws as were rejected so
            # far: one batch when nearly every draw is a member, geometric
            # growth when few are.
            size = min(_MAX_BATCH, samples + report.draws - 2 * report.accepted)
            rows = 1.0 / N + _ball_points(rng, size, N - 1, p.slice_radius) @ basis
        else:
            size = max(10_000, min(_MAX_BATCH, samples * 4))
            rows = rng.normal(size=(size, N))
        report.draws += size
        members = rows[_strict_member_mask(rows, p, tol)][: samples - report.accepted]
        report.accepted += members.shape[0]
        if members.shape[0]:
            _collect_members(report, members, p)
            if keep_members:
                kept.append(members)
    report.shortfall = report.accepted < samples
    report.acceptance_rate = report.accepted / report.draws
    if keep_members:
        report.members = np.concatenate(kept, axis=0) if kept else np.empty((0, N))
    return report


# ---------------------------------------------------------------------------
# Boundary optimization
# ---------------------------------------------------------------------------


def boundary_minimum_closed_form(p: EpsilonParams) -> float:
    """Exact minimum of the m_eps-partial sum over the cone slice sum(v) = 1.

    The partial sum is a minimum of linear functionals, all equivalent under
    permutation, and the feasible slice is a ball; minimizing one functional
    over the ball gives

        m/N - rho * sqrt(floor(m) + frac^2 - m^2/N).

    The value is 0 exactly when m_eps is an integer and strictly positive
    otherwise.  Kept next to the optimizer as an audit value; tests use an
    independent re-derivation.
    """
    m = p.m_eps
    fl = math.floor(m)
    frac = m - fl
    return m / p.N - p.slice_radius * math.sqrt(fl + frac * frac - m * m / p.N)


@dataclass
class BoundarySearchReport(Record):
    """Result of minimizing the m_eps-partial sum over the cone slice.

    ``iterations`` is the cap on subgradient iterations; ``iterations_used``
    says how many ran before every restart was certified.
    """

    record_tag = "boundary_search"

    N: int
    epsilon: float
    m_eps: float
    seed: int
    tol: float
    restarts: int
    iterations: int
    min_c0: float = math.inf
    minimizer: list = field(default_factory=list)
    converged: bool = False
    restarts_converged: int = 0
    rigid_pattern: Optional[list] = None
    max_pattern_diff: Optional[float] = None
    matched_rigid: Optional[bool] = None
    # Solver counter, kept out of records so that they depend on the
    # answer only, like the members of a sampling run.
    iterations_used: int = field(default=0, metadata={"record": False})

    @property
    def ok(self) -> bool:
        good_value = self.min_c0 >= -10.0 * self.tol
        good_pattern = self.matched_rigid is not False
        return good_value and good_pattern and self.converged


def boundary_search(
    N: int,
    epsilon: float,
    restarts: int = 32,
    seed: int = 0,
    iterations: int = 10_000,
    step: float = 1e-2,
    tol: float = DEFAULT_TOL,
) -> BoundarySearchReport:
    """Minimize the m_eps-partial sum over the closed cone slice sum(v) = 1.

    Projected subgradient descent with random restarts: the objective is a
    minimum of linear functionals (concave), the feasible set on the slice
    is a ball, and projection is a radial clip.  The base step shrinks as
    1/sqrt(iteration).  Every 10 iterations, and at the cap, all restarts
    get an active-set refinement: the supporting selection of the best
    iterate is frozen and its linear functional is minimized over the ball
    in closed form, which is what pins the minimizer to entrywise accuracy.

    A refinement certifies when the frozen selection is still binding at the
    refined point (the linearized and the true objective agree to 1e-10
    relative); a certified point replaces the restart's best iterate.  The
    search stops once every restart is certified and its selection has not
    changed since the previous refinement, so ``iterations`` is a cap.  A
    restart counts as converged when its last refinement certified;
    non-convergence of the best restart is flagged.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    p = epsilon_to_params(epsilon, N)
    m = p.m_eps
    rho = p.slice_radius
    basis = _sum_zero_basis(N)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))

    report = BoundarySearchReport(
        N=N,
        epsilon=p.epsilon,
        m_eps=m,
        seed=seed,
        tol=tol,
        restarts=restarts,
        iterations=iterations,
    )

    weight = partial_sum_weights(m, N)

    def supporting(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slice points of w and the partial-sum weights at their positions."""
        v = 1.0 / N + w @ basis
        order = np.argsort(v, axis=1, kind="stable")
        sel = np.zeros_like(v)
        np.put_along_axis(sel, order, np.broadcast_to(weight, v.shape), axis=1)
        return v, sel

    w = _ball_points(rng, restarts, N - 1, rho)
    best_vals = np.full(restarts, np.inf)
    best_w = w.copy()
    prev_sel = None
    for t in range(iterations):
        v, sel = supporting(w)
        obj = (sel * v).sum(axis=1)
        improved = obj < best_vals
        best_vals = np.where(improved, obj, best_vals)
        best_w[improved] = w[improved]
        if (t + 1) % _REFINE_EVERY == 0 or t + 1 == iterations:
            # Minimize each frozen selection over the ball: the minimizer is
            # the radial point opposite the selection's sum-zero component.
            # The selection never lies along (1, ..., 1), since 0 < m < N - 1.
            _, best_sel = supporting(best_w)
            sel_w = best_sel @ basis.T
            cand = -rho * sel_w / np.linalg.norm(sel_w, axis=1, keepdims=True)
            cand_v = 1.0 / N + cand @ basis
            cand_obj = partial_sum_batch(np.sort(cand_v, axis=1), m)
            lin_obj = (best_sel * cand_v).sum(axis=1)
            converged = lin_obj - cand_obj <= 1e-10 * (1.0 + np.abs(cand_obj))
            best_w[converged] = cand[converged]
            best_vals[converged] = cand_obj[converged]
            stable = prev_sel is not None and np.array_equal(best_sel, prev_sel)
            if stable and converged.all():
                break
            prev_sel = best_sel
        w = w - (step / math.sqrt(t + 1.0)) * (sel @ basis.T)
        norms = np.linalg.norm(w, axis=1, keepdims=True)
        over = norms[:, 0] > rho
        if np.any(over):
            w[over] *= rho / norms[over]
    report.iterations_used = t + 1

    best = int(np.argmin(best_vals))
    minimizer = 1.0 / N + best_w[best] @ basis
    report.min_c0 = float(best_vals[best])
    report.minimizer = [float(t) for t in np.sort(minimizer)]
    report.restarts_converged = int(converged.sum())
    report.converged = bool(converged[best])

    m_int = round(m)
    if abs(m - m_int) <= 1e-9 and 1 <= m_int <= N - 1:
        pattern = np.zeros(N)
        pattern[m_int:] = 1.0 / (N - m_int)
        diff = float(np.max(np.abs(np.sort(minimizer) - pattern)))
        report.rigid_pattern = [float(t) for t in pattern]
        report.max_pattern_diff = diff
        report.matched_rigid = diff <= 1e-6
    return report
