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
The ball sampler draws from that ball by dropped coordinates, with no basis
of the hyperplane, and the boundary search minimizes the partial sum over it
in closed form; Gaussian rejection sampling does not assume the identity,
and the residual of the identity itself is exposed for independent checking.

Equality in the inclusion is rigid: it forces ``m_eps`` to be a positive
integer and the sorted vector to consist of ``m_eps`` zeros followed by
equal positive entries.  ``sharp_witness`` builds those extremal vectors and
``boundary_search`` recovers them as the exact minimizers of the partial sum.

``EpsilonParams`` and ``epsilon_to_params`` are defined in ``cones``, which
loads no numpy, so the classifier reads them without this module; they are
re-exported here as the same objects.  numpy is imported inside the
functions that build arrays, so importing this module loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .config import DEFAULT_TOL, Record, _check_tol
from .cones import (
    EpsilonParams,
    _norm,
    epsilon_to_params,
    in_garding_cone,
    in_shifted_cone,
    positivity_margins_batch,
)
from .symfun import (
    VectorLike,
    as_array,
    partial_sum_batch,
    partial_sum_fractional,
    partial_sum_weights,
    sigma_prefix,
)

if TYPE_CHECKING:
    import numpy as np

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
# raw draws.  No batch holds more than _MAX_BATCH rows, and a draw keeps at
# most two batch-sized float64 arrays alive at once (the ball route's N + 2
# normals and their squares, or its normals and rows), so the memory ceiling
# is 2 * _MAX_BATCH * (N + 2) * 8 bytes, 32 * (N + 2) MB, plus the members
# kept on request.  Membership and margins run over consecutive blocks of
# _BLOCK_FLOATS float64s (256 KiB) of a batch: their temporaries fit a
# 2 MiB L2 cache, which full-batch temporaries (4 MB each at 5000 x 100)
# overflowed.
_DRAW_CAP = 100_000_000
_MAX_BATCH = 2_000_000
_BLOCK_FLOATS = 32_768


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
    result should vanish to roundoff for every vector.  Both sides are taken
    of the unit vector ``v / ||v||`` and the difference is multiplied back by
    ``||v||`` twice, so a residual beyond float range comes back as +-inf,
    without an exception or a warning; it is NaN only where ``||v||`` itself
    is past the float maximum.
    """
    x = as_array(v)
    if x.size != p.N:
        raise ValueError(f"vector length {x.size} does not match N={p.N}")
    norm = math.hypot(*x.tolist()) or 1.0
    u = x / norm
    total = float(u.sum())
    lhs = 2.0 * float(sigma_prefix(u - p.alpha_eps * total, 2)[-1])
    rhs = p.quadratic_coefficient * (total * total) - float((u * u).sum())
    return (lhs - rhs) * norm * norm


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
    """Number of leading zeros if the sorted vector matches the rigid pattern.

    Zeros and equal entries are judged relative to the largest magnitude, so
    the answer does not depend on the vector's scale; the zero vector, whose
    tail is not positive, gets None.
    """
    import numpy as np

    n = sorted_x.size
    m_int = round(m_eps)
    if abs(m_eps - m_int) > max(tol, 1e-9) * max(1.0, abs(m_eps)):
        return None
    if not 1 <= m_int <= n - 1:
        return None
    scale = float(np.max(np.abs(sorted_x)))
    atol = 10.0 * max(tol, 1e-12) * scale
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

    The strict/boundary split is open membership in P_{m_eps}, whose margin
    is scale-normalized, so the verdict is invariant under positive
    rescaling.  The zero vector is the one closed member with ``sum(v) = 0``
    and is reported as a degenerate boundary case (rigid_m None).
    """
    import numpy as np

    membership = in_shifted_cone(v, 2, p.shift_params, tol)
    # The cone test has validated v; this only takes its float array.
    x = np.asarray(v, dtype=float)
    sorted_x = np.sort(x, kind="stable")
    c0 = float(partial_sum_batch(sorted_x, p.m_eps))
    if not membership.member_closed:
        return DichotomyVerdict(case=CASE_NOT_MEMBER, c0=c0)
    if not x.any():
        return DichotomyVerdict(case=CASE_BOUNDARY, c0=0.0, rigid_m=None)
    # Open membership in P_{m_eps}: its normalized margin exceeds tol.
    if c0 / (p.m_eps * _norm(x)) > tol:
        return DichotomyVerdict(case=CASE_STRICT, c0=c0)
    return DichotomyVerdict(
        case=CASE_BOUNDARY, c0=c0, rigid_m=_rigid_zero_count(sorted_x, p.m_eps, tol)
    )


def sharp_witness(N: int, m: int) -> np.ndarray:
    """Extremal boundary vector: m zeros followed by N - m ones.

    With eps chosen so that m_eps = m, the witness sits exactly on the
    sigma_2 boundary of the shifted cone and has vanishing partial sum.
    """
    import numpy as np

    if not 1 <= m <= N - 1:
        raise ValueError(f"m must satisfy 1 <= m <= {N - 1}, got {m}")
    return np.repeat([0.0, 1.0], [m, N - m])


# ---------------------------------------------------------------------------
# Sampling verification
# ---------------------------------------------------------------------------


def _ball_slice_rows(
    rng: np.random.Generator, size: int, N: int, radius: float
) -> np.ndarray:
    """(size, N) i.i.d. uniform points of the ball of the given radius about
    ``1/N`` in the slice sum(v) = 1, as one C-ordered array.

    Dropped coordinates (Voelker, Gosmann and Stewart 2017): a uniform point
    of the unit sphere in R^(d+2) without two of its coordinates is uniform
    in the unit d-ball.  N normals less their mean are a standard normal of
    the sum-zero hyperplane, so d = N - 1 takes N + 2 normals.  They are
    drawn coordinate-major, so every step is element-wise or a sum over axis
    0, in an order that no BLAS or SIMD kernel changes.
    """
    import numpy as np

    z = rng.normal(size=(N + 2, size))
    head = z[:N]
    head -= head.mean(axis=0)
    head /= np.sqrt((z * z).sum(axis=0))
    head *= radius
    head += 1.0 / N
    return np.ascontiguousarray(head.T)


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

    Kept apart from the last column of ``garding_margin_chain_batch(rows, 2)``,
    which gives the same masks: the sampler's rows are bounded, so
    ``comb(N, 2) * ||v||^2`` cannot overflow here.  With the means recurrence of ``symfun`` that
    route costs 1.16-1.35x this closed form per 5000-row batch (N = 6/28/45,
    2 cores), and routing the sampler through it raised ``inclusion_grid``
    ``job_tail_ms`` by 40-50% over 3 pairs, so the sampler keeps the form
    without a loop.
    """
    import numpy as np

    n = p.N
    sums = rows.sum(axis=1)
    shifted = rows - p.alpha_eps * sums[:, None]
    # The row norm is the sqrt of this very sum, so one sum of squares serves
    # the norm and sigma_2 with the same bits.
    squares = (shifted * shifted).sum(axis=1)
    norms = np.sqrt(squares)
    safe = np.where(norms == 0.0, 1.0, norms)
    s1 = shifted.sum(axis=1)
    s2 = (s1 * s1 - squares) / 2.0
    margin = np.minimum(s1 / (n * safe), s2 / (math.comb(n, 2) * (safe * safe)))
    return (margin > tol) & (norms > 0.0)


def _collect_members(
    report: InclusionReport, members: np.ndarray, p: EpsilonParams
) -> None:
    import numpy as np

    margins = positivity_margins_batch(members, p.m_eps)
    if margins.size:
        low = float(margins.min())
        # min() would keep a NaN only from the first call; it must stick from any.
        if report.min_margin is None or math.isnan(low) or low < report.min_margin:
            report.min_margin = low
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
      barycenter: N + 2 normals, the mean taken off the first N, scaled
      by ``rho`` over the norm of all N + 2, with the last two dropped.
      Exact and independent, and as cheap in a narrow cone as in a wide
      one;
    * ``rejection`` -- rotation-invariant Gaussian draws.  It is the one
      route that does not assume the ball identity being checked, but its
      acceptance rate collapses for narrow cones in high dimension.

    Every draw of either method passes the same strict membership test
    before it counts as a member; ball draws within ``tol`` of the sphere are
    rejected like any other.  ``draws`` counts raw draws and
    ``acceptance_rate`` is ``accepted / draws``.  After
    ``max(1e8, 50 * samples)`` draws the run stops and flags a shortfall.
    An eps so small that ``(1 - eps)/N`` rounds to ``1/N`` raises ValueError
    up front: the membership test would then see only rounding noise.

    Each batch is drawn whole, then tested in consecutive row blocks of
    about ``_BLOCK_FLOATS`` entries, and the run stops at the first block
    that completes the target.  Every step after the draw works row by row,
    so the blocks change no bit of the report or of ``members``; ``draws``
    still counts whole batches.

    Samples and all derived randomness come from one seeded generator in a
    fixed order; reports are reproducible byte-for-byte for a given seed.
    """
    import numpy as np

    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if method not in ("ball", "rejection"):
        raise ValueError(f"unknown method {method!r}")
    _check_tol(tol)
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
    kept: list[np.ndarray] = []
    hard_cap = max(_DRAW_CAP, 50 * samples)
    block = max(1, _BLOCK_FLOATS // N)
    while report.accepted < samples and report.draws < hard_cap:
        if method == "ball":
            # What is still missing plus as many draws as were rejected so
            # far: one batch when nearly every draw is a member, geometric
            # growth when few are.
            size = min(_MAX_BATCH, samples + report.draws - 2 * report.accepted)
            rows = _ball_slice_rows(rng, size, N, p.slice_radius)
        else:
            size = max(10_000, min(_MAX_BATCH, samples * 4))
            rows = rng.normal(size=(size, N))
        report.draws += size
        for start in range(0, size, block):
            chunk = rows[start : start + block]
            members = chunk[_strict_member_mask(chunk, p, tol)][: samples - report.accepted]
            if members.shape[0]:
                report.accepted += members.shape[0]
                _collect_members(report, members, p)
                if keep_members:
                    kept.append(members)
                if report.accepted == samples:
                    break
        # Free this batch before the next one is drawn.
        del rows, chunk
    report.shortfall = report.accepted < samples
    report.acceptance_rate = report.accepted / report.draws
    if keep_members:
        report.members = np.concatenate(kept, axis=0) if kept else np.empty((0, N))
    return report


# ---------------------------------------------------------------------------
# Boundary minimization
# ---------------------------------------------------------------------------


def boundary_minimum_closed_form(p: EpsilonParams) -> float:
    """Exact minimum of the m_eps-partial sum over the cone slice sum(v) = 1.

    The partial sum is a minimum of linear functionals, all equivalent under
    permutation, and the feasible slice is a ball; minimizing one functional
    over the ball gives

        m/N - rho * sqrt(floor(m) + frac^2 - m^2/N).

    The value is 0 exactly when m_eps is an integer and strictly positive
    otherwise.  ``boundary_search`` checks its evaluated minimum against this
    formula; tests use an independent re-derivation.
    """
    m = p.m_eps
    fl = math.floor(m)
    frac = m - fl
    return m / p.N - p.slice_radius * math.sqrt(fl + frac * frac - m * m / p.N)


@dataclass
class BoundarySearchReport(Record):
    """The minimum of the m_eps-partial sum over the cone slice, and its minimizer.

    ``minimizer`` is the sorted exact minimizer and ``min_c0`` the partial
    sum evaluated at it.  ``converged`` says that the evaluated minimum
    agrees with ``boundary_minimum_closed_form`` and that the minimizer is a
    closed member of the shifted cone.  The minimizer is found in one step,
    so ``restarts`` and ``iterations`` are the constants 1 and 0.
    """

    record_tag = "boundary_search"
    restarts = 1
    iterations = 0

    N: int
    epsilon: float
    m_eps: float
    tol: float
    min_c0: float
    minimizer: list
    converged: bool
    rigid_pattern: Optional[list] = None
    max_pattern_diff: Optional[float] = None
    matched_rigid: Optional[bool] = None

    @property
    def restarts_converged(self) -> int:
        return int(self.converged)

    @property
    def ok(self) -> bool:
        good_value = self.min_c0 >= -10.0 * self.tol
        good_pattern = self.matched_rigid is not False
        return good_value and good_pattern and self.converged


def boundary_search(N: int, epsilon: float, tol: float = DEFAULT_TOL) -> BoundarySearchReport:
    """Minimize the m_eps-partial sum over the closed cone slice sum(v) = 1.

    Over sorted entries the partial sum is the dot product with the weights
    ``w = partial_sum_weights(m_eps, N)``, and every other selection is a
    permutation of w.  On the slice the cone is the ball of radius rho about
    the barycenter, so the minimizer is the ball point opposite the sum-zero
    part of w,

        v* = 1/N - rho * (w - mean w) / ||w - mean w||,

    which is already sorted, because w is non-increasing.  w is never
    constant, since 0 < m_eps < N - 1.  When m_eps is an integer the
    minimizer is compared entrywise with the rigid pattern (m_eps zeros,
    then equal entries).  An eps that float64 cannot resolve at N raises
    ValueError, as in ``verify_inclusion_sampling``.

    Cone membership is tested on the shift of v* in the form
    ``eps/N - rho * (w - mean w) / ||w - mean w||``, which is exactly
    ``v* - alpha_eps * sum(v*)`` because sum(v*) = 1: forming
    ``1/N - alpha_eps`` instead cancels for small eps and leaves a sigma_2
    margin of rounding noise below -tol (-1.4e-9 at eps = 1e-10, N = 45).
    """
    import numpy as np

    _check_tol(tol)
    p = epsilon_to_params(epsilon, N)
    m = p.m_eps
    direction = partial_sum_weights(m, N)
    direction -= direction.mean()
    step = p.slice_radius * direction / _norm(direction)
    minimizer = np.sort(1.0 / N - step)
    min_c0 = partial_sum_fractional(minimizer, m)
    exact = boundary_minimum_closed_form(p)
    converged = (
        abs(min_c0 - exact) <= 1e-10 * (1.0 + abs(exact))
        and in_garding_cone(p.epsilon / N - step, 2, tol).member_closed
    )
    report = BoundarySearchReport(
        N=N,
        epsilon=p.epsilon,
        m_eps=m,
        tol=tol,
        min_c0=min_c0,
        minimizer=[float(t) for t in minimizer],
        converged=converged,
    )

    m_int = round(m)
    if abs(m - m_int) <= 1e-9 and 1 <= m_int <= N - 1:
        pattern = np.zeros(N)
        pattern[m_int:] = 1.0 / (N - m_int)
        diff = float(np.max(np.abs(minimizer - pattern)))
        report.rigid_pattern = [float(t) for t in pattern]
        report.max_pattern_diff = diff
        report.matched_rigid = diff <= 1e-6
    return report
