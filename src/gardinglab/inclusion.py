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
re-exported here as the same objects.  The dichotomy and the boundary
search run on Python floats; numpy is imported by the sampler,
``sharp_witness`` and ``shift_identity_residual``, so importing this
module loads none.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from .config import DEFAULT_TOL, Record, _check_tol
from .cones import (
    EpsilonParams,
    _garding_membership,
    _norm,
    _positivity_margin,
    _shifted,
    epsilon_to_params,
    in_garding_cone,
    positivity_margins_batch,
)
from .symfun import (
    VectorLike,
    _fsum,
    _vector_entries,
    as_array,
    partial_sum_batch,
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
# raw draws.  No batch holds more than _BATCH_FLOATS float64s (128 MiB),
# whatever N: the ball route's batches double while most draws are rejected,
# and under a cap on rows a batch of wide rows outgrew any memory.  The cap
# binds on no batch of the tests or the benchmark (4.5 M floats at most).  A
# draw keeps one batch-sized array alive, the ball route's N + 2 normals or
# the rejection route's N, so the memory ceiling is _BATCH_FLOATS * 8 bytes
# plus block-sized temporaries and the members kept on request.  Squares, transposes, membership and margins run over
# consecutive blocks of _BLOCK_FLOATS float64s (256 KiB) of a batch: their
# temporaries fit a 2 MiB L2 cache, which full-batch temporaries (4 MB each
# at 5000 x 100) overflowed.
_DRAW_CAP = 100_000_000
_BATCH_FLOATS = 2**24
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
    is past the float maximum.  It stays on numpy: on Python floats, with
    the same bits, it ran faster below about 20 entries but slower from
    about 30 (``cone_margins`` residual jobs, 2-core host: 0.008 against
    0.014 ms at N < 10, 0.022 against 0.015 ms at N = 40), and that
    workload's median job, a residual job, rose by 6% over 6 pairs.
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


class DichotomyVerdict(Record, frozen=True):
    """Classification of a vector against the inclusion dichotomy.

    ``case`` is one of strict_positive, boundary_rigid, not_member.  ``c0``
    is the fractional partial sum at m_eps.  ``rigid_m`` is the integer zero
    count when the boundary pattern (m zeros, then equal positive entries)
    was confirmed; it is None for the degenerate zero vector or when the
    pattern could not be confirmed at tolerance.
    """

    def __init__(self, case: str, c0: float, rigid_m: Optional[int] = None) -> None:
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "rigid_m", rigid_m)


def _rigid_zero_count(sorted_x: list[float], m_eps: float, tol: float) -> Optional[int]:
    """Number of leading zeros if the sorted vector matches the rigid pattern.

    Zeros and equal entries are judged relative to the largest magnitude, so
    the answer does not depend on the vector's scale; the zero vector, whose
    tail is not positive, gets None.
    """
    n = len(sorted_x)
    m_int = round(m_eps)
    if abs(m_eps - m_int) > max(tol, 1e-9) * max(1.0, abs(m_eps)):
        return None
    if not 1 <= m_int <= n - 1:
        return None
    atol = 10.0 * max(tol, 1e-12) * max(map(abs, sorted_x))
    head = sorted_x[:m_int]
    tail = sorted_x[m_int:]
    if max(map(abs, head)) > atol:
        return None
    if max(tail) - min(tail) > atol or min(tail) <= atol:
        return None
    return m_int


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
    # v is read once: in_shifted_cone's G_2 test and the sort share its entries.
    entries = _vector_entries(v, 2)
    membership = _garding_membership(_shifted(entries, p.shift_params), 2, tol)
    x = entries if isinstance(entries, list) else entries.tolist()
    sorted_x = sorted(x)
    c0 = partial_sum_batch(sorted_x, p.m_eps)
    if not membership.member_closed:
        return DichotomyVerdict(case=CASE_NOT_MEMBER, c0=c0)
    if not any(x):
        return DichotomyVerdict(case=CASE_BOUNDARY, c0=0.0, rigid_m=None)
    # Open membership in P_{m_eps}: its normalized margin exceeds tol.
    if _positivity_margin(c0, p.m_eps, _norm(x)) > tol:
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
    ``1/N`` in the slice sum(v) = 1, as the transpose of the coordinate-major
    array they are drawn in.

    Dropped coordinates (Voelker, Gosmann and Stewart 2017): a uniform point
    of the unit sphere in R^(d+2) without two of its coordinates is uniform
    in the unit d-ball.  N normals less their mean are a standard normal of
    the sum-zero hyperplane, so d = N - 1 takes N + 2 normals.  They are
    drawn coordinate-major, so every step is element-wise or a sum over axis
    0, in an order that no BLAS or SIMD kernel changes, and they are the one
    batch-sized array: centred and scaled in place, their squares summed in
    row chunks (``_column_square_sums``), and the rows left for the caller to
    copy out block by block.
    """
    import numpy as np

    z = rng.standard_normal(size=(N + 2, size))
    head = z[:N]
    head -= head.mean(axis=0)
    head /= np.sqrt(_column_square_sums(z))
    head *= radius
    head += 1.0 / N
    return head.T


def _column_square_sums(z: np.ndarray) -> np.ndarray:
    """``(z * z).sum(axis=0)`` bit for bit, without a square of all of z.

    numpy sums the columns of a 2-D array of two or more columns one row
    after another, so the squares go in chunks of about ``_BLOCK_FLOATS``
    entries and each chunk's first row carries the running sum.  A single
    column is summed pairwise instead, so it is never split.
    """
    rows, cols = z.shape
    step = rows if cols == 1 else max(1, _BLOCK_FLOATS // cols)
    total = None
    for start in range(0, rows, step):
        part = z[start : start + step]
        squares = part * part
        if total is not None:
            squares[0] += total
        total = squares.sum(axis=0)
    return total


class InclusionReport(Record):
    """Outcome of sampled verification that shifted-cone members are m-positive.

    ``min_margin`` is the smallest normalized P_{m_eps} margin seen over the
    accepted members; any accepted member whose margin is not > 0 (NaN
    included) is a violation.  ``members``, a debug aid, holds the member
    vectors kept on request; no record, repr or comparison sees it.
    """

    record_tag = "verify_inclusion"
    _fields = (
        "N", "epsilon", "alpha_eps", "m_eps", "seed", "tol", "samples_requested", "method",
        "method_used", "draws", "accepted", "acceptance_rate", "min_margin", "violation_count",
        "violations", "shortfall",
    )

    def __init__(
        self,
        N: int,
        epsilon: float,
        alpha_eps: float,
        m_eps: float,
        seed: int,
        tol: float,
        samples_requested: int,
        method: str = "ball",
        draws: int = 0,
        accepted: int = 0,
        min_margin: Optional[float] = None,
        violation_count: int = 0,
        violations: Optional[list] = None,
        shortfall: bool = False,
        *,
        members: Optional[np.ndarray] = None,
    ) -> None:
        self.N, self.epsilon, self.alpha_eps, self.m_eps = N, epsilon, alpha_eps, m_eps
        self.seed, self.tol, self.samples_requested = seed, tol, samples_requested
        self.method, self.draws, self.accepted = method, draws, accepted
        self.min_margin, self.violation_count = min_margin, violation_count
        self.violations = [] if violations is None else violations
        self.shortfall, self.members = shortfall, members

    @property
    def method_used(self) -> str:
        """The sampler that ran: ``method``, or "none" when no sample was asked for."""
        return self.method if self.samples_requested else "none"

    @property
    def acceptance_rate(self) -> float:
        """``accepted / draws``, or 0.0 before any draw."""
        return self.accepted / self.draws if self.draws else 0.0

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

    Each batch is drawn whole, with ``standard_normal``, as the one
    batch-sized array, and holds at most ``_BATCH_FLOATS`` normals whatever
    N.  It is then tested in consecutive row blocks of about
    ``_BLOCK_FLOATS`` entries, each copied out of a coordinate-major ball
    draw as the loop reaches it, and the run stops at the first block that
    completes the target.  Every step after the draw works row by row, so
    the blocks change no bit of the report or of ``members``; ``draws``
    still counts whole batches.

    Samples and all derived randomness come from one seeded generator in a
    fixed order; reports are reproducible byte-for-byte for a given seed.
    """
    import numpy as np

    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
        return report
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    kept: list[np.ndarray] = []
    hard_cap = max(_DRAW_CAP, 50 * samples)
    block = max(1, _BLOCK_FLOATS // N)
    batch = max(1, _BATCH_FLOATS // (N + 2 if method == "ball" else N))
    while report.accepted < samples and report.draws < hard_cap:
        if method == "ball":
            # What is still missing plus as many draws as were rejected so
            # far: one batch when nearly every draw is a member, geometric
            # growth when few are.
            size = min(batch, samples + report.draws - 2 * report.accepted)
            rows = _ball_slice_rows(rng, size, N, p.slice_radius)
        else:
            size = min(batch, max(10_000, samples * 4))
            rows = rng.standard_normal(size=(size, N))
        report.draws += size
        for start in range(0, size, block):
            # A copy only of a ball block, whose rows are columns of its draw.
            chunk = np.ascontiguousarray(rows[start : start + block])
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


class BoundarySearchReport(Record):
    """The minimum of the m_eps-partial sum over the cone slice, and its minimizer.

    ``minimizer`` is the sorted exact minimizer and ``min_c0`` the partial
    sum evaluated at it.  ``converged`` says that the evaluated minimum
    agrees with ``boundary_minimum_closed_form`` and that the minimizer is a
    closed member of the shifted cone.  The minimizer is found in one step,
    so ``restarts`` and ``iterations`` are the constants 1 and 0.
    """

    record_tag = "boundary_search"
    _fields = (
        "N", "epsilon", "m_eps", "tol", "min_c0", "minimizer", "converged", "rigid_pattern",
        "max_pattern_diff", "matched_rigid",
    )
    restarts = 1
    iterations = 0

    def __init__(
        self,
        N: int,
        epsilon: float,
        m_eps: float,
        tol: float,
        min_c0: float,
        minimizer: list,
        converged: bool,
        rigid_pattern: Optional[list] = None,
        max_pattern_diff: Optional[float] = None,
    ) -> None:
        self.N, self.epsilon, self.m_eps, self.tol = N, epsilon, m_eps, tol
        self.min_c0, self.minimizer, self.converged = min_c0, minimizer, converged
        self.rigid_pattern, self.max_pattern_diff = rigid_pattern, max_pattern_diff

    @property
    def matched_rigid(self) -> Optional[bool]:
        """Whether the minimizer is within 1e-6 of the rigid pattern; None
        when m_eps is not an integer and there is no pattern."""
        if self.max_pattern_diff is None:
            return None
        return self.max_pattern_diff <= 1e-6

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
    ``w_i = clip(m_eps - i, 0, 1)``, and every other selection is a
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
    _check_tol(tol)
    p = epsilon_to_params(epsilon, N)
    m = p.m_eps
    weights = [min(max(m - i, 0.0), 1.0) for i in range(N)]
    mean = _fsum(weights, "sum of the weights") / N
    direction = [w - mean for w in weights]
    norm = _norm(direction)
    step = [p.slice_radius * d / norm for d in direction]
    minimizer = sorted(1.0 / N - s for s in step)
    min_c0 = partial_sum_batch(minimizer, m)
    exact = boundary_minimum_closed_form(p)
    converged = (
        abs(min_c0 - exact) <= 1e-10 * (1.0 + abs(exact))
        and in_garding_cone([p.epsilon / N - s for s in step], 2, tol).member_closed
    )
    pattern = diff = None
    m_int = round(m)
    if abs(m - m_int) <= 1e-9 and 1 <= m_int <= N - 1:
        pattern = [0.0] * m_int + [1.0 / (N - m_int)] * (N - m_int)
        diff = max(abs(a - b) for a, b in zip(minimizer, pattern))
    return BoundarySearchReport(
        N=N, epsilon=p.epsilon, m_eps=m, tol=tol, min_c0=min_c0, minimizer=minimizer,
        converged=converged, rigid_pattern=pattern, max_pattern_diff=diff,
    )
