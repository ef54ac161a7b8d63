"""Brute-force oracles, kept independent of the library's algorithms.

Each oracle recomputes a quantity by direct enumeration or by elementary
projections so that library outputs are checked against a second route:
subset enumeration for symmetric polynomials and selection sums, basic
feasible solutions for the capped weighted-sum extremes, and a ball
projection for the boundary minimum of the partial sum.  The equivalent
closed forms of the verdict thresholds live here too, and so do the loops
the library replaced: the row-major sigma recurrence, the single-vector
recurrence with degree factors built per call, the partial sum of one
vector as a (1, N) batch, the Jacobi eigensolvers (a scalar cyclic-order
loop, and round-robin rounds, with their schedule, that gather and scatter
rows and columns in natural order), the restarted subgradient boundary
search over a Helmert basis of the sum-zero hyperplane, the per-entry
symmetric fill of a parsed tensor file, the nesting check that runs every
sample's Garding chain through all N degrees and the inclusion sampler
that tests each drawn batch whole.  The dense trace-free basis, the full
symmetric-tensor basis (trace-free part plus pure trace) and the dense
``einsum`` Gram matrix on a basis are here as well: the library assembles
the second-kind operator by a sparse contraction and only tests use them;
so are the random curvature tensor the stress tests draw and the frame
change the invariance tests apply.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from gardinglab.config import DEFAULT_TOL
from gardinglab.cones import (
    NestingReport,
    _add_violation,
    _breaks_maclaurin,
    garding_margin_chain_batch,
    positivity_margins_batch,
)
from gardinglab.curvature import CurvatureTensor, _helmert_scales
from gardinglab.inclusion import (
    _DRAW_CAP,
    _MAX_BATCH,
    InclusionReport,
    _ball_slice_rows,
    _collect_members,
    _strict_member_mask,
    epsilon_for_target_m,
    epsilon_to_params,
)
from gardinglab.symfun import partial_sum_batch, partial_sum_weights


def sigma_subsets(values, k: int) -> float:
    """sigma_k by explicit enumeration of all k-subsets (N <= ~16)."""
    total = 0.0
    for combo in itertools.combinations(values, k):
        total += math.prod(combo)
    return total


def sigma_prefix_row_major(rows, k: int, means: bool = False) -> np.ndarray:
    """Row-wise (sigma_1, ..., sigma_k) of a (B, N) batch, row-major.

    Every entry updates every coefficient of a (B, k+1) array; the library's
    kernels run the same float operations in other loop orders.  With
    ``means`` coefficient j gets ``(j/(N-j+1) * v_i) * E_{j-1}``, which
    gives the means ``E_j = sigma_j / binom(N, j)``; without it the factor
    is 1.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    factors = np.ones(k)
    if means:
        factors = np.array([j / (n - j + 1) for j in range(1, k + 1)])
    coeffs = np.zeros((rows.shape[0], k + 1))
    coeffs[:, 0] = 1.0
    higher, lower = coeffs[:, 1:], coeffs[:, :-1]
    for column in rows.T[:, :, None]:
        higher += (factors * column) * lower
    return higher


def sigma_prefix_with_fresh_factors(x: np.ndarray, k: int, means: bool = False) -> np.ndarray:
    """(sigma_1, ..., sigma_k) of one vector by the degree-by-degree loop,
    with the degree factors built per call from two ``arange``s and the
    last prefix of each degree gathered in a list."""
    n = x.size
    factors = np.ones(k)
    if means:
        factors = np.arange(1, k + 1) / np.arange(n, n - k, -1)
    steps = factors[:, None] * x
    prefix = np.add.accumulate(steps[0])
    last = [prefix[-1]]
    for j in range(1, k):
        prefix = np.add.accumulate(steps[j, j:] * prefix[:-1])
        last.append(prefix[-1])
    out = np.array(last)
    out += 0.0
    return out


def partial_sum_as_batch_row(sorted_x: np.ndarray, m: float) -> float:
    """Fractional partial sum of one sorted vector at ``0 < m <= N``, taken
    as the single row of a (1, N) batch, summed along axis 1."""
    rows = sorted_x[None, :]
    fl = math.floor(m)
    frac = m - fl
    total = rows[:, :fl].sum(axis=1)
    if frac != 0.0:
        total = total + frac * rows[:, fl]
    return float(total[0])


def selection_sum_min(values, m: float) -> float:
    """Minimal fractional selection sum over all index selections.

    The m-positivity quantity applies to ordered vectors, so the input is
    sorted first; then every increasing selection of floor(m)+1 indices is
    enumerated with weights (1, ..., 1, m - floor(m)).  For integer m the
    weight on the last index is zero and plain floor(m)-subsets are
    enumerated instead.
    """
    values = sorted(values)
    fl = math.floor(m)
    frac = m - fl
    best = math.inf
    if frac == 0.0:
        for combo in itertools.combinations(values, fl):
            best = min(best, sum(combo))
        return best
    for combo in itertools.combinations(sorted(range(len(values))), fl + 1):
        chosen = [values[i] for i in combo]
        best = min(best, sum(chosen[:-1]) + frac * chosen[-1])
    return best


def weighted_extremes_enum(values, omega: float, total: float) -> tuple[float, float]:
    """(min, max) weighted sum over basic feasible weight vectors.

    A vertex of {0 <= w <= omega, sum w = total} caps some subset and puts
    the leftover on at most one further coordinate; all such vertices are
    enumerated (N <= ~10).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    q = int(math.floor(total / omega + 1e-12))
    q = min(q, n)
    rem = total - q * omega
    if q == n:
        rem = 0.0
    lo, hi = math.inf, -math.inf
    for subset in itertools.combinations(range(n), q):
        base = omega * values[list(subset)].sum() if q else 0.0
        if rem <= 1e-15:
            lo = min(lo, base)
            hi = max(hi, base)
            continue
        for extra in range(n):
            if extra in subset:
                continue
            val = base + rem * values[extra]
            lo = min(lo, val)
            hi = max(hi, val)
    return lo, hi


def random_admissible_weights(
    rng: np.random.Generator, n: int, omega: float, total: float, count: int
) -> np.ndarray:
    """Admissible weight vectors by Dirichlet draws with cap rejection."""
    out = []
    while len(out) < count:
        w = rng.dirichlet(np.ones(n), size=4 * count) * total
        good = w[(w <= omega * (1 + 1e-12)).all(axis=1)]
        out.extend(np.minimum(good, omega))
    return np.array(out[:count])


def boundary_min_by_projection(N: int, epsilon: float) -> float:
    """Minimum of the m_eps-partial sum over the cone slice, by projection.

    Uses only the ball geometry of the slice: pick the selection weights on
    the first floor(m)+1 coordinates (any selection is equivalent by
    symmetry), project out the all-ones direction, and step to the ball
    boundary against that direction.
    """
    m = N * (N - 1) * epsilon**2 / (1 + (N - 1) * epsilon**2)
    rho = epsilon * math.sqrt((N - 1) / N)
    fl = math.floor(m)
    frac = m - fl
    weights = np.zeros(N)
    weights[:fl] = 1.0
    if frac:
        weights[fl] = frac
    ones = np.ones(N) / math.sqrt(N)
    perp = weights - np.dot(weights, ones) * ones
    return float(np.dot(weights, np.full(N, 1.0 / N)) - rho * np.linalg.norm(perp))


def _sum_zero_basis(N: int) -> np.ndarray:
    """(N-1, N) orthonormal rows spanning the sum-zero hyperplane (Helmert)."""
    basis = np.zeros((N - 1, N))
    for k in range(1, N):
        basis[k - 1, :k] = 1.0
        basis[k - 1, k] = -float(k)
        basis[k - 1] /= math.sqrt(k * (k + 1))
    return basis


@dataclass
class SubgradientResult:
    """Best restart of ``boundary_search_by_subgradient`` and its counters."""

    min_c0: float
    minimizer: np.ndarray
    converged: bool
    iterations_used: int


def boundary_search_by_subgradient(
    N: int,
    epsilon: float,
    restarts: int = 32,
    seed: int = 0,
    iterations: int = 10_000,
    step: float = 1e-2,
) -> SubgradientResult:
    """Minimize the m_eps-partial sum over the cone slice by subgradient descent.

    Projected subgradient descent with random restarts: the objective is a
    minimum of linear functionals (concave), the feasible set on the slice
    is a ball, and projection is a radial clip.  The base step shrinks as
    1/sqrt(iteration).  Every 10 iterations, and at the cap, all restarts
    get an active-set refinement: the supporting selection of the best
    iterate is frozen and its linear functional is minimized over the ball,
    which is what pins the minimizer to entrywise accuracy.

    A refinement certifies when the frozen selection is still binding at the
    refined point (the linearized and the true objective agree to 1e-10
    relative); a certified point replaces the restart's best iterate.  The
    search stops once every restart is certified and its selection has not
    changed since the previous refinement, so ``iterations`` is a cap.
    ``minimizer`` is the sorted best point.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    p = epsilon_to_params(epsilon, N)
    m = p.m_eps
    rho = p.slice_radius
    basis = _sum_zero_basis(N)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    weight = partial_sum_weights(m, N)

    def supporting(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slice points of w and the partial-sum weights at their positions."""
        v = 1.0 / N + w @ basis
        order = np.argsort(v, axis=1, kind="stable")
        sel = np.zeros_like(v)
        np.put_along_axis(sel, order, np.broadcast_to(weight, v.shape), axis=1)
        return v, sel

    # Uniform starts in the ball: a Gaussian direction and the radius
    # rho * U^(1/(N-1)) (Muller 1959).
    w = rng.normal(size=(restarts, N - 1))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w *= rho * rng.uniform(size=(restarts, 1)) ** (1.0 / (N - 1))
    best_vals = np.full(restarts, np.inf)
    best_w = w.copy()
    prev_sel = None
    for t in range(iterations):
        v, sel = supporting(w)
        obj = (sel * v).sum(axis=1)
        improved = obj < best_vals
        best_vals = np.where(improved, obj, best_vals)
        best_w[improved] = w[improved]
        if (t + 1) % 10 == 0 or t + 1 == iterations:
            # Minimize each frozen selection over the ball: the minimizer is
            # the radial point opposite the selection's sum-zero component.
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

    best = int(np.argmin(best_vals))
    return SubgradientResult(
        min_c0=float(best_vals[best]),
        minimizer=np.sort(1.0 / N + best_w[best] @ basis),
        converged=bool(converged[best]),
        iterations_used=t + 1,
    )


def space_form_first_threshold_dim_form(n: int) -> float:
    """First-kind space-form threshold as sqrt(8/((n^2-n-2)(n^2-n-4)))."""
    return math.sqrt(8.0 / ((n * n - n - 2) * (n * n - n - 4)))


def space_form_second_threshold_dim_form(n: int) -> float:
    """Second-kind space-form threshold as sqrt(12/((n^2+n-4)(n^2+n-8)))."""
    return math.sqrt(12.0 / ((n * n + n - 4) * (n * n + n - 8)))


def cpn_cohomology_threshold_inverse_form(n: int) -> float:
    """CP^n cohomology threshold through the generic inverse at target 3 - 2/n."""
    return epsilon_for_target_m(3.0 - 2.0 / n, n * n)


def random_curvature_tensor(n: int, seed: int = 0) -> CurvatureTensor:
    """Random tensor with all four identities, for stress tests.

    A Gaussian 4-array is (anti)symmetrized into the pair-symmetric space
    and the totally antisymmetric part removed, which projects exactly onto
    the kernel of the cyclic sum.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    g = rng.normal(size=(n, n, n, n))
    g = g - g.transpose(1, 0, 2, 3)
    g = g - g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    cyc = (g + g.transpose(0, 2, 3, 1) + g.transpose(0, 3, 1, 2)) / 3.0
    return CurvatureTensor.from_components(g - cyc)


def frame_change(tensor: CurvatureTensor, q: np.ndarray) -> CurvatureTensor:
    """``tensor``'s components in the rotated frame e'_a = sum_i q[i, a] e_i."""
    r = np.asarray(tensor.components, dtype=float).reshape((tensor.n,) * 4)
    rotated = np.einsum("ia,jb,kc,ld,ijkl->abcd", q, q, q, q, r, optimize=True)
    return CurvatureTensor.from_components(rotated)


def trace_free_basis(n: int) -> np.ndarray:
    """(N2, n, n) orthonormal basis of trace-free symmetric 2-tensors, dense.

    Off-diagonal elements (e_i e_j + e_j e_i)/sqrt(2) for i < j, followed by
    the Helmert diagonals diag(1, ..., 1, -k, 0, ..., 0)/sqrt(k(k+1)),
    k = 1..n-1: the basis that ``curvature.assemble_second_kind`` contracts
    with sparsely.
    """
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0 / math.sqrt(2.0)
            mats.append(m)
    for k, scale in enumerate(_helmert_scales(n), start=1):
        d = np.zeros(n)
        d[:k] = scale
        d[k] = -k * scale
        mats.append(np.diag(d))
    return np.stack(mats, axis=0)


def gram_on_tensor_basis(tensor, basis: np.ndarray) -> np.ndarray:
    """Gram matrix <R_bar(B_a), B_b> of the symmetric-tensor action by two
    dense ``einsum`` contractions, symmetrized; R_bar(h)_ij = sum_{k,l}
    R_iklj h_kl and the basis need not be trace-free."""
    r = np.asarray(tensor.components, dtype=float).reshape((tensor.n,) * 4)
    images = np.einsum("iklj,akl->aij", r, basis, optimize=True)
    mat = np.einsum("aij,bij->ab", images, basis, optimize=True)
    return (mat + mat.T) / 2.0


def full_symmetric_basis(n: int) -> np.ndarray:
    """Trace-free basis extended by the normalized identity (pure trace)."""
    return np.concatenate(
        [trace_free_basis(n), (np.eye(n) / math.sqrt(n))[None, :, :]], axis=0
    )


@functools.lru_cache(maxsize=32)
def round_robin_schedule(m: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Rounds of disjoint pairs ``(p, q)``, p < q, that cover every pair of
    ``range(m)`` exactly once, each as the tuple of its ``p`` and the tuple
    of their ``q`` partners.

    Circle method: index 0 stays put and the others move one place per round;
    for odd m a dummy index m pads the ring and its partner sits the round out.
    """
    size = m + m % 2
    ring = list(range(size))
    rounds = []
    for _ in range(size - 1):
        pairs = [
            (min(x, y), max(x, y)) for x, y in zip(ring[: size // 2], ring[::-1][: size // 2])
        ]
        pairs = [pair for pair in pairs if pair[1] < m]
        rounds.append((tuple(p for p, _ in pairs), tuple(q for _, q in pairs)))
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return tuple(rounds)


def cyclic_jacobi_eigenvalues(matrix, off_tol_factor: float = 1e-14) -> np.ndarray:
    """Ascending eigenvalues by one scalar Jacobi rotation per (p, q) pair.

    Sweeps visit the pairs in row-cyclic order, p < q; the angle formula and
    the stopping test are those of ``round_robin_jacobi_by_gathers``.
    """
    a = np.array(matrix, dtype=float)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    threshold = off_tol_factor * max(float(np.linalg.norm(a)), np.finfo(float).tiny)
    for _ in range(100):
        if np.linalg.norm(a - np.diag(a.diagonal())) <= threshold:
            return np.sort(a.diagonal())
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                h = a[q, q] - a[p, p]
                if abs(h) + 100.0 * abs(apq) == abs(h):
                    t = apq / h
                else:
                    theta = 0.5 * h / apq
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, -s], [s, c]])
                a[[p, q], :] = rot @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot.T
                a[p, q] = a[q, p] = 0.0
    raise RuntimeError("cyclic Jacobi did not converge within 100 sweeps")


def round_robin_jacobi_by_gathers(matrix) -> np.ndarray:
    """Ascending eigenvalues by round-robin Jacobi rotations (Brent & Luk),
    each round's rows and columns gathered and scattered by fancy indexing.

    The input checks and their error texts, the power-of-two scaling and
    the active rows are those of ``curvature._eigenvalues``.  A sweep
    visits every pair once, in rounds of disjoint pairs whose rotations are
    applied together (``round_robin_schedule``), and the solve stops once
    the off-diagonal norm (the fixed-order Frobenius norm of row sums) is
    at most ``1e-14 * ||A||_F``, or raises RuntimeError after 100 sweeps.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    w = a.diagonal().copy()
    exponent = int(np.frexp(np.abs(a).max())[1])
    a = np.ldexp(a, -exponent)
    a = (a + a.T) / 2.0

    def frobenius(x):
        return math.sqrt(np.add.reduce(np.add.reduce(x * x, axis=1)))

    fro = frobenius(a)
    threshold = 1e-14 * max(fro, np.finfo(float).tiny)
    active = np.flatnonzero((a != np.diag(a.diagonal())).any(axis=1))
    sub = a[np.ix_(active, active)]

    def off_norm(x):
        return frobenius(x - np.diag(x.diagonal()))

    for _ in range(100):
        if off_norm(sub) <= threshold:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for p, q in round_robin_schedule(active.size):
                p, q = np.array(p, dtype=np.intp), np.array(q, dtype=np.intp)
                apq = sub[p, q]
                h = sub[q, q] - sub[p, p]
                theta = 0.5 * h / apq
                t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                t = np.where(theta < 0.0, -t, t)
                t = np.where(np.abs(h) + 100.0 * np.abs(apq) == np.abs(h), apq / h, t)
                t = np.where(apq == 0.0, 0.0, t)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                cc, ss = c[:, None], s[:, None]
                row_p, row_q = sub[p], sub[q]
                sub[p] = cc * row_p - ss * row_q
                sub[q] = ss * row_p + cc * row_q
                col_p, col_q = sub[:, p], sub[:, q]
                sub[:, p] = col_p * c - col_q * s
                sub[:, q] = col_p * s + col_q * c
                sub[p, q] = 0.0
                sub[q, p] = 0.0
    else:
        raise RuntimeError(
            "Jacobi eigensolver did not converge within 100 sweeps "
            f"(off/||A||_F = {off_norm(sub) / fro:.3e})"
        )
    w[active] = np.ldexp(sub.diagonal(), exponent)
    return np.sort(w, kind="stable")


def tensor_fill_by_loop(entries: dict, n: int) -> np.ndarray:
    """Dense (n, n, n, n) components from canonical 1-based
    ``(i, j, k, l) -> value`` entries, written one symmetric component at a
    time (eight scalar writes per entry)."""
    comps = np.zeros((n, n, n, n))
    for (i, j, k, l), value in entries.items():
        a, b, c, d = i - 1, j - 1, k - 1, l - 1
        for (p, q, sp) in ((a, b, 1.0), (b, a, -1.0)):
            for (r, s, ss) in ((c, d, 1.0), (d, c, -1.0)):
                comps[p, q, r, s] = sp * ss * value
                comps[r, s, p, q] = sp * ss * value
    return comps


def nesting_check_full_chain(
    N: int, samples: int, seed: int, tol: float = DEFAULT_TOL
) -> NestingReport:
    """``cones.nesting_check`` with the full N-degree Garding chain of every
    sample, plain and shifted, held to Maclaurin's inequality and finiteness.

    Same seeded draws, same checks in the same order, same record.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    report = NestingReport(N=N, samples=samples, seed=seed, tol=tol)
    if samples == 0:
        return report
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    rows = rng.normal(size=(samples, N))
    alphas = rng.uniform(0.0, 1.0 / N, size=samples)
    m_pairs = np.sort(rng.uniform(1.0, N, size=(samples, 2)), axis=1)

    plain = garding_margin_chain_batch(rows, N)
    shifted = garding_margin_chain_batch(
        rows - alphas[:, None] * rows.sum(axis=1, keepdims=True), N
    )
    for label, margins in (("garding_chain", plain), ("shifted_chain", shifted)):
        bad = _breaks_maclaurin(margins, tol) | ~np.isfinite(margins).all(axis=1)
        for i in np.flatnonzero(bad):
            _add_violation(report, label, rows[i], {"margins": margins[i].tolist()})
        report.checks += margins.shape[0] * (N - 1)

    sorted_rows = np.sort(rows, axis=1)
    norms = np.linalg.norm(rows, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    p_margins = []
    for ms in m_pairs.T:
        weighted = partial_sum_weights(ms[:, None], N)
        weighted *= sorted_rows
        p_margins.append(weighted.sum(axis=1) / (ms * safe))
    m1_margin, m2_margin = p_margins
    bad = (
        ((m1_margin > tol) & ~(m2_margin > tol))
        | ((m1_margin >= -tol) & ~(m2_margin >= -tol))
        | ~(np.isfinite(m1_margin) & np.isfinite(m2_margin))
    )
    for i in np.flatnonzero(bad):
        _add_violation(
            report,
            "positivity_monotonicity",
            rows[i],
            {"m1": float(m_pairs[i, 0]), "m2": float(m_pairs[i, 1])},
        )
    report.checks += samples

    band = 10.0 * tol
    p1 = positivity_margins_batch(rows, 1.0)
    pn = positivity_margins_batch(rows, float(N))
    g1 = plain[:, 0]
    gn = plain[:, N - 1]
    for label, a, b in (("G_N=P_1", gn, p1), ("P_N=G_1", pn, g1)):
        clear = (np.abs(a) > band) & (np.abs(b) > band)
        bad = (clear & ((a > 0) != (b > 0))) | ~(np.isfinite(a) & np.isfinite(b))
        for i in np.flatnonzero(bad):
            _add_violation(
                report, label, rows[i], {"lhs_margin": float(a[i]), "rhs_margin": float(b[i])}
            )
        report.checks += samples
    return report


def verify_inclusion_sampling_unblocked(
    N: int,
    epsilon: float,
    samples: int,
    seed: int,
    method: str = "ball",
    tol: float = DEFAULT_TOL,
    keep_members: bool = False,
) -> InclusionReport:
    """``inclusion.verify_inclusion_sampling`` with membership and margins
    taken over each drawn batch whole rather than in row blocks.

    Same seeded draws (the ball rows from the library's own draw), same
    per-row kernels, same record and members; the arguments are assumed
    valid.
    """
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
    while report.accepted < samples and report.draws < hard_cap:
        if method == "ball":
            size = min(_MAX_BATCH, samples + report.draws - 2 * report.accepted)
            rows = _ball_slice_rows(rng, size, N, p.slice_radius)
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
    if keep_members:
        report.members = np.concatenate(kept, axis=0) if kept else np.empty((0, N))
    return report
