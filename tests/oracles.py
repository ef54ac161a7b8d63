"""Brute-force oracles, kept independent of the library's algorithms.

Each oracle recomputes a quantity by direct enumeration or by elementary
projections so that library outputs are checked against a second route:
subset enumeration for symmetric polynomials and selection sums, basic
feasible solutions for the capped weighted-sum extremes, and a ball
projection for the boundary minimum of the partial sum.  The equivalent
closed forms of the verdict thresholds live here too.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from gardinglab.inclusion import epsilon_for_target_m


def sigma_subsets(values, k: int) -> float:
    """sigma_k by explicit enumeration of all k-subsets (N <= ~16)."""
    total = 0.0
    for combo in itertools.combinations(values, k):
        total += math.prod(combo)
    return total


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


def space_form_first_threshold_dim_form(n: int) -> float:
    """First-kind space-form threshold as sqrt(8/((n^2-n-2)(n^2-n-4)))."""
    return math.sqrt(8.0 / ((n * n - n - 2) * (n * n - n - 4)))


def space_form_second_threshold_dim_form(n: int) -> float:
    """Second-kind space-form threshold as sqrt(12/((n^2+n-4)(n^2+n-8)))."""
    return math.sqrt(12.0 / ((n * n + n - 4) * (n * n + n - 8)))


def cpn_cohomology_threshold_inverse_form(n: int) -> float:
    """CP^n cohomology threshold through the generic inverse at target 3 - 2/n."""
    return epsilon_for_target_m(3.0 - 2.0 / n, n * n)
