"""Extremal weighted eigenvalue sums under a per-weight cap and total budget.

An admissible weight vector has ``0 <= w_i <= Omega`` and ``sum(w_i) = S``
with ``S <= N * Omega``.  Over a sorted spectrum the extremal weighted sums
are attained greedily: the supremum loads the cap onto the largest entries,
the infimum onto the smallest, with the leftover budget ``S - floor(S/Omega)
* Omega`` on the next entry.  Both extremes are exposed because the lower
bounds below hold for *every* admissible weighted sum, i.e. they bound the
infimum (and hence trivially the supremum):

* ``anchored_lower_bound(v, budget, m) = (S - m*Omega) v[m] + Omega *
  sum(v[:m])`` for any integer ``1 <= m <= N``;
* ``budget_normalized_bound(v, budget) = S * normalized_partial_sum(v,
  S/Omega)``, which by the greedy form equals the infimum exactly.

The form-degree coefficients ``C_p(n) = S_p / Omega_p`` with ``S_p =
(3/2) p (n-p)`` and ``Omega_p = (n^2 p - n p^2 - 2np + 2n^2 + 2n - 4p) /
(n (n+2))`` gate which eigenvalue partial sums control which vanishing
ranges; they increase in p, with ``C_1 <= 3n/4 < C_2`` for every n >= 3.
``FormDegreeCoeffs`` and ``form_degree_coeff`` are defined in ``tables``,
which loads no numpy, so the classifier reads them without this module;
they are re-exported here as the same objects.  numpy is imported inside
the one function that names it, so importing this module loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import DEFAULT_TOL, _check_tol
from .symfun import (
    VectorLike,
    _sorted_entries,
    normalized_partial_sum,
    partial_sum_fractional,
)
from .tables import FormDegreeCoeffs, form_degree_coeff, trace_free_count

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "WeightBudget",
    "FormDegreeCoeffs",
    "weighted_sup",
    "weighted_inf",
    "anchored_lower_bound",
    "budget_normalized_bound",
    "form_degree_coeff",
    "refined_one_form_coeff",
    "positivity_at_level",
    "form_degree_positivity",
    "bulk_positivity",
    "trace_free_count",
]


@dataclass(frozen=True)
class WeightBudget:
    """Per-weight cap Omega, total weight S, and the number of weights N."""

    Omega: float
    S: float
    N: int

    def __post_init__(self) -> None:
        if not self.Omega > 0:
            raise ValueError(f"Omega must be positive, got {self.Omega}")
        if not self.S > 0:
            raise ValueError(f"S must be positive, got {self.S}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.S > self.N * self.Omega * (1.0 + 1e-12):
            raise ValueError(
                f"infeasible budget: S={self.S} exceeds N*Omega={self.N * self.Omega}"
            )


def _greedy_split(budget: WeightBudget) -> tuple[int, float]:
    """Number of fully capped weights and the leftover budget."""
    q = int(math.floor(budget.S / budget.Omega))
    q = min(q, budget.N)
    r = budget.S - q * budget.Omega
    if q == budget.N:
        r = 0.0
    return q, max(r, 0.0)


def _budget_entries(spectrum: VectorLike, budget: WeightBudget) -> np.ndarray:
    x = _sorted_entries(spectrum)
    if x.size != budget.N:
        raise ValueError(f"spectrum length {x.size} does not match N={budget.N}")
    return x


def weighted_sup(spectrum: VectorLike, budget: WeightBudget) -> float:
    """Supremum of admissible weighted sums: cap the largest entries."""
    x = _budget_entries(spectrum, budget)
    q, r = _greedy_split(budget)
    total = budget.Omega * float(x[x.size - q :].sum())
    if q < x.size and r > 0.0:
        total += r * float(x[x.size - q - 1])
    return total


def weighted_inf(spectrum: VectorLike, budget: WeightBudget) -> float:
    """Infimum of admissible weighted sums: cap the smallest entries."""
    x = _budget_entries(spectrum, budget)
    q, r = _greedy_split(budget)
    total = budget.Omega * float(x[:q].sum())
    if q < x.size and r > 0.0:
        total += r * float(x[q])
    return total


def anchored_lower_bound(spectrum: VectorLike, budget: WeightBudget, m: int) -> float:
    """(S - m*Omega) * v[m] + Omega * sum(v[:m]): a bound below every
    admissible weighted sum, anchored at integer index m.

    For ``m == N`` there is no (m+1)-th entry; the anchor term must vanish,
    which requires ``S == N * Omega``.
    """
    import numpy as np

    x = _budget_entries(spectrum, budget)
    n = x.size
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= n):
        raise ValueError(f"m must be an integer in [1, {n}], got {m}")
    head = budget.Omega * float(x[:m].sum())
    rest = budget.S - m * budget.Omega
    if m == n:
        if abs(rest) > 1e-12 * max(1.0, budget.S):
            raise ValueError("m == N requires S == N * Omega")
        return head
    return rest * float(x[m]) + head


def budget_normalized_bound(spectrum: VectorLike, budget: WeightBudget) -> float:
    """S times the normalized partial sum at S/Omega.

    Requires ``1 <= S/Omega <= N``.  Equals the infimum of the admissible
    weighted sums exactly (rescale the cap to 1, then apply the greedy form).
    """
    x = _budget_entries(spectrum, budget)
    ratio = budget.S / budget.Omega
    if ratio < 1.0 - 1e-12:
        raise ValueError(f"S/Omega must be >= 1, got {ratio}")
    ratio = max(ratio, 1.0)
    return budget.S * normalized_partial_sum(x, ratio)


def refined_one_form_coeff(n: int) -> float:
    """Sharper degree-one coefficient (3(n-1)/2) * (n+2)/(2n-1); >= 3n/4."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return (3.0 * (n - 1) / 2.0) * (n + 2) / (2 * n - 1)


def positivity_at_level(
    spectrum: VectorLike, m: float, level: float, tol: float = DEFAULT_TOL
) -> bool:
    """Whether the fractional partial sum at m reaches m * level.

    The comparison allows a tol-scaled slack so that constant spectra, where
    equality holds identically, evaluate True.
    """
    _check_tol(tol)
    x = _sorted_entries(spectrum)
    lhs = partial_sum_fractional(x, m)
    rhs = float(m) * float(level)
    return lhs >= rhs - tol * (1.0 + abs(rhs))


def _trace_free_entries(spectrum: VectorLike, n: int) -> np.ndarray:
    x = _sorted_entries(spectrum)
    if x.size != trace_free_count(n):
        raise ValueError(
            f"spectrum length {x.size} does not match (n-1)(n+2)/2 = {trace_free_count(n)}"
        )
    return x


def form_degree_positivity(
    spectrum: VectorLike, n: int, p: int, kappa: float, tol: float = DEFAULT_TOL
) -> bool:
    """C_p-level positivity test for a trace-free-operator spectrum."""
    x = _trace_free_entries(spectrum, n)
    return positivity_at_level(x, form_degree_coeff(n, p).coeff, kappa, tol)


def bulk_positivity(
    spectrum: VectorLike, n: int, kappa: float, tol: float = DEFAULT_TOL
) -> bool:
    """3n/4-level positivity test for a trace-free-operator spectrum."""
    x = _trace_free_entries(spectrum, n)
    return positivity_at_level(x, 3.0 * n / 4.0, kappa, tol)
