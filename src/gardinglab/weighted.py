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
they are re-exported here as the same objects.  A spectrum is read once,
as sorted Python floats (``symfun._sorted_entries``), and its sums are
correctly rounded (``symfun._fsum``), so a list and an array give the same
bits, a sum past the float range is refused by name, and this module
imports no numpy.
"""

from __future__ import annotations

import math
import numbers

from .config import DEFAULT_TOL, Record, _check_tol
from .symfun import VectorLike, _fsum, _in_range, _sorted_entries, partial_sum_batch
from .tables import FormDegreeCoeffs, form_degree_coeff, trace_free_count

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


class WeightBudget(Record, frozen=True):
    """Per-weight cap Omega, total weight S, and the number of weights N."""

    def __init__(self, Omega: float, S: float, N: int) -> None:
        if not Omega > 0:
            raise ValueError(f"Omega must be positive, got {Omega}")
        if Omega == math.inf:
            raise ValueError(f"Omega must be finite, got {Omega}")
        if not S > 0:
            raise ValueError(f"S must be positive, got {S}")
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        if S > N * Omega * (1.0 + 1e-12):
            raise ValueError(f"infeasible budget: S={S} exceeds N*Omega={N * Omega}")
        self.__dict__.update(Omega=Omega, S=S, N=N)


def _greedy_split(budget: WeightBudget) -> tuple[int, float]:
    """Number of fully capped weights and the leftover budget."""
    q = int(math.floor(budget.S / budget.Omega))
    q = min(q, budget.N)
    r = budget.S - q * budget.Omega
    if q == budget.N:
        r = 0.0
    return q, max(r, 0.0)


def _budget_entries(spectrum: VectorLike, budget: WeightBudget) -> list[float]:
    x = _sorted_entries(spectrum)
    if len(x) != budget.N:
        raise ValueError(f"spectrum length {len(x)} does not match N={budget.N}")
    return x


def _capped_sum(entries: list[float], budget: WeightBudget, name: str) -> float:
    """Omega times the correctly rounded sum of entries, refused by name."""
    return _in_range(budget.Omega * _fsum(entries, name), f"{name} times Omega")


def weighted_sup(spectrum: VectorLike, budget: WeightBudget) -> float:
    """Supremum of admissible weighted sums: cap the largest entries."""
    x = _budget_entries(spectrum, budget)
    q, r = _greedy_split(budget)
    n = len(x)
    total = _capped_sum(x[n - q :], budget, "sum of the capped entries")
    if q < n and r > 0.0:
        total = _in_range(total + r * x[n - q - 1], "weighted sum")
    return total


def weighted_inf(spectrum: VectorLike, budget: WeightBudget) -> float:
    """Infimum of admissible weighted sums: cap the smallest entries."""
    x = _budget_entries(spectrum, budget)
    q, r = _greedy_split(budget)
    total = _capped_sum(x[:q], budget, "sum of the capped entries")
    if q < len(x) and r > 0.0:
        total = _in_range(total + r * x[q], "weighted sum")
    return total


def anchored_lower_bound(spectrum: VectorLike, budget: WeightBudget, m: int) -> float:
    """(S - m*Omega) * v[m] + Omega * sum(v[:m]): a bound below every
    admissible weighted sum, anchored at integer index m.

    For ``m == N`` there is no (m+1)-th entry; the anchor term must vanish,
    which requires ``S == N * Omega``.
    """
    x = _budget_entries(spectrum, budget)
    n = len(x)
    if not (isinstance(m, numbers.Integral) and 1 <= m <= n):
        raise ValueError(f"m must be an integer in [1, {n}], got {m}")
    head = _capped_sum(x[:m], budget, "sum of the first m entries")
    rest = budget.S - m * budget.Omega
    if m == n:
        if abs(rest) > 1e-12 * max(1.0, budget.S):
            raise ValueError("m == N requires S == N * Omega")
        return head
    return _in_range(rest * x[m] + head, "anchored bound")


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
    return budget.S * (partial_sum_batch(x, ratio) / ratio)


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
    return _reaches_level(_sorted_entries(spectrum), m, level, tol)


def _reaches_level(x: list[float], m: float, level: float, tol: float) -> bool:
    """``positivity_at_level`` of sorted floats, with tol already checked."""
    lhs = partial_sum_batch(x, m)
    rhs = float(m) * float(level)
    return lhs >= rhs - tol * (1.0 + abs(rhs))


def _trace_free_entries(spectrum: VectorLike, n: int) -> list[float]:
    x = _sorted_entries(spectrum)
    if len(x) != trace_free_count(n):
        raise ValueError(
            f"spectrum length {len(x)} does not match (n-1)(n+2)/2 = {trace_free_count(n)}"
        )
    return x


def form_degree_positivity(
    spectrum: VectorLike, n: int, p: int, kappa: float, tol: float = DEFAULT_TOL
) -> bool:
    """C_p-level positivity test for a trace-free-operator spectrum."""
    x = _trace_free_entries(spectrum, n)
    coeff = form_degree_coeff(n, p).coeff
    _check_tol(tol)
    return _reaches_level(x, coeff, kappa, tol)


def bulk_positivity(
    spectrum: VectorLike, n: int, kappa: float, tol: float = DEFAULT_TOL
) -> bool:
    """3n/4-level positivity test for a trace-free-operator spectrum."""
    x = _trace_free_entries(spectrum, n)
    _check_tol(tol)
    return _reaches_level(x, 3.0 * n / 4.0, kappa, tol)
