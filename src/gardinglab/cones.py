"""Membership tests, with signed margins, for the positivity cones.

Three cone families are covered:

* Garding cones ``G_k = {v : sigma_j(v) > 0 for j = 1..k}`` and their
  closures,
* shifted cones ``G_k(alpha) = {v : v - alpha*sum(v)*(1,..,1) in G_k}``,
* m-positivity cones ``P_m`` whose members have every fractional partial sum
  of ``floor(m)+1`` entries positive; for sorted vectors the binding
  selection is always the smallest entries.

Margins are normalized so that they do not depend on the scale of v, and
apart from the sampler's G_2 mask in ``inclusion`` this module is the one
place that normalizes them.  The G_k margin of ``v`` is the worst
elementary symmetric mean ``E_j(u) = sigma_j(u) / binom(N, j)`` of the
unit vector ``u = v / ||v||``, run through the recurrence of ``symfun``
with every running value in [-1, 1], so neither ``binom(N, j)`` nor
``||v||^j`` is ever formed.  The P_m margin is the partial sum divided by
``m * ||v||``.

One tolerance does not mean the same across dimensions at high degree:
``E_j`` of a unit vector is at most ``N^(-j/2)`` (reached on the diagonal),
so the G_k margin of a vector deep inside G_k can fall below ``tol``.
``in_garding_cone(np.ones(20), 20)`` has margin 9.77e-14 at sigma_20 and is
not an open member, though it is the barycentre of the positive cone.
A degree-homogeneous margin, such as ``E_j^(1/j)``, would change every
record and is not used.

The scalar tests take ``||v||`` from ``math.hypot``, which
neither overflows nor underflows short of a norm past the float maximum
(they raise ValueError there), so their margins hold at every scale at
which the entries, shifted entries and partial sums are finite normal
floats: tested over 1e-300..1e300 with N up to about 1000, where they
agree with the scale-1 margins within 1e-15 and a power-of-two scaling
changes no bit.  The P_m test runs on Python floats for every vector
(``symfun._as_floats``).  The G_k tests run on floats for vectors of up to
16 entries, and in a process that has not loaded numpy while N*k is at
most 1.8 million, and on numpy otherwise (``symfun._vector_entries``),
with the same bits: the shift's sum is correctly rounded (``symfun._fsum``)
and the recurrence does numpy's operations.  numpy is imported only by the array
paths, the batch kernels and the nesting checker, so ``classify`` and
``cone-test`` run without it up to that cap: below it numpy's import
costs more than the float work saves (see ``symfun``).  The shift maps live here too:
``ShiftParams`` and the closed forms of ``EpsilonParams`` (``epsilon_to_params``,
re-exported by ``inclusion``), which the classifier reads without loading
``inclusion`` and numpy.  The batch kernels take ``np.linalg.norm`` of rows
whose squares stay in float range, as the samplers' and the nesting
checker's rows do (the nesting checker is tested up to N = 2000).  The zero
vector is a closed member of every cone (it is the cone vertex) and an open
member of none.  Open membership requires ``margin > tol``; closed
membership requires ``margin >= -tol``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .config import DEFAULT_TOL, Record, _check_tol
from .symfun import (
    VectorLike,
    _as_floats,
    _fsum,
    _vector_entries,
    as_array,
    partial_sum_batch,
    partial_sum_weights,
    sigma_prefix,
    sigma_prefix_batch,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ConeMembership",
    "ShiftParams",
    "EpsilonParams",
    "epsilon_to_params",
    "shift",
    "in_garding_cone",
    "in_shifted_cone",
    "in_positivity_cone",
    "nesting_check",
    "NestingReport",
]


@dataclass(frozen=True)
class ConeMembership(Record):
    """Outcome of a cone test: flags, normalized margin, binding constraint."""

    member_open: bool
    member_closed: bool
    margin: float
    binding_constraint: str
    tol: float = DEFAULT_TOL


# A dataclass still, for ``bench/selftest.py``'s ``dataclasses.replace``.
ConeMembership._fields = tuple(ConeMembership.__dataclass_fields__)


class ShiftParams(Record, frozen=True):
    """Shift weight alpha in [0, 1/N) for vectors of length N."""

    def __init__(self, alpha: float, N: int) -> None:
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        if not 0.0 <= alpha < 1.0 / N:
            raise ValueError(f"alpha must lie in [0, 1/{N}), got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "N", N)


def _resolvable_alpha(epsilon: float, N: int) -> float:
    """The shift ``alpha = (1 - epsilon)/N``, refusing an eps too small for
    float64 at N: below about 5.6e-17 (1.7e-16 at N = 3) it rounds to
    ``1/N``, just outside ``ShiftParams``' range, whose message would name
    alpha instead of the eps given."""
    alpha = (1.0 - epsilon) / N
    if alpha == 1.0 / N:
        raise ValueError(
            f"epsilon {epsilon!r} is too small to resolve in float64 at N={N}: "
            f"the shift (1 - epsilon)/N rounds to 1/N"
        )
    return alpha


class EpsilonParams(Record, frozen=True):
    """(eps, alpha_eps, m_eps, N) bundle tying a shift to its positivity
    index, alpha_eps and m_eps from their closed forms.

    ``N`` is refused first, then an eps outside (0, 1), then an eps too
    small for float64 at N: below about 5.6e-17 (1.7e-16 at N = 3) the
    shift ``(1 - eps)/N`` rounds to ``1/N``, outside ``ShiftParams``' range:
    the cone slice degenerates, ``m_eps`` is lost in rounding (it is 0 once
    eps^2 underflows, below about 1e-162), the sampler finds no member and
    the boundary search cannot run.
    """

    _fields = ("epsilon", "N", "alpha_eps", "m_eps")

    def __init__(self, epsilon: float, N: int) -> None:
        epsilon = float(epsilon)
        if N < 2:
            raise ValueError(f"N must be >= 2, got {N}")
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        e2 = epsilon * epsilon
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "alpha_eps", _resolvable_alpha(epsilon, N))
        object.__setattr__(self, "m_eps", N * (N - 1) * e2 / (1.0 + (N - 1) * e2))

    @functools.cached_property
    def shift_params(self) -> ShiftParams:
        return ShiftParams(alpha=self.alpha_eps, N=self.N)

    @property
    def quadratic_coefficient(self) -> float:
        """q = (1 + (N-1) eps^2) / N, the coefficient in the ball identity."""
        return (1.0 + (self.N - 1) * (self.epsilon * self.epsilon)) / self.N

    @property
    def slice_radius(self) -> float:
        """Ball radius on the sum = 1 slice: eps * sqrt((N-1)/N)."""
        return self.epsilon * math.sqrt((self.N - 1) / self.N)


def epsilon_to_params(epsilon: float, N: int) -> EpsilonParams:
    """The ``EpsilonParams`` of eps at N, with its refusals."""
    return EpsilonParams(epsilon, N)


def _membership(margin: float, binding: str, tol: float) -> ConeMembership:
    _check_tol(tol)
    return ConeMembership(
        member_open=margin > tol,
        member_closed=margin >= -tol,
        margin=float(margin),
        binding_constraint=binding,
        tol=tol,
    )


def _shifted(x, p: ShiftParams):
    """``x - alpha * sum(x)`` of validated entries, Python floats or a float
    array, with the sum correctly rounded (``_fsum``) on both, so both give
    the same bits.  At alpha 0 a copy of x, unsummed: the unshifted test is
    defined where the sum is past the float range."""
    if len(x) != p.N:
        raise ValueError(f"vector length {len(x)} does not match N={p.N}")
    if not p.alpha:
        return x.copy()
    if isinstance(x, list):
        offset = p.alpha * _fsum(x, "entry sum")
        return [t - offset for t in x]
    return x - p.alpha * _fsum(x.tolist(), "entry sum")


def shift(v: VectorLike, p: ShiftParams) -> np.ndarray:
    """Subtract alpha times the coordinate sum from every coordinate."""
    return _shifted(as_array(v), p)


def _norm(x) -> float:
    """||x|| of Python floats or a float array by ``math.hypot``; raises
    where it is not a finite float, as for entries near the float maximum or
    a shift whose sum overflowed."""
    norm = math.hypot(*(x if isinstance(x, list) else x.tolist()))
    if not math.isfinite(norm):
        raise ValueError("vector norm is not a finite float")
    return norm


def _garding_membership(x, k: int, tol: float) -> ConeMembership:
    """G_k test of validated entries from ``_vector_entries``: the worst mean
    E_j of x / ||x||, on Python floats for a list and on numpy for an array."""
    n = len(x)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    norm = _norm(x)
    if norm == 0.0:
        return _membership(0.0, "zero_vector", tol)
    if isinstance(x, list):
        margins = sigma_prefix([t / norm for t in x], k, _means=True)
        j = margins.index(min(margins))
    else:
        margins = sigma_prefix(x / norm, k, _means=True)
        j = int(margins.argmin())
    return _membership(float(margins[j]), f"sigma_{j + 1}", tol)


def in_garding_cone(v: VectorLike, k: int, tol: float = DEFAULT_TOL) -> ConeMembership:
    """Test v against G_k; the margin is the worst normalized sigma_j."""
    return _garding_membership(_vector_entries(v, k), k, tol)


def in_shifted_cone(
    v: VectorLike, k: int, p: ShiftParams, tol: float = DEFAULT_TOL
) -> ConeMembership:
    """Test v against G_k(alpha): membership of the shifted vector in G_k."""
    return _garding_membership(_shifted(_vector_entries(v, k), p), k, tol)


def in_positivity_cone(v: VectorLike, m: float, tol: float = DEFAULT_TOL) -> ConeMembership:
    """Test v against P_m; sorting makes the smallest entries binding."""
    x = _as_floats(v)
    norm = _norm(x)
    if norm == 0.0:
        return _membership(0.0, "zero_vector", tol)
    c0 = partial_sum_batch(sorted(x), m)
    return _membership(_positivity_margin(c0, m, norm), f"partial_sum[m={m:g}]", tol)


def _positivity_margin(c0: float, m: float, norm: float) -> float:
    """The P_m margin ``c0 / (m * ||v||)``; raises where ``m * ||v||`` is
    past the float range, as ``_norm`` does where ``||v||`` is."""
    divisor = float(m) * norm
    if not math.isfinite(divisor):
        raise ValueError("m times the vector norm is not a finite float")
    return c0 / divisor


# ---------------------------------------------------------------------------
# Batch membership margins (used by the samplers and the nesting checker)
# ---------------------------------------------------------------------------


def garding_margin_chain_batch(rows: np.ndarray, k: int) -> np.ndarray:
    """(B, k) array whose column j-1 is the normalized G_j margin per row.

    Column j-1 equals ``min over i <= j of E_i(v / ||v||)``, i.e. the whole
    Garding chain in one pass; zero rows get margin 0.
    """
    import numpy as np

    rows = np.asarray(rows, dtype=float)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    units = rows / np.where(norms == 0.0, 1.0, norms)
    return np.minimum.accumulate(sigma_prefix_batch(units, k, _means=True), axis=1)


def positivity_margins_batch(rows: np.ndarray, m: float) -> np.ndarray:
    """Normalized P_m margins per row; zero rows get margin 0."""
    import numpy as np

    rows = np.asarray(rows, dtype=float)
    # The norms first: their (B, N) temporary is freed before the sort
    # allocates, which keeps large batches from holding both at once.
    norms = np.linalg.norm(rows, axis=1)
    return _sorted_positivity_margins(np.sort(rows, axis=1), norms, float(m))


def _sorted_positivity_margins(
    sorted_rows: np.ndarray, norms: np.ndarray, m: float | np.ndarray
) -> np.ndarray:
    """Normalized P_m margins of ascending rows with their norms given.

    ``m`` is one index for every row, or an array of one index per row,
    whose partial sums are dot products with ``partial_sum_weights``.  Zero
    rows get margin 0.
    """
    import numpy as np

    if np.ndim(m) == 0:
        c0 = partial_sum_batch(sorted_rows, m)
    else:
        weighted = partial_sum_weights(m[:, None], sorted_rows.shape[1])
        weighted *= sorted_rows
        c0 = weighted.sum(axis=1)
    zero = norms == 0.0
    out = c0 / (m * np.where(zero, 1.0, norms))
    out[zero] = 0.0
    return out


# ---------------------------------------------------------------------------
# Nesting chains
# ---------------------------------------------------------------------------


class NestingReport(Record):
    """Sampled verification of the cone nesting chains.

    ``ok`` is False as soon as one implication fails beyond tolerance; the
    first few offending samples are kept for diagnosis.  Equality checks
    (G_N = P_1 and P_N = G_1) count a mismatch only when both margins sit
    clear of the boundary band, since the two sides normalize differently.
    """

    record_tag = "nesting_check"

    def __init__(
        self, N: int, samples: int, seed: int, tol: float, checks: int = 0,
        violations: Optional[list] = None,
    ) -> None:
        self.N, self.samples, self.seed, self.tol, self.checks = N, samples, seed, tol, checks
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _add_violation(report: NestingReport, kind: str, row: np.ndarray, detail: dict) -> None:
    if len(report.violations) < 10:
        report.violations.append(
            {"kind": kind, "vector": [float(t) for t in row], **detail}
        )
    else:
        report.violations.append({"kind": kind})


def _breaks_maclaurin(chain: np.ndarray, tol: float) -> np.ndarray:
    """Rows where some ``chain_{j+1} > tol`` has a (j+1)-th root above the
    j-th root of ``chain_j`` by more than tol."""
    import numpy as np

    roots = np.maximum(chain, 0.0)
    roots **= 1.0 / np.arange(1, chain.shape[1] + 1)
    return ((chain[:, 1:] > tol) & ~(roots[:, 1:] <= roots[:, :-1] + tol)).any(axis=1)


def _chain_faults(chain: np.ndarray, tol: float) -> np.ndarray:
    """Rows of a Garding chain that break Maclaurin or hold a non-finite value."""
    import numpy as np

    return _breaks_maclaurin(chain, tol) | ~np.isfinite(chain).all(axis=1)


# Degrees of the Garding chain that nesting_check runs for every sample.
_CHAIN_HEAD = 8


def _check_garding_chain(
    report: NestingReport, label: str, chain_rows: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hold the Garding chain of ``chain_rows`` to Maclaurin's inequality and
    to finiteness; return its G_1 and G_N margins.

    Every row runs the first ``_CHAIN_HEAD`` degrees.  Only the deep rows
    run all N: those whose head ends at a margin that is not ``< 0`` (NaN
    included) or whose head is faulty.  Violations name the row of ``rows``.
    """
    import numpy as np

    n = rows.shape[1]
    head = garding_margin_chain_batch(chain_rows, min(_CHAIN_HEAD, n))
    deep = np.flatnonzero(~(head[:, -1] < 0.0) | _chain_faults(head, report.tol))
    gn = head[:, -1].copy()
    if head.shape[1] == n or not deep.size:
        chains = head[deep]
    else:
        chains = garding_margin_chain_batch(chain_rows[deep], n)
        gn[deep] = chains[:, -1]
    bad = _chain_faults(chains, report.tol)
    for i, margins in zip(deep[bad], chains[bad]):
        _add_violation(report, label, rows[i], {"margins": margins.tolist()})
    report.checks += rows.shape[0] * (n - 1)
    return head[:, 0], gn


def nesting_check(
    N: int, samples: int, seed: int, tol: float = DEFAULT_TOL
) -> NestingReport:
    """Sample random vectors and assert the nesting of all three families.

    Checked per sample: G_{k+1} subset of G_k (plain and with a random shift
    alpha in [0, 1/N)), P_{m1} subset of P_{m2} for random 1 <= m1 <= m2 <= N,
    and the endpoint identities G_N = P_1, P_N = G_1.  The chain margins are
    cumulative minima, so G_{k+1} subset of G_k holds for them by
    construction; what is checked instead is Maclaurin's inequality, which
    Newton's inequalities give inside G_{k+1}: there the normalized margins
    satisfy ``margin_{k+1}^(1/(k+1)) <= margin_k^(1/k)``.  A sample whose margins
    in a check are not all finite violates that check.  All per-sample draws
    come from one seeded stream in a fixed order, so the verdict does not
    depend on evaluation scheduling.

    Each chain stops early.  Every sample runs the recurrence for the first
    ``_CHAIN_HEAD`` degrees only; a sample runs all N degrees, and is held to
    both checks over its whole chain, only if its head ends at a margin that
    is not ``< 0`` (NaN included), breaks Maclaurin or holds a non-finite
    value.  The report is the one the full chains give, for three reasons:

    * past the head the chain of any other sample is a running minimum, so
      it stays ``<=`` the negative head-end margin, and every Maclaurin test
      needs a margin ``> tol``;
    * those later margins are finite, since ``|E_j(v/||v||)| <= 1``;
    * G_N = P_1 cannot fail for such a sample, whose G_N margin is taken
      from its head end: a P_1 margin ``> 0`` makes every entry positive,
      hence every E_j positive, and the sample would have run in full.
    """
    import numpy as np

    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    _check_tol(tol)
    report = NestingReport(N=N, samples=samples, seed=seed, tol=tol)
    if samples == 0:
        return report
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    rows = rng.normal(size=(samples, N))
    alphas = rng.uniform(0.0, 1.0 / N, size=samples)
    m_pairs = np.sort(rng.uniform(1.0, N, size=(samples, 2)), axis=1)

    # Garding chain margins, plain and with the random shift, held to
    # Maclaurin's inequality wherever the next cone is entered.
    g1, gn = _check_garding_chain(report, "garding_chain", rows, rows)
    _check_garding_chain(
        report,
        "shifted_chain",
        rows - alphas[:, None] * rows.sum(axis=1, keepdims=True),
        rows,
    )

    # P_m monotonicity on random pairs, one m-column at a time; the rows are
    # sorted and normed once for these and the endpoint identities.
    norms = np.linalg.norm(rows, axis=1)
    sorted_rows = np.sort(rows, axis=1)
    m1_margin, m2_margin = (
        _sorted_positivity_margins(sorted_rows, norms, ms) for ms in m_pairs.T
    )
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

    # Endpoint identities, compared outside the boundary band only.
    band = 10.0 * tol
    p1 = _sorted_positivity_margins(sorted_rows, norms, 1.0)
    pn = _sorted_positivity_margins(sorted_rows, norms, float(N))
    for label, a, b in (("G_N=P_1", gn, p1), ("P_N=G_1", pn, g1)):
        clear = (np.abs(a) > band) & (np.abs(b) > band)
        bad = (clear & ((a > 0) != (b > 0))) | ~(np.isfinite(a) & np.isfinite(b))
        for i in np.flatnonzero(bad):
            _add_violation(
                report, label, rows[i], {"lhs_margin": float(a[i]), "rhs_margin": float(b[i])}
            )
        report.checks += samples
    return report
