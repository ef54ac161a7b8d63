"""The form-degree coefficients under their former module name.

``C_p(n) = S_p / Omega_p``, with ``S_p = (3/2) p (n-p)`` and ``Omega_p =
(n^2 p - n p^2 - 2np + 2n^2 + 2n - 4p) / (n (n+2))``, gates which
eigenvalue partial sums control which Betti-vanishing ranges.
``FormDegreeCoeffs``, ``form_degree_coeff`` and ``trace_free_count`` are
defined in ``tables``, which loads no numpy, and are re-exported here as
the same objects.

The module holds nothing else.  The capped weighted eigenvalue sums behind
the coefficients are a proof step, which no classifier rule, CLI run or
benchmark workload executes; their extremes and lower bounds are checked
on the greedy test oracles of ``tests/oracles.py``.  The file stays only
because the benchmark's tracer imports ``gardinglab.weighted`` (``MODULES``
in ``bench/tracing.py``): deleting it belongs to the tracer's repair
(ROADMAP.md, item 1), which takes that entry out of the tuple in the same
change.
"""

from .tables import FormDegreeCoeffs, form_degree_coeff, trace_free_count

__all__ = ["FormDegreeCoeffs", "form_degree_coeff", "trace_free_count"]
