"""Spans and counters recorded from outside gardinglab by wrapping its functions.

``Tracer.install`` replaces every public function defined in a gardinglab
module, in every gardinglab namespace that holds it (``gardinglab.cli``
imports ``verify_inclusion_sampling``, ``gardinglab.classify`` imports
``in_shifted_cone``, ...), with a wrapper that records a span: name, start,
end, parent span and job id.  Private helpers are not wrapped, so their time
counts toward the public caller.  Counters are read from what the wrapped
calls return and from their arguments.  ``Tracer.uninstall`` restores the
original functions, so untraced passes run the program unmodified.

Run as a script, this module is the bootstrap of a traced CLI subprocess::

    python bench/tracing.py SPANS.json -- <gardinglab cli arguments>

It installs the wrappers, runs ``gardinglab.cli.main`` on the arguments,
writes its spans and counters to ``SPANS.json`` and exits with the CLI's
exit code.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import statistics
import sys
import time

MODULES = (
    "symfun",
    "cones",
    "inclusion",
    "weighted",
    "curvature",
    "classify",
    "io",
    "config",
    "cli",
)

# Function groups whose self time is reported as one layer metric.
GROUPS = {
    "symfun.sigma": ("symfun.sigma_prefix", "symfun.sigma_prefix_batch", "symfun.elementary_symmetric"),
    "symfun.partial_sum": (
        "symfun.partial_sum_fractional",
        "symfun.partial_sum_batch",
        "symfun.normalized_partial_sum",
    ),
    "cones.batch": (
        "cones.garding_margin_chain_batch",
        "cones.garding_margins_batch",
        "cones.positivity_margins_batch",
    ),
    "inclusion.sample": ("inclusion.verify_inclusion_sampling",),
    "inclusion.boundary": ("inclusion.boundary_search",),
    "curvature.jacobi": ("curvature.jacobi_eigensystem", "curvature.eigen_spectrum"),
    "curvature.build": (
        "curvature.model_space_form",
        "curvature.model_product_spheres",
        "curvature.random_curvature_tensor",
        "curvature.validate_curvature_symmetries",
    ),
    "curvature.assemble": (
        "curvature.assemble_first_kind",
        "curvature.assemble_second_kind",
        "curvature.assemble_on_tensor_basis",
        "curvature.trace_free_basis",
        "curvature.full_symmetric_basis",
    ),
    "curvature.identity": ("curvature.scalar_curvature_checks",),
}
SCALAR_CONE_CALLS = ("cones.in_garding_cone", "cones.in_shifted_cone", "cones.in_positivity_cone")
CLI_SUBCOMMANDS = ("cone-test", "verify-inclusion", "model-space", "classify", "thresholds")


def _rows(args, kwargs) -> int:
    rows = args[0] if args else next(iter(kwargs.values()))
    shape = getattr(rows, "shape", None)
    return int(shape[0]) if shape else 1


def _nonfinite_rows(result) -> int:
    import numpy as np

    bad = ~np.isfinite(np.asarray(result, dtype=float))
    return int(bad.any(axis=1).sum()) if bad.ndim == 2 else int(bad.sum())


def _count_sigma_row(c, args, kwargs, result, job):
    c["symfun.sigma.rows"] += 1


def _count_sigma_batch(c, args, kwargs, result, job):
    c["symfun.sigma.rows"] += _rows(args, kwargs)


def _count_batch(c, args, kwargs, result, job):
    c["cones.batch.rows"] += _rows(args, kwargs)
    c["cones.nonfinite_margins"] += _nonfinite_rows(result)


def _count_scalar(c, args, kwargs, result, job):
    c["cones.nonfinite_margins"] += 0 if math.isfinite(result.margin) else 1


def _count_sampling(c, args, kwargs, result, job):
    c["inclusion.sample.draws"] += result.draws
    c["inclusion.sample.accepted"] += result.accepted
    c["inclusion.sample.jobs"] += 1
    c["inclusion.sample.rejection_jobs"] += result.method_used == "rejection"


def _count_boundary(c, args, kwargs, result, job):
    c["inclusion.boundary.iterations_cap"] += result.iterations
    c["inclusion.boundary.restarts"] += result.restarts
    c["inclusion.boundary.restarts_converged"] += result.restarts_converged


def _count_jacobi(c, args, kwargs, result, job):
    import numpy as np

    matrix = np.ascontiguousarray(args[0] if args else kwargs["matrix"], dtype=float)
    c["curvature.jacobi.matrix_dim_sum"] += matrix.shape[0]
    # Distinct matrices are counted per job: the same matrix diagonalized
    # twice within one job is repeated work.
    c[f"jacobi_matrix:{job}:{hashlib.sha256(matrix.tobytes()).hexdigest()[:16]}"] = 1


def _count_verdicts(c, args, kwargs, result, job):
    c["classify.verdicts"] += sum(v.verdict != "none" for v in result.verdicts)


def _count_file_bytes(c, args, kwargs, result, job):
    c["io.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_text_bytes(c, args, kwargs, result, job):
    c["io.bytes"] += len(result)


HOOKS = {
    "symfun.sigma_prefix": _count_sigma_row,
    "symfun.sigma_prefix_batch": _count_sigma_batch,
    "cones.garding_margin_chain_batch": _count_batch,
    "cones.positivity_margins_batch": _count_batch,
    "cones.in_garding_cone": _count_scalar,
    "cones.in_positivity_cone": _count_scalar,
    "inclusion.verify_inclusion_sampling": _count_sampling,
    "inclusion.boundary_search": _count_boundary,
    "curvature.jacobi_eigensystem": _count_jacobi,
    "classify.classify_first_kind": _count_verdicts,
    "classify.classify_second_kind": _count_verdicts,
    "classify.classify_kaehler": _count_verdicts,
    "io.read_vector_file": _count_file_bytes,
    "io.read_tensor_file": _count_file_bytes,
    "io.format_vector": _count_text_bytes,
}


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it.

    A span is ``[name, start, end, parent_index, job_id]`` on the
    ``time.perf_counter`` clock, which on Linux is the system-wide monotonic
    clock, so spans written by traced subprocesses merge directly.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self.job = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        import gardinglab

        namespaces = [gardinglab] + [
            importlib.import_module(f"gardinglab.{name}") for name in MODULES
        ]
        wrappers: dict = {}
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("gardinglab."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(module, attr, wrappers[obj])
                self._installed.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._installed):
            setattr(module, attr, obj)
        self._installed.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        hook = HOOKS.get(name)
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result, self.job)
            return result

        return traced

    # -- job spans and subprocess spans ---------------------------------

    def open_job(self, job_id: int, group: str) -> int:
        self.job = job_id
        index = len(self.spans)
        self.spans.append([f"job.{group}", time.perf_counter(), 0.0, -1, job_id])
        self._stack.append(index)
        return index

    def close_job(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self.job = None

    def merge_child(self, path: str, parent: int) -> None:
        """Add the spans and counters a traced subprocess wrote to ``path``."""
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        offset = len(self.spans)
        for name, start, end, par, _ in child["spans"]:
            self.spans.append([name, start, end, parent if par < 0 else par + offset, self.job])
        self.counters.update(child["counters"])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counters, passes: int, job_latencies: dict) -> dict:
    """Per-layer values per traced pass, as ``{name: (value, unit)}``.

    ``job_latencies`` maps a job group (a CLI subcommand, for instance) to
    the fastest untraced latency of each of its jobs.  Ratios whose base is
    zero on a workload read 0.
    """
    own = self_times(spans)
    by_name: dict = collections.defaultdict(float)
    module_self: dict = collections.defaultdict(float)
    calls: dict = collections.Counter()
    for span, t in zip(spans, own):
        by_name[span[0]] += t
        module_self[span[0].split(".", 1)[0]] += t
        calls[span[0]] += 1

    def group_self(group):
        return sum(by_name[n] for n in GROUPS[group]) / passes

    def inclusive(names, top_only=False):
        total, count = 0.0, 0
        for name, start, end, parent, _ in spans:
            if name in names and not (top_only and parent >= 0 and spans[parent][0] in names):
                total += end - start
                count += 1
        return total, count

    def ratio(a, b):
        return a / b if b else 0.0

    c = counters
    scalar_s, scalar_n = inclusive(SCALAR_CONE_CALLS, top_only=True)
    dich_s, dich_n = inclusive(("inclusion.dichotomy_check",))
    sample_s, _ = inclusive(("inclusion.verify_inclusion_sampling",))
    jacobi_calls = calls["curvature.jacobi_eigensystem"]
    distinct = sum(1 for key in c if key.startswith("jacobi_matrix:"))
    m = {
        "symfun.sigma.self_s": (group_self("symfun.sigma"), "s"),
        "symfun.sigma.rows": (c["symfun.sigma.rows"] / passes, "count"),
        "symfun.partial_sum.self_s": (group_self("symfun.partial_sum"), "s"),
        "cones.batch.self_s": (group_self("cones.batch"), "s"),
        "cones.batch.rows": (c["cones.batch.rows"] / passes, "count"),
        "cones.scalar.calls": (sum(calls[n] for n in SCALAR_CONE_CALLS) / passes, "count"),
        "cones.scalar.us_per_call": (1e6 * ratio(scalar_s, scalar_n), "us"),
        "cones.nonfinite_margins": (c["cones.nonfinite_margins"] / passes, "count"),
        "inclusion.sample.self_s": (group_self("inclusion.sample"), "s"),
        "inclusion.sample.draws": (c["inclusion.sample.draws"] / passes, "count"),
        "inclusion.sample.accepted": (c["inclusion.sample.accepted"] / passes, "count"),
        "inclusion.sample.accept_ratio": (
            ratio(c["inclusion.sample.accepted"], c["inclusion.sample.draws"]),
            "ratio",
        ),
        "inclusion.sample.rejection_share": (
            ratio(c["inclusion.sample.rejection_jobs"], c["inclusion.sample.jobs"]),
            "ratio",
        ),
        "inclusion.sample.members_per_s": (
            ratio(c["inclusion.sample.accepted"], sample_s),
            "1/s",
        ),
        "inclusion.boundary.self_s": (group_self("inclusion.boundary"), "s"),
        "inclusion.boundary.iterations_cap": (
            c["inclusion.boundary.iterations_cap"] / passes,
            "count",
        ),
        "inclusion.boundary.converged_ratio": (
            ratio(c["inclusion.boundary.restarts_converged"], c["inclusion.boundary.restarts"]),
            "ratio",
        ),
        "inclusion.dichotomy.us_per_call": (1e6 * ratio(dich_s, dich_n), "us"),
        "curvature.jacobi.self_s": (group_self("curvature.jacobi"), "s"),
        "curvature.jacobi.calls": (jacobi_calls / passes, "count"),
        "curvature.jacobi.matrix_dim_sum": (c["curvature.jacobi.matrix_dim_sum"] / passes, "count"),
        "curvature.jacobi.calls_per_distinct_matrix": (
            ratio(jacobi_calls, distinct * passes),
            "ratio",
        ),
        "curvature.build.self_s": (group_self("curvature.build"), "s"),
        "curvature.assemble.self_s": (group_self("curvature.assemble"), "s"),
        "curvature.identity.self_s": (group_self("curvature.identity"), "s"),
        "classify.self_s": (module_self["classify"] / passes, "s"),
        "classify.verdicts": (c["classify.verdicts"] / passes, "count"),
        "weighted.self_s": (module_self["weighted"] / passes, "s"),
        "io.self_s": (module_self["io"] / passes, "s"),
        "io.bytes": (c["io.bytes"] / passes, "bytes"),
    }
    for sub in CLI_SUBCOMMANDS:
        lat = job_latencies.get(sub, [])
        m[f"cli.{sub}.p50_ms"] = (1e3 * statistics.median(lat) if lat else 0.0, "ms")
    return m


def _child_main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- <cli arguments>")
    from gardinglab import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
