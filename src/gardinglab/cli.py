"""Command-line surface tying the cone, inclusion, curvature, and classifier
modules into reproducible runs.

Subcommands and exit codes:

* ``cone-test``: 0 open member, 1 closed-only, 2 non-member.
* ``verify-inclusion``: 0 iff the sampled inclusion check (and, when
  enabled, the boundary search) reports no violation.
* ``model-space``: writes an ordered spectrum; exits 3 when a
  scalar-curvature identity fails.
* ``classify``: 0 iff some verdict label was emitted, else 1.
* ``thresholds``: always 0.

Usage errors exit 64 and malformed input files exit 65.  Machine format
prints one self-describing JSON record per line with sorted keys, so equal
configurations and seeds reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import classify as _classify
from . import curvature as _curvature
from .cones import ShiftParams, in_positivity_cone, in_shifted_cone
from .config import RunConfig, load_config
from .inclusion import boundary_search, verify_inclusion_sampling
from .io import VectorParseError, format_vector, read_tensor_file, read_vector_file
from .symfun import SortedVector

EXIT_OK = 0
EXIT_CLOSED_ONLY = 1
EXIT_NON_MEMBER = 2
EXIT_NO_VERDICT = 1
EXIT_IDENTITY_FAILURE = 3
EXIT_USAGE = 64
EXIT_PARSE = 65


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 64 instead of 2."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _CliError(f"{self.prog}: {message}", EXIT_USAGE)


def _emit(config: RunConfig, record: dict, human: str) -> None:
    if config.output_format == "machine":
        print(json.dumps(record, sort_keys=True))
    else:
        print(human)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls.
    parser = _Parser(prog="gardinglab", description=__doc__.splitlines()[0])
    parser.add_argument("--tol", type=float, default=None, help="cone tolerance")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--samples", type=int, default=None, help="sample count")
    parser.add_argument(
        "--restarts", type=int, default=None, help="accepted for compatibility; unused"
    )
    parser.add_argument(
        "--format",
        choices=("human", "machine"),
        default=None,
        help="human tables or JSON lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cone = sub.add_parser("cone-test", help="membership of a vector in one cone")
    cone.add_argument("vector_file", help="file with one real vector")
    group = cone.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="Garding cone index")
    group.add_argument("--m", type=float, help="positivity cone index")
    shift_group = cone.add_mutually_exclusive_group()
    shift_group.add_argument("--alpha", type=float, help="shift weight in [0, 1/N)")
    shift_group.add_argument(
        "--epsilon", type=float, help="shift strength; alpha = (1 - epsilon)/N"
    )

    verify = sub.add_parser(
        "verify-inclusion", help="sampled check that shifted-cone members are m-positive"
    )
    verify.add_argument("--n", type=int, required=True, help="vector dimension")
    verify.add_argument("--epsilon", type=float, required=True)
    verify.add_argument(
        "--method",
        choices=("ball", "rejection"),
        default="ball",
        help="member generator: exact uniform draws in the cone slice, or "
        "Gaussian draws filtered by membership",
    )
    verify.add_argument(
        "--boundary-search",
        action="store_true",
        help="also minimize the partial sum over the cone boundary",
    )

    model = sub.add_parser("model-space", help="spectrum of a model-space operator")
    model.add_argument("kind", choices=("sphere", "product", "file"))
    model.add_argument("--n", type=int, help="dimension (sphere)")
    model.add_argument("--curvature", type=float, default=1.0, help="sectional value")
    model.add_argument("--p", type=int, help="first factor dimension (product)")
    model.add_argument("--q", type=int, help="second factor dimension (product)")
    model.add_argument("--tensor-file", help="component list (file kind)")
    model.add_argument(
        "--operator", choices=("first", "second"), default="first", help="operator kind"
    )
    model.add_argument("--out", help="write the spectrum CSV here instead of stdout")

    cls = sub.add_parser("classify", help="verdict labels for a spectrum file")
    cls.add_argument("spectrum_file")
    cls.add_argument("--dim", type=int, required=True, help="frame dimension")
    cls.add_argument(
        "--operator", choices=("first", "second", "kaehler"), required=True
    )
    cls.add_argument("--epsilon", type=float, required=True)

    thr = sub.add_parser("thresholds", help="per-dimension verdict thresholds")
    thr.add_argument("--n-min", type=int, default=3)
    thr.add_argument("--n-max", type=int, default=8)
    return parser


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_cone_test(args, config: RunConfig) -> int:
    vec = read_vector_file(args.vector_file)
    n = vec.size
    if args.k is not None:
        alpha = args.alpha or 0.0
        if args.epsilon is not None:
            if not 0.0 < args.epsilon < 1.0:
                raise _CliError("--epsilon must lie in (0, 1)", EXIT_USAGE)
            alpha = (1.0 - args.epsilon) / n
        membership = in_shifted_cone(vec, args.k, ShiftParams(alpha=alpha, N=n), config.tol)
        cone_desc = f"G_{args.k}(alpha={alpha:.12g})" if alpha else f"G_{args.k}"
    else:
        if args.alpha is not None or args.epsilon is not None:
            raise _CliError("--alpha/--epsilon apply to --k cones only", EXIT_USAGE)
        membership = in_positivity_cone(vec, args.m, config.tol)
        cone_desc = f"P_{args.m:g}"
    status = (
        "open member"
        if membership.member_open
        else "closed-boundary member"
        if membership.member_closed
        else "non-member"
    )
    record = {"record": "cone_test", "cone": cone_desc, "N": n, **membership.to_record()}
    _emit(
        config,
        record,
        f"{cone_desc}: {status} (margin {membership.margin:.6g}, "
        f"binding {membership.binding_constraint})",
    )
    if membership.member_open:
        return EXIT_OK
    if membership.member_closed:
        return EXIT_CLOSED_ONLY
    return EXIT_NON_MEMBER


def _cmd_verify_inclusion(args, config: RunConfig) -> int:
    report = verify_inclusion_sampling(
        N=args.n,
        epsilon=args.epsilon,
        samples=config.samples,
        seed=config.seed,
        method=args.method,
        tol=config.tol,
    )
    ok = report.ok
    _emit(
        config,
        report.to_record(),
        (
            f"inclusion N={report.N} eps={report.epsilon:.6g} m={report.m_eps:.6g}: "
            f"{report.accepted} members via {report.method_used}, "
            f"min margin {report.min_margin}, violations {report.violation_count}"
            + (", SHORTFALL" if report.shortfall else "")
        ),
    )
    if config.samples == 0:
        _emit(
            config,
            {"record": "note", "note": "no samples requested; vacuous pass"},
            "note: no samples requested; vacuous pass",
        )
    if args.boundary_search:
        bs = boundary_search(N=args.n, epsilon=args.epsilon, tol=config.tol)
        ok = ok and bs.ok
        _emit(
            config,
            bs.to_record(),
            (
                f"boundary search: min partial sum {bs.min_c0:.6g}, "
                f"converged {bs.converged}, rigid match {bs.matched_rigid}"
            ),
        )
    return EXIT_OK if ok else 1


def _model_tensor(args) -> _curvature.CurvatureTensor:
    if args.kind == "sphere":
        if args.n is None:
            raise _CliError("model-space sphere needs --n", EXIT_USAGE)
        return _curvature.model_space_form(args.n, args.curvature)
    if args.kind == "product":
        if args.p is None or args.q is None:
            raise _CliError("model-space product needs --p and --q", EXIT_USAGE)
        return _curvature.model_product_spheres(args.p, args.q)
    if args.tensor_file is None:
        raise _CliError("model-space file needs --tensor-file", EXIT_USAGE)
    return read_tensor_file(args.tensor_file)


def _cmd_model_space(args, config: RunConfig) -> int:
    tensor = _model_tensor(args)
    checks = _curvature.scalar_curvature_checks(tensor)
    kind = _curvature.KIND_FIRST if args.operator == "first" else _curvature.KIND_SECOND
    spectrum = checks.spectra[kind]
    csv = format_vector(spectrum.array)
    record = {
        "record": "model_space",
        "kind": args.kind,
        "operator": args.operator,
        "n": tensor.n,
        "identity": checks.to_record(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv + "\n")
        record["out"] = args.out
        human = (
            f"wrote {len(spectrum)} eigenvalues to {args.out}; "
            f"scalar-curvature identities ok={checks.ok}"
        )
    else:
        record["spectrum"] = [float(t) for t in spectrum.array]
        human = (
            f"{csv}\n# scalar curvature {checks.scalar_curvature!r}; identities "
            f"first_ok={checks.first_kind_ok} second_ok={checks.second_kind_ok}"
        )
    _emit(config, record, human)
    return EXIT_OK if checks.ok else EXIT_IDENTITY_FAILURE


def _cmd_classify(args, config: RunConfig) -> int:
    values = read_vector_file(args.spectrum_file)
    n = args.dim
    if args.operator == "first":
        expected = _curvature.two_form_count(n)
    elif args.operator == "second":
        expected = _curvature.trace_free_count(n)
    else:
        expected = n * n
    if values.size != expected:
        print(
            f"gardinglab: spectrum length {values.size} does not match the "
            f"{args.operator} operator in dimension {n} (expected {expected})",
            file=sys.stderr,
        )
        return EXIT_PARSE
    if args.operator == "kaehler":
        report = _classify.classify_kaehler(values, n, args.epsilon, config.tol)
    else:
        kind = (
            _curvature.KIND_FIRST if args.operator == "first" else _curvature.KIND_SECOND
        )
        spec = _curvature.Spectrum(
            eigenvalues=SortedVector.from_vector(values), kind=kind, n=n
        )
        if args.operator == "first":
            report = _classify.classify_first_kind(spec, args.epsilon, config.tol)
        else:
            report = _classify.classify_second_kind(spec, args.epsilon, config.tol)
    lines = [
        f"{args.operator} operator, n={n}, N={report.N}, eps={report.epsilon:.6g}: "
        f"member_open={report.membership.member_open} m_eps={report.m_eps:.6g}"
    ]
    for rng in report.betti_zero_ranges:
        lines.append(f"  betti zero: b_{rng.lo}..b_{rng.hi} [{rng.rule}]")
    for verdict in report.verdicts:
        lines.append(f"  verdict: {verdict.verdict} [{verdict.rule}] {verdict.inequality}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    _emit(config, report.to_record(), "\n".join(lines))
    return EXIT_OK if report.has_verdict else EXIT_NO_VERDICT


def _cmd_thresholds(args, config: RunConfig) -> int:
    if args.n_min < 2 or args.n_min > args.n_max:
        raise _CliError("need 2 <= n-min <= n-max", EXIT_USAGE)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        table = _classify.thresholds(n if n >= 3 else None, kaehler_complex_dim=n)
        rows.append(table)
        _emit(
            config,
            table.to_record(),
            (
                f"n={n}: space_form_first={_fmt_thr(table.space_form_first)} "
                f"space_form_second={_fmt_thr(table.space_form_second)} "
                f"cpn_cohomology={_fmt_thr(table.cpn_cohomology)} "
                f"cpn_biholomorphic={_fmt_thr(table.cpn_biholomorphic)}"
                + (f"  vacuous: {','.join(table.vacuous)}" if table.vacuous else "")
            ),
        )
    return EXIT_OK


def _fmt_thr(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}" + (" (vacuous)" if value >= 1.0 else "")


_HANDLERS = {
    "cone-test": _cmd_cone_test,
    "verify-inclusion": _cmd_verify_inclusion,
    "model-space": _cmd_model_space,
    "classify": _cmd_classify,
    "thresholds": _cmd_thresholds,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(
            {
                "tol": args.tol,
                "seed": args.seed,
                "samples": args.samples,
                "restarts": args.restarts,
                "output_format": args.format,
            }
        )
        return _HANDLERS[args.command](args, config)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except VectorParseError as exc:
        print(f"gardinglab: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"gardinglab: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, RuntimeError) as exc:
        print(f"gardinglab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
