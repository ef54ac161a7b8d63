"""Command-line surface tying the cone, inclusion, curvature, and classifier
modules into reproducible runs.

Subcommands and exit codes:

* ``cone-test``: 0 open member, 1 closed-only, 2 non-member.
* ``verify-inclusion``: 0 iff the sampled inclusion check (and, when
  enabled, the boundary search) reports no violation.
* ``model-space``: writes an ordered spectrum; exits 3 when a
  scalar-curvature identity (a trace of an assembled operator) fails.
* ``classify``: 0 iff some verdict label was emitted, else 1.
* ``thresholds``: always 0.

Usage errors exit 64, and so does an input the library refuses with a
ValueError or RuntimeError, with its message: a non-finite curvature, a
tensor that breaks a curvature symmetry, or one whose scalar curvature,
operator assembly or operator trace overflows the float range.  An input
too large to allocate (a MemoryError, such as the n^4 components of a
tensor of dimension 1000) exits 64 too, with one line.  Input files
that are malformed, not UTF-8 or cannot be opened (and any other failed file
operation) exit 65.
Machine format prints one self-describing JSON record per line with sorted
keys, so equal configurations and seeds reproduce byte-identical output.

Start-up: the module level imports the standard library and ``config``
alone, and each handler imports what it runs when it is called, after its
usage checks.  Records are plain ``config.Record`` classes and only
``cones`` imports ``dataclasses`` (and so ``inspect``): ``thresholds``,
``model-space`` up to dimension 12 and every usage or parse error load
neither.  ``thresholds``, ``classify`` and every usage error run without
numpy, and so do ``cone-test`` with ``--m``, with ``--k`` up to
N*k = 1.8 million, and ``model-space`` up to dimension 12.  ``cone-test``
loads ``io`` and reads its vector file with ``io.read_vector_file``, a list
of Python floats, so a missing, malformed or non-finite file exits 65, and
only then loads ``cones`` and ``symfun``.  ``classify`` reads its file in
the same way, checks the spectrum length against ``tables.SPECTRUM_SIZES``,
so a spectrum of the wrong length exits 65 too, and builds one
``Spectrum`` of the sorted floats; it then loads ``classify``, ``cones``
and ``symfun`` and passes that spectrum to the classifier of its kind.
``model-space`` loads ``io``, ``tables``, ``curvature`` and ``symfun``:
its tensor, both operators and the identity checks run on Python floats
within that bound, and its eigensolve always does.  The
library takes its float path while numpy is not loaded, since numpy's
import costs more than the float work on these inputs saves:
``symfun._vector_entries`` decides it for a vector, and
``curvature._from_canonical``, through which every tensor source (the
sphere, the product and ``io``'s tensor file) is built, for a tensor and
all that follows from it.  Both paths run the same float operations in the
same order, so they give the same records.  Past N*k = 1.8 million a
``cone-test`` loads numpy, whose recurrence is faster there, and so does a
``model-space`` run past dimension 12 (``curvature._FLOAT_DIM``).
``verify-inclusion`` loads ``inclusion`` and numpy.  Handlers read library
functions from their modules at call time, so a wrapper set on a module
sees the call.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Optional, Sequence

from .config import RunConfig, VectorParseError, load_config

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
def _run_option_parser() -> _Parser:
    """The options that come before the subcommand, alone."""
    parser = _Parser(prog="gardinglab", add_help=False)
    parser.add_argument("--tol", type=float, default=None, help="cone tolerance")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--samples", type=int, default=None, help="sample count")
    parser.add_argument(
        "--format",
        choices=("human", "machine"),
        default=None,
        help="human tables or JSON lines",
    )
    return parser


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls.
    parser = _Parser(
        prog="gardinglab",
        description=__doc__.splitlines()[0],
        parents=[_run_option_parser()],
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
    from .io import read_vector_file

    vec = read_vector_file(args.vector_file)
    from .cones import ShiftParams, _resolvable_alpha, in_positivity_cone, in_shifted_cone

    n = len(vec)
    if args.k is not None:
        alpha = args.alpha or 0.0
        if args.epsilon is not None:
            if not 0.0 < args.epsilon < 1.0:
                raise _CliError("--epsilon must lie in (0, 1)", EXIT_USAGE)
            alpha = _resolvable_alpha(args.epsilon, n)
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
    from .inclusion import boundary_search, verify_inclusion_sampling

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


def _cmd_model_space(args, config: RunConfig) -> int:
    if args.kind == "sphere" and args.n is None:
        raise _CliError("model-space sphere needs --n", EXIT_USAGE)
    if args.kind == "product" and (args.p is None or args.q is None):
        raise _CliError("model-space product needs --p and --q", EXIT_USAGE)
    if args.kind == "file" and args.tensor_file is None:
        raise _CliError("model-space file needs --tensor-file", EXIT_USAGE)
    from . import curvature
    from .io import format_vector, read_tensor_file

    if args.kind == "sphere":
        tensor = curvature.model_space_form(args.n, args.curvature)
    elif args.kind == "product":
        tensor = curvature.model_product_spheres(args.p, args.q)
    else:
        tensor = read_tensor_file(args.tensor_file)
    first = args.operator == "first"
    assemble = curvature.assemble_first_kind if first else curvature.assemble_second_kind
    operator = assemble(tensor)
    checks = curvature.scalar_curvature_checks(tensor, operator)
    spectrum = curvature.eigen_spectrum(operator)
    csv = format_vector(spectrum.eigenvalues)
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
        record["spectrum"] = list(spectrum.eigenvalues)
        human = (
            f"{csv}\n# scalar curvature {checks.scalar_curvature!r}; identities "
            f"first_ok={checks.first_kind_ok} second_ok={checks.second_kind_ok}"
        )
    _emit(config, record, human)
    return EXIT_OK if checks.ok else EXIT_IDENTITY_FAILURE


def _cmd_classify(args, config: RunConfig) -> int:
    from .io import read_vector_file

    entries = read_vector_file(args.spectrum_file)
    from .tables import KIND_FIRST, KIND_KAEHLER, KIND_SECOND, SPECTRUM_SIZES, Spectrum

    n = args.dim
    kind = {"first": KIND_FIRST, "second": KIND_SECOND, "kaehler": KIND_KAEHLER}[args.operator]
    expected = SPECTRUM_SIZES[kind][0](n)
    if len(entries) != expected:
        print(
            f"gardinglab: spectrum length {len(entries)} does not match the "
            f"{args.operator} operator in dimension {n} (expected {expected})",
            file=sys.stderr,
        )
        return EXIT_PARSE
    spectrum = Spectrum(sorted(entries), kind, n)
    from . import classify

    classifier = {
        KIND_FIRST: classify.classify_first_kind,
        KIND_SECOND: classify.classify_second_kind,
        KIND_KAEHLER: classify.classify_kaehler,
    }[kind]
    report = classifier(spectrum, args.epsilon, config.tol)
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
    from .tables import thresholds

    for n in range(args.n_min, args.n_max + 1):
        table = thresholds(n if n >= 3 else None, kaehler_complex_dim=n)
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


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parsed arguments; a usage error names an unknown option before the
    subcommand.

    argparse sets such an option aside and takes the value after it for the
    subcommand, so ``--seeds 3 thresholds`` would fail as an invalid choice
    '3'.  On a failed parse the tokens before the first subcommand name are
    parsed against the run options alone, and if the first one left over is
    an option the error names it, as the same option after the subcommand
    is named.
    """
    try:
        return _build_parser().parse_args(argv)
    except _CliError:
        head = list(itertools.takewhile(lambda token: token not in _HANDLERS, argv))
        _, unknown = _run_option_parser().parse_known_args(head)
        if unknown and unknown[0].startswith("-"):
            _run_option_parser().error(f"unrecognized arguments: {' '.join(unknown)}")
        raise


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        config = load_config(
            {
                "tol": args.tol,
                "seed": args.seed,
                "samples": args.samples,
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
    except OSError as exc:
        print(f"gardinglab: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"gardinglab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
