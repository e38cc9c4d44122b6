"""Command line interface.

Subcommands:
  build-op      emit an operator matrix for the given spaces/symbol/parameters
  classify      membership and class reports for an operator (JSON in)
  product-test  run one named product criterion on a serialized instance
  clark         spectral points and weights of the unitary shift perturbation
  verify-suite  run the verification suite and report per-check results

Exit codes: 0 success, 1 verification failure, 2 usage errors.  A generator out
of range (a zero on or outside the circle, degree 0, or a degree above
harness.MAX_DEGREE) is a typed failure, exit 1, and so is a symbol above
harness.MAX_SYMBOL_DEGREE; both bounds are checked before anything is built.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import classify, harness, quadrature
from .blaschke import UNIMODULAR_TOL, ExtendedScalar, InnerFunction
from .errors import TruncOpsError
from .modelspace import project, tm_basis
from .operators import (
    clark_perturbation,
    clark_points,
    functional_calculus,
    sedlock_op,
    tho_matrix,
    tto_matrix,
)
from .ratfun import RationalSymbol


def parse_inner(text: str) -> InnerFunction:
    """Accept the z^n shorthand ("z2", "z^3") or InnerFunction JSON of degree <= MAX_DEGREE."""
    m = re.fullmatch(r"z\^?(\d+)", text.strip())
    if m is None:
        return harness.inner_from_json(json.loads(text))
    degree = harness.require_at_most("degree", int(m.group(1)), harness.MAX_DEGREE)
    return InnerFunction((0.0,) * degree, 1.0)


def parse_scalar(text: str):
    """Parse "re,im", "re", or "inf" into an extended scalar; a NaN or infinite part,
    or a third part, is a usage error."""
    text = text.strip()
    if text.lower() in ("inf", "infinity"):
        return ExtendedScalar.infinity()
    parts = [float(x) for x in text.split(",")]
    if len(parts) > 2 or not all(map(math.isfinite, parts)):
        raise ValueError(f"a scalar is re,im or re with finite parts, or inf; got {text!r}")
    if len(parts) == 1:
        return ExtendedScalar.finite(parts[0])
    return ExtendedScalar.finite(complex(parts[0], parts[1]))


def _finite(text: str, flag: str) -> complex:
    """The value of a scalar flag that cannot be infinity; inf is a usage error."""
    value = parse_scalar(text)
    if value.is_infinity:
        raise ValueError(f"{flag} needs a finite value, got {text!r}")
    return value.value


def _unimodular(text: str, flag: str) -> complex:
    """The value of a scalar flag that must lie on the unit circle; any other is a usage error."""
    value = parse_scalar(text)
    if value.is_infinity or abs(abs(value.value) - 1.0) > UNIMODULAR_TOL:
        raise ValueError(f"{flag} needs a unimodular value, got {text!r}")
    return value.value


def _positive(value: float | None, flag: str) -> float | None:
    """The value of a tolerance flag, if given; NaN, infinity or <= 0 is a usage error."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ValueError(f"{flag} needs a positive finite value, got {value}")
    return value


def parse_symbol(text: str) -> RationalSymbol:
    """Accept RationalSymbol JSON of Laurent degree <= MAX_SYMBOL_DEGREE."""
    return harness.symbol_from_json(json.loads(text))


def _decoded(flag: str, text: str, parse):
    """parse(text) for the text of a flag; JSON of the wrong shape or with a
    value of the wrong kind is a usage error naming it."""
    try:
        return parse(text)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{flag} is malformed: {type(exc).__name__}: {exc}") from None


def _emit(obj, as_json: bool, human: str | None = None):
    if as_json:
        print(json.dumps(obj, sort_keys=True, indent=1))
    else:
        print(human if human is not None else json.dumps(obj, sort_keys=True, indent=1))


# the flags each build-op kind reads; a missing one is a usage error
_BUILD_OP_NEEDS = {"tto": ("symbol",), "tho": ("symbol",), "clark-perturbation": ("alpha",),
                   "sedlock": ("symbol", "alpha"), "calculus": ("symbol", "alpha")}


def _cmd_build_op(args) -> int:
    missing = [f"--{k}" for k in _BUILD_OP_NEEDS.get(args.op, ()) if getattr(args, k) is None]
    if missing:
        raise ValueError(f"--op {args.op} needs {' and '.join(missing)}")
    u = _decoded("--u", args.u, parse_inner)
    # an empty value is parsed, and so is malformed, rather than taken as absent
    v = _decoded("--v", args.v, parse_inner) if args.v is not None else u
    sym = _decoded("--symbol", args.symbol, parse_symbol) if args.symbol is not None else None
    alpha = parse_scalar(args.alpha) if args.alpha is not None else None
    op = args.op
    if op == "tto":
        out = tto_matrix(u, v, sym)
    elif op == "tho":
        out = tho_matrix(u, v, sym)
    elif op == "shift":
        out = tm_basis(u).shift
    elif op == "shift-adj":
        out = tm_basis(u).shift_adjoint
    elif op == "clark-perturbation":
        out = clark_perturbation(u, _finite(args.alpha, "--alpha"))
    elif op == "involution":
        out = tm_basis(u).symmetric_involution
    elif op == "sedlock":
        phi = project(u, sym)
        c = _finite(args.c, "--c") if args.c is not None else 0.0
        out = sedlock_op(u, alpha, phi, c)
    elif op == "calculus":
        out = functional_calculus(u, alpha, sym)
    else:
        raise TruncOpsError(f"unknown operator kind {op!r}")
    _emit(out.to_json(), args.json,
          human="\n".join("  ".join(f"{z[0]:+.6f}{z[1]:+.6f}i" for z in row)
                          for row in out.to_json()["matrix"]))
    return 0


def _read_input(path: str) -> str:
    """The text of a file, or of standard input when the path is "-"."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _cmd_classify(args) -> int:
    tol = _positive(args.tol, "--tol")
    op = _decoded("--input", _read_input(args.input),
                  lambda text: harness.operator_from_json(json.loads(text)))
    reports = {}
    mt = classify.is_tto(op, tol)
    reports["is_tto"] = {"verdict": mt.is_member,
                         "displacement_residual": mt.displacement_residual,
                         "rebuild_residual": mt.rebuild_residual}
    mh = classify.is_tho(op, tol)
    reports["is_tho"] = {"verdict": mh.is_member,
                         "displacement_residual": mh.displacement_residual,
                         "rebuild_residual": mh.rebuild_residual}
    if mt.is_member and op.domain == op.codomain:
        reports["sedlock"] = classify.sedlock_class(op).to_json()
    _emit({"test": "classify", "reports": reports}, args.json,
          human="\n".join(f"{k}: {v}" for k, v in reports.items()))
    return 0


def _unknown_criteria(ids) -> bool:
    """Report the ids that name no registered check; True if there were any."""
    unknown = [cid for cid in ids if cid not in harness.CHECKS]
    for cid in unknown:
        print(f"unknown criterion {cid!r}; known: {', '.join(sorted(harness.CHECKS))}",
              file=sys.stderr)
    return bool(unknown)


def _cmd_product_test(args) -> int:
    if _unknown_criteria([args.theorem]):
        return 2
    problem = _decoded("--spec", _read_input(args.spec),
                       lambda text: harness.ProblemSpec.from_json(json.loads(text)))
    spaces = harness.CHECKS[args.theorem].constraints.get("spaces", 1)
    missing = [k for k, n in (("v", 2), ("w", 3)) if spaces >= n and getattr(problem, k) is None]
    if missing:
        raise ValueError(f"--spec lacks {' and '.join(missing)}, which {args.theorem} needs")
    problem.operation = args.theorem
    result = harness.run_trial(args.theorem, problem)
    payload = {
        "test": args.theorem,
        "verdict": bool(result.passed),
        "residuals": harness._sanitize(result.details),
        "error": result.error,
    }
    _emit(payload, args.json,
          human=f"{args.theorem}: {'PASS' if result.passed else 'FAIL'} "
                f"(residual {result.residual:.3g})")
    return 0 if result.passed else 1


def _cmd_clark(args) -> int:
    u = _decoded("--u", args.u, parse_inner)
    data = clark_points(u, _unimodular(args.alpha, "--alpha"))
    _emit(data.to_json(), args.json,
          human="\n".join(
              f"point {p.real:+.12f}{p.imag:+.12f}i  weight {w:.12f}"
              for p, w in zip(data.points, data.weights))
          + f"\norientation: {data.orientation()}")
    return 0


def _cmd_verify_suite(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if _unknown_criteria(args.theorem or ()):
        return 2
    tol = _positive(args.tol, "--tol")
    _positive(args.quad_tol, "--quad-tol")
    _positive(args.quad_cap, "--quad-cap")
    quad = None
    if args.quad_cap is not None or args.quad_tol is not None:
        quad = quadrature.QuadratureSettings(
            tol=quadrature.QUAD_TOL if args.quad_tol is None else args.quad_tol,
            cap=quadrature.QUAD_CAP if args.quad_cap is None else args.quad_cap,
        )
    cfg = harness.SuiteConfig(
        seed=args.seed, trials=args.trials,
        checks=args.theorem if args.theorem else None,
        tol=tol,
        quad=quad,
    )
    report = harness.run_suite(cfg)
    if args.json:
        sys.stdout.write(report.json_bytes().decode() + "\n")
    else:
        print(report.human_summary())
    return 0 if report.overall_pass else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="truncops",
        description="model-space truncated Toeplitz/Hankel operator toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-op", help="emit an operator matrix")
    b.add_argument("--op", required=True,
                   choices=["tto", "tho", "shift", "shift-adj",
                            "clark-perturbation", "involution", "sedlock", "calculus"])
    b.add_argument("--u", required=True, help="inner function (JSON or z^n shorthand)")
    b.add_argument("--v", help="codomain inner function (defaults to --u)")
    b.add_argument("--symbol", help="rational symbol JSON")
    b.add_argument("--alpha", help="parameter: re,im or inf")
    b.add_argument("--c", help="constant term for sedlock symbols")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_build_op)

    c = sub.add_parser("classify", help="membership and class reports")
    c.add_argument("--input", default="-", help="operator JSON file, - for stdin")
    c.add_argument("--tol", type=float, default=classify.MEMBERSHIP_TOL)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_classify)

    p = sub.add_parser("product-test", help="run one named criterion")
    p.add_argument("--theorem", required=True, help="criterion id (see verify-suite --list)")
    p.add_argument("--spec", default="-", help="ProblemSpec JSON file, - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_product_test)

    k = sub.add_parser("clark", help="spectral points/weights of the unitary perturbation")
    k.add_argument("--u", required=True)
    k.add_argument("--alpha", required=True, help="unimodular parameter re,im")
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=_cmd_clark)

    s = sub.add_parser("verify-suite", help="run the verification suite")
    s.add_argument("--seed", type=int, default=0,
                   help="suite seed; each trial's instance is drawn from it, the check id "
                        "and the trial index, so a fixed seed gives the same report (default 0)")
    s.add_argument("--trials", type=int, default=12,
                   help="trials per check (default 12); with 0 no check passes and the "
                        "suite fails")
    s.add_argument("--theorem", action="append",
                   help="restrict to this criterion id (repeatable)")
    s.add_argument("--tol", type=float,
                   help="override the main residual tolerance, which only these checks "
                        "have, with their defaults: "
                        + ", ".join(f"{cid} ({check.tol:g})"
                                    for cid, check in harness.CHECKS.items()
                                    if check.tol is not None))
    s.add_argument("--quad-tol", type=float, help="quadrature stopping tolerance")
    s.add_argument("--quad-cap", type=int, help="quadrature node cap")
    s.add_argument("--list", action="store_true", help="list criterion ids and exit")
    s.add_argument("--json", action="store_true",
                   help="print the report as JSON, byte-identical for a fixed seed and "
                        "settings, instead of the per-check summary")
    s.set_defaults(func=_cmd_verify_suite)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "list", False):
        for cid, check in sorted(harness.CHECKS.items()):
            print(f"{cid}: {check.description}")
        return 0
    try:
        return args.func(args)
    except TruncOpsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
