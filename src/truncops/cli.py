"""Command line interface.

Subcommands:
  build-op      emit an operator matrix for the given spaces/symbol/parameters
  classify      membership and class reports for an operator (JSON in)
  product-test  run one named product criterion on a serialized instance
  clark         spectral points and weights of the unitary shift perturbation
  verify-suite  run the verification suite and report per-check results

Exit codes: 0 success, 1 verification failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import classify, harness, quadrature
from .blaschke import ExtendedScalar, InnerFunction, clark_points
from .errors import TruncOpsError
from .modelspace import OperatorMatrix, project
from .operators import (
    clark_perturbation,
    functional_calculus,
    sedlock_op,
    shift,
    shift_adj,
    symmetric_involution,
    tho_matrix,
    tto_matrix,
)
from .ratfun import RationalSymbol


def parse_inner(text: str) -> InnerFunction:
    """Accept the z^n shorthand ("z2", "z^3") or InnerFunction JSON."""
    m = re.fullmatch(r"z\^?(\d+)", text.strip())
    if m:
        return InnerFunction((0.0,) * int(m.group(1)), 1.0)
    return InnerFunction.from_json(json.loads(text))


def parse_scalar(text: str):
    """Parse "re,im", "re", or "inf" into an extended scalar."""
    text = text.strip()
    if text.lower() in ("inf", "infinity"):
        return ExtendedScalar.infinity()
    parts = [float(x) for x in text.split(",")]
    if len(parts) == 1:
        return ExtendedScalar.finite(parts[0])
    return ExtendedScalar.finite(complex(parts[0], parts[1]))


def parse_symbol(text: str) -> RationalSymbol:
    return RationalSymbol.from_json(json.loads(text))


def _emit(obj, as_json: bool, human: str | None = None):
    if as_json:
        print(json.dumps(obj, sort_keys=True, indent=1))
    else:
        print(human if human is not None else json.dumps(obj, sort_keys=True, indent=1))


def _cmd_build_op(args) -> int:
    u = parse_inner(args.u)
    v = parse_inner(args.v) if args.v else u
    sym = parse_symbol(args.symbol) if args.symbol else None
    alpha = parse_scalar(args.alpha) if args.alpha else None
    op = args.op
    if op == "tto":
        out = tto_matrix(u, v, sym)
    elif op == "tho":
        out = tho_matrix(u, v, sym)
    elif op == "shift":
        out = shift(u)
    elif op == "shift-adj":
        out = shift_adj(u)
    elif op == "clark-perturbation":
        out = clark_perturbation(u, alpha.value)
    elif op == "involution":
        out = symmetric_involution(u)
    elif op == "sedlock":
        phi = project(u, sym)
        c = parse_scalar(args.c).value if args.c else 0.0
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
    raw = _read_input(args.input)
    op = OperatorMatrix.from_json(json.loads(raw))
    tol = args.tol
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


def _cmd_product_test(args) -> int:
    if args.theorem not in harness.CHECKS:
        print(f"unknown criterion {args.theorem!r}; known: {', '.join(sorted(harness.CHECKS))}",
              file=sys.stderr)
        return 2
    raw = _read_input(args.spec)
    problem = harness.ProblemSpec.from_json(json.loads(raw))
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
    u = parse_inner(args.u)
    alpha = parse_scalar(args.alpha)
    data = clark_points(u, alpha.value)
    _emit(data.to_json(), args.json,
          human="\n".join(
              f"point {p.real:+.12f}{p.imag:+.12f}i  weight {w:.12f}"
              for p, w in zip(data.points, data.weights))
          + f"\norientation: {data.orientation()}")
    return 0


def _cmd_verify_suite(args) -> int:
    quad = None
    if args.quad_cap or args.quad_tol:
        quad = quadrature.QuadratureSettings(
            tol=args.quad_tol or quadrature.QUAD_TOL,
            cap=args.quad_cap or quadrature.QUAD_CAP,
        )
    tolerances = {}
    if args.tol:
        tolerances = {cid: {"main": args.tol} for cid in harness.CHECKS}
    cfg = harness.SuiteConfig(
        seed=args.seed, trials=args.trials,
        checks=args.theorem if args.theorem else None,
        tolerances=tolerances,
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
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trials", type=int, default=12)
    s.add_argument("--theorem", action="append",
                   help="restrict to this criterion id (repeatable)")
    s.add_argument("--tol", type=float,
                   help="override the main residual tolerance, which only these checks "
                        "have: " + ", ".join(harness.MAIN_TOLERANCE_CHECKS))
    s.add_argument("--quad-tol", type=float, help="quadrature stopping tolerance")
    s.add_argument("--quad-cap", type=int, help="quadrature node cap")
    s.add_argument("--list", action="store_true", help="list criterion ids and exit")
    s.add_argument("--json", action="store_true")
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
