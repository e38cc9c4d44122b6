"""Verification harness: instance generation, the check registry, suite runs.

Every structural fact the library implements has a named check.  A check
trial consumes one ProblemSpec (a fully serialized instance: inner
functions, symbols, parameters, seed) and returns a TrialResult; failing
trials embed the ProblemSpec so they replay bit for bit.  The suite runner
aggregates trials per check and reports counterexamples rather than
aborting: near-threshold residual distributions are data.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import classify, products, quadrature
from .blaschke import ExtendedScalar, InnerFunction, monomial_inner
from .errors import InvalidRange, TruncOpsError
from .modelspace import (
    GRAM_TOL,
    OperatorMatrix,
    SpaceElement,
    _hankel_parts,
    boundary_kernel_symbol,
    conj_kernel,
    conj_kernel_symbol,
    gram_residual,
    hankel_space,
    hankel_symbol,
    kernel,
    project,
    reorder,
    tm_basis,
    unit_kernels,
)
from .operators import (
    _element_tho,
    clark_perturbation,
    clark_points,
    defects,
    functional_calculus,
    level_points,
    rank_one,
    sedlock_op,
    spectral_multiplier,
    tho_by_pairing,
    tho_matrix,
    tto_by_pairing,
    tto_matrix,
)
from .ratfun import RationalSymbol

SCHEMA = "v1"
ZERO_CAP = 0.85  # conditioning guard on random Blaschke zeros
MAX_DEGREE = 32  # the largest generator degree instances, specs and the CLI accept
MAX_SYMBOL_DEGREE = 64  # their largest Laurent degree: 129 num and 65 den coefficients


def require_at_most(what: str, size: int, most: int) -> int:
    """size, or InvalidRange if it is above most; callers check before they build."""
    if size > most:
        raise InvalidRange(f"{what} {size} above the largest, {most}")
    return size


def inner_from_json(obj) -> InnerFunction:
    """`InnerFunction.from_json`, refusing more than MAX_DEGREE zeros first."""
    require_at_most("degree", len(obj["zeros"]), MAX_DEGREE)
    return InnerFunction.from_json(obj)


def operator_from_json(obj) -> OperatorMatrix:
    """`OperatorMatrix.from_json` with the domain and codomain decoded by
    `inner_from_json`, so that a generator above MAX_DEGREE is refused before
    any basis is built."""
    domain, codomain = inner_from_json(obj["domain"]), inner_from_json(obj["codomain"])
    mat = np.array([[complex(re, im) for re, im in row] for row in obj["matrix"]], dtype=complex)
    return OperatorMatrix(mat, tm_basis(domain), tm_basis(codomain),
                          bool(obj.get("antilinear", False)))


def symbol_from_json(obj) -> RationalSymbol:
    """`RationalSymbol.from_json`, refusing first a symbol above MAX_SYMBOL_DEGREE,
    so that no huge denominator is ever solved."""
    if "laurent" in obj:
        require_at_most("Laurent degree", max((abs(int(k)) for k in obj["laurent"]), default=0),
                        MAX_SYMBOL_DEGREE)
    else:
        require_at_most("numerator length", len(obj["num"]), 2 * MAX_SYMBOL_DEGREE + 1)
        require_at_most("denominator length", len(obj.get("den", ())), MAX_SYMBOL_DEGREE + 1)
    return RationalSymbol.from_json(obj)


# ---------------------------------------------------------------------------
# instance generation


def _random_zero(rng):
    r = ZERO_CAP * np.sqrt(rng.uniform())
    return r * np.exp(2j * np.pi * rng.uniform())


def random_inner(rng, degree: int, real_symmetric: bool = False) -> InnerFunction:
    if real_symmetric:
        zeros = []
        remaining = degree
        while remaining >= 2 and rng.uniform() < 0.7:
            a = _random_zero(rng)
            zeros += [a, np.conj(a)]
            remaining -= 2
        zeros += [complex(rng.uniform(-ZERO_CAP, ZERO_CAP)) for _ in range(remaining)]
        constant = -1.0 if rng.uniform() < 0.5 else 1.0
        return InnerFunction(tuple(zeros), constant)
    zeros = tuple(_random_zero(rng) for _ in range(degree))
    return InnerFunction(zeros, np.exp(2j * np.pi * rng.uniform()))


def clustered_inner(rng, degree: int) -> InnerFunction:
    """A generator whose zeros are drawn uniformly in the disk of radius 0.3
    about 0.5, on one side of the circle: a valid input that `random_inner`
    practically never draws, and one whose expanded coefficients lose
    precision."""
    r = 0.3 * np.sqrt(rng.uniform(size=degree))
    zeros = 0.5 + r * np.exp(2j * np.pi * rng.uniform(size=degree))
    return InnerFunction(tuple(zeros), np.exp(2j * np.pi * rng.uniform()))


def random_laurent(rng, degree: int) -> RationalSymbol:
    coeffs = {}
    for k in range(-degree, degree + 1):
        coeffs[k] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return RationalSymbol.from_laurent(coeffs)


def _unit(rng):
    return complex(np.exp(2j * np.pi * rng.uniform()))


@dataclass
class ProblemSpec:
    """A fully serialized trial instance, kept as given; its views decode each field once."""

    operation: str
    seed: int
    u: dict
    v: dict | None = None
    w: dict | None = None
    symbol: dict | None = None
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    schema: str = SCHEMA
    _decoded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def to_json(self) -> dict:
        out = {"schema": self.schema, "operation": self.operation, "seed": self.seed,
               "u": self.u}
        if self.v is not None:
            out["v"] = self.v
        if self.w is not None:
            out["w"] = self.w
        if self.symbol is not None:
            out["symbol"] = self.symbol
        if self.params:
            out["params"] = self.params
        if self.tolerances:
            out["tolerances"] = self.tolerances
        return out

    @classmethod
    def from_json(cls, obj) -> "ProblemSpec":
        """Decode a spec with what `generate_instance` always writes: u, the
        symbol and the params alpha, lambda, eta and c as [re, im] pairs.  A
        missing or malformed field raises KeyError, IndexError or TypeError; a
        generator or symbol above MAX_DEGREE or MAX_SYMBOL_DEGREE raises
        InvalidRange before it is built."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        spec = cls(
            operation=obj["operation"], seed=int(obj["seed"]), u=obj["u"],
            v=obj.get("v"), w=obj.get("w"), symbol=obj["symbol"],
            params=obj.get("params", {}), tolerances=obj.get("tolerances", {}),
            schema=obj.get("schema", SCHEMA),
        )
        for key in ("u", "symbol") + tuple(k for k in ("v", "w") if obj.get(k) is not None):
            spec._decode(key)
        for name in ("alpha", "lambda", "eta", "c"):
            spec.param_c(name)
        return spec

    def _decode(self, key: str):
        if key not in self._decoded:
            parse = symbol_from_json if key == "symbol" else inner_from_json
            self._decoded[key] = parse(getattr(self, key))
        return self._decoded[key]

    def inner_u(self) -> InnerFunction:
        return self._decode("u")

    def inner_v(self) -> InnerFunction:
        return self._decode("v")

    def inner_w(self) -> InnerFunction:
        return self._decode("w")

    def rational(self) -> RationalSymbol:
        return self._decode("symbol")

    def param_c(self, name: str) -> complex:
        re, im = self.params[name]
        return complex(re, im)


def _cplx(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def generate_instance(seed: int, degree_range=(2, 4), symbol_degree_range=(1, 3),
                      constraints: dict | None = None) -> ProblemSpec:
    """Deterministic random instance with the stated conditioning guards.

    constraints keys: operation (check id), real_symmetric (u conjugation
    closed with real constant), spaces (1..3 inner functions),
    alpha_mode ("disk" | "unimodular" | "sphere").
    """
    lo, hi = degree_range
    if not (1 <= lo <= hi <= MAX_DEGREE):
        raise InvalidRange(f"degree range {degree_range} outside [1, {MAX_DEGREE}]")
    slo, shi = symbol_degree_range
    if not (0 <= slo <= shi <= MAX_SYMBOL_DEGREE):
        raise InvalidRange(f"symbol degree range {symbol_degree_range} invalid")
    cons = constraints or {}
    rng = np.random.default_rng(seed)
    real_sym = bool(cons.get("real_symmetric", False))
    u = random_inner(rng, int(rng.integers(lo, hi + 1)), real_sym)
    spaces = int(cons.get("spaces", 1))
    v = random_inner(rng, int(rng.integers(lo, hi + 1))) if spaces >= 2 else None
    w = random_inner(rng, int(rng.integers(lo, hi + 1))) if spaces >= 3 else None
    sym = random_laurent(rng, int(rng.integers(slo, shi + 1)))

    mode = cons.get("alpha_mode", "disk")
    if mode == "unimodular":
        alpha = _unit(rng)
    elif mode == "sphere":
        roll = rng.uniform()
        inside = 0.9 * np.sqrt(rng.uniform()) * _unit(rng)
        if roll < 0.45:
            alpha = inside
        elif roll < 0.9:
            alpha = 1.0 / np.conj(inside) if abs(inside) > 0.05 else 3.7 * _unit(rng)
        else:
            alpha = _unit(rng)
    else:
        alpha = 0.9 * np.sqrt(rng.uniform()) * _unit(rng)

    params = {
        "alpha": _cplx(alpha),
        "lambda": _cplx(_random_zero(rng)),
        "eta": _cplx(_unit(rng)),
        "c": _cplx(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),
    }
    return ProblemSpec(
        operation=cons.get("operation", "ad-hoc"), seed=int(rng.integers(0, 2**31)),
        u=u.to_json(), v=v.to_json() if v else None, w=w.to_json() if w else None,
        symbol=sym.to_json(), params=params,
    )


# ---------------------------------------------------------------------------
# trial plumbing


@dataclass
class TrialResult:
    passed: bool
    residual: float
    details: dict = field(default_factory=dict)
    error: str | None = None


def _mx(*vals) -> float:
    """Max over scalars and arrays of nonnegative residuals."""
    return float(max(np.max(v) for v in vals)) if vals else 0.0


def _opnorm(M) -> float:
    mat = M.matrix if isinstance(M, OperatorMatrix) else M
    return float(np.max(np.abs(mat)))


def _random_matrix_op(rng, dom, cod) -> OperatorMatrix:
    mat = rng.standard_normal((cod.dim, dom.dim)) + 1j * rng.standard_normal((cod.dim, dom.dim))
    return OperatorMatrix(mat, dom, cod)


# ---------------------------------------------------------------------------
# the checks


def check_kernel_core(p: ProblemSpec) -> TrialResult:
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    lam = p.param_c("lambda")
    eta = p.param_c("eta")
    space = tm_basis(u)
    f = space.random_element(rng)
    k = kernel(u, lam)
    kt = conj_kernel(u, lam)
    cmap = space.conjugation_C
    umap = space.conjugation_U
    ke = kernel(u, eta)
    kte = project(u, conj_kernel_symbol(u, eta))
    r = {
        "reproducing": abs(f.inner(k) - f(lam)),
        "conjugation_kernel": _mx(*np.abs(cmap.apply(k).coords - kt.coords)),
        "boundary_relation": _mx(*np.abs(
            ke.coords - np.conj(u(eta)) * eta * kte.coords)),
        "boundary_norm": abs(ke.norm() ** 2 - abs(u.derivative(eta))),
        "hat_kernel": _mx(*np.abs(
            umap.apply(k).coords - kernel(u.hat(), np.conj(lam)).coords)),
        "hat_conj_kernel": _mx(*np.abs(
            umap.apply(kt).coords - conj_kernel(u.hat(), np.conj(lam)).coords)),
        "involution": _mx(*np.abs((cmap @ cmap).matrix - np.eye(space.dim))),
        "isometry": abs(cmap.apply(f).norm() - f.norm()),
    }
    hh = u.hat().hat()
    r["hat_involution_exact"] = 0.0 if hh == u else 1.0
    zs = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    r["hat_pointwise"] = _mx(*np.abs(np.conj(u.hat()(np.conj(zs))) - u(zs)))
    r["unimodularity"] = _mx(*np.abs(np.abs(u(zs)) - 1.0))
    # the quadrature oracle of Takenaka-Malmquist orthonormality, held to the
    # construction tolerance rather than to the main one
    r["gram"] = gram_residual(space)
    return TrialResult(r["gram"] <= GRAM_TOL, _mx(*r.values()), r)


def check_displacement_roundtrip(p: ProblemSpec) -> TrialResult:
    u, v = p.inner_u(), p.inner_v()
    sym = p.rational()
    rng = np.random.default_rng(p.seed)
    A = tto_matrix(u, v, sym)
    mA = classify.is_tto(A)
    B = tho_matrix(u, v, sym)
    mB = classify.is_tho(B)
    r = {
        "tto_displacement": mA.displacement_residual,
        "tto_rebuild": mA.rebuild_residual if mA.is_member else np.inf,
        "tho_displacement": mB.displacement_residual,
        "tho_rebuild": mB.rebuild_residual if mB.is_member else np.inf,
    }
    ok = mA.is_member and mB.is_member
    if u.degree >= 2 and v.degree >= 2:
        # below that the operator families fill the whole matrix space
        R = _random_matrix_op(rng, tm_basis(u), tm_basis(v))
        ok = (ok and not classify.is_tto(R, recover=False).is_member
              and not classify.is_tho(R, recover=False).is_member)
    return TrialResult(ok, _mx(r["tto_rebuild"], r["tho_rebuild"]), r)


def check_defect_rank_one(p: ProblemSpec) -> TrialResult:
    u, v = p.inner_u(), p.inner_v()
    lam = p.param_c("lambda")
    eta = p.param_c("eta")
    d1, d2 = defects(u)
    n = u.degree
    smat = tm_basis(u).shift.matrix
    r = {
        "defect_left": _opnorm(d1.matrix - (np.eye(n) - smat @ smat.conj().T)),
        "defect_right": _opnorm(d2.matrix - (np.eye(n) - smat.conj().T @ smat)),
    }
    # rank-one operators with explicit rational symbols
    sym1 = v.as_symbol() * RationalSymbol([1.0], [-lam, 1.0])
    r["rank_one_interior_1"] = _opnorm(
        rank_one(conj_kernel(v, lam), kernel(u, lam)).matrix
        - tto_matrix(u, v, sym1).matrix)
    zoverl = RationalSymbol([0.0, 1.0], [1.0, -np.conj(lam)])
    sym2 = u.conj_symbol() * zoverl
    r["rank_one_interior_2"] = _opnorm(
        rank_one(kernel(v, lam), conj_kernel(u, lam)).matrix
        - tto_matrix(u, v, sym2).matrix)
    sym3 = boundary_kernel_symbol(v, eta) + boundary_kernel_symbol(u, eta).conj_circle() - 1.0
    r["rank_one_boundary"] = _opnorm(
        rank_one(kernel(v, eta), kernel(u, eta)).matrix
        - tto_matrix(u, v, sym3).matrix)
    # Hankel memberships of the paired rank-one operators
    hank = [
        rank_one(conj_kernel(v, np.conj(lam)), conj_kernel(u, lam)),
        rank_one(kernel(v, np.conj(lam)), kernel(u, lam)),
        rank_one(conj_kernel(v, np.conj(eta)), conj_kernel(u, eta)),
        rank_one(kernel(v, np.conj(eta)), kernel(u, eta)),
    ]
    for i, Bk in enumerate(hank):
        m = classify.is_tho(Bk, recover=False)
        r[f"hankel_membership_{i}"] = m.displacement_residual if m.is_member else np.inf
    f = tm_basis(u).random_element(np.random.default_rng(p.seed))
    g = tm_basis(u).random_element(np.random.default_rng(p.seed + 1))
    r["trace_identity"] = abs(np.trace(rank_one(f, g).matrix) - f.inner(g))
    return TrialResult(True, _mx(*r.values()), r)


def check_sedlock_roundtrip(p: ProblemSpec) -> TrialResult:
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    alpha = ExtendedScalar.finite(p.param_c("alpha"))
    space = tm_basis(u)
    phi = space.random_element(rng)
    c = p.param_c("c")
    A = sedlock_op(u, alpha, phi, c)
    if u.degree == 1:
        # one-dimensional spaces: every operator is scalar, all classes coincide
        rep = classify.sedlock_class(A)
        ok = rep.membership == "all"
        return TrialResult(ok, 0.0 if ok else 1.0, {"membership": rep.membership})
    rep = classify.sedlock_class(A)
    ok1 = rep.membership == "finite" and rep.alpha.isclose(alpha, 1e-8)
    radj = classify.sedlock_class(A.adjoint())
    expect_adj = alpha.reciprocal_conjugate()
    ok2 = (radj.membership in ("finite", "infinity")
           and radj.alpha.isclose(expect_adj, classify.PARAMETER_TOL))
    B = sedlock_op(u, alpha, space.random_element(rng), 0.0)
    prod = A @ B
    mprod = classify.is_tto(prod, recover=False)
    rprod = classify.sedlock_class(prod)
    ok3 = mprod.is_member and rprod.matches(rep)
    r = {
        "recovered_alpha_err": (abs(rep.alpha.value - alpha.value)
                                if rep.membership == "finite" else np.inf),
        "class_residual": rep.commutator_residual,
        "adjoint_ok": ok2,
        "closure_ok": ok3,
    }
    return TrialResult(ok1 and ok2 and ok3, r["recovered_alpha_err"], r)


def check_clark_unitary(p: ProblemSpec) -> TrialResult:
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    alpha = p.param_c("alpha")
    alpha = alpha / abs(alpha)
    n = u.degree
    sa = clark_perturbation(tm_basis(u), alpha)
    r = {"unitarity": _opnorm(sa.matrix.conj().T @ sa.matrix - np.eye(n))}
    cdat = clark_points(u, alpha)
    evals, evecs = np.linalg.eig(sa.matrix)
    align = 0.0
    for point, q in zip(cdat.points, unit_kernels(sa.domain, cdat.points)):
        i = int(np.argmin(np.abs(evals - point)))
        vec = evecs[:, i] / np.linalg.norm(evecs[:, i])
        align = max(align, 1.0 - abs(np.vdot(q, vec)))
    r["eigvec_alignment"] = align
    f = tm_basis(u).random_element(rng)
    quad = float(np.sum(np.array(cdat.weights) * np.abs(f(cdat.points)) ** 2))
    r["quadrature_identity"] = abs(quad - f.norm() ** 2)
    r["orientation"] = cdat.orientation()
    inner_alpha = 0.8 * np.sqrt(rng.uniform()) * _unit(rng)
    si = clark_perturbation(sa.domain, inner_alpha)
    ev = np.linalg.eigvals(si.matrix)
    r["strict_spectrum"] = bool(np.max(np.abs(ev)) < 1.0 - 1e-10)
    r["contraction"] = float(np.linalg.norm(si.matrix, 2)) <= 1.0 + 1e-10
    ok = (r["unitarity"] < 1e-10 and r["eigvec_alignment"] < 1e-8
          and r["quadrature_identity"] < 1e-8 and r["strict_spectrum"]
          and r["contraction"])
    return TrialResult(ok, _mx(r["unitarity"], r["eigvec_alignment"],
                               r["quadrature_identity"]), r)


def check_conjugation_dictionary(p: ProblemSpec) -> TrialResult:
    u, v = p.inner_u(), p.inner_v()
    gaps = products.equivalence_transforms(u, v, p.rational())
    return TrialResult(True, _mx(*gaps.values()), gaps)


def check_membership_transport(p: ProblemSpec) -> TrialResult:
    u, v = p.inner_u(), p.inner_v()
    sym = p.rational()
    rng = np.random.default_rng(p.seed)
    results = {}
    ok = True
    for name, M in (
        ("tto", tto_matrix(u, v, sym)),
        ("tho", tho_matrix(u, v, sym)),
        ("random", _random_matrix_op(rng, tm_basis(u), tm_basis(v))),
    ):
        trans = products.membership_transports(M)
        agree = all(a == b for a, b in trans.values())
        results[name] = {k: f"{a}->{b}" for k, (a, b) in trans.items()}
        ok = ok and agree
    return TrialResult(ok, 0.0 if ok else 1.0, results)


def check_involution_identities(p: ProblemSpec) -> TrialResult:
    u, v = p.inner_u(), p.inner_v()
    rng = np.random.default_rng(p.seed)
    alpha = p.param_c("alpha")
    sym = p.rational()
    gaps = products.involution_identity_checks(u, alpha, v, sym)
    hat = products.hat_transport_checks(alpha, tm_basis(u).random_element(rng),
                                        p.param_c("c"))
    inf_hat = products.hat_transport_checks(ExtendedScalar.infinity(),
                                            tm_basis(u).random_element(rng))
    resid = _mx(*gaps.values(), hat.get("shift_transport_residual", 0.0),
                hat.get("shift_conjugation_residual", 0.0))
    details = dict(gaps)
    details["transport_ok"] = hat["transport_ok"]
    details["transport_ok_infinity"] = inf_hat["transport_ok"]
    return TrialResult(hat["transport_ok"] and inf_hat["transport_ok"], resid, details)


def _unitary_hankel(u: InnerFunction, rng) -> OperatorMatrix:
    alpha = _unit(rng)
    cdat = clark_points(u, alpha)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, u.degree))
    return tm_basis(u).symmetric_involution @ spectral_multiplier(cdat, phases)


def _atho_symbol(a: InnerFunction, b: InnerFunction, rng) -> SpaceElement:
    """A random psi in K_{a hat(b)}, the symbol conj(psi) of a Hankel K_a -> K_b."""
    return hankel_space(a, b).random_element(rng)


def _generic_hankel(u: InnerFunction, v: InnerFunction, rng) -> OperatorMatrix:
    return _element_tho(_atho_symbol(u, v, rng))


def check_hankel_unitary(p: ProblemSpec) -> TrialResult:
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    rep_u = classify.tho_unitary_report(_unitary_hankel(u, rng))
    rep_g = classify.tho_unitary_report(_generic_hankel(u, u, rng))
    ok = all(rep_u.conditions) and not any(rep_g.conditions)
    r = {
        "unitary_conditions": rep_u.conditions,
        "generic_conditions": rep_g.conditions,
        "unitary_residuals": rep_u.residuals,
    }
    return TrialResult(ok, 0.0 if ok else 1.0, r)


def _invertible_class_hankel(u: InnerFunction, rng):
    """A Hankel operator in an involution-shifted class, invertible by design."""
    alpha = 0.2 + 0.6 * np.sqrt(rng.uniform()) * _unit(rng)
    if abs(alpha) > 0.9:
        alpha = 0.9 * alpha / abs(alpha)
    roots = 2.0 + rng.uniform(0, 2, u.degree - 1) if u.degree > 1 else []
    psi = RationalSymbol.polynomial(np.polynomial.polynomial.polyfromroots(roots)
                                    if len(roots) else [1.0])
    return tm_basis(u).symmetric_involution @ functional_calculus(u, alpha, psi), alpha


def check_hankel_inverse(p: ProblemSpec) -> TrialResult:
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    B, alpha = _invertible_class_hankel(u, rng)
    # tho_inverse_class raises NoCertificate unless both class certificates
    # rebuild to REBUILD_TOL relative to the norm; the law implies both exist
    rep = classify.tho_inverse_class(B)
    ok = (rep.inverse_is_tho and rep.reciprocal_law_holds
          and rep.alpha.isclose(ExtendedScalar.finite(alpha), classify.PARAMETER_TOL))
    r = {
        "alpha": str(rep.alpha), "inverse_alpha": str(rep.inverse_alpha),
        "law": rep.reciprocal_law_holds,
        "cert_residual": rep.certificate.residual if rep.certificate else np.inf,
        "inv_cert_residual": (rep.inverse_certificate.residual
                              if rep.inverse_certificate else np.inf),
    }
    # generic invertible Hankel operator: the chain must stay self-consistent
    # (at degree 2 every Toeplitz operator lies in a class, so the inverse can
    # legitimately stay Hankel there; above that a random one fails)
    G = _generic_hankel(u, u, rng)
    if np.linalg.cond(G.matrix) < 1e6:
        grep = classify.tho_inverse_class(G)
        r["generic_inverse_is_tho"] = grep.inverse_is_tho
        if grep.inverse_is_tho:
            ok = ok and grep.reciprocal_law_holds
        if u.degree >= 3:
            ok = ok and not grep.inverse_is_tho
    return TrialResult(ok, r["cert_residual"] if ok else 1.0, r)


def check_hankel_zero_product(p: ProblemSpec) -> TrialResult:
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    dop = tm_basis(u).symmetric_involution
    n = u.degree
    r = {}
    ok = True
    # unimodular parameter: disjoint supports over the Clark points
    alpha = _unit(rng)
    cdat = clark_points(u, alpha)
    cut = max(1, n // 2)
    v1 = np.zeros(n, dtype=complex)
    v2 = np.zeros(n, dtype=complex)
    v1[:cut] = np.exp(1j * rng.uniform(0, 2 * np.pi, cut))
    v2[cut:] = np.exp(1j * rng.uniform(0, 2 * np.pi, n - cut))
    B1 = dop @ spectral_multiplier(cdat, v1)
    B2 = spectral_multiplier(cdat, v2) @ dop
    zp = classify.zero_product_analysis(B1, B2)
    r["clark_zero"] = zp.residuals["product_norm"]
    r["clark_verdict"] = zp.product_is_zero and zp.classes_match and bool(
        zp.multiplier_product_vanishes)
    ok = ok and r["clark_verdict"]
    # interior parameter: split the points where u = a0, in argument order
    if n >= 2:
        a0 = 0.3 * _unit(rng)
        roots = level_points(dop.domain, a0)
        cut = max(1, n // 2)
        psi1 = RationalSymbol.polynomial(
            np.polynomial.polynomial.polyfromroots(roots[:cut]))
        psi2 = RationalSymbol.polynomial(
            np.polynomial.polynomial.polyfromroots(roots[cut:]))
        B1 = dop @ functional_calculus(u, a0, psi1)
        B2 = functional_calculus(u, a0, psi2) @ dop
        zp = classify.zero_product_analysis(B1, B2)
        r["interior_zero"] = zp.residuals["product_norm"]
        r["interior_verdict"] = zp.product_is_zero and zp.classes_match and bool(
            zp.multiplier_product_vanishes)
        ok = ok and r["interior_verdict"]
    # cross-class pairs do not multiply to zero
    C1 = dop @ functional_calculus(u, 0.25 * _unit(rng),
                                   RationalSymbol.polynomial([0.4, 1.0]))
    C2 = functional_calculus(u, 0.7 * _unit(rng),
                             RationalSymbol.polynomial([1.0, 0.6])) @ dop
    cross = float(np.linalg.norm((C1 @ C2).matrix))
    r["cross_class_norm"] = cross
    ok = ok and cross > 1e-3
    return TrialResult(ok, _mx(r.get("clark_zero", 0.0), r.get("interior_zero", 0.0)), r)


def _class_hankel_pair(u: InnerFunction, alpha: ExtendedScalar, rng):
    """A pair (B1, B2) with B1 in class-after-involution and B2 in involution-after-class."""
    dop = tm_basis(u).symmetric_involution
    n = u.degree
    if not alpha.is_infinity and abs(alpha.modulus() - 1.0) < 1e-9:
        cdat = clark_points(u, alpha.value)
        m1 = spectral_multiplier(cdat, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        m2 = spectral_multiplier(cdat, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    else:
        p1 = RationalSymbol.polynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        p2 = RationalSymbol.polynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        m1 = functional_calculus(u, alpha, p1)
        m2 = functional_calculus(u, alpha, p2)
    return m1 @ dop, dop @ m2


def check_hankel_product_toeplitz(p: ProblemSpec) -> TrialResult:
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    alpha = ExtendedScalar.finite(p.param_c("alpha"))
    B1, B2 = _class_hankel_pair(u, alpha, rng)
    pv = products.tho_product_tto_test(B1, B2)
    ok = pv.in_class and pv.direct
    r = {"matched_in_class": pv.in_class, "matched_direct": pv.direct}
    if pv.details.get("case") == "common-class" and "product_class" in pv.details:
        prep = pv.details["product_class"]
        r["product_class_ok"] = prep.membership != "none" and prep.matches(pv.details["left_class"])
        ok = ok and r["product_class_ok"]
    dop = tm_basis(u).symmetric_involution
    pv2 = products.tho_product_tto_test(
        complex(rng.standard_normal() + 1j * rng.standard_normal()) * dop,
        _generic_hankel(u, u, rng))
    r["scalar_case"] = pv2.in_class and pv2.direct
    ok = ok and r["scalar_case"]
    M1, _ = _class_hankel_pair(u, ExtendedScalar.finite(0.2 * _unit(rng)), rng)
    _, M2 = _class_hankel_pair(u, ExtendedScalar.finite(0.7 * _unit(rng)), rng)
    pv3 = products.tho_product_tto_test(M1, M2)
    r["mismatch_consistent"] = pv3.consistent and not pv3.in_class
    ok = ok and r["mismatch_consistent"]
    return TrialResult(ok, 0.0 if ok else 1.0, r)


def check_hankel_product_symbols(p: ProblemSpec) -> TrialResult:
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    alpha = ExtendedScalar.finite(p.param_c("alpha"))
    B1, B2 = _class_hankel_pair(u, alpha, rng)
    # raises NoCertificate unless every residual is within its norm-relative gate
    cert = products.tho_product_symbol_forms(B1, B2)
    r = {
        "regime": cert.regime,
        "left_residual": cert.left_residual,
        "right_residual": cert.right_residual,
        "product_residual": cert.product_residual,
    }
    return TrialResult(True, _mx(cert.left_residual, cert.right_residual), r)


def check_mixed_product(p: ProblemSpec) -> TrialResult:
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    alpha = p.param_c("alpha")
    dop = tm_basis(u).symmetric_involution
    n = u.degree
    A = functional_calculus(u, alpha,
                            RationalSymbol.polynomial(rng.standard_normal(n)
                                                      + 1j * rng.standard_normal(n)))
    M = functional_calculus(u, alpha,
                            RationalSymbol.polynomial(rng.standard_normal(n)
                                                      + 1j * rng.standard_normal(n)))
    r = {}
    pv = products.mixed_product_test(A, M @ dop, "AB")
    r["matched_AB"] = pv.in_class and pv.direct
    pv = products.mixed_product_test(A, dop @ M, "BA")
    r["matched_BA"] = pv.in_class and pv.direct
    pv = products.mixed_product_test(
        complex(rng.standard_normal()) * OperatorMatrix.identity(tm_basis(u)),
        _generic_hankel(u, u, rng), "AB")
    r["scalar_toeplitz"] = pv.in_class and pv.direct
    Amis = functional_calculus(u, 0.2 * _unit(rng), RationalSymbol.polynomial([0.3, 1.0]))
    Bmis = functional_calculus(u, 0.8 * _unit(rng),
                               RationalSymbol.polynomial([1.0, -0.4])) @ dop
    pv = products.mixed_product_test(Amis, Bmis, "AB")
    r["mismatch_consistent"] = pv.consistent and not pv.in_class
    ok = all(bool(v) for v in r.values())
    return TrialResult(ok, 0.0 if ok else 1.0, r)


def check_rank_one_examples(p: ProblemSpec) -> TrialResult:
    u = p.inner_u()
    lam = p.param_c("lambda")
    r = {}
    b1 = rank_one(conj_kernel(u, lam), conj_kernel(u, np.conj(lam)))
    b2 = rank_one(kernel(u, np.conj(lam)), kernel(u, lam))
    a = rank_one(conj_kernel(u, lam), kernel(u, lam))
    prod = (b1 @ b2).matrix
    r["hankel_pair_identity"] = _opnorm(
        prod - np.conj(u.derivative(np.conj(lam))) * a.matrix)
    r["mixed_identity"] = _opnorm(
        (a @ b1).matrix - u.derivative(lam) * b1.matrix)
    rep = classify.sedlock_class(a)
    exp_alpha = ExtendedScalar.finite(u(lam))
    r["class_is_u_of_lambda"] = (rep.membership == "finite"
                                 and rep.alpha.isclose(exp_alpha, 1e-8))
    pv = products.tho_product_tto_test(b1, b2)
    r["criterion"] = pv.in_class and pv.direct and pv.witness is not None and (
        ExtendedScalar.of(pv.witness).isclose(exp_alpha, classify.PARAMETER_TOL))
    pvm = products.mixed_product_test(a, b1, "AB")
    r["mixed_criterion"] = pvm.in_class and pvm.direct
    ok = r["class_is_u_of_lambda"] and r["criterion"] and r["mixed_criterion"]
    return TrialResult(ok, _mx(r["hankel_pair_identity"], r["mixed_identity"]), r)


def check_atto_product(p: ProblemSpec) -> TrialResult:
    u, v, w = p.inner_u(), p.inner_v(), p.inner_w()
    rng = np.random.default_rng(p.seed)
    alpha = ExtendedScalar.finite(p.param_c("alpha"))
    r = {}
    A1 = sedlock_op(u, alpha, tm_basis(u).random_element(rng), p.param_c("c"))
    A2 = sedlock_op(u, alpha, tm_basis(u).random_element(rng), 0.0)
    pv = products.atto_product_test(A1, A2)
    r["same_class"] = pv.in_class and pv.direct
    pv = products.atto_product_test(A1, OperatorMatrix.identity(tm_basis(u)))
    r["identity_factor"] = pv.in_class and pv.direct
    B1 = sedlock_op(u, ExtendedScalar.finite(0.15 * _unit(rng)),
                    tm_basis(u).random_element(rng), 0.0)
    B2 = sedlock_op(u, ExtendedScalar.infinity(), tm_basis(u).random_element(rng))
    pv = products.atto_product_test(B1, B2)
    r["cross_class_consistent"] = pv.consistent and not pv.in_class
    Av = tto_matrix(v, w, random_laurent(rng, 2))
    Bv = tto_matrix(u, v, random_laurent(rng, 2))
    pv = products.atto_product_test(Av, Bv)
    r["asymmetric_consistent"] = pv.consistent
    ok = all(bool(x) for x in r.values())
    return TrialResult(ok, 0.0 if ok else 1.0, r)


def hatted_symbol(psi: SpaceElement) -> SpaceElement:
    """hat(psi) for psi in `hankel_space(b, a)`, in `hankel_space(a, b)`: there
    its coordinates are conj(psi) with the two zero blocks swapped."""
    b_space, _, a_space = _hankel_parts(psi)
    space = hankel_space(a_space.generator, b_space.generator)
    order = [*range(a_space.dim, space.dim), *range(a_space.dim)]
    return space.element(reorder(space.generator, order) @ np.conj(psi.coords))


def check_atho_product_toeplitz(p: ProblemSpec) -> TrialResult:
    u, v, w = p.inner_u(), p.inner_v(), p.inner_w()
    rng = np.random.default_rng(p.seed)
    r = {}
    pv = products.atho_product_tto_test(_atho_symbol(v, w, rng), _atho_symbol(u, v, rng))
    r["random_consistent"] = pv.consistent
    # zero second factor
    pv = products.atho_product_tto_test(_atho_symbol(v, w, rng), hankel_space(u, v).kernel0)
    r["zero_factor"] = pv.in_class and pv.direct
    ok = all(bool(x) for x in r.values())
    return TrialResult(ok, 0.0 if ok else 1.0, r)


def check_atho_product_true(p: ProblemSpec) -> TrialResult:
    """Forward-constructed asymmetric Hankel pairs whose product is Toeplitz."""
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    alpha = ExtendedScalar.finite(p.param_c("alpha"))
    B1, B2 = _class_hankel_pair(u, alpha, rng)
    s1 = classify.is_tho(B1)
    s2 = classify.is_tho(B2)
    if not (s1.is_member and s2.is_member):
        return TrialResult(False, 1.0, {"error": "construction not Hankel"})
    pv = products.atho_product_tto_test(s1.symbol_element, s2.symbol_element)
    r = {"in_class": pv.in_class, "direct": pv.direct, "residual": pv.lhs_residual}
    # equal-witness specialization: a unitary factor against its adjoint
    Bu = _unitary_hankel(u, rng)
    su = classify.is_tho(Bu)
    if not su.is_member:
        return TrialResult(False, 1.0, dict(r, error="unitary factor not Hankel"))
    pv2 = products.atho_product_tto_test(su.symbol_element, hatted_symbol(su.symbol_element))
    r["adjoint_pair"] = pv2.in_class and pv2.direct
    gap = np.inf
    if pv2.in_class:
        _, gap = products.symmetric_witness(pv2.witness[0], pv2.witness[1],
                                            kernel(u, 0.0))
        r["witness_gap"] = gap
    ok = pv.in_class and pv.direct and r["adjoint_pair"] and gap < 1e-8
    return TrialResult(ok, pv.lhs_residual, r)


def check_atho_atto_product(p: ProblemSpec) -> TrialResult:
    u, v, w = p.inner_u(), p.inner_v(), p.inner_w()
    rng = np.random.default_rng(p.seed)
    r = {}
    pv = products.atho_atto_product_test(
        _atho_symbol(v, w, rng), tm_basis(v).random_element(rng), tm_basis(u).random_element(rng),
        "hankel_toeplitz")
    r["random_ht_consistent"] = pv.consistent
    pv = products.atho_atto_product_test(
        _atho_symbol(u, v, rng), tm_basis(w).random_element(rng), tm_basis(v).random_element(rng),
        "toeplitz_hankel")
    r["random_th_consistent"] = pv.consistent
    # adjoint transport: the reversed-order criterion run on adjoint data
    psi3 = _atho_symbol(u, v, rng)
    psi1 = tm_basis(w).random_element(rng)
    psi2 = tm_basis(v).random_element(rng)
    pv_th = products.atho_atto_product_test(psi3, psi1, psi2, "toeplitz_hankel")
    pv_adj = products.atho_atto_product_test(hatted_symbol(psi3), psi2, psi1, "hankel_toeplitz")
    r["adjoint_agreement"] = pv_th.direct == pv_adj.direct and pv_th.in_class == pv_adj.in_class
    ok = all(bool(x) for x in r.values())
    return TrialResult(ok, 0.0 if ok else 1.0, r)


def check_atho_atto_true(p: ProblemSpec) -> TrialResult:
    """Forward-constructed mixed products that stay Hankel, both orders."""
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    alpha = p.param_c("alpha")
    dop = tm_basis(u).symmetric_involution
    n = u.degree
    A = functional_calculus(u, alpha, RationalSymbol.polynomial(
        rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    mA = classify.is_tto(A)
    B_ht = dop @ functional_calculus(u, alpha, RationalSymbol.polynomial(
        rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    mB = classify.is_tho(B_ht)
    if not (mA.is_member and mB.is_member):
        return TrialResult(False, 1.0, {"error": "construction failed"})
    pv1 = products.atho_atto_product_test(mB.symbol_element, mA.analytic_part,
                                          mA.conjugate_part, "hankel_toeplitz")
    B_th = functional_calculus(u, alpha, RationalSymbol.polynomial(
        rng.standard_normal(n) + 1j * rng.standard_normal(n))) @ dop
    mB2 = classify.is_tho(B_th)
    pv2 = products.atho_atto_product_test(mB2.symbol_element, mA.analytic_part,
                                          mA.conjugate_part, "toeplitz_hankel")
    r = {"hankel_toeplitz": (pv1.in_class, pv1.direct),
         "toeplitz_hankel": (pv2.in_class, pv2.direct)}
    ok = pv1.in_class and pv1.direct and pv2.in_class and pv2.direct
    return TrialResult(ok, _mx(pv1.lhs_residual, pv2.lhs_residual), r)


def check_product_chain(p: ProblemSpec) -> TrialResult:
    u, v, w = p.inner_u(), p.inner_v(), p.inner_w()
    rng = np.random.default_rng(p.seed)
    psi1 = _atho_symbol(v, w, rng)
    psi2 = _atho_symbol(u, v, rng)
    res = products.membership_transport_chain(hankel_symbol(psi1).conj_circle(),
                                              hankel_symbol(psi2).conj_circle(),
                                              u, v, w)
    r = {"hankel_chain": res["hankel"], "toeplitz_chain": res["toeplitz"]}
    ok = len(set(res["hankel"])) == 1 and len(set(res["toeplitz"])) == 1
    # a chain on an engineered true instance
    us = random_inner(rng, max(2, u.degree), real_symmetric=True)
    alpha = ExtendedScalar.finite(0.5 * _unit(rng))
    B1, B2 = _class_hankel_pair(us, alpha, rng)
    s1, s2 = classify.is_tho(B1), classify.is_tho(B2)
    res2 = products.membership_transport_chain(s1.symbol, s2.symbol, us, us, us)
    r["true_toeplitz_chain"] = res2["toeplitz"]
    ok = ok and all(res2["toeplitz"]) and len(set(res2["hankel"])) == 1
    return TrialResult(ok, 0.0 if ok else 1.0, r)


def check_cross_space_unitary(p: ProblemSpec) -> TrialResult:
    u = p.inner_u()
    rng = np.random.default_rng(p.seed)
    alpha = _unit(rng)
    cdat = clark_points(u, alpha)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, u.degree))
    mult = spectral_multiplier(cdat, phases)
    space = tm_basis(u)
    cu, uu = space.conjugation_C, space.conjugation_U
    B = uu @ cu @ mult                                      # K_u -> K_uhat
    rep = classify.cross_space_unitary_report(B)
    r = {"unitary_conditions": rep.conditions, "factor_order": rep.factor_order}
    ok = all(rep.conditions)
    G = _generic_hankel(u, u.hat(), rng)
    rep_g = classify.cross_space_unitary_report(G)
    r["generic_conditions"] = rep_g.conditions
    ok = ok and not any(rep_g.conditions)
    # zero product across the hat spaces
    n = u.degree
    cut = max(1, n // 2)
    v1 = np.zeros(n, dtype=complex)
    v2 = np.zeros(n, dtype=complex)
    v1[:cut] = 1.0
    v2[cut:] = 1.0
    B1 = cu @ spectral_multiplier(cdat, v1) @ uu.codomain.conjugation_U
    B2 = uu @ spectral_multiplier(cdat, v2) @ cu
    zp = classify.cross_space_zero_product(B1, B2)
    r["zero_product"] = (zp.product_is_zero, zp.classes_match,
                         bool(zp.multiplier_product_vanishes))
    ok = ok and zp.product_is_zero and zp.classes_match and bool(
        zp.multiplier_product_vanishes)
    return TrialResult(ok, 0.0 if ok else 1.0, r)


def check_quadrature_hygiene(p: ProblemSpec) -> TrialResult:
    rng = np.random.default_rng(p.seed)
    n = max(2, min(8, p.inner_u().degree + 4))
    u = monomial_inner(n)
    deg = int(rng.integers(4, 13))
    coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for k in range(-deg, deg + 1)}
    sym = RationalSymbol.from_laurent(coeffs)
    # the pairing builds, which tto_matrix and tho_matrix skip for a Laurent symbol
    with quadrature.tally() as first:
        A = tto_by_pairing(u, u, sym)
        B = tho_by_pairing(u, u, sym)
    toeplitz_exact = np.array(
        [[coeffs.get(i - j, 0.0) for j in range(n)] for i in range(n)])
    hankel_exact = np.array(
        [[coeffs.get(-(i + j + 1), 0.0) for j in range(n)] for i in range(n)])
    r = {
        "toeplitz_oracle": _opnorm(A.matrix - toeplitz_exact),
        "hankel_oracle": _opnorm(B.matrix - hankel_exact),
    }
    # the second builds start at the finest level the first ones reached, so
    # they run at twice its node count (or raise if that is over the cap)
    quad = quadrature.current().settings
    with quadrature.override(replace(quad, start=first.max_nodes)):
        A2 = tto_by_pairing(u, u, sym)
        B2 = tho_by_pairing(u, u, sym)
    r["toeplitz_node_doubling"] = _opnorm(A.matrix - A2.matrix)
    r["hankel_node_doubling"] = _opnorm(B.matrix - B2.matrix)
    return TrialResult(True, _mx(*r.values()), r)


@dataclass(frozen=True)
class CheckDef:
    id: str
    description: str
    run: object
    constraints: dict
    tol: float | None   # main tolerance on the trial residual; None: the check has none


CHECKS: dict[str, CheckDef] = {}


def _register(id_, description, fn, tol=None, **constraints):
    CHECKS[id_] = CheckDef(id_, description, fn, constraints, tol)


_register("kernel-core",
          "reproducing kernels, conjugations, boundary kernels and their transports",
          check_kernel_core, tol=1e-9, spaces=1)
_register("displacement-roundtrip",
          "shift-displacement membership tests and symbol rebuilds",
          check_displacement_roundtrip, spaces=2)
_register("defect-rank-one",
          "defect operators and rank-one operator identities/memberships",
          check_defect_rank_one, tol=1e-8, spaces=2)
_register("sedlock-roundtrip",
          "class construction/detection round trip, adjoint law, closure",
          check_sedlock_roundtrip, spaces=1, alpha_mode="disk")
_register("clark-unitary",
          "unitary perturbation spectrum, weights, quadrature identity",
          check_clark_unitary, spaces=1, alpha_mode="unimodular")
_register("conjugation-dictionary",
          "the eight conjugation identities between operator families",
          check_conjugation_dictionary, tol=1e-9, spaces=2)
_register("membership-transport",
          "membership preservation under the six conjugation transports",
          check_membership_transport, spaces=2)
_register("involution-identities",
          "real-symmetric involution identities and hat class transport",
          check_involution_identities, tol=1e-9, spaces=2, real_symmetric=True)
_register("hankel-unitary",
          "six-way unitarity report for Hankel operators",
          check_hankel_unitary, spaces=1, real_symmetric=True)
_register("hankel-inverse",
          "inverses of Hankel operators and the reciprocal class law",
          check_hankel_inverse, spaces=1, real_symmetric=True)
_register("hankel-zero-product",
          "zero products of Hankel operators in all parameter regimes",
          check_hankel_zero_product, spaces=1, real_symmetric=True)
_register("hankel-product-toeplitz",
          "when a product of two Hankel operators is Toeplitz",
          check_hankel_product_toeplitz, spaces=1, real_symmetric=True,
          alpha_mode="sphere")
_register("hankel-product-symbols",
          "class-form symbol certificates for Hankel products",
          check_hankel_product_symbols, spaces=1, real_symmetric=True,
          alpha_mode="sphere")
_register("mixed-product",
          "when a mixed Toeplitz/Hankel product is Hankel",
          check_mixed_product, spaces=1, real_symmetric=True, alpha_mode="disk")
_register("rank-one-examples",
          "rank-one product identities and their class parameters",
          check_rank_one_examples, tol=1e-9, spaces=1, real_symmetric=True)
_register("atto-product",
          "when a product of two Toeplitz operators stays Toeplitz",
          check_atto_product, spaces=3, alpha_mode="disk")
_register("atho-product-toeplitz",
          "asymmetric Hankel pair products against the Toeplitz criterion",
          check_atho_product_toeplitz, spaces=3)
_register("atho-product-true",
          "forward-constructed asymmetric Hankel products that are Toeplitz",
          check_atho_product_true, spaces=1, real_symmetric=True,
          alpha_mode="sphere")
_register("atho-atto-product",
          "mixed asymmetric Hankel/Toeplitz products, both orders",
          check_atho_atto_product, spaces=3)
_register("atho-atto-true",
          "forward-constructed mixed products that stay Hankel",
          check_atho_atto_true, spaces=1, real_symmetric=True, alpha_mode="disk")
_register("product-chain",
          "four-way equivalence chains for product memberships",
          check_product_chain, spaces=3)
_register("cross-space-unitary",
          "unitarity and zero products for hat-space Hankel operators",
          check_cross_space_unitary, spaces=1)
_register("quadrature-hygiene",
          "exact Fourier oracle and node-doubling stability",
          check_quadrature_hygiene, tol=1e-11, spaces=1)


# ---------------------------------------------------------------------------
# suite runner


@dataclass
class SuiteConfig:
    seed: int = 0
    trials: int = 12
    checks: list | None = None            # None = all registered
    degree_range: tuple = (2, 4)
    symbol_degree_range: tuple = (1, 3)
    tol: float | None = None              # None = each check's registered main tolerance
    quad: quadrature.QuadratureSettings | None = None


@dataclass
class SuiteReport:
    seed: int
    checks: list
    quadrature_stats: dict
    overall_pass: bool
    wall_clock: float

    def to_json(self) -> dict:
        # wall clock is intentionally excluded: reports must be byte-identical
        # for a fixed seed
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "overall_pass": self.overall_pass,
            "quadrature": self.quadrature_stats,
            "checks": self.checks,
        }

    def json_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, indent=1).encode()

    def human_summary(self) -> str:
        lines = [f"seed {self.seed}  wall-clock {self.wall_clock:.2f}s  "
                 f"overall {'PASS' if self.overall_pass else 'FAIL'}"]
        for c in self.checks:
            lines.append(
                f"  [{'PASS' if _check_passed(c) else 'FAIL'}] {c['id']}: "
                f"{c['passes']}/{c['trials']} trials, max residual {c['max_residual']:.3g}"
            )
        return "\n".join(lines)


def _check_passed(report: dict) -> bool:
    """A check passes when it ran at least one trial and none failed."""
    return report["trials"] > 0 and report["failures"] == 0


def _trial_seed(seed: int, check_id: str, index: int) -> int:
    # zlib.crc32 rather than hash(): process-independent determinism
    h = np.random.SeedSequence([seed, zlib.crc32(check_id.encode()), index])
    return int(h.generate_state(1)[0])


def run_trial(check_id: str, problem: ProblemSpec) -> TrialResult:
    """Run one trial.  A check with a main tolerance passes only if its residual
    is below it: the problem's tolerances["main"] if set, else the registered one."""
    check = CHECKS[check_id]
    try:
        result = check.run(problem)
    except (TruncOpsError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return TrialResult(False, float("inf"), {}, error=f"{type(exc).__name__}: {exc}")
    if check.tol is not None:
        result.passed = result.passed and result.residual < problem.tolerances.get(
            "main", check.tol)
    return result


def replay(problem_json) -> TrialResult:
    """Re-run a failing trial from its embedded ProblemSpec."""
    problem = ProblemSpec.from_json(problem_json)
    return run_trial(problem.operation, problem)


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def run_suite(config: SuiteConfig | None = None) -> SuiteReport:
    cfg = config or SuiteConfig()
    if cfg.trials < 0:
        raise InvalidRange(f"trials must be >= 0, got {cfg.trials}")
    if cfg.tol is not None and not (np.isfinite(cfg.tol) and cfg.tol > 0):
        raise InvalidRange(f"tol must be positive and finite, got {cfg.tol}")
    ids = list(dict.fromkeys(cfg.checks or CHECKS))     # repeated ids run once
    for cid in ids:
        if cid not in CHECKS:
            raise InvalidRange(f"unknown check id {cid!r}; known: {sorted(CHECKS)}")
    # a fresh evaluation: counters and memoized builds do not depend on what
    # ran before, so reports are byte-identical for a fixed seed
    evaluation = quadrature.Evaluation(cfg.quad or quadrature.QuadratureSettings())
    t0 = time.perf_counter()
    out = []
    with quadrature.use(evaluation):
        for cid in ids:
            check = CHECKS[cid]
            passes = 0
            max_resid = 0.0
            counterexamples = []
            for i in range(cfg.trials):
                cons = dict(check.constraints)
                cons["operation"] = cid
                problem = generate_instance(
                    _trial_seed(cfg.seed, cid, i), cfg.degree_range,
                    cfg.symbol_degree_range, cons)
                if cfg.tol is not None:
                    problem.tolerances = {"main": cfg.tol}
                result = run_trial(cid, problem)
                if np.isfinite(result.residual):
                    max_resid = max(max_resid, result.residual)
                if result.passed:
                    passes += 1
                else:
                    counterexamples.append({
                        "problem": problem.to_json(),
                        "residual": _sanitize(result.residual),
                        "details": _sanitize(result.details),
                        "error": result.error,
                    })
            failures = cfg.trials - passes
            out.append({
                "id": cid,
                "description": check.description,
                "trials": cfg.trials,
                "passes": passes,
                "failures": failures,
                "max_residual": max_resid,
                "counterexamples": counterexamples[:8],
            })
    wall = time.perf_counter() - t0
    return SuiteReport(cfg.seed, out, evaluation.stats.snapshot(),
                       all(map(_check_passed, out)), wall)
