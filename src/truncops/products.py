"""Product criteria and the conjugation dictionary.

Each operation here evaluates one of the package's closure criteria: when a
product of truncated Toeplitz/Hankel operators is again an operator of one
of those types.  Every criterion is evaluated twice, independently: the
stated condition (a cross decomposition of an explicitly built matrix, or a
class-membership match), and the direct membership test of the composed
matrix.  The two verdicts are returned side by side; the verification
harness requires them to agree.

Composite conjugate-linear expressions are assembled with the flagged
composition rule of OperatorMatrix: no hand-derived sign conventions.
Symbol expressions such as conj(v phi) on the circle are normalized to
rational functions before any pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blaschke import ExtendedScalar, InnerFunction
from .classify import (
    class_form_fit,
    class_form_terms,
    class_multipliers,
    cross_decompose,
    is_tho,
    is_tto,
    sedlock_class,
    MEMBERSHIP_TOL,
)
from .errors import NoCertificate, NotRealSymmetric, NotTHO, NotTTO, SymbolRecoveryFailed
from .modelspace import (
    OperatorMatrix,
    SpaceElement,
    conjugation_C,
    conjugation_U,
    embed,
    kernel,
    project,
)
from .operators import (
    clark_perturbation,
    functional_calculus,
    rank_one,
    sedlock_op,
    shift,
    symmetric_involution,
    tho_matrix,
    tto_matrix,
)
from .ratfun import RationalSymbol


@dataclass
class ProductVerdict:
    in_class: bool                       # the criterion's verdict
    direct: bool                         # direct membership test of the product
    witness: object = None               # alpha, scalar, or a (left, right) pair
    lhs_residual: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return self.in_class == self.direct


# ---------------------------------------------------------------------------
# the conjugation dictionary


def equivalence_transforms(u: InnerFunction, v: InnerFunction,
                           phi: RationalSymbol) -> dict[str, float]:
    """Both sides of the eight conjugation identities; max-entry discrepancies.

    Left sides are compositions of built operators with the antilinear
    symmetries; right sides are single operators with exactly transformed
    symbols.
    """
    A = tto_matrix(u, v, phi)
    B = tho_matrix(u, v, phi)
    cu, cv = conjugation_C(u), conjugation_C(v)
    uv = conjugation_U(v)                  # K_v -> K_vhat
    uuh = conjugation_U(u.hat())           # K_uhat -> K_u
    ubar = u.conj_symbol()
    usym = u.as_symbol()
    vsym = v.as_symbol()
    vhat = v.hat()

    def gap(lhs: OperatorMatrix, rhs: OperatorMatrix) -> float:
        return float(np.max(np.abs(lhs.matrix - rhs.matrix)))

    out = {
        "tto_natural_sandwich": gap(
            cv @ A @ cu, tto_matrix(u, v, ubar * vsym * phi.conj_circle())),
        "tto_hat_sandwich": gap(
            uv @ A @ uuh, tto_matrix(u.hat(), v.hat(), phi.hat())),
        "tho_natural_sandwich": gap(
            cv @ B @ cu, tho_matrix(u, v, (usym * vhat.as_symbol() * phi).conj_circle())),
        "tho_hat_sandwich": gap(
            uv @ B @ uuh, tho_matrix(u.hat(), v.hat(), phi.hat())),
        "tto_to_tho_left": gap(
            cv @ A @ uuh, tho_matrix(u.hat(), v, vhat.conj_symbol() * phi.hat())),
        "tto_to_tho_right": gap(
            uv @ A @ cu, tho_matrix(u, v.hat(), ubar * phi.conj_circle())),
        "tho_to_tto_left": gap(
            uv @ B @ cu, tto_matrix(u, v.hat(), (usym * phi).conj_circle())),
        "tho_to_tto_right": gap(
            cv @ B @ uuh, tto_matrix(u.hat(), v, vsym * phi.hat())),
    }
    return out


def membership_transports(u: InnerFunction, v: InnerFunction,
                          M: OperatorMatrix) -> dict[str, tuple[bool, bool]]:
    """The six membership-preserving transports applied to an arbitrary operator.

    Each entry is (membership before, membership after); they must agree.
    """
    cu, cv = conjugation_C(u), conjugation_C(v)
    uv = conjugation_U(v)
    uuh = conjugation_U(u.hat())
    t_orig = is_tto(M, recover=False).is_member
    h_orig = is_tho(M, recover=False).is_member
    return {
        "tto_natural": (t_orig, is_tto(cv @ M @ cu, recover=False).is_member),
        "tho_natural": (h_orig, is_tho(cv @ M @ cu, recover=False).is_member),
        "tto_hat": (t_orig, is_tto(uv @ M @ uuh, recover=False).is_member),
        "tho_hat": (h_orig, is_tho(uv @ M @ uuh, recover=False).is_member),
        "tto_to_tho": (t_orig, is_tho(cv @ M @ uuh, recover=False).is_member),
        "tho_to_tto": (h_orig, is_tto(uv @ M @ cu, recover=False).is_member),
    }


def hat_transport_checks(u: InnerFunction, alpha, phi: SpaceElement, c=0.0,
                         tol: float = 1e-6) -> dict:
    """Class transport under the coefficient conjugation, plus the two
    operator identities tying the perturbed shifts across the hat spaces."""
    alpha = ExtendedScalar.of(alpha)
    A = sedlock_op(u, alpha, phi, c)
    moved = conjugation_U(u) @ A @ conjugation_U(u.hat())
    rep = sedlock_class(moved)
    if alpha.is_infinity:
        transported_ok = rep.membership == "infinity"
    else:
        transported_ok = rep.membership == "finite" and rep.alpha.isclose(
            alpha.conjugate(), tol)
    out = {"transported_class": rep, "transport_ok": transported_ok}
    if not alpha.is_infinity and alpha.modulus() <= 1.0:
        a = alpha.value
        lhs = conjugation_U(u.hat()) @ clark_perturbation(u.hat(), a) @ conjugation_U(u)
        rhs = clark_perturbation(u, np.conj(a))
        out["shift_transport_residual"] = float(np.max(np.abs(lhs.matrix - rhs.matrix)))
        cu = conjugation_C(u)
        sa = clark_perturbation(u, a)
        out["shift_conjugation_residual"] = float(
            np.max(np.abs((cu @ sa @ cu).matrix - sa.adjoint().matrix)))
    return out


def involution_identity_checks(u: InnerFunction, alpha, v: InnerFunction,
                               phi: RationalSymbol) -> dict[str, float]:
    """Residuals of the identities satisfied by the real-symmetric involution
    and the two mixed conjugation-Hankel identities on a second space."""
    if not u.is_real_symmetric():
        raise NotRealSymmetric("involution identities need a real symmetric generator")
    dop = symmetric_involution(u)
    n = u.degree
    out = {
        "involution_vs_hankel": float(np.max(np.abs(
            dop.matrix - tho_matrix(u, u, u.conj_symbol()).matrix))),
        "involution_squared": float(np.max(np.abs((dop @ dop).matrix - np.eye(n)))),
        "involution_self_adjoint": float(np.max(np.abs(
            dop.matrix - dop.adjoint().matrix))),
    }
    a = ExtendedScalar.of(alpha)
    if not a.is_infinity and a.modulus() <= 1.0:
        sa = clark_perturbation(u, a.value)
        sac = clark_perturbation(u, np.conj(a.value))
        out["involution_shift_swap"] = float(np.max(np.abs(
            (dop @ sa).matrix - (sac.adjoint() @ dop).matrix)))
    bu = tho_matrix(u, u, phi)
    out["involution_hankel_left"] = float(np.max(np.abs(
        (dop @ bu).matrix - tto_matrix(u, u, u.as_symbol() * phi).matrix)))
    out["involution_hankel_right"] = float(np.max(np.abs(
        (bu @ dop).matrix - tto_matrix(u, u, (u.as_symbol() * phi.hat()).conj_circle()).matrix)))
    # mixed identities across a second space
    buv = tho_matrix(u, v, phi)
    lhs1 = conjugation_C(v.hat()) @ (conjugation_U(v) @ buv)
    rhs1 = tto_matrix(u, v.hat(), v.hat().as_symbol() * phi)
    out["mixed_left"] = float(np.max(np.abs(lhs1.matrix - rhs1.matrix)))
    lhs2 = buv @ conjugation_C(u) @ conjugation_U(u.hat())
    rhs2 = tto_matrix(u.hat(), v, (u.hat().as_symbol() * phi.hat()).conj_circle())
    out["mixed_right"] = float(np.max(np.abs(lhs2.matrix - rhs2.matrix)))
    return out


# ---------------------------------------------------------------------------
# product criteria


def atto_product_test(A: OperatorMatrix, B: OperatorMatrix,
                      tol: float = MEMBERSHIP_TOL) -> ProductVerdict:
    """Criterion for a product of two Toeplitz operators to stay Toeplitz.

    A maps K_v into K_w and B maps K_u into K_v.  The condition matrix
    (analytic part of A) (x) (conjugate part of B)
      - P_w[v * symbol(A)] (x) P_u[v * conj(symbol(B))]
    must split as left (x) k0 + k0 (x) right.
    """
    v = A.domain.generator
    w = A.codomain.generator
    u = B.domain.generator
    if B.codomain.generator != v:
        raise NotTTO("factors do not compose through a common middle space")
    mA = is_tto(A)
    mB = is_tto(B)
    if not (mA.is_member and mB.is_member):
        raise SymbolRecoveryFailed("factors are not Toeplitz; no symbol parts")
    vsym = v.as_symbol()
    f2 = project(w, vsym * mA.symbol)
    g2 = project(u, vsym * mB.symbol.conj_circle())
    cond = rank_one(mA.analytic_part, mB.conjugate_part) - rank_one(f2, g2)
    dec = cross_decompose(cond, kernel(u, 0.0), kernel(w, 0.0), tol)
    direct = is_tto(A @ B, recover=False).is_member
    return ProductVerdict(dec.success, direct, (dec.left, dec.right), dec.residual_norm)


def _involution_scalar_fit(B: OperatorMatrix, dop: OperatorMatrix):
    c = complex(np.vdot(dop.matrix, B.matrix)) / complex(np.vdot(dop.matrix, dop.matrix))
    res = float(np.linalg.norm(B.matrix - c * dop.matrix))
    return c, res


def tho_product_tto_test(B1: OperatorMatrix, B2: OperatorMatrix,
                         tol: float = MEMBERSHIP_TOL) -> ProductVerdict:
    """Criterion for a product of two Hankel operators to be Toeplitz.

    Either one factor is a scalar multiple of the involution, or shifting
    each factor by the involution lands both in one common class; in that
    case the product itself belongs to that class.
    """
    u = B1.domain.generator
    if not u.is_real_symmetric():
        raise NotRealSymmetric("the Hankel product criterion needs real symmetry")
    for Bi in (B1, B2):
        if not is_tho(Bi, recover=False).is_member:
            raise NotTHO("factor is not a truncated Hankel operator")
    dop = symmetric_involution(u)
    scale1 = max(1.0, float(np.linalg.norm(B1.matrix)))
    scale2 = max(1.0, float(np.linalg.norm(B2.matrix)))
    c1, r1 = _involution_scalar_fit(B1, dop)
    c2, r2 = _involution_scalar_fit(B2, dop)
    details: dict = {}
    direct = is_tto(B1 @ B2, recover=False).is_member
    if r1 < tol * scale1 or r2 < tol * scale2:
        c = c1 if r1 < tol * scale1 else c2
        details["case"] = "scalar"
        return ProductVerdict(True, direct, c, min(r1, r2), details)
    rep1 = sedlock_class(B1 @ dop)
    rep2 = sedlock_class(dop @ B2)
    match = rep1.matches(rep2)
    alpha = rep1.alpha if rep1.membership in ("finite", "infinity") else rep2.alpha
    details.update({"case": "common-class", "left_class": rep1, "right_class": rep2})
    if match and alpha is not None:
        prod_rep = sedlock_class(B1 @ B2)
        details["product_class"] = prod_rep
    residual = max(rep1.commutator_residual, rep2.commutator_residual)
    return ProductVerdict(match, direct, alpha if match else None, residual, details)


@dataclass
class SymbolFormCertificates:
    alpha: ExtendedScalar
    left_residual: float
    right_residual: float
    regime: str
    left_multiplier: np.ndarray | None = None
    right_multiplier: np.ndarray | None = None
    product_residual: float | None = None


def tho_product_symbol_forms(B1: OperatorMatrix, B2: OperatorMatrix,
                             rebuild_tol: float = 1e-8) -> SymbolFormCertificates:
    """Solve the class-form symbol congruences for a Hankel pair whose
    product is Toeplitz, and (inside and outside the disk) the polynomial
    multipliers of `classify.class_multipliers` together with the product
    identity B1 B2 = functional_calculus(u, alpha, p1 p2).

    Scalar multiples of the involution are outside the hypothesis and raise.
    """
    u = B1.domain.generator
    verdict = tho_product_tto_test(B1, B2)
    if verdict.details.get("case") == "scalar":
        raise NoCertificate("a factor is a scalar multiple of the involution")
    if not verdict.in_class:
        raise NoCertificate("factors do not share a class")
    alpha = verdict.witness
    left_terms, right_terms = class_form_terms(B1.domain, alpha)
    _, lres = class_form_fit(B1, left_terms)
    _, rres = class_form_fit(B2, right_terms)
    if max(lres, rres) >= rebuild_tol * max(
            1.0, float(np.linalg.norm(B1.matrix)), float(np.linalg.norm(B2.matrix))):
        raise NoCertificate(f"class-form rebuild residuals {lres:g}, {rres:g}")
    mod = alpha.modulus()
    regime = ("infinity" if alpha.is_infinity else "unimodular" if abs(mod - 1.0) < 1e-6
              else "inside" if mod < 1.0 else "outside")
    cert = SymbolFormCertificates(alpha, lres, rres, regime)
    if regime in ("infinity", "unimodular"):
        return cert

    # polynomial multipliers away from the unimodular circle: B1 D and D B2
    # are p1 and p2 of the class's shift perturbation, and B1 B2 is p1 p2 of it
    dop = symmetric_involution(u)
    _, (p1, p2), _ = class_multipliers(alpha, B1 @ dop, dop @ B2)
    cert.left_multiplier = p1
    cert.right_multiplier = p2
    prod = functional_calculus(u, alpha, RationalSymbol.polynomial(
        np.polynomial.polynomial.polymul(p1, p2)))
    cert.product_residual = float(np.max(np.abs(prod.matrix - (B1 @ B2).matrix)))
    if cert.product_residual >= 1e-8 * max(1.0, float(np.linalg.norm(prod.matrix))):
        raise NoCertificate(f"product symbol residual {cert.product_residual:g}")
    return cert


def mixed_product_test(A: OperatorMatrix, B: OperatorMatrix, order: str = "AB",
                       tol: float = MEMBERSHIP_TOL) -> ProductVerdict:
    """Criterion for a Toeplitz-Hankel mixed product to be Hankel.

    order "AB" tests Toeplitz-then-Hankel composition A o B reading right to
    left (A applied second); order "BA" the reverse.  Either a factor is
    scalar (identity multiple for A, involution multiple for B) or A's class
    matches the involution-shifted class of B on the appropriate side.
    """
    u = A.domain.generator
    if not u.is_real_symmetric():
        raise NotRealSymmetric("the mixed product criterion needs real symmetry")
    if not is_tto(A, recover=False).is_member:
        raise NotTTO("first factor is not a truncated Toeplitz operator")
    if not is_tho(B, recover=False).is_member:
        raise NotTHO("second factor is not a truncated Hankel operator")
    dop = symmetric_involution(u)
    n = u.degree
    trace_scalar = complex(np.trace(A.matrix)) / n
    rA_scalar = float(np.linalg.norm(A.matrix - trace_scalar * np.eye(n)))
    cB, rB_scalar = _involution_scalar_fit(B, dop)
    prod = A @ B if order == "AB" else B @ A
    direct = is_tho(prod, recover=False).is_member
    details: dict = {"order": order}
    if rA_scalar < tol * max(1.0, float(np.linalg.norm(A.matrix))):
        details["case"] = "scalar-toeplitz"
        return ProductVerdict(True, direct, trace_scalar, rA_scalar, details)
    if rB_scalar < tol * max(1.0, float(np.linalg.norm(B.matrix))):
        details["case"] = "scalar-hankel"
        return ProductVerdict(True, direct, cB, rB_scalar, details)
    repA = sedlock_class(A)
    repB = sedlock_class(B @ dop if order == "AB" else dop @ B)
    match = repA.matches(repB)
    alpha = repA.alpha if repA.membership in ("finite", "infinity") else repB.alpha
    details.update({"case": "common-class", "toeplitz_class": repA, "hankel_class": repB})
    residual = max(repA.commutator_residual, repB.commutator_residual)
    return ProductVerdict(match, direct, alpha if match else None, residual, details)


def atho_product_tto_test(phi1: RationalSymbol, phi2: RationalSymbol,
                          u: InnerFunction, v: InnerFunction, w: InnerFunction,
                          tol: float = MEMBERSHIP_TOL) -> ProductVerdict:
    """Criterion for a product of two asymmetric Hankel operators to be Toeplitz.

    phi1 conjugates into the model space of v * hat(w), phi2 into that of
    u * hat(v) (certified; SymbolNotInClass otherwise).  The condition
    matrix pairs the conjugation-transported symbols against their bare
    projections and must cross-decompose at the kernels at zero.  The
    rank-one factors act between the model spaces, so each factor enters
    through its projection.
    """
    embed(v * w.hat(), phi1.conj_circle(), tol=1e-9)
    embed(u * v.hat(), phi2.conj_circle(), tol=1e-9)
    vhat = v.hat().as_symbol()
    f1 = project(w, (vhat * phi1.hat()).conj_circle())
    g1 = project(u, (vhat * phi2).conj_circle())
    f2 = project(w, phi1.hat().conj_circle())
    g2 = project(u, phi2.conj_circle())
    cond = rank_one(f1, g1) - rank_one(f2, g2)
    dec = cross_decompose(cond, kernel(u, 0.0), kernel(w, 0.0), tol)
    prod = tho_matrix(v, w, phi1) @ tho_matrix(u, v, phi2)
    direct = is_tto(prod, recover=False).is_member
    return ProductVerdict(dec.success, direct, (dec.left, dec.right), dec.residual_norm)


def symmetric_witness(dec_left: SpaceElement, dec_right: SpaceElement,
                      anchor: SpaceElement):
    """Re-gauge a cross decomposition with equal anchors into equal witnesses.

    The pair (left + s*anchor, right - conj(s)*anchor) spans the solution
    family; when a symmetric solution exists only the real part of s along
    the anchor matters.
    """
    diff = dec_left.coords - dec_right.coords
    a = anchor.coords
    t = -float(np.real(np.vdot(a, diff))) / float(np.vdot(a, a).real)
    left = dec_left.coords + (t / 2.0) * a
    right = dec_right.coords - (t / 2.0) * a
    gap = float(np.max(np.abs(left - right)))
    return SpaceElement(anchor.space, (left + right) / 2.0), gap


def atho_atto_product_test(phi: RationalSymbol, psi1: SpaceElement, psi2: SpaceElement,
                           u: InnerFunction, v: InnerFunction, w: InnerFunction,
                           order: str = "hankel_toeplitz",
                           tol: float = MEMBERSHIP_TOL) -> ProductVerdict:
    """Criterion for a mixed asymmetric Hankel/Toeplitz product to stay Hankel.

    order "hankel_toeplitz": the Hankel factor (symbol phi, from K_v to K_w)
    composed after the Toeplitz factor (parts psi1 in K_v, psi2 in K_u).
    order "toeplitz_hankel": Toeplitz factor (parts psi1 in K_w, psi2 in
    K_v) composed after the Hankel factor (symbol phi, from K_u to K_v).
    """
    vsym = v.as_symbol()
    vbar = v.conj_symbol()
    if order == "hankel_toeplitz":
        embed(v * w.hat(), phi.conj_circle(), tol=1e-9)
        f1 = project(w.hat(), (vsym * phi).conj_circle())
        g1 = project(u, vbar * u.as_symbol() * psi1.rep())
        f2 = project(w.hat(), phi.conj_circle())
        g2 = shift(u).apply(conjugation_C(u).apply(psi2))
        cond = rank_one(f1, g1) - rank_one(f2, g2)
        dec = cross_decompose(cond, kernel(u, 0.0), kernel(w.hat(), 0.0), tol)
        prod = tho_matrix(v, w, phi) @ tto_matrix(
            u, v, psi1.rep() + psi2.rep().conj_circle())
    elif order == "toeplitz_hankel":
        embed(u * v.hat(), phi.conj_circle(), tol=1e-9)
        f1 = project(u.hat(), (vsym * phi.hat()).conj_circle())
        g1 = project(w, vbar * w.as_symbol() * psi2.rep())
        f2 = project(u.hat(), phi.hat().conj_circle())
        g2 = shift(w).apply(conjugation_C(w).apply(psi1))
        cond = rank_one(f1, g1) - rank_one(f2, g2)
        dec = cross_decompose(cond, kernel(w, 0.0), kernel(u.hat(), 0.0), tol)
        prod = tto_matrix(v, w, psi1.rep() + psi2.rep().conj_circle()) @ tho_matrix(
            u, v, phi)
    else:
        raise ValueError(f"unknown order {order!r}")
    direct = is_tho(prod, recover=False).is_member
    return ProductVerdict(dec.success, direct, (dec.left, dec.right), dec.residual_norm)


def membership_transport_chain(phi1: RationalSymbol, phi2: RationalSymbol,
                               u: InnerFunction, v: InnerFunction,
                               w: InnerFunction) -> dict[str, tuple[bool, ...]]:
    """Two four-way equivalence chains for a Hankel-Hankel product.

    The product of the two Hankel factors, and three conjugation-transported
    Toeplitz/Hankel composites, must agree on membership: once for the
    Hankel class of the product and once for the Toeplitz class.
    """
    uh, vh, wh = u.hat(), v.hat(), w.hat()
    usym, vsym, wsym = u.as_symbol(), v.as_symbol(), w.as_symbol()
    bb = tho_matrix(v, w, phi1) @ tho_matrix(u, v, phi2)
    aa_1 = tto_matrix(vh, w, wsym * phi1.hat()) @ tto_matrix(
        u, vh, (usym * phi2).conj_circle())
    aa_2 = tto_matrix(v, wh, (vsym * phi1).conj_circle()) @ tto_matrix(
        uh, v, vsym * phi2.hat())
    ab = tto_matrix(v, wh, (vsym * phi1).conj_circle()) @ tho_matrix(
        u, v, (usym * vh.as_symbol() * phi2).conj_circle())
    hankel_chain = (
        is_tho(bb, recover=False).is_member,
        is_tho(aa_1, recover=False).is_member,
        is_tho(aa_2, recover=False).is_member,
        is_tto(ab, recover=False).is_member,
    )
    ba = tho_matrix(v, w, (vsym * wh.as_symbol() * phi1).conj_circle()) @ tto_matrix(
        uh, v, vsym * phi2.hat())
    toeplitz_chain = (
        is_tto(bb, recover=False).is_member,
        is_tto(aa_1, recover=False).is_member,
        is_tto(aa_2, recover=False).is_member,
        is_tho(ba, recover=False).is_member,
    )
    return {"hankel": hankel_chain, "toeplitz": toeplitz_chain}
