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
The asymmetric Hankel criteria take each symbol conj(psi) as the element psi,
whose basis carries its pair, and read the generators off their operands:
projections that are coordinate blocks of psi are read off, the others pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blaschke import ExtendedScalar, InnerFunction
from .classify import (
    _within,
    class_multipliers,
    cross_decompose,
    is_tho,
    is_tto,
    require_symmetric,
    require_tho,
    require_tto,
    scalar_multiple,
    sedlock_class,
    PARAMETER_TOL,
    REBUILD_TOL,
)
from .errors import NoCertificate, NotTTO, SpaceMismatch, SymbolRecoveryFailed
from .modelspace import (
    OperatorMatrix,
    SpaceElement,
    _hankel_parts,
    hankel_symbol,
    project,
    symbol_blocks,
    tm_basis,
)
from .operators import (
    _element_tho,
    _sarason_tto,
    clark_perturbation,
    functional_calculus,
    rank_one,
    sedlock_op,
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


def _gap(lhs: OperatorMatrix, rhs: OperatorMatrix) -> float:
    """The largest entry of lhs - rhs."""
    return float(np.max(np.abs(lhs.matrix - rhs.matrix)))


def equivalence_transforms(u: InnerFunction, v: InnerFunction,
                           phi: RationalSymbol) -> dict[str, float]:
    """Both sides of the eight conjugation identities; max-entry discrepancies.

    Left sides are compositions of built operators with the antilinear
    symmetries; right sides are single operators with exactly transformed
    symbols.
    """
    A = tto_matrix(u, v, phi)
    B = tho_matrix(u, v, phi)
    cu, cv = A.domain.conjugation_C, A.codomain.conjugation_C
    uv = A.codomain.conjugation_U                           # K_v -> K_vhat
    uuh = A.domain.conjugation_U.codomain.conjugation_U     # K_uhat -> K_u
    ubar = u.conj_symbol()
    usym = u.as_symbol()
    vsym = v.as_symbol()
    vhat = v.hat()
    return {
        "tto_natural_sandwich": _gap(
            cv @ A @ cu, tto_matrix(u, v, ubar * vsym * phi.conj_circle())),
        "tto_hat_sandwich": _gap(
            uv @ A @ uuh, tto_matrix(u.hat(), v.hat(), phi.hat())),
        "tho_natural_sandwich": _gap(
            cv @ B @ cu, tho_matrix(u, v, (usym * vhat.as_symbol() * phi).conj_circle())),
        "tho_hat_sandwich": _gap(
            uv @ B @ uuh, tho_matrix(u.hat(), v.hat(), phi.hat())),
        "tto_to_tho_left": _gap(
            cv @ A @ uuh, tho_matrix(u.hat(), v, vhat.conj_symbol() * phi.hat())),
        "tto_to_tho_right": _gap(
            uv @ A @ cu, tho_matrix(u, v.hat(), ubar * phi.conj_circle())),
        "tho_to_tto_left": _gap(
            uv @ B @ cu, tto_matrix(u, v.hat(), (usym * phi).conj_circle())),
        "tho_to_tto_right": _gap(
            cv @ B @ uuh, tto_matrix(u.hat(), v, vsym * phi.hat())),
    }


def membership_transports(M: OperatorMatrix) -> dict[str, tuple[bool, bool]]:
    """The six membership-preserving transports applied to an arbitrary operator.

    Each entry is (membership before, membership after); they must agree.
    """
    su, sv = M.domain, M.codomain
    cu, cv = su.conjugation_C, sv.conjugation_C
    uv = sv.conjugation_U
    uuh = su.conjugation_U.codomain.conjugation_U
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


def hat_transport_checks(alpha, phi: SpaceElement, c=0.0) -> dict:
    """Class transport under the coefficient conjugation on phi's space K_u, plus
    the two operator identities tying the perturbed shifts across the hat spaces."""
    alpha = ExtendedScalar.of(alpha)
    u = phi.space.generator
    A = sedlock_op(u, alpha, phi, c)
    uu = A.domain.conjugation_U                 # K_u -> K_uhat
    uuh = uu.codomain.conjugation_U             # K_uhat -> K_u
    moved = uu @ A @ uuh
    rep = sedlock_class(moved)
    if alpha.is_infinity:
        transported_ok = rep.membership == "infinity"
    else:
        transported_ok = rep.membership == "finite" and rep.alpha.isclose(
            alpha.conjugate(), PARAMETER_TOL)
    out = {"transported_class": rep, "transport_ok": transported_ok}
    if not alpha.is_infinity and alpha.modulus() <= 1.0:
        a = alpha.value
        lhs = uuh @ clark_perturbation(uu.codomain, a) @ uu
        rhs = clark_perturbation(A.domain, np.conj(a))
        out["shift_transport_residual"] = _gap(lhs, rhs)
        cu = A.domain.conjugation_C
        sa = clark_perturbation(A.domain, a)
        out["shift_conjugation_residual"] = _gap(cu @ sa @ cu, sa.adjoint())
    return out


def involution_identity_checks(u: InnerFunction, alpha, v: InnerFunction,
                               phi: RationalSymbol) -> dict[str, float]:
    """Residuals of the identities satisfied by the real-symmetric involution
    and the two mixed conjugation-Hankel identities on a second space."""
    require_symmetric(u, "involution_identity_checks")
    space = tm_basis(u)
    dop = space.symmetric_involution
    n = u.degree
    out = {
        "involution_vs_hankel": _gap(dop, tho_matrix(u, u, u.conj_symbol())),
        "involution_squared": float(np.max(np.abs((dop @ dop).matrix - np.eye(n)))),
        "involution_self_adjoint": _gap(dop, dop.adjoint()),
    }
    a = ExtendedScalar.of(alpha)
    if not a.is_infinity and a.modulus() <= 1.0:
        sa = clark_perturbation(space, a.value)
        sac = clark_perturbation(space, np.conj(a.value))
        out["involution_shift_swap"] = _gap(dop @ sa, sac.adjoint() @ dop)
    bu = tho_matrix(u, u, phi)
    out["involution_hankel_left"] = _gap(dop @ bu, tto_matrix(u, u, u.as_symbol() * phi))
    out["involution_hankel_right"] = _gap(
        bu @ dop, tto_matrix(u, u, (u.as_symbol() * phi.hat()).conj_circle()))
    # mixed identities across a second space
    buv = tho_matrix(u, v, phi)
    uv = buv.codomain.conjugation_U             # K_v -> K_vhat
    lhs1 = uv.codomain.conjugation_C @ (uv @ buv)
    rhs1 = tto_matrix(u, v.hat(), v.hat().as_symbol() * phi)
    out["mixed_left"] = _gap(lhs1, rhs1)
    lhs2 = buv @ space.conjugation_C @ space.conjugation_U.codomain.conjugation_U
    rhs2 = tto_matrix(u.hat(), v, (u.hat().as_symbol() * phi.hat()).conj_circle())
    out["mixed_right"] = _gap(lhs2, rhs2)
    return out


# ---------------------------------------------------------------------------
# product criteria


def atto_product_test(A: OperatorMatrix, B: OperatorMatrix) -> ProductVerdict:
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
    mA, mB = is_tto(A), is_tto(B)
    if not (mA.is_member and mB.is_member):
        raise SymbolRecoveryFailed("factors are not Toeplitz; no symbol parts")
    vsym = v.as_symbol()
    f2 = project(w, vsym * mA.symbol)
    g2 = project(u, vsym * mB.symbol.conj_circle())
    cond = rank_one(mA.analytic_part, mB.conjugate_part) - rank_one(f2, g2)
    dec = cross_decompose(cond, cond.domain.kernel0, cond.codomain.kernel0)
    direct = is_tto(A @ B, recover=False).is_member
    return ProductVerdict(dec.success, direct, (dec.left, dec.right), dec.residual_norm)


def tho_product_tto_test(B1: OperatorMatrix, B2: OperatorMatrix) -> ProductVerdict:
    """Criterion for a product of two Hankel operators to be Toeplitz.

    Either one factor is a scalar multiple of the involution, or shifting
    each factor by the involution lands both in one common class; in that
    case the product itself belongs to that class.
    """
    u = B1.domain.generator
    require_symmetric(u, "tho_product_tto_test")
    require_tho(B1, "tho_product_tto_test")
    require_tho(B2, "tho_product_tto_test")
    dop = B1.domain.symmetric_involution
    c1, r1, scalar1 = scalar_multiple(B1, dop)
    c2, r2, scalar2 = scalar_multiple(B2, dop)
    direct = is_tto(B1 @ B2, recover=False).is_member
    if scalar1 or scalar2:
        return ProductVerdict(True, direct, c1 if scalar1 else c2, min(r1, r2), {"case": "scalar"})
    rep1 = sedlock_class(B1 @ dop)
    rep2 = sedlock_class(dop @ B2)
    match = rep1.matches(rep2)
    alpha = rep1.common_alpha(rep2)
    details = {"case": "common-class", "left_class": rep1, "right_class": rep2}
    if match and alpha is not None:
        details["product_class"] = sedlock_class(B1 @ B2)
    residual = max(rep1.commutator_residual, rep2.commutator_residual)
    return ProductVerdict(match, direct, alpha if match else None, residual, details)


@dataclass
class SymbolFormCertificates:
    alpha: ExtendedScalar
    left_residual: float
    right_residual: float
    regime: str
    left_multiplier: np.ndarray
    right_multiplier: np.ndarray
    product_residual: float


def tho_product_symbol_forms(B1: OperatorMatrix, B2: OperatorMatrix) -> SymbolFormCertificates:
    """Certify the class forms of a Hankel pair whose product is Toeplitz.

    B1 D and D B2 are members of the common class alpha, p1 and p2 of its
    shift perturbation (adjoints outside the disk); the residuals of
    `classify.class_multipliers` certify both, and B1 B2 =
    functional_calculus(u, alpha, p1 p2) certifies the product, in every
    regime.  Scalar multiples of the involution are outside the hypothesis
    and raise.
    """
    u = B1.domain.generator
    verdict = tho_product_tto_test(B1, B2)
    if verdict.details.get("case") == "scalar":
        raise NoCertificate("a factor is a scalar multiple of the involution")
    if not verdict.in_class:
        raise NoCertificate("factors do not share a class")
    alpha = verdict.witness
    dop = B1.domain.symmetric_involution
    _, (p1, p2), (lres, rres) = class_multipliers(alpha, B1 @ dop, dop @ B2)
    if not all(_within(r, REBUILD_TOL, B1.matrix, B2.matrix) for r in (lres, rres)):
        raise NoCertificate(f"class-multiplier rebuild residuals {lres:g}, {rres:g}")
    mod = alpha.modulus()
    regime = ("infinity" if alpha.is_infinity else "unimodular" if abs(mod - 1.0) < PARAMETER_TOL
              else "inside" if mod < 1.0 else "outside")
    prod = functional_calculus(u, alpha, RationalSymbol.polynomial(
        np.polynomial.polynomial.polymul(p1, p2)))
    presid = _gap(prod, B1 @ B2)
    if not _within(presid, 1e-8, prod.matrix):
        raise NoCertificate(f"product symbol residual {presid:g}")
    return SymbolFormCertificates(alpha, lres, rres, regime, p1, p2, presid)


def mixed_product_test(A: OperatorMatrix, B: OperatorMatrix, order: str = "AB") -> ProductVerdict:
    """Criterion for a Toeplitz-Hankel mixed product to be Hankel.

    order "AB" tests Toeplitz-then-Hankel composition A o B reading right to
    left (A applied second); order "BA" the reverse.  Either a factor is
    scalar (identity multiple for A, involution multiple for B) or A's class
    matches the involution-shifted class of B on the appropriate side.
    """
    u = A.domain.generator
    require_symmetric(u, "mixed_product_test")
    require_tto(A, "mixed_product_test")
    require_tho(B, "mixed_product_test")
    dop = A.domain.symmetric_involution
    cA, rA, scalarA = scalar_multiple(A, OperatorMatrix.identity(A.domain))
    cB, rB, scalarB = scalar_multiple(B, dop)
    prod = A @ B if order == "AB" else B @ A
    direct = is_tho(prod, recover=False).is_member
    if scalarA or scalarB:
        case, c, r = ("scalar-toeplitz", cA, rA) if scalarA else ("scalar-hankel", cB, rB)
        return ProductVerdict(True, direct, c, r, {"order": order, "case": case})
    repA = sedlock_class(A)
    repB = sedlock_class(B @ dop if order == "AB" else dop @ B)
    match = repA.matches(repB)
    alpha = repA.common_alpha(repB)
    details = {"order": order, "case": "common-class", "toeplitz_class": repA,
               "hankel_class": repB}
    residual = max(repA.commutator_residual, repB.commutator_residual)
    return ProductVerdict(match, direct, alpha if match else None, residual, details)


def atho_product_tto_test(psi1: SpaceElement, psi2: SpaceElement) -> ProductVerdict:
    """Criterion for a product of two asymmetric Hankel operators to be Toeplitz.

    The factors are conj(psi1), K_v -> K_w, and conj(psi2), K_u -> K_v, for
    psi1 in `hankel_space(v, w)` and psi2 in `hankel_space(u, v)`, which give
    u, v and w (another middle space raises SpaceMismatch).  The condition
    matrix pairs the conjugation-transported symbols against their bare
    projections and must cross-decompose at the kernels at zero.  P_u psi2 and
    P_w hat(conj(v) psi1), the hat of a block, are coordinate reads.
    """
    mid, _, cod = _hankel_parts(psi1)
    dom, _, mid2 = _hankel_parts(psi2)
    if mid != mid2:
        raise SpaceMismatch("the Hankel factors do not compose through a common middle space")
    u, v, w = dom.generator, mid.generator, cod.generator
    _, tail1 = symbol_blocks(psi1)
    g2, _ = symbol_blocks(psi2)
    sym1, sym2 = hankel_symbol(psi1), hankel_symbol(psi2)
    f1 = tail1.space.conjugation_U.apply(tail1)
    g1 = project(u, v.hat().conj_symbol() * sym2)
    f2 = project(w, sym1.hat())
    cond = rank_one(f1, g1) - rank_one(f2, g2)
    dec = cross_decompose(cond, cond.domain.kernel0, cond.codomain.kernel0)
    prod = _element_tho(psi1) @ _element_tho(psi2)
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


def atho_atto_product_test(psi: SpaceElement, psi1: SpaceElement, psi2: SpaceElement,
                           order: str = "hankel_toeplitz") -> ProductVerdict:
    """Criterion for a mixed asymmetric Hankel/Toeplitz product to stay Hankel.

    order "hankel_toeplitz": the Hankel factor (symbol conj(psi), psi in
    `hankel_space(v, w)`, from K_v to K_w) after the Toeplitz factor (parts
    psi1 in K_v, psi2 in K_u), with P_hat(w)(conj(v) psi) read off psi.  Order
    "toeplitz_hankel": the Toeplitz factor (parts psi1 in K_w, psi2 in K_v)
    after the Hankel factor (psi in `hankel_space(u, v)`, from K_u to K_v),
    with P_hat(u) hat(psi) read off psi.  u, v and w are read off the operands,
    and a Toeplitz part outside psi's middle space raises SpaceMismatch.
    """
    if order == "hankel_toeplitz":
        mid, _, cod = _hankel_parts(psi)
        dom, middle_part = psi2.space, psi1
    elif order == "toeplitz_hankel":
        dom, _, mid = _hankel_parts(psi)
        cod, middle_part = psi1.space, psi2
    else:
        raise ValueError(f"unknown order {order!r}")
    if middle_part.space != mid:
        raise SpaceMismatch("the Toeplitz factor does not compose through psi's middle space")
    u, v, w = dom.generator, mid.generator, cod.generator
    vbar = v.conj_symbol()
    head, tail = symbol_blocks(psi)
    sym = hankel_symbol(psi)
    if order == "hankel_toeplitz":
        f1 = tail
        g1 = project(u, vbar * u.as_symbol() * psi1.rep())
        f2 = project(w.hat(), sym)
        g2 = dom.shift.apply(dom.conjugation_C.apply(psi2))
        prod = _element_tho(psi) @ _sarason_tto(dom, mid, psi1, psi2)
    else:
        f1 = project(u.hat(), vbar * sym.hat())
        g1 = project(w, vbar * w.as_symbol() * psi2.rep())
        f2 = dom.conjugation_U.apply(head)
        g2 = cod.shift.apply(cod.conjugation_C.apply(psi1))
        prod = _sarason_tto(mid, cod, psi1, psi2) @ _element_tho(psi)
    cond = rank_one(f1, g1) - rank_one(f2, g2)
    dec = cross_decompose(cond, cond.domain.kernel0, cond.codomain.kernel0)
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
    # the two Toeplitz factors of aa_2 are shared with ab and ba
    left = tto_matrix(v, wh, (vsym * phi1).conj_circle())
    right = tto_matrix(uh, v, vsym * phi2.hat())
    aa_2 = left @ right
    ab = left @ tho_matrix(u, v, (usym * vh.as_symbol() * phi2).conj_circle())
    hankel_chain = (
        is_tho(bb, recover=False).is_member,
        is_tho(aa_1, recover=False).is_member,
        is_tho(aa_2, recover=False).is_member,
        is_tto(ab, recover=False).is_member,
    )
    ba = tho_matrix(v, w, (vsym * wh.as_symbol() * phi1).conj_circle()) @ right
    toeplitz_chain = (
        is_tto(bb, recover=False).is_member,
        is_tto(aa_1, recover=False).is_member,
        is_tto(aa_2, recover=False).is_member,
        is_tho(ba, recover=False).is_member,
    )
    return {"hankel": hankel_chain, "toeplitz": toeplitz_chain}
