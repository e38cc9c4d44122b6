"""Inverse problems for truncated Toeplitz and Hankel operators.

Given a tagged matrix: decide whether it is a (asymmetric) truncated
Toeplitz or Hankel operator, recover a symbol when it is, detect which
Sedlock class a Toeplitz operator belongs to, and produce the structural
reports (unitary equivalences, inverses, zero products) for Hankel
operators over a real symmetric generator.

The shared engine is a cross decomposition: writing a matrix as
(left (x) a) + (b (x) right) for anchor vectors a, b.  Membership in the
operator classes is equivalent to the shift displacement having that shape.
Symbols are non-unique, so recovered parts are gauged by <right, a> = 0.
Both membership tests read a symbol off the two parts in closed form, and
one rebuild certifies it; the Hankel test is the Toeplitz one moved across
by the conjugations.

Class membership has one certificate, the polynomial fit of
`class_multipliers`, the package's one least-squares fit; Hankel inverses
and product symbol forms read theirs off it for D B or B D, with D the
involution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blaschke import ExtendedScalar, InnerFunction
from .errors import (
    NoCertificate,
    NotRealSymmetric,
    NotTHO,
    NotTTO,
    Singular,
    SpaceMismatch,
    ZeroAnchor,
)
from .modelspace import (
    KernelElement,
    ModelSpaceBasis,
    OperatorMatrix,
    SpaceElement,
    hankel_space,
    hankel_symbol,
    unit_kernels,
)
from .operators import (
    _element_tho,
    _sarason_tto,
    clark_perturbation,
    class_level,
    level_points,
)
from .ratfun import RationalSymbol

MEMBERSHIP_TOL = 1e-9
REBUILD_TOL = 1e-8
CLASS_TOL = 1e-8
UNITARY_TOL = 1e-8          # |value| = 1 and the (co)isometry residuals
PARAMETER_TOL = 1e-6        # closeness of two class parameters, or of one to the circle
COND_LIMIT = 1e8            # the largest cond(B) that tho_inverse_class inverts


def _fro(mat: np.ndarray) -> float:
    """The Frobenius norm of a complex array with the bits of np.linalg.norm(mat):
    the entries in memory order (ravel order K), then re.re + im.im, then the
    square root, without its argument handling."""
    flat = mat.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _within(residual: float, tol: float, *mats: np.ndarray) -> bool:
    """Whether residual < tol max(1, |mat|_F) over every mat; a residual under
    tol itself passes without the norms, which cannot change the verdict.  A
    NaN residual fails."""
    return residual < tol or residual < tol * max(1.0, *map(_fro, mats))


def _anchor(e: SpaceElement) -> tuple:
    """The coordinates of an anchor, their conjugates and their squared norm,
    as a held kernel (`KernelElement`) keeps them."""
    if isinstance(e, KernelElement):
        return e.coords, e.conj, e.norm2
    return e.coords, np.conj(e.coords), float(np.vdot(e.coords, e.coords).real)


@dataclass
class CrossDecomposition:
    success: bool
    left: SpaceElement | None
    right: SpaceElement | None
    residual_norm: float


def cross_decompose(M, a: SpaceElement, b: SpaceElement,
                    tol: float = MEMBERSHIP_TOL) -> CrossDecomposition:
    """Try to write M = left (x) a + b (x) right.

    Success iff Q_b M P_(a-perp) vanishes within tol (relative to max(1, |M|_F)).
    On success the parts are extracted and re-gauged so that <right, a> = 0,
    making round trips well posed despite symbol non-uniqueness.
    """
    mat = M.matrix if isinstance(M, OperatorMatrix) else np.asarray(M, dtype=complex)
    av, av_conj, na2 = _anchor(a)
    bv, bv_conj, nb2 = _anchor(b)
    if na2 < 1e-24 or nb2 < 1e-24:
        raise ZeroAnchor("cross decomposition anchors must be nonzero")
    bhm = bv_conj @ mat
    left = mat @ av                 # Q_b M a: component along (x) a
    left -= bv * (complex(bhm @ av) / nb2)
    left /= na2
    right = np.conj(bhm)            # M^H b: component along b (x)
    right /= nb2
    # re-gauge: move the a-parallel part of right into left
    g = complex(np.vdot(av, right)) / na2
    right -= g * av
    left += g.conjugate() * bv
    resid = mat - left[:, None] * av_conj
    resid -= bv[:, None] * np.conj(right)
    residual = _fro(resid)
    if residual < tol or residual < tol * max(1.0, _fro(mat)):     # `_within`, inline
        return CrossDecomposition(True, SpaceElement(b.space, left),
                                  SpaceElement(a.space, right), residual)
    return CrossDecomposition(False, None, None, residual)


@dataclass
class TTOMembership:
    is_member: bool
    analytic_part: SpaceElement | None      # lives in the codomain space
    conjugate_part: SpaceElement | None     # lives in the domain space
    displacement_residual: float
    rebuild_residual: float | None = None   # set when the symbol was recovered

    @cached_property
    def symbol(self) -> RationalSymbol | None:
        """part1 + conj(part2), built on first read; None unless recovered."""
        if self.rebuild_residual is None:
            return None
        return self.analytic_part.rep() + self.conjugate_part.rep().conj_circle()


def is_tto(A: OperatorMatrix, tol: float = MEMBERSHIP_TOL,
           recover: bool = True) -> TTOMembership:
    """Test A - S_v A S_u* = part1 (x) k0 + k0 (x) part2 and rebuild the symbol.

    On success A equals the Toeplitz operator with symbol
    part1 + conj(part2), built when first read; the rebuild residual
    certifies it.  The rebuild goes through quadrature from the two parts'
    coordinates whatever the generators, never through the closed forms:
    one pairing, or on a warm pair the contraction of its paired
    basis-symbol operators, which read neither A nor the split
    (`operators._sarason_tto`).  The shifts and kernels are those A's
    bases hold.
    """
    _require_linear(A, "is_tto")
    dom, cod, mat = A.domain, A.codomain, A.matrix
    dec = cross_decompose(mat - cod.shift.matrix @ mat @ dom.shift_adjoint.matrix,
                          dom.kernel0, cod.kernel0, tol)
    if not (dec.success and recover):
        return TTOMembership(dec.success, dec.left, dec.right, dec.residual_norm)
    rres = float(np.abs(_sarason_tto(dom, cod, dec.left, dec.right, exact=False).matrix
                        - mat).max())
    return TTOMembership(_within(rres, REBUILD_TOL, mat), dec.left, dec.right,
                         dec.residual_norm, rres)


@dataclass
class THOMembership:
    is_member: bool
    symbol_element: SpaceElement | None     # psi with B = Hankel(conj psi), psi in K_{u hat(v)}
    displacement_residual: float
    rebuild_residual: float | None = None

    @cached_property
    def symbol(self) -> RationalSymbol | None:
        """conj(psi), built on first read; None unless certified."""
        if self.symbol_element is None:
            return None
        return hankel_symbol(self.symbol_element).conj_circle()


def is_tho(B: OperatorMatrix, tol: float = MEMBERSHIP_TOL,
           recover: bool = True) -> THOMembership:
    """Test B - S_v B S_u = part1 (x) kt0 + k0 (x) part2 and rebuild the symbol.

    kt0 is the conjugate kernel at 0 in K_u.  This is `is_tto`'s test moved
    across by the conjugations: U_v S_v = S_hat(v) U_v and C_u S_u* = S_u C_u,
    so the verdict and residual are those of is_tto(U_v B C_u).  On success
    psi = S_u part2 + u hat(part1) lies in K_{u hat(v)}, and B equals the
    Hankel operator with symbol conj(psi), built when first read; the rebuild
    residual certifies it.  The rebuild goes through quadrature from psi's
    coordinates whatever the generators, never through the closed forms:
    one pairing, or on a warm pair a contraction (`operators._element_tho`).
    The shifts and kernels are those B's bases hold, and the bases of the
    rebuild those that `hankel_space(u, v)` holds.
    """
    _require_linear(B, "is_tho")
    dom, cod, mat = B.domain, B.codomain, B.matrix
    shift = dom.shift.matrix
    dec = cross_decompose(mat - cod.shift.matrix @ mat @ shift,
                          dom.conj_kernel0, cod.kernel0, tol)
    if not (dec.success and recover):
        return THOMembership(dec.success, None, dec.residual_norm)
    u = dom.generator
    # the u-first basis of K_{u hat(v)} is the basis of K_u, then u/const(u)
    # times the basis of K_hat(v), in which hat(part1) has coordinates conj(part1)
    psi = hankel_space(u, cod.generator).element(np.concatenate(
        [shift @ dec.right.coords, u.constant * np.conj(dec.left.coords)]))
    rres = float(np.abs(_element_tho(psi, exact=False).matrix - mat).max())
    if not _within(rres, REBUILD_TOL, mat):
        return THOMembership(False, None, dec.residual_norm, rres)
    return THOMembership(True, psi, dec.residual_norm, rres)


# ---------------------------------------------------------------------------
# Sedlock class detection


@dataclass
class SedlockReport:
    membership: str                      # "none" | "all" | "finite" | "infinity"
    alpha: ExtendedScalar | None
    commutator_residual: float
    scalar: complex | None = None        # set when membership == "all"

    def matches(self, other: "SedlockReport") -> bool:
        """Whether this report and another describe a common class.

        A scalar multiple of the identity lies in every class.
        """
        if self.membership == "none" or other.membership == "none":
            return False
        if self.membership == "all" or other.membership == "all":
            return True
        return self.alpha.isclose(other.alpha, PARAMETER_TOL)

    def common_alpha(self, other: "SedlockReport") -> ExtendedScalar | None:
        """The parameter of the first of this report and the other that names one."""
        return next((r.alpha for r in (self, other) if r.membership in ("finite", "infinity")),
                    None)

    def to_json(self) -> dict:
        alpha = None
        if self.alpha is not None:
            alpha = "inf" if self.alpha.is_infinity else [self.alpha.value.real,
                                                          self.alpha.value.imag]
        return {
            "membership": self.membership,
            "alpha": alpha,
            "commutator_residual": self.commutator_residual,
        }


def _affine_commutant_solve(mat: np.ndarray, space: ModelSpaceBasis):
    """Fit the one-parameter family of shift-perturbation commutators on K_u.

    [A, S^alpha] = C0 + g(alpha) C1 with g(alpha) = alpha/(1 - alpha conj(u(0))),
    C0 = [A, S], C1 = (A k0) (x) kt0 - k0 (x) (A* kt0), with the shift and the
    kernels that the basis of K_u holds.  Returns (alpha or None, residual)
    for the least-squares g.
    """
    smat = space.shift.matrix
    k0, kt0 = space.k0, space.conj_kernel0
    c0 = mat @ smat - smat @ mat
    # outer products by broadcasting, the multiply of np.outer; conj(A* kt0)
    # as A^T conj(kt0), the same products and sums with their signs flipped
    c1 = (mat @ k0)[:, None] * kt0.conj - k0[:, None] * (mat.T @ kt0.conj)
    if _fro(c1) < 1e-13:
        res = _fro(c0)
        return (ExtendedScalar.finite(0.0) if res < 1e-13 else None), res
    t = -complex(np.vdot(c1, c0)) / complex(np.vdot(c1, c1))
    res = _fro(c0 + t * c1)
    denom = 1.0 + t * np.conj(space.generator.origin_value)
    if abs(denom) < 1e-10:
        return None, res
    return ExtendedScalar.finite(t / denom), res


def sedlock_class(A: OperatorMatrix) -> SedlockReport:
    """Detect the Sedlock class of a truncated Toeplitz operator on K_u.

    Solves the affine commutator fit for A directly (classes indexed inside
    the closed disk) and for A* (the class of the adjoint is the
    reciprocal-conjugate parameter, which covers the outside and infinity).
    Scalar multiples of the identity belong to every class.
    """
    _require_linear(A, "sedlock_class")
    if A.domain != A.codomain:
        raise NotTTO("Sedlock classification needs an operator on a single K_u")
    space = A.domain
    n = space.dim
    nrm = _fro(A.matrix)
    if nrm < 1e-13:
        return SedlockReport("all", None, 0.0, scalar=0.0)
    mat = A.matrix / nrm
    tr = complex(np.trace(mat)) / n
    if _fro(mat - tr * space.eye) < CLASS_TOL:
        return SedlockReport("all", None, 0.0, scalar=complex(np.trace(A.matrix)) / n)

    direct, dres = _affine_commutant_solve(mat, space)
    if dres < CLASS_TOL and direct is not None and direct.modulus() <= 1.0 + PARAMETER_TOL:
        return SedlockReport("finite", direct, dres)
    adj, ares = _affine_commutant_solve(mat.conj().T, space)
    if ares < CLASS_TOL and adj is not None:
        if adj.modulus() < 1e-8:
            return SedlockReport("infinity", ExtendedScalar.infinity(), ares)
        return SedlockReport("finite", adj.reciprocal_conjugate(), ares)
    return SedlockReport("none", None, min(dres, ares))


def spectral_values(A: OperatorMatrix, points) -> np.ndarray:
    """Diagonal values of a class member at level points, such as the Clark
    points: q* A q over the normalized kernels q there."""
    q = unit_kernels(A.domain, points)
    return np.sum(np.conj(q) * (q @ A.matrix.T), axis=1)


def class_values(alpha: ExtendedScalar, *members: OperatorMatrix) -> list[np.ndarray]:
    """`spectral_values` of members of the class alpha at the level points of
    its base perturbation S^beta (`operators.class_level`), one array per
    member: a member is p(S^beta) or its adjoint, so q* M q is p or conj(p)
    there (Clark 1972).  At a unimodular alpha these are the Clark points.
    """
    points = level_points(members[0].domain, class_level(alpha)[0])
    return [spectral_values(M, points) for M in members]


# ---------------------------------------------------------------------------
# structural reports for Hankel operators over a real symmetric generator


def _require_linear(M: OperatorMatrix, caller: str):
    if M.antilinear:
        raise SpaceMismatch(f"{caller} needs a linear operator; Toeplitz and Hankel are linear")


def require_symmetric(u: InnerFunction, caller: str):
    if not u.is_real_symmetric():
        raise NotRealSymmetric(f"{caller} needs a real symmetric generator")


def require_tto(A: OperatorMatrix, caller: str):
    if not is_tto(A, recover=False).is_member:
        raise NotTTO(f"{caller} needs a truncated Toeplitz operator")


def require_tho(B: OperatorMatrix, caller: str):
    if not is_tho(B, recover=False).is_member:
        raise NotTHO(f"{caller} needs a truncated Hankel operator")


def scalar_multiple(M: OperatorMatrix, base: OperatorMatrix) -> tuple[complex, float, bool]:
    """The least-squares c with M = c base, the Frobenius residual of that fit,
    and whether it passes MEMBERSHIP_TOL max(1, |M|_F): whether M is a
    scalar multiple of base, such as the identity or the involution."""
    c = complex(np.vdot(base.matrix, M.matrix)) / complex(np.vdot(base.matrix, base.matrix))
    residual = _fro(M.matrix - c * base.matrix)
    return c, residual, _within(residual, MEMBERSHIP_TOL, M.matrix)


@dataclass
class UnitaryReport:
    isometry: bool
    coisometry: bool
    unitary: bool
    gram_defect_is_tto: bool
    cogram_defect_is_tto: bool
    class_unimodular: bool
    alpha: ExtendedScalar | None
    multiplier_values: list
    residuals: dict = field(default_factory=dict)

    @property
    def conditions(self) -> list[bool]:
        return [self.isometry, self.coisometry, self.unitary,
                self.gram_defect_is_tto, self.cogram_defect_is_tto,
                self.class_unimodular]


def tho_unitary_report(B: OperatorMatrix) -> UnitaryReport:
    """Evaluate the six equivalent unitarity conditions for a Hankel operator.

    Conditions: isometry, coisometry, unitary, both Gram defects being
    Toeplitz, and membership of (involution o B) in a unimodular-parameter
    class with unimodular multiplier values at every Clark point.
    """
    u = B.domain.generator
    require_symmetric(u, "tho_unitary_report")
    require_tho(B, "tho_unitary_report")
    iso_res, coiso_res, c4, c5 = _gram_conditions(B)
    isometry = iso_res < UNITARY_TOL
    coisometry = coiso_res < UNITARY_TOL
    report, alpha, values, class_ok = _unimodular_class(B.domain.symmetric_involution @ B)
    return UnitaryReport(
        isometry, coisometry, isometry and coisometry, c4, c5, class_ok,
        alpha, values,
        {"isometry": iso_res, "coisometry": coiso_res,
         "class_residual": report.commutator_residual},
    )


def _gram_conditions(B: OperatorMatrix):
    """Isometry and coisometry residuals of B, and whether each Gram defect
    (B*B - I on the domain, BB* - I on the codomain) is Toeplitz."""
    eye = np.eye(B.domain.dim)
    gram = B.matrix.conj().T @ B.matrix - eye
    cogram = B.matrix @ B.matrix.conj().T - eye
    return (
        _fro(gram),
        _fro(cogram),
        is_tto(OperatorMatrix(gram, B.domain, B.domain), recover=False).is_member,
        is_tto(OperatorMatrix(cogram, B.codomain, B.codomain), recover=False).is_member,
    )


def _unimodular_class(M: OperatorMatrix):
    """The Sedlock class of a Toeplitz operator M and whether it is unimodular
    with unimodular multiplier values at every Clark point (`class_values`).

    Returns (report, alpha, values, ok); alpha is set for a unimodular
    parameter only.  A scalar multiple of the identity lies in every class
    and has its scalar as every value.
    """
    report = sedlock_class(M)
    if report.membership == "all":
        c = complex(report.scalar)
        return report, None, [c] * M.domain.dim, abs(abs(c) - 1.0) < UNITARY_TOL
    if report.membership == "finite" and abs(report.alpha.modulus() - 1.0) < PARAMETER_TOL:
        values = [complex(v) for v in class_values(report.alpha, M)[0]]
        return report, report.alpha, values, all(abs(abs(v) - 1.0) < UNITARY_TOL
                                                 for v in values)
    return report, None, [], False


@dataclass
class ClassSymbolCertificate:
    """A member of the class alpha as `functional_calculus(u, alpha, p)`: the
    level of its Clark perturbation, the coefficients of p and the max-entry
    residual of their rebuild, as `class_multipliers` returns them."""

    level: complex
    multiplier: np.ndarray
    residual: float


def _class_certificate(M: OperatorMatrix, alpha: ExtendedScalar) -> ClassSymbolCertificate:
    """Certify the Toeplitz operator M as a member of the class alpha."""
    level, (multiplier,), (resid,) = class_multipliers(alpha, M)
    if not _within(resid, REBUILD_TOL, M.matrix):
        raise NoCertificate(f"class-multiplier rebuild residual {resid:g}")
    return ClassSymbolCertificate(level, multiplier, resid)


@dataclass
class InverseReport:
    inverse_is_tho: bool
    alpha: ExtendedScalar | None
    inverse_alpha: ExtendedScalar | None
    reciprocal_law_holds: bool
    certificate: ClassSymbolCertificate | None
    inverse_certificate: ClassSymbolCertificate | None


def tho_inverse_class(B: OperatorMatrix) -> InverseReport:
    """Invert a Hankel operator and test whether the inverse stays Hankel.

    When it does, the involution-shifted classes of B and its inverse are
    reciprocal parameters: D B is a member of the class alpha and D B^-1 of
    the class 1/alpha.  Each is certified by the polynomial fit of
    `class_multipliers`, a rebuild independent of the commutator fit that
    found the class; NoCertificate is raised when a rebuild misses.
    """
    u = B.domain.generator
    require_symmetric(u, "tho_inverse_class")
    require_tho(B, "tho_inverse_class")
    if np.linalg.cond(B.matrix) > COND_LIMIT:
        raise Singular("operator too ill conditioned to invert reliably")
    binv = OperatorMatrix(np.linalg.inv(B.matrix), B.codomain, B.domain)
    inv_member = is_tho(binv, recover=False).is_member
    if not inv_member:
        return InverseReport(False, None, None, False, None, None)
    dop = B.domain.symmetric_involution
    m_b = dop @ B
    m_i = dop @ binv
    rep_b = sedlock_class(m_b)
    rep_i = sedlock_class(m_i)
    # scalar multiples of the involution lie in every class: use the
    # self-reciprocal parameter so the law and certificates stay meaningful
    one = ExtendedScalar.finite(1.0)
    alpha = (rep_b.alpha if rep_b.membership in ("finite", "infinity")
             else one if rep_b.membership == "all" else None)
    ialpha = (rep_i.alpha if rep_i.membership in ("finite", "infinity")
              else one if rep_i.membership == "all" else None)
    law = (
        alpha is not None and ialpha is not None
        and (rep_b.membership == "all" or rep_i.membership == "all"
             or ialpha.isclose(alpha.reciprocal(), PARAMETER_TOL))
    )
    cert = icert = None
    if alpha is not None and ialpha is not None:
        cert = _class_certificate(m_b, alpha)
        icert = _class_certificate(m_i, ialpha)
    return InverseReport(True, alpha, ialpha, law, cert, icert)


@dataclass
class ZeroProductReport:
    product_is_zero: bool
    classes_match: bool
    alpha: ExtendedScalar | None
    multiplier_product_vanishes: bool | None
    residuals: dict = field(default_factory=dict)


def zero_product_analysis(B1: OperatorMatrix, B2: OperatorMatrix) -> ZeroProductReport:
    """Analyze when the product of two Hankel operators vanishes.

    When it does, both factors sit in involution-shifted copies of one
    class, and the product of their multipliers vanishes at every level
    point of the class's base perturbation: at a unimodular parameter the
    multiplier values have disjoint supports over the Clark points.  The
    values are read at the kernels of the level points, in every regime.
    """
    u = B1.domain.generator
    require_symmetric(u, "zero_product_analysis")
    require_tho(B1, "zero_product_analysis")
    require_tho(B2, "zero_product_analysis")
    dop = B1.domain.symmetric_involution
    return _zero_product_report(B1, B2, dop @ B1, B2 @ dop)


def _zero_product_report(B1: OperatorMatrix, B2: OperatorMatrix,
                         M1: OperatorMatrix, M2: OperatorMatrix) -> ZeroProductReport:
    """Whether B1 B2 vanishes, against the classes of the Toeplitz operators
    M1 and M2 on K_u that the two factors are transported to."""
    scale = max(1.0, _fro(B1.matrix) * _fro(B2.matrix))
    pnorm = _fro((B1 @ B2).matrix)
    zero = pnorm < MEMBERSHIP_TOL * scale
    r1 = sedlock_class(M1)
    r2 = sedlock_class(M2)
    match = r1.matches(r2)
    alpha = r1.common_alpha(r2)
    vanish = None
    residuals = {"product_norm": pnorm, "class1": r1.commutator_residual,
                 "class2": r2.commutator_residual}
    if zero and match and alpha is not None:
        vanish = _multiplier_product_vanishes(M1, M2, alpha, residuals)
    return ZeroProductReport(zero, match, alpha, vanish, residuals)


@dataclass
class CrossSpaceUnitaryReport:
    isometry: bool
    coisometry: bool
    gram_defect_is_tto: bool
    cogram_defect_is_tto: bool
    class_unimodular: bool
    alpha: ExtendedScalar | None
    factor_order: str | None            # which conjugation order exposed the class
    residuals: dict = field(default_factory=dict)

    @property
    def conditions(self) -> list[bool]:
        return [self.isometry, self.coisometry, self.gram_defect_is_tto,
                self.cogram_defect_is_tto, self.class_unimodular]


def cross_space_unitary_report(B: OperatorMatrix) -> CrossSpaceUnitaryReport:
    """Unitarity equivalences for a Hankel operator from K_u into the hat space.

    Both conjugation factor orders are tried when looking for the class
    membership; the report records which one succeeded.
    """
    u = B.domain.generator
    uh = B.codomain.generator
    if uh != u.hat():
        raise NotTHO("expected an operator from K_u into the hat space")
    require_tho(B, "cross_space_unitary_report")
    iso_res, coiso_res, c3, c4 = _gram_conditions(B)

    cu, uuh = B.domain.conjugation_C, B.codomain.conjugation_U     # uuh: K_uhat -> K_u
    candidates = {
        "hat-then-natural": uuh @ B @ cu,
        "natural-then-hat": cu @ (uuh @ B),
    }
    alpha = None
    order = None
    class_ok = False
    residuals = {}
    for name, M in candidates.items():
        rep, unimodular, _, class_ok = _unimodular_class(M)
        residuals[name] = rep.commutator_residual
        if unimodular is not None:
            alpha = unimodular
        if class_ok:
            order = name
            break
    return CrossSpaceUnitaryReport(iso_res < UNITARY_TOL, coiso_res < UNITARY_TOL, c3, c4,
                                   class_ok, alpha, order, residuals)


def cross_space_zero_product(B1: OperatorMatrix, B2: OperatorMatrix) -> ZeroProductReport:
    """Zero-product analysis for the hat-space Hankel pair.

    B1 maps the hat space into K_u and B2 maps K_u into the hat space;
    conjugating by the natural and coefficient conjugations turns both into
    Toeplitz operators on K_u, and the product vanishes exactly when those
    transported operators multiply to zero, which reduces to the symmetric
    analysis.
    """
    require_tho(B1, "cross_space_zero_product")
    require_tho(B2, "cross_space_zero_product")
    cu, uu = B2.domain.conjugation_C, B2.domain.conjugation_U   # on K_u; uu: K_u -> K_uhat
    m1 = cu @ B1 @ uu                                       # K_u -> K_u, linear
    m2 = uu.codomain.conjugation_U @ B2 @ cu                # K_u -> K_u, linear
    return _zero_product_report(B1, B2, m1, m2)


def class_multipliers(alpha: ExtendedScalar, *members: OperatorMatrix):
    """Polynomial multipliers of members of the Sedlock class alpha on K_u.

    A member of the class is p(S^alpha) for |alpha| <= 1, and p(S^beta)*
    outside the closed disk (Sedlock 2011), with the level beta of
    `operators.class_level`.  Each member is fitted over the powers below
    n = dim K_u of S^beta, or of its adjoint outside the disk, and the
    coefficients of p are returned (conjugated back outside), so that the
    member is `functional_calculus(u, alpha, p)` in every regime.  Returns
    (level, multipliers, residuals): the parameter of the base perturbation,
    whose level set of u carries the spectrum of every member, one
    coefficient array per member, and the max-entry rebuild residual of
    each fit.
    """
    space = members[0].domain
    level, adjoint = class_level(alpha)
    base = clark_perturbation(space, level)
    if adjoint:
        base = base.adjoint()
    powers = [np.eye(space.dim, dtype=complex)]
    for _ in range(space.dim - 1):
        powers.append(powers[-1] @ base.matrix)
    stack = np.column_stack([p.ravel() for p in powers])
    multipliers, residuals = [], []
    for M in members:
        x, *_ = np.linalg.lstsq(stack, M.matrix.ravel(), rcond=None)
        residuals.append(float(np.max(np.abs((stack @ x).reshape(M.matrix.shape) - M.matrix))))
        multipliers.append(np.conj(x) if adjoint else x)
    return level, multipliers, residuals


def _multiplier_product_vanishes(M1: OperatorMatrix, M2: OperatorMatrix,
                                 alpha: ExtendedScalar, residuals) -> bool:
    """Whether the multipliers of two members of the class alpha multiply to
    zero at the level points of their base perturbation (`class_values`)."""
    v1, v2 = class_values(alpha, M1, M2)
    products = np.abs(v1 * v2)
    residuals["pointwise_products"] = [float(x) for x in products]
    scale = max(1.0, float(np.max(np.abs(v1))) * float(np.max(np.abs(v2))))
    return bool(np.max(products) < 10 * MEMBERSHIP_TOL * scale)
