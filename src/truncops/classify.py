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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import quadrature
from .blaschke import ExtendedScalar, InnerFunction, clark_points
from .errors import (
    NoCertificate,
    NotRealSymmetric,
    NotTHO,
    NotTTO,
    Singular,
    ZeroAnchor,
)
from .modelspace import (
    ModelSpaceBasis,
    OperatorMatrix,
    SpaceElement,
    boundary_kernel,
    conj_kernel,
    conjugation_C,
    conjugation_U,
    kernel,
    normalized,
    tm_basis,
)
from .operators import (
    clark_perturbation,
    shift,
    shift_adj,
    symmetric_involution,
    tho_matrix,
    tto_matrix,
)
from .ratfun import RationalSymbol

MEMBERSHIP_TOL = 1e-9
REBUILD_TOL = 1e-8
CLASS_TOL = 1e-8


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
    av = a.coords
    bv = b.coords
    na2 = float(np.vdot(av, av).real)
    nb2 = float(np.vdot(bv, bv).real)
    if na2 < 1e-24 or nb2 < 1e-24:
        raise ZeroAnchor("cross decomposition anchors must be nonzero")
    scale = max(1.0, float(np.linalg.norm(mat)))

    proj_b = np.outer(bv, np.conj(bv)) / nb2
    q_b = np.eye(len(bv)) - proj_b
    left = (q_b @ mat @ av) / na2        # component along (x) a
    right = mat.conj().T @ bv / nb2      # component along b (x)
    # re-gauge: move the a-parallel part of right into left
    g = complex(np.vdot(av, right)) / na2
    right = right - g * av
    left = left + np.conj(g) * bv
    resid = mat - np.outer(left, np.conj(av)) - np.outer(bv, np.conj(right))
    residual = float(np.linalg.norm(resid))
    ok = residual < tol * scale
    return CrossDecomposition(
        ok,
        SpaceElement(b.space, left) if ok else None,
        SpaceElement(a.space, right) if ok else None,
        residual,
    )


@dataclass
class TTOMembership:
    is_member: bool
    analytic_part: SpaceElement | None      # lives in the codomain space
    conjugate_part: SpaceElement | None     # lives in the domain space
    symbol: RationalSymbol | None
    displacement_residual: float
    rebuild_residual: float | None = None


def is_tto(A: OperatorMatrix, tol: float = MEMBERSHIP_TOL,
           rebuild_tol: float = REBUILD_TOL, recover: bool = True) -> TTOMembership:
    """Test A - S_v A S_u* = part1 (x) k0 + k0 (x) part2 and rebuild the symbol.

    On success A equals the Toeplitz operator with symbol
    part1 + conj(part2); the rebuild residual certifies it.
    """
    u = A.domain.generator
    v = A.codomain.generator
    disp = A - shift(v) @ A @ shift_adj(u)
    dec = cross_decompose(disp, kernel(u, 0.0), kernel(v, 0.0), tol)
    if not dec.success:
        return TTOMembership(False, None, None, None, dec.residual_norm)
    if not recover:
        return TTOMembership(True, dec.left, dec.right, None, dec.residual_norm)
    symbol = dec.left.rep() + dec.right.rep().conj_circle()
    rebuilt = tto_matrix(u, v, symbol)
    rres = float(np.max(np.abs(rebuilt.matrix - A.matrix)))
    ok = rres < rebuild_tol * max(1.0, float(np.linalg.norm(A.matrix)))
    return TTOMembership(ok, dec.left, dec.right, symbol, dec.residual_norm, rres)


@dataclass
class THOMembership:
    is_member: bool
    symbol_element: SpaceElement | None     # psi with B = Hankel(conj psi), psi in K_{u hat(v)}
    symbol: RationalSymbol | None
    displacement_residual: float
    rebuild_residual: float | None = None


def lstsq_fit(stack: np.ndarray, target: np.ndarray):
    """Least-squares weights x with stack @ x = target.ravel(), and the
    max-entry residual of the rebuild (stack @ x) against target."""
    x, *_ = np.linalg.lstsq(stack, target.ravel(), rcond=None)
    return x, float(np.max(np.abs((stack @ x).reshape(target.shape) - target)))


@quadrature.memoized(256)
def _tho_symbol_stack(u: InnerFunction, v: InnerFunction):
    """Hankel matrices of conj(basis of K_{u hat(v)}), stacked for least squares."""
    w = u * v.hat()
    wspace = tm_basis(w)
    mats = [tho_matrix(u, v, f.conj_circle()).matrix for f in wspace.functions]
    stack = np.column_stack([m.ravel() for m in mats])
    return wspace, stack


def is_tho(B: OperatorMatrix, tol: float = MEMBERSHIP_TOL,
           rebuild_tol: float = REBUILD_TOL, recover: bool = True) -> THOMembership:
    """Test B - S_v* B S_u* = part1 (x) k0 + (conj kernel at 0) (x) part2.

    On success recover psi in K_{u hat(v)} with B = Hankel(conj psi) by least
    squares over the Hankel images of the target basis (the map has a known
    one-dimensional kernel, so the minimum-norm solution is the gauge).
    """
    u = B.domain.generator
    v = B.codomain.generator
    disp = B - shift_adj(v) @ B @ shift_adj(u)
    dec = cross_decompose(disp, kernel(u, 0.0), conj_kernel(v, 0.0), tol)
    if not dec.success:
        return THOMembership(False, None, None, dec.residual_norm)
    if not recover:
        return THOMembership(True, None, None, dec.residual_norm)
    wspace, stack = _tho_symbol_stack(u, v)
    x, rres = lstsq_fit(stack, B.matrix)
    ok = rres < rebuild_tol * max(1.0, float(np.linalg.norm(B.matrix)))
    if not ok:
        return THOMembership(False, None, None, dec.residual_norm, rres)
    # the stack columns are Hankel matrices of conj(e_k); conjugation on the
    # circle is antilinear, so psi's coordinates are the conjugated weights
    psi = SpaceElement(wspace, np.conj(x))
    return THOMembership(True, psi, psi.rep().conj_circle(), dec.residual_norm, rres)


def symbol_is_zero_tto(u: InnerFunction, v: InnerFunction, sym: RationalSymbol,
                       tol: float = MEMBERSHIP_TOL) -> bool:
    return float(np.max(np.abs(tto_matrix(u, v, sym).matrix))) < tol


def symbol_is_zero_tho(u: InnerFunction, v: InnerFunction, sym: RationalSymbol,
                       tol: float = MEMBERSHIP_TOL) -> bool:
    return float(np.max(np.abs(tho_matrix(u, v, sym).matrix))) < tol


# ---------------------------------------------------------------------------
# Sedlock class detection


@dataclass
class SedlockReport:
    membership: str                      # "none" | "all" | "finite" | "infinity"
    alpha: ExtendedScalar | None
    commutator_residual: float
    scalar: complex | None = None        # set when membership == "all"

    def matches(self, other, tol: float = 1e-6) -> bool:
        """Whether this report and another describe a common class.

        A scalar multiple of the identity lies in every class.
        """
        o = other if isinstance(other, SedlockReport) else None
        if o is None:
            return self.membership != "none" and ExtendedScalar.of(other).isclose(self.alpha, tol) \
                if self.membership in ("finite", "infinity") else self.membership == "all"
        if self.membership == "none" or o.membership == "none":
            return False
        if self.membership == "all" or o.membership == "all":
            return True
        return self.alpha.isclose(o.alpha, tol)

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


def _affine_commutant_solve(mat: np.ndarray, u: InnerFunction):
    """Fit the one-parameter family of shift-perturbation commutators.

    [A, S^alpha] = C0 + g(alpha) C1 with g(alpha) = alpha/(1 - alpha conj(u(0))),
    C0 = [A, S], C1 = (A k0) (x) kt0 - k0 (x) (A* kt0).  Returns
    (alpha or None, residual) for the least-squares g.
    """
    smat = shift(u).matrix
    k0 = kernel(u, 0.0).coords
    kt0 = conj_kernel(u, 0.0).coords
    c0 = mat @ smat - smat @ mat
    c1 = np.outer(mat @ k0, np.conj(kt0)) - np.outer(k0, np.conj(mat.conj().T @ kt0))
    n1 = float(np.linalg.norm(c1))
    if n1 < 1e-13:
        res = float(np.linalg.norm(c0))
        return (ExtendedScalar.finite(0.0) if res < 1e-13 else None), res
    t = -complex(np.vdot(c1, c0)) / complex(np.vdot(c1, c1))
    res = float(np.linalg.norm(c0 + t * c1))
    denom = 1.0 + t * np.conj(complex(u(0.0)))
    if abs(denom) < 1e-10:
        return None, res
    return ExtendedScalar.finite(t / denom), res


def sedlock_class(A: OperatorMatrix, tol: float = CLASS_TOL) -> SedlockReport:
    """Detect the Sedlock class of a truncated Toeplitz operator on K_u.

    Solves the affine commutator fit for A directly (classes indexed inside
    the closed disk) and for A* (the class of the adjoint is the
    reciprocal-conjugate parameter, which covers the outside and infinity).
    Scalar multiples of the identity belong to every class.
    """
    if A.domain != A.codomain:
        raise NotTTO("Sedlock classification needs an operator on a single K_u")
    u = A.domain.generator
    n = A.domain.dim
    nrm = float(np.linalg.norm(A.matrix))
    if nrm < 1e-13:
        return SedlockReport("all", None, 0.0, scalar=0.0)
    mat = A.matrix / nrm
    tr = complex(np.trace(mat)) / n
    if float(np.linalg.norm(mat - tr * np.eye(n))) < tol:
        return SedlockReport("all", None, 0.0, scalar=complex(np.trace(A.matrix)) / n)

    direct, dres = _affine_commutant_solve(mat, u)
    if dres < tol and direct is not None and direct.modulus() <= 1.0 + 1e-6:
        return SedlockReport("finite", direct, dres)
    adj, ares = _affine_commutant_solve(mat.conj().T, u)
    if ares < tol and adj is not None:
        if adj.modulus() < 1e-8:
            return SedlockReport("infinity", ExtendedScalar.infinity(), ares)
        return SedlockReport("finite", adj.reciprocal_conjugate(), ares)
    return SedlockReport("none", None, min(dres, ares))


def spectral_values(A: OperatorMatrix, clark) -> list[complex]:
    """Diagonal values of a class member at the Clark points: q* A q over
    normalized boundary kernels q."""
    u = A.domain.generator
    out = []
    for p in clark.points:
        q = normalized(boundary_kernel(u, p)).coords
        out.append(complex(np.vdot(q, A.matrix @ q)))
    return out


# ---------------------------------------------------------------------------
# structural reports for Hankel operators over a real symmetric generator


def _require_symmetric(u: InnerFunction):
    if not u.is_real_symmetric():
        raise NotRealSymmetric("this report needs a real symmetric generator")


def _require_tho(B: OperatorMatrix, tol: float = MEMBERSHIP_TOL):
    if not is_tho(B, tol, recover=False).is_member:
        raise NotTHO("operand is not a truncated Hankel operator")


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

    @property
    def all_agree(self) -> bool:
        return len(set(self.conditions)) == 1


def tho_unitary_report(B: OperatorMatrix, tol: float = 1e-8) -> UnitaryReport:
    """Evaluate the six equivalent unitarity conditions for a Hankel operator.

    Conditions: isometry, coisometry, unitary, both Gram defects being
    Toeplitz, and membership of (involution o B) in a unimodular-parameter
    class with unimodular multiplier values at every Clark point.
    """
    u = B.domain.generator
    _require_symmetric(u)
    _require_tho(B)
    iso_res, coiso_res, c4, c5 = _gram_conditions(B)
    isometry = iso_res < tol
    coisometry = coiso_res < tol
    report, alpha, values, class_ok = _unimodular_class(symmetric_involution(u) @ B, tol)
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
        float(np.linalg.norm(gram)),
        float(np.linalg.norm(cogram)),
        is_tto(OperatorMatrix(gram, B.domain, B.domain), recover=False).is_member,
        is_tto(OperatorMatrix(cogram, B.codomain, B.codomain), recover=False).is_member,
    )


def _unimodular_class(M: OperatorMatrix, tol: float):
    """The Sedlock class of a Toeplitz operator M and whether it is unimodular
    with unimodular multiplier values at every Clark point.

    Returns (report, alpha, values, ok); alpha is set for a unimodular
    parameter only.  A scalar multiple of the identity lies in every class
    and has its scalar as every value.
    """
    report = sedlock_class(M)
    if report.membership == "all":
        c = complex(report.scalar)
        return report, None, [c] * M.domain.dim, abs(abs(c) - 1.0) < tol
    if report.membership == "finite" and abs(report.alpha.modulus() - 1.0) < 1e-6:
        alpha = report.alpha
        clark = clark_points(M.domain.generator, alpha.value / abs(alpha.value))
        values = spectral_values(M, clark)
        return report, alpha, values, all(abs(abs(v) - 1.0) < tol for v in values)
    return report, None, [], False


@dataclass
class ClassSymbolCertificate:
    coords: np.ndarray
    constant: complex
    symbol: RationalSymbol
    residual: float


def _class_symbol_fit(B: OperatorMatrix, alpha: ExtendedScalar,
                      rebuild_tol: float = REBUILD_TOL) -> ClassSymbolCertificate:
    """Solve B = D A with A in the class alpha for its class-form symbol.

    The fit runs over the right-hand term lists of `class_form_terms`;
    the symbol is the weighted sum of their addends.
    """
    _, terms = class_form_terms(B.domain, alpha)
    x, resid = class_form_fit(B, terms)
    if resid > rebuild_tol * max(1.0, float(np.linalg.norm(B.matrix))):
        raise NoCertificate(f"class-symbol rebuild residual {resid:g}")
    coords = x[:-1]
    const = complex(x[-1])
    symbol = B.domain.generator.conj_symbol() * const
    for c, addends in zip(coords, terms[:-1]):
        for wgt, s in addends:
            symbol = symbol + complex(c) * complex(wgt) * s
    return ClassSymbolCertificate(coords, const, symbol, resid)


def class_form_terms(space: ModelSpaceBasis, alpha: ExtendedScalar):
    """The class-form symbols of Sedlock's parametrization of the class alpha on K_u.

    Returns term lists (left, right): B = A D is Hankel(sum_k x_k left_k) and
    B = D A is Hankel(sum_k x_k right_k) for A in the class and D the
    involution.  Entry k < n belongs to the basis function e_k, with addends
    conj(u) conj(e_k) + alpha conj(u) S C e_k on the left and conj(u) e_k +
    alpha conj(u S C e_k) on the right; at alpha = inf the class is the
    antianalytic one and the entries are conj(u) e_k and conj(u) conj(e_k).
    The last entry is the constant direction conj(u).  Each entry is a list
    of (weight, symbol) addends: matrices are summed per addend, since adding
    unrelated denominators stacks pole multiplicities and loses precision.
    """
    u = space.generator
    ubar = u.conj_symbol()
    usym = u.as_symbol()
    smat = shift(u)
    cmap = conjugation_C(u)
    left, right = [], []
    for k, f in enumerate(space.functions):
        if alpha.is_infinity:
            left.append([(1.0, ubar * f)])
            right.append([(1.0, ubar * f.conj_circle())])
            continue
        left.append([(1.0, ubar * f.conj_circle())])
        right.append([(1.0, ubar * f)])
        if alpha.value != 0:
            unit = np.zeros(space.dim)
            unit[k] = 1.0
            sc = smat.apply(cmap.apply(space.element(unit))).rep()
            left[-1].append((alpha.value, ubar * sc))
            right[-1].append((alpha.value, (usym * sc).conj_circle()))
    left.append([(1.0, ubar)])
    right.append([(1.0, ubar)])
    return left, right


def class_form_fit(B: OperatorMatrix, terms):
    """Least-squares weights of B over the Hankel operators of the term
    lists from `class_form_terms`, and the max-entry rebuild residual."""
    u = B.domain.generator
    stack = np.column_stack([
        sum(complex(wgt) * tho_matrix(u, u, s).matrix for wgt, s in addends).ravel()
        for addends in terms
    ])
    return lstsq_fit(stack, B.matrix)


@dataclass
class InverseReport:
    inverse_is_tho: bool
    alpha: ExtendedScalar | None
    inverse_alpha: ExtendedScalar | None
    reciprocal_law_holds: bool
    certificate: ClassSymbolCertificate | None
    inverse_certificate: ClassSymbolCertificate | None


def tho_inverse_class(B: OperatorMatrix, tol: float = 1e-6,
                      cond_limit: float = 1e8) -> InverseReport:
    """Invert a Hankel operator and test whether the inverse stays Hankel.

    When it does, the involution-shifted classes of B and its inverse are
    reciprocal parameters, and both admit class-form symbols; the
    certificates carry the rebuilt symbols and their residuals.
    """
    u = B.domain.generator
    _require_symmetric(u)
    _require_tho(B)
    if np.linalg.cond(B.matrix) > cond_limit:
        raise Singular("operator too ill conditioned to invert reliably")
    binv = OperatorMatrix(np.linalg.inv(B.matrix), B.codomain, B.domain)
    inv_member = is_tho(binv, recover=False).is_member
    if not inv_member:
        return InverseReport(False, None, None, False, None, None)
    dop = symmetric_involution(u)
    rep_b = sedlock_class(dop @ B)
    rep_i = sedlock_class(dop @ binv)
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
             or ialpha.isclose(alpha.reciprocal(), tol))
    )
    cert = icert = None
    if alpha is not None and ialpha is not None:
        cert = _class_symbol_fit(B, alpha)
        icert = _class_symbol_fit(binv, ialpha)
    return InverseReport(True, alpha, ialpha, law, cert, icert)


@dataclass
class ZeroProductReport:
    product_is_zero: bool
    classes_match: bool
    alpha: ExtendedScalar | None
    multiplier_product_vanishes: bool | None
    residuals: dict = field(default_factory=dict)


def zero_product_analysis(B1: OperatorMatrix, B2: OperatorMatrix,
                          tol: float = MEMBERSHIP_TOL) -> ZeroProductReport:
    """Analyze when the product of two Hankel operators vanishes.

    When it does, both factors sit in involution-shifted copies of one
    class; at a unimodular parameter the multiplier values must have
    disjoint supports over the Clark points, otherwise the product of the
    recovered analytic multipliers must vanish on the level set of the
    parameter (divisibility by the level-set inner function, tested as
    polynomial divisibility at finite degree).
    """
    u = B1.domain.generator
    _require_symmetric(u)
    _require_tho(B1)
    _require_tho(B2)
    dop = symmetric_involution(u)
    return _zero_product_report(B1, B2, dop @ B1, B2 @ dop, tol)


def _zero_product_report(B1: OperatorMatrix, B2: OperatorMatrix,
                         M1: OperatorMatrix, M2: OperatorMatrix, tol) -> ZeroProductReport:
    """Whether B1 B2 vanishes, against the classes of the Toeplitz operators
    M1 and M2 on K_u that the two factors are transported to."""
    scale = max(1.0, float(np.linalg.norm(B1.matrix)) * float(np.linalg.norm(B2.matrix)))
    pnorm = float(np.linalg.norm((B1 @ B2).matrix))
    zero = pnorm < tol * scale
    r1 = sedlock_class(M1)
    r2 = sedlock_class(M2)
    match = r1.matches(r2)
    alpha = None
    for rep in (r1, r2):
        if rep.membership in ("finite", "infinity"):
            alpha = rep.alpha
            break
    vanish = None
    residuals = {"product_norm": pnorm, "class1": r1.commutator_residual,
                 "class2": r2.commutator_residual}
    if zero and match and alpha is not None:
        vanish = _multiplier_product_vanishes(M1, M2, alpha, tol, residuals)
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

    @property
    def all_agree(self) -> bool:
        return len(set(self.conditions)) == 1


def cross_space_unitary_report(B: OperatorMatrix, tol: float = 1e-8) -> CrossSpaceUnitaryReport:
    """Unitarity equivalences for a Hankel operator from K_u into the hat space.

    Both conjugation factor orders are tried when looking for the class
    membership; the report records which one succeeded.
    """
    u = B.domain.generator
    uh = B.codomain.generator
    if uh != u.hat():
        raise NotTHO("expected an operator from K_u into the hat space")
    _require_tho(B)
    iso_res, coiso_res, c3, c4 = _gram_conditions(B)

    candidates = {
        "hat-then-natural": conjugation_U(uh) @ B @ conjugation_C(u),
        "natural-then-hat": conjugation_C(u) @ (conjugation_U(uh) @ B),
    }
    alpha = None
    order = None
    class_ok = False
    residuals = {}
    for name, M in candidates.items():
        rep, unimodular, _, class_ok = _unimodular_class(M, tol)
        residuals[name] = rep.commutator_residual
        if unimodular is not None:
            alpha = unimodular
        if class_ok:
            order = name
            break
    return CrossSpaceUnitaryReport(iso_res < tol, coiso_res < tol, c3, c4, class_ok,
                                   alpha, order, residuals)


def cross_space_zero_product(B1: OperatorMatrix, B2: OperatorMatrix,
                             tol: float = MEMBERSHIP_TOL) -> ZeroProductReport:
    """Zero-product analysis for the hat-space Hankel pair.

    B1 maps the hat space into K_u and B2 maps K_u into the hat space;
    conjugating by the natural and coefficient conjugations turns both into
    Toeplitz operators on K_u, and the product vanishes exactly when those
    transported operators multiply to zero, which reduces to the symmetric
    analysis.
    """
    u = B2.domain.generator
    _require_tho(B1)
    _require_tho(B2)
    m1 = conjugation_C(u) @ B1 @ conjugation_U(u)          # K_u -> K_u, linear
    m2 = conjugation_U(u.hat()) @ B2 @ conjugation_C(u)    # K_u -> K_u, linear
    return _zero_product_report(B1, B2, m1, m2, tol)


def class_multipliers(alpha: ExtendedScalar, *members: OperatorMatrix):
    """Polynomial multipliers of members of the Sedlock class alpha on K_u.

    A member of the class is a polynomial in the shift perturbation
    (Sedlock 2011): p(S^alpha) for |alpha| <= 1, and conj(p)((S^beta)*) with
    beta = 1/conj(alpha) outside the disk (beta = 0 at infinity), conj(p)
    having the conjugated coefficients.  Each member is fitted over the
    powers below n = dim K_u of that base, and the coefficients of p are
    returned, so that inside and outside the disk the member is
    `functional_calculus(u, alpha, p)`.  Returns (level, multipliers,
    residuals): the parameter of the base perturbation, whose level set of u
    carries the spectrum of every member, one coefficient array per member,
    and the max-entry rebuild residual of each fit.
    """
    u = members[0].domain.generator
    outside = alpha.modulus() > 1.0
    level = alpha.reciprocal_conjugate().value if outside else alpha.value
    base = clark_perturbation(u, level)
    if outside:
        base = base.adjoint()
    powers = [np.eye(u.degree, dtype=complex)]
    for _ in range(u.degree - 1):
        powers.append(powers[-1] @ base.matrix)
    stack = np.column_stack([p.ravel() for p in powers])
    fits = [lstsq_fit(stack, M.matrix) for M in members]
    multipliers = [np.conj(x) if outside else x for x, _ in fits]
    return level, multipliers, [res for _, res in fits]


def _multiplier_product_vanishes(M1: OperatorMatrix, M2: OperatorMatrix,
                                 alpha: ExtendedScalar, tol, residuals) -> bool:
    u = M1.domain.generator
    if not alpha.is_infinity and abs(alpha.modulus() - 1.0) < 1e-6:
        clark = clark_points(u, alpha.value / abs(alpha.value))
        v1 = spectral_values(M1, clark)
        v2 = spectral_values(M2, clark)
        residuals["pointwise_products"] = [abs(a * b) for a, b in zip(v1, v2)]
        return all(abs(a * b) < tol * 10 for a, b in zip(v1, v2))
    level, (p1, p2), fits = class_multipliers(alpha, M1, M2)
    residuals["multiplier_fits"] = fits
    level_poly = npoly.polyadd(u.num_coeffs, -level * u.den_coeffs)
    prod_poly = npoly.polymul(np.atleast_1d(p1), np.atleast_1d(p2))
    if prod_poly.size < level_poly.size:
        rem = prod_poly
    else:
        _, rem = npoly.polydiv(prod_poly, level_poly)
    rnorm = float(np.max(np.abs(rem)))
    residuals["divisibility_remainder"] = rnorm
    return rnorm < 1e-6 * max(1.0, float(np.max(np.abs(prod_poly))))
