"""Matrix realizations of the operators on model spaces.

Builders for the compressed shift and its rank-one perturbations, truncated
Toeplitz and Hankel operators (symmetric and asymmetric), the Sedlock-class
constructors, functional calculus in the three parameter regimes, and the
unitary involution available over a real symmetric generator.

Matrix entries are pairings of exact rational symbols, so the only numeric
step is the adaptive circle quadrature.  conj(u) on the circle is realized
as the rational function 1/u, keeping all symbol algebra exact.  Pairings
read boundary values only, so the builders pair whole blocks of basis
values (symbol times basis, and the flipped basis) rather than making one
symbol per basis function.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import quadrature
from .blaschke import ClarkData, ExtendedScalar, InnerFunction, clark_points
from .errors import NotRealSymmetric, SingularDenominator, SpaceMismatch
from .modelspace import (
    ModelSpaceBasis,
    OperatorMatrix,
    SpaceElement,
    conjugation_C,
    conjugation_U_on,
    kernel,
    conj_kernel,
    normalized,
    boundary_kernel,
    tm_basis,
)
from .quadrature import QuadratureSettings, pairing_matrix
from .ratfun import RationalSymbol


def _images(sym: RationalSymbol, space: ModelSpaceBasis):
    """The block of values of sym * e_j, one column per basis function e_j."""
    return lambda m: sym.values_at(m)[:, None] * space.values(m)


def _flipped(space: ModelSpaceBasis):
    """The block of values of J e_i = conj(z) e_i(conj z), one column per basis function."""
    return lambda m: (np.conj(quadrature.nodes(m))[:, None]
                      * space.values(m)[quadrature.reflection(m)])


@lru_cache(maxsize=512)
def shift(u: InnerFunction) -> OperatorMatrix:
    """The compressed shift on K_u: f -> P_u(z f)."""
    space = tm_basis(u)
    images = _images(RationalSymbol.monomial(1), space)
    return OperatorMatrix(pairing_matrix(images, space.values), space, space)


def shift_adj(u: InnerFunction) -> OperatorMatrix:
    """Adjoint of the compressed shift, (f(z) - f(0))/z; conjugate transpose here."""
    return shift(u).adjoint()


def rank_one(f: SpaceElement, g: SpaceElement) -> OperatorMatrix:
    """The operator h -> f <h, g>, from g's space into f's space."""
    return OperatorMatrix(np.outer(f.coords, np.conj(g.coords)), g.space, f.space)


def defects(u: InnerFunction) -> tuple[OperatorMatrix, OperatorMatrix]:
    """The rank-one defect operators (I - S S*, I - S* S), built from kernels.

    Equal to the algebraic combinations by construction; tests assert it.
    """
    k0 = kernel(u, 0.0)
    kt0 = conj_kernel(u, 0.0)
    return rank_one(k0, k0), rank_one(kt0, kt0)


def clark_perturbation(u: InnerFunction, alpha) -> OperatorMatrix:
    """The rank-one perturbation S + alpha/(1 - alpha conj(u(0))) k0 (x) conj-kernel0.

    Unitary exactly when |alpha| = 1; a contraction for |alpha| < 1.
    """
    alpha = complex(alpha)
    denom = 1.0 - alpha * np.conj(complex(u(0.0)))
    if abs(denom) < 1e-12:
        raise SingularDenominator("1 - alpha conj(u(0)) vanishes")
    if alpha == 0:
        return shift(u)
    bump = rank_one(kernel(u, 0.0), conj_kernel(u, 0.0))
    return shift(u) + (alpha / denom) * bump


def tto_matrix(u: InnerFunction, v: InnerFunction, sym: RationalSymbol,
               settings: QuadratureSettings | None = None) -> OperatorMatrix:
    """Truncated Toeplitz operator f -> P_v(sym * f) from K_u into K_v."""
    dom = tm_basis(u)
    cod = tm_basis(v)
    return OperatorMatrix(pairing_matrix(_images(sym, dom), cod.values, settings), dom, cod)


def tho_matrix(u: InnerFunction, v: InnerFunction, sym: RationalSymbol,
               settings: QuadratureSettings | None = None) -> OperatorMatrix:
    """Truncated Hankel operator f -> P_v J (I-P)(sym * f) from K_u into K_v.

    Since J is self-adjoint, J e_i lies entirely in the antianalytic part,
    and (I-P) is an orthogonal projection, the entries reduce to
    <sym * e_j, J e_i>: no explicit Riesz projection is needed.
    """
    dom = tm_basis(u)
    cod = tm_basis(v)
    return OperatorMatrix(pairing_matrix(_images(sym, dom), _flipped(cod), settings),
                          dom, cod)


def adjoint_tho_check(u: InnerFunction, v: InnerFunction, sym: RationalSymbol,
                      tol: float = 1e-9) -> bool:
    """Whether the adjoint of the Hankel operator equals the one with hatted symbol."""
    lhs = tho_matrix(u, v, sym).adjoint()
    rhs = tho_matrix(v, u, sym.hat())
    return bool(np.max(np.abs(lhs.matrix - rhs.matrix)) < tol)


def sedlock_op(u: InnerFunction, alpha, phi: SpaceElement, c=0.0,
               settings: QuadratureSettings | None = None) -> OperatorMatrix:
    """A member of the Sedlock class with parameter alpha, built from its symbol.

    The two symbol parts are paired separately (the builder is linear in the
    symbol); a combined rational would stack the denominators of both parts.
    """
    alpha = ExtendedScalar.of(alpha)
    if phi.space != tm_basis(u):
        raise SpaceMismatch("phi must live in K_u")
    space = phi.space
    if alpha.is_infinity:
        out = tto_matrix(u, u, phi.rep().conj_circle(), settings)
    else:
        out = tto_matrix(u, u, phi.rep(), settings)
        if alpha.value != 0:
            scphi = shift(u).apply(conjugation_C(u).apply(phi))
            out = out + alpha.value * tto_matrix(u, u, scphi.rep().conj_circle(),
                                                 settings)
    return out + complex(c) * OperatorMatrix.identity(space)


def spectral_multiplier(u: InnerFunction, clark: ClarkData, values) -> OperatorMatrix:
    """sum_j values[j] * (projector onto the boundary kernel at the j-th Clark point).

    Projectors are built from normalized boundary kernels rather than raw
    eigenvectors, which pins phases deterministically.
    """
    space = tm_basis(u)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for val, point in zip(values, clark.points):
        q = normalized(boundary_kernel(u, point)).coords
        mat += complex(val) * np.outer(q, np.conj(q))
    return OperatorMatrix(mat, space, space)


def functional_calculus(u: InnerFunction, alpha, psi: RationalSymbol,
                        settings: QuadratureSettings | None = None) -> OperatorMatrix:
    """psi evaluated on the shift perturbation, per the parameter regime.

    |alpha| < 1: the Toeplitz operator with symbol psi u/(u - alpha)
    (psi/(1 - alpha conj(u)) realized rationally).  |alpha| > 1: symbol
    alpha conj(psi) u_den/(alpha u_den - u_num).  |alpha| = 1: spectral sum
    over the Clark points.
    """
    alpha = ExtendedScalar.of(alpha)
    if alpha.is_infinity:
        raise SingularDenominator("functional calculus needs a finite parameter")
    a = alpha.value
    mod = abs(a)
    unum = u.num_coeffs
    uden = u.den_coeffs
    if abs(mod - 1.0) <= 1e-12:
        clark = clark_points(u, a)
        return spectral_multiplier(u, clark, [psi(p) for p in clark.points])
    if mod < 1.0:
        den = RationalSymbol(np.polynomial.polynomial.polyadd(unum, -a * uden), uden,
                             check_poles=False)
        _guard_circle(den, unum.size - 1)
        sym = psi * u.as_symbol() / den
        return tto_matrix(u, u, sym, settings)
    den = RationalSymbol(np.polynomial.polynomial.polyadd(a * uden, -unum), uden,
                         check_poles=False)
    _guard_circle(den, unum.size - 1)
    sym = a * psi.conj_circle() / den
    return tto_matrix(u, u, sym, settings)


def _guard_circle(sym: RationalSymbol, degree: int):
    """Raise if a calculus denominator u - alpha (or alpha - u) nearly vanishes on the circle."""
    sample = sym.values_at(max(64, 8 * max(degree, 1)))
    if np.min(np.abs(sample)) < 1e-8:
        raise SingularDenominator("calculus denominator vanishes on the circle")


def symmetric_involution(u: InnerFunction) -> OperatorMatrix:
    """The linear unitary involution on K_u over a real symmetric generator.

    The composition of the natural conjugation with the coefficient
    conjugation; being a product of two antilinear isometries it is a plain
    unitary, self-adjoint and squaring to the identity.  It also equals the
    Hankel operator with symbol conj(u); tests pin that identity.
    """
    if not u.is_real_symmetric():
        raise NotRealSymmetric("the involution needs a real symmetric generator")
    return conjugation_C(u) @ conjugation_U_on(u)
