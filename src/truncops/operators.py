"""Matrix realizations of the operators on model spaces.

Builders for the compressed shift and its rank-one perturbations (with the
Clark points and weights of the unitary ones), truncated Toeplitz and Hankel
operators (symmetric and asymmetric), the Sedlock-class constructors, the
functional calculus of the Sedlock classes, and the unitary involution
available over a real symmetric generator.

The shift, its perturbations, the functional calculus and the involution
are exact matrix algebra.  So are the Toeplitz and Hankel builders for a
Laurent symbol sum(c_k z^k, -N <= k <= M), whose poles lie at 0 and
infinity only: A = phi_+(S_v) G + G phi_-(S_u)* (Sarason 2007), with
phi_+ = sum_(k>=0) c_k z^k, phi_- = sum_(k>=1) conj(c_-k) z^k and G = P_v|K_u
the cross Gram matrix (`cross_gram`), and
B = sum_(p>=0) c_-(p+1) sum_(m<=p) (S_v^(p-m) k0_v)(S_u^m k0_u)^H.
For any other symbol the entries are pairings of exact rational symbols,
whose one numeric step is the circle quadrature (`tto_by_pairing`,
`tho_by_pairing`); conj(u) on the circle is the rational function 1/u.
Those builders pair whole blocks of basis values (symbol times basis, and
the flipped basis).  A Sarason pair x + conj(y), or conj(psi) for a Hankel
element psi, is paired from its coordinates (`_sarason_tto`, `_element_tho`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import quadrature
from .blaschke import UNIMODULAR_TOL, ExtendedScalar, InnerFunction
from .errors import (DegenerateSpectrum, NotRealSymmetric, NotUnimodular, SingularDenominator,
                     SpaceMismatch)
from .modelspace import (
    ModelSpaceBasis,
    OperatorMatrix,
    SpaceElement,
    conjugation_C,
    conjugation_U_on,
    kernel,
    conj_kernel,
    hankel_space,
    hankel_symbol,
    tm_basis,
    unit_kernels,
)
from .quadrature import Block, Reach, pairing_matrix, readonly
from .ratfun import CIRCLE_POLE_MARGIN, RationalSymbol


def _images(sym: RationalSymbol, space: ModelSpaceBasis) -> Block:
    """The block of values of sym * e_j, one column per basis function e_j."""
    return Block(lambda m: sym.values_at(m)[:, None] * space.values(m),
                 sym.reach.times(space.generator.reach))


@quadrature.memoized
def shift(u: InnerFunction) -> OperatorMatrix:
    """The compressed shift on K_u: f -> P_u(z f), memoized in the current evaluation.

    Exact (Garcia-Mashreghi-Ross 2018): the zeros a_i on the diagonal and
    sqrt(1-|a_i|^2) sqrt(1-|a_j|^2) prod_(j<k<i) (-conj(a_k)) below it, a
    running product down each column, so a zero at 0 needs no division.
    The matrix is read-only.
    """
    a = np.array(u.zeros)
    idx = np.arange(a.size)
    mat = np.zeros((a.size, a.size), dtype=complex)
    mat[1:] = np.cumprod(np.where(idx[:, None] > idx, -np.conj(a)[:, None], 1.0), axis=0)[:-1]
    weights = np.sqrt(1.0 - np.abs(a) ** 2)
    mat = np.tril(mat * np.outer(weights, weights), -1) + np.diag(a)
    return OperatorMatrix(readonly(mat), tm_basis(u), tm_basis(u))


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
    denom = 1.0 - alpha * np.conj(u.origin_value)
    if abs(denom) < 1e-12:
        raise SingularDenominator("1 - alpha conj(u(0)) vanishes")
    if alpha == 0:
        return shift(u)
    bump = rank_one(kernel(u, 0.0), conj_kernel(u, 0.0))
    return shift(u) + (alpha / denom) * bump


def level_points(u: InnerFunction, level) -> np.ndarray:
    """The eigenvalues of `clark_perturbation(u, level)`, ordered by argument.

    Raises DegenerateSpectrum when two coincide: the kernels there, the
    eigenvectors of its adjoint (Clark 1972), then fall short of a basis.
    """
    eigvals = np.linalg.eigvals(clark_perturbation(u, level).matrix)
    eigvals = eigvals[np.argsort(np.mod(np.angle(eigvals), 2.0 * np.pi))]
    gaps = np.abs(eigvals[:, None] - eigvals[None, :]) + np.eye(u.degree)
    if np.min(gaps) < 1e-10:
        raise DegenerateSpectrum("two level points coincide")
    return eigvals


@dataclass(frozen=True)
class ClarkData:
    """Spectral data of the unitary rank-one perturbation at |alpha| = 1.

    points are the n distinct unimodular eigenvalues of the perturbation of
    the shift on K_generator, and u_values the boundary values u(point)
    recorded so the empirical orientation u(point) vs alpha is data rather
    than an assumption.  weights, the Clark masses 1/|u'(point)|, are
    computed on first read, one ``generator.derivative`` per point, since
    most callers read only the points.
    """

    generator: InnerFunction = field(repr=False)
    alpha: complex
    points: tuple
    u_values: tuple

    @cached_property
    def weights(self) -> tuple:
        return tuple(1.0 / abs(self.generator.derivative(p)) for p in self.points)

    def orientation(self) -> str:
        """Which of u(point) = alpha / conj(alpha) the spectrum satisfies, to 1e-8."""
        direct = max(abs(v - self.alpha) for v in self.u_values)
        flipped = max(abs(v - np.conj(self.alpha)) for v in self.u_values)
        if direct < 1e-8:
            return "u(point) = alpha"
        if flipped < 1e-8:
            return "u(point) = conj(alpha)"
        return "mixed"

    def to_json(self) -> dict:
        return {
            "alpha": [self.alpha.real, self.alpha.imag],
            "points": [[p.real, p.imag] for p in self.points],
            "weights": list(self.weights),
            "orientation": self.orientation(),
        }


def clark_points(u: InnerFunction, alpha) -> ClarkData:
    """Eigenvalues and weights of the unitary perturbation of the compressed shift.

    The points are `level_points` (the same matrix certifies unitarity).
    Weights are 1/|u'(point)|, computed when first read; the quadrature
    identity sum(w_j |f(point_j)|^2) = ||f||^2 is validated by tests, not assumed.
    """
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > UNIMODULAR_TOL:
        raise NotUnimodular(f"Clark parameter must be unimodular, got |alpha|={abs(alpha)!r}")
    points = tuple(complex(z / abs(z)) for z in level_points(u, alpha))
    u_values = tuple(complex(v) for v in u(np.array(points)))
    return ClarkData(u, alpha, points, u_values)


@quadrature.memoized
def cross_gram(u: InnerFunction, v: InnerFunction) -> OperatorMatrix:
    """G = P_v restricted to K_u, G[i, j] = <e_j, e_i> across the two bases,
    memoized in the current evaluation; the matrix is read-only.

    Exact: P_v(z h) = S_v P_v h for every h in H^2, since (I - P_v) h lies in
    v H^2, and f = f(0) + z S_u* f on K_u, so G - S_v G S_u* = k0_v k0_u^H.
    S_u is lower triangular with the zeros a_j of u on its diagonal, so
    column j solves (I - conj(a_j) S_v) g_j = conj(k0_u[j]) k0_v
    + S_v sum_(l<j) conj(S_u[j, l]) g_l, by forward substitution.  Row i of
    S_v is b_i on the diagonal and w_i w_l prod_(l<k<i) (-conj(b_k)) before it
    (`shift`), so its sum over the earlier rows is w_i t_i, with
    t_(i+1) = w_i y_i - conj(b_i) t_i: each solve takes O(deg v) steps.
    G = I when u and v share their zeros.
    """
    dom, cod = tm_basis(u), tm_basis(v)
    if u.zeros == v.zeros:
        return OperatorMatrix(readonly(np.eye(dom.dim, dtype=complex)), dom, cod)
    su, sv = shift(u).matrix, shift(v).matrix
    rows = [(b, math.sqrt(1.0 - abs(b) ** 2)) for b in v.zeros]
    gram = np.outer(cod.k0, np.conj(dom.k0))    # column j turns into g_j in turn
    for j, a in enumerate(u.zeros):
        lam = a.conjugate()
        rhs = gram[:, j] + sv @ (gram[:, :j] @ np.conj(su[j, :j]))
        col, t = [], 0j
        for (b, w), x in zip(rows, rhs.tolist()):
            y = (x + lam * w * t) / (1.0 - lam * b)
            col.append(y)
            t = w * y - b.conjugate() * t
        gram[:, j] = col
    return OperatorMatrix(readonly(gram), dom, cod)


def _laurent(sym: RationalSymbol) -> tuple[np.ndarray, int] | None:
    """(c, N) with sym = sum_k c[k + N] z^k, c holding at least c_-N..c_0, when
    every pole of sym lies at 0 or infinity; None for any other symbol."""
    if sym.reach.rho != math.inf:
        return None
    num, order = sym.num, sym.den.size - 1     # the monic denominator is z^N
    if num.size <= order:
        num = np.concatenate([num, np.zeros(order + 1 - num.size, dtype=complex)])
    return num, order


def _krylov(mat: np.ndarray, vec: np.ndarray, count: int) -> np.ndarray:
    """The columns vec, mat vec, ..., mat^(count-1) vec."""
    out = np.empty((vec.size, count), dtype=complex)
    out[:, 0] = vec
    for k in range(1, count):
        out[:, k] = mat @ out[:, k - 1]
    return out


def tto_matrix(u: InnerFunction, v: InnerFunction, sym: RationalSymbol) -> OperatorMatrix:
    """Truncated Toeplitz operator f -> P_v(sym * f) from K_u into K_v.

    Exact for a Laurent symbol: phi_+(S_v) G + G phi_-(S_u)*, by Horner's rule
    on G = `cross_gram(u, v)`, which makes no pairing.  Any other symbol is
    paired (`tto_by_pairing`).
    """
    laurent = _laurent(sym)
    if laurent is None:
        return tto_by_pairing(u, v, sym)
    c, order = laurent
    c = c.tolist()      # scalar products with Python numbers are cheaper
    gram = cross_gram(u, v)
    # phi_+(S_v) G as the transpose of G^T phi_+(S_v)^T
    mat = _horner(c[order:], shift(v).matrix.T, gram.matrix.T).T
    if order:   # G phi_-(S_u)* = (sum_(k>=1) c_-k G (S_u*)^(k-1)) S_u*
        adj = shift(u).matrix.conj().T
        mat += _horner(c[order - 1::-1], adj, gram.matrix) @ adj
    return OperatorMatrix(mat, gram.domain, gram.codomain)


def tho_matrix(u: InnerFunction, v: InnerFunction, sym: RationalSymbol) -> OperatorMatrix:
    """Truncated Hankel operator f -> P_v J (I-P)(sym * f) from K_u into K_v.

    Exact for a Laurent symbol: <e_j, z^m> = conj((S_u^m k0_u)_j), so with
    h_p = c_-(p+1) the matrix is sum_(a+b<N) h_(a+b) x_a y_b^H over the
    columns x_a = S_v^a k0_v and y_b = S_u^b k0_u; the analytic part of the
    symbol gives 0.  Any other symbol is paired (`tho_by_pairing`).
    """
    laurent = _laurent(sym)
    if laurent is None:
        return tho_by_pairing(u, v, sym)
    c, order = laurent
    dom, cod = tm_basis(u), tm_basis(v)
    if not order:
        return OperatorMatrix(np.zeros((cod.dim, dom.dim), dtype=complex), dom, cod)
    h = c[order - 1::-1]
    x = _krylov(shift(v).matrix, cod.k0, order)
    yh = _krylov(shift(u).matrix, dom.k0, order).conj().T
    rows = np.empty((order, dom.dim), dtype=complex)    # rows[a] = sum_b h_(a+b) y_b^H
    for a in range(order):
        rows[a] = h[a:] @ yh[:order - a]
    return OperatorMatrix(x @ rows, dom, cod)


def tto_by_pairing(u: InnerFunction, v: InnerFunction, sym: RationalSymbol) -> OperatorMatrix:
    """`tto_matrix` by circle quadrature, for any symbol: the entries
    <sym * e_j, e_i> paired as one block."""
    dom = tm_basis(u)
    cod = tm_basis(v)
    return OperatorMatrix(pairing_matrix(_images(sym, dom), cod.block), dom, cod)


def tho_by_pairing(u: InnerFunction, v: InnerFunction, sym: RationalSymbol) -> OperatorMatrix:
    """`tho_matrix` by circle quadrature, for any symbol.

    Since J is self-adjoint, J e_i lies entirely in the antianalytic part,
    and (I-P) is an orthogonal projection, the entries reduce to
    <sym * e_j, J e_i>: no explicit Riesz projection is needed.
    """
    dom = tm_basis(u)
    cod = tm_basis(v)
    return OperatorMatrix(pairing_matrix(_images(sym, dom), cod.flipped), dom, cod)


def _sarason_tto(u: InnerFunction, v: InnerFunction, x: SpaceElement | None,
                 y: SpaceElement | None, exact: bool = True) -> OperatorMatrix:
    """`tto_matrix(u, v, x + conj(y))` for a Sarason pair x in K_v and y in K_u,
    either None for 0, made from their coordinates.

    With exact, a Laurent symbol (every zero of the parts' spaces at 0) takes
    the closed form.  Otherwise the block (E_v x + conj(E_u y)) e_j is formed
    from the basis grids and paired once, with the reach and the bits of
    `tto_by_pairing` on the symbol, which is never built.
    """
    reach = reduce(Reach.join, [p.space.generator.reach for p in (x, y) if p is not None])
    if exact and reach.rho == math.inf:
        terms = ([] if x is None else [x.rep()]) + ([] if y is None else [y.rep().conj_circle()])
        return tto_matrix(u, v, sum(terms[1:], terms[0]))
    dom, cod = tm_basis(u), tm_basis(v)

    def images(m):
        part = None if x is None else x.space.values(m) @ x.coords
        if y is not None:
            bar = np.conj(y.space.values(m) @ y.coords)
            part = bar if part is None else part + bar
        return part[:, None] * dom.values(m)

    return OperatorMatrix(pairing_matrix(Block(images, reach.times(u.reach)), cod.block),
                          dom, cod)


def _element_tho(psi: SpaceElement, u: InnerFunction, v: InnerFunction,
                 exact: bool = True) -> OperatorMatrix:
    """`tho_matrix(u, v, conj(psi))` for psi in K_{u hat(v)} (`hankel_space`),
    made from its coordinates.

    With exact, every zero of u and v at 0 takes the closed form.  Otherwise
    the block conj(psi) e_j is formed from the basis grids, psi through its
    blocks as `hankel_symbol` evaluates it, and paired once against J e_i,
    with the reach and the bits of `tho_by_pairing` on conj(psi).
    """
    if psi.space != hankel_space(u, v):
        raise SpaceMismatch("psi is not in the u-first basis of K_{u hat(v)}")
    reach = psi.space.generator.reach
    if exact and reach.rho == math.inf:
        return tho_matrix(u, v, hankel_symbol(psi, u, v).conj_circle())
    head, tail, cod = tm_basis(u), tm_basis(v.hat()), tm_basis(v)
    x, y = psi.coords[:head.dim], psi.coords[head.dim:]

    def images(m):
        e = head.values(m)
        return np.conj(e @ x + head._running(m) * (tail.values(m) @ y))[:, None] * e

    return OperatorMatrix(pairing_matrix(Block(images, reach.times(u.reach)), cod.flipped),
                          head, cod)


def sedlock_op(u: InnerFunction, alpha, phi: SpaceElement, c=0.0) -> OperatorMatrix:
    """A member of the Sedlock class with parameter alpha, built from its symbol.

    The symbol is phi + alpha conj(S C phi) for finite alpha (Sarason 2007),
    and conj(phi) at infinity: a Sarason pair, built from its coordinates by
    one pairing, or in closed form when every zero of u is 0.
    """
    alpha = ExtendedScalar.of(alpha)
    if phi.space != tm_basis(u):
        raise SpaceMismatch("phi must live in K_u")
    if alpha.is_infinity:
        x, y = None, phi
    elif alpha.value == 0:
        x, y = phi, None
    else:
        x, y = phi, np.conj(alpha.value) * shift(u).apply(conjugation_C(u).apply(phi))
    return _sarason_tto(u, u, x, y) + complex(c) * OperatorMatrix.identity(phi.space)


def spectral_multiplier(u: InnerFunction, clark: ClarkData, values) -> OperatorMatrix:
    """sum_j values[j] * (projector onto the boundary kernel at the j-th Clark point).

    Projectors are built from normalized boundary kernels rather than raw
    eigenvectors, which pins phases deterministically.
    """
    q = unit_kernels(u, clark.points)
    mat = q.T @ (np.asarray(values, dtype=complex)[:, None] * np.conj(q))
    space = tm_basis(u)
    return OperatorMatrix(mat, space, space)


def class_level(alpha) -> tuple[complex, bool]:
    """The shift perturbation that carries the Sedlock class alpha.

    Members of the class are polynomials in S^alpha for |alpha| <= 1, and
    adjoints of polynomials in S^beta with beta = 1/conj(alpha) outside the
    closed disk (beta = 0 at infinity).  Returns (level, adjoint): the
    parameter of that perturbation and whether members are adjoints.
    """
    alpha = ExtendedScalar.of(alpha)
    if alpha.modulus() > 1.0:
        return alpha.reciprocal_conjugate().value, True
    return alpha.value, False


def _horner(coeffs, mat: np.ndarray, base: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] base mat^k by Horner's rule."""
    out = coeffs[-1] * base
    for c in coeffs[-2::-1]:
        out = out @ mat
        out += c * base
    return out


def functional_calculus(u: InnerFunction, alpha, psi: RationalSymbol) -> OperatorMatrix:
    """psi(S^alpha) for |alpha| <= 1, and psi(S^beta)* with beta = 1/conj(alpha)
    outside the closed disk (beta = 0 at infinity); see `class_level`.

    Exact: Horner on the shift perturbation for psi's numerator and
    denominator, then one solve.  psi must be analytic on the closed disk,
    where the spectrum of S^beta lies.
    """
    den = psi.den
    if den.size > 1 and np.min(np.abs(npoly.polyroots(den))) <= 1.0 + CIRCLE_POLE_MARGIN:
        raise SingularDenominator("calculus symbol has a pole in the closed disk")
    level, adjoint = class_level(alpha)
    base = clark_perturbation(u, level)
    eye = np.eye(u.degree, dtype=complex)
    mat = np.linalg.solve(_horner(den, base.matrix, eye), _horner(psi.num, base.matrix, eye))
    out = OperatorMatrix(mat, base.domain, base.codomain)
    return out.adjoint() if adjoint else out


@quadrature.memoized
def symmetric_involution(u: InnerFunction) -> OperatorMatrix:
    """The linear unitary involution on K_u over a real symmetric generator.

    The composition of the natural conjugation with the coefficient
    conjugation; being a product of two antilinear isometries it is a plain
    unitary, self-adjoint and squaring to the identity.  It also equals the
    Hankel operator with symbol conj(u); tests pin that identity.  Memoized
    in the current evaluation; the matrix is read-only.
    """
    if not u.is_real_symmetric():
        raise NotRealSymmetric("the involution needs a real symmetric generator")
    out = conjugation_C(u) @ conjugation_U_on(u)
    readonly(out.matrix)
    return out
