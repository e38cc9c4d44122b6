"""Matrix realizations of the operators on model spaces.

Builders for the rank-one perturbations of the compressed shift (with the
Clark points and weights of the unitary ones), truncated Toeplitz and Hankel
operators (symmetric and asymmetric), the Sedlock-class constructors and
the functional calculus of the Sedlock classes.  The shift itself, the
conjugations and the unitary involution over a real symmetric generator
are held by the basis of K_u (`ModelSpaceBasis.shift`, `.conjugation_C`,
`.conjugation_U`, `.symmetric_involution`), and read off it.

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
Both are linear in the symbol, so once a pair of spaces has been built more
times than it has basis symbols, it pairs the operators of every basis
symbol at once (`_symbol_operators`), held in the memo of the current
evaluation by the pair's generators and settings (`_warm_pair`), and each
later build contracts them with the coordinates without pairing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import quadrature
from .blaschke import UNIMODULAR_TOL, ExtendedScalar, InnerFunction
from .errors import (
    DegenerateSpectrum,
    NoConvergence,
    NotUnimodular,
    SingularDenominator,
    SpaceMismatch,
)
from .modelspace import (
    ModelSpaceBasis,
    OperatorMatrix,
    SpaceElement,
    _hankel_parts,
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


def rank_one(f: SpaceElement, g: SpaceElement) -> OperatorMatrix:
    """The operator h -> f <h, g>, from g's space into f's space."""
    return OperatorMatrix(np.outer(f.coords, np.conj(g.coords)), g.space, f.space)


def defects(u: InnerFunction) -> tuple[OperatorMatrix, OperatorMatrix]:
    """The rank-one defect operators (I - S S*, I - S* S), built from kernels.

    Equal to the algebraic combinations by construction; tests assert it.
    """
    space = tm_basis(u)
    k0, kt0 = space.kernel0, space.conj_kernel0
    return rank_one(k0, k0), rank_one(kt0, kt0)


def clark_perturbation(space: ModelSpaceBasis, alpha) -> OperatorMatrix:
    """The rank-one perturbation S + alpha/(1 - alpha conj(u(0))) k0 (x) conj-kernel0
    of the shift on space = K_u, from the operators the basis holds.

    Unitary exactly when |alpha| = 1; a contraction for |alpha| < 1.
    """
    alpha = complex(alpha)
    denom = 1.0 - alpha * np.conj(space.generator.origin_value)
    if abs(denom) < 1e-12:
        raise SingularDenominator("1 - alpha conj(u(0)) vanishes")
    if alpha == 0:
        return space.shift
    bump = rank_one(space.kernel0, space.conj_kernel0)
    return space.shift + (alpha / denom) * bump


def level_points(space: ModelSpaceBasis, level) -> np.ndarray:
    """The eigenvalues of `clark_perturbation(space, level)`, ordered by argument.

    Raises DegenerateSpectrum when two coincide: the kernels there, the
    eigenvectors of its adjoint (Clark 1972), then fall short of a basis.
    """
    eigvals = np.linalg.eigvals(clark_perturbation(space, level).matrix)
    eigvals = eigvals[np.argsort(np.mod(np.angle(eigvals), 2.0 * np.pi))]
    gaps = np.abs(eigvals[:, None] - eigvals[None, :]) + np.eye(space.dim)
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
    points = tuple(complex(z / abs(z)) for z in level_points(tm_basis(u), alpha))
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
    (`ModelSpaceBasis.shift`), so its sum over the earlier rows is w_i t_i, with
    t_(i+1) = w_i y_i - conj(b_i) t_i: each solve takes O(deg v) steps.
    G = I when u and v share their zeros.
    """
    dom, cod = tm_basis(u), tm_basis(v)
    if u.zeros == v.zeros:
        return OperatorMatrix(dom.eye, dom, cod)
    su, sv = dom.shift.matrix, cod.shift.matrix
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
    mat = _horner(c[order:], gram.codomain.shift.matrix.T, gram.matrix.T).T
    if order:   # G phi_-(S_u)* = (sum_(k>=1) c_-k G (S_u*)^(k-1)) S_u*
        adj = gram.domain.shift_adjoint.matrix
        mat += _horner(c[order - 1::-1], adj, gram.matrix) @ adj
    return OperatorMatrix(mat, gram.domain, gram.codomain)


def tho_matrix(u: InnerFunction, v: InnerFunction, sym: RationalSymbol) -> OperatorMatrix:
    """Truncated Hankel operator f -> P_v J (I-P)(sym * f) from K_u into K_v.

    Exact for a Laurent symbol: <e_j, z^m> = conj((S_u^m k0_u)_j), so with
    h_p = c_-(p+1) the matrix is sum_(a+b<N) h_(a+b) x_a y_b^H over the
    columns x_a = S_v^a k0_v and y_b = S_u^b k0_u; the analytic part of the
    symbol gives 0; the columns are those the bases hold (`ModelSpaceBasis.orbit`).
    Any other symbol is paired (`tho_by_pairing`).
    """
    laurent = _laurent(sym)
    if laurent is None:
        return tho_by_pairing(u, v, sym)
    c, order = laurent
    dom, cod = tm_basis(u), tm_basis(v)
    if not order:
        return OperatorMatrix(np.zeros((cod.dim, dom.dim), dtype=complex), dom, cod)
    h = c[order - 1::-1]
    x = cod.orbit(order)
    yh = dom.orbit(order).conj().T
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


# the most values one piece of a pair's basis-symbol operators pairs at its
# first level, unless one direct build pairs more: a degree-32 pair paired
# whole holds tens of MB of grid products
PIECE_VALUES = 1 << 16


def _symbol_operators(dom: ModelSpaceBasis, cod: ModelSpaceBasis, side: Block, symbols,
                      count: int, reach: Reach) -> np.ndarray:
    """T[i * dom.dim + j, l] = <s_l e_j, g_i> for the basis e of dom, the
    ``count`` symbols s_l whose (m, count) grid is ``symbols(m)`` and the
    rows g_i of ``side``, cod's block or flipped block.  T c is the
    operator with symbol sum_l c_l s_l, row by row; for one symbol, T is
    the operator itself.

    The products s_l e_j state ``reach``, that of the direct build, and are
    paired in pieces of whole columns j, each certified as any pairing is,
    of at most PIECE_VALUES values at their first level, or of the values
    of one direct build where those are more; so one symbol pairs in one
    piece, with the bits of its direct build.
    """
    first = 2 * quadrature.first_level(reach, side.reach, quadrature.current().settings)
    step = max(1, max(PIECE_VALUES, first * dom.dim) // (first * count))
    out = np.empty((cod.dim, dom.dim, count), dtype=complex)
    for lo in range(0, dom.dim, step):
        cols = slice(lo, min(dom.dim, lo + step))
        block = Block(lambda m, cols=cols: (symbols(m)[:, None, :]
                                            * dom.values(m)[:, cols, None]).reshape(m, -1), reach)
        out[:, cols] = pairing_matrix(block, side).reshape(cod.dim, -1, count)
    return out.reshape(-1, count)


@dataclass
class _Warm:
    """A pair of spaces' builds counted while it is cold and, once it is warm,
    the read-only operators of its basis symbols."""

    builds: itertools.count = field(default_factory=itertools.count)
    operators: np.ndarray | None = None


@quadrature.memoized
def _warm_pair(kind: str, u: InnerFunction, v: InnerFunction,
               settings: quadrature.QuadratureSettings) -> _Warm:
    """The warm state of the ``kind`` ("tto" or "tho") builds from K_u into K_v
    under settings, memoized in the current evaluation, so a new evaluation
    starts every pair cold and its key holds generators, not bases."""
    return _Warm()


def _warm_tensor(kind: str, u: InnerFunction, v: InnerFunction, coordinates: int, pair):
    """The operators of a pair's basis symbols (`_warm_pair`), or None while
    the pair is cold.

    Each call of a cold pair counts one build.  The build after the first
    ``coordinates``, the number of the pair's basis symbols, makes the
    operators by ``pair()``, at about the cost of that many direct builds,
    and every build after they are held contracts them.  ``next`` on the
    count is atomic, so under threads one build makes them; a build that
    comes while they are being made still builds directly.  Operators whose
    pairing does not converge are not held, and the pair keeps building
    directly.
    """
    warm = _warm_pair(kind, u, v, quadrature.current().settings)
    got = warm.operators
    if got is None and next(warm.builds) == coordinates:
        try:
            got = warm.operators = readonly(pair())
        except NoConvergence:
            return None
    return got


def _sarason_tto(dom: ModelSpaceBasis, cod: ModelSpaceBasis, x: SpaceElement | None,
                 y: SpaceElement | None, exact: bool = True) -> OperatorMatrix:
    """`tto_matrix(u, v, x + conj(y))` from dom = K_u into cod = K_v, for a
    Sarason pair x in K_v and y in K_u, either None for 0, made from their
    coordinates.  A part in another space raises SpaceMismatch.

    With exact, a Laurent symbol (every zero of the parts' spaces at 0) takes
    the closed form.  Otherwise a cold pair pairs the one symbol
    E_v x + conj(E_u y), from the basis grids, with the reach and the bits
    of `tto_by_pairing` on the symbol, which is never built.  A warm pair
    (`_warm_tensor`, keyed "tto", u, v) contracts the operators of the
    basis symbols e^v_l and conj(e^u_l) with (x, conj(y)), and pairs
    nothing.
    """
    if (x is not None and x.space != cod) or (y is not None and y.space != dom):
        raise SpaceMismatch("a Sarason pair needs x in the codomain and y in the domain")

    def reach():
        return reduce(Reach.join, [p.space.generator.reach for p in (x, y) if p is not None])

    if exact and reach().rho == math.inf:
        terms = ([] if x is None else [x.rep()]) + ([] if y is None else [y.rep().conj_circle()])
        return tto_matrix(dom.generator, cod.generator, sum(terms[1:], terms[0]))
    ops = _warm_tensor(
        "tto", dom.generator, cod.generator, cod.dim + dom.dim,
        lambda: _symbol_operators(
            dom, cod, cod.block,
            lambda m: np.concatenate([cod.values(m), dom.block.conj(m)], axis=1),
            cod.dim + dom.dim,
            cod.generator.reach.join(dom.generator.reach).times(dom.generator.reach)))
    if ops is None:
        def symbol(m):
            part = None if x is None else x.space.values(m) @ x.coords
            if y is not None:
                bar = np.conj(y.space.values(m) @ y.coords)
                part = bar if part is None else part + bar
            return part[:, None]

        mat = _symbol_operators(dom, cod, cod.block, symbol, 1, reach().times(dom.generator.reach))
    else:
        coords = np.zeros(cod.dim + dom.dim, dtype=complex)
        if x is not None:
            coords[:cod.dim] = x.coords
        if y is not None:
            coords[cod.dim:] = np.conj(y.coords)
        mat = ops @ coords
    return OperatorMatrix(mat.reshape(cod.dim, dom.dim), dom, cod)


def _element_tho(psi: SpaceElement, exact: bool = True) -> OperatorMatrix:
    """`tho_matrix(u, v, conj(psi))` for psi in `hankel_space(u, v)`, made from
    its coordinates; u and v are read off psi's space.

    With exact, every zero of u and v at 0 takes the closed form.  Otherwise
    a cold pair pairs the one symbol conj(psi), from the basis grids through
    psi's blocks as `hankel_symbol` evaluates it, against J e_i, with the
    reach and the bits of `tho_by_pairing` on conj(psi).  A warm pair
    (`_warm_tensor`, keyed "tho", u, v) contracts the operators of the
    conjugated basis symbols of psi's space with conj(psi), and pairs
    nothing.
    """
    head, tail, cod = _hankel_parts(psi)
    space = psi.space
    if exact and space.generator.reach.rho == math.inf:
        return tho_matrix(head.generator, cod.generator, hankel_symbol(psi).conj_circle())
    ops = _warm_tensor(
        "tho", head.generator, cod.generator, space.dim,
        lambda: _symbol_operators(
            head, cod, cod.flipped,
            lambda m: np.conj(np.concatenate(
                [head.values(m), head._running(m)[:, None] * tail.values(m)], axis=1)),
            space.dim, space.generator.reach.times(head.generator.reach)))
    if ops is None:
        x, y = psi.coords[:head.dim], psi.coords[head.dim:]
        mat = _symbol_operators(
            head, cod, cod.flipped,
            lambda m: np.conj(head.values(m) @ x + head._running(m) * (tail.values(m) @ y))[:, None],
            1, space.generator.reach.times(head.generator.reach))
    else:
        mat = ops @ np.conj(psi.coords)
    return OperatorMatrix(mat.reshape(cod.dim, head.dim), head, cod)


def sedlock_op(u: InnerFunction, alpha, phi: SpaceElement, c=0.0) -> OperatorMatrix:
    """A member of the Sedlock class with parameter alpha, built from its symbol.

    The symbol is phi + alpha conj(S C phi) for finite alpha (Sarason 2007),
    and conj(phi) at infinity: a Sarason pair, built from its coordinates by
    one pairing, or in closed form when every zero of u is 0.  Its operators
    come from phi's basis, and c I is added to the built array.
    """
    alpha = ExtendedScalar.of(alpha)
    space = phi.space
    if space.generator != u:
        raise SpaceMismatch("phi must live in K_u")
    if alpha.is_infinity:
        x, y = None, phi
    elif alpha.value == 0:
        x, y = phi, None
    else:
        x, y = phi, np.conj(alpha.value) * space.shift.apply(space.conjugation_C.apply(phi))
    mat = _sarason_tto(space, space, x, y).matrix
    return OperatorMatrix(mat + complex(c) * space.eye, space, space)


def spectral_multiplier(clark: ClarkData, values) -> OperatorMatrix:
    """sum_j values[j] * (projector onto the boundary kernel at the j-th Clark
    point), on K_u for the generator u of the Clark data.

    Projectors are built from normalized boundary kernels rather than raw
    eigenvectors, which pins phases deterministically.
    """
    space = tm_basis(clark.generator)
    q = unit_kernels(space, clark.points)
    mat = q.T @ (np.asarray(values, dtype=complex)[:, None] * np.conj(q))
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
    denominator, then one solve, also for a polynomial psi: a solve by the
    identity can turn a -0.0 part of its right side into +0.0.  psi must be
    analytic on the closed disk, where the spectrum of S^beta lies.
    """
    den = psi.den
    if den.size > 1 and np.min(np.abs(npoly.polyroots(den))) <= 1.0 + CIRCLE_POLE_MARGIN:
        raise SingularDenominator("calculus symbol has a pole in the closed disk")
    level, adjoint = class_level(alpha)
    base = clark_perturbation(tm_basis(u), level)
    eye = base.domain.eye
    mat = np.linalg.solve(_horner(den, base.matrix, eye), _horner(psi.num, base.matrix, eye))
    out = OperatorMatrix(mat, base.domain, base.codomain)
    return out.adjoint() if adjoint else out
