"""Model spaces as concrete coordinate spaces.

For a finite Blaschke product u of degree n the model space K_u (the
orthogonal complement of u H^2 in H^2) is n dimensional.  This module fixes
the Takenaka-Malmquist orthonormal basis ordered by the stored zero list,
and provides coordinates for the reproducing kernels, the projection onto
K_u, and the conjugate-linear symmetries: the natural conjugation on K_u
and the coefficient conjugation onto the hat space, which the basis holds
(the flip J of symbols is `RationalSymbol.flip`).

Point evaluation is factored: ``ModelSpaceBasis.at`` runs the product
e_k(z) = sqrt(1-|a_k|^2)/(1 - conj(a_k) z) * prod_{j<k} (z-a_j)/(1 - conj(a_j) z)
once for all k, so kernels and element values need neither expanded
coefficients nor pairings; ``values`` is the same product on the circle
nodes, kept per grid with the running product prod_j b_j from the same
evaluation.  The grid of a hat basis is its source's grid conjugated, since
e^_k(z) = conj(e_k(conj z)), with the bits of a cold evaluation.  The basis
of K_{a w} is the basis of K_a followed by (a/c_a) times the basis of K_w
(Garcia-Mashreghi-Ross, *Introduction to Model Spaces and their Operators*,
2016), which serves the symbols conj(psi) of Hankel operators K_a -> K_b:
psi lives in K_{a hat(b)} (`hankel_space`, memoized per pair), its two
coordinate blocks are projections (`symbol_blocks`), and `hankel_symbol`
evaluates psi through them from the grids of K_a and K_hat(b), so no grid
of K_{a hat(b)} is evaluated.  Basis orthonormality
is a theorem, so a basis build makes no pairing; `gram_residual` is its
quadrature oracle, which kernel-core gates at GRAM_TOL.  The conjugations
are exact too: both are changes of zero order (`reorder`), or the
identity for the coefficient conjugation.  The shift, the kernels at the
origin, `reorder` and point values read the generator's zero table
(`blaschke.ZeroTable`), each with the bits of its per-zero formula; a hat
basis's operators read the hat's table, which is its source's conjugated.

Elements and operator matrices are immutable after construction.  A basis
is the one per-generator cache: it holds its grids, the kernels k0 and k~0
at the origin (as arrays and as elements with their conjugates and squared
norms), the compressed shift and its adjoint, the conjugations, the
involution, the identity matrix and the orbit k0, S k0, ... of k0 under the
shift, each built on first read.  They have no other home: a caller
reads them off the bases of the operators it holds, or off `tm_basis(u)`.
The basis of K_{a hat(b)} that `hankel_space` builds per pair holds the
bases of K_a, K_hat(b) and K_b from construction, so psi carries its pair.
The two blocks of a basis (the basis and the flipped basis J e_k) cache
their conjugates, the conjugated side of every pairing against the basis.
Every cached array is read-only, so a basis is safe to share between
threads.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import quadrature
from .blaschke import InnerFunction
from .errors import NotRealSymmetric, SpaceMismatch, SymbolNotInClass
from .quadrature import Block, pairing_matrix, readonly
from .ratfun import RationalSymbol

GRAM_TOL = 1e-10


class ModelSpaceBasis:
    """Orthonormal Takenaka-Malmquist basis of K_u, ordered by the zero list.

    e_k(z) = sqrt(1-|a_k|^2)/(1 - conj(a_k) z) * prod_{j<k} (z-a_j)/(1 - conj(a_j) z).
    For u = z^n this is the monomial basis {1, z, ..., z^(n-1)}.
    """

    def __init__(self, generator: InnerFunction, hankel_parts: tuple | None = None):
        self.generator = generator
        self.hankel_parts = hankel_parts    # K_a, K_hat(b), K_b on `hankel_space(a, b)`
        n = len(generator.zeros)
        # per grid, the values and prod_j b_j over every zero factor
        self._value_cache: dict[int, tuple] = {}
        self._orbit = np.empty((n, 0), dtype=complex)      # see `orbit`
        self.dim = n
        # each e_k is analytic inside the disk of radius 1/max|a_k|, with at
        # most the zeros at 0 as the degree of its finite part
        self.block = Block(self.values, generator.reach)
        # J e_k = conj(z) e_k(conj z), the codomain side of Hankel builds
        self.flipped = Block(self._flipped_values, generator.reach.flipped())

    @cached_property
    def functions(self) -> list[RationalSymbol]:
        """Every e_k as a rational symbol, built on first read.

        Pairings and point evaluation read the factored values instead, so
        each symbol's values come from the basis grid block and its
        coefficients are expanded on the first read of num or den.
        """
        return [RationalSymbol(provider=(lambda m, _k=k: self.values(m)[:, _k]),
                               expand=(lambda _k=k: self._expansions[0][_k]),
                               reach=self.generator.reach)
                for k in range(self.dim)]

    @cached_property
    def _expansions(self):
        """Raw (numerator, denominator) of every e_k, and the lifted numerators.

        e_k = lifted[k] / u_den over the shared (unnormalized) denominator of
        the generator, so linear combinations stay degree <= n-1 over a
        degree-n denominator.
        """
        zs = self.generator.zeros
        raw = []
        num = np.ones(1, dtype=complex)  # running prod_{j<k} (z - a_j)
        den = np.ones(1, dtype=complex)  # running prod_{j<=k} (1 - conj(a_j) z)
        for a in zs:
            den = npoly.polymul(den, np.array([1.0, -np.conj(a)], dtype=complex))
            raw.append((np.sqrt(1.0 - abs(a) ** 2) * num, den))
            num = npoly.polymul(num, np.array([-a, 1.0], dtype=complex))
        tails = [np.ones(1, dtype=complex)]
        for a in reversed(zs[1:]):
            tails.append(npoly.polymul(tails[-1], np.array([1.0, -np.conj(a)], dtype=complex)))
        tails.reverse()
        return raw, [npoly.polymul(r, t) for (r, _), t in zip(raw, tails)]

    def __eq__(self, other):
        return self is other or (isinstance(other, ModelSpaceBasis)
                                 and self.generator == other.generator)

    def __hash__(self):
        return hash(self.generator)

    def __repr__(self):
        return f"ModelSpaceBasis(deg={self.dim}, generator={self.generator.to_json()})"

    @cached_property
    def k0(self) -> np.ndarray:
        """Coordinates of the kernel at the origin, conj(e_k(0)) with
        e_k(0) = sqrt(1-|a_k|^2) prod_{j<k} (-a_j), read off the zero table;
        read-only."""
        t = self.generator.table
        return readonly(np.conj(t.weights * t.running))

    @cached_property
    def conj_k0(self) -> np.ndarray:
        """Coordinates of the conjugate kernel at the origin; read-only."""
        return readonly(_conj_kernel_coords(self.generator, 0j))

    @cached_property
    def kernel0(self) -> "KernelElement":
        """The kernel at the origin, `k0`, as an element."""
        return KernelElement(self, self.k0)

    @cached_property
    def conj_kernel0(self) -> "KernelElement":
        """The conjugate kernel at the origin, `conj_k0`, as an element."""
        return KernelElement(self, self.conj_k0)

    def orbit(self, count: int) -> np.ndarray:
        """The columns k0, S k0, ..., S^(count-1) k0, read-only; held, grown
        to the largest count asked, each column the shift times the one before."""
        held = self._orbit
        if held.shape[1] < count:
            grown = np.empty((self.dim, count), dtype=complex)
            grown[:, :held.shape[1]] = held
            grown[:, 0] = self.k0
            for k in range(max(1, held.shape[1]), count):
                grown[:, k] = self.shift.matrix @ grown[:, k - 1]
            held = self._orbit = readonly(grown)
        return held[:, :count]

    # the per-generator operators, each built on first read, with read-only
    # matrices; a caller that holds an operator reads them off its bases

    @cached_property
    def shift(self) -> "OperatorMatrix":
        """The compressed shift on K_u: f -> P_u(z f).

        Exact (Garcia-Mashreghi-Ross 2018): the zeros a_i on the diagonal and
        sqrt(1-|a_i|^2) sqrt(1-|a_j|^2) prod_(j<k<i) (-conj(a_k)) below it, a
        running product down each column, so a zero at 0 needs no division;
        read off the zero table, with every zero unsigned.
        """
        t, n = self.generator.table, self.dim
        below = _below(n)
        products = np.cumprod(np.where(below, -t.conj[:, None], 1.0), axis=0)
        mat = np.zeros((n, n), dtype=complex)
        np.multiply(products[:-1], t.weights[1:, None] * t.weights, out=mat[1:],
                    where=below[1:])
        mat.flat[::n + 1] = t.zeros
        return OperatorMatrix(readonly(quadrature.unsigned_zeros(mat)), self, self)

    @cached_property
    def shift_adjoint(self) -> "OperatorMatrix":
        """S_u*, whose matrix is the conjugate transpose view of the shift's."""
        out = self.shift.adjoint()
        readonly(out.matrix)
        return out

    @cached_property
    def conjugation_C(self) -> "OperatorMatrix":
        """The natural conjugation on K_u: f -> u * conj(z f) on the circle.

        C e_k = c sqrt(1-|a_k|^2)/(1 - conj(a_k) z) prod_(j>k) b_j is c, the
        constant of u, times the (n-1-k)-th function in the reversed zero order.
        Antilinear, isometric, involutive.
        """
        u = self.generator
        mat = u.constant * reorder(u, range(u.degree - 1, -1, -1))[:, ::-1]
        return OperatorMatrix(readonly(mat), self, self, antilinear=True)

    @cached_property
    def eye(self) -> np.ndarray:
        """The identity matrix of K_u, complex and read-only."""
        return readonly(np.eye(self.dim, dtype=complex))

    @cached_property
    def conjugation_U(self) -> "OperatorMatrix":
        """Coefficient conjugation as an antilinear isometry from K_u onto K_hat(u).

        The hat of e_k is the k-th basis function of K_hat(u), so the matrix is
        the identity.
        """
        return OperatorMatrix(self.eye, self, tm_basis(self.generator.hat()), antilinear=True)

    @cached_property
    def conjugation_U_on(self) -> "OperatorMatrix":
        """Coefficient conjugation as a map K_u -> K_u, over a real symmetric u.

        K_hat(u) is then K_u with its zeros in their conjugate order, so the map
        is `reorder` to that order.  Raises SymbolNotInClass otherwise.
        """
        order = self.generator.conjugate_order
        if order is None:
            raise SymbolNotInClass("hat image leaves the space; generator is not real symmetric")
        return OperatorMatrix(readonly(reorder(self.generator, order)), self, self,
                              antilinear=True)

    @cached_property
    def symmetric_involution(self) -> "OperatorMatrix":
        """The linear unitary involution C U on K_u over a real symmetric generator.

        The composition of the natural conjugation with the coefficient
        conjugation; being a product of two antilinear isometries it is a plain
        unitary, self-adjoint and squaring to the identity.  It also equals the
        Hankel operator with symbol conj(u); tests pin that identity.  Raises
        NotRealSymmetric otherwise.
        """
        if not self.generator.is_real_symmetric():
            raise NotRealSymmetric("the involution needs a real symmetric generator")
        out = self.conjugation_C @ self.conjugation_U_on
        readonly(out.matrix)
        return out

    def at(self, z) -> np.ndarray:
        """Factored values e_k(z) of every basis function: shape z.shape + (dim,).

        Runs the product over the zero list once for all k, so no expanded
        coefficients are evaluated.  Raises PoleHit where some 1 - conj(a_k) z
        nearly vanishes, which happens only off the closed disk.
        """
        z = np.asarray(z, dtype=complex)
        self.generator.guard_poles(z)
        return self._evaluate(z)[0]

    def _evaluate(self, z):
        """e_k(z) for every k, and prod_j b_j(z) over every zero factor; their
        zeros unsigned (``quadrature.unsigned_zeros``).  Unguarded: grids lie
        on the circle, inside every pole's guard radius, and `at` guards.

        The factors of every zero come at once from the zero table
        (`ZeroTable.factors`), the running products one zero at a time, and
        the values of every e_k from them at once.
        """
        z = np.asarray(z, dtype=complex)
        t, n = self.generator.table, self.dim
        num, den = t.factors(z)
        # row k: prod_(j<k) b_j(z), one zero at a time; at a single point the
        # rows are numpy scalars, whose products round as the per-zero loop's
        # did (numpy's array multiply may fuse where its scalar one does not)
        running = np.empty((n,) + z.shape, dtype=complex)
        running[0] = 1.0
        for k in range(n - 1):
            running[k + 1] = running[k] * num[k] / den[k]
        last = running[n - 1] * num[n - 1] / den[n - 1]
        out = np.empty(z.shape + (n,), dtype=complex)
        col = (slice(None),) + (None,) * z.ndim
        np.divide(t.factor_weights[col] * running, den,
                  out=out.transpose((z.ndim,) + tuple(range(z.ndim))))
        return quadrature.unsigned_zeros(out), quadrature.unsigned_zeros(last)

    def values(self, m: int) -> np.ndarray:
        """Boundary values of the basis on the m-grid, stacked (m, dim); cached, read-only.

        The grid and the running product come from one evaluation, through the
        generator ladder (``quadrature.generator_grid``): sliced from a cached
        double, for a hat its source's basis grid, made by the source's own
        path, conjugated, grown from a cached half grid by its odd nodes, or
        evaluated cold.  Every way runs the same operations on the same values
        up to the sign of a zero, which is dropped, so the bits are those of
        ``at(nodes(m))``, whichever equal generator the memo holds.  A pairing
        against the basis reads the conjugates, ``block.conj``.
        """
        return self._grid(m)[0]

    def _running(self, m: int) -> np.ndarray:
        """prod_j b_j over every zero factor on the m-grid; cached, read-only."""
        return self._grid(m)[1]

    def _grid(self, m: int) -> tuple:
        """The values and the running product on the m-grid, from one evaluation."""
        return quadrature.generator_grid(m, self._value_cache, self._evaluate,
                                         self._hat_source)

    def _hat_source(self):
        """The grid cache and evaluation of the basis of the generator this one's
        is the hat of, unless the memo makes that this basis itself (a generator
        equal to its hat, or a hat of a hat)."""
        src = self.generator._hat_of
        source = self if src is None else tm_basis(src)
        return None if source is self else (source._value_cache, source._evaluate)

    def _flipped_values(self, m: int) -> np.ndarray:
        return np.conj(quadrature.nodes(m))[:, None] * self.values(m)[quadrature.reflection(m)]

    def combine(self, coords) -> RationalSymbol:
        """The element with the given coordinates, as a rational function."""
        coords = np.asarray(coords, dtype=complex)
        return RationalSymbol(provider=lambda m: self.values(m) @ coords,
                              expand=lambda: self._coefficients(coords),
                              reach=self.generator.reach)

    def _coefficients(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """Raw (numerator, denominator) of the element with these coordinates;
        pairings read only grid values, so symbols expand this on demand."""
        num = np.zeros(1, dtype=complex)
        for c, lift in zip(coords, self._expansions[1]):
            if c != 0:
                num = npoly.polyadd(num, c * lift)
        return num, self.generator.den_coeffs

    def element(self, coords) -> "SpaceElement":
        return SpaceElement(self, np.asarray(coords, dtype=complex))

    def random_element(self, rng) -> "SpaceElement":
        return self.element(rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim))


@quadrature.memoized
def tm_basis(u: InnerFunction) -> ModelSpaceBasis:
    """The orthonormal basis of K_u, memoized in the current evaluation."""
    return ModelSpaceBasis(u)


@quadrature.memoized
def hankel_space(a: InnerFunction, b: InnerFunction) -> ModelSpaceBasis:
    """The a-first basis of K_{a hat(b)}, where psi lives for the Hankel operator
    K_a -> K_b with symbol conj(psi); memoized in the current evaluation, so a
    repeated pair builds no product generator.  Each pair has its own, which
    holds the bases of K_a, K_hat(b) and K_b (``hankel_parts``) for psi."""
    return ModelSpaceBasis(a * b.hat(), (tm_basis(a), tm_basis(b.hat()), tm_basis(b)))


def _hankel_parts(psi: "SpaceElement") -> tuple:
    """The bases of K_a, K_hat(b) and K_b for psi in `hankel_space(a, b)`, as
    psi's space holds them; any other space raises SpaceMismatch."""
    parts = psi.space.hankel_parts
    if parts is None:
        raise SpaceMismatch("psi is not in a basis that hankel_space built")
    return parts


def symbol_blocks(psi: "SpaceElement") -> tuple:
    """P_a psi and P_hat(b)(conj(a) psi) for psi in K_{a hat(b)}, read off its coordinates.

    The a-first basis of K_{a hat(b)} is that of K_a, then a/c_a times that of
    K_hat(b) (Garcia-Mashreghi-Ross 2016), so psi = x + (a/c_a) g gives x and
    g/c_a.  A space that `hankel_space` did not build raises SpaceMismatch.
    """
    head, tail, _ = _hankel_parts(psi)
    x, y = psi.coords[:head.dim], psi.coords[head.dim:]
    return head.element(x), tail.element(y / head.generator.constant)


def hankel_symbol(psi: "SpaceElement") -> RationalSymbol:
    """psi in K_{a hat(b)} as a rational symbol, evaluated through its blocks.

    With x and y the first deg a and the last deg b coordinates, the grid
    values are E_a x + (prod_j b_j)(E_hat(b) y), the running product over a's
    zero factors read from a's basis grid, so no grid of K_{a hat(b)} is
    evaluated.  The reach is psi's and the coefficients are psi.rep()'s,
    expanded on the first read.  A space that `hankel_space` did not build
    raises SpaceMismatch.
    """
    head, tail, _ = _hankel_parts(psi)
    x, y = psi.coords[:head.dim], psi.coords[head.dim:]
    return RationalSymbol(
        provider=lambda m: head.values(m) @ x + head._running(m) * (tail.values(m) @ y),
        expand=lambda: psi.space._coefficients(psi.coords), reach=psi.space.generator.reach)


class SpaceElement:
    """An element of K_u in basis coordinates."""

    __slots__ = ("space", "coords")

    def __init__(self, space: ModelSpaceBasis, coords):
        coords = np.asarray(coords, dtype=complex).ravel()
        if coords.size != space.dim:
            raise SpaceMismatch(f"{coords.size} coordinates for a dim-{space.dim} space")
        self.space = space
        self.coords = coords

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def rep(self) -> RationalSymbol:
        return self.space.combine(self.coords)

    def __call__(self, z):
        return self.space.at(z) @ self.coords

    def inner(self, other: "SpaceElement") -> complex:
        if other.space != self.space:
            raise SpaceMismatch("inner product across different model spaces")
        return complex(np.vdot(other.coords, self.coords))

    def __add__(self, other):
        if other.space != self.space:
            raise SpaceMismatch("sum across different model spaces")
        return SpaceElement(self.space, self.coords + other.coords)

    def __sub__(self, other):
        if other.space != self.space:
            raise SpaceMismatch("difference across different model spaces")
        return SpaceElement(self.space, self.coords - other.coords)

    def __mul__(self, scalar):
        return SpaceElement(self.space, complex(scalar) * self.coords)

    __rmul__ = __mul__

    def __repr__(self):
        return f"SpaceElement({list(self.coords)})"


class KernelElement(SpaceElement):
    """A kernel that a basis holds: an element with its conjugate coordinates
    and squared norm, which `cross_decompose` reads off an anchor; read-only."""

    __slots__ = ("conj", "norm2")

    def __init__(self, space: ModelSpaceBasis, coords):
        super().__init__(space, coords)
        self.conj = readonly(np.conj(self.coords))
        self.norm2 = float(np.vdot(self.coords, self.coords).real)


def gram_residual(space: ModelSpaceBasis) -> float:
    """Max entry of G - I for the Gram matrix G of the basis, by one pairing.

    The basis is orthonormal by construction, so this tests the quadrature
    and the factored values; kernel-core gates it at GRAM_TOL.
    """
    gram = pairing_matrix(space.block, space.block)
    return float(np.max(np.abs(gram - np.eye(space.dim))))


# ---------------------------------------------------------------------------
# pairings and projection


def inner_product(f: RationalSymbol, g: RationalSymbol) -> complex:
    """(1/2pi) int f(e^it) conj(g(e^it)) dt by adaptive trapezoid quadrature."""
    return complex(pairing_matrix(Block.of(f), Block.of(g))[0, 0])


def project(u: InnerFunction, sym: RationalSymbol) -> SpaceElement:
    """P_u sym: expansion of the symbol against the orthonormal basis of K_u."""
    space = tm_basis(u)
    coords = pairing_matrix(Block.of(sym), space.block)[:, 0]
    return SpaceElement(space, coords)


# ---------------------------------------------------------------------------
# kernels


def _deflate(num: np.ndarray, root: complex) -> np.ndarray:
    """Exact-ish division of a polynomial by (z - root); remainder is discarded."""
    return npoly.polydiv(num, np.array([-root, 1.0], dtype=complex))[0]


def kernel(u: InnerFunction, lam: complex) -> SpaceElement:
    """Coordinates of the reproducing kernel: <f, k_lam> = f(lam) for f in K_u.

    Exact: the k-th coordinate is conj(e_k(lam)), with no pairing; the basis
    holds it at the origin.
    """
    space = tm_basis(u)
    lam = complex(lam)
    return space.kernel0 if lam == 0 else SpaceElement(space, np.conj(space.at(lam)))


def unit_kernels(space: ModelSpaceBasis, points) -> np.ndarray:
    """Normalized kernel coordinates at each point (e.g. the Clark points), one row each."""
    rows = np.conj(space.at(np.asarray(points, dtype=complex)))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def conj_kernel_symbol(u: InnerFunction, lam: complex) -> RationalSymbol:
    """(u(z) - u(lam)) / (z - lam) with the removable singularity divided out."""
    lam = complex(lam)
    ulam = complex(u(lam))
    def provider(m):
        return (u.boundary_values(m) - ulam) / (quadrature.nodes(m) - lam)
    def expand():   # pairings read only the grid values
        return _deflate(npoly.polyadd(u.num_coeffs, -ulam * u.den_coeffs), lam), u.den_coeffs
    return RationalSymbol(provider=provider, expand=expand, reach=u.reach)


def conj_kernel(u: InnerFunction, lam: complex) -> SpaceElement:
    """Coordinates of the conjugate kernel (the natural conjugation of the kernel).

    Exact: the k-th coordinate is (C e_k)(lam) = c sqrt(1-|a_k|^2)/(1 - conj(a_k) lam)
    * prod_{j>k} b_j(lam), with c the constant and b_j the zero factors of u,
    so no pairing is made; the basis holds it at the origin.  The projection
    of `conj_kernel_symbol` is its oracle.
    """
    space = tm_basis(u)
    lam = complex(lam)
    return (space.conj_kernel0 if lam == 0
            else SpaceElement(space, _conj_kernel_coords(u, lam)))


def _conj_kernel_coords(u: InnerFunction, lam: complex) -> np.ndarray:
    """The closed form of `conj_kernel` at lam, read off the zero table."""
    u.guard_poles(lam)
    t = u.table
    factor_den = 1.0 - t.conj * lam
    tails = np.ones(u.degree, dtype=complex)     # prod_{j>k} b_j(lam)
    tails[:-1] = np.cumprod(((lam - t.zeros) / factor_den)[:0:-1])[::-1]
    return u.constant * t.weights / factor_den * tails


def boundary_kernel_symbol(u: InnerFunction, eta: complex) -> RationalSymbol:
    """The kernel (1 - conj(u(eta)) u(z))/(1 - conj(eta) z) at a boundary point eta.

    Every basis function is analytic across the circle, so the kernel's
    coordinates are conj(e_k(eta)) there as inside the disk, and its grid
    values are those of the basis grid times them: no expanded coefficients
    are evaluated, which lose precision when zeros cluster on one side.  The
    coefficients are expanded on the first read of num or den.
    """
    space = tm_basis(u)
    return space.combine(np.conj(space.at(complex(eta))))


# ---------------------------------------------------------------------------
# tagged operator matrices


class OperatorMatrix:
    """A dense matrix tagged with its model spaces and a conjugate-linearity flag.

    An antilinear map applies as x -> M conj(x).  Composition follows
    (M1,c1) o (M2,c2) = (M1 M2 if c1 is False else M1 conj(M2), c1 xor c2),
    and requires the inner generators to coincide structurally (same zero
    list, same constant): the shape-compatible-but-wrong composition is the
    main hazard when moving between K_u, K_v and the hat spaces.
    """

    __slots__ = ("matrix", "domain", "codomain", "antilinear")

    def __init__(self, matrix, domain: ModelSpaceBasis, codomain: ModelSpaceBasis,
                 antilinear: bool = False):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (codomain.dim, domain.dim):
            raise SpaceMismatch(
                f"matrix shape {matrix.shape} does not match spaces "
                f"({codomain.dim}, {domain.dim})"
            )
        self.matrix = matrix
        self.domain = domain
        self.codomain = codomain
        self.antilinear = bool(antilinear)

    @classmethod
    def identity(cls, space: ModelSpaceBasis) -> "OperatorMatrix":
        return cls(np.eye(space.dim), space, space)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        if self.domain != other.codomain:
            raise SpaceMismatch("composition across mismatched model spaces")
        rhs = np.conj(other.matrix) if self.antilinear else other.matrix
        return OperatorMatrix(
            self.matrix @ rhs, other.domain, self.codomain,
            self.antilinear != other.antilinear,
        )

    def apply(self, x) -> SpaceElement:
        coords = x.coords if isinstance(x, SpaceElement) else np.asarray(x, dtype=complex)
        if isinstance(x, SpaceElement) and x.space != self.domain:
            raise SpaceMismatch("operator applied to element of a different space")
        if self.antilinear:
            coords = np.conj(coords)
        return SpaceElement(self.codomain, self.matrix @ coords)

    def adjoint(self) -> "OperatorMatrix":
        # antilinear adjoint satisfies <Cf, g> = <C*g, f>: plain transpose
        mat = self.matrix.T if self.antilinear else self.matrix.conj().T
        return OperatorMatrix(mat, self.codomain, self.domain, self.antilinear)

    def _check_same(self, other: "OperatorMatrix"):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise SpaceMismatch("mixing operators between different space pairs")
        if self.antilinear != other.antilinear:
            raise SpaceMismatch("mixing linear and antilinear operators")

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same(other)
        return OperatorMatrix(self.matrix + other.matrix, self.domain, self.codomain,
                              self.antilinear)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check_same(other)
        return OperatorMatrix(self.matrix - other.matrix, self.domain, self.codomain,
                              self.antilinear)

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(complex(scalar) * self.matrix, self.domain, self.codomain,
                              self.antilinear)

    __rmul__ = __mul__

    def __neg__(self):
        return OperatorMatrix(-self.matrix, self.domain, self.codomain, self.antilinear)

    def __repr__(self):
        tag = "antilinear" if self.antilinear else "linear"
        return f"OperatorMatrix({self.matrix.shape}, {tag})"

    def to_json(self) -> dict:
        return {
            "domain": self.domain.generator.to_json(),
            "codomain": self.codomain.generator.to_json(),
            "antilinear": self.antilinear,
            "matrix": [
                [[float(v.real), float(v.imag)] for v in row] for row in self.matrix
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "OperatorMatrix":
        dom = tm_basis(InnerFunction.from_json(obj["domain"]))
        cod = tm_basis(InnerFunction.from_json(obj["codomain"]))
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in obj["matrix"]], dtype=complex
        )
        return cls(mat, dom, cod, bool(obj.get("antilinear", False)))


def reorder(u: InnerFunction, order) -> np.ndarray:
    """The unitary change of basis from the basis of K_u in the zero order
    ``order`` (a list of stored zero indices) to the one in the stored order.

    Swapping adjacent zeros a (at k) and b (at k+1) maps e_k and e_(k+1) to
    p e_k + q e_(k+1) and r e_k + p e_(k+1), with d = 1 - conj(b) a,
    p = sqrt(1-|a|^2) sqrt(1-|b|^2)/d, q = -conj(a-b)/d and r = (a-b)/d.
    """
    order = tuple(order)
    if len(order) != u.degree:
        raise SpaceMismatch(f"{order} is not an order of the {u.degree} zeros")
    rounds, left, right = _swap_rounds(order)
    t = u.table
    # index n is a = b = 0 with weight 1, which leaves a pair as it is
    zs, weights = _padded(t.zeros, 0.0), _padded(t.weights, 1.0)
    a, b = zs[left], zs[right]
    diff, den = a - b, 1.0 - np.conj(b) * a
    p, q, r = (weights[left] * weights[right]) / den, -np.conj(diff) / den, diff / den
    # (p, r) and (q, p) stacked, so that a round forms both new rows at once
    pr, qp = np.array((p, r))[..., None], np.array((q, p))[..., None]
    out = np.eye(u.degree, dtype=complex)   # row k: the coordinates of the k-th function
    for start, stop, at, end in rounds:
        x, y = out[start:stop:2], out[start + 1:stop:2]
        new = pr[:, at:end] * x + qp[:, at:end] * y
        x[...] = new[0]
        y[...] = new[1]
    return out.T


def _padded(values: np.ndarray, pad) -> np.ndarray:
    """values with ``pad`` appended."""
    out = np.empty(values.size + 1, dtype=values.dtype)
    out[:-1], out[-1] = values, pad
    return out


@lru_cache(maxsize=64)
def _below(n: int) -> np.ndarray:
    """The mask of the entries strictly below the diagonal of an n x n matrix."""
    idx = np.arange(n)
    return readonly(idx[:, None] > idx)


@lru_cache(maxsize=1024)
def _swap_rounds(order: tuple):
    """The odd-even transposition rounds that sort the stored order into ``order``:
    per round, the rows k and k+1 for every k of one parity from ``start`` to
    ``stop``, and from ``at`` to ``end``, the zero indices each pair holds
    (``left``, ``right``), or n where it stays.  An ``order`` that is not a
    permutation of the zero indices raises SpaceMismatch."""
    n = len(order)
    if sorted(order) != list(range(n)):
        raise SpaceMismatch(f"{order} is not an order of the {n} zeros")
    key, perm = np.argsort(order), np.arange(n)
    rounds, left, right = [], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for parity in range(n):     # n rounds sort any order
        ks = np.arange(parity % 2, n - 1, 2)
        swap = key[perm[ks]] > key[perm[ks + 1]]
        if swap.any():
            at = sum(map(len, left))
            rounds.append((int(ks[0]), int(ks[-1]) + 2, at, at + len(ks)))
            left.append(np.where(swap, perm[ks], n))
            right.append(np.where(swap, perm[ks + 1], n))
            perm[ks[swap]], perm[ks[swap] + 1] = perm[ks[swap] + 1], perm[ks[swap]]
    return tuple(rounds), readonly(np.concatenate(left)), readonly(np.concatenate(right))
