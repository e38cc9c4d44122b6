"""Model spaces as concrete coordinate spaces.

For a finite Blaschke product u of degree n the model space K_u (the
orthogonal complement of u H^2 in H^2) is n dimensional.  This module fixes
the Takenaka-Malmquist orthonormal basis ordered by the stored zero list,
and provides coordinates for the reproducing kernels, the projection onto
K_u, and the conjugate-linear symmetries: the natural conjugation on K_u
and the coefficient conjugation onto the hat space (the flip J of symbols
is `RationalSymbol.flip`).

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
identity for the coefficient conjugation.

Function space objects are immutable after construction.  Bases cache
their grids and the kernels k0 and k~0 at the origin, and their two
blocks (the basis and the flipped basis J e_k) cache their conjugates, the
conjugated side of every pairing against the basis; all are read-only, so
they are safe to share between threads.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import quadrature
from .blaschke import InnerFunction
from .errors import SpaceMismatch, SymbolNotInClass
from .quadrature import Block, pairing_matrix, readonly
from .ratfun import RationalSymbol

GRAM_TOL = 1e-10


class ModelSpaceBasis:
    """Orthonormal Takenaka-Malmquist basis of K_u, ordered by the zero list.

    e_k(z) = sqrt(1-|a_k|^2)/(1 - conj(a_k) z) * prod_{j<k} (z-a_j)/(1 - conj(a_j) z).
    For u = z^n this is the monomial basis {1, z, ..., z^(n-1)}.
    """

    def __init__(self, generator: InnerFunction):
        self.generator = generator
        n = len(generator.zeros)
        # per grid, the values and prod_j b_j over every zero factor
        self._value_cache: dict[int, tuple] = {}
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
        e_k(0) = sqrt(1-|a_k|^2) prod_{j<k} (-a_j); read-only."""
        zs = np.array(self.generator.zeros)
        running = np.cumprod(np.concatenate(([1.0], -zs[:-1])))
        return readonly(np.conj(np.sqrt(1.0 - np.abs(zs) ** 2) * running))

    @cached_property
    def conj_k0(self) -> np.ndarray:
        """Coordinates of the conjugate kernel at the origin; read-only."""
        return readonly(_conj_kernel_coords(self.generator, 0j))

    def at(self, z) -> np.ndarray:
        """Factored values e_k(z) of every basis function: shape z.shape + (dim,).

        Runs the product over the zero list once for all k, so no expanded
        coefficients are evaluated.  Raises PoleHit where some 1 - conj(a_k) z
        nearly vanishes, which happens only off the closed disk.
        """
        return self._evaluate(z)[0]

    def _evaluate(self, z):
        """e_k(z) for every k, and prod_j b_j(z) over every zero factor."""
        z = np.asarray(z, dtype=complex)
        self.generator.guard_poles(z)
        out = np.empty(z.shape + (self.dim,), dtype=complex)
        return self._continue(out, np.ones(z.shape, dtype=complex), z, 0)

    def _continue(self, out, running, z, start: int):
        """Fill out[..., start:] from running = prod_{j<start} b_j(z), zero by
        zero; return it and the final running product, their zeros unsigned
        (``quadrature.unsigned_zeros``)."""
        for k, a in enumerate(self.generator.zeros[start:], start):
            factor_den = 1.0 - np.conj(a) * z
            np.divide(np.sqrt(1.0 - abs(a) ** 2) * running, factor_den, out=out[..., k])
            running = running * (z - a) / factor_den
        return quadrature.unsigned_zeros(out), quadrature.unsigned_zeros(running)

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
    repeated pair builds no product generator."""
    return tm_basis(a * b.hat())


def _require_hankel_space(psi: "SpaceElement", a: InnerFunction, b: InnerFunction):
    if psi.space != hankel_space(a, b):
        raise SpaceMismatch("psi is not in the a-first basis of K_{a hat(b)}")


def symbol_blocks(psi: "SpaceElement", a: InnerFunction, b: InnerFunction) -> tuple:
    """P_a psi and P_hat(b)(conj(a) psi) for psi in K_{a hat(b)}, read off its coordinates.

    The a-first basis of K_{a hat(b)} is that of K_a, then a/c_a times that of
    K_hat(b) (Garcia-Mashreghi-Ross 2016), so psi = x + (a/c_a) g gives x and
    g/c_a.  Any other space or zero order raises SpaceMismatch.
    """
    _require_hankel_space(psi, a, b)
    n = a.degree
    return (tm_basis(a).element(psi.coords[:n]),
            tm_basis(b.hat()).element(psi.coords[n:] / a.constant))


def hankel_symbol(psi: "SpaceElement", a: InnerFunction, b: InnerFunction) -> RationalSymbol:
    """psi in K_{a hat(b)} as a rational symbol, evaluated through its blocks.

    With x and y the first deg a and the last deg b coordinates, the grid
    values are E_a x + (prod_j b_j)(E_hat(b) y), the running product over a's
    zero factors read from a's basis grid, so no grid of K_{a hat(b)} is
    evaluated.  The reach is psi's and the coefficients are psi.rep()'s,
    expanded on the first read.  Any other space or zero order raises
    SpaceMismatch.
    """
    _require_hankel_space(psi, a, b)
    head, tail = tm_basis(a), tm_basis(b.hat())
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


def _generator_den_values(u: InnerFunction, m: int) -> np.ndarray:
    """prod(1 - conj(a) z) over the zero list, evaluated factorwise on the grid."""
    z = quadrature.nodes(m)
    out = np.ones(m, dtype=complex)
    for a in u.zeros:
        out = out * (1.0 - np.conj(a) * z)
    return out


def kernel(u: InnerFunction, lam: complex) -> SpaceElement:
    """Coordinates of the reproducing kernel: <f, k_lam> = f(lam) for f in K_u.

    Exact: the k-th coordinate is conj(e_k(lam)), with no pairing; the basis
    caches it at the origin.
    """
    space = tm_basis(u)
    lam = complex(lam)
    return SpaceElement(space, space.k0 if lam == 0 else np.conj(space.at(lam)))


def unit_kernels(u: InnerFunction, points) -> np.ndarray:
    """Normalized kernel coordinates at each point (e.g. the Clark points), one row each."""
    rows = np.conj(tm_basis(u).at(np.asarray(points, dtype=complex)))
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
    so no pairing is made; the basis caches it at the origin.  The projection
    of `conj_kernel_symbol` is its oracle.
    """
    space = tm_basis(u)
    lam = complex(lam)
    return SpaceElement(space, space.conj_k0 if lam == 0 else _conj_kernel_coords(u, lam))


def _conj_kernel_coords(u: InnerFunction, lam: complex) -> np.ndarray:
    """The closed form of `conj_kernel` at lam."""
    u.guard_poles(lam)
    a = np.array(u.zeros)
    factor_den = 1.0 - np.conj(a) * lam
    tails = np.cumprod(((lam - a) / factor_den)[:0:-1])[::-1]     # prod_{j>k} b_j(lam)
    return u.constant * np.sqrt(1.0 - np.abs(a) ** 2) / factor_den * np.append(tails, 1.0)


def boundary_kernel_symbol(u: InnerFunction, eta: complex) -> RationalSymbol:
    """The kernel at a boundary point, by the continuity limit of the interior formula.

    1 - conj(eta) z = -conj(eta) (z - eta) on |eta| = 1, and the numerator of
    the interior formula vanishes at eta, so the quotient deflates exactly.
    """
    eta = complex(eta)
    ueta = complex(u(eta))
    num = npoly.polyadd(u.den_coeffs, -np.conj(ueta) * u.num_coeffs)
    num = _deflate(num, eta) / (-np.conj(eta))
    # the deflated numerator is already cancellation free; pair it with the
    # factorwise denominator so clustered zeros do not degrade grid values
    def provider(m):
        z = quadrature.nodes(m)
        return npoly.polyval(z, num) / _generator_den_values(u, m)
    return RationalSymbol(num, u.den_coeffs, provider=provider, reach=u.reach)


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
    if sorted(order) != list(range(u.degree)):
        raise SpaceMismatch(f"{order} is not an order of the {u.degree} zeros")
    rounds, left, right = _swap_rounds(order)
    zs = np.append(u.zeros, 0.0)        # a = b = 0 leaves a pair as it is
    a, b = zs[left], zs[right]
    weights = np.sqrt(1.0 - np.abs(zs) ** 2)
    coeffs = np.stack([weights[left] * weights[right], -np.conj(a - b), a - b])
    p, q, r = (coeffs / (1.0 - np.conj(b) * a))[:, :, None]
    out = np.eye(u.degree, dtype=complex)   # row k: the coordinates of the k-th function
    for start, stop, at in rounds:
        x, y = out[start:stop:2], out[start + 1:stop:2]
        sl = slice(at, at + len(x))
        x[...], y[...] = p[sl] * x + q[sl] * y, r[sl] * x + p[sl] * y
    return out.T


@lru_cache(maxsize=1024)
def _swap_rounds(order: tuple):
    """The odd-even transposition rounds that sort the stored order into ``order``:
    per round, the rows k and k+1 for every k of one parity from ``start`` to
    ``stop``, and from ``at`` on, the zero indices each pair holds (``left``,
    ``right``), or n where it stays."""
    n = len(order)
    key, perm = np.argsort(order), np.arange(n)
    rounds, left, right = [], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for parity in range(n):     # n rounds sort any order
        ks = np.arange(parity % 2, n - 1, 2)
        swap = key[perm[ks]] > key[perm[ks + 1]]
        if swap.any():
            rounds.append((ks[0], ks[-1] + 2, sum(map(len, left))))
            left.append(np.where(swap, perm[ks], n))
            right.append(np.where(swap, perm[ks + 1], n))
            perm[ks[swap]], perm[ks[swap] + 1] = perm[ks[swap] + 1], perm[ks[swap]]
    return tuple(rounds), readonly(np.concatenate(left)), readonly(np.concatenate(right))


@quadrature.memoized
def conjugation_C(u: InnerFunction) -> OperatorMatrix:
    """The natural conjugation on K_u: f -> u * conj(z f) on the circle.

    C e_k = c sqrt(1-|a_k|^2)/(1 - conj(a_k) z) prod_(j>k) b_j is c, the
    constant of u, times the (n-1-k)-th function in the reversed zero order.
    Antilinear, isometric, involutive.  Memoized in the current evaluation;
    the matrix is read-only.
    """
    mat = u.constant * reorder(u, range(u.degree - 1, -1, -1))[:, ::-1]
    return OperatorMatrix(readonly(mat), tm_basis(u), tm_basis(u), antilinear=True)


@quadrature.memoized
def conjugation_U(u: InnerFunction) -> OperatorMatrix:
    """Coefficient conjugation as an antilinear isometry from K_u onto K_hat(u).

    The hat of e_k is the k-th basis function of K_hat(u), so the matrix is
    the identity.  Memoized in the current evaluation; the matrix is read-only.
    """
    eye = readonly(np.eye(u.degree, dtype=complex))
    return OperatorMatrix(eye, tm_basis(u), tm_basis(u.hat()), antilinear=True)


def conjugation_U_on(u: InnerFunction) -> OperatorMatrix:
    """Coefficient conjugation as a map K_u -> K_u, over a real symmetric u.

    K_hat(u) is then K_u with its zeros in their conjugate order, so the map
    is `reorder` to that order.  Raises SymbolNotInClass otherwise.
    """
    order = u.conjugate_order
    if order is None:
        raise SymbolNotInClass("hat image leaves the space; generator is not real symmetric")
    return OperatorMatrix(reorder(u, order), tm_basis(u), tm_basis(u), antilinear=True)
