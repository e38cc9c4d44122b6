"""Model spaces as concrete coordinate spaces.

For a finite Blaschke product u of degree n the model space K_u (the
orthogonal complement of u H^2 in H^2) is n dimensional.  This module fixes
the Takenaka-Malmquist orthonormal basis ordered by the stored zero list,
and provides coordinates for the reproducing kernels, the projection onto
K_u, and the three conjugate-linear symmetries: the natural conjugation on
K_u, the coefficient conjugation onto the hat space, and the flip J.

Every function space object is immutable after construction; bases cache
their Gram certificate and boundary values, after which they are safe to
share between threads.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import quadrature
from .blaschke import InnerFunction
from .errors import SpaceMismatch, SymbolNotInClass, ZeroAnchor
from .quadrature import pairing_matrix, pairing_vector
from .ratfun import RationalSymbol

GRAM_TOL = 1e-10


class ModelSpaceBasis:
    """Orthonormal Takenaka-Malmquist basis of K_u, ordered by the zero list.

    e_k(z) = sqrt(1-|a_k|^2)/(1 - conj(a_k) z) * prod_{j<k} (z-a_j)/(1 - conj(a_j) z).
    For u = z^n this is the monomial basis {1, z, ..., z^(n-1)}.
    """

    def __init__(self, generator: InnerFunction):
        self.generator = generator
        zs = generator.zeros
        n = len(zs)
        self._value_cache: dict[int, np.ndarray] = {}
        funcs = []
        raw_nums = []
        num = np.ones(1, dtype=complex)  # running prod_{j<k} (z - a_j)
        den = np.ones(1, dtype=complex)  # running prod_{j<=k} (1 - conj(a_j) z)
        for k, a in enumerate(zs):
            den = npoly.polymul(den, np.array([1.0, -np.conj(a)], dtype=complex))
            scale = np.sqrt(1.0 - abs(a) ** 2)
            raw_nums.append(scale * num)
            funcs.append(RationalSymbol(
                scale * num, den, check_poles=False,
                provider=(lambda m, _k=k: self.values(m)[:, _k])))
            num = npoly.polymul(num, np.array([-a, 1.0], dtype=complex))
        self.functions = funcs
        self.dim = n
        # lifted numerators: e_k = lifted_num[k] / u_den over the shared
        # (unnormalized) denominator of the generator, so linear combinations
        # stay degree <= n-1 over a degree-n denominator
        tails = [np.ones(1, dtype=complex)]
        for a in reversed(zs[1:]):
            tails.append(npoly.polymul(tails[-1], np.array([1.0, -np.conj(a)], dtype=complex)))
        tails.reverse()
        self._lifted = [
            npoly.polymul(raw, t) for raw, t in zip(raw_nums, tails)
        ]
        gram = pairing_matrix(self.values, self.values)
        self.gram_residual = float(np.max(np.abs(gram - np.eye(n))))
        if self.gram_residual > GRAM_TOL:
            raise ArithmeticError(
                f"basis Gram matrix off identity by {self.gram_residual:g}"
            )

    def __eq__(self, other):
        return isinstance(other, ModelSpaceBasis) and self.generator == other.generator

    def __hash__(self):
        return hash(self.generator)

    def __repr__(self):
        return f"ModelSpaceBasis(deg={self.dim}, generator={self.generator.to_json()})"

    def values(self, m: int) -> np.ndarray:
        """Factored boundary values of the basis, stacked (m, dim); cached, read-only.

        This block is the basis side of every pairing against the basis.
        """
        got = self._value_cache.get(m)
        if got is None:
            z = quadrature.nodes(m)
            cols = []
            running = np.ones(m, dtype=complex)   # prod_{j<k} (z-a_j)/(1-conj(a_j) z)
            for a in self.generator.zeros:
                factor_den = 1.0 - np.conj(a) * z
                cols.append(np.sqrt(1.0 - abs(a) ** 2) * running / factor_den)
                running = running * (z - a) / factor_den
            got = np.column_stack(cols)
            got.flags.writeable = False
            self._value_cache[m] = got
        return got

    def combine(self, coords) -> RationalSymbol:
        """The element with the given coordinates, as a rational function."""
        coords = np.asarray(coords, dtype=complex)
        num = np.zeros(1, dtype=complex)
        for c, lift in zip(coords, self._lifted):
            if c != 0:
                num = npoly.polyadd(num, c * lift)
        return RationalSymbol(num, self.generator.den_coeffs, check_poles=False,
                              provider=lambda m: self.values(m) @ coords)

    def element(self, coords) -> "SpaceElement":
        return SpaceElement(self, np.asarray(coords, dtype=complex))

    def random_element(self, rng, norm=None) -> "SpaceElement":
        coords = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        if norm is not None:
            coords *= norm / np.linalg.norm(coords)
        return self.element(coords)


@quadrature.memoized(512)
def tm_basis(u: InnerFunction) -> ModelSpaceBasis:
    """The orthonormal basis of K_u, memoized in the current evaluation."""
    return ModelSpaceBasis(u)


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
        vals = [f(z) for f in self.space.functions]
        return sum(c * v for c, v in zip(self.coords, vals))

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


# ---------------------------------------------------------------------------
# pairings, projection, membership


def inner_product(f: RationalSymbol, g: RationalSymbol) -> complex:
    """(1/2pi) int f(e^it) conj(g(e^it)) dt by adaptive trapezoid quadrature."""
    return complex(pairing_matrix([f], [g])[0, 0])


def project(u: InnerFunction, sym: RationalSymbol) -> SpaceElement:
    """P_u sym: expansion of the symbol against the orthonormal basis of K_u."""
    space = tm_basis(u)
    coords = pairing_vector(sym, space.values)
    return SpaceElement(space, coords)


def embed(u: InnerFunction, sym: RationalSymbol, tol: float = 1e-9) -> SpaceElement:
    """Like project, but certifies the symbol actually lies in K_u.

    Raises SymbolNotInClass when the projection loses more than tol of the
    symbol's norm (squared-norm defect measured against the L2 pairing).
    """
    el = project(u, sym)
    total = inner_product(sym, sym).real
    defect = abs(total - float(np.vdot(el.coords, el.coords).real))
    if defect > tol * max(1.0, total):
        raise SymbolNotInClass(
            f"symbol is not in the model space: norm defect {defect:g}"
        )
    return el


# ---------------------------------------------------------------------------
# kernels


def _deflate(num: np.ndarray, root: complex) -> np.ndarray:
    """Exact-ish division of a polynomial by (z - root); remainder is discarded."""
    quot, rem = npoly.polydiv(num, np.array([-root, 1.0], dtype=complex))
    return quot


def _generator_den_values(u: InnerFunction, m: int) -> np.ndarray:
    """prod(1 - conj(a) z) over the zero list, evaluated factorwise on the grid."""
    z = quadrature.nodes(m)
    out = np.ones(m, dtype=complex)
    for a in u.zeros:
        out = out * (1.0 - np.conj(a) * z)
    return out


def kernel(u: InnerFunction, lam: complex) -> SpaceElement:
    """Coordinates of the reproducing kernel: <f, k_lam> = f(lam) for f in K_u.

    Exact: the k-th coordinate is conj(e_k(lam)).
    """
    space = tm_basis(u)
    coords = np.conj(np.array([f(lam) for f in space.functions]))
    return SpaceElement(space, coords)


def conj_kernel_symbol(u: InnerFunction, lam: complex) -> RationalSymbol:
    """(u(z) - u(lam)) / (z - lam) with the removable singularity divided out."""
    lam = complex(lam)
    ulam = complex(u(lam))
    num = npoly.polyadd(u.num_coeffs, -ulam * u.den_coeffs)
    def provider(m):
        return (u.boundary_values(m) - ulam) / (quadrature.nodes(m) - lam)
    return RationalSymbol(_deflate(num, lam), u.den_coeffs, check_poles=False,
                          provider=provider)


def conj_kernel(u: InnerFunction, lam: complex) -> SpaceElement:
    """Coordinates of the conjugate kernel (the natural conjugation of the kernel)."""
    return project(u, conj_kernel_symbol(u, lam))


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
    return RationalSymbol(num, u.den_coeffs, check_poles=False, provider=provider)


def boundary_kernel(u: InnerFunction, eta: complex) -> SpaceElement:
    """Coordinates of the boundary kernel; exact via conj(e_k(eta)), as for `kernel`."""
    return kernel(u, eta)


def flip_J(sym: RationalSymbol) -> RationalSymbol:
    """The flip (Jf)(z) = conj(z) f(conj z); z^k goes to z^(-k-1)."""
    return sym.flip()


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


# the antilinear symmetries are OperatorMatrix values with the flag set
ConjugateLinearMap = OperatorMatrix


def conjugation_C(u: InnerFunction) -> OperatorMatrix:
    """The natural conjugation on K_u: f -> u * conj(z f) on the circle.

    As a coefficient operation, C f = u * J(hat f), so each column is an
    exact rational symbol paired against the basis.  Antilinear, isometric,
    involutive.
    """
    space = tm_basis(u)
    usym = u.as_symbol()

    def images(m):
        # u * J(hat e_k): J hat reflects the grid twice, leaving conj(z) conj(e_k)
        flipped_hat = np.conj(quadrature.nodes(m))[:, None] * np.conj(space.values(m))
        return usym.values_at(m)[:, None] * flipped_hat

    mat = pairing_matrix(images, space.values)
    return OperatorMatrix(mat, space, space, antilinear=True)


def conjugation_U(u: InnerFunction) -> OperatorMatrix:
    """Coefficient conjugation as an antilinear isometry from K_u onto K_hat(u)."""
    space = tm_basis(u)
    target = tm_basis(u.hat())

    def images(m):
        return np.conj(space.values(m)[quadrature.reflection(m)])   # hat e_k

    mat = pairing_matrix(images, target.values)
    return OperatorMatrix(mat, space, target, antilinear=True)


def conjugation_U_on(u: InnerFunction) -> OperatorMatrix:
    """Coefficient conjugation as a map K_u -> K_u.

    Only meaningful when u equals its hat as a function (real symmetric u):
    then K_hat(u) and K_u are the same space even though the stored zero
    lists may order conjugate pairs differently.  Completeness of each image
    expansion is certified.
    """
    space = tm_basis(u)
    n = space.dim
    cols = []
    for f in space.functions:
        img = f.hat()
        coords = pairing_vector(img, space.values)
        if abs(1.0 - float(np.vdot(coords, coords).real)) > 1e-9:
            raise SymbolNotInClass(
                "hat image leaves the space; generator is not real symmetric"
            )
        cols.append(coords)
    return OperatorMatrix(np.column_stack(cols), space, space, antilinear=True)


def normalized(el: SpaceElement) -> SpaceElement:
    n = el.norm()
    if n < 1e-12:
        raise ZeroAnchor("cannot normalize a numerically zero element")
    return SpaceElement(el.space, el.coords / n)
