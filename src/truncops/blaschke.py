"""Finite Blaschke products and the data attached to them.

An inner function here is always a finite Blaschke product
u(z) = c * prod_k (z - a_k) / (1 - conj(a_k) z) with |a_k| < 1 and |c| = 1;
repeated zeros encode multiplicity.  These generate the finite-dimensional
model spaces everything else lives on, every boundary point carries an
angular derivative, and the hat involution u -> conj(u(conj z)) is an exact
coefficient operation on the stored data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NotUnimodular, PoleHit, ZeroOnOrOutsideCircle
from .quadrature import Reach, generator_grid, unsigned_zeros
from .ratfun import RationalSymbol

ZERO_MARGIN = 1e-9
UNIMODULAR_TOL = 1e-12


@dataclass(frozen=True)
class InnerFunction:
    """A finite Blaschke product: zero tuple (with multiplicity) and a unimodular constant."""

    zeros: tuple
    constant: complex = 1.0 + 0.0j

    def __post_init__(self):
        zs = tuple(complex(a) for a in self.zeros)
        c = complex(self.constant)
        if not zs:
            raise ZeroOnOrOutsideCircle("a Blaschke product here must have degree >= 1")
        for a in zs:
            if abs(a) >= 1.0 - ZERO_MARGIN:
                raise ZeroOnOrOutsideCircle(f"zero {a:g} not strictly inside the disk")
        if abs(abs(c) - 1.0) > UNIMODULAR_TOL:
            raise NotUnimodular(f"|constant| = {abs(c)!r} is not 1")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "constant", c)
        object.__setattr__(self, "_bvals", {})
        # the generator this one is the hat of, if made by `hat`, whose grids
        # its own derive from; not a field, so equality, hashing and JSON
        # ignore it
        object.__setattr__(self, "_hat_of", None)
        # a zero below 1e-300 has its pole 1/conj(a) beyond 1e300, past every
        # grid, and for a subnormal zero the division overflows: as for a zero
        # at 0, no pole is kept
        poles = np.array([1.0 / np.conj(a) for a in zs if abs(a) > 1e-300])
        object.__setattr__(self, "_poles", poles)
        # guard_poles searches for a pole only at points beyond this radius
        object.__setattr__(self, "_pole_radius",
                           np.min(np.abs(poles)) - 1e-12 if poles.size else np.inf)
        # |u| = 1 on the circle follows from |a_k| < 1 and |c| = 1, so it is
        # not sampled here; the kernel-core check measures it

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, hash((zeros, constant)), computed on first use only."""
        return hash((self.zeros, self.constant))

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @cached_property
    def num_coeffs(self) -> np.ndarray:
        return self.constant * npoly.polyfromroots(self.zeros)

    @cached_property
    def den_coeffs(self) -> np.ndarray:
        out = np.ones(1, dtype=complex)
        for a in self.zeros:
            out = npoly.polymul(out, np.array([1.0, -np.conj(a)], dtype=complex))
        return out

    @cached_property
    def reach(self) -> Reach:
        """The reach of u on the circle: rho = 1/max|a| over the nonzero zeros,
        and the zeros at 0 as the degree of its finite part."""
        return Reach.of_poles(self._poles, sum(a == 0 for a in self.zeros))

    def boundary_values(self, m: int) -> np.ndarray:
        """Values on the m-point circle grid, evaluated factor by factor; cached, read-only.

        Factored evaluation keeps full relative accuracy even when zeros
        cluster; the expanded coefficients would lose it there.  The grid
        comes from the generator ladder (``quadrature.generator_grid``): sliced
        from a cached double, for a hat its source's grid conjugated, grown
        from a cached half grid by its odd nodes alone, or evaluated cold;
        every way gives the same bits.
        """
        return generator_grid(m, self._bvals, self._pointwise, self._hat_source)[0]

    def _pointwise(self, z: np.ndarray) -> tuple:
        return (self._factored(z),)

    def _hat_source(self):
        src = self._hat_of
        return None if src is None else (src._bvals, src._pointwise)

    def _factored(self, z: np.ndarray) -> np.ndarray:
        out = np.full(z.shape, self.constant, dtype=complex)
        for a in self.zeros:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return unsigned_zeros(out)

    def as_symbol(self) -> RationalSymbol:
        """u as a rational symbol; pairings read its factored boundary values,
        and its coefficients are expanded on the first read of num or den."""
        return RationalSymbol(provider=self.boundary_values,
                              expand=lambda: (self.num_coeffs, self.den_coeffs),
                              reach=self.reach)

    def conj_symbol(self) -> RationalSymbol:
        """conj(u) on the circle, i.e. 1/u, as an exact rational symbol."""
        return self.as_symbol().conj_circle()

    @cached_property
    def origin_value(self) -> complex:
        """u(0), evaluated once per instance by the same factor loop as ``u(0.0)``."""
        return self(0.0)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        self.guard_poles(z)
        # factorwise evaluation: each Blaschke factor is well conditioned, so
        # clustered zeros cost only a few ulps (the expanded coefficients do not)
        out = self._factored(z)
        return out if z.ndim else complex(out)

    def guard_poles(self, z):
        """Raise PoleHit if a point lies within 1e-12 of a pole 1/conj(a), off the closed disk."""
        z = np.asarray(z)
        if np.max(np.abs(z), initial=0.0) > self._pole_radius:
            poles = self._poles
            near = np.abs(z[..., None] - poles) < 1e-12
            if np.any(near):
                raise PoleHit(f"evaluation at the pole {poles[np.nonzero(near)[-1][0]]:g}")

    def derivative(self, z) -> complex:
        """u'(z); logarithmic-derivative sum away from zeros of u, product rule at them."""
        z = complex(z)
        self.guard_poles(z)
        zs = np.array(self.zeros)
        if np.min(np.abs(z - zs)) > 1e-6:
            log_der = np.sum(1.0 / (z - zs) + np.conj(zs) / (1.0 - np.conj(zs) * z))
            return complex(self(z) * log_der)
        # product rule: only the differentiated factor may vanish
        factors = (z - zs) / (1.0 - np.conj(zs) * z)
        dfactors = (1.0 - np.abs(zs) ** 2) / (1.0 - np.conj(zs) * z) ** 2
        total = 0.0 + 0.0j
        for k in range(len(zs)):
            rest = np.prod(factors[:k]) * np.prod(factors[k + 1:])
            total += dfactors[k] * rest
        return complex(self.constant * total)

    def hat(self) -> "InnerFunction":
        """conj(u(conj z)): conjugate every zero and the constant.  An exact involution.

        Built once per instance.  The hat records u as its source, so its
        boundary grids and its basis grids are u's, made by u's own path and
        conjugated; u.hat().hat() is a fresh, validated product equal to u,
        with u.hat() as its source.
        """
        return self._hat

    @cached_property
    def _hat(self) -> "InnerFunction":
        hat = InnerFunction(tuple(np.conj(a) for a in self.zeros), np.conj(self.constant))
        object.__setattr__(hat, "_hat_of", self)
        return hat

    def is_real_symmetric(self) -> bool:
        """True iff u equals its hat: conjugation-closed zero multiset, real constant."""
        return abs(self.constant.imag) <= 1e-12 and self.conjugate_order is not None

    @cached_property
    def conjugate_order(self) -> tuple | None:
        """The order tau with conj(zeros[k]) = zeros[tau[k]] to 1e-12, matching the
        zeros and their conjugates each sorted by (real, imag); None if none does.
        Matched once per instance."""
        zs = self.zeros
        key = sorted(range(len(zs)), key=lambda k: (zs[k].real, zs[k].imag))
        conj_key = sorted(range(len(zs)), key=lambda k: (zs[k].real, -zs[k].imag))
        if any(abs(zs[p] - zs[q].conjugate()) > 1e-12 for p, q in zip(key, conj_key)):
            return None
        return tuple(p for _, p in sorted(zip(conj_key, key)))

    def __mul__(self, other: "InnerFunction") -> "InnerFunction":
        """The product, zeros of self first."""
        return InnerFunction(self.zeros + other.zeros, self.constant * other.constant)

    def to_json(self) -> dict:
        return {
            "zeros": [[float(a.real), float(a.imag)] for a in self.zeros],
            "constant": [float(self.constant.real), float(self.constant.imag)],
        }

    @classmethod
    def from_json(cls, obj) -> "InnerFunction":
        zeros = tuple(complex(re, im) for re, im in obj["zeros"])
        cre, cim = obj.get("constant", [1.0, 0.0])
        return cls(zeros, complex(cre, cim))


def monomial_inner(n: int) -> InnerFunction:
    """u(z) = z**n."""
    return InnerFunction((0.0,) * n, 1.0)


@dataclass(frozen=True)
class ExtendedScalar:
    """A point of the Riemann sphere: a finite complex number or infinity."""

    value: complex | None = None  # None encodes infinity

    INF_DETECTION = 1e8

    @classmethod
    def finite(cls, c) -> "ExtendedScalar":
        return cls(complex(c))

    @classmethod
    def infinity(cls) -> "ExtendedScalar":
        return cls(None)

    @classmethod
    def of(cls, c) -> "ExtendedScalar":
        if isinstance(c, ExtendedScalar):
            return c
        if c is None:
            return cls.infinity()
        return cls.finite(c)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def modulus(self) -> float:
        return np.inf if self.is_infinity else abs(self.value)

    def conjugate(self) -> "ExtendedScalar":
        return self if self.is_infinity else ExtendedScalar(np.conj(self.value))

    def reciprocal(self) -> "ExtendedScalar":
        """1/alpha with 0 <-> infinity."""
        if self.is_infinity:
            return ExtendedScalar.finite(0.0)
        if self.value == 0:
            return ExtendedScalar.infinity()
        return ExtendedScalar.finite(1.0 / self.value)

    def reciprocal_conjugate(self) -> "ExtendedScalar":
        """1/conj(alpha) with 0 <-> infinity; the adjoint's class parameter."""
        return self.conjugate().reciprocal()

    def isclose(self, other: "ExtendedScalar", tol: float = 1e-8) -> bool:
        a, b = self, ExtendedScalar.of(other)
        if a.is_infinity or b.is_infinity:
            big = self.INF_DETECTION
            am = a.modulus()
            bm = b.modulus()
            return am > big and bm > big or (a.is_infinity and b.is_infinity)
        scale = max(1.0, abs(a.value), abs(b.value))
        return abs(a.value - b.value) <= tol * scale

    def __str__(self):
        return "inf" if self.is_infinity else f"{self.value:g}"
