"""Finite Blaschke products and the data attached to them.

An inner function here is always a finite Blaschke product
u(z) = c * prod_k (z - a_k) / (1 - conj(a_k) z) with |a_k| < 1 and |c| = 1;
repeated zeros encode multiplicity.  These generate the finite-dimensional
model spaces everything else lives on, every boundary point carries an
angular derivative, and the hat involution u -> conj(u(conj z)) is an exact
coefficient operation on the stored data.

Each generator carries one table of per-zero data (`ZeroTable`): the zeros
and their conjugates, the poles, their least modulus rho (the reach's rho
and the pole guard's radius), the count of zeros at 0, the weights
sqrt(1-|a|^2) and the running products of -a_j.  A hat's table is its
source's conjugated and a product's is its factors' joined, so neither
validates a zero again; point values read the table with a fixed number of
whole-array operations besides the running product itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NotUnimodular, PoleHit, ZeroOnOrOutsideCircle
from .quadrature import Reach, generator_grid, readonly, unsigned_zeros
from .ratfun import RationalSymbol

ZERO_MARGIN = 1e-9
UNIMODULAR_TOL = 1e-12


class ZeroTable:
    """The per-zero data of a generator, each array read-only.

    Made once per generator with whole-array operations: ``zeros`` and their
    conjugates ``conj``; ``poles``, 1/conj(a) for every zero above 1e-300 (a
    smaller zero has its pole beyond every grid, and for a subnormal one the
    division overflows, so as for a zero at 0 no pole is kept); ``rho``, the
    least modulus of the poles (inf without one), which is the reach's rho
    and, less 1e-12, the radius beyond which `InnerFunction.guard_poles`
    looks for a pole; ``at_zero``, the count of zeros at 0.  Read on first
    use: ``weights`` sqrt(1-|a|^2) as whole arrays, which the closed forms of
    the shift, the kernels at the origin and `modelspace.reorder` read;
    ``factor_weights``, the same evaluated zero by zero in float arithmetic,
    which point and grid values read (the two roundings differ in the last
    bit for about a quarter of the zeros, and each reader keeps its own);
    ``running``, the running products prod_(j<k) (-a_j).  A hat's table is
    its source's conjugated (`conjugated`), so its running products are
    those of -conj(a_j); a product's is its factors' concatenated
    (`joined`); neither validates a zero again.
    """

    def __init__(self, zeros, conj, poles, rho: float, at_zero: int, kept=None, parts=()):
        self.zeros = zeros
        self.conj = conj
        self.poles = poles
        self.rho = rho
        self.at_zero = at_zero
        self.reach = Reach(rho, at_zero)
        self._kept = kept       # which zeros have a pole, None for all of them
        self._parts = parts     # the tables the per-zero fields derive from

    @classmethod
    def of(cls, zeros: tuple) -> "ZeroTable":
        """The table of a tuple of complex zeros."""
        a = readonly(np.array(zeros, dtype=complex))
        conj = readonly(np.conj(a))
        kept = [abs(z) > 1e-300 for z in zeros]
        kept = None if all(kept) else readonly(np.array(kept, dtype=bool))
        poles = readonly(1.0 / (conj if kept is None else conj[kept]))
        rho = min(np.abs(poles).tolist(), default=math.inf)
        return cls(a, conj, poles, rho, zeros.count(0), kept)

    def conjugated(self) -> "ZeroTable":
        """The table of the hat: the zeros and their conjugates swapped, and
        the poles 1/a divided as a cold table divides them (conjugating the
        poles would sign some zero parts differently)."""
        kept = self._kept
        poles = readonly(1.0 / (self.zeros if kept is None else self.zeros[kept]))
        return ZeroTable(self.conj, self.zeros, poles, self.rho, self.at_zero, kept, (self,))

    def joined(self, other: "ZeroTable") -> "ZeroTable":
        """The table of the product, the zeros of self first."""
        def cat(x, y):
            return readonly(np.concatenate((x, y)))

        kept = None
        if self._kept is not None or other._kept is not None:
            kept = cat(*(np.ones(t.zeros.size, dtype=bool) if t._kept is None else t._kept
                         for t in (self, other)))
        return ZeroTable(cat(self.zeros, other.zeros), cat(self.conj, other.conj),
                         cat(self.poles, other.poles), min(self.rho, other.rho),
                         self.at_zero + other.at_zero, kept, (self, other))

    def _derived(self, name: str):
        """The per-zero field ``name`` of a hat or a product, read off the
        tables it derives from (a hat's zeros have its source's moduli, bit
        for bit), or None for a table made from its zeros."""
        if not self._parts:
            return None
        parts = [getattr(part, name) for part in self._parts]
        return parts[0] if len(parts) == 1 else readonly(np.concatenate(parts))

    @cached_property
    def weights(self) -> np.ndarray:
        got = self._derived("weights")
        return readonly(np.sqrt(1.0 - np.abs(self.zeros) ** 2)) if got is None else got

    @cached_property
    def factor_weights(self) -> np.ndarray:
        got = self._derived("factor_weights")
        if got is None:
            got = readonly(np.array([math.sqrt(1.0 - abs(a) ** 2) for a in self.zeros.tolist()]))
        return got

    @cached_property
    def running(self) -> np.ndarray:
        return readonly(np.cumprod(np.concatenate(([1.0], -self.zeros[:-1]))))

    def factors(self, z: np.ndarray) -> tuple:
        """z - a_k and 1 - conj(a_k) z for every zero a_k, each of shape
        (degree,) + z.shape, so that row k is the k-th zero factor's."""
        col = (slice(None),) + (None,) * z.ndim
        return z - self.zeros[col], 1.0 - self.conj[col] * z


@dataclass(frozen=True)
class InnerFunction:
    """A finite Blaschke product: zero tuple (with multiplicity) and a unimodular constant.

    Its zero table (``table``, a `ZeroTable`) is made on first use, once; a
    hat's and a product's derive from their operands' tables.
    """

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
        self._link()
        # |u| = 1 on the circle follows from |a_k| < 1 and |c| = 1, so it is
        # not sampled here; the kernel-core check measures it

    def _link(self, hat_of=None, factors=None):
        # the grid cache; the generator this one is the hat of, if made by
        # `hat`, whose table, grids and basis shift its own derive from; and
        # the factors, if made by `*`, whose tables its own joins; none is a
        # field, so equality, hashing and JSON ignore them
        object.__setattr__(self, "_bvals", {})
        object.__setattr__(self, "_hat_of", hat_of)
        object.__setattr__(self, "_factors", factors)

    @classmethod
    def _made(cls, zeros: tuple, constant: complex, **links) -> "InnerFunction":
        """A hat or a product of valid generators: zeros and constant set as
        they are, with no zero validated again."""
        out = object.__new__(cls)
        object.__setattr__(out, "zeros", zeros)
        object.__setattr__(out, "constant", constant)
        out._link(**links)
        return out

    @cached_property
    def table(self) -> ZeroTable:
        """The zero table: for a hat its source's conjugated, for a product its
        factors' joined, else made from the zeros."""
        if self._hat_of is not None:
            return self._hat_of.table.conjugated()
        if self._factors is not None:
            first, second = self._factors
            return first.table.joined(second.table)
        return ZeroTable.of(self.zeros)

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
        the least pole modulus of the table, and the zeros at 0 as the degree
        of its finite part."""
        return self.table.reach

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
        """The product over the zero factors, one factor at a time, from the
        factors of every zero made at once (`ZeroTable.factors`); at a single
        point numpy scalars, which round as the per-zero loop's did."""
        num, den = self.table.factors(z)
        out = np.full(z.shape, self.constant, dtype=complex)
        for k in range(self.degree):
            out = out * num[k] / den[k]
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
        """u(0), evaluated once per instance by the same factor loop as ``u(0.0)``;
        a hat's is its source's conjugated, the same bits."""
        src = self._hat_of
        if src is None:
            return self(0.0)
        value = src.origin_value
        return complex(value.real, 0.0 - value.imag)    # unsigned, as evaluated

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        self.guard_poles(z)
        # factorwise evaluation: each Blaschke factor is well conditioned, so
        # clustered zeros cost only a few ulps (the expanded coefficients do not)
        out = self._factored(z)
        return out if z.ndim else complex(out)

    def guard_poles(self, z):
        """Raise PoleHit if a point lies within 1e-12 of a pole 1/conj(a), off the closed disk."""
        radius = self.table.rho - 1e-12     # inf without a pole
        modulus = np.abs(z)
        if radius < math.inf and (modulus.max(initial=0.0) if modulus.ndim else modulus) > radius:
            z, poles = np.asarray(z), self.table.poles
            near = np.abs(z[..., None] - poles) < 1e-12
            if np.any(near):
                raise PoleHit(f"evaluation at the pole {poles[np.nonzero(near)[-1][0]]:g}")

    def derivative(self, z) -> complex:
        """u'(z); logarithmic-derivative sum away from zeros of u, product rule at them."""
        z = complex(z)
        self.guard_poles(z)
        zs = self.table.zeros
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
        boundary grids, its basis grids and its basis operators are u's, made by
        u's own path and conjugated, and its zero table is u's conjugated, so
        no zero is validated again; u.hat().hat() is a fresh product equal to
        u, with u.hat() as its source.
        """
        return self._hat

    @cached_property
    def _hat(self) -> "InnerFunction":
        return InnerFunction._made(tuple(a.conjugate() for a in self.zeros),
                                   self.constant.conjugate(), hat_of=self)

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
        """The product, zeros of self first; its zero table joins the factors'."""
        return InnerFunction._made(self.zeros + other.zeros, self.constant * other.constant,
                                   factors=(self, other))

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
