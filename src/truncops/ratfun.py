"""Rational functions with no poles on the unit circle.

This is the symbol class for every operator in the package.  Coefficients
are stored densely in ascending powers of z; the denominator is kept monic.
Laurent polynomials sum(c_k z^k, -N <= k <= M) are represented with
denominator z^N.  Addition, multiplication, hat (coefficient conjugation),
conjugation on the circle and the flip J are exact coefficient operations;
only pairings against other symbols are numeric (see quadrature).

Pairings read boundary values on circle grids only, so grid values are the
working form of a symbol, cached per grid, read-only, in the one grid cache
of every pairing side (``quadrature.grid_cached``).  Arithmetic, hat, flip
and conjugation on the circle combine their operands' values and expand
coefficients on demand: the first read of ``num`` or ``den`` runs the same
``polymul`` sequence the operation would have run eagerly, so the
coefficients are bit-identical either way.  Division is the exception and
expands at once, because its new denominator must be certified.

Every symbol states its ``quadrature.Reach``, which picks the first level of
its pairings: the constructors know it (a Laurent polynomial's degree, a
generator's zeros), and arithmetic, hat, flip and conjugation on the circle
combine their operands' reaches.  A stated reach means the coefficients are
trusted.  Coefficients given with no reach are certified at construction:
no denominator root may lie within 1e-6 of the circle, and the reach is read
off the root moduli.  One monomial test per construction comes first: a
denominator z^N, that of every Laurent symbol read back from JSON, has its
reach without a root solve.  Arithmetic on certified symbols cannot create
new poles, so its results skip the (cubic-cost) root check.
"""

from __future__ import annotations

import json

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import quadrature
from .quadrature import Reach
from .errors import PoleHit, PoleOnCircle

CIRCLE_POLE_MARGIN = 1e-6


def _as_coeffs(c) -> np.ndarray:
    arr = np.asarray(c, dtype=complex).reshape(-1)
    if arr.size == 0:
        arr = np.zeros(1, dtype=complex)
    return arr


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing exactly-zero coefficients, keeping at least one entry."""
    n = c.size
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _is_zero_num(num: np.ndarray) -> bool:
    return num.size == 1 and num[0] == 0


def _canonical(num, den):
    """Trimmed coefficients over a monic denominator, read-only; zero is num = [0], den = [1]."""
    num = _trim(_as_coeffs(num))
    den = _trim(_as_coeffs(den))
    if den.size == 1 and den[0] == 0:
        raise PoleOnCircle("denominator is identically zero")
    lead = den[-1]
    den = den / lead
    num = num / lead
    if _is_zero_num(num):
        den = np.ones(1, dtype=complex)
    num.flags.writeable = False
    den.flags.writeable = False
    return num, den


class RationalSymbol:
    """A quotient of polynomials in z, pole free on the unit circle.

    Boundary values used by the quadrature come from an optional provider
    chain: arithmetic combines the operands' values pointwise, so a product
    of many factors is evaluated factor by factor rather than through its
    expanded coefficients (whose evaluation loses precision wherever
    denominator roots cluster).  The expanded coefficients remain the source
    of truth for exact algebra, certificates and serialization; symbols made
    by arithmetic expand them on the first read of ``num`` or ``den``
    (``expand`` returns the raw pair, which is then canonicalized as
    construction would, and comes with the stated reach).  Expansion is idempotent and deterministic, so a
    symbol shared between threads may be forced from any of them.
    """

    __slots__ = ("_coeffs", "_expand", "_vals", "_provider", "_reach")

    def __init__(self, num=None, den=(1.0,), *, provider=None, expand=None,
                 reach: Reach | None = None):
        self._vals: dict[int, np.ndarray] = {}
        self._reach = reach
        if expand is not None:
            # arithmetic result: certified operands cannot create poles
            self._coeffs = None
            self._expand = expand
            self._provider = provider
            return
        num, den = _canonical(num, den)
        if reach is None:   # uncertified coefficients
            self._reach = _reach_of(num, den)
        self._coeffs = (num, den)
        self._expand = None
        # the canonical zero evaluates directly to exact zeros
        self._provider = None if _is_zero_num(num) else provider

    def _expanded(self) -> tuple[np.ndarray, np.ndarray]:
        coeffs = self._coeffs
        if coeffs is None:
            expand = self._expand
            if expand is None:      # another thread finished expanding meanwhile
                return self._coeffs
            coeffs = _canonical(*expand())
            self._coeffs = coeffs
            self._expand = None     # releases the operands
        return coeffs

    @property
    def num(self) -> np.ndarray:
        return self._expanded()[0]

    @property
    def den(self) -> np.ndarray:
        return self._expanded()[1]

    @property
    def reach(self) -> Reach:
        """Where the symbol is analytic and how far its finite part reaches (see quadrature)."""
        return self._reach

    @staticmethod
    def _derived(operands, provider, expand, reach: Reach) -> "RationalSymbol":
        """The result of an operation, its coefficients expanded on demand.

        An operation on the canonical zero expands at once, so a zero result
        is recognized and evaluates to exact zeros, as eager expansion did.
        """
        if any(o._coeffs is not None and _is_zero_num(o._coeffs[0]) for o in operands):
            return RationalSymbol(*expand(), provider=provider, reach=reach)
        return RationalSymbol(provider=provider, expand=expand, reach=reach)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalSymbol":
        return cls([0.0], [1.0], reach=Reach())

    @classmethod
    def one(cls) -> "RationalSymbol":
        return cls([1.0], [1.0], reach=Reach())

    @classmethod
    def constant(cls, c) -> "RationalSymbol":
        return cls([complex(c)], [1.0], reach=Reach())

    @classmethod
    def monomial(cls, k: int, coeff=1.0) -> "RationalSymbol":
        """coeff * z**k for any integer k (negative k puts z**|k| downstairs)."""
        reach = Reach(degree=abs(k))
        if k >= 0:
            num = np.zeros(k + 1, dtype=complex)
            num[k] = coeff
            return cls(num, [1.0], reach=reach)
        den = np.zeros(-k + 1, dtype=complex)
        den[-k] = 1.0
        return cls([coeff], den, reach=reach)

    @classmethod
    def from_laurent(cls, coeffs: dict) -> "RationalSymbol":
        """Build sum(c_k z^k) from a {power: coefficient} mapping."""
        if not coeffs:
            return cls.zero()
        powers = sorted(int(k) for k in coeffs)
        lo = min(powers[0], 0)
        num = np.zeros(powers[-1] - lo + 1, dtype=complex)
        for k, c in coeffs.items():
            num[int(k) - lo] += complex(c)
        den = np.zeros(1 - lo, dtype=complex)
        den[-1] = 1.0
        return cls(num, den, reach=Reach(degree=max(-lo, powers[-1])))

    @classmethod
    def polynomial(cls, coeffs) -> "RationalSymbol":
        coeffs = _as_coeffs(coeffs)
        return cls(coeffs, [1.0], reach=Reach(degree=coeffs.size - 1))

    # -- algebra -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalSymbol):
            return other
        if isinstance(other, (int, float, complex, np.number)):
            return RationalSymbol.constant(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._derived(
            (self, o), lambda m: self.values_at(m) + o.values_at(m),
            lambda: (npoly.polyadd(npoly.polymul(self.num, o.den),
                                   npoly.polymul(o.num, self.den)),
                     npoly.polymul(self.den, o.den)),
            self.reach.join(o.reach))

    __radd__ = __add__

    def __neg__(self):
        return self._derived((self,), lambda m: -self.values_at(m),
                             lambda: (-self.num, self.den), self.reach)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._derived(
            (self, o), lambda m: self.values_at(m) * o.values_at(m),
            lambda: (npoly.polymul(self.num, o.num), npoly.polymul(self.den, o.den)),
            self.reach.times(o.reach))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # the incoming numerator becomes a denominator: expand and re-certify now
        return RationalSymbol(npoly.polymul(self.num, o.den), npoly.polymul(self.den, o.num),
                              provider=lambda m: self.values_at(m) / o.values_at(m))

    # -- circle involutions --------------------------------------------------

    def _reflected(self, m: int) -> np.ndarray:
        """Values of f(conj z) on the m-grid: the grid is conjugation closed."""
        return self.values_at(m)[quadrature.reflection(m)]

    def hat(self) -> "RationalSymbol":
        """Coefficient conjugation: (hat f)(z) = conj(f(conj(z)))."""
        return self._derived((self,), lambda m: np.conj(self._reflected(m)),
                             lambda: (np.conj(self.num), np.conj(self.den)), self.reach)

    def conj_circle(self) -> "RationalSymbol":
        """The function conj(f(z)) restricted to |z| = 1, as a rational function.

        conj(f(z)) = hat(f)(1/z) there; poles move to reciprocal-conjugate
        points, never onto the circle.
        """
        def expand():
            dp = self.num.size - 1
            dq = self.den.size - 1
            num = np.conj(self.num)[::-1].copy()
            den = np.conj(self.den)[::-1].copy()
            if dq >= dp:
                num = npoly.polymul(num, _zpow(dq - dp))
            else:
                den = npoly.polymul(den, _zpow(dp - dq))
            return num, den

        return self._derived((self,), lambda m: np.conj(self.values_at(m)), expand, self.reach)

    def flip(self) -> "RationalSymbol":
        """The flip J: (Jf)(z) = conj(z) f(conj(z)) on the circle, i.e. (1/z) f(1/z).

        On Laurent monomials J(z^k) = z^(-k-1).
        """
        def expand():
            dp = self.num.size - 1
            dq = self.den.size - 1
            num = self.num[::-1].copy()
            den = self.den[::-1].copy()
            shift = dq - dp - 1
            if shift >= 0:
                num = npoly.polymul(num, _zpow(shift))
            else:
                den = npoly.polymul(den, _zpow(-shift))
            return num, den

        return self._derived(
            (self,), lambda m: np.conj(quadrature.nodes(m)) * self._reflected(m), expand,
            self.reach.flipped())

    # -- evaluation ----------------------------------------------------------

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        nv = npoly.polyval(z, self.num)
        dv = npoly.polyval(z, self.den)
        if z.ndim == 0:
            if abs(dv) < 1e-13 * max(1.0, abs(nv)):
                raise PoleHit(f"symbol evaluated at a pole: z={complex(z):g}")
            return complex(nv / dv)
        return nv / dv

    def values_at(self, m: int) -> np.ndarray:
        """Boundary values on the m-point uniform circle grid; cached, read-only, C-contiguous.

        Computed through the provider chain when one exists; direct
        evaluation of the stored coefficients is the leaf fallback.  An m-grid
        read after the 2m-grid is sliced from it (``quadrature.grid_cached``).
        """
        return quadrature.grid_cached(self._vals, m, self._evaluated)

    def _evaluated(self, m: int) -> np.ndarray:
        if self._provider is not None:
            return np.ascontiguousarray(self._provider(m), dtype=complex)
        z = quadrature.nodes(m)
        return npoly.polyval(z, self.num) / npoly.polyval(z, self.den)

    # -- predicates and export -----------------------------------------------

    def __repr__(self):
        return f"RationalSymbol(num={list(self.num)}, den={list(self.den)})"

    def to_json(self) -> dict:
        return {
            "num": [[float(c.real), float(c.imag)] for c in self.num],
            "den": [[float(c.real), float(c.imag)] for c in self.den],
        }

    @classmethod
    def from_json(cls, obj) -> "RationalSymbol":
        """Accept {"num": .., "den": ..} pairs or the {"laurent": {...}} shorthand."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if "laurent" in obj:
            coeffs = {int(k): complex(v[0], v[1]) for k, v in obj["laurent"].items()}
            return cls.from_laurent(coeffs)
        num = [complex(re, im) for re, im in obj["num"]]
        den = [complex(re, im) for re, im in obj.get("den", [[1.0, 0.0]])]
        return cls(num, den)


def _zpow(k: int) -> np.ndarray:
    out = np.zeros(k + 1, dtype=complex)
    out[k] = 1.0
    return out


def _reach_of(num: np.ndarray, den: np.ndarray) -> Reach:
    """The reach of num/den over a monic denominator, whose roots are
    certified to keep off the circle.

    The finite part runs from the pole order at 0 (the exact low zeros of
    den) to the pole order at infinity (deg num - deg den).  A monomial z^N
    has every pole at 0, of order N, with no eigenvalue solve.
    """
    if np.count_nonzero(den) == 1:      # z^N, as den is monic
        return Reach(np.inf, max(den.size - 1, num.size - den.size))
    roots = npoly.polyroots(den)
    if np.min(np.abs(np.abs(roots) - 1.0)) < CIRCLE_POLE_MARGIN:
        raise PoleOnCircle(
            f"denominator root within {CIRCLE_POLE_MARGIN:g} of the unit circle"
        )
    at_zero = int(np.argmax(den != 0))
    at_infinity = max(0, num.size - den.size)
    return Reach.of_poles(roots, max(at_zero, at_infinity))
