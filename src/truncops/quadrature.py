"""Trapezoid quadrature on the unit circle, with an a priori first level.

All pairings in the package reduce to means of products of rational
functions over uniform grids on the circle.  The M-point mean of a Laurent
series is exact up to its aliases, the coefficients at nonzero multiples of
M (Trefethen and Weideman, *The exponentially convergent trapezoidal rule*,
SIAM Review 2014).  So each side of a pairing states its ``Reach``: the
annulus rho^-1 < |z| < rho in which it is analytic apart from its poles at 0
and infinity, and a bound D on the |frequency| of the finite part those
poles give.  The first half level is the smallest power of two that is at
least the ``start`` floor, D_f + D_g + 1 (so the finite part of the
integrand is integrated exactly and no frequency aliases onto the mean,
whatever its size) and ln(1/tol)/ln(rho) (so the analytic part's aliases
fall below tol).  From there the a posteriori certificate is unchanged: the
node count doubles until two successive levels agree, and hitting the cap
is a hard error rather than a silent inaccuracy.  An a priori level above
the cap is clamped so that the cap level is still evaluated; a ``start``
floor whose first level exceeds the cap raises at once.

The M-point grid is the even-index subset of the 2M-point grid, and the
nodes are conjugation symmetric: node M-k is stored as exactly conj(node k).
A cached 2M-grid thus gives the M-grid as its even rows (``grid_cached``,
for symbols and block conjugates), and by induction every (2^k)-th row of a
cached 2^k M-grid is the M-grid.  Generator grids (an inner function's, or a
basis's with its running product) come from one ladder, ``generator_grid``:
the cached M-grid, the rows of the nearest cached finer level, for a hat its
source's grid at the reflected nodes (``conj_reflected``), the nearest cached
coarser level (M/2, M/4, ...) grown by the nodes it lacks alone (``grown``),
else a cold evaluation.  Values are computed point by point, so a grown or
sliced grid has the same bits as one evaluated cold, and each refinement
evaluates only the nodes it adds.  A
derived grid has them too, since generator grids have their zeros unsigned
(``unsigned_zeros``).

Each level is one matrix product over the (M, 2, k) views of the two
2M-grids, which gives the sums over the even and the odd nodes; the 2M-node
mean is their sum over 2M, and the gap to the M-node mean is their
difference over 2M.  The stopping rule compares that gap with
tol * max(1, max|F| * max|G|), the roundoff floor of the mean.  That scale is
never below 1, so a gap under tol stops at once and the maxima are reduced
only when the gap falls between tol and the scaled bound.

Each side of a pairing is a ``Block``: a function of m that returns all of
its columns at once as one (m, k) array, with the reach of those columns.
``ModelSpaceBasis.block`` is the block of a basis, the pairing builds of
Toeplitz and Hankel operators pass the images of a whole basis as one, and
``Block.of`` stacks symbols as columns.  A block caches the conjugates of its
values per grid, which a pairing reads on its conjugated side.

Every pairing runs under the current ``Evaluation``, which holds its settings
and counters and the memo (``Memo``) of four ``memoized`` builders, none of
which pairs: the basis of each generator, which holds its operators, the
basis of each Hankel pair's product space, the cross Gram matrix of each
pair, and the warm state of each pair of spaces per settings.  The
counters count pairings, not builds: a build of a warm pair of spaces
contracts the basis-symbol operators that state holds and pairs nothing.
A ``contextvars.ContextVar`` holds it, so a thread or a suite run can have its
own; library sessions share a default one, whose counters are ``STATS``.
"""

from __future__ import annotations

import math
from collections import OrderedDict, defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, reduce, wraps
from threading import Lock

import numpy as np

from .errors import NoConvergence

QUAD_TOL = 1e-12
QUAD_START = 16     # a floor: the first level is chosen per pairing
QUAD_CAP = 65536
MEMO_SIZE = 512     # the latest builds each memoized builder keeps per evaluation


@dataclass(frozen=True)
class QuadratureSettings:
    tol: float = QUAD_TOL
    start: int = QUAD_START
    cap: int = QUAD_CAP

    @cached_property
    def floor(self) -> int:
        """The smallest power of two at least ``start``, the least half level of a pairing."""
        m = 1
        while m < self.start:
            m *= 2
        return m

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, hash((tol, start, cap)), computed on first use only."""
        return hash((self.tol, self.start, self.cap))


@dataclass(frozen=True)
class Reach:
    """What one side of a pairing states about its boundary values.

    rho > 1: apart from its poles at 0 and infinity the side is analytic in
    the annulus 1/rho < |z| < rho, so its other Fourier coefficients decay
    like rho^-|k|.  degree: a bound on the |frequency| of its finite part,
    the terms its poles at 0 and infinity give.
    """

    rho: float = math.inf
    degree: int = 0

    @classmethod
    def of_poles(cls, poles, degree: int) -> "Reach":
        """The reach of a rational function with these finite poles (0 among them or not)."""
        r = np.abs(np.asarray(poles, dtype=complex))
        r = r[r != 0]
        rho = float(np.min(np.maximum(r, 1.0 / r))) if r.size else math.inf
        return cls(rho, int(degree))

    def join(self, other: "Reach") -> "Reach":
        """The reach of a sum, or of the columns of one side together."""
        return Reach(min(self.rho, other.rho), max(self.degree, other.degree))

    def times(self, other: "Reach") -> "Reach":
        """The reach of a product."""
        return Reach(min(self.rho, other.rho), self.degree + other.degree)

    def flipped(self) -> "Reach":
        """The reach of the flip (1/z) f(1/z): frequency k goes to -k-1."""
        return Reach(self.rho, self.degree + 1)


class Block:
    """A pairing side given as one (m, k) array of boundary values per grid, with its reach.

    ``conj(m)`` is the conjugate of ``values(m)``, cached per grid, read-only.
    """

    __slots__ = ("values", "reach", "_conj")

    def __init__(self, values, reach: Reach):
        self.values = values
        self.reach = reach
        self._conj: dict[int, np.ndarray] = {}

    @classmethod
    def of(cls, *symbols) -> "Block":
        """The block of these symbols as columns, with their joined reach."""
        return cls(lambda m: np.column_stack([s.values_at(m) for s in symbols]),
                   reduce(Reach.join, (s.reach for s in symbols), Reach()))

    def conj(self, m: int) -> np.ndarray:
        return grid_cached(self._conj, m, lambda m: np.conj(self.values(m)))


@dataclass
class _Stats:
    """Running counters, snapshotted into suite reports."""

    pairings: int = 0
    max_nodes: int = 0

    def record(self, m: int):
        self.pairings += 1
        if m > self.max_nodes:
            self.max_nodes = m

    def snapshot(self) -> dict:
        return asdict(self)

    def reset(self):
        self.pairings = 0
        self.max_nodes = 0

    def add(self, other: "_Stats"):
        self.pairings += other.pairings
        self.max_nodes = max(self.max_nodes, other.max_nodes)


_MISSING = object()


class _Table(OrderedDict):
    """One builder's builds by key, least recently used first, with its lookups."""

    hits = misses = 0


class Memo:
    """The memoized builds of an evaluation: per builder, a `_Table` of its
    MEMO_SIZE most recently used builds (``tables``), under one lock.

    A lookup that misses claims the key and builds it outside the lock, since
    a build may look up another key (`hankel_space` looks up `tm_basis`); a
    lookup of a key being built waits for that build, then looks again.  Only
    a made build takes a slot, so a build that raises stores nothing and
    pushes nothing out, and each waiter then tries again.  Each lookup counts
    once: a miss if it builds, else a hit.
    """

    def __init__(self):
        self.tables: dict = defaultdict(_Table)
        self._building: dict = {}   # (builder, key): the lock its builder holds
        self._lock = Lock()

    def get(self, build, key: tuple):
        """build(*key), made once and kept while it is among the latest MEMO_SIZE."""
        lock = self._lock
        while True:
            lock.acquire()      # with try/finally, about half the cost of `with` on a hit
            try:
                table = self.tables[build]
                value = table.get(key, _MISSING)
                if value is not _MISSING:
                    table.move_to_end(key)
                    table.hits += 1
                    return value
                gate = self._building.get((build, key))
                if gate is None:
                    table.misses += 1
                    gate = self._building[build, key] = Lock()
                    gate.acquire()
                    break
            finally:
                lock.release()
            with gate:      # released when that build ends
                pass
        try:
            value = build(*key)
        finally:
            with self._lock:
                del self._building[build, key]
                if value is not _MISSING:   # else the build raised
                    table[key] = value
                    while len(table) > MEMO_SIZE:
                        table.popitem(last=False)
            gate.release()
        return value


@dataclass(frozen=True, eq=False)
class Evaluation:
    """The state every pairing runs under: settings, counters and memoized builds.

    The memo (`Memo`) holds each ``memoized`` builder's bounded
    least-recently-used table, one build per generator (or pair of
    generators), each operator's matrix read-only, and counts its hits and
    misses.  ``override`` and ``tally`` run under a copy that shares the
    memo.  A new evaluation has a new memo, so under it every pair of
    spaces starts cold, whichever evaluation built its bases.
    """

    settings: QuadratureSettings = field(default_factory=QuadratureSettings)
    stats: _Stats = field(default_factory=_Stats)
    memo: Memo = field(default_factory=Memo)


# library sessions run under the default evaluation; STATS are its counters
_current: ContextVar[Evaluation] = ContextVar("truncops_evaluation", default=Evaluation())
STATS = _current.get().stats


def current() -> Evaluation:
    return _current.get()


@contextmanager
def use(evaluation: Evaluation):
    """Run a block under the given evaluation (per thread and per context)."""
    token = _current.set(evaluation)
    try:
        yield evaluation
    finally:
        _current.reset(token)


def override(settings: QuadratureSettings):
    """Run a block under other settings, keeping the current counters and memo."""
    return use(replace(current(), settings=settings))


@contextmanager
def tally():
    """Count the pairings of a block on their own, then add them to the current counters."""
    ev = _current.get()
    own = _Stats()
    try:
        with use(replace(ev, stats=own)):
            yield own
    finally:
        ev.stats.add(own)


def memoized(build):
    """Memoize a builder in the current evaluation's `Memo`, which keeps its
    MEMO_SIZE most recently used builds; threads that miss a key together
    build it once."""

    @wraps(build)
    def lookup(*args):
        return _current.get().memo.get(build, args)
    return lookup


def readonly(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so that an edit in place raises
    ValueError instead of corrupting every later reader of the cache."""
    arr.flags.writeable = False
    return arr


# pure functions of m, shared by every evaluation
_nodes_cache: dict[int, np.ndarray] = {}
_reflection_cache: dict[int, np.ndarray] = {}


def nodes(m: int) -> np.ndarray:
    """The m-th roots of unity, exp(2*pi*i*k/m) for k = 0..m-1, conjugation symmetric.

    Nodes 0..m/2 are evaluated, node m/2 (m even) is exactly -1 and node m-k
    is stored as conj(node k), so `reflection` maps each node to its exact
    conjugate and nodes(2m)[::2] is nodes(m) bit for bit.
    """
    got = _nodes_cache.get(m)
    if got is None:
        half = m // 2
        got = np.empty(m, dtype=complex)
        got[:half + 1] = np.exp(1j * (2.0 * np.pi * np.arange(half + 1) / m))
        if m % 2 == 0:
            got[half] = -1.0
        got[half + 1:] = np.conj(got[m - half - 1:0:-1])
        got = _nodes_cache[m] = readonly(got)
    return got


def reflection(m: int) -> np.ndarray:
    """Index of the conjugate of each node of the m-grid: k -> -k mod m."""
    got = _reflection_cache.get(m)
    if got is None:
        got = _reflection_cache[m] = readonly((-np.arange(m)) % m)
    return got


def unsigned_zeros(values):
    """values with every -0.0 part made +0.0, in place where it is an array.

    The sign of a zero is the only bit in which a grid evaluated at conjugate
    nodes from conjugate data can differ from the conjugate of the grid, so
    every evaluated grid drops it and `conj_reflected` has a cold grid's bits.
    """
    values += 0.0
    return values


def conj_reflected(values: np.ndarray) -> np.ndarray:
    """The grid of conj(f(conj z)) from the m-grid of f, rows on the node axis.

    Row k is the conjugate of row -k mod m.  Complex +, -, *, / and real sqrt
    commute with conjugation up to the sign of a zero, so from a grid whose
    zeros are unsigned this is the same bits as evaluating the conjugated
    data cold at `nodes` (whose node -k is conj(node k)) and unsigning.
    """
    out = np.empty_like(values)
    out[:1] = values[:1]
    out[1:] = values[:0:-1]
    np.subtract(0.0, out.imag, out=out.imag)    # conjugates and unsigns the zeros
    return out


def grid_cached(cache: dict, m: int, compute) -> np.ndarray:
    """cache[m], made once, read-only and C-contiguous: the even rows of a
    cached 2m-grid (its even nodes are the m-grid, so the values are the same
    bits), else compute(m)."""
    got = cache.get(m)
    if got is None:
        fine = cache.get(2 * m)
        got = np.ascontiguousarray(fine[::2]) if fine is not None else compute(m)
        got = cache[m] = readonly(got)
    return got


def grown(cache: dict, m: int, at) -> tuple:
    """The record of the pointwise map ``at`` on the m-grid.

    ``at`` maps an array of nodes to a record, a tuple of arrays with one row
    per node.  When an (m/k)-grid is cached, k = 2, 4, ..., the nearest such
    level gives every k-th row, and only the other nodes are evaluated and
    woven in.  Each value is computed from its own node alone, so the result
    is the same bits as ``at(nodes(m))``.
    """
    step = 2
    while m % step == 0 and m // step not in cache:
        step *= 2
    if m % step:
        return at(nodes(m))
    rows = m // step
    added = at(nodes(m).reshape(rows, step)[:, 1:].ravel())
    out = []
    for c, a in zip(cache[rows], added, strict=True):
        full = np.empty((rows, step) + a.shape[1:], dtype=a.dtype)
        full[:, 0] = c
        full[:, 1:] = a.reshape((rows, step - 1) + a.shape[1:])
        out.append(full.reshape((m,) + a.shape[1:]))
    return tuple(out)


def generator_grid(m: int, cache: dict, at, source=None) -> tuple:
    """The m-grid record of a generator, from ``cache`` (one record per level)
    and its pointwise map ``at``; each array read-only and C-contiguous.

    The rungs: the cached m-grid; every (2^k)-th row of the nearest cached
    finer level, the 2^k m-grid; for a hat, whose ``source()`` gives the
    (cache, at) of its source, the source's m-grid by this ladder without a
    source (so a memo that maps the source back to the hat cannot loop),
    through `conj_reflected`; `grown`, from the nearest cached coarser level or
    cold.  Each rung makes the whole record, to the cold bits.
    """
    got = cache.get(m)
    if got is None:
        fine, finest = 2 * m, max(cache, default=0)
        while fine < finest and fine not in cache:
            fine *= 2
        if fine in cache:
            got = tuple(np.ascontiguousarray(f[::fine // m]) for f in cache[fine])
        elif source is not None and (hat_of := source()) is not None:
            got = tuple(map(conj_reflected, generator_grid(m, *hat_of)))
        else:
            got = grown(cache, m, at)
        got = cache[m] = tuple(map(readonly, got))
    return got


def first_level(f: Reach, g: Reach, settings: QuadratureSettings) -> int:
    """The half level m0 of a pairing's first comparison (2 * m0 against m0 nodes).

    The smallest power of two at least the start floor, f.degree + g.degree + 1
    and ln(1/tol)/ln(rho), clamped so that the first level stays under the
    cap.  A floor whose own first level is over the cap is returned as it is.
    """
    m = settings.floor
    if 2 * m > settings.cap:
        return m
    rho = min(f.rho, g.rho)
    if rho == math.inf:
        aliased = 0.0
    elif rho > 1 and settings.tol > 0:
        aliased = math.log(1.0 / settings.tol) / math.log(rho)
    else:
        aliased = math.inf
    need = max(f.degree + g.degree + 1, aliased)
    while m < need and 4 * m <= settings.cap:
        m *= 2
    return m


def pairing_matrix(fs, gs) -> np.ndarray:
    """G[i, j] = (1/2pi) \\int fs[j](e^{it}) conj(gs[i](e^{it})) dt for two blocks.

    fs is read through its values and gs through its cached conjugates,
    each on the 2 * m grid only.
    The first level, 2 * m0 nodes against m0, comes from the two reaches
    (`first_level`), so the finite part of the integrand is exact and no
    frequency aliases onto the result; from there the node count doubles
    until the whole matrix is stable to the current settings' tol in max
    norm.  No level above cap nodes is evaluated: an a priori level above it
    is clamped to it, and a start floor whose first level exceeds it raises
    NoConvergence at once.
    """
    ev = _current.get()
    s = ev.settings
    m = first_level(fs.reach, gs.reach, s)
    while True:
        if 2 * m > s.cap:
            raise NoConvergence(
                f"circle quadrature did not stabilize to {s.tol:g} within {s.cap} nodes"
            )
        F2, G2c = fs.values(2 * m), gs.conj(2 * m)
        # the sums over the even nodes (the m-grid) and the odd nodes, as one
        # product of the (2, k, m) and (2, m, k) views of the 2m-grids
        even, odd = np.matmul(G2c.reshape(m, 2, -1).transpose(1, 2, 0),
                              F2.reshape(m, 2, -1).transpose(1, 0, 2))
        full = (even + odd) / (2 * m)
        # the gap between the two levels, full - even / m; the roundoff floor
        # of the mean grows with the integrand magnitude, so the stopping rule
        # is relative to it; the scale is never below 1, so a gap under tol
        # itself stops without reducing the maxima
        gap = np.abs(odd - even).max() / (2 * m)
        if gap < s.tol or gap < s.tol * max(
                1.0, float(np.max(np.abs(F2))) * float(np.max(np.abs(G2c)))):
            ev.stats.record(2 * m)
            return full
        m *= 2
