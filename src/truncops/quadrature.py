"""Adaptive trapezoid quadrature on the unit circle.

All pairings in the package reduce to means of products of rational
functions over uniform grids on the circle.  Integrands are analytic in an
annulus around the circle (denominator roots are certified to stay at least
1e-6 away), so the periodic trapezoid rule converges geometrically; the node
count is doubled until two successive levels agree, and hitting the cap is a
hard error rather than a silent inaccuracy.

The M-point grid is the even-index subset of the 2M-point grid, so each
refinement reuses every previously computed value.

A side of a pairing is either a sequence of symbols, stacked column by
column, or a block: a function of m that returns all of its columns at once
as one (m, k) array.  ``ModelSpaceBasis.values`` is the block of a basis,
and operator builders pass the images of a whole basis as one.

Every pairing runs under the current ``Evaluation``: its settings, its
counters and its memo of per-generator builds (bases, shifts, Hankel symbol
stacks).  A ``contextvars.ContextVar`` holds it, so a thread or a suite run
can have its own; library sessions share a default one, whose counters are
``STATS``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache, wraps

import numpy as np

from .errors import NoConvergence

QUAD_TOL = 1e-12
QUAD_START = 1024
QUAD_CAP = 65536


@dataclass(frozen=True)
class QuadratureSettings:
    tol: float = QUAD_TOL
    start: int = QUAD_START
    cap: int = QUAD_CAP


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


@dataclass(frozen=True, eq=False)
class Evaluation:
    """The state every pairing runs under: settings, counters and memoized builds.

    The memo maps each ``memoized`` builder to its own bounded
    least-recently-used table.  ``override`` runs under a copy with other
    settings that shares the counters and the memo.
    """

    settings: QuadratureSettings = field(default_factory=QuadratureSettings)
    stats: _Stats = field(default_factory=_Stats)
    memo: dict = field(default_factory=dict)


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


def memoized(maxsize: int):
    """Memoize a builder in the current evaluation, keeping its maxsize latest builds."""
    def wrap(build):
        @wraps(build)
        def lookup(*args):
            memo = _current.get().memo
            table = memo.get(build) or memo.setdefault(build, lru_cache(maxsize)(build))
            return table(*args)
        return lookup
    return wrap


# pure functions of m, shared by every evaluation
_nodes_cache: dict[int, np.ndarray] = {}
_reflection_cache: dict[int, np.ndarray] = {}


def nodes(m: int) -> np.ndarray:
    """The m-th roots of unity, exp(2*pi*i*k/m) for k = 0..m-1."""
    got = _nodes_cache.get(m)
    if got is None:
        theta = 2.0 * np.pi * np.arange(m) / m
        got = np.exp(1j * theta)
        got.flags.writeable = False
        _nodes_cache[m] = got
    return got


def reflection(m: int) -> np.ndarray:
    """Index of the conjugate of each node of the m-grid: k -> -k mod m."""
    got = _reflection_cache.get(m)
    if got is None:
        got = (-np.arange(m)) % m
        got.flags.writeable = False
        _reflection_cache[m] = got
    return got


def _value_matrix(side, m: int) -> np.ndarray:
    """Boundary values of one pairing side, a block or a sequence of symbols, as (m, k)."""
    if callable(side):
        return side(m)
    return np.column_stack([s.values_at(m) for s in side])


def pairing_matrix(fs, gs) -> np.ndarray:
    """G[i, j] = (1/2pi) \\int fs[j](e^{it}) conj(gs[i](e^{it})) dt.

    fs and gs are sequences of objects exposing ``values_at(m)``
    (RationalSymbol does), or blocks: functions of m returning all their
    columns as one (m, k) array (``ModelSpaceBasis.values`` is one).
    Adaptive: doubles the node count, starting from 2 * start nodes, until
    the whole matrix is stable to the current settings' tol in max norm; no
    level above cap nodes is evaluated.
    """
    ev = _current.get()
    s = ev.settings
    m = s.start
    while True:
        if 2 * m > s.cap:
            raise NoConvergence(
                f"circle quadrature did not stabilize to {s.tol:g} within {s.cap} nodes"
            )
        F2 = _value_matrix(fs, 2 * m)
        G2 = _value_matrix(gs, 2 * m)
        full = G2.conj().T @ F2 / (2 * m)
        half = G2[::2].conj().T @ F2[::2] / m
        # the roundoff floor of the mean grows with the integrand magnitude,
        # so the stopping rule is relative to it (never below tol itself)
        scale = max(1.0, float(np.max(np.abs(F2))) * float(np.max(np.abs(G2))))
        if np.max(np.abs(full - half)) < s.tol * scale:
            ev.stats.record(2 * m)
            return full
        m *= 2


def pairing_vector(f, gs) -> np.ndarray:
    """Column of pairings <f, gs[i]> as a 1-d array."""
    return pairing_matrix([f], gs)[:, 0]
