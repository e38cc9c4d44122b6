import math
import time

import numpy as np
import pytest

from truncops import modelspace, operators, quadrature
from truncops.blaschke import InnerFunction
from truncops.errors import NoConvergence
from truncops.modelspace import ModelSpaceBasis, inner_product, project
from truncops.operators import tho_matrix, tto_matrix
from truncops.quadrature import Block, QuadratureSettings, Reach, pairing_matrix
from truncops.ratfun import RationalSymbol


def test_override_restores_after_exception():
    before = quadrature.current()
    with pytest.raises(RuntimeError):
        with quadrature.override(QuadratureSettings(start=64)) as ev:
            assert quadrature.current() is ev
            assert ev.settings.start == 64
            raise RuntimeError("inside the block")
    assert quadrature.current() is before


def test_override_shares_counters_and_memo():
    before = quadrature.current()
    with quadrature.override(QuadratureSettings(start=64)) as ev:
        assert ev.stats is before.stats
        assert ev.memo is before.memo


def test_cap_is_checked_before_the_first_level():
    one = Block.of(RationalSymbol.one())
    with quadrature.use(quadrature.Evaluation(QuadratureSettings(start=1024, cap=1024))) as ev:
        with pytest.raises(NoConvergence):
            pairing_matrix(one, one)
        assert ev.stats.snapshot() == {"pairings": 0, "max_nodes": 0}
    with quadrature.use(quadrature.Evaluation(QuadratureSettings(start=512, cap=1024))) as ev:
        assert np.allclose(pairing_matrix(one, one), [[1.0]])
        assert ev.stats.snapshot() == {"pairings": 1, "max_nodes": 1024}


@pytest.mark.parametrize("big, nodes", [(1e6, 32), (0.5, 64)])
def test_stopping_scale_decides_between_tol_and_scaled_tol(big, nodes):
    # F = big + small z^16 against G = 1: on the first level (32 against 16
    # nodes) the half grid aliases z^16 onto the mean, so the gap is small,
    # above tol = 1e-12 and below tol * max(1, max|F| * max|G|) for big = 1e6
    # only; for big = 0.5 the next level integrates z^16 exactly
    small = 1e-9

    def f_values(m):
        return (big + small * quadrature.nodes(m) ** 16)[:, None]

    ones = Block(lambda m: np.ones((m, 1), dtype=complex), Reach())
    with quadrature.use(quadrature.Evaluation()) as ev:
        got = pairing_matrix(Block(f_values, Reach()), ones)
        assert ev.stats.snapshot() == {"pairings": 1, "max_nodes": nodes}
    assert got[0, 0] == pytest.approx(big, rel=1e-15)


@pytest.mark.parametrize("reader", [
    lambda u: ModelSpaceBasis(u).values,
    lambda u: u.boundary_values,
    lambda u: ModelSpaceBasis(u).functions[1].values_at,                       # a provider
    lambda u: RationalSymbol(u.num_coeffs, [1.0, -0.4j, 0.1]).values_at,     # coefficients
    lambda u: ModelSpaceBasis(u).flipped.conj,
], ids=["basis", "inner", "symbol-provider", "symbol-coefficients", "block-conj"])
def test_grid_read_after_its_double_is_a_cold_contiguous_readonly_copy(reader):
    m = 32
    zeros = (0.3 + 0.4j, -0.5, 0.2 - 0.6j, 0.7j)
    cold = reader(InnerFunction(zeros))(m)
    read = reader(InnerFunction(zeros))
    read(2 * m)
    got = read(m)
    assert got.tobytes() == cold.tobytes()
    assert got.flags.c_contiguous and not got.flags.writeable
    assert read(m) is got


@pytest.mark.parametrize("m", [1, 2, 3, 6, 16, 24, 1024, 65536])
def test_nodes_are_conjugation_symmetric_and_nested(m):
    z = quadrature.nodes(m)
    k = np.arange(m)
    assert np.max(np.abs(z - np.exp(2j * np.pi * k / m))) <= 2e-15
    # node m-k is conj(node k) bit for bit; nodes 0 and m/2 are exactly 1 and -1,
    # whose conjugates differ from them in the sign of a zero only
    pair = k[(k != 0) & (2 * k != m)]
    assert z[m - pair].tobytes() == np.conj(z[pair]).tobytes()
    assert z[0] == 1 and (m % 2 or z[m // 2] == -1)
    assert np.array_equal(z[quadrature.reflection(m)], np.conj(z))
    assert quadrature.nodes(2 * m)[::2].tobytes() == z.tobytes()
    assert not z.flags.writeable


def test_first_level_floor_is_the_power_of_two_at_least_start():
    for start, floor in [(1, 1), (2, 2), (3, 4), (16, 16), (17, 32), (1000, 1024)]:
        settings = QuadratureSettings(start=start)
        assert settings.floor == floor
        assert quadrature.first_level(Reach(), Reach(), settings) == floor


def test_a_single_symbol_side_reaches_as_the_symbol():
    sym = RationalSymbol([1.0], [0.3, -2.0])
    assert Block.of(sym).reach == sym.reach
    assert Block.of(sym, RationalSymbol.monomial(3)).reach == Reach(sym.reach.rho, 3)


# -- the stopping loop as a reference: the sums over the even and the odd
# nodes of the 2m-grid, each its own product, give the 2m-node mean
# (even + odd)/2m and the gap to the m-node mean, (odd - even)/2m; the pairing
# path must return the same bytes at the same levels


def _reference_pairing_matrix(fs, gs, levels=None):
    ev = quadrature.current()
    s = ev.settings
    f, g = fs.reach, gs.reach
    m = 1
    while m < s.start:
        m *= 2
    rho = min(f.rho, g.rho)
    aliased = 0.0 if rho == math.inf else math.log(1.0 / s.tol) / math.log(rho)
    while m < max(f.degree + g.degree + 1, aliased) and 4 * m <= s.cap:
        m *= 2
    while True:
        if 2 * m > s.cap:
            raise NoConvergence("reference quadrature did not stabilize")
        F2 = fs.values(2 * m)
        # conjugated here, not read from the block's cache
        G2c = gs.values(2 * m).conj()
        if levels is not None:
            levels.append((F2, G2c))
        even = G2c[::2].T @ F2[::2]
        odd = G2c[1::2].T @ F2[1::2]
        scale = max(1.0, float(np.max(np.abs(F2))) * float(np.max(np.abs(G2c))))
        if np.max(np.abs(odd - even)) / (2 * m) < s.tol * scale:
            ev.stats.record(2 * m)
            return (even + odd) / (2 * m)
        m *= 2


def _builds(u):
    # the Toeplitz and Hankel symbols have poles off 0 and infinity, so they
    # pair; a Laurent symbol's builds are closed forms
    sym = RationalSymbol.from_laurent({-2: 0.3 - 0.1j, 0: 1.0, 1: -0.4j, 3: 0.2})
    rational = sym + RationalSymbol([1.0], [-2.0, 1.0])
    ops = [tto_matrix(u, u, rational), tto_matrix(u, u, u.as_symbol() + sym),
           tho_matrix(u, u, rational), tho_matrix(u, u.hat(), sym * u.conj_symbol())]
    return [op.matrix for op in ops] + [project(u, sym).coords,
                                        np.array(inner_product(sym, sym))]


@pytest.mark.parametrize("degree", [2, 8, 16, 32])
def test_pairing_path_is_bitwise_the_reference_loop(monkeypatch, degree):
    rng = np.random.default_rng(degree)
    zeros = 0.85 * np.sqrt(rng.uniform(size=degree)) * np.exp(2j * np.pi * rng.uniform(size=degree))
    zeros[degree // 2] = 0.0

    def run():
        # a fresh generator and evaluation, so every grid and basis starts cold
        u = InnerFunction(tuple(zeros), np.exp(0.7j))
        with quadrature.use(quadrature.Evaluation()) as ev:
            mats = [mat.tobytes() for mat in _builds(u)]
            return mats, ev.stats.snapshot()

    got = run()
    assert got[1]["pairings"] == 6      # every build pairs
    for module in (quadrature, modelspace, operators):
        monkeypatch.setattr(module, "pairing_matrix", _reference_pairing_matrix)
    want = run()
    assert got == want


@pytest.mark.parametrize("degree", [2, 8, 16, 32])
def test_even_odd_mean_is_the_one_product_mean_to_roundoff(monkeypatch, degree):
    # the 2m-node mean as one product over all the nodes, G2c.T @ F2 / 2m, and
    # as the even and odd sums apart agree to roundoff at every level reached
    rng = np.random.default_rng(degree)
    zeros = 0.85 * np.sqrt(rng.uniform(size=degree)) * np.exp(2j * np.pi * rng.uniform(size=degree))
    levels = []
    for module in (quadrature, modelspace, operators):
        monkeypatch.setattr(module, "pairing_matrix",
                            lambda fs, gs: _reference_pairing_matrix(fs, gs, levels))
    with quadrature.use(quadrature.Evaluation()):
        _builds(InnerFunction(tuple(zeros), np.exp(0.7j)))
    assert len(levels) >= 6
    eps = np.finfo(float).eps
    for F2, G2c in levels:
        m = len(F2) // 2
        full = (G2c[::2].T @ F2[::2] + G2c[1::2].T @ F2[1::2]) / (2 * m)
        scale = max(1.0, float(np.max(np.abs(F2))) * float(np.max(np.abs(G2c))))
        assert np.max(np.abs(full - G2c.T @ F2 / (2 * m))) <= 4 * eps * scale


def _race(threads, ask):
    """ask() from each of `threads` threads at once, with the switch interval
    at 1e-6, each under its own copy of the current context."""
    import contextvars
    import sys
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier

    start = Barrier(threads, timeout=60)

    def worker(ctx):
        start.wait()
        return ctx.run(ask)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, [contextvars.copy_context() for _ in range(threads)],
                                 timeout=120))
    finally:
        sys.setswitchinterval(switch)


def test_threads_that_miss_a_key_together_build_it_once():
    # four threads ask a fresh evaluation for the same Hankel pair at once:
    # the first miss builds the basis, the others wait for it
    a, b = InnerFunction([0.3 + 0.2j, -0.4, 0.1j]), InnerFunction([0.5j, 0.2 - 0.3j])
    for _ in range(20):
        with quadrature.use(quadrature.Evaluation()) as ev:
            got = _race(4, lambda: modelspace.hankel_space(a, b))
            assert all(space is got[0] for space in got)
            info = ev.memo[modelspace.hankel_space.__wrapped__].cache_info()
            assert (info.hits, info.misses, info.currsize) == (3, 1, 1)


def test_threads_that_miss_a_slow_build_wait_for_it():
    calls = []

    @quadrature.memoized
    def slow(key):
        calls.append(key)
        time.sleep(0.01)
        return [key]

    with quadrature.use(quadrature.Evaluation()) as ev:
        got = _race(8, lambda: slow("k"))
        assert calls == ["k"] and all(x is got[0] for x in got)
        info = ev.memo[slow.__wrapped__].cache_info()
        assert (info.hits, info.misses) == (7, 1)


def test_a_build_that_raises_is_tried_again_by_each_waiter():
    calls = []

    @quadrature.memoized
    def refuse(key):
        calls.append(key)
        raise NoConvergence("no build")

    with quadrature.use(quadrature.Evaluation()):
        outcomes = _race(3, lambda: pytest.raises(NoConvergence, refuse, "k"))
    assert len(outcomes) == 3 and calls == ["k"] * 3


def test_the_memo_keeps_its_most_recently_used_builds():
    made = []

    @quadrature.memoized
    def build(key):
        made.append(key)
        return [key]

    with quadrature.use(quadrature.Evaluation()) as ev:
        first = build(0)
        for key in range(1, quadrature.MEMO_SIZE):
            build(key)
        assert build(0) is first            # a hit makes 0 the most recent
        build(quadrature.MEMO_SIZE)         # drops 1, the least recent
        assert build(0) is first and len(made) == quadrature.MEMO_SIZE + 1
        build(1)
        assert made[-1] == 1
        info = ev.memo[build.__wrapped__].cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, quadrature.MEMO_SIZE + 2,
                                                           quadrature.MEMO_SIZE)
