"""The zero table against the closed forms it replaced, bit for bit.

Each ``_ref_*`` function below is the per-zero formula that built a kernel
before generators carried a zero table.  The table-built kernels must give
the same bits: the poles and rho pick the quadrature levels, and every report
byte rests on the shift, the kernels, the conjugations and the point values.
"""

import numpy as np
import pytest

from truncops import quadrature
from truncops.blaschke import InnerFunction, ZeroTable
from truncops.errors import NotUnimodular, ZeroOnOrOutsideCircle
from truncops.harness import clustered_inner
from truncops.modelspace import ModelSpaceBasis, _conj_kernel_coords, reorder, tm_basis
from truncops.quadrature import Reach

# ---------------------------------------------------------------------------
# the per-zero formulas


def _ref_poles(u):
    return np.array([1.0 / np.conj(a) for a in u.zeros if abs(a) > 1e-300])


def _ref_reach(u):
    return Reach.of_poles(_ref_poles(u), sum(a == 0 for a in u.zeros))


def _ref_factored(u, z):
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, u.constant, dtype=complex)
    for a in u.zeros:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return quadrature.unsigned_zeros(out)


def _ref_evaluate(u, z):
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape + (u.degree,), dtype=complex)
    running = np.ones(z.shape, dtype=complex)
    for k, a in enumerate(u.zeros):
        factor_den = 1.0 - np.conj(a) * z
        np.divide(np.sqrt(1.0 - abs(a) ** 2) * running, factor_den, out=out[..., k])
        running = running * (z - a) / factor_den
    return quadrature.unsigned_zeros(out), quadrature.unsigned_zeros(running)


def _ref_shift(u):
    a = np.array(u.zeros)
    idx = np.arange(a.size)
    mat = np.zeros((a.size, a.size), dtype=complex)
    mat[1:] = np.cumprod(np.where(idx[:, None] > idx, -np.conj(a)[:, None], 1.0), axis=0)[:-1]
    weights = np.sqrt(1.0 - np.abs(a) ** 2)
    return np.tril(mat * np.outer(weights, weights), -1) + np.diag(a)


def _ref_k0(u):
    zs = np.array(u.zeros)
    running = np.cumprod(np.concatenate(([1.0], -zs[:-1])))
    return np.conj(np.sqrt(1.0 - np.abs(zs) ** 2) * running)


def _ref_conj_kernel(u, lam):
    a = np.array(u.zeros)
    factor_den = 1.0 - np.conj(a) * lam
    tails = np.cumprod(((lam - a) / factor_den)[:0:-1])[::-1]
    return u.constant * np.sqrt(1.0 - np.abs(a) ** 2) / factor_den * np.append(tails, 1.0)


def _ref_swap_rounds(order):
    n = len(order)
    key, perm = np.argsort(order), np.arange(n)
    rounds, left, right = [], [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for parity in range(n):
        ks = np.arange(parity % 2, n - 1, 2)
        swap = key[perm[ks]] > key[perm[ks + 1]]
        if swap.any():
            rounds.append((ks[0], ks[-1] + 2, sum(map(len, left))))
            left.append(np.where(swap, perm[ks], n))
            right.append(np.where(swap, perm[ks + 1], n))
            perm[ks[swap]], perm[ks[swap] + 1] = perm[ks[swap] + 1], perm[ks[swap]]
    return rounds, np.concatenate(left), np.concatenate(right)


def _ref_reorder(u, order):
    rounds, left, right = _ref_swap_rounds(tuple(order))
    zs = np.append(u.zeros, 0.0)
    a, b = zs[left], zs[right]
    weights = np.sqrt(1.0 - np.abs(zs) ** 2)
    coeffs = np.stack([weights[left] * weights[right], -np.conj(a - b), a - b])
    p, q, r = (coeffs / (1.0 - np.conj(b) * a))[:, :, None]
    out = np.eye(u.degree, dtype=complex)
    for start, stop, at in rounds:
        x, y = out[start:stop:2], out[start + 1:stop:2]
        sl = slice(at, at + len(x))
        x[...], y[...] = p[sl] * x + q[sl] * y, r[sl] * x + p[sl] * y
    return out.T


# ---------------------------------------------------------------------------
# generators: uniform, zeros at 0, repeated zeros, real zeros (whose
# conjugates carry signed zeros), clustered zeros and real symmetric ones


def _uniform(rng, n):
    zeros = 0.85 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return zeros, np.exp(2j * np.pi * rng.uniform())


def _family(name, rng, n):
    zeros, c = _uniform(rng, n)
    if name == "at_zero":
        zeros[::2] = 0.0
    elif name == "repeated":
        zeros[:] = zeros[0]
    elif name == "real":
        zeros = zeros.real.astype(complex)
    elif name == "clustered":
        return clustered_inner(rng, n)
    elif name == "symmetric":
        half = zeros[:n // 2]
        zeros = np.concatenate([half, np.conj(half), [0.3] * (n % 2)])
        c = -1.0
    return InnerFunction(tuple(zeros), c)


FAMILIES = ["uniform", "at_zero", "repeated", "real", "clustered", "symmetric"]
DEGREES = [1, 2, 8, 32]
POINTS = [0.0, 0.3 + 0.1j, -0.5j, np.exp(0.7j), -1.0]


def _made(u, rng, how):
    """u itself, its hat, or its product with another generator."""
    if how == "hat":
        return u.hat()
    if how == "product":
        return u * _family("uniform", rng, 3)
    return u


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("how", ["plain", "hat", "product"])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", DEGREES)
def test_table_built_kernels_are_the_per_zero_formulas(n, family, how):
    rng = np.random.default_rng(1000 * n + FAMILIES.index(family))
    u = _made(_family(family, rng, n), rng, how)
    with quadrature.use(quadrature.Evaluation()):
        space = tm_basis(u)
        t = u.table
        assert _bits(t.poles) == _bits(_ref_poles(u))
        assert repr(u.reach) == repr(_ref_reach(u)) and u.reach == _ref_reach(u)
        assert t.rho == u.reach.rho and t.at_zero == sum(a == 0 for a in u.zeros)
        assert _bits(space.shift.matrix) == _bits(_ref_shift(u))
        assert _bits(space.k0) == _bits(_ref_k0(u))
        assert _bits(space.conj_k0) == _bits(_ref_conj_kernel(u, 0j))
        reversed_order = range(u.degree - 1, -1, -1)
        assert _bits(space.conjugation_C.matrix) == _bits(
            u.constant * _ref_reorder(u, reversed_order)[:, ::-1])
        if u.conjugate_order is not None:
            assert _bits(space.conjugation_U_on.matrix) == _bits(
                _ref_reorder(u, u.conjugate_order))
        order = rng.permutation(u.degree)
        assert _bits(reorder(u, order)) == _bits(_ref_reorder(u, order))
        assert _bits(np.array([u.origin_value])) == _bits(np.array([complex(_ref_factored(u, 0.0))]))
        for z in [*POINTS, np.array(POINTS), np.array(POINTS[1:3])]:
            assert _bits(u(z)) == _bits(np.asarray(_ref_factored(u, z)).astype(complex)
                                        if np.ndim(z) else complex(_ref_factored(u, z)))
            values, running = space._evaluate(z)
            ref_values, ref_running = _ref_evaluate(u, z)
            assert _bits(values) == _bits(ref_values) and _bits(running) == _bits(ref_running)
            assert _bits(space.at(z)) == _bits(ref_values)
        lam = 0.2 - 0.4j
        assert _bits(_conj_kernel_coords(u, lam)) == _bits(_ref_conj_kernel(u, lam))
        for m in (16, 64):
            ref_values, ref_running = _ref_evaluate(u, quadrature.nodes(m))
            assert _bits(space.values(m)) == _bits(ref_values)
            assert _bits(u.boundary_values(m)) == _bits(_ref_factored(u, quadrature.nodes(m)))


def _unlinked(u):
    """An equal generator that records neither a source nor factors."""
    return InnerFunction(u.zeros, u.constant)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", DEGREES)
def test_a_hat_basis_holds_the_operators_built_from_its_zeros(n, family):
    rng = np.random.default_rng(2000 * n + FAMILIES.index(family))
    u = _family(family, rng, n)
    with quadrature.use(quadrature.Evaluation()):
        tm_basis(u).values(32)      # the hat's grid is this one conjugated
        # a real symmetric u equals its hat, and the memo gives u's basis
        hat = tm_basis(u.hat())
        direct = ModelSpaceBasis(_unlinked(hat.generator))
        for name in ("shift", "conjugation_C"):
            assert _bits(getattr(hat, name).matrix) == _bits(getattr(direct, name).matrix)
        for name in ("k0", "conj_k0"):
            assert _bits(getattr(hat, name)) == _bits(getattr(direct, name))
        if u.conjugate_order is not None:
            assert _bits(hat.conjugation_U_on.matrix) == _bits(direct.conjugation_U_on.matrix)
        assert _bits(hat.values(32)) == _bits(direct.values(32))
        assert _bits(np.array([u.hat().origin_value])) == _bits(
            np.array([_unlinked(u.hat()).origin_value]))
        for name in ("zeros", "conj", "poles", "weights", "factor_weights", "running"):
            assert _bits(getattr(u.hat().table, name)) == _bits(
                getattr(_unlinked(u.hat()).table, name)), name


@pytest.mark.parametrize("family", ["uniform", "repeated"])
def test_a_hat_of_a_hat_looked_up_first_builds_both_bases(family):
    # the memo keys a generator's basis by its zeros, so here the basis it
    # gives for v is the one built for hat(hat(v)), whose source is hat(v)
    rng = np.random.default_rng(11)
    v = _family(family, rng, 4)
    h = v.hat()
    with quadrature.use(quadrature.Evaluation()):
        first = tm_basis(h.hat())
        assert tm_basis(v) is first and first.generator._hat_of is h
        for space in (tm_basis(h), tm_basis(v)):
            direct = ModelSpaceBasis(_unlinked(space.generator))
            for name in ("shift", "conjugation_C"):
                assert _bits(getattr(space, name).matrix) == _bits(getattr(direct, name).matrix)
            assert _bits(space.values(32)) == _bits(direct.values(32))


def test_hats_and_products_derive_their_tables_without_validating(monkeypatch):
    rng = np.random.default_rng(5)
    u, v = _family("uniform", rng, 4), _family("at_zero", rng, 3)
    u.table, v.table
    made = []
    monkeypatch.setattr(InnerFunction, "__post_init__",
                        lambda self: made.append(self) or pytest.fail("validated again"))
    monkeypatch.setattr(ZeroTable, "of", classmethod(lambda cls, zs: pytest.fail("made cold")))
    w, h, hh = u * v, u.hat(), u.hat().hat()
    for g in (w, h, hh, w.hat(), h * w):
        assert g.table.zeros.tolist() == list(g.zeros)
        assert not g.table.zeros.flags.writeable and not g.table.poles.flags.writeable
    assert made == []
    monkeypatch.undo()
    assert w == InnerFunction(u.zeros + v.zeros, u.constant * v.constant)
    assert hh == u and h.hat() is hh
    assert w.reach == _ref_reach(w) and h.reach == _ref_reach(h)


@pytest.mark.parametrize("zeros, constant, error", [
    ((1.0,), 1.0, ZeroOnOrOutsideCircle),
    ((0.5, 1.0 - 1e-10), 1.0, ZeroOnOrOutsideCircle),
    ((0.3, 2.0j), 1.0, ZeroOnOrOutsideCircle),
    ((), 1.0, ZeroOnOrOutsideCircle),
    ((0.5,), 1.1, NotUnimodular),
    ((0.5, 0.1j), 0.5j, NotUnimodular),
])
def test_the_constructor_still_refuses_invalid_input(zeros, constant, error):
    with pytest.raises(error):
        InnerFunction(zeros, constant)
