import json

import numpy as np
import pytest

from truncops import ExtendedScalar, RationalSymbol, clark_points, monomial_inner
from truncops import blaschke
from truncops.blaschke import InnerFunction
from truncops.errors import (
    NotUnimodular,
    PoleHit,
    ZeroOnOrOutsideCircle,
)


def test_monomial_case():
    u = InnerFunction([0, 0], 1)
    assert u(0.5) == pytest.approx(0.25)
    assert u.degree == 2


def test_single_zero_and_unimodularity():
    u = InnerFunction([0.5], 1)
    assert u(0.5) == pytest.approx(0.0)
    assert abs(u(1j)) == pytest.approx(1.0)


def test_unimodular_on_circle_sampled():
    u = InnerFunction([0.3 + 0.4j], constant=-1)
    theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    vals = u(np.exp(1j * theta))
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-10


def test_zero_next_to_a_circle_point_is_accepted():
    # |u| = 1 on the circle follows from the zeros and the constant; a sampled
    # check at the angle next to this zero lost accuracy and refused it
    a = 0.999999 * np.exp(0.3j)
    u = InnerFunction([a])
    assert u.zeros == (a,)
    assert abs(u(np.exp(2.0j))) == pytest.approx(1.0, abs=1e-12)


def test_symbol_coefficients_on_demand_match_eager():
    u = InnerFunction([0.3 + 0.4j, -0.5, 0.2 - 0.6j, 0.0], constant=np.exp(0.7j))
    sym = u.as_symbol()
    assert sym._coeffs is None
    assert np.array_equal(sym.values_at(64), u.boundary_values(64))
    eager = RationalSymbol(u.num_coeffs, u.den_coeffs)
    assert np.array_equal(sym.num, eager.num) and np.array_equal(sym.den, eager.den)
    assert sym.reach == u.reach


def test_construction_guards():
    with pytest.raises(ZeroOnOrOutsideCircle):
        InnerFunction([1.0], 1)
    with pytest.raises(ZeroOnOrOutsideCircle):
        InnerFunction([], 1)
    with pytest.raises(NotUnimodular):
        InnerFunction([0.2], 1.5)


def test_evaluate():
    assert monomial_inner(2)(2.0) == pytest.approx(4.0)
    u = InnerFunction([0.5], 1)
    assert u(0.0) == pytest.approx(-0.5)
    with pytest.raises(PoleHit):
        u(2.0)   # the pole sits at 1/conj(0.5)


def test_derivative():
    assert monomial_inner(2).derivative(1.0) == pytest.approx(2.0)
    u = InnerFunction([0.5], 1)
    assert u.derivative(0.0) == pytest.approx(1 - 0.25)   # 1 - |a|^2 at a = 0.5
    # central difference oracle
    u = monomial_inner(2)
    lam, h = 0.3, 1e-6
    fd = (u(lam + h) - u(lam - h)) / (2 * h)
    assert abs(u.derivative(lam) - fd) < 1e-6


def test_derivative_at_zero_of_u_uses_product_rule():
    a = 0.3 + 0.4j
    u = InnerFunction([a, -0.2], np.exp(0.5j))
    h = 1e-6
    fd = (u(a + h) - u(a - h)) / (2 * h)
    assert abs(u.derivative(a) - fd) < 1e-5


def test_hat():
    assert monomial_inner(2).hat() == monomial_inner(2)
    u = InnerFunction([0.5j], 1)
    uh = u.hat()
    assert uh.zeros == (-0.5j,)
    zs = np.exp(1j * np.linspace(0.1, 6.0, 8))
    assert np.max(np.abs(np.conj(uh(np.conj(zs))) - u(zs))) < 1e-12
    assert u.hat().hat() == u
    assert InnerFunction([0.2], 1j).hat().constant == -1j


def test_real_symmetric():
    assert monomial_inner(3).is_real_symmetric()
    assert not InnerFunction([0.5j], 1).is_real_symmetric()
    u = InnerFunction([0.5j, -0.5j], -1)
    assert u.is_real_symmetric()
    zs = np.exp(1j * np.linspace(0.05, 6.1, 16))
    assert np.max(np.abs(u(zs) - u.hat()(zs))) < 1e-12


def test_clark_points_monomial():
    data = clark_points(monomial_inner(2), 1.0)
    pts = sorted(data.points, key=lambda z: z.real)
    assert pts[0] == pytest.approx(-1.0)
    assert pts[1] == pytest.approx(1.0)
    assert data.weights == pytest.approx((0.5, 0.5))
    # constant function quadrature: f = 1 has unit norm in K_{z^2}
    assert sum(w * abs(1.0) ** 2 for w in data.weights) == pytest.approx(1.0)


def test_clark_points_roots_of_unity():
    n = 5
    data = clark_points(monomial_inner(n), 1.0)
    pts = np.array(data.points)
    assert np.max(np.abs(pts**n - 1.0)) < 1e-10
    assert np.allclose(data.weights, 1.0 / n)


def test_clark_orientation_recorded():
    u = InnerFunction([0.3 + 0.4j, -0.5], np.exp(0.7j))
    data = clark_points(u, np.exp(1.3j))
    assert data.orientation() == "u(point) = alpha"
    assert "orientation" in data.to_json()


def test_clark_weights_are_computed_on_first_read(monkeypatch):
    u = InnerFunction([0.3 + 0.4j, -0.5, 0.0, 0.2 - 0.6j], np.exp(0.7j))
    alpha = np.exp(1.3j)
    derivative = InnerFunction.derivative
    calls = []

    def counted(self, z):
        calls.append(z)
        return derivative(self, z)

    monkeypatch.setattr(InnerFunction, "derivative", counted)
    data = clark_points(u, alpha)
    assert calls == []
    want = tuple(1.0 / abs(derivative(u, p)) for p in data.points)
    assert np.array(data.weights).tobytes() == np.array(want).tobytes()
    assert len(calls) == u.degree
    data.weights
    assert len(calls) == u.degree           # read once
    # the JSON is what the eager weights gave
    eager = {"alpha": [alpha.real, alpha.imag],
             "points": [[p.real, p.imag] for p in data.points],
             "weights": list(want),
             "orientation": data.orientation()}
    assert json.dumps(data.to_json(), sort_keys=True) == json.dumps(eager, sort_keys=True)


def test_origin_value_is_the_factor_loop_once(monkeypatch):
    u = InnerFunction([0.3 + 0.4j, -0.5, 0.0, 0.2 - 0.6j, 0.7j], np.exp(0.7j))
    z = np.asarray(0.0, dtype=complex)
    want = np.full(z.shape, u.constant, dtype=complex)
    for a in u.zeros:
        want = want * (z - a) / (1.0 - np.conj(a) * z)
    got = u.origin_value
    assert np.array([got]).tobytes() == np.array([complex(want)]).tobytes()
    assert np.array([got]).tobytes() == np.array([u(0.0)]).tobytes()

    def refuse(self, z):
        raise AssertionError("u evaluated again")

    monkeypatch.setattr(InnerFunction, "__call__", refuse)
    assert u.origin_value is got


@pytest.mark.parametrize("n", [1, 8, 32])
def test_boundary_values_grow_by_their_odd_nodes_bitwise(n, monkeypatch):
    rng = np.random.default_rng(n)
    zeros = 0.85 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    sizes = []
    factored = InnerFunction._factored

    def counted(self, z):
        sizes.append(z.size)
        return factored(self, z)

    monkeypatch.setattr(InnerFunction, "_factored", counted)
    for m in (16, 64, 512):
        cold = InnerFunction(tuple(zeros), np.exp(0.3j)).boundary_values(2 * m)
        u = InnerFunction(tuple(zeros), np.exp(0.3j))
        u.boundary_values(m)
        sizes.clear()
        grown = u.boundary_values(2 * m)
        assert grown.tobytes() == cold.tobytes()
        assert sizes == [m]
        assert not grown.flags.writeable
        assert u.boundary_values(m).tobytes() == grown[::2].tobytes()


def test_hash_is_the_dataclass_hash_computed_once(monkeypatch):
    calls = []

    def counted(obj):
        calls.append(obj)
        return hash(obj)

    u = InnerFunction([0.3 + 0.4j, -0.5, 0.0], np.exp(0.7j))
    assert "_hash" not in vars(u)       # construction computes no hash
    monkeypatch.setattr(blaschke, "hash", counted, raising=False)
    got = [hash(u) for _ in range(3)] + [hash(v) for v in {u: 1, u.hat(): 2}]
    assert got[:4] == [hash((u.zeros, u.constant))] * 4
    assert calls.count((u.zeros, u.constant)) == 1
    assert u == InnerFunction(u.zeros, u.constant) and u != u.hat()


def test_pole_guard_radius_is_fixed_at_construction():
    # the guard radius is the least pole modulus less 1e-12, kept once per
    # generator in its zero table, which is also the reach's rho
    u = InnerFunction([0.5, 0.0, -0.25j])
    assert u.table.rho == np.min(np.abs(u.table.poles)) == u.reach.rho
    u.guard_poles(np.array([0.3, 1.9]))      # inside the guard radius, or off every pole
    u.guard_poles(2.0 - 2e-12)
    with pytest.raises(PoleHit):
        u.guard_poles(np.array([0.1, 2.0 + 1e-13]))
    with pytest.raises(PoleHit):
        u.guard_poles(2.0 + 1e-13)
    assert monomial_inner(3).table.rho == np.inf
    monomial_inner(3).guard_poles(np.array([1e300]))


def test_subnormal_zero_has_no_pole():
    # 1/conj(a) overflowed to a NaN pole, with overflow warnings, for a
    # subnormal zero such as the one a CLI generator can carry
    u = InnerFunction([2.2e-309, 0.5j])
    assert u.table.poles.tolist() == [2j] and u.reach.rho == 2.0
    assert np.all(np.isfinite(u.boundary_values(16)))
    assert InnerFunction([2.2e-309]).table.rho == np.inf


def test_clark_rejects_interior_alpha():
    with pytest.raises(NotUnimodular):
        clark_points(monomial_inner(2), 0.5)


class TestExtendedScalar:
    def test_variants(self):
        a = ExtendedScalar.finite(2j)
        inf = ExtendedScalar.infinity()
        assert not a.is_infinity and inf.is_infinity
        assert inf.modulus() == np.inf

    def test_reciprocal_conjugate(self):
        a = ExtendedScalar.finite(0.5)
        assert a.reciprocal_conjugate().value == pytest.approx(2.0)
        assert ExtendedScalar.finite(0.0).reciprocal_conjugate().is_infinity
        assert ExtendedScalar.infinity().reciprocal_conjugate().value == 0.0

    def test_isclose(self):
        assert ExtendedScalar.finite(1.0).isclose(ExtendedScalar.finite(1.0 + 1e-10))
        assert ExtendedScalar.infinity().isclose(ExtendedScalar.infinity())
        assert not ExtendedScalar.finite(1.0).isclose(ExtendedScalar.infinity())
