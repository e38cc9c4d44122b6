import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from truncops.errors import PoleHit, PoleOnCircle
from truncops.quadrature import Reach
from truncops.ratfun import RationalSymbol

coeff = st.complex_numbers(min_magnitude=0, max_magnitude=3,
                           allow_nan=False, allow_infinity=False)


def test_canonical_zero():
    z = RationalSymbol.zero()
    assert not z.num.any()
    assert list(z.num) == [0]
    assert list(z.den) == [1]


def test_monomials():
    assert RationalSymbol.monomial(3)(0.5) == pytest.approx(0.125)
    assert RationalSymbol.monomial(-2)(0.5) == pytest.approx(4.0)
    assert RationalSymbol.monomial(0, 2.5)(1j) == pytest.approx(2.5)


def test_laurent_roundtrip():
    f = RationalSymbol.from_laurent({-2: 1 + 1j, 0: -0.5, 3: 2.0})
    z = np.exp(0.3j)
    direct = (1 + 1j) * z**-2 - 0.5 + 2.0 * z**3
    assert f(z) == pytest.approx(direct)


def test_denominator_monic():
    f = RationalSymbol([2.0, 4.0], [0.0, 2.0])
    assert f.den[-1] == 1.0
    assert f(2.0) == pytest.approx((2 + 4 * 2) / (2 * 2))


def test_pole_on_circle_rejected():
    with pytest.raises(PoleOnCircle):
        RationalSymbol([1.0], [-1.0, 1.0])   # pole at z=1
    with pytest.raises(PoleOnCircle):
        RationalSymbol([1.0], [0.0])


def test_scalar_eval_guards_pole():
    f = RationalSymbol([1.0], [-0.5, 1.0])  # pole at 0.5 (inside disk is allowed)
    with pytest.raises(PoleHit):
        f(0.5)


@settings(max_examples=40, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=4), st.lists(coeff, min_size=1, max_size=4))
def test_arithmetic_matches_pointwise(a, b):
    f = RationalSymbol.polynomial(a)
    g = RationalSymbol.polynomial(b)
    for z in (0.37 + 0.2j, np.exp(1.1j), -0.8):
        assert (f + g)(z) == pytest.approx(f(z) + g(z), abs=1e-9)
        assert (f * g)(z) == pytest.approx(f(z) * g(z), abs=1e-9)
        assert (f - g)(z) == pytest.approx(f(z) - g(z), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=5))
def test_hat_is_coefficient_conjugation(a):
    f = RationalSymbol.polynomial(a)
    z = np.exp(0.77j)
    assert f.hat()(z) == pytest.approx(np.conj(f(np.conj(z))), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=5))
def test_hat_multiplicative(a):
    f = RationalSymbol.polynomial(a)
    g = RationalSymbol.from_laurent({-1: 2.0, 1: -1j})
    lhs = (f * g).hat()
    rhs = f.hat() * g.hat()
    z = np.exp(0.3j)
    assert lhs(z) == pytest.approx(rhs(z), abs=1e-9)


def test_conj_circle():
    f = RationalSymbol.from_laurent({-2: 1j, 1: 2.0})
    z = np.exp(0.9j)
    assert f.conj_circle()(z) == pytest.approx(np.conj(f(z)))
    # conj on the circle is an involution
    g = f.conj_circle().conj_circle()
    assert g(z) == pytest.approx(f(z))


def test_flip_on_monomials():
    assert RationalSymbol.one().flip()(2.0) == pytest.approx(0.5)          # 1 -> 1/z
    f3 = RationalSymbol.monomial(3).flip()                                 # z^3 -> z^-4
    assert f3(2.0) == pytest.approx(2.0**-4)
    fm2 = RationalSymbol.monomial(-2).flip()                               # z^-2 -> z
    assert fm2(2.0) == pytest.approx(2.0)


def test_flip_involution_pointwise():
    f = RationalSymbol.from_laurent({-1: 1 + 2j, 0: 3, 2: -1j})
    z = np.exp(1.7j)
    assert f.flip().flip()(z) == pytest.approx(f(z))
    # J f(z) = conj(z) f(conj z) on the circle
    assert f.flip()(z) == pytest.approx(np.conj(z) * f(np.conj(z)))


def test_json_roundtrip_and_laurent_shorthand():
    f = RationalSymbol([1.0, 2j], [1.0, 0.0, 0.25])
    g = RationalSymbol.from_json(f.to_json())
    assert np.allclose(f.num, g.num) and np.allclose(f.den, g.den)
    h = RationalSymbol.from_json({"laurent": {"-2": [1.0, 0.0], "0": [0.0, 1.0]}})
    z = np.exp(0.4j)
    assert h(z) == pytest.approx(z**-2 + 1j)


def test_division_recertifies_poles():
    f = RationalSymbol.one()
    g = RationalSymbol([-1.0, 1.0])   # z - 1 vanishes on the circle
    with pytest.raises(PoleOnCircle):
        f / g
    with pytest.raises(PoleOnCircle):   # a divisor from arithmetic, not yet expanded
        f / (g * RationalSymbol.one())


# -- deferred coefficient expansion -------------------------------------------

def _eager(num, den):
    return RationalSymbol(num, den)


def _eager_flip(f):
    """The flip as an eager coefficient operation."""
    dp, dq = f.num.size - 1, f.den.size - 1
    num, den = f.num[::-1].copy(), f.den[::-1].copy()
    shift = dq - dp - 1
    if shift >= 0:
        num = npoly.polymul(num, RationalSymbol.monomial(shift).num)
    else:
        den = npoly.polymul(den, RationalSymbol.monomial(-shift).num)
    return _eager(num, den)


def _eager_conj_circle(f):
    """Conjugation on the circle as an eager coefficient operation."""
    dp, dq = f.num.size - 1, f.den.size - 1
    num, den = np.conj(f.num)[::-1].copy(), np.conj(f.den)[::-1].copy()
    if dq >= dp:
        num = npoly.polymul(num, RationalSymbol.monomial(dq - dp).num)
    else:
        den = npoly.polymul(den, RationalSymbol.monomial(dp - dq).num)
    return _eager(num, den)


@pytest.fixture
def pair():
    f = RationalSymbol([1 + 2j, -0.5, 0.25j], [0.3, -0.2j, 1.0])
    g = RationalSymbol.from_laurent({-2: 1j, 0: 0.5, 1: 2.0 - 1j})
    return f, g


def test_forced_coefficients_match_eager_polymul(pair):
    from truncops import InnerFunction
    from truncops.modelspace import ModelSpaceBasis

    f, g = pair
    mul = npoly.polymul
    basis = ModelSpaceBasis(InnerFunction([0.3 + 0.4j, -0.5, 0.2 - 0.6j, 0.7j]))
    coords = np.array([1, 2j, 0, -1], dtype=complex)
    combined = np.zeros(1, dtype=complex)
    for c, lift in zip(coords, basis._expansions[1]):
        if c != 0:
            combined = npoly.polyadd(combined, c * lift)
    cases = {
        "+": (f + g, _eager(npoly.polyadd(mul(f.num, g.den), mul(g.num, f.den)),
                            mul(f.den, g.den))),
        "-": (f - g, _eager(npoly.polyadd(mul(f.num, g.den), mul(-g.num, f.den)),
                            mul(f.den, g.den))),
        "*": (f * g, _eager(mul(f.num, g.num), mul(f.den, g.den))),
        "hat": (f.hat(), _eager(np.conj(f.num), np.conj(f.den))),
        "flip": (g.flip(), _eager_flip(g)),
        "conj_circle": (f.conj_circle(), _eager_conj_circle(f)),
        "combine": (basis.combine(coords), _eager(combined, basis.generator.den_coeffs)),
    }
    for op, (lazy, eager) in cases.items():
        assert np.array_equal(lazy.num, eager.num), op
        assert np.array_equal(lazy.den, eager.den), op


def test_arithmetic_defers_polymul(pair, monkeypatch):
    f, g = pair
    calls = []
    real = npoly.polymul
    monkeypatch.setattr(npoly, "polymul", lambda a, b: calls.append(1) or real(a, b))
    h = (f * g + f.hat()).flip() - g.conj_circle()
    vals = h.values_at(64)
    assert not calls                  # values come from the operands' values
    assert np.array_equal(vals, h.values_at(64))
    h.num
    assert calls                      # the first coefficient read expands
    n = len(calls)
    h.den
    assert len(calls) == n            # once


@pytest.mark.parametrize("left", [True, False])
def test_product_with_zero_is_canonical_zero(pair, left):
    f, g = pair
    lazy = f * g
    z = RationalSymbol.zero() * lazy if left else lazy * RationalSymbol.zero()
    assert list(z.num) == [0] and list(z.den) == [1]
    # exact zeros down to the sign bit, as direct evaluation of [0] / [1] gives
    assert z.values_at(32).tobytes() == np.zeros(32, dtype=complex).tobytes()


def test_shared_symbol_and_basis_are_thread_safe(pair):
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier

    from truncops import InnerFunction
    from truncops.modelspace import ModelSpaceBasis

    f, g = pair
    shared = (f * g + f.hat()).flip() - g.conj_circle()
    basis = ModelSpaceBasis(InnerFunction([0.3 + 0.4j, -0.5, 0.2 - 0.6j, 0.7j]))
    start = Barrier(4)

    def force(_):
        start.wait()
        return (shared.num, shared.den, shared.values_at(512), basis.values(2048),
                basis.functions[2].values_at(4096), basis.combine([1, 2j, 0, -1]).num)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(force, range(4)))
    for got in results[1:]:
        for a, b in zip(results[0], got):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [1, 2, 7, 32])
def test_monomial_denominator_roots_need_no_eigenvalue_solve(k, monkeypatch):
    from truncops import ratfun
    num = np.array([0.5, -1.0j, 2.0])
    den = np.zeros(k + 1, dtype=complex)
    den[k] = 3.0
    want = ratfun._reach_of(*ratfun._canonical(num, den), npoly.polyroots(den / 3.0))
    calls = []
    monkeypatch.setattr(ratfun.npoly, "polyroots", lambda c: calls.append(c))
    sym = RationalSymbol(num, den)
    assert calls == []
    assert sym.reach == want
    assert ratfun._certify_den(sym.den).tobytes() == np.zeros(k, dtype=complex).tobytes()


def test_laurent_reach_matches_the_general_path():
    from truncops.harness import random_laurent
    rng = np.random.default_rng(11)
    for degree in range(6):
        sym = RationalSymbol.from_json(random_laurent(rng, degree).to_json())
        num, den = sym.num, sym.den
        assert not den[:-1].any()      # z^N: the fast path
        general = Reach.of_poles(npoly.polyroots(den), max(int(np.argmax(den != 0)),
                                                           max(0, num.size - den.size)))
        assert sym.reach == general
