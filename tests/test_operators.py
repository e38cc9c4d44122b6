import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from truncops import (
    ExtendedScalar,
    OperatorMatrix,
    RationalSymbol,
    clark_perturbation,
    conj_kernel,
    defects,
    functional_calculus,
    kernel,
    project,
    rank_one,
    sedlock_op,
    spectral_multiplier,
    tho_matrix,
    tm_basis,
    tto_matrix,
)
from truncops import classify, operators, quadrature
from truncops.blaschke import InnerFunction, monomial_inner
from truncops.operators import clark_points
from truncops.classify import is_tho, is_tto
from truncops.errors import NoConvergence, NotRealSymmetric, SingularDenominator, SpaceMismatch
from truncops.harness import clustered_inner, random_inner, random_laurent
from truncops.modelspace import (boundary_kernel_symbol, hankel_space,
                                 hankel_symbol, reorder)
from truncops.quadrature import Block, pairing_matrix


class TestShift:
    def test_monomial(self, u2):
        assert np.allclose(tm_basis(u2).shift.matrix, [[0, 0], [1, 0]], atol=1e-12)

    def test_adjoint_is_difference_quotient(self, u2):
        # S* z = 1
        got = tm_basis(u2).shift.adjoint().apply(np.array([0.0, 1.0]))
        assert np.allclose(got.coords, [1.0, 0.0], atol=1e-12)

    def test_adjoint_matches_conjugate_transpose(self, u_generic):
        s = tm_basis(u_generic).shift
        assert np.max(np.abs(tm_basis(u_generic).shift.adjoint().matrix - s.matrix.conj().T)) < 1e-12

    def test_difference_quotient_columnwise(self, u_generic):
        # (S* f)(z) = (f(z) - f(0))/z checked against rational arithmetic
        space = tm_basis(u_generic)
        sadj = tm_basis(u_generic).shift.adjoint()
        for k, e in enumerate(space.functions):
            unit = np.zeros(space.dim)
            unit[k] = 1.0
            got = sadj.apply(unit)
            num = np.polynomial.polynomial.polyadd(e.num, -complex(e(0.0)) * e.den)
            dq = RationalSymbol(np.polynomial.polynomial.polydiv(num, [0.0, 1.0])[0],
                                e.den)
            want = project(u_generic, dq)
            assert np.max(np.abs(got.coords - want.coords)) < 1e-10


class TestDefects:
    def test_monomial(self, u2):
        d1, d2 = defects(u2)
        assert np.allclose(d1.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(d2.matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_random_algebraic_identities(self, u_generic):
        d1, d2 = defects(u_generic)
        s = tm_basis(u_generic).shift.matrix
        eye = np.eye(3)
        assert np.max(np.abs(d1.matrix - (eye - s @ s.conj().T))) < 1e-10
        assert np.max(np.abs(d2.matrix - (eye - s.conj().T @ s))) < 1e-10


class TestRankOne:
    def test_unit_matrix(self, u2):
        space = tm_basis(u2)
        e0 = space.element([1.0, 0.0])
        assert np.allclose(rank_one(e0, e0).matrix, [[1, 0], [0, 0]])

    def test_kills_orthogonal(self, u2, rng):
        space = tm_basis(u2)
        f = space.random_element(rng)
        g = space.element([1.0, 0.0])
        h = space.element([0.0, 1.0])     # orthogonal to g
        assert rank_one(f, g).apply(h).norm() < 1e-14

    def test_trace(self, u_generic, rng):
        space = tm_basis(u_generic)
        f, g = space.random_element(rng), space.random_element(rng)
        assert np.trace(rank_one(f, g).matrix) == pytest.approx(f.inner(g))


class TestClarkPerturbation:
    def test_alpha_zero(self, u2):
        space = tm_basis(u2)
        assert np.allclose(clark_perturbation(space, 0.0).matrix, space.shift.matrix)

    def test_monomial_unitary(self, u2):
        sa = clark_perturbation(tm_basis(u2), 1.0)
        assert np.allclose(sa.matrix, [[0, 1], [1, 0]], atol=1e-12)
        assert np.max(np.abs(sa.matrix.conj().T @ sa.matrix - np.eye(2))) < 1e-12

    def test_unimodular_spectrum(self, u_generic):
        sa = clark_perturbation(tm_basis(u_generic), np.exp(0.4j))
        ev = np.linalg.eigvals(sa.matrix)
        assert np.max(np.abs(np.abs(ev) - 1.0)) < 1e-10

    def test_contractive_regime(self, u_generic):
        sa = clark_perturbation(tm_basis(u_generic), 0.3 - 0.2j)
        assert np.linalg.norm(sa.matrix, 2) <= 1.0 + 1e-12
        assert np.max(np.abs(np.linalg.eigvals(sa.matrix))) < 1.0

    def test_singular_denominator(self):
        u = InnerFunction([-0.5], 1.0)          # u(0) = 0.5
        with pytest.raises(SingularDenominator):
            clark_perturbation(tm_basis(u), 2.0)     # 1 - 2*0.5 = 0


class TestToeplitzHankelBuilders:
    def test_toeplitz_entries_monomial(self, u2):
        assert np.allclose(tto_matrix(u2, u2, RationalSymbol.monomial(1)).matrix,
                           [[0, 0], [1, 0]], atol=1e-12)
        assert np.allclose(tto_matrix(u2, u2, RationalSymbol.one()).matrix,
                           np.eye(2), atol=1e-12)
        assert np.allclose(tto_matrix(u2, u2, RationalSymbol.monomial(-1)).matrix,
                           [[0, 1], [0, 0]], atol=1e-12)

    def test_hankel_entries_monomial(self, u2):
        # entry (i, j) equals the (-(i+j+1))-th coefficient of the symbol
        assert np.allclose(tho_matrix(u2, u2, RationalSymbol.monomial(-1)).matrix,
                           [[1, 0], [0, 0]], atol=1e-12)
        assert np.allclose(tho_matrix(u2, u2, RationalSymbol.monomial(-2)).matrix,
                           [[0, 1], [1, 0]], atol=1e-12)
        assert np.allclose(tho_matrix(u2, u2, RationalSymbol.monomial(-3)).matrix,
                           [[0, 0], [0, 1]], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_high_frequencies_do_not_alias(self, n):
        # a fixed grid of 2048 nodes reads z^2048 as 1 and z^2049 as z; the
        # first level from the symbol's degree integrates every term exactly,
        # and the closed forms read no grid
        u = monomial_inner(n)
        cases = [{2048: 1.0}, {2049: 1.0}, {-2049: 1.0},
                 {1500: 0.5 - 1j, -1500: 2.0, 1: 0.25j, -2: -1.5, -3: 0.75}]
        for coeffs in cases:
            sym = RationalSymbol.from_laurent(coeffs)
            toeplitz = [[coeffs.get(i - j, 0.0) for j in range(n)] for i in range(n)]
            hankel = [[coeffs.get(-(i + j + 1), 0.0) for j in range(n)] for i in range(n)]
            for build in (tto_matrix, operators.tto_by_pairing):
                assert np.max(np.abs(build(u, u, sym).matrix - toeplitz)) < 1e-12, coeffs
            for build in (tho_matrix, operators.tho_by_pairing):
                assert np.max(np.abs(build(u, u, sym).matrix - hankel)) < 1e-12, coeffs

    def test_analytic_symbol_gives_zero_hankel(self, u_generic, v_generic):
        sym = RationalSymbol.polynomial([1.0, 2.0, 3j])
        assert np.max(np.abs(tho_matrix(u_generic, v_generic, sym).matrix)) < 1e-12

    def test_hankel_adjoint_law(self, u_generic, v_generic, u2, u3):
        # the adjoint of the Hankel operator is the one with the hatted symbol
        sym = RationalSymbol.from_laurent({-3: 1j, -1: 0.4, 2: -0.7})
        for u, v, phi in ((u2, u2, RationalSymbol.monomial(-1)),
                          (u2, u3, RationalSymbol.monomial(-2)), (u_generic, v_generic, sym)):
            lhs = tho_matrix(u, v, phi).adjoint()
            assert np.max(np.abs(lhs.matrix - tho_matrix(v, u, phi.hat()).matrix)) < 1e-9
        B = tho_matrix(u2, u2, RationalSymbol.monomial(-1))
        assert np.allclose(B.matrix, B.matrix.conj().T)   # real symbol: self-adjoint

    def test_toeplitz_displacement_structure(self, u_generic, v_generic, rng):
        sym = RationalSymbol.from_laurent(
            {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(-3, 4)})
        A = tto_matrix(u_generic, v_generic, sym)
        disp = (A - tm_basis(v_generic).shift @ A @ tm_basis(u_generic).shift.adjoint()).matrix
        # the displacement has rank at most two (kernel directions)
        svals = np.linalg.svd(disp, compute_uv=False)
        assert svals[2:].max(initial=0.0) < 1e-10

    def test_cu_symmetry(self, u_generic):
        sym = RationalSymbol.from_laurent({-2: 1j, 0: 0.3, 1: -0.4})
        A = tto_matrix(u_generic, u_generic, sym)
        c = tm_basis(u_generic).conjugation_C
        assert np.max(np.abs((c @ A @ c).matrix - A.adjoint().matrix)) < 1e-10


class TestBlockBuilds:
    """The block builders pair exactly what per-function symbol lists pair."""

    @pytest.fixture
    def sym(self):
        return RationalSymbol.from_laurent({-3: 0.5 - 1j, -1: 0.4, 0: 2j, 2: -0.7})

    def test_tto_matches_symbol_list(self, u_generic, v_generic, sym):
        dom, cod = tm_basis(u_generic), tm_basis(v_generic)
        want = pairing_matrix(Block.of(*[sym * f for f in dom.functions]),
                              Block.of(*cod.functions))
        assert np.array_equal(_reference_tto(u_generic, v_generic, sym), want)
        assert np.array_equal(operators.tto_by_pairing(u_generic, v_generic, sym).matrix, want)

    def test_tho_matches_symbol_list(self, u_generic, v_generic, sym):
        dom, cod = tm_basis(u_generic), tm_basis(v_generic)
        want = pairing_matrix(Block.of(*[sym * f for f in dom.functions]),
                              Block.of(*[f.flip() for f in cod.functions]))
        assert np.array_equal(_reference_tho(u_generic, v_generic, sym), want)
        assert np.array_equal(operators.tho_by_pairing(u_generic, v_generic, sym).matrix, want)

    def test_sarason_pair_matches_its_symbol(self, u_generic, v_generic, rng):
        # the coordinate block has the bits of the pairing build of the symbol
        x = tm_basis(v_generic).random_element(rng)
        y = tm_basis(u_generic).random_element(rng)
        for parts, sym in (((x, y), x.rep() + y.rep().conj_circle()),
                           ((x, None), x.rep()), ((None, y), y.rep().conj_circle())):
            with quadrature.use(quadrature.Evaluation()):
                want = operators.tto_by_pairing(u_generic, v_generic, sym).matrix
            with quadrature.use(quadrature.Evaluation()):
                got = operators._sarason_tto(tm_basis(u_generic), tm_basis(v_generic),
                                              *parts).matrix
            assert np.array_equal(got, want)

    def test_sarason_parts_from_another_space_raise(self, rng):
        u, v, x = (random_inner(rng, n) for n in (3, 4, 5))
        dom, cod = tm_basis(u), tm_basis(v)
        for parts in ((tm_basis(x).random_element(rng), dom.random_element(rng)),
                      (cod.random_element(rng), tm_basis(x).random_element(rng)),
                      (dom.random_element(rng), None), (None, cod.random_element(rng))):
            with pytest.raises(SpaceMismatch):
                operators._sarason_tto(dom, cod, *parts)

    def test_hankel_element_matches_its_symbol(self, u_generic, v_generic, rng):
        psi = hankel_space(u_generic, v_generic).random_element(rng)
        with quadrature.use(quadrature.Evaluation()):
            want = operators.tho_by_pairing(u_generic, v_generic,
                                            hankel_symbol(psi).conj_circle())
        with quadrature.use(quadrature.Evaluation()):
            got = operators._element_tho(psi)
        assert np.array_equal(got.matrix, want.matrix)
        with pytest.raises(SpaceMismatch):
            operators._element_tho(tm_basis(u_generic * v_generic.hat()).element(psi.coords))

    def test_shift_matches_symbol_list(self, u_generic):
        space = tm_basis(u_generic)
        z = RationalSymbol.monomial(1)
        want = pairing_matrix(Block.of(*[z * f for f in space.functions]),
                              Block.of(*space.functions))
        assert np.max(np.abs(tm_basis(u_generic).shift.matrix - want)) <= 1e-13

    def test_conjugations_match_symbol_lists(self, u_generic):
        space = tm_basis(u_generic)
        usym = u_generic.as_symbol()
        want = pairing_matrix(Block.of(*[usym * f.hat().flip() for f in space.functions]),
                              Block.of(*space.functions))
        assert np.max(np.abs(tm_basis(u_generic).conjugation_C.matrix - want)) <= 1e-13
        want = pairing_matrix(Block.of(*[f.hat() for f in space.functions]),
                              Block.of(*tm_basis(u_generic.hat()).functions))
        assert np.max(np.abs(tm_basis(u_generic).conjugation_U.matrix - want)) <= 1e-13


# -- the pairing builds of the shift, the conjugations and the Toeplitz and
# Hankel operators of a Laurent symbol, as they were before the closed forms,
# kept as quadrature oracles


def _reference_tto(u, v, sym):
    return pairing_matrix(operators._images(sym, tm_basis(u)), tm_basis(v).block)


def _reference_tho(u, v, sym):
    return pairing_matrix(operators._images(sym, tm_basis(u)), tm_basis(v).flipped)


def _reference_shift(u):
    space = tm_basis(u)
    return pairing_matrix(operators._images(RationalSymbol.monomial(1), space), space.block)


def _reference_conjugation_C(u):
    space = tm_basis(u)
    usym = u.as_symbol()

    def images(m):
        # u * J(hat e_k): J hat reflects the grid twice, leaving conj(z) conj(e_k)
        flipped_hat = np.conj(quadrature.nodes(m))[:, None] * np.conj(space.values(m))
        return usym.values_at(m)[:, None] * flipped_hat

    return pairing_matrix(Block(images, usym.reach.times(u.reach.flipped())), space.block)


def _reference_hat_map(u, target):
    """The hat images conj(e_k(conj z)) of the basis of K_u paired against the target's."""
    space = tm_basis(u)

    def images(m):
        return np.conj(space.values(m)[quadrature.reflection(m)])

    return pairing_matrix(Block(images, u.reach), tm_basis(target).block)


def _reference_symmetric_involution(u):
    return _reference_conjugation_C(u) @ np.conj(_reference_hat_map(u, u))


def _exact_build_input(kind, n):
    rng = np.random.default_rng(1000 + n)
    zeros = 0.85 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    if kind == "zeros-at-0":
        zeros[::3] = 0.0
        return InnerFunction(zeros, np.exp(0.7j))
    if kind == "repeated":
        zeros[1::2] = zeros[: n // 2]
        return InnerFunction(zeros, np.exp(-1.3j))
    # real symmetric: conjugate pairs and, at odd degree, one real zero
    a = zeros[: n // 2]
    if kind == "interleaved":
        pairs = [z for x in a for z in (x, np.conj(x))]
    else:
        pairs = [*a, *np.conj(a)]
    return InnerFunction(pairs + [0.6 * rng.uniform(-1, 1)] * (n % 2), -1)


class TestExactBuilders:
    """The closed forms of the shift and the conjugations against their pairing builds."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32])
    @pytest.mark.parametrize("kind", ["zeros-at-0", "repeated", "interleaved", "blocked"])
    def test_match_the_pairing_builds(self, kind, n):
        u = _exact_build_input(kind, n)
        builds = {"shift": ("shift", _reference_shift),
                  "C": ("conjugation_C", _reference_conjugation_C),
                  "U": ("conjugation_U", lambda u: _reference_hat_map(u, u.hat()))}
        if kind in ("interleaved", "blocked"):
            assert u.is_real_symmetric()
            builds["U_on"] = ("conjugation_U_on", lambda u: _reference_hat_map(u, u))
            builds["D"] = ("symmetric_involution", _reference_symmetric_involution)
        with quadrature.use(quadrature.Evaluation()):
            for name, (attr, reference) in builds.items():
                with quadrature.tally() as own:
                    got = getattr(tm_basis(u), attr).matrix
                assert own.pairings == 0, name
                gap = np.max(np.abs(got - reference(u)))
                assert gap <= 1e-13, (name, gap)

    def test_reorder_needs_an_order_of_the_zeros(self, u_generic):
        assert np.array_equal(reorder(u_generic, [0, 1, 2]), np.eye(3))
        for bad in ([0, 1], [0, 1, 1], [1, 2, 3]):
            with pytest.raises(SpaceMismatch):
                reorder(u_generic, bad)

    def test_reach_zeros_near_the_circle(self):
        # four conjugate pairs at radius 0.9999: the pairing builds do not
        # converge within the default cap, the closed forms need no grid
        a = 0.9999 * np.exp(1j * np.array([0.3, 1.1, 2.0, 2.9]))
        u = InnerFunction([*a, *np.conj(a)], 1.0)
        with quadrature.use(quadrature.Evaluation()) as ev:
            with pytest.raises(NoConvergence):
                _reference_conjugation_C(u)
            pairings = ev.stats.pairings
            C, S, D = tm_basis(u).conjugation_C, tm_basis(u).shift, tm_basis(u).symmetric_involution
            assert ev.stats.pairings == pairings
        eye = np.eye(8)
        assert np.max(np.abs(C.matrix.conj().T @ C.matrix - eye)) <= 1e-13
        assert np.max(np.abs((C @ C).matrix - eye)) <= 1e-13
        assert np.max(np.abs((C @ S @ C).matrix - S.matrix.conj().T)) <= 1e-13
        assert np.max(np.abs((D @ D).matrix - eye)) <= 1e-13


def _laurent_pair(kind, n):
    """Generators of degree n and, across, n + 1 (or both n for z^n)."""
    rng = np.random.default_rng(3000 + n)
    if kind == "z^n":
        return monomial_inner(n), monomial_inner(n)
    if kind == "z^n-cross":
        return monomial_inner(n), random_inner(rng, n + 1)
    u, v = random_inner(rng, n), random_inner(rng, n + 1)
    if kind == "zero-at-0":
        u = InnerFunction((0.0,) + u.zeros[1:], u.constant)
        v = InnerFunction(v.zeros[:-1] + (0.0,), v.constant)
    return (u, u) if kind == "same" else (u, v)


LAURENT_SYMBOLS = {
    "two-sided": {-3: 0.5 - 1j, -2: 0.1j, -1: 0.4, 0: 2j, 1: -0.3, 2: -0.7 + 0.2j, 3: 0.25},
    "antianalytic": {-4: 1.0 - 0.5j},
    "analytic": {0: 0.3j, 2: -1.2},
}


class TestLaurentBuilders:
    """The closed forms of the Toeplitz and Hankel builders against their pairing builds."""

    @pytest.mark.parametrize("n", [1, 2, 8, 16, 32])
    @pytest.mark.parametrize("kind", ["same", "cross", "zero-at-0", "z^n", "z^n-cross"])
    def test_match_the_pairing_builds(self, kind, n):
        u, v = _laurent_pair(kind, n)
        with quadrature.use(quadrature.Evaluation()):
            for name, coeffs in LAURENT_SYMBOLS.items():
                sym = RationalSymbol.from_laurent(coeffs)
                for build, reference in ((tto_matrix, _reference_tto),
                                         (tho_matrix, _reference_tho)):
                    with quadrature.tally() as own:
                        got = build(u, v, sym).matrix
                    assert own.pairings == 0, (name, build.__name__)
                    want = reference(u, v, sym)
                    gap = np.max(np.abs(got - want))
                    assert gap <= 1e-13 * max(1.0, np.linalg.norm(want)), \
                        (name, build.__name__, gap)

    def test_derived_laurent_symbol_pairs_nothing(self, u_generic, v_generic):
        # arithmetic on Laurent symbols keeps every pole at 0 and infinity
        z = RationalSymbol.monomial(1)
        sym = (z.flip() * 0.5 - z * z).conj_circle() + RationalSymbol.constant(1j)
        with quadrature.use(quadrature.Evaluation()) as ev:
            got = [tto_matrix(u_generic, v_generic, sym).matrix,
                   tho_matrix(u_generic, v_generic, sym).matrix]
            assert ev.stats.pairings == 0
        want = [_reference_tto(u_generic, v_generic, sym),
                _reference_tho(u_generic, v_generic, sym)]
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 8, 16, 32])
    def test_cross_gram_is_the_reordered_embedding(self, n):
        rng = np.random.default_rng(4000 + n)
        pairs = [(random_inner(rng, n), random_inner(rng, n + 1)),
                 (random_inner(rng, n + 1), random_inner(rng, n))]
        # zeros at radius 0.9999, clustered and interleaved across the pair
        angles = 0.5 + 0.01 * np.arange(n)
        pairs.append((InnerFunction(0.9999 * np.exp(1j * angles), 1.0),
                      InnerFunction(0.9999 * np.exp(1j * (angles + 0.005)), -1.0)))
        for u, v in pairs:
            uv = InnerFunction(u.zeros + v.zeros, 1.0)
            v_first = [*range(u.degree, uv.degree), *range(u.degree)]
            e_v = reorder(uv, v_first)[:, :v.degree]
            want = e_v.conj().T[:, :u.degree]       # E_v^H E_u in K_uv
            with quadrature.use(quadrature.Evaluation()) as ev:
                got = operators.cross_gram(u, v)
                assert operators.cross_gram(u, v) is got
                assert ev.stats.pairings == 0
            assert np.max(np.abs(got.matrix - want)) <= 1e-12
            with pytest.raises(ValueError):
                got.matrix[0, 0] = 0.0

    def test_cross_gram_of_one_space_is_the_identity(self, u_generic):
        other = InnerFunction(u_generic.zeros, -u_generic.constant)
        assert np.array_equal(operators.cross_gram(u_generic, other).matrix, np.eye(3))


def _reference_sedlock(u, alpha, phi, c=0.0):
    """The former build: the Toeplitz operators of phi and of conj(S C phi),
    one pairing each, summed with weight alpha."""
    alpha = ExtendedScalar.of(alpha)
    if alpha.is_infinity:
        out = tto_matrix(u, u, phi.rep().conj_circle())
    else:
        out = tto_matrix(u, u, phi.rep())
        if alpha.value != 0:
            scphi = tm_basis(u).shift.apply(tm_basis(u).conjugation_C.apply(phi))
            out = out + alpha.value * tto_matrix(u, u, scphi.rep().conj_circle())
    return out + complex(c) * OperatorMatrix.identity(phi.space)


class TestSedlockOp:
    @pytest.mark.parametrize("alpha", [0.0, 0.3 * np.exp(1j), np.exp(0.7j), None],
                             ids=["zero", "inside", "unimodular", "infinity"])
    @pytest.mark.parametrize("degree", [1, 2, 8, 16, 32])
    def test_one_pairing_matches_the_two_pairing_build(self, rng, degree, alpha):
        # a cold pair: a fresh evaluation starts every pair cold
        u = random_inner(rng, degree)
        phi = tm_basis(u).random_element(rng)
        with quadrature.use(quadrature.Evaluation()):
            with quadrature.tally() as own:
                got = sedlock_op(u, ExtendedScalar.of(alpha), phi, 0.4 - 0.2j)
            assert own.pairings == 1
        want = _reference_sedlock(u, alpha, phi, 0.4 - 0.2j).matrix
        assert np.max(np.abs(got.matrix - want)) <= 1e-13 * max(1.0, np.linalg.norm(want))

    def test_shift_is_class_zero_member(self, u2):
        phi = tm_basis(u2).element([0.0, 1.0])       # the function z
        assert np.allclose(sedlock_op(u2, 0.0, phi).matrix, tm_basis(u2).shift.matrix,
                           atol=1e-12)

    def test_infinity_gives_adjoint_shift(self, u2):
        phi = tm_basis(u2).element([0.0, 1.0])
        got = sedlock_op(u2, ExtendedScalar.infinity(), phi)
        assert np.allclose(got.matrix, tm_basis(u2).shift.adjoint().matrix, atol=1e-12)

    def test_constant_only(self, u_generic):
        phi = tm_basis(u_generic).element(np.zeros(3))
        got = sedlock_op(u_generic, 0.3 + 0.1j, phi, c=2.5 - 1j)
        assert np.max(np.abs(got.matrix - (2.5 - 1j) * np.eye(3))) < 1e-10

    def test_member_commutes_with_perturbation(self, u_generic, rng):
        a = 0.45 - 0.3j
        A = sedlock_op(u_generic, a, tm_basis(u_generic).random_element(rng), 0.2)
        sa = clark_perturbation(tm_basis(u_generic), a).matrix
        assert np.max(np.abs(A.matrix @ sa - sa @ A.matrix)) < 1e-10


class TestCoordinateBuildDispatch:
    """Builds from coordinates take the closed forms where every zero is 0,
    and the membership rebuilds pair once whatever the generators."""

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_zeros_at_the_origin(self, n, rng):
        u = monomial_inner(n)
        with quadrature.use(quadrature.Evaluation()):
            phi = tm_basis(u).random_element(rng)
            psi = hankel_space(u, u).random_element(rng)
            toeplitz = []
            for alpha in (0.0, 0.3, None):
                with quadrature.tally() as own:
                    toeplitz.append(sedlock_op(u, ExtendedScalar.of(alpha), phi))
                assert own.pairings == 0, alpha
            with quadrature.tally() as own:
                hankel = operators._element_tho(psi)
            assert own.pairings == 0
            for A in toeplitz:
                with quadrature.tally() as own:
                    assert is_tto(A).is_member
                assert own.pairings == 1
            with quadrature.tally() as own:
                assert is_tho(hankel).is_member
            assert own.pairings == 1


def _warm_family(kind, n, rng):
    """A generator of degree n of one family: generic, some zeros at 0, every
    zero repeated, or zeros clustered on one side of the circle."""
    if kind == "clustered":
        return clustered_inner(rng, n)
    u = random_inner(rng, n)
    if kind == "zeros-at-0":
        return InnerFunction([0.0 if k % 3 == 0 else a for k, a in enumerate(u.zeros)],
                             u.constant)
    if kind == "repeated":
        return InnerFunction([0.6 * np.exp(1j * np.angle(u.zeros[0]))] * n, u.constant)
    return u


def _gap(got, want) -> float:
    return float(np.max(np.abs(got.matrix - want.matrix)) / max(1.0, np.linalg.norm(want.matrix)))


class TestWarmPairs:
    """A pair built more times than its basis symbols contracts their operators
    (`operators._warm_tensor`) instead of pairing."""

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    @pytest.mark.parametrize("kind", ["generic", "zeros-at-0", "repeated", "clustered"])
    def test_contraction_matches_the_direct_pairing(self, kind, n):
        rng = np.random.default_rng(5000 + n)
        u, v = _warm_family(kind, n, rng), _warm_family(kind, n, rng)
        cx, cy, cphi = (rng.standard_normal(d) + 1j * rng.standard_normal(d)
                        for d in (v.degree, u.degree, u.degree))
        cpsi = rng.standard_normal(u.degree + v.degree) * (1 + 0.5j)

        def builds():
            """Every build kind on the current evaluation's bases."""
            dom, cod = tm_basis(u), tm_basis(v)
            x, y, phi = cod.element(cx), dom.element(cy), dom.element(cphi)
            psi = hankel_space(u, v).element(cpsi)
            return {
                "x + conj(y)": lambda: operators._sarason_tto(dom, cod, x, y, exact=False),
                "x": lambda: operators._sarason_tto(dom, cod, x, None, exact=False),
                "conj(y)": lambda: operators._sarason_tto(dom, cod, None, y, exact=False),
                "sedlock 0": lambda: sedlock_op(u, 0.0, phi, 0.5),
                "sedlock inf": lambda: sedlock_op(u, ExtendedScalar.infinity(), phi, 0.5),
                "hankel": lambda: operators._element_tho(psi, exact=False),
            }

        direct = {}
        for name in builds():
            with quadrature.use(quadrature.Evaluation()):   # a cold pair each
                direct[name] = builds()[name]()
        with quadrature.use(quadrature.Evaluation()):
            warm = builds()
            # every pair has 2n basis symbols, so 2n + 1 builds of each kind
            # warm them all; `test_switch_point` pins the count itself
            for build in warm.values():
                for _ in range(2 * n + 1):
                    build()
            for name, build in warm.items():
                with quadrature.tally() as own:
                    got = build()
                assert own.pairings == 0, name
                assert _gap(got, direct[name]) <= 1e-13, (name, _gap(got, direct[name]))

    def test_switch_point(self, rng):
        u, v = random_inner(rng, 3), random_inner(rng, 2)
        A = tto_matrix(u, v, random_laurent(rng, 2))
        B = tho_matrix(u, v, random_laurent(rng, 2))
        with quadrature.use(quadrature.Evaluation()):
            A = OperatorMatrix(A.matrix, tm_basis(u), tm_basis(v))
            B = OperatorMatrix(B.matrix, tm_basis(u), tm_basis(v))
            for test in (is_tto, is_tho):
                counts = []
                for _ in range(u.degree + v.degree + 3):
                    with quadrature.tally() as own:
                        assert test(A if test is is_tto else B).is_member
                    counts.append(own.pairings)
                # a rebuild per build while cold, then the operators of the
                # 5 basis symbols by one pairing, then none
                assert counts == [1] * 5 + [1, 0, 0], test.__name__

    def test_a_degree_32_pair_pairs_in_bounded_pieces(self, rng, monkeypatch):
        u, v = random_inner(rng, 32), random_inner(rng, 32)
        sizes = []
        pair = operators.pairing_matrix

        def spy(fs, gs):
            first = quadrature.first_level(fs.reach, gs.reach, quadrature.current().settings)
            sizes.append(fs.values(2 * first).size)
            return pair(fs, gs)

        with quadrature.use(quadrature.Evaluation()):
            dom, cod = tm_basis(u), tm_basis(v)
            x, y = cod.random_element(rng), dom.random_element(rng)
            for _ in range(dom.dim + cod.dim):
                operators._sarason_tto(dom, cod, x, y, exact=False)
            monkeypatch.setattr(operators, "pairing_matrix", spy)
            operators._sarason_tto(dom, cod, x, y, exact=False)
        assert len(sizes) > 1
        assert max(sizes) <= operators.PIECE_VALUES
        assert sum(sizes) == 2 * quadrature.first_level(
            dom.generator.reach.join(cod.generator.reach).times(dom.generator.reach),
            cod.block.reach, quadrature.QuadratureSettings()) * 32 * 64

    def test_other_settings_pair_their_own(self, rng):
        u, v = random_inner(rng, 2), random_inner(rng, 2)
        other = quadrature.QuadratureSettings(tol=1e-11)
        with quadrature.use(quadrature.Evaluation()):
            dom, cod = tm_basis(u), tm_basis(v)
            x, y = cod.random_element(rng), dom.random_element(rng)
            psi = hankel_space(u, v).random_element(rng)
            builds = [lambda: operators._sarason_tto(dom, cod, x, y, exact=False),
                      lambda: operators._element_tho(psi, exact=False)]
            for build in builds:
                for _ in range(5):
                    build()
                with quadrature.tally() as own:
                    warm = build()
                assert own.pairings == 0
                with quadrature.override(other):
                    counts = []
                    for _ in range(6):
                        with quadrature.tally() as own:
                            got = build()
                        counts.append(own.pairings)
                        assert _gap(got, warm) <= 1e-11
                    assert counts == [1, 1, 1, 1, 1, 0]   # cold, then its own tensor
                with quadrature.tally() as own:
                    assert _gap(build(), warm) == 0.0
                assert own.pairings == 0

    def test_a_wrong_split_fails_the_warm_rebuild(self, rng, monkeypatch):
        u, v = random_inner(rng, 3), random_inner(rng, 3)
        A = tto_matrix(u, v, random_laurent(rng, 2))
        B = tho_matrix(u, v, random_laurent(rng, 2))
        for _ in range(7):
            assert is_tto(A).is_member and is_tho(B).is_member
        decompose = classify.cross_decompose

        def skewed(*args, **kwargs):
            dec = decompose(*args, **kwargs)
            dec.left = dec.left + dec.left.space.element(np.full(dec.left.space.dim, 1e-3))
            return dec

        monkeypatch.setattr(classify, "cross_decompose", skewed)
        for test, M in ((is_tto, A), (is_tho, B)):
            with quadrature.tally() as own:
                got = test(M)
            assert own.pairings == 0, test.__name__
            assert not got.is_member and got.rebuild_residual > classify.REBUILD_TOL

    def test_operators_that_do_not_converge_leave_the_pair_cold(self, rng, monkeypatch):
        u, v = random_inner(rng, 2), random_inner(rng, 2)

        make = operators._symbol_operators

        def unstable(*args):
            if args[4] > 1:
                raise NoConvergence("the basis-symbol operators did not stabilize")
            return make(*args)

        monkeypatch.setattr(operators, "_symbol_operators", unstable)
        with quadrature.use(quadrature.Evaluation()):
            dom, cod = tm_basis(u), tm_basis(v)
            x, y = cod.random_element(rng), dom.random_element(rng)
            first = operators._sarason_tto(dom, cod, x, y, exact=False)
            counts = []
            for _ in range(7):
                with quadrature.tally() as own:
                    assert _gap(operators._sarason_tto(dom, cod, x, y, exact=False), first) == 0.0
                counts.append(own.pairings)
        assert counts == [1] * 7

    def test_threads_warm_one_pair_once(self, rng, monkeypatch):
        # more threads than cores, switching often: every thread gets the same
        # verdicts, each pair pairs its operators once, and every other cold
        # build pairs once, which a lost count or a second tensor would break
        u, v = random_inner(rng, 8), random_inner(rng, 6)
        As = [tto_matrix(u, v, random_laurent(rng, 2)) for _ in range(8)]
        Bs = [tho_matrix(u, v, random_laurent(rng, 2)) for _ in range(8)]
        shared = quadrature.Evaluation()
        with quadrature.use(shared):
            # the operands carry these bases, whose blocks the spy below tells apart
            dom, cod = tm_basis(u), tm_basis(v)
            As = [OperatorMatrix(A.matrix, dom, cod) for A in As]
            Bs = [OperatorMatrix(B.matrix, dom, cod) for B in Bs]
        tensors, cold = [], []
        make = operators._symbol_operators

        def counted(*args):
            (tensors if args[4] > 1 else cold).append(args[2] is cod.block)
            return make(*args)

        monkeypatch.setattr(operators, "_symbol_operators", counted)
        start = Barrier(4, timeout=60)

        def worker(_):
            with quadrature.use(shared):
                start.wait()
                return [(m.is_member, m.rebuild_residual <= 1e-12)
                        for m in [*map(is_tto, As), *map(is_tho, Bs)]]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(worker, range(4), timeout=120))
        finally:
            sys.setswitchinterval(switch)
        assert results == [[(True, True)] * 16] * 4
        assert sorted(tensors) == [False, True]
        # a pairing per cold build, the two that made the tensors by one piece each
        assert shared.stats.pairings == len(cold) + 2

    def test_warm_tensor_counts_every_build_under_threads(self, u_generic):
        # more threads than cores, switching often: a lost count, or a second
        # record or tensor of the pair, breaks the bookkeeping
        shared = quadrature.Evaluation()
        made = []
        ops = np.zeros(1)
        start = Barrier(8, timeout=60)

        def worker(_):
            with quadrature.use(shared):
                start.wait()
                return [operators._warm_tensor("tto", u_generic, u_generic, 3000,
                                               lambda: made.append(1) or ops)
                        for _ in range(800)]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = [r for rs in pool.map(worker, range(8), timeout=120) for r in rs]
        finally:
            sys.setswitchinterval(switch)
        assert made == [1]
        # the first 3000 builds find none, and so do those that come while
        # it is being made; every other build finds it
        cold = sum(g is None for g in got)
        assert cold >= 3000
        assert sum(g is ops for g in got) == len(got) - cold
        assert not ops.flags.writeable

    def test_warm_pairs_are_keyed_by_generators_settings_and_evaluation(self, rng, monkeypatch):
        # a pair counts afresh under other settings and under a new
        # evaluation, here on bases built under the default one, and its key
        # holds generators, not bases
        u, v = random_inner(rng, 2), random_inner(rng, 2)
        other = quadrature.QuadratureSettings(tol=1e-11)
        keys, record = [], operators._warm_pair
        monkeypatch.setattr(operators, "_warm_pair", lambda *key: keys.append(key) or record(*key))
        dom, cod = tm_basis(u), tm_basis(v)
        x, y = cod.random_element(rng), dom.random_element(rng)
        psi = hankel_space(u, v).random_element(rng)
        builds = [lambda: operators._sarason_tto(dom, cod, x, y, exact=False),
                  lambda: operators._element_tho(psi, exact=False)]

        def pairings(build):
            counts = []
            for _ in range(6):
                with quadrature.tally() as own:
                    build()
                counts.append(own.pairings)
            return counts

        # 4 basis symbols: 4 cold builds, the tensor by one pairing, then none
        for build in builds:
            with quadrature.use(quadrature.Evaluation()):
                assert pairings(build) == [1, 1, 1, 1, 1, 0]
                with quadrature.override(other):
                    assert pairings(build) == [1, 1, 1, 1, 1, 0]
            with quadrature.use(quadrature.Evaluation()):
                assert pairings(build) == [1, 1, 1, 1, 1, 0]
        assert set(keys) == {(kind, u, v, settings) for kind in ("tto", "tho")
                             for settings in (quadrature.QuadratureSettings(), other)}

    def test_the_warm_bound_is_per_evaluation(self, rng, monkeypatch):
        # MEMO_SIZE bounds the warm pairs of an evaluation, whichever bases
        # they read: warming a third pair drops the oldest
        monkeypatch.setattr(quadrature, "MEMO_SIZE", 2)
        with quadrature.use(quadrature.Evaluation()):
            cod = tm_basis(random_inner(rng, 2))
            doms = [tm_basis(random_inner(rng, 2)) for _ in range(3)]
            x = cod.random_element(rng)
            for dom in doms:
                for _ in range(dom.dim + cod.dim + 1):
                    operators._sarason_tto(dom, cod, x, None, exact=False)
            counts = []
            for dom in reversed(doms):
                with quadrature.tally() as own:
                    operators._sarason_tto(dom, cod, x, None, exact=False)
                counts.append(own.pairings)
        assert counts == [0, 0, 1]


class TestFunctionalCalculus:
    def test_identity_function(self, u_generic):
        got = functional_calculus(u_generic, 0.0, RationalSymbol.monomial(1))
        assert np.max(np.abs(got.matrix - tm_basis(u_generic).shift.matrix)) < 1e-10

    def test_square_matches_matrix_power(self, u3):
        got = functional_calculus(u3, 0.0, RationalSymbol.monomial(2))
        want = np.linalg.matrix_power(tm_basis(u3).shift.matrix, 2)
        assert np.max(np.abs(got.matrix - want)) < 1e-10

    def test_polynomial_matches_power_sum_inside(self, u_generic):
        a = 0.35 + 0.2j
        psi = RationalSymbol.polynomial([0.5, -1j, 0.25])
        got = functional_calculus(u_generic, a, psi)
        sa = clark_perturbation(tm_basis(u_generic), a).matrix
        want = 0.5 * np.eye(3) - 1j * sa + 0.25 * sa @ sa
        assert np.max(np.abs(got.matrix - want)) < 1e-10

    def test_unimodular_constant(self, u_generic):
        got = functional_calculus(u_generic, np.exp(0.7j), RationalSymbol.one())
        assert np.max(np.abs(got.matrix - np.eye(3))) < 1e-10

    def test_outside_commutes_with_adjoint_perturbation(self, u_generic):
        a = 2.2 - 1.1j
        psi = RationalSymbol.polynomial([1.0, 0.5])
        got = functional_calculus(u_generic, a, psi).matrix
        base = clark_perturbation(tm_basis(u_generic), 1.0 / np.conj(a)).matrix.conj().T
        assert np.max(np.abs(got @ base - base @ got)) < 1e-10

    def test_spectral_multiplier_projectors(self, u_sym):
        cdat = clark_points(u_sym, 1.0)
        m = spectral_multiplier(cdat, [1.0] * 3)
        assert np.max(np.abs(m.matrix - np.eye(3))) < 1e-10


def _quadrature_calculus_symbol(u, a, psi):
    """The Toeplitz symbol of psi on the class a, paired by circle quadrature:
    psi u/(u - a) inside the disk and a conj(psi) u_den/(a u_den - u_num)
    outside it."""
    num, den = u.num_coeffs, u.den_coeffs
    if abs(a) < 1.0:
        level = RationalSymbol(npoly.polyadd(num, -a * den), den)
        return psi * u.as_symbol() / level
    level = RationalSymbol(npoly.polyadd(a * den, -num), den)
    return a * psi.conj_circle() / level


CALCULUS_SYMBOLS = {
    "polynomial": RationalSymbol.polynomial([0.5, -1j, 0.25, 0.3 + 0.1j]),
    "pole-at-2": RationalSymbol([1.0], [-2.0, 1.0]),
}


class TestCalculusOracle:
    """The exact calculus against the quadrature pairing of its Toeplitz symbol."""

    @pytest.mark.parametrize("name", sorted(CALCULUS_SYMBOLS))
    @pytest.mark.parametrize("modulus", [0.5, 0.9, 2.0])
    @pytest.mark.parametrize("degree", [3, 16, 32])
    def test_matches_quadrature_symbol(self, degree, modulus, name):
        u = random_inner(np.random.default_rng(degree), degree)
        a = modulus * np.exp(0.6j)
        psi = CALCULUS_SYMBOLS[name]
        want = tto_matrix(u, u, _quadrature_calculus_symbol(u, a, psi)).matrix
        got = functional_calculus(u, a, psi).matrix
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))

    def test_infinity_is_adjoint_polynomial_of_shift(self, u_generic):
        s = tm_basis(u_generic).shift.matrix
        want = (0.6 * np.eye(3) + s - 0.3j * s @ s).conj().T
        got = functional_calculus(u_generic, ExtendedScalar.infinity(),
                                  RationalSymbol.polynomial([0.6, 1.0, -0.3j]))
        assert np.max(np.abs(got.matrix - want)) < 1e-12

    @pytest.mark.parametrize("psi", [RationalSymbol.monomial(-1),
                                     RationalSymbol([1.0], [-0.5j, 1.0]),
                                     RationalSymbol([2.0, 1.0], [0.9, 0.0, 1.0])],
                             ids=["1/z", "1/(z-0.5i)", "(2+z)/(z^2+0.9)"])
    @pytest.mark.parametrize("alpha", [0.3, np.exp(0.7j), 2.0 - 1j, None],
                             ids=["inside", "unimodular", "outside", "infinity"])
    def test_pole_in_closed_disk_raises(self, u_generic, psi, alpha):
        with pytest.raises(SingularDenominator):
            functional_calculus(u_generic, alpha, psi)


class TestInvolution:
    def test_monomial(self, u2):
        d = tm_basis(u2).symmetric_involution
        assert not d.antilinear
        assert np.allclose(d.matrix, [[0, 1], [1, 0]], atol=1e-12)

    def test_matches_hankel_of_conjugated_generator(self, u_sym):
        d = tm_basis(u_sym).symmetric_involution
        h = tho_matrix(u_sym, u_sym, u_sym.conj_symbol())
        assert np.max(np.abs(d.matrix - h.matrix)) < 1e-9

    def test_involution_and_self_adjoint(self, u_sym):
        d = tm_basis(u_sym).symmetric_involution
        assert np.max(np.abs((d @ d).matrix - np.eye(3))) < 1e-10
        assert np.max(np.abs(d.matrix - d.adjoint().matrix)) < 1e-10

    def test_requires_real_symmetry(self, u_generic):
        with pytest.raises(NotRealSymmetric):
            tm_basis(u_generic).symmetric_involution


class TestRankOneOperatorIdentities:
    def test_interior_pair(self, u_generic, v_generic):
        lam = 0.3 - 0.2j
        lhs = rank_one(conj_kernel(v_generic, lam), kernel(u_generic, lam))
        sym = RationalSymbol(
            v_generic.num_coeffs,
            np.polynomial.polynomial.polymul(v_generic.den_coeffs,
                                             np.array([-lam, 1.0])))
        assert np.max(np.abs(lhs.matrix - tto_matrix(u_generic, v_generic, sym).matrix)) < 1e-9

        lhs2 = rank_one(kernel(v_generic, lam), conj_kernel(u_generic, lam))
        sym2 = u_generic.conj_symbol() * RationalSymbol(
            [0.0, 1.0], [1.0, -np.conj(lam)])
        assert np.max(np.abs(lhs2.matrix - tto_matrix(u_generic, v_generic, sym2).matrix)) < 1e-9

    def test_boundary_pair(self, u_generic, v_generic):
        eta = np.exp(1.2j)
        lhs = rank_one(kernel(v_generic, eta), kernel(u_generic, eta))
        sym = (boundary_kernel_symbol(v_generic, eta)
               + boundary_kernel_symbol(u_generic, eta).conj_circle() - 1.0)
        assert np.max(np.abs(lhs.matrix - tto_matrix(u_generic, v_generic, sym).matrix)) < 1e-8

    def test_hankel_memberships(self, u_generic, v_generic):
        lam = 0.25 + 0.3j
        eta = np.exp(0.4j)
        pairs = [
            rank_one(conj_kernel(v_generic, np.conj(lam)), conj_kernel(u_generic, lam)),
            rank_one(kernel(v_generic, np.conj(lam)), kernel(u_generic, lam)),
            rank_one(conj_kernel(v_generic, np.conj(eta)), conj_kernel(u_generic, eta)),
            rank_one(kernel(v_generic, np.conj(eta)), kernel(u_generic, eta)),
        ]
        for op in pairs:
            assert is_tho(op, recover=False).is_member
