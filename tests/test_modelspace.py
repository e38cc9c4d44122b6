from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from threading import Barrier

import numpy as np
import pytest

from truncops import (
    OperatorMatrix,
    RationalSymbol,
    clark_points,
    conj_kernel,
    conjugation_C,
    conjugation_U,
    conjugation_U_on,
    inner_product,
    kernel,
    project,
    shift,
    symmetric_involution,
    tm_basis,
    tto_matrix,
)
from truncops.blaschke import InnerFunction
from truncops.errors import NoConvergence, PoleHit, SpaceMismatch, SymbolNotInClass
from truncops.modelspace import (
    GRAM_TOL,
    ModelSpaceBasis,
    _conj_kernel_coords,
    _deflate,
    boundary_kernel_symbol,
    conj_kernel_symbol,
    gram_residual,
    hankel_space,
    hankel_symbol,
)
from truncops import harness, operators, quadrature
from truncops.quadrature import Block, QuadratureSettings, Reach


class TestBasis:
    def test_monomial_basis(self, u3):
        b = tm_basis(u3)
        for k, f in enumerate(b.functions):
            assert f(0.7j) == pytest.approx((0.7j) ** k)

    def test_degree_one(self):
        u = InnerFunction([0.5], 1)
        b = tm_basis(u)
        z = 0.3 + 0.1j
        assert b.functions[0](z) == pytest.approx(np.sqrt(0.75) / (1 - 0.5 * z))
        assert inner_product(b.functions[0], b.functions[0]) == pytest.approx(1.0)

    def test_gram_certificate_random_degree5(self, rng):
        zeros = 0.8 * np.sqrt(rng.uniform(size=5)) * np.exp(2j * np.pi * rng.uniform(size=5))
        u = InnerFunction(zeros, np.exp(1j * rng.uniform()))
        assert gram_residual(tm_basis(u)) < GRAM_TOL

    @pytest.mark.parametrize("n", [2, 32])
    def test_basis_build_makes_no_pairing(self, rng, n):
        zeros = 0.85 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        u = InnerFunction(zeros, np.exp(1j * rng.uniform()))
        with quadrature.use(quadrature.Evaluation()), quadrature.tally() as built:
            tm_basis(u)
        assert built.pairings == 0

    @pytest.mark.parametrize("n", range(1, 33))
    @pytest.mark.parametrize("zero_at_origin", [False, True])
    def test_origin_kernel_closed_form(self, n, zero_at_origin):
        rng = np.random.default_rng(n)
        zeros = 0.85 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        if zero_at_origin:
            zeros[n // 2] = 0.0
        space = ModelSpaceBasis(InnerFunction(zeros, np.exp(1j * rng.uniform())))
        assert np.max(np.abs(space.k0 - np.conj(space.at(0j)))) <= 1e-15

    def test_conjugated_values_are_cached_bitwise(self, u_generic):
        space = tm_basis(u_generic)
        for m in (32, 64):
            flipped = np.conj(quadrature.nodes(m))[:, None] * space.values(m)[quadrature.reflection(m)]
            assert np.array_equal(space.block.conj(m), np.conj(space.values(m)))
            assert np.array_equal(space.flipped.conj(m), np.conj(flipped))
            assert space.block.conj(m) is space.block.conj(m)
            assert space.flipped.conj(m) is space.flipped.conj(m)
            with pytest.raises(ValueError):
                space.flipped.conj(m)[0, 0] = 0

    def test_combine_matches_eval(self, u_generic, rng):
        f = tm_basis(u_generic).random_element(rng)
        sym = f.rep()
        for z in (0.2 + 0.1j, -0.55, np.exp(2.2j)):
            assert sym(z) == pytest.approx(f(z))

    def test_coordinate_norm_is_function_norm(self, u_generic, rng):
        f = tm_basis(u_generic).random_element(rng)
        quad_norm = np.sqrt(inner_product(f.rep(), f.rep()).real)
        assert abs(f.norm() - quad_norm) < 1e-9


class TestInnerProduct:
    def test_orthonormal_monomials(self):
        z1 = RationalSymbol.monomial(1)
        assert inner_product(z1, z1) == pytest.approx(1.0)
        assert inner_product(RationalSymbol.monomial(2),
                             RationalSymbol.monomial(3)) == pytest.approx(0.0)

    def test_geometric_mean_value(self):
        f = RationalSymbol([1.0], [1.0, -0.5])
        assert inner_product(f, RationalSymbol.one()) == pytest.approx(1.0)

    def test_no_convergence_surfaces(self):
        # a pole just off the certificate margin converges too slowly for a
        # small node cap: the engine must hard-error, not silently return
        r = 1.0 + 5e-3
        f = RationalSymbol([1.0], [1.0, -1.0 / r])
        tight = QuadratureSettings(tol=1e-12, start=1024, cap=4096)
        with pytest.raises(NoConvergence), quadrature.override(tight):
            inner_product(f, f)


class TestKernels:
    def test_kernel_at_zero(self, u2):
        assert np.allclose(kernel(u2, 0.0).coords, [1.0, 0.0])

    def test_kernel_half(self, u2):
        assert np.allclose(kernel(u2, 0.5).coords, [1.0, 0.5])

    def test_reproducing(self, u_generic, rng):
        f = tm_basis(u_generic).random_element(rng)
        lam = 0.4 - 0.2j
        assert abs(f.inner(kernel(u_generic, lam)) - f(lam)) < 1e-9

    def test_conj_kernel_monomial(self, u2):
        assert np.allclose(conj_kernel(u2, 0.0).coords, [0.0, 1.0], atol=1e-12)
        assert np.allclose(conj_kernel(u2, 0.5).coords, [0.5, 1.0], atol=1e-12)

    def test_conj_kernel_is_conjugation_image(self, u_generic):
        lam = 0.3 + 0.25j
        want = conjugation_C(u_generic).apply(kernel(u_generic, lam))
        got = conj_kernel(u_generic, lam)
        assert np.max(np.abs(want.coords - got.coords)) < 1e-10

    def test_conj_kernel_value_at_center_is_derivative(self, u_generic):
        lam = 0.2 - 0.3j
        sym = conj_kernel_symbol(u_generic, lam)
        assert sym(lam) == pytest.approx(u_generic.derivative(lam))

    def test_boundary_kernel_monomial(self, u2):
        ke = kernel(u2, 1.0)
        assert np.allclose(ke.coords, [1.0, 1.0])
        assert ke.norm() ** 2 == pytest.approx(2.0)   # equals |u'(1)|

    def test_boundary_relation(self, u_generic):
        eta = np.exp(0.9j)
        ke = kernel(u_generic, eta)
        kte = project(u_generic, conj_kernel_symbol(u_generic, eta))
        rel = np.conj(u_generic(eta)) * eta * kte.coords
        assert np.max(np.abs(ke.coords - rel)) < 1e-9

    def test_boundary_symbol_matches_coords(self, u_generic):
        eta = np.exp(2.3j)
        el = project(u_generic, boundary_kernel_symbol(u_generic, eta))
        assert np.max(np.abs(el.coords - kernel(u_generic, eta).coords)) < 1e-10


def _random_inner(rng, n, radius=0.8):
    zeros = radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return InnerFunction(zeros, np.exp(1j * rng.uniform()))


class TestFactoredEvaluation:
    def test_values_are_at_on_the_grid_bitwise(self, rng):
        space = tm_basis(_random_inner(rng, 12))
        for m in (64, 2048):
            z = quadrature.nodes(m)
            cols, running = [], np.ones(m, dtype=complex)
            for a in space.generator.zeros:     # the column-by-column running product
                factor_den = 1.0 - np.conj(a) * z
                cols.append(np.sqrt(1.0 - abs(a) ** 2) * running / factor_den)
                running = running * (z - a) / factor_den
            assert space.values(m).tobytes() == space.at(z).tobytes()
            assert space.values(m).tobytes() == np.column_stack(cols).tobytes()

    def test_functions_are_built_on_first_read(self, rng, monkeypatch):
        init = RationalSymbol.__init__
        made = []

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RationalSymbol, "__init__", counted)
        u = _random_inner(rng, 6)
        with quadrature.use(quadrature.Evaluation()):
            space = tm_basis(u)
            space.values(64)
            assert made == []
            funcs = space.functions
            assert len(made) == 6 and funcs is space.functions
            for k, f in enumerate(funcs):
                assert f.values_at(64).tobytes() == space.values(64)[:, k].tobytes()

    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_grid_grows_by_its_odd_nodes_bitwise(self, rng, n, monkeypatch):
        u = _random_inner(rng, n, radius=0.85)
        for m in (16, 64, 512):
            cold = ModelSpaceBasis(u).values(2 * m)
            space = ModelSpaceBasis(u)
            space.values(m)
            evaluated = []

            def evaluate(z, _evaluate=space._evaluate):
                evaluated.append(z)
                return _evaluate(z)

            monkeypatch.setattr(space, "_evaluate", evaluate)
            grown = space.values(2 * m)
            assert grown.tobytes() == cold.tobytes()
            assert len(evaluated) == 1
            assert evaluated[0].tobytes() == quadrature.nodes(2 * m)[1::2].tobytes()
            assert not grown.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_at_matches_expanded_coefficients(self, rng, n):
        space = tm_basis(_random_inner(rng, n))
        pts = 0.9 * np.sqrt(rng.uniform(size=6)) * np.exp(2j * np.pi * rng.uniform(size=6))
        coords = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        combo = space.combine(coords)
        got = space.at(pts)
        assert got.shape == (6, n) and space.at(pts[0]).shape == (n,)
        assert all(f._coeffs is None for f in space.functions + [combo])   # expanded on demand
        want = np.array([[f(z) for f in space.functions] for z in pts])
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got @ coords - combo(pts))) < 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [16, 32])
    def test_reproducing_property_high_degree(self, rng, n):
        u = _random_inner(rng, n)
        f = tm_basis(u).random_element(rng)
        f = f * (1.0 / f.norm())
        points = [0.0, 0.9 * np.exp(0.4j), -0.5 + 0.3j, np.exp(1j), np.exp(-2.5j)]
        for lam in points:
            ulam = complex(u(lam))
            def kvals(m, lam=lam, ulam=ulam):   # closed-form k_lam, factored through u
                z = quadrature.nodes(m)
                return ((1.0 - np.conj(ulam) * u.boundary_values(m))
                        / (1.0 - np.conj(lam) * z))[:, None]
            pairing = quadrature.pairing_matrix(
                Block(lambda m: (f.space.values(m) @ f.coords)[:, None], Reach()),
                Block(kvals, Reach()))[0, 0]
            assert abs(f.inner(kernel(u, lam)) - f(lam)) < 1e-12 * max(1.0, abs(f(lam)))
            assert abs(pairing - f(lam)) < 1e-12 * max(1.0, abs(f(lam)))

    def test_pole_hit_at_reciprocal_conjugate_zero(self, u_generic):
        pole = 1.0 / np.conj(u_generic.zeros[0])
        with pytest.raises(PoleHit):
            kernel(u_generic, pole)
        with pytest.raises(PoleHit):
            u_generic(np.array([0.1, pole, -0.2j]))

    def test_kernels_make_no_pairing(self, u_generic):
        tm_basis(u_generic)
        before = quadrature.STATS.pairings
        kernel(u_generic, 0.3 - 0.1j)
        kernel(u_generic, np.exp(0.7j))
        conj_kernel(u_generic, 0.3 - 0.1j)
        assert quadrature.STATS.pairings == before

    @pytest.mark.parametrize("n", [3, 16, 32])
    def test_conj_kernel_matches_projected_symbol(self, rng, n):
        u = _random_inner(rng, n)
        for lam in [0.0, 0.6 * np.exp(2.1j), np.exp(-0.8j)]:
            want = project(u, conj_kernel_symbol(u, lam)).coords
            assert np.max(np.abs(conj_kernel(u, lam).coords - want)) <= 1e-13

    def test_hat_map_makes_no_pairing(self, u_sym, u_generic):
        before = quadrature.STATS.pairings
        conjugation_U_on(u_sym)
        assert quadrature.STATS.pairings == before
        with pytest.raises(SymbolNotInClass):
            conjugation_U_on(u_generic)

    def test_conj_kernel_coefficients_on_demand(self, u_generic):
        lam = 0.2 - 0.3j
        sym = conj_kernel_symbol(u_generic, lam)
        want = RationalSymbol(_deflate(u_generic.num_coeffs - complex(u_generic(lam))
                                       * u_generic.den_coeffs, lam),
                              u_generic.den_coeffs)
        assert sym._coeffs is None
        assert np.array_equal(sym.num, want.num) and np.array_equal(sym.den, want.den)


def _unlinked(u):
    """An equal generator that records neither a source nor factors."""
    return InnerFunction(u.zeros, u.constant)


# factor pairs (a, b): a zero at 0, real zeros (whose grids have exact zero
# imaginary parts at z = 1 and -1), repeated zeros, zeros clustered at radius
# 0.9999, and factors of degree 1 and 32
GRID_FACTORS = {
    "zero-at-0": lambda rng: (InnerFunction((0.0,)), InnerFunction((0.0, 0.4 - 0.3j))),
    "real": lambda rng: (InnerFunction((0.5, -0.3, 0.0), -1), InnerFunction((0.7,))),
    "repeated": lambda rng: (InnerFunction((0.3 + 0.2j,) * 5, 1j), InnerFunction((-0.5j,) * 3)),
    "clustered": lambda rng: (
        InnerFunction(tuple(0.9999 * np.exp(2j * np.pi * (0.1 + 1e-4 * np.arange(4))))),
        InnerFunction(tuple(0.9999 * np.exp(2j * np.pi * (0.6 + 1e-4 * np.arange(3)))))),
    "degree-1-32": lambda rng: (_random_inner(rng, 1), _random_inner(rng, 32, radius=0.9)),
    "degree-32-1": lambda rng: (_random_inner(rng, 32, radius=0.9), _random_inner(rng, 1)),
}


def _primed(*pairs):
    """Read tm_basis(g).values(m) for each (g, m), in order."""
    for g, m in pairs:
        tm_basis(g).values(m)


def _signed(arr):
    """Whether some real or imaginary part of arr is a zero with its sign set."""
    return bool(np.any((np.signbit(arr.real) & (arr.real == 0))
                       | (np.signbit(arr.imag) & (arr.imag == 0))))


# each way makes a target generator from the factors a and b, reads some grids
# first, and states the evaluations (start, nodes) that reading the target's
# m-grid then runs: start is the first zero evaluated, so a continued factor
# would show as start > 0
def _cold(a, b, m):
    return a, [(0, m)]


def _sliced(a, b, m):
    _primed((a, 2 * m))
    return a, []


def _sliced_from_finer(a, b, m):
    _primed((a, 8 * m))
    return a, []


def _grown(a, b, m):
    _primed((a, m // 2))
    return a, [(0, m // 2)]


def _hat_cold(a, b, m):
    return a.hat(), [(0, m)]


def _hat_of_held(a, b, m):
    _primed((a, m))
    return a.hat(), []


def _hat_of_held_double(a, b, m):
    _primed((a, 2 * m))
    return a.hat(), []


def _hat_grown(a, b, m):
    h = a.hat()
    _primed((h, m // 2))
    return h, [(0, m // 2)]


# a product records no factors, so a factor's held grids leave its grid cold
def _product_cold(a, b, m):
    return a * b, [(0, m)]


def _product_of_held(a, b, m):
    _primed((a, m))
    return a * b, [(0, m)]


def _product_of_held_double(a, b, m):
    _primed((a, 2 * m))
    return a * b, [(0, m)]


def _product_of_grown(a, b, m):
    _primed((a, m // 2), (a, m))
    return a * b, [(0, m)]


def _product_grown(a, b, m):
    w = a * b
    _primed((w, m // 2))
    return w, [(0, m // 2)]


def _product_of_hat(a, b, m):
    _primed((a, m))
    return a.hat() * b, [(0, m)]


def _hat_of_product(a, b, m):
    w = a * b
    _primed((w, m))
    return w.hat(), []


GRID_WAYS = [_cold, _sliced, _sliced_from_finer, _grown, _hat_cold, _hat_of_held,
             _hat_of_held_double, _hat_grown, _product_cold, _product_of_held, _product_of_held_double, _product_of_grown,
             _product_grown, _product_of_hat, _hat_of_product]


def _generic_and_its_hat(rng):
    u = _random_inner(rng, 6)
    return u, u.hat()


def _real_and_its_hat(rng):
    # every zero real: the hat equals u, and the memo returns one basis for both
    u = InnerFunction((0.5, -0.3, 0.0), -1)
    return u, u.hat()


def _symmetric_and_its_hat(rng):
    u = _real_symmetric_inner(rng, 2)
    return u, u.hat()


def _generic_and_its_hat_of_hat(rng):
    # u.hat().hat() equals u and has u.hat() as its source, whose source u the
    # memo then maps back to the first basis asked
    u = _random_inner(rng, 6)
    return u, u.hat().hat()


HATS_FIRST = [_generic_and_its_hat, _real_and_its_hat, _symmetric_and_its_hat,
              _generic_and_its_hat_of_hat]


class TestDerivedGrids:
    @pytest.mark.parametrize("case", HATS_FIRST, ids=lambda f: f.__name__.lstrip("_"))
    def test_hat_asked_first_evaluates_its_source_once(self, rng, monkeypatch, case):
        u, target = case(rng)
        m = 64
        runs, factored = [], []
        run = ModelSpaceBasis._continue
        factor_loop = InnerFunction._factored

        def recorded(space, out, running, z, start):
            runs.append((start, np.size(z)))
            return run(space, out, running, z, start)

        def recorded_factored(g, z):
            factored.append((g, np.size(z)))
            return factor_loop(g, z)

        generators = (target, u, u.hat())
        with quadrature.use(quadrature.Evaluation()):
            monkeypatch.setattr(ModelSpaceBasis, "_continue", recorded)
            monkeypatch.setattr(InnerFunction, "_factored", recorded_factored)
            got = {g: tm_basis(g).values(m) for g in generators}
            boundary = [g.boundary_values(m) for g in generators]
            monkeypatch.undo()
        assert runs == [(0, m)]
        for g, values in got.items():
            cold = ModelSpaceBasis(_unlinked(g)).at(quadrature.nodes(m))
            assert values.tobytes() == cold.tobytes()
        # the boundary grids follow the same rule: a hat's grid is its source's,
        # so each source is evaluated once; no memo joins u.hat().hat() to u,
        # so there u is evaluated as well
        sources = list({id(s): s for s in (g._hat_of or g for g in generators)}.values())
        assert [(id(g), size) for g, size in factored] == [(id(s), m) for s in sources]
        for g, values in zip(generators, boundary):
            assert values.tobytes() == _unlinked(g).boundary_values(m).tobytes()

    @pytest.mark.parametrize("way", GRID_WAYS, ids=lambda f: f.__name__.lstrip("_"))
    @pytest.mark.parametrize("factors", GRID_FACTORS)
    @pytest.mark.parametrize("m", [8, 64])
    def test_grid_is_the_bits_of_a_cold_evaluation(self, rng, monkeypatch, factors, way, m):
        a, b = GRID_FACTORS[factors](rng)
        run = ModelSpaceBasis._continue
        # the values and the running product come from one evaluation per
        # level, whichever of the two is read first
        for first in ("values", "running"):
            runs = []

            def recorded(space, out, running, z, start):
                runs.append((start, np.size(z)))
                return run(space, out, running, z, start)

            with quadrature.use(quadrature.Evaluation()):
                target, want_runs = way(a, b, m)
                space = tm_basis(target)
                monkeypatch.setattr(ModelSpaceBasis, "_continue", recorded)
                if first == "running":
                    running, got = space._running(m), space.values(m)
                else:
                    got, running = space.values(m), space._running(m)
                monkeypatch.undo()
            assert runs == want_runs
            cold, cold_running = ModelSpaceBasis(_unlinked(target))._evaluate(
                quadrature.nodes(m))
            assert got.tobytes() == cold.tobytes()
            assert running.tobytes() == cold_running.tobytes()
            for grid in (got, running):
                assert grid.flags.c_contiguous and not grid.flags.writeable
                assert not _signed(grid)

    @pytest.mark.parametrize("factors", GRID_FACTORS)
    @pytest.mark.parametrize("held", [1, 2])
    def test_hat_boundary_values_are_the_bits_of_a_cold_evaluation(self, rng, factors, held):
        u = GRID_FACTORS[factors](rng)[0]
        m = 32
        u.boundary_values(held * m)
        hat = u.hat()
        factored = hat._factored
        calls = []
        object.__setattr__(hat, "_factored", lambda z: calls.append(z) or factored(z))
        got = hat.boundary_values(m)
        assert calls == []
        assert got.tobytes() == _unlinked(hat).boundary_values(m).tobytes()
        assert got.tobytes() == _unlinked(u.hat().hat().hat()).boundary_values(m).tobytes()

    def test_grids_have_unsigned_zeros(self):
        # at z = -1 the running product over the real zeros 0.5 and -0.3 is
        # 1 - 0j when evaluated as it stands; a Hankel symbol reads it
        u = InnerFunction((0.5, -0.3, 0.0, complex(0.2, -0.0)), -1)
        space = tm_basis(u)
        for m in (4, 8):
            z = quadrature.nodes(m)
            assert not _signed(space.values(m)) and not _signed(space._running(m))
            assert not _signed(u.boundary_values(m)) and not _signed(u.hat().boundary_values(m))
            assert np.any(z.imag == 0) and not _signed(z)

    def test_links_leave_equality_hash_and_json_alone(self, rng):
        a, b = _random_inner(rng, 3), _random_inner(rng, 2)
        h, w = a.hat(), a * b
        assert h._hat_of is a
        assert h.hat() == a and h.hat()._hat_of is h
        for linked in (h, w, w.hat()):
            plain = _unlinked(linked)
            assert plain._hat_of is None
            assert linked == plain and hash(linked) == hash(plain)
            assert linked.to_json() == plain.to_json()
            assert InnerFunction.from_json(linked.to_json()) == linked

    # suite-high trials whose Hankel symbols read a running product after its
    # basis grid was grown from a half grid
    @pytest.mark.parametrize("seed, band, check", [
        (303, (16, 18), "hankel-unitary"),
        (304, (23, 25), "hankel-inverse"),
        (305, (30, 32), "product-chain"),
        # a suite-low trial that reads a basis's 128-grid after its 512-grid
        (409, (2, 4), "product-chain"),
    ])
    def test_no_basis_evaluates_a_grid_node_twice(self, monkeypatch, seed, band, check):
        grid = set(quadrature.nodes(quadrature.QUAD_CAP).tolist())
        evaluated = {}
        run = ModelSpaceBasis._continue

        def recorded(space, out, running, z, start):
            seen = evaluated.setdefault(id(space), (space, []))[1]
            seen += [(start, node) for node in np.ravel(z).tolist() if node in grid]
            return run(space, out, running, z, start)

        monkeypatch.setattr(ModelSpaceBasis, "_continue", recorded)
        harness.run_suite(harness.SuiteConfig(seed=seed, trials=1, checks=[check],
                                              degree_range=band))
        monkeypatch.undo()
        assert evaluated
        for space, seen in evaluated.values():
            assert len(seen) == len(set(seen)), space


class TestProjection:
    def test_truncation(self, u2):
        assert project(u2, RationalSymbol.monomial(3)).norm() < 1e-12
        assert project(u2, RationalSymbol.monomial(-1)).norm() < 1e-12
        got = project(u2, RationalSymbol.polynomial([1.0, 1.0, 1.0]))
        assert np.allclose(got.coords, [1.0, 1.0], atol=1e-12)

    def test_idempotent(self, u_generic):
        sym = RationalSymbol.from_laurent({-2: 1j, 0: 0.5, 1: 2.0, 4: -0.7})
        once = project(u_generic, sym)
        twice = project(u_generic, once.rep())
        assert np.max(np.abs(once.coords - twice.coords)) < 1e-10


class TestConjugations:
    def test_natural_conjugation_monomial(self, u2):
        c = conjugation_C(u2)
        x = tm_basis(u2).element([1 + 2j, 3 - 1j])
        assert np.allclose(c.apply(x).coords, [3 + 1j, 1 - 2j])

    def test_involution_and_isometry(self, u_generic, rng):
        c = conjugation_C(u_generic)
        assert np.max(np.abs((c @ c).matrix - np.eye(3))) < 1e-10
        x = tm_basis(u_generic).random_element(rng)
        assert c.apply(x).norm() == pytest.approx(x.norm())

    def test_coefficient_conjugation(self, u2):
        uu = conjugation_U(u2)
        x = tm_basis(u2).element([0.0, 1j])
        assert np.allclose(uu.apply(x).coords, [0.0, -1j])

    def test_hat_kernel_transport(self, u_generic):
        lam = 0.5j * 0.3 + 0.1
        uu = conjugation_U(u_generic)
        got = uu.apply(kernel(u_generic, lam))
        want = kernel(u_generic.hat(), np.conj(lam))
        assert np.max(np.abs(got.coords - want.coords)) < 1e-10

    def test_hat_conj_kernel_transport(self, u_generic):
        lam = 0.5j
        uu = conjugation_U(u_generic)
        got = uu.apply(conj_kernel(u_generic, lam))
        want = conj_kernel(u_generic.hat(), np.conj(lam))
        assert np.max(np.abs(got.coords - want.coords)) < 1e-9

    def test_same_space_conjugation_requires_symmetry(self, u_sym, u_generic):
        m = conjugation_U_on(u_sym)
        assert np.max(np.abs((m @ m).matrix - np.eye(3))) < 1e-10
        with pytest.raises(SymbolNotInClass):
            conjugation_U_on(u_generic)


class TestFlip:
    def test_monomial_images(self):
        assert RationalSymbol.one().flip()(2.0) == pytest.approx(0.5)
        assert RationalSymbol.monomial(3).flip()(2.0) == pytest.approx(2.0**-4)
        assert RationalSymbol.monomial(-2).flip()(2.0) == pytest.approx(2.0)

    def test_pairing_preserved(self):
        f = RationalSymbol.from_laurent({-1: 1j, 2: 0.5})
        g = RationalSymbol.from_laurent({0: 2.0, 1: -1.0})
        assert inner_product(f.flip(), g.flip()) == pytest.approx(
            inner_product(f, g), abs=1e-10)


class TestOperatorMatrix:
    def test_composition_rule_and_flags(self, u2, rng):
        space = tm_basis(u2)
        def anti(mat):
            return OperatorMatrix(mat, space, space, antilinear=True)
        def lin(mat):
            return OperatorMatrix(mat, space, space)
        m1 = anti(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        m2 = anti(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        m3 = lin(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        x = np.array([0.3 - 1j, 0.7 + 0.2j])
        # composition matches sequential application, flags xor
        for a, b in ((m1, m2), (m1, m3), (m3, m1)):
            got = (a @ b).apply(x).coords
            want = a.apply(b.apply(x).coords).coords
            assert np.allclose(got, want)
            assert (a @ b).antilinear == (a.antilinear != b.antilinear)
        # associativity holds exactly
        lhs = ((m1 @ m2) @ m3).matrix
        rhs = (m1 @ (m2 @ m3)).matrix
        assert np.allclose(lhs, rhs)

    def test_antilinear_adjoint_pairing(self, u2, rng):
        space = tm_basis(u2)
        c = OperatorMatrix(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                           space, space, antilinear=True)
        f = space.random_element(rng)
        g = space.random_element(rng)
        lhs = c.apply(f).inner(g)
        rhs = c.adjoint().apply(g).inner(f)
        assert lhs == pytest.approx(rhs)

    def test_space_mismatch_guard(self, u2, u3):
        a = OperatorMatrix(np.eye(2), tm_basis(u2), tm_basis(u2))
        b = OperatorMatrix(np.eye(3), tm_basis(u3), tm_basis(u3))
        with pytest.raises(SpaceMismatch):
            a @ b

    def test_json_roundtrip(self, u2, u3):
        m = OperatorMatrix(np.arange(6).reshape(3, 2) * (1 + 1j), tm_basis(u2), tm_basis(u3))
        m2 = OperatorMatrix.from_json(m.to_json())
        assert np.allclose(m.matrix, m2.matrix)
        assert m2.domain == m.domain and m2.codomain == m.codomain


def test_hat_multiplicative_on_rationals():
    f = RationalSymbol.from_laurent({-1: 2j, 1: 1.0})
    g = RationalSymbol([1.0, 0.5j], [1.0, 0.0, 0.25])
    z = np.exp(0.61j)
    assert (f * g).hat()(z) == pytest.approx((f.hat() * g.hat())(z))


def _reference_hankel_values(psi, m):
    """psi.rep()'s grid values, the K_{a hat(b)} basis grid times the coordinates,
    from a cold basis of an equal generator, so the basis of psi caches nothing."""
    return ModelSpaceBasis(_unlinked(psi.space.generator)).at(quadrature.nodes(m)) @ psi.coords


# generator pairs (a, b) for symbols in K_{a hat(b)}: degree pairs, a zero at 0,
# repeated zeros and zeros clustered at radius 0.9999
HANKEL_PAIRS = {
    **{f"degrees-{p}-{q}": (lambda rng, p=p, q=q: (_random_inner(rng, p, radius=0.9),
                                                   _random_inner(rng, q, radius=0.9)))
       for p, q in ((1, 1), (2, 3), (8, 8), (16, 16), (32, 32))},
    **{k: GRID_FACTORS[k] for k in ("zero-at-0", "repeated", "clustered")},
}


class TestHankelSymbols:
    @pytest.mark.parametrize("pair", HANKEL_PAIRS)
    def test_values_match_the_element_and_no_product_grid_is_made(self, rng, pair):
        a, b = HANKEL_PAIRS[pair](rng)
        with quadrature.use(quadrature.Evaluation()):
            space = hankel_space(a, b)
            psi = space.random_element(rng)
            sym = hankel_symbol(psi, a, b)
            for m in (32, 64, 512):
                want = _reference_hankel_values(psi, m)
                gap = np.max(np.abs(sym.values_at(m) - want))
                assert gap <= 1e-13 * max(1.0, float(np.max(np.abs(want))))
            rep = psi.rep()
            assert sym.reach == rep.reach
            assert np.array_equal(sym.num, rep.num) and np.array_equal(sym.den, rep.den)
            assert space._value_cache == {}

    def test_hankel_space_is_memoized_per_pair(self, u_generic, v_generic, monkeypatch):
        u_copy = InnerFunction(u_generic.zeros, u_generic.constant)
        v_copy = InnerFunction(v_generic.zeros, v_generic.constant)
        with quadrature.use(quadrature.Evaluation()):
            space = hankel_space(u_generic, v_generic)
            assert space.generator == u_generic * v_generic.hat()
            assert space is tm_basis(u_generic * v_generic.hat())
            built = []
            post_init = InnerFunction.__post_init__
            monkeypatch.setattr(InnerFunction, "__post_init__",
                                lambda self: built.append(self) or post_init(self))
            assert hankel_space(u_generic, v_generic) is space
            assert hankel_space(u_copy, v_copy) is space
            monkeypatch.undo()
        assert built == []

    def test_other_space_raises(self, rng, u_generic, v_generic):
        psi = hankel_space(v_generic, u_generic).random_element(rng)
        with pytest.raises(SpaceMismatch):
            hankel_symbol(psi, u_generic, v_generic)
        with pytest.raises(SpaceMismatch):
            hankel_symbol(tm_basis(u_generic * v_generic).random_element(rng),
                          u_generic, v_generic)


def _real_symmetric_inner(rng, pairs):
    """A real symmetric product: conjugate pairs of zeros, one real zero, constant -1."""
    a = 0.8 * np.sqrt(rng.uniform(size=pairs)) * np.exp(1j * np.pi * rng.uniform(size=pairs))
    return InnerFunction([*a, *np.conj(a), rng.uniform(-0.8, 0.8)], -1)


# the memoized per-generator builders; each is a closed form, making no pairing
BUILDS = [shift, conjugation_C, conjugation_U, symmetric_involution]
LAURENT = RationalSymbol.from_laurent({-2: 0.5j, -1: 0.3, 0: 1.0, 2: -0.4 + 0.1j})


class TestMemo:
    @pytest.mark.parametrize("build", BUILDS)
    def test_builds_once_per_evaluation(self, u_sym, build):
        first = []
        for _ in range(2):
            with quadrature.use(quadrature.Evaluation()) as ev:
                op = build(u_sym)
                assert build(u_sym) is op
                assert ev.stats.pairings == 0
            first.append(op)
        # a second evaluation builds again, to the same bits
        assert first[0] is not first[1]
        assert np.array_equal(first[0].matrix, first[1].matrix)

    @pytest.mark.parametrize("build", BUILDS)
    def test_memoized_matrices_are_read_only(self, u_sym, build):
        mat = build(u_sym).matrix
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            mat *= 2.0

    @pytest.mark.parametrize("n", [1, 3, 16, 32])
    def test_origin_kernels_are_cached_bitwise(self, rng, n):
        zeros = list(_random_inner(rng, n).zeros)
        zeros[0] = 0.0
        zeros[n // 2] = 0.0
        u = InnerFunction(zeros, np.exp(0.4j))
        space = tm_basis(u)
        assert np.array_equal(space.k0, np.conj(space.at(0.0)))
        assert np.array_equal(space.conj_k0, _conj_kernel_coords(u, 0j))
        k, kt = kernel(u, 0.0), conj_kernel(u, 0.0)
        assert np.shares_memory(k.coords, space.k0)
        assert np.shares_memory(kt.coords, space.conj_k0)
        for cached in (space.k0, space.conj_k0, k.coords):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0

    @pytest.mark.parametrize("build", BUILDS)
    def test_override_reuses_builds_made_before_it(self, u_sym, build):
        # a cap of 16 nodes is below the first level of every pairing, and
        # these builds make none
        tight = QuadratureSettings(cap=16)
        with quadrature.use(quadrature.Evaluation(settings=tight)) as ev:
            build(u_sym)
            assert ev.stats.pairings == 0
        with quadrature.use(quadrature.Evaluation()) as ev:
            op = build(u_sym)
            before = ev.stats.pairings
            with quadrature.override(tight):
                assert build(u_sym) is op
            assert ev.stats.pairings == before

    def test_hat_is_built_once_forward(self, u_generic):
        assert u_generic.hat() is u_generic.hat()
        back = u_generic.hat().hat()
        assert back == u_generic
        assert back is not u_generic

    def test_threads_share_one_evaluation(self, rng):
        generators = [_real_symmetric_inner(rng, pairs) for pairs in (1, 4, 8)]

        def fresh():
            # equal generators whose lazy members are all still unread
            return [InnerFunction(u.zeros, u.constant) for u in generators]

        def run_all(gens, clarks, syms, linked=True):
            out = []
            for u, clark, sym in zip(gens, clarks, syms, strict=True):
                out += [build(u).matrix for build in BUILDS]
                out += [kernel(u, 0.0).coords, conj_kernel(u, 0.0).coords]
                space = tm_basis(u)
                out += [np.array(clark.weights), np.array([u.origin_value]),
                        np.concatenate([f.num for f in space.functions]),
                        np.array([hash(u)])]
                out += [space.block.conj(m) for m in (512, 256, 64)]
                out += [space.flipped.conj(m) for m in (512, 256, 64)]
                # grids grown from their halves, racing the other threads' growth
                out += [space.values(m) for m in (6, 12, 24)]
                out += [u.boundary_values(m) for m in (6, 12, 24)]
                # a shared symbol's grids, sliced from their doubles
                out += [sym.values_at(m) for m in (48, 24, 12)]
            # asymmetric Laurent builds on fresh pairs, racing for each cross Gram
            for u, w in zip(gens, gens[1:] + gens[:1]):
                out += [tto_matrix(u, w, LAURENT).matrix, tto_matrix(w, u, LAURENT).matrix,
                        operators.cross_gram(u, w).matrix]
            # hat and product bases: linked hats derive their grids, running
            # products and boundary grids from their sources', equal ones
            # decoded from JSON, which record no source, evaluate them cold;
            # the memo holds either
            for g in derived(gens):
                g = g if linked else InnerFunction.from_json(g.to_json())
                out += [tm_basis(g).values(m) for m in (64, 32, 128)]
                out += [tm_basis(g)._running(m) for m in (128, 16, 256)]
                out += [g.boundary_values(m) for m in (64, 32, 128)]
            # Hankel symbols through their blocks: the memo of K_{u hat(w)} holds
            # the linked product or the one decoded from JSON, whichever came first
            for u, w in zip(gens, gens[1:] + gens[:1]):
                space = hankel_space(u, w)
                psi = space.element(np.arange(space.dim) + 0.5j)
                out += [hankel_symbol(psi, u, w).values_at(m) for m in (64, 32, 128)]
            return out

        def derived(gens):
            return [g for u, w in zip(gens, gens[1:] + gens[:1])
                    for g in (u.hat(), u * w.hat(), (w * u).hat())]

        def symbols(gens):
            return [(u.as_symbol() + RationalSymbol.monomial(-2)).flip() for u in gens]

        with quadrature.use(quadrature.Evaluation()):
            gens = fresh()
            clarks = [clark_points(u, np.exp(0.9j)) for u in gens]
            want = run_all(gens, clarks, symbols(gens))
        shared = quadrature.Evaluation()
        gens = fresh()
        clarks = [replace(c, generator=u) for c, u in zip(clarks, gens)]
        syms = symbols(gens)
        start = Barrier(4, timeout=60)

        def worker(i):
            with quadrature.use(shared):
                start.wait()
                return run_all(gens, clarks, syms, linked=i % 2 == 0)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(worker, range(4)))
        for got in results:
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
        for u in gens:      # the grown grids are the bits of a cold evaluation
            assert tm_basis(u).values(24).tobytes() == tm_basis(u).at(quadrature.nodes(24)).tobytes()
            assert hash(u) == hash((u.zeros, u.constant))
        with quadrature.use(shared):
            for g in derived(gens):
                cold = ModelSpaceBasis(_unlinked(g)).at(quadrature.nodes(64))
                assert tm_basis(g).values(64).tobytes() == cold.tobytes()
                cold = ModelSpaceBasis(_unlinked(g))._evaluate(quadrature.nodes(16))[1]
                assert tm_basis(g)._running(16).tobytes() == cold.tobytes()
                cold = _unlinked(g).boundary_values(32)
                assert g.boundary_values(32).tobytes() == cold.tobytes()
