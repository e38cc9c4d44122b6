import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncops import (
    ExtendedScalar,
    OperatorMatrix,
    RationalSymbol,
    class_multipliers,
    conj_kernel,
    conjugation_C,
    conjugation_U,
    cross_decompose,
    cross_space_unitary_report,
    cross_space_zero_product,
    functional_calculus,
    is_tho,
    is_tto,
    kernel,
    rank_one,
    sedlock_class,
    sedlock_op,
    shift,
    spectral_multiplier,
    symmetric_involution,
    tho_inverse_class,
    tho_matrix,
    tho_product_tto_test,
    tho_unitary_report,
    tm_basis,
    tto_matrix,
    zero_product_analysis,
)
from truncops import harness, quadrature
from truncops.blaschke import InnerFunction, monomial_inner
from truncops.classify import (MEMBERSHIP_TOL, _class_certificate, _fro, class_values,
                               spectral_values)
from truncops.errors import (DegenerateSpectrum, NoCertificate, NotRealSymmetric, NotTHO,
                             SpaceMismatch, ZeroAnchor)
from truncops.harness import SuiteConfig, random_inner, random_laurent, run_suite
from truncops.operators import clark_points


def _reference_cross_decompose(M, a, b, tol=MEMBERSHIP_TOL):
    """The former projector formula: (success, left, right, residual)."""
    mat, av, bv = M.matrix, a.coords, b.coords
    na2 = float(np.vdot(av, av).real)
    nb2 = float(np.vdot(bv, bv).real)
    if na2 < 1e-24 or nb2 < 1e-24:
        raise ZeroAnchor("cross decomposition anchors must be nonzero")
    q_b = np.eye(len(bv)) - np.outer(bv, np.conj(bv)) / nb2
    left = (q_b @ mat @ av) / na2
    right = mat.conj().T @ bv / nb2
    g = complex(np.vdot(av, right)) / na2
    right = right - g * av
    left = left + np.conj(g) * bv
    resid = mat - np.outer(left, np.conj(av)) - np.outer(bv, np.conj(right))
    residual = float(np.linalg.norm(resid))
    return residual < tol * max(1.0, float(np.linalg.norm(mat))), left, right, residual


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       layout=st.sampled_from(["C", "F", "adjoint", "1-D"]))
def test_frobenius_norm_has_the_bits_of_numpy(seed, shape, layout):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-8, 9)
    mat = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    arr = {"C": mat, "F": np.asfortranarray(mat), "adjoint": mat.conj().T, "1-D": mat[0]}[layout]
    assert _fro(arr) == float(np.linalg.norm(arr))


class TestCrossDecompose:
    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("degrees", [(3, 2), (16, 12)])
    def test_matches_the_projector_formula(self, rng, degrees, side):
        du, dv = (tm_basis(random_inner(rng, n)) for n in degrees)
        a, b = du.random_element(rng), dv.random_element(rng)
        left, right = dv.random_element(rng), du.random_element(rng)
        # a part that no cross decomposition at these anchors absorbs:
        # Q_b R P_(a-perp), scaled to 1e-9 of the decomposable part
        q_b = np.eye(dv.dim) - np.outer(b.coords, np.conj(b.coords)) / b.norm() ** 2
        p_a = np.eye(du.dim) - np.outer(a.coords, np.conj(a.coords)) / a.norm() ** 2
        noise = q_b @ (rng.standard_normal((dv.dim, du.dim))
                       + 1j * rng.standard_normal((dv.dim, du.dim))) @ p_a
        base = rank_one(left, a) + rank_one(b, right)
        M = base + OperatorMatrix(1e-9 * np.linalg.norm(base.matrix) / np.linalg.norm(noise)
                                  * noise, du, dv)
        scale = max(1.0, float(np.linalg.norm(M.matrix)))
        residual = _reference_cross_decompose(M, a, b)[3]
        tol = residual / scale * (1.001 if side == "below" else 0.999)
        ok, want_left, want_right, want_residual = _reference_cross_decompose(M, a, b, tol)
        dec = cross_decompose(M, a, b, tol)
        assert ok == (side == "below") and dec.success == ok
        assert abs(dec.residual_norm - want_residual) <= 1e-14 * scale
        if ok:
            assert np.max(np.abs(dec.left.coords - want_left)) <= 1e-14 * scale
            assert np.max(np.abs(dec.right.coords - want_right)) <= 1e-14 * scale
            assert abs(dec.right.inner(a)) <= 1e-14 * scale      # the gauge
        else:
            assert dec.left is None and dec.right is None

    def test_zero_anchors_raise_as_before(self, u_generic, v_generic):
        du, dv = tm_basis(u_generic), tm_basis(v_generic)
        M = OperatorMatrix(np.ones((dv.dim, du.dim)), du, dv)
        for a, b in ((du.element(np.zeros(du.dim)), dv.element(np.ones(dv.dim))),
                     (du.element(np.ones(du.dim)), dv.element(np.zeros(dv.dim)))):
            with pytest.raises(ZeroAnchor):
                _reference_cross_decompose(M, a, b)
            with pytest.raises(ZeroAnchor):
                cross_decompose(M, a, b)

    def test_forward_recovery(self, u_generic, v_generic, rng):
        du, dv = tm_basis(u_generic), tm_basis(v_generic)
        a, b = du.random_element(rng), dv.random_element(rng)
        left, right = dv.random_element(rng), du.random_element(rng)
        M = rank_one(left, a) + rank_one(b, right)
        dec = cross_decompose(M, a, b)
        assert dec.success
        rebuilt = (np.outer(dec.left.coords, np.conj(a.coords))
                   + np.outer(b.coords, np.conj(dec.right.coords)))
        assert np.max(np.abs(M.matrix - rebuilt)) < 1e-10
        assert abs(dec.right.inner(a)) < 1e-10     # the gauge

    def test_generic_matrix_fails(self, u_generic, rng):
        space = tm_basis(u_generic)
        M = OperatorMatrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
                           space, space)
        a = space.random_element(rng)
        b = space.random_element(rng)
        assert not cross_decompose(M, a, b).success

    def test_zero_matrix(self, u2):
        space = tm_basis(u2)
        z = OperatorMatrix(np.zeros((2, 2)), space, space)
        a = space.element([1.0, 0.0])
        dec = cross_decompose(z, a, a)
        assert dec.success
        assert dec.left.norm() < 1e-14 and dec.right.norm() < 1e-14

    def test_zero_anchor(self, u2):
        space = tm_basis(u2)
        z = OperatorMatrix(np.zeros((2, 2)), space, space)
        with pytest.raises(ZeroAnchor):
            cross_decompose(z, space.element([0.0, 0.0]), space.element([1.0, 0.0]))


class TestIsTTO:
    def test_roundtrip(self, u_generic, v_generic, rng):
        sym = RationalSymbol.from_laurent(
            {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(-3, 4)})
        A = tto_matrix(u_generic, v_generic, sym)
        m = is_tto(A)
        assert m.is_member
        assert m.rebuild_residual < 1e-10
        rebuilt = tto_matrix(u_generic, v_generic, m.symbol)
        assert np.max(np.abs(rebuilt.matrix - A.matrix)) < 1e-9

    def test_identity_has_constant_symbol(self, u_generic):
        m = is_tto(OperatorMatrix.identity(tm_basis(u_generic)))
        assert m.is_member
        # the gauge pins the conjugate part to vanish at the origin
        assert abs(m.conjugate_part.inner(kernel(u_generic, 0.0))) < 1e-10
        rebuilt = tto_matrix(u_generic, u_generic, m.symbol)
        assert np.max(np.abs(rebuilt.matrix - np.eye(3))) < 1e-9

    def test_antidiagonal_hankel_is_not_tto(self, u2):
        B = tho_matrix(u2, u2, RationalSymbol.monomial(-3))
        assert not is_tto(B).is_member

    def test_random_matrix_is_not_tto(self, u_generic, rng):
        space = tm_basis(u_generic)
        M = OperatorMatrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
                           space, space)
        assert not is_tto(M, recover=False).is_member


@pytest.mark.parametrize("test", [is_tto, is_tho, sedlock_class])
def test_an_antilinear_operand_is_rejected(test):
    # x -> S conj(x) used to be a Toeplitz member of class 0
    u = monomial_inner(3)
    op = OperatorMatrix(shift(u).matrix, tm_basis(u), tm_basis(u), antilinear=True)
    with pytest.raises(SpaceMismatch, match="linear operator"):
        test(op)


class TestIsTHO:
    def test_roundtrip(self, u_generic, v_generic, rng):
        # at degrees (32, 32) the symbol lives in K_{u hat(v)} of dimension 64
        for u, v in [(u_generic, v_generic), (random_inner(rng, 32), random_inner(rng, 32))]:
            sym = RationalSymbol.from_laurent(
                {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(-4, 3)})
            B = tho_matrix(u, v, sym)
            m = is_tho(B)
            assert m.is_member
            assert m.rebuild_residual < 1e-12 * max(1.0, np.linalg.norm(B.matrix))
            rebuilt = tho_matrix(u, v, m.symbol)
            assert np.max(np.abs(rebuilt.matrix - B.matrix)) < 1e-9
            # the recovered element lives in the product model space
            assert m.symbol_element.space.generator == u * v.hat()

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("zero_at_origin", [False, True])
    def test_membership_is_the_transported_toeplitz_test(self, rng, n, zero_at_origin):
        # U_v S_v = S_hat(v) U_v and C_u S_u* = S_u C_u carry the Hankel
        # displacement onto the Toeplitz one of U_v M C_u
        u, v = random_inner(rng, n), random_inner(rng, 9 - n)
        if zero_at_origin:
            u, v = (InnerFunction((0j,) + w.zeros[1:], w.constant) for w in (u, v))
        mats = [tho_matrix(u, v, random_laurent(rng, 3)),
                tto_matrix(u, v, random_laurent(rng, 3)),
                OperatorMatrix(rng.standard_normal((9 - n, n))
                               + 1j * rng.standard_normal((9 - n, n)), tm_basis(u), tm_basis(v))]
        for M in mats:
            hankel = is_tho(M, recover=False)
            toeplitz = is_tto(conjugation_U(v) @ M @ conjugation_C(u), recover=False)
            assert hankel.is_member == toeplitz.is_member
            assert (abs(hankel.displacement_residual - toeplitz.displacement_residual)
                    < 1e-12 * max(1.0, np.linalg.norm(M.matrix)))
        assert is_tho(mats[0], recover=False).is_member

    def test_recovery_pairs_only_its_rebuild(self, u_generic, v_generic, rng):
        with quadrature.use(quadrature.Evaluation()):
            B = tho_matrix(u_generic, v_generic, random_laurent(rng, 3))
            tm_basis(u_generic * v_generic.hat())
            shift(u_generic), shift(v_generic)
            with quadrature.tally() as decided:
                assert is_tho(B, recover=False).is_member
            with quadrature.tally() as recovered:
                assert is_tho(B).is_member
        assert decided.pairings == 0
        assert recovered.pairings == 1

    def test_shift_is_not_tho(self, u3):
        assert not is_tho(shift(u3)).is_member

    def test_zero_operator(self, u2):
        space = tm_basis(u2)
        m = is_tho(OperatorMatrix(np.zeros((2, 2)), space, space))
        assert m.is_member
        assert m.symbol_element.norm() < 1e-10


def _vanishes(M) -> bool:
    """Whether every entry of a built operator is below MEMBERSHIP_TOL."""
    return float(np.max(np.abs(M.matrix))) < MEMBERSHIP_TOL


class TestZeroSymbolTests:
    def test_toeplitz_ideal_member(self, u_generic, v_generic):
        # v * analytic + conj(u * analytic) acts as zero
        sym = (v_generic.as_symbol() * RationalSymbol.monomial(1)
               + (u_generic.as_symbol() * RationalSymbol.monomial(2)).conj_circle())
        assert _vanishes(tto_matrix(u_generic, v_generic, sym))

    def test_hankel_ideal_member(self, u_generic, v_generic):
        assert _vanishes(tho_matrix(u_generic, v_generic, RationalSymbol.monomial(3)))
        whole = u_generic * v_generic.hat()
        sym = (whole.as_symbol() * RationalSymbol.monomial(1)).conj_circle()
        assert _vanishes(tho_matrix(u_generic, v_generic, sym))

    def test_nonzero_hankel(self, u2):
        assert not _vanishes(tho_matrix(u2, u2, RationalSymbol.monomial(-1)))


class TestSedlockClass:
    def test_shift_is_class_zero(self, u_generic):
        rep = sedlock_class(shift(u_generic))
        assert rep.membership == "finite"
        assert abs(rep.alpha.value) < 1e-10

    def test_rank_one_class_parameter(self, u2):
        lam = 0.3
        A = rank_one(conj_kernel(u2, lam), kernel(u2, lam))
        rep = sedlock_class(A)
        assert rep.membership == "finite"
        assert rep.alpha.value == pytest.approx(0.09, abs=1e-10)

    def test_roundtrip_and_adjoint(self, u_generic, rng):
        for a0 in (0.3 + 0.2j, 0.0, 0.85j, np.exp(0.4j), 2.5 - 1j):
            A = sedlock_op(u_generic, a0, tm_basis(u_generic).random_element(rng),
                           0.1 - 0.2j)
            rep = sedlock_class(A)
            assert rep.membership == "finite"
            assert rep.alpha.isclose(ExtendedScalar.finite(a0), 1e-8)
            radj = sedlock_class(A.adjoint())
            assert radj.alpha.isclose(ExtendedScalar.finite(a0).reciprocal_conjugate(),
                                      1e-6)

    def test_infinity_class(self, u_generic, rng):
        phi = tm_basis(u_generic).random_element(rng)
        A = tto_matrix(u_generic, u_generic, phi.rep().conj_circle())
        assert sedlock_class(A).membership == "infinity"

    def test_scalar_reports_all(self, u_generic):
        rep = sedlock_class(2.0 * OperatorMatrix.identity(tm_basis(u_generic)))
        assert rep.membership == "all"
        assert rep.scalar == pytest.approx(2.0)

    def test_generic_reports_none(self, u_generic, rng):
        space = tm_basis(u_generic)
        M = OperatorMatrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
                           space, space)
        assert sedlock_class(M).membership == "none"

    def test_same_class_closure(self, u_generic, rng):
        a0 = 0.4 - 0.25j
        A = sedlock_op(u_generic, a0, tm_basis(u_generic).random_element(rng), 0.3)
        B = sedlock_op(u_generic, a0, tm_basis(u_generic).random_element(rng), -0.1j)
        P = A @ B
        assert is_tto(P, recover=False).is_member
        assert sedlock_class(P).alpha.isclose(ExtendedScalar.finite(a0), 1e-8)


class TestUnitaryReport:
    def test_involution_all_true(self, u_sym):
        rep = tho_unitary_report(symmetric_involution(u_sym))
        assert all(rep.conditions)

    def test_scaled_involution(self, u_sym):
        rep = tho_unitary_report(0.5 * symmetric_involution(u_sym))
        # the metric and class conditions fail; the two Toeplitz-defect
        # conditions hold trivially for scalar multiples of the involution
        assert not rep.isometry and not rep.coisometry and not rep.unitary
        assert not rep.class_unimodular
        assert rep.gram_defect_is_tto and rep.cogram_defect_is_tto

    def test_constructed_unitary(self, u_sym, rng):
        cdat = clark_points(u_sym, np.exp(0.8j))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        B = symmetric_involution(u_sym) @ spectral_multiplier(u_sym, cdat, phases)
        rep = tho_unitary_report(B)
        assert all(rep.conditions)
        assert abs(rep.alpha.modulus() - 1.0) < 1e-6
        assert all(abs(abs(v) - 1.0) < 1e-8 for v in rep.multiplier_values)

    def test_generic_all_false(self, u_sym, rng):
        w = u_sym * u_sym.hat()
        psi = tm_basis(w).random_element(rng)
        B = tho_matrix(u_sym, u_sym, psi.rep().conj_circle())
        rep = tho_unitary_report(B)
        assert not any(rep.conditions)

    def test_guards(self, u_generic, u_sym):
        with pytest.raises(NotRealSymmetric):
            tho_unitary_report(OperatorMatrix.identity(tm_basis(u_generic)))
        with pytest.raises(NotTHO):
            tho_unitary_report(shift(u_sym))


class TestInverseReport:
    def test_involution_inverse(self, u_sym):
        rep = tho_inverse_class(symmetric_involution(u_sym))
        assert rep.inverse_is_tho and rep.reciprocal_law_holds

    def test_constructed_chain(self, u_sym):
        a0 = 0.4
        psi = RationalSymbol.polynomial([1.2, 0.5, 0.3])
        B = symmetric_involution(u_sym) @ functional_calculus(u_sym, a0, psi)
        rep = tho_inverse_class(B)
        assert rep.inverse_is_tho
        assert rep.alpha.isclose(ExtendedScalar.finite(a0), 1e-8)
        assert rep.inverse_alpha.isclose(ExtendedScalar.finite(1 / a0), 1e-6)
        assert rep.reciprocal_law_holds
        assert rep.certificate.residual < 1e-8
        assert rep.inverse_certificate.residual < 1e-8

    def test_class_at_infinity(self, u_sym, rng):
        # the involution-shifted class of B is the antianalytic one
        phi = tm_basis(u_sym).random_element(rng)
        B = symmetric_involution(u_sym) @ sedlock_op(u_sym, None, phi, 0.3)
        rep = tho_inverse_class(B)
        assert rep.inverse_is_tho and rep.alpha.is_infinity
        assert rep.reciprocal_law_holds
        assert rep.certificate.residual < 1e-8
        assert rep.inverse_certificate.residual < 1e-8

    def test_generic_inverse_leaves_class(self, rng):
        # degree >= 3 so that generic Toeplitz operators sit in no class
        u = InnerFunction([0.5j, -0.5j, 0.3], constant=-1)
        w = u * u.hat()
        for _ in range(6):
            psi = tm_basis(w).random_element(rng)
            B = tho_matrix(u, u, psi.rep().conj_circle())
            if np.linalg.cond(B.matrix) < 1e6:
                assert not tho_inverse_class(B).inverse_is_tho
                return
        pytest.skip("no well-conditioned generic operator sampled")


@pytest.mark.parametrize("alpha", [0.4 - 0.2j, 1 / np.conj(0.3 + 0.2j), np.exp(0.9j), None],
                         ids=["inside", "outside", "unimodular", "infinity"])
def test_class_multipliers_certify_both_involution_sides(u_sym, rng, alpha):
    """A member of the class, built by quadrature, fits the exact calculus; so do
    the operators D (D A) and (A D) D that the Hankel certificates fit, and
    the involution-conjugated D A D does not."""
    alpha = ExtendedScalar.of(alpha)
    dop = symmetric_involution(u_sym)
    A = sedlock_op(u_sym, alpha, tm_basis(u_sym).random_element(rng), 0.3 - 0.1j)
    _, _, fits = class_multipliers(alpha, A, (A @ dop) @ dop, dop @ (dop @ A))
    assert max(fits) < 1e-8
    assert class_multipliers(alpha, dop @ A @ dop)[2][0] > 1e-3


def test_class_certificate_rebuild_gate(u_sym, rng):
    """A member certified against another class raises NoCertificate."""
    alpha = ExtendedScalar.finite(0.4 - 0.2j)
    A = sedlock_op(u_sym, alpha, tm_basis(u_sym).random_element(rng), 0.3 - 0.1j)
    assert _class_certificate(A, alpha).residual < 1e-8
    with pytest.raises(NoCertificate):
        _class_certificate(A, ExtendedScalar.finite(-0.5 + 0.3j))


class TestZeroProducts:
    def test_unimodular_split(self, u_sym, rng):
        dop = symmetric_involution(u_sym)
        cdat = clark_points(u_sym, np.exp(0.8j))
        v1 = np.array([1.0, 1.0, 0.0])
        v2 = np.array([0.0, 0.0, 1.0])
        B1 = dop @ spectral_multiplier(u_sym, cdat, v1)
        B2 = spectral_multiplier(u_sym, cdat, v2) @ dop
        rep = zero_product_analysis(B1, B2)
        assert rep.product_is_zero and rep.classes_match
        assert rep.multiplier_product_vanishes
        assert abs(rep.alpha.modulus() - 1.0) < 1e-6

    @pytest.mark.parametrize("alpha", [0.3 + 0.1j, 1.6 + 1.1j, None],
                             ids=["inside", "outside", "infinity"])
    def test_level_set_split(self, u_sym, alpha):
        # the multipliers split the level set of u at the parameter of the
        # class's shift perturbation: alpha inside the disk, 1/conj(alpha)
        # outside it and 0 at infinity, where the factors are p(S)*
        alpha = ExtendedScalar.of(alpha)
        beta = alpha.value if alpha.modulus() < 1.0 else alpha.reciprocal_conjugate().value
        dop = symmetric_involution(u_sym)
        level = np.polynomial.polynomial.polyadd(u_sym.num_coeffs,
                                                 -beta * u_sym.den_coeffs)
        roots = np.polynomial.polynomial.polyroots(level)
        p1 = RationalSymbol.polynomial(np.polynomial.polynomial.polyfromroots(roots[:1]))
        p2 = RationalSymbol.polynomial(np.polynomial.polynomial.polyfromroots(roots[1:]))
        if alpha.is_infinity:
            m1, m2 = (functional_calculus(u_sym, 0.0, p).adjoint() for p in (p1, p2))
        else:
            m1, m2 = (functional_calculus(u_sym, alpha.value, p) for p in (p1, p2))
        rep = zero_product_analysis(dop @ m1, m2 @ dop)
        assert rep.product_is_zero and rep.classes_match
        assert rep.alpha.isclose(alpha, 1e-6)
        assert rep.multiplier_product_vanishes
        assert max(rep.residuals["pointwise_products"]) < 1e-12

    @pytest.mark.parametrize("suite_seed", [326, 338, 392])
    def test_high_degree_interior_split(self, suite_seed, monkeypatch):
        # products that are zero to 1e-16 relative to the factors, whose
        # multipliers split a level set at degree 30-32.  The split is the
        # level points of u = a0; polynomial roots of u_num - a0 u_den missed
        # them by up to 2.8e-9 at seed 326
        splits = []
        find = harness.level_points
        def spy(u, level):
            points = find(u, level)
            splits.append(np.abs(u(points) - level))
            return points
        monkeypatch.setattr(harness, "level_points", spy)
        rep = run_suite(SuiteConfig(seed=suite_seed, trials=1, degree_range=(30, 32),
                                    checks=["hankel-zero-product"]))
        assert rep.checks[0]["failures"] == 0, rep.checks[0]["counterexamples"]
        assert len(splits) == 1
        assert np.max(splits[0]) <= 1e-12

    def test_repeated_level_points_raise(self):
        # S* on K_(z^2) is in the class at infinity, whose level set is the
        # double zero of z^2; its kernels there fall short of a basis
        u = monomial_inner(2)
        dop = symmetric_involution(u)
        adj = shift(u).adjoint()
        with pytest.raises(DegenerateSpectrum):
            zero_product_analysis(dop @ adj, adj @ dop)

    def test_trivial_zero_factor(self, u_sym, rng):
        dop = symmetric_involution(u_sym)
        B1 = dop @ functional_calculus(u_sym, 0.2, RationalSymbol.polynomial([1.0, 0.5]))
        space = tm_basis(u_sym)
        rep = zero_product_analysis(B1, OperatorMatrix(np.zeros((3, 3)), space, space))
        assert rep.product_is_zero

    def test_cross_class_nonzero(self, u_sym):
        dop = symmetric_involution(u_sym)
        B1 = dop @ functional_calculus(u_sym, 0.25, RationalSymbol.polynomial([0.4, 1.0]))
        B2 = functional_calculus(u_sym, -0.5j, RationalSymbol.polynomial([1.0, 0.7])) @ dop
        rep = zero_product_analysis(B1, B2)
        assert not rep.product_is_zero
        assert rep.residuals["product_norm"] > 1e-3


class TestCrossSpaceReports:
    def test_unitary_report(self, u_generic, rng):
        cdat = clark_points(u_generic, np.exp(0.5j))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        mult = spectral_multiplier(u_generic, cdat, phases)
        B = conjugation_U(u_generic) @ conjugation_C(u_generic) @ mult
        rep = cross_space_unitary_report(B)
        assert all(rep.conditions)
        assert rep.factor_order is not None

    def test_generic_cross_space(self, u_generic, rng):
        w = u_generic * u_generic.hat().hat()   # = u * u with hat round trip
        psi = tm_basis(u_generic * u_generic).random_element(rng)
        B = tho_matrix(u_generic, u_generic.hat(), psi.rep().conj_circle())
        rep = cross_space_unitary_report(B)
        assert not any(rep.conditions)

    def test_cross_space_zero_product(self, u_generic):
        cdat = clark_points(u_generic, np.exp(0.5j))
        n = u_generic.degree
        v1 = np.zeros(n); v1[:1] = 1.0
        v2 = np.zeros(n); v2[1:] = 1.0
        cu = conjugation_C(u_generic)
        B1 = cu @ spectral_multiplier(u_generic, cdat, v1) @ conjugation_U(u_generic.hat())
        B2 = conjugation_U(u_generic) @ spectral_multiplier(u_generic, cdat, v2) @ cu
        rep = cross_space_zero_product(B1, B2)
        assert rep.product_is_zero and rep.classes_match
        assert rep.multiplier_product_vanishes


@pytest.mark.parametrize("alpha", [0.4 - 0.2j, 1.6 + 1.1j, None],
                         ids=["inside", "outside", "infinity"])
def test_class_multipliers_recover_calculus_polynomial(u_generic, alpha):
    # inside and outside the disk the member is functional_calculus(u, alpha, p);
    # at infinity it is p(S)*
    p = np.array([0.8, -0.5 + 0.3j, 0.2j])
    alpha = ExtendedScalar.of(alpha)
    if alpha.is_infinity:
        member = functional_calculus(u_generic, 0.0, RationalSymbol.polynomial(p)).adjoint()
    else:
        member = functional_calculus(u_generic, alpha.value, RationalSymbol.polynomial(p))
    level, (got,), (res,) = class_multipliers(alpha, member)
    assert np.max(np.abs(got - p)) < 1e-10
    assert res < 1e-12
    want_level = 0.0 if alpha.is_infinity else (
        alpha.value if alpha.modulus() < 1.0 else 1.0 / np.conj(alpha.value))
    assert abs(level - want_level) < 1e-15


def test_spectral_values_diagonalize_class_members(u_sym, rng):
    alpha = np.exp(1.1j)
    cdat = clark_points(u_sym, alpha)
    vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    M = spectral_multiplier(u_sym, cdat, vals)
    got = spectral_values(M, cdat.points)
    assert np.max(np.abs(np.array(got) - vals)) < 1e-9


@pytest.mark.parametrize("degree", [3, 12])
def test_class_values_at_a_unimodular_class_are_the_clark_values(degree, rng):
    # the oracle is the Clark-point path that _unimodular_class used to read
    u = random_inner(rng, degree, real_symmetric=True)
    alpha = ExtendedScalar.finite(0.6 + 0.8j)
    cdat = clark_points(u, alpha.value / abs(alpha.value))
    vals = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    M = spectral_multiplier(u, cdat, vals)
    (got,) = class_values(alpha, M)
    assert np.max(np.abs(got - spectral_values(M, cdat.points))) < 1e-12


def test_conjugate_zero_match_runs_once_per_generator(monkeypatch):
    match = InnerFunction.__dict__["conjugate_order"]
    runs = []
    find = match.func
    monkeypatch.setattr(match, "func", lambda u: runs.append(u) or find(u))
    u = InnerFunction([0.5j, -0.5j, 0.3, 0.2 + 0.1j, 0.2 - 0.1j], constant=-1)
    with quadrature.use(quadrature.Evaluation()):
        dop = symmetric_involution(u)
        B1 = dop @ functional_calculus(u, 0.25, RationalSymbol.polynomial([0.4, 1.0]))
        B2 = functional_calculus(u, -0.5j, RationalSymbol.polynomial([1.0, 0.7])) @ dop
        zero_product_analysis(B1, B2)
        tho_product_tto_test(B1, B2)
    assert len(runs) == 1 and runs[0] is u
