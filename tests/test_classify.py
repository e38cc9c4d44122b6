import numpy as np
import pytest

from truncops import (
    ExtendedScalar,
    OperatorMatrix,
    RationalSymbol,
    blaschke_new,
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
    symbol_is_zero_tho,
    symbol_is_zero_tto,
    symmetric_involution,
    tho_inverse_class,
    tho_matrix,
    tho_unitary_report,
    tm_basis,
    tto_matrix,
    zero_product_analysis,
)
from truncops.blaschke import clark_points
from truncops.classify import class_form_fit, class_form_terms, spectral_values
from truncops.errors import NotRealSymmetric, NotTHO, ZeroAnchor


class TestCrossDecompose:
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


class TestIsTHO:
    def test_roundtrip(self, u_generic, v_generic, rng):
        sym = RationalSymbol.from_laurent(
            {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in range(-4, 3)})
        B = tho_matrix(u_generic, v_generic, sym)
        m = is_tho(B)
        assert m.is_member
        assert m.rebuild_residual < 1e-10
        rebuilt = tho_matrix(u_generic, v_generic, m.symbol)
        assert np.max(np.abs(rebuilt.matrix - B.matrix)) < 1e-9
        # the recovered element lives in the product model space
        assert m.symbol_element.space.generator == u_generic * v_generic.hat()

    def test_shift_is_not_tho(self, u3):
        assert not is_tho(shift(u3)).is_member

    def test_zero_operator(self, u2):
        space = tm_basis(u2)
        m = is_tho(OperatorMatrix(np.zeros((2, 2)), space, space))
        assert m.is_member
        assert m.symbol_element.norm() < 1e-10


class TestZeroSymbolTests:
    def test_toeplitz_ideal_member(self, u_generic, v_generic):
        # v * analytic + conj(u * analytic) acts as zero
        sym = (v_generic.as_symbol() * RationalSymbol.monomial(1)
               + (u_generic.as_symbol() * RationalSymbol.monomial(2)).conj_circle())
        assert symbol_is_zero_tto(u_generic, v_generic, sym)

    def test_hankel_ideal_member(self, u_generic, v_generic):
        assert symbol_is_zero_tho(u_generic, v_generic, RationalSymbol.monomial(3))
        whole = u_generic * v_generic.hat()
        sym = (whole.as_symbol() * RationalSymbol.monomial(1)).conj_circle()
        assert symbol_is_zero_tho(u_generic, v_generic, sym)

    def test_nonzero_hankel(self, u2):
        assert not symbol_is_zero_tho(u2, u2, RationalSymbol.monomial(-1))


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
        assert all(rep.conditions) and rep.all_agree

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
        assert not any(rep.conditions) and rep.all_agree

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
        u = blaschke_new([0.5j, -0.5j, 0.3], constant=-1)
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
def test_class_form_terms_fit_both_sides(u_sym, rng, alpha):
    """B = A D fits the left term lists and B = D A the right ones, for A in the class."""
    alpha = ExtendedScalar.of(alpha)
    dop = symmetric_involution(u_sym)
    A = sedlock_op(u_sym, alpha, tm_basis(u_sym).random_element(rng), 0.3 - 0.1j)
    left, right = class_form_terms(tm_basis(u_sym), alpha)
    assert class_form_fit(A @ dop, left)[1] < 1e-8
    assert class_form_fit(dop @ A, right)[1] < 1e-8
    # the two sides are different forms
    assert class_form_fit(dop @ A, left)[1] > 1e-3


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
        assert max(rep.residuals["multiplier_fits"]) < 1e-12

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
    got = spectral_values(M, cdat)
    assert np.max(np.abs(np.array(got) - vals)) < 1e-9
