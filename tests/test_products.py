import numpy as np
import pytest

from truncops import (
    ExtendedScalar,
    InnerFunction,
    OperatorMatrix,
    RationalSymbol,
    atho_atto_product_test,
    atho_product_tto_test,
    atto_product_test,
    conj_kernel,
    equivalence_transforms,
    functional_calculus,
    hat_transport_checks,
    involution_identity_checks,
    is_tho,
    is_tto,
    kernel,
    membership_transport_chain,
    membership_transports,
    mixed_product_test,
    project,
    rank_one,
    sedlock_op,
    spectral_multiplier,
    tho_matrix,
    tho_product_symbol_forms,
    tho_product_tto_test,
    tm_basis,
    tto_matrix,
)
from truncops import products, quadrature
from truncops.operators import _element_tho, clark_points, tho_by_pairing
from truncops.errors import NoCertificate, SpaceMismatch
from truncops.harness import hatted_symbol, random_inner
from truncops.modelspace import hankel_space, hankel_symbol, symbol_blocks
from truncops.products import symmetric_witness


class TestConjugationDictionary:
    def test_monomial_antianalytic(self, u2):
        gaps = equivalence_transforms(u2, u2, RationalSymbol.monomial(-1))
        assert max(gaps.values()) < 1e-10

    def test_zero_symbol(self, u2):
        gaps = equivalence_transforms(u2, u2, RationalSymbol.zero())
        assert max(gaps.values()) < 1e-14

    def test_mixed_asymmetric(self, u2, u3):
        sym = RationalSymbol.from_laurent({-2: 1.0, 1: 1.0})
        gaps = equivalence_transforms(u2, u3, sym)
        assert max(gaps.values()) < 1e-9

    def test_generic_spaces(self, u_generic, v_generic):
        sym = RationalSymbol.from_laurent({-2: 0.3 + 1j, 0: -0.2j, 2: 0.7})
        gaps = equivalence_transforms(u_generic, v_generic, sym)
        assert max(gaps.values()) < 1e-9


class TestMembershipTransports:
    def test_members_and_nonmembers(self, u_generic, v_generic, rng):
        sym = RationalSymbol.from_laurent({-1: 1j, 0: 0.5, 2: -0.3})
        for M in (tto_matrix(u_generic, v_generic, sym),
                  tho_matrix(u_generic, v_generic, sym),
                  OperatorMatrix(rng.standard_normal((2, 3)), tm_basis(u_generic),
                                 tm_basis(v_generic))):
            trans = membership_transports(M)
            assert all(before == after for before, after in trans.values())


class TestHatTransport:
    def test_real_alpha_fixed(self, u2, rng):
        out = hat_transport_checks(0.3, tm_basis(u2).random_element(rng))
        assert out["transport_ok"]
        assert out["shift_transport_residual"] < 1e-9
        assert out["shift_conjugation_residual"] < 1e-9

    def test_imaginary_alpha_conjugated(self, u2, rng):
        out = hat_transport_checks(0.5j, tm_basis(u2).random_element(rng))
        assert out["transport_ok"]
        assert out["transported_class"].alpha.isclose(ExtendedScalar.finite(-0.5j), 1e-8)

    def test_alpha_zero_shift_transport(self, u_generic, rng):
        out = hat_transport_checks(0.0, tm_basis(u_generic).random_element(rng))
        assert out["transport_ok"]
        assert out["shift_transport_residual"] < 1e-9

    def test_infinity(self, u_generic, rng):
        out = hat_transport_checks(ExtendedScalar.infinity(),
                                   tm_basis(u_generic).random_element(rng))
        assert out["transport_ok"]


class TestInvolutionIdentities:
    def test_full_set(self, u_sym, v_generic):
        sym = RationalSymbol.from_laurent({-2: 0.4j, -1: 1.0, 1: -0.3})
        gaps = involution_identity_checks(u_sym, 0.4 + 0.1j, v_generic, sym)
        assert max(gaps.values()) < 1e-9


class TestAttoProduct:
    def test_same_class(self, u_sym, rng):
        a0 = 0.35 - 0.2j
        A = sedlock_op(u_sym, a0, tm_basis(u_sym).random_element(rng), 0.2)
        B = sedlock_op(u_sym, a0, tm_basis(u_sym).random_element(rng), -0.1j)
        pv = atto_product_test(A, B)
        assert pv.in_class and pv.direct

    def test_identity_factor(self, u_sym, rng):
        A = sedlock_op(u_sym, 0.3, tm_basis(u_sym).random_element(rng), 0.0)
        pv = atto_product_test(A, OperatorMatrix.identity(tm_basis(u_sym)))
        assert pv.in_class and pv.direct

    def test_cross_class_fails_consistently(self, u_sym, rng):
        A = sedlock_op(u_sym, 0.1, tm_basis(u_sym).random_element(rng), 0.0)
        B = sedlock_op(u_sym, ExtendedScalar.infinity(),
                       tm_basis(u_sym).random_element(rng))
        pv = atto_product_test(A, B)
        assert not pv.in_class and not pv.direct

    def test_asymmetric_spaces_consistent(self, u_generic, v_generic, rng):
        w = InnerFunction([0.6, -0.25 + 0.15j], constant=np.exp(-1.1j))
        A = tto_matrix(v_generic, w, RationalSymbol.from_laurent({-1: 1.0, 1: 0.5j}))
        B = tto_matrix(u_generic, v_generic, RationalSymbol.from_laurent({-2: 0.3, 0: 1.0}))
        pv = atto_product_test(A, B)
        assert pv.consistent


class TestHankelProduct:
    def test_rank_one_product_identity(self, u2):
        lam = 0.3
        b1 = rank_one(conj_kernel(u2, lam), conj_kernel(u2, np.conj(lam)))
        b2 = rank_one(kernel(u2, np.conj(lam)), kernel(u2, lam))
        prod = (b1 @ b2).matrix
        want = np.conj(u2.derivative(np.conj(lam))) * rank_one(
            conj_kernel(u2, lam), kernel(u2, lam)).matrix
        assert np.max(np.abs(prod - want)) < 1e-12
        pv = tho_product_tto_test(b1, b2)
        assert pv.in_class and pv.direct
        assert ExtendedScalar.of(pv.witness).isclose(ExtendedScalar.finite(0.09), 1e-8)

    def test_scalar_involution_case(self, u_sym, rng):
        dop = tm_basis(u_sym).symmetric_involution
        w = u_sym * u_sym.hat()
        other = tho_matrix(u_sym, u_sym,
                           tm_basis(w).random_element(rng).rep().conj_circle())
        pv = tho_product_tto_test(2.0 * dop, other)
        assert pv.in_class and pv.direct
        assert pv.details["case"] == "scalar"
        assert pv.witness == pytest.approx(2.0)

    def test_clark_class_pair(self, u_sym, rng):
        dop = tm_basis(u_sym).symmetric_involution
        cdat = clark_points(u_sym, np.exp(0.8j))
        m1 = spectral_multiplier(cdat, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        m2 = spectral_multiplier(cdat, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        pv = tho_product_tto_test(m1 @ dop, dop @ m2)
        assert pv.in_class and pv.direct
        assert abs(ExtendedScalar.of(pv.witness).modulus() - 1.0) < 1e-6
        prod_rep = pv.details["product_class"]
        assert prod_rep.matches(pv.details["left_class"])

    def test_mismatch(self, u_sym):
        dop = tm_basis(u_sym).symmetric_involution
        B1 = functional_calculus(u_sym, 0.3, RationalSymbol.polynomial([1.0, 0.4])) @ dop
        B2 = dop @ functional_calculus(u_sym, -0.6j, RationalSymbol.polynomial([0.7, 1.0]))
        pv = tho_product_tto_test(B1, B2)
        assert not pv.in_class and not pv.direct


class TestSymbolForms:
    def test_inside_regime_product_identity(self, u_sym):
        a0 = 0.4
        dop = tm_basis(u_sym).symmetric_involution
        p1 = RationalSymbol.polynomial([0.8, 0.5, 0.3])
        p2 = RationalSymbol.polynomial([1.1, -0.2, 0.15j])
        B1 = functional_calculus(u_sym, a0, p1) @ dop
        B2 = dop @ functional_calculus(u_sym, a0, p2)
        cert = tho_product_symbol_forms(B1, B2)
        assert cert.regime == "inside"
        assert max(cert.left_residual, cert.right_residual) < 1e-10
        assert cert.product_residual < 1e-9
        # the product equals the Toeplitz operator with the product multiplier
        want = functional_calculus(u_sym, a0, p1 * p2)
        assert np.max(np.abs((B1 @ B2).matrix - want.matrix)) < 1e-9

    def test_alpha_zero_shift_square(self, u_sym):
        dop = tm_basis(u_sym).symmetric_involution
        z = RationalSymbol.monomial(1)
        B1 = functional_calculus(u_sym, 0.0, z) @ dop
        B2 = dop @ functional_calculus(u_sym, 0.0, z)
        want = np.linalg.matrix_power(tm_basis(u_sym).shift.matrix, 2)
        assert np.max(np.abs((B1 @ B2).matrix - want)) < 1e-10

    def test_outside_regime(self, u_sym):
        a1 = 1.0 / np.conj(0.4 + 0.2j)
        dop = tm_basis(u_sym).symmetric_involution
        p1 = RationalSymbol.polynomial([0.8, 0.5])
        p2 = RationalSymbol.polynomial([1.1, -0.2])
        B1 = functional_calculus(u_sym, a1, p1) @ dop
        B2 = dop @ functional_calculus(u_sym, a1, p2)
        cert = tho_product_symbol_forms(B1, B2)
        assert cert.regime == "outside"
        assert cert.product_residual < 1e-9

    def test_unimodular_regime_product_identity(self, u_sym, rng):
        dop = tm_basis(u_sym).symmetric_involution
        cdat = clark_points(u_sym, np.exp(1.2j))
        m1 = spectral_multiplier(cdat, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        m2 = spectral_multiplier(cdat, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        cert = tho_product_symbol_forms(m1 @ dop, dop @ m2)
        assert cert.regime == "unimodular"
        assert max(cert.left_residual, cert.right_residual) < 1e-8
        assert cert.product_residual < 1e-9

    def test_infinity_regime_product_identity(self):
        # factors p(S)* sit in the antianalytic class at infinity
        u = random_inner(np.random.default_rng(5), 4, real_symmetric=True)
        dop = tm_basis(u).symmetric_involution
        m1 = functional_calculus(u, 0.0, RationalSymbol.polynomial([0.6, 1.0, -0.3j, 0.2]))
        m2 = functional_calculus(u, 0.0, RationalSymbol.polynomial([1.1, 0.4j, 0.5, -0.7]))
        cert = tho_product_symbol_forms(m1.adjoint() @ dop, dop @ m2.adjoint())
        assert cert.alpha.is_infinity
        assert cert.regime == "infinity"
        assert max(cert.left_residual, cert.right_residual) < 1e-8
        assert cert.product_residual < 1e-9

    def test_product_gate(self, u_sym, monkeypatch):
        # a product form that misses B1 B2 is refused, though both fits pass
        dop = tm_basis(u_sym).symmetric_involution
        B1 = functional_calculus(u_sym, 0.4, RationalSymbol.polynomial([0.8, 0.5])) @ dop
        B2 = dop @ functional_calculus(u_sym, 0.4, RationalSymbol.polynomial([1.1, -0.2]))
        exact = products.functional_calculus
        monkeypatch.setattr(products, "functional_calculus",
                            lambda u, alpha, psi: exact(u, alpha, psi) * (1.0 + 1e-6))
        with pytest.raises(NoCertificate, match="product symbol residual"):
            tho_product_symbol_forms(B1, B2)

    def test_a_nan_fit_residual_is_refused(self, u_sym, monkeypatch):
        # a NaN right residual beside a finite left one, which max(lres, rres)
        # would drop
        dop = tm_basis(u_sym).symmetric_involution
        B1 = functional_calculus(u_sym, 0.4, RationalSymbol.polynomial([0.8, 0.5])) @ dop
        B2 = dop @ functional_calculus(u_sym, 0.4, RationalSymbol.polynomial([1.1, -0.2]))
        fit = products.class_multipliers

        def nan_right(alpha, *members):
            level, multipliers, (lres, _) = fit(alpha, *members)
            return level, multipliers, [lres, np.nan]

        monkeypatch.setattr(products, "class_multipliers", nan_right)
        with pytest.raises(NoCertificate, match="class-multiplier"):
            tho_product_symbol_forms(B1, B2)

    def test_involution_multiple_excluded(self, u_sym, rng):
        dop = tm_basis(u_sym).symmetric_involution
        w = u_sym * u_sym.hat()
        other = tho_matrix(u_sym, u_sym,
                           tm_basis(w).random_element(rng).rep().conj_circle())
        with pytest.raises(NoCertificate):
            tho_product_symbol_forms(dop, other)


class TestMixedProduct:
    def test_rank_one_mixed_identity(self, u2):
        lam = 0.3
        a = rank_one(conj_kernel(u2, lam), kernel(u2, lam))
        b1 = rank_one(conj_kernel(u2, lam), conj_kernel(u2, np.conj(lam)))
        prod = (a @ b1).matrix
        assert np.max(np.abs(prod - u2.derivative(lam) * b1.matrix)) < 1e-12
        pv = mixed_product_test(a, b1, "AB")
        assert pv.in_class and pv.direct

    def test_scalar_identity_factor(self, u_sym, rng):
        w = u_sym * u_sym.hat()
        B = tho_matrix(u_sym, u_sym, tm_basis(w).random_element(rng).rep().conj_circle())
        pv = mixed_product_test(3.0 * OperatorMatrix.identity(tm_basis(u_sym)), B, "AB")
        assert pv.in_class and pv.direct
        assert pv.witness == pytest.approx(3.0)

    def test_matched_classes_both_orders(self, u_sym, rng):
        a0 = 0.3 - 0.25j
        dop = tm_basis(u_sym).symmetric_involution
        A = functional_calculus(u_sym, a0, RationalSymbol.polynomial([0.5, 1.0, 0.2]))
        M = functional_calculus(u_sym, a0, RationalSymbol.polynomial([1.0, -0.3]))
        for order, B in (("AB", M @ dop), ("BA", dop @ M)):
            pv = mixed_product_test(A, B, order)
            assert pv.in_class and pv.direct, order

    def test_mismatch_consistent(self, u_sym):
        dop = tm_basis(u_sym).symmetric_involution
        A = functional_calculus(u_sym, 0.2, RationalSymbol.polynomial([0.3, 1.0]))
        B = functional_calculus(u_sym, 0.8j, RationalSymbol.polynomial([1.0, -0.4])) @ dop
        pv = mixed_product_test(A, B, "AB")
        assert not pv.in_class and not pv.direct


def _atho_symbol(a, b, rng):
    """A random psi in K_{a hat(b)}: the Hankel operator K_a -> K_b with symbol conj(psi)."""
    return hankel_space(a, b).random_element(rng)


def _conj_symbol(psi):
    return psi.rep().conj_circle()


# the projections that the asymmetric Hankel criteria now read off coordinates


def _reference_product_f1(psi1, v, w):
    return project(w, (v.hat().as_symbol() * _conj_symbol(psi1).hat()).conj_circle())


def _reference_product_g2(psi2, u):
    return project(u, _conj_symbol(psi2).conj_circle())


def _reference_ht_f1(psi, v, w):
    return project(w.hat(), (v.as_symbol() * _conj_symbol(psi)).conj_circle())


def _reference_th_f2(psi, u):
    return project(u.hat(), _conj_symbol(psi).hat().conj_circle())


def _three_spaces(kind, n, rng):
    if kind == "real-symmetric":
        u = random_inner(rng, n, real_symmetric=True)
        return u, u, u
    spaces = [random_inner(rng, n) for _ in range(3)]
    if kind == "zero-at-origin":
        spaces = [InnerFunction((0.0,) + s.zeros[1:], s.constant) for s in spaces]
    return spaces


def _assert_read_matches(read, reference):
    assert read.space == reference.space
    gap = np.linalg.norm(read.coords - reference.coords)
    assert gap <= 1e-12 * max(1.0, reference.norm())


SPACE_CASES = [(n, kind) for n in (1, 2, 8, 16, 32)
               for kind in ("generic", "zero-at-origin", "real-symmetric")]


class TestSymbolBlocks:
    """Each coordinate read of the asymmetric criteria against the projection it replaces."""

    @pytest.mark.parametrize("n, kind", SPACE_CASES)
    def test_product_f1(self, n, kind):
        rng = np.random.default_rng(n)
        u, v, w = _three_spaces(kind, n, rng)
        psi1 = _atho_symbol(v, w, rng)
        _, tail = symbol_blocks(psi1)
        _assert_read_matches(tm_basis(w.hat()).conjugation_U.apply(tail),
                             _reference_product_f1(psi1, v, w))

    @pytest.mark.parametrize("n, kind", SPACE_CASES)
    def test_product_g2(self, n, kind):
        rng = np.random.default_rng(n)
        u, v, w = _three_spaces(kind, n, rng)
        psi2 = _atho_symbol(u, v, rng)
        head, _ = symbol_blocks(psi2)
        _assert_read_matches(head, _reference_product_g2(psi2, u))

    @pytest.mark.parametrize("n, kind", SPACE_CASES)
    def test_hankel_toeplitz_f1(self, n, kind):
        rng = np.random.default_rng(n)
        u, v, w = _three_spaces(kind, n, rng)
        psi = _atho_symbol(v, w, rng)
        _, tail = symbol_blocks(psi)
        _assert_read_matches(tail, _reference_ht_f1(psi, v, w))

    @pytest.mark.parametrize("n, kind", SPACE_CASES)
    def test_toeplitz_hankel_f2(self, n, kind):
        rng = np.random.default_rng(n)
        u, v, w = _three_spaces(kind, n, rng)
        psi = _atho_symbol(u, v, rng)
        head, _ = symbol_blocks(psi)
        _assert_read_matches(tm_basis(u).conjugation_U.apply(head), _reference_th_f2(psi, u))

    def test_symbol_in_swapped_space_raises(self, u_generic, v_generic, rng):
        w = InnerFunction([0.6, -0.25 + 0.15j], constant=np.exp(-1.1j))
        swapped = tm_basis(w.hat() * v_generic).random_element(rng)     # K_{hat(w) v}
        with pytest.raises(SpaceMismatch):
            atho_product_tto_test(swapped, _atho_symbol(u_generic, v_generic, rng))
        with pytest.raises(SpaceMismatch):
            atho_atto_product_test(swapped, tm_basis(v_generic).random_element(rng),
                                   tm_basis(u_generic).random_element(rng), "hankel_toeplitz")


def _equal_product_pairs():
    """Two pairs (a, b) with equal products a hat(b) that split the zeros
    (x, y, z) differently: (x | y, z) and (x, y | z)."""
    x, y, z = 0.5 + 0.2j, -0.3 + 0.6j, 0.7j
    ca, cb = np.exp(0.4j), np.exp(-0.3j)
    return [(InnerFunction([x], ca), InnerFunction([np.conj(y), np.conj(z)], cb)),
            (InnerFunction([x, y], ca), InnerFunction([np.conj(z)], cb))]


class TestEqualProductPairs:
    """A psi read with its own pair, when another pair has an equal product."""

    @pytest.mark.parametrize("first", [0, 1])
    def test_each_symbol_reads_its_own_pair(self, first):
        pairs = _equal_product_pairs()
        assert pairs[0][0] * pairs[0][1].hat() == pairs[1][0] * pairs[1][1].hat()
        coords = np.array([0.3 - 0.1j, -0.7 + 0.4j, 0.2 + 0.9j])
        with quadrature.use(quadrature.Evaluation()):
            spaces = {k: hankel_space(*pairs[k]) for k in (first, 1 - first)}
            assert spaces[0] == spaces[1] and spaces[0] is not spaces[1]
            for k, (a, b) in enumerate(pairs):
                psi = spaces[k].element(coords)
                head, tail = symbol_blocks(psi)
                _assert_read_matches(head, _reference_product_g2(psi, a))
                _assert_read_matches(tail, _reference_ht_f1(psi, a, b))
                want = psi.rep().values_at(64)
                assert np.max(np.abs(hankel_symbol(psi).values_at(64) - want)) < 1e-13
                got = _element_tho(psi)
                ref = tho_by_pairing(a, b, _conj_symbol(psi))
                assert (got.domain.generator, got.codomain.generator) == (a, b)
                assert np.max(np.abs(got.matrix - ref.matrix)) < 1e-13


class TestMiddleSpaces:
    """The asymmetric criteria read u, v and w off their operands and refuse
    operands whose middle spaces differ before pairing anything."""

    def test_hankel_factors_through_different_middle_spaces_raise(self, rng):
        u, v, w, x = (random_inner(rng, n) for n in (3, 4, 2, 5))
        psi1, psi2 = _atho_symbol(x, w, rng), _atho_symbol(u, v, rng)
        with quadrature.tally() as own, pytest.raises(SpaceMismatch):
            atho_product_tto_test(psi1, psi2)
        assert own.pairings == 0

    def test_toeplitz_parts_from_another_space_raise(self, rng):
        u, v, w, x = (random_inner(rng, n) for n in (3, 4, 2, 5))
        wrong = tm_basis(x).random_element(rng)
        for args in ((_atho_symbol(v, w, rng), wrong, tm_basis(u).random_element(rng),
                      "hankel_toeplitz"),
                     (_atho_symbol(u, v, rng), tm_basis(w).random_element(rng), wrong,
                      "toeplitz_hankel")):
            with quadrature.tally() as own, pytest.raises(SpaceMismatch):
                atho_atto_product_test(*args)
            assert own.pairings == 0


class TestAsymHankelProduct:
    def test_random_consistent(self, u_generic, v_generic, rng):
        w = InnerFunction([0.6, -0.25 + 0.15j], constant=np.exp(-1.1j))
        for _ in range(3):
            pv = atho_product_tto_test(_atho_symbol(v_generic, w, rng),
                                       _atho_symbol(u_generic, v_generic, rng))
            assert pv.consistent

    def test_zero_factor(self, u_generic, v_generic, rng):
        zero_sym = hankel_space(u_generic, v_generic).kernel0
        assert np.max(np.abs(
            tho_matrix(u_generic, v_generic, _conj_symbol(zero_sym)).matrix)) < 1e-10
        w = InnerFunction([0.6], constant=1.0)
        pv = atho_product_tto_test(_atho_symbol(v_generic, w, rng), zero_sym)
        assert pv.in_class and pv.direct

    def test_two_by_two_hand_case(self, u2):
        # both factors are the antidiagonal-corner Hankel operators: the
        # symbol conj(z), so psi = z in K_{z^4}
        zbar = RationalSymbol.monomial(-1)
        psi = hankel_space(u2, u2).element([0, 1, 0, 0])
        pv = atho_product_tto_test(psi, psi)
        prod = tho_matrix(u2, u2, zbar) @ tho_matrix(u2, u2, zbar)
        # product is diag(1, 0) acting through rank-one corners: a Toeplitz
        # operator iff the direct test says so; the criterion must agree
        assert pv.consistent
        assert pv.direct == is_tto(prod, recover=False).is_member

    def test_true_instance_from_class_pair(self, u_sym, rng):
        dop = tm_basis(u_sym).symmetric_involution
        a0 = 0.4
        B1 = functional_calculus(u_sym, a0, RationalSymbol.polynomial([0.8, 0.5])) @ dop
        B2 = dop @ functional_calculus(u_sym, a0, RationalSymbol.polynomial([1.1, -0.2]))
        s1, s2 = is_tho(B1), is_tho(B2)
        pv = atho_product_tto_test(s1.symbol_element, s2.symbol_element)
        assert pv.in_class and pv.direct

    def test_equal_witness_specialization(self, u_sym, rng):
        # a unitary factor against its hatted symbol: the product is the
        # identity and the two cross-decomposition witnesses coincide
        cdat = clark_points(u_sym, np.exp(0.8j))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        B = tm_basis(u_sym).symmetric_involution @ spectral_multiplier(cdat, phases)
        s = is_tho(B)
        prod = tho_matrix(u_sym, u_sym, s.symbol) @ tho_matrix(u_sym, u_sym, s.symbol.hat())
        assert np.max(np.abs(prod.matrix - np.eye(3))) < 1e-9
        pv = atho_product_tto_test(s.symbol_element, hatted_symbol(s.symbol_element))
        assert pv.in_class and pv.direct
        _, gap = symmetric_witness(pv.witness[0], pv.witness[1], kernel(u_sym, 0.0))
        assert gap < 1e-8


class TestAsymMixedProduct:
    def test_random_both_orders(self, u_generic, v_generic, rng):
        w = InnerFunction([0.6, -0.25 + 0.15j], constant=np.exp(-1.1j))
        pv = atho_atto_product_test(
            _atho_symbol(v_generic, w, rng), tm_basis(v_generic).random_element(rng),
            tm_basis(u_generic).random_element(rng), "hankel_toeplitz")
        assert pv.consistent
        pv = atho_atto_product_test(
            _atho_symbol(u_generic, v_generic, rng), tm_basis(w).random_element(rng),
            tm_basis(v_generic).random_element(rng), "toeplitz_hankel")
        assert pv.consistent

    def test_constant_toeplitz_factor(self, u_generic, v_generic, rng):
        w = InnerFunction([0.6], constant=1.0)
        psi = _atho_symbol(v_generic, w, rng)
        psi1 = 2.0 * kernel(v_generic, 0.0)     # the symbol of twice the identity
        psi2 = tm_basis(u_generic).element(np.zeros(u_generic.degree))
        pv = atho_atto_product_test(psi, psi1, psi2, "hankel_toeplitz")
        assert pv.in_class and pv.direct

    def test_true_instances_both_orders(self, u_sym, rng):
        a0 = 0.3
        dop = tm_basis(u_sym).symmetric_involution
        A = functional_calculus(u_sym, a0, RationalSymbol.polynomial([0.5, 1.0, 0.2]))
        mA = is_tto(A)
        for order, B in (("hankel_toeplitz",
                          dop @ functional_calculus(u_sym, a0, RationalSymbol.polynomial([1.0, -0.3]))),
                         ("toeplitz_hankel",
                          functional_calculus(u_sym, a0, RationalSymbol.polynomial([1.0, 0.4])) @ dop)):
            mB = is_tho(B)
            pv = atho_atto_product_test(mB.symbol_element, mA.analytic_part,
                                        mA.conjugate_part, order)
            assert pv.in_class and pv.direct, order

    def test_adjoint_transport_agreement(self, u_generic, v_generic, rng):
        w = InnerFunction([0.6, -0.25 + 0.15j], constant=np.exp(-1.1j))
        psi = _atho_symbol(u_generic, v_generic, rng)
        psi1 = tm_basis(w).random_element(rng)
        psi2 = tm_basis(v_generic).random_element(rng)
        pv_th = atho_atto_product_test(psi, psi1, psi2, "toeplitz_hankel")
        pv_adj = atho_atto_product_test(hatted_symbol(psi), psi2, psi1, "hankel_toeplitz")
        assert pv_th.in_class == pv_adj.in_class
        assert pv_th.direct == pv_adj.direct


class TestProductChains:
    def test_random_chains_agree(self, u_generic, v_generic, rng):
        w = InnerFunction([0.6, -0.25 + 0.15j], constant=np.exp(-1.1j))
        for _ in range(3):
            res = membership_transport_chain(_conj_symbol(_atho_symbol(v_generic, w, rng)),
                                             _conj_symbol(_atho_symbol(u_generic, v_generic, rng)),
                                             u_generic, v_generic, w)
            assert len(set(res["hankel"])) == 1
            assert len(set(res["toeplitz"])) == 1

    def test_analytic_first_symbol_gives_zero(self, u_generic, v_generic, rng):
        w = InnerFunction([0.6], constant=1.0)
        res = membership_transport_chain(RationalSymbol.polynomial([1.0, 0.5]),
                                         _conj_symbol(_atho_symbol(u_generic, v_generic, rng)),
                                         u_generic, v_generic, w)
        assert all(res["hankel"]) and all(res["toeplitz"])

    def test_true_instance(self, u_sym, rng):
        dop = tm_basis(u_sym).symmetric_involution
        a0 = 0.4
        B1 = functional_calculus(u_sym, a0, RationalSymbol.polynomial([0.8, 0.5])) @ dop
        B2 = dop @ functional_calculus(u_sym, a0, RationalSymbol.polynomial([1.1, -0.2]))
        s1, s2 = is_tho(B1), is_tho(B2)
        res = membership_transport_chain(s1.symbol, s2.symbol, u_sym, u_sym, u_sym)
        assert all(res["toeplitz"])
        assert len(set(res["hankel"])) == 1
