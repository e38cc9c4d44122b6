"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Each criterion drives the
library through the harness checks at the required instance counts and
tolerances; failing trials embed replayable instance payloads in the
assertion message.
"""

import time

import numpy as np

from truncops import ExtendedScalar, RationalSymbol, monomial_inner
from truncops.classify import sedlock_class
from truncops.harness import CHECKS, _trial_seed, generate_instance, run_trial
from truncops.modelspace import conj_kernel, kernel
from truncops.operators import rank_one, tho_matrix, tto_matrix
from truncops.products import mixed_product_test, tho_product_tto_test

SEED = 20260810
_timings: dict[str, float] = {}


def _sweep(cid: str, trials: int, degree_range, symbol_range=(1, 3)):
    """Run `trials` independent instances of one registered check."""
    cons = dict(CHECKS[cid].constraints)
    cons["operation"] = cid
    failures = []
    max_resid = 0.0
    t0 = time.perf_counter()
    for i in range(trials):
        problem = generate_instance(_trial_seed(SEED, cid, i), degree_range,
                                    symbol_range, cons)
        result = run_trial(cid, problem)
        if np.isfinite(result.residual):
            max_resid = max(max_resid, result.residual)
        if not result.passed:
            failures.append((i, result.error, result.details, problem.to_json()))
    elapsed = time.perf_counter() - t0
    _timings[cid] = _timings.get(cid, 0.0) + elapsed
    return failures, max_resid, elapsed


def _report(name: str, failures, max_resid, trials, elapsed):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}: {trials - len(failures)}/{trials} trials, "
          f"max residual {max_resid:.3g}, {elapsed:.1f}s")
    assert not failures, f"{name}: {len(failures)} failing trials; first: {failures[0]}"


def test_criterion_1_kernel_conjugation_core():
    failures, resid, dt = _sweep("kernel-core", 200, (1, 8))
    _report("criterion-1 kernel/conjugation core (200 @ deg<=8, 1e-9)",
            failures, resid, 200, dt)
    assert dt < 10.0, f"criterion 1 must run in under 10 s, took {dt:.1f}s"


def test_criterion_2_structure_displacements():
    failures, resid, dt = _sweep("displacement-roundtrip", 200, (1, 6))
    _report("criterion-2 displacement + symbol round trip (200, 1e-9/1e-8)",
            failures, resid, 200, dt)


def test_criterion_3_defects_and_rank_one():
    failures, resid, dt = _sweep("defect-rank-one", 100, (2, 6))
    _report("criterion-3 defects and rank-one identities (100, 1e-8)",
            failures, resid, 100, dt)


def test_criterion_4_sedlock_machinery():
    # each trial includes the adjoint law and a same-class product pair
    failures, resid, dt = _sweep("sedlock-roundtrip", 200, (2, 8))
    _report("criterion-4 class roundtrip/adjoint/closure (200, |a|<=0.9, 1e-8)",
            failures, resid, 200, dt)
    # on a one-dimensional K_u every operator is scalar, so a trial passes
    # only where sedlock_class says "all"
    failures, resid, dt = _sweep("sedlock-roundtrip", 20, (1, 1))
    _report("criterion-4 class roundtrip at degree 1 (20, membership all)",
            failures, resid, 20, dt)


def test_criterion_5_clark_regime():
    failures, resid, dt = _sweep("clark-unitary", 50, (1, 8))
    _report("criterion-5 unitary perturbation spectrum (50, 1e-10/1e-8)",
            failures, resid, 50, dt)


def test_criterion_6_conjugation_dictionary():
    f1, r1, t1 = _sweep("conjugation-dictionary", 100, (2, 6))
    f2, r2, t2 = _sweep("membership-transport", 100, (2, 6))
    f3, r3, t3 = _sweep("involution-identities", 100, (2, 6))
    _report("criterion-6 eight identities (100, 1e-9)", f1, r1, 100, t1)
    _report("criterion-6 six transports (100)", f2, r2, 100, t2)
    _report("criterion-6 involution + hat transport (100, 1e-9)", f3, r3, 100, t3)


def test_criterion_7_structural_reports():
    # 50 trials x (one unitary + one generic) = 100 mixed instances
    f1, r1, t1 = _sweep("hankel-unitary", 50, (2, 6))
    f2, r2, t2 = _sweep("hankel-inverse", 20, (2, 6))
    f3, r3, t3 = _sweep("hankel-zero-product", 20, (2, 6))
    f4, r4, t4 = _sweep("cross-space-unitary", 20, (2, 6))
    _report("criterion-7 unitarity six-way agreement (100 mixed)", f1, r1, 50, t1)
    _report("criterion-7 inverse class chain (20)", f2, r2, 20, t2)
    _report("criterion-7 zero products (20, <1e-9 vs >1e-3)", f3, r3, 20, t3)
    _report("criterion-7 hat-space unitarity/zero products (20)", f4, r4, 20, t4)


def test_criterion_8_product_criteria():
    per_check = {
        "atto-product": "Toeplitz pair criterion",
        "hankel-product-toeplitz": "Hankel pair criterion",
        "hankel-product-symbols": "Hankel pair symbol forms",
        "mixed-product": "mixed product criterion",
        "atho-product-toeplitz": "asymmetric Hankel pair criterion",
        "atho-product-true": "asymmetric Hankel pair, forward instances",
        "atho-atto-product": "asymmetric mixed criterion",
        "atho-atto-true": "asymmetric mixed, forward instances",
        "product-chain": "four-way membership chains",
    }
    for cid, label in per_check.items():
        failures, resid, dt = _sweep(cid, 200, (2, 6))
        _report(f"criterion-8 {label} (200, zero disagreements)",
                failures, resid, 200, dt)


def test_criterion_8_worked_example_identities():
    u = monomial_inner(2)
    lam = 0.3
    b1 = rank_one(conj_kernel(u, lam), conj_kernel(u, np.conj(lam)))
    b2 = rank_one(kernel(u, np.conj(lam)), kernel(u, lam))
    a = rank_one(conj_kernel(u, lam), kernel(u, lam))
    r1 = np.max(np.abs((b1 @ b2).matrix
                       - np.conj(u.derivative(np.conj(lam))) * a.matrix))
    r2 = np.max(np.abs((a @ b1).matrix - u.derivative(lam) * b1.matrix))
    pv1 = tho_product_tto_test(b1, b2)
    pv2 = mixed_product_test(a, b1, "AB")
    rep = sedlock_class(a)
    ok = (r1 < 1e-9 and r2 < 1e-9 and pv1.in_class and pv1.direct
          and pv2.in_class and pv2.direct
          and rep.alpha.isclose(ExtendedScalar.finite(u(lam)), 1e-8))
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-8 worked rank-one example "
          f"identities (residuals {r1:.2e}, {r2:.2e}, class {rep.alpha})")
    assert ok


def test_criterion_9_numerical_hygiene():
    failures, resid, dt = _sweep("quadrature-hygiene", 30, (1, 4))
    _report("criterion-9 oracle + node-doubling stability (30 random, 1e-11)",
            failures, resid, 30, dt)
    # deterministic pass over every monomial degree with a wide Laurent symbol
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for n in range(1, 9):
        u = monomial_inner(n)
        coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for k in range(-12, 13)}
        sym = RationalSymbol.from_laurent(coeffs)
        A = tto_matrix(u, u, sym).matrix
        B = tho_matrix(u, u, sym).matrix
        toeplitz = np.array([[coeffs.get(i - j, 0.0) for j in range(n)]
                             for i in range(n)])
        hankel = np.array([[coeffs.get(-(i + j + 1), 0.0) for j in range(n)]
                           for i in range(n)])
        worst = max(worst, np.max(np.abs(A - toeplitz)), np.max(np.abs(B - hankel)))
    print(f"[{'PASS' if worst < 1e-11 else 'FAIL'}] criterion-9 exact Fourier "
          f"oracle, n<=8, |k|<=12 (worst entry error {worst:.3g})")
    assert worst < 1e-11


def test_total_runtime_within_target():
    total = sum(_timings.values())
    print(f"[INFO] acceptance sweeps total: {total:.1f}s (target < 120s)")
    assert total < 120.0, f"acceptance sweeps took {total:.1f}s"
