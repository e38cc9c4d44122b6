import hashlib
import json
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncops import CHECKS, ProblemSpec, SuiteConfig, generate_instance, replay, run_suite
from truncops import classify, cli, harness, products, quadrature
from truncops.cli import main, parse_inner, parse_scalar
from truncops.errors import InvalidRange
from truncops.harness import run_trial
from truncops.blaschke import InnerFunction
from truncops.modelspace import GRAM_TOL, ModelSpaceBasis, tm_basis
from truncops.quadrature import QUAD_START, QuadratureSettings


SEED7_REPORT = Path(__file__).parent / "data" / "seed7_report.json"

# the checks that fail every degree-1 trial, with the error or the flags
# that fail them (ROADMAP item 3)
DEGREE_ONE_FAILURES = {
    "atto-product": {"cross_class_consistent": False},
    "cross-space-unitary": {"generic_conditions": [False, False, True, True, False],
                            "zero_product": [True, True, False]},
    "hankel-inverse": {"alpha": "1+0j", "inverse_alpha": "1+0j"},
    "hankel-product-symbols": "NoCertificate: a factor is a scalar multiple of the involution",
    "hankel-product-toeplitz": {"mismatch_consistent": False},
    "hankel-unitary": {"generic_conditions": [False, False, False, True, True, False]},
    "hankel-zero-product": {"clark_verdict": False},
    "involution-identities": {"transport_ok": False, "transport_ok_infinity": False},
    "mixed-product": {"mismatch_consistent": False},
    "rank-one-examples": {"class_is_u_of_lambda": False, "criterion": False},
}


def _first_difference(got: dict, want: dict) -> str:
    """Where a report first differs from the wanted one: a top-level field,
    else the first check and field, by the wanted report's order."""
    for key in dict.fromkeys([*want, *got]):
        if key != "checks" and got.get(key) != want.get(key):
            return f"field {key!r}: {want.get(key)!r} -> {got.get(key)!r}"
    for g, w in zip_longest(got.get("checks", []), want.get("checks", []), fillvalue={}):
        for field in dict.fromkeys([*w, *g]):
            if g.get(field) != w.get(field):
                return (f"check {w.get('id', g.get('id'))!r}, field {field!r}: "
                        f"{w.get(field)!r} -> {g.get(field)!r}")
    return "no field differs"


class TestGeneration:
    def test_deterministic(self):
        a = generate_instance(1, (2, 4), (1, 3), {"spaces": 3})
        b = generate_instance(1, (2, 4), (1, 3), {"spaces": 3})
        assert a.to_json() == b.to_json()

    def test_real_symmetric_constraint(self):
        p = generate_instance(1, (2, 2), (1, 1), {"real_symmetric": True})
        u = p.inner_u()
        assert u.is_real_symmetric()
        assert abs(u.constant.imag) == 0.0

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            generate_instance(1, (0, 4), (1, 3))
        with pytest.raises(InvalidRange):
            generate_instance(1, (2, 40), (1, 3))

    def test_invariant_sweep(self):
        # every generated inner function satisfies the construction invariants
        for seed in range(1000):
            p = generate_instance(seed, (1, 6), (0, 2), {"spaces": 1})
            u = p.inner_u()   # constructor revalidates zeros and constant
            assert all(abs(a) <= 0.85 + 1e-12 for a in u.zeros)

    def test_roundtrip_json(self):
        p = generate_instance(5, (2, 3), (1, 2), {"spaces": 2, "operation": "x"})
        q = ProblemSpec.from_json(json.dumps(p.to_json()))
        assert q.to_json() == p.to_json()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), check=st.sampled_from(sorted(CHECKS)),
           degrees=st.lists(st.integers(1, 32), min_size=2, max_size=2).map(sorted),
           symbol_degrees=st.lists(st.integers(0, 8), min_size=2, max_size=2).map(sorted))
    def test_every_generated_spec_round_trips(self, seed, check, degrees, symbol_degrees):
        # every registered check's constraints, at degrees across [1, MAX_DEGREE]
        constraints = dict(CHECKS[check].constraints, operation=check)
        s = generate_instance(seed, tuple(degrees), tuple(symbol_degrees), constraints)
        text = json.dumps(s.to_json())
        assert ProblemSpec.from_json(json.loads(text)).to_json() == s.to_json()


class TestSuite:
    def test_small_run_passes(self):
        rep = run_suite(SuiteConfig(seed=3, trials=2))
        assert rep.overall_pass, rep.human_summary()
        assert {c["id"] for c in rep.checks} == set(CHECKS)

    @pytest.mark.parametrize("seed, check", [(303, "atho-atto-true"),
                                             (329, "atho-product-true")])
    def test_high_degree_class_products_pass(self, seed, check):
        # both trials failed while the calculus paired a Toeplitz symbol by
        # quadrature: criterion and direct test disagreed at seed 303, and the
        # first factor pair came out not in class at seed 329
        rep = run_suite(SuiteConfig(seed=seed, trials=1, degree_range=(30, 32),
                                    checks=[check]))
        assert rep.overall_pass, rep.human_summary()

    @pytest.mark.parametrize("seed", [328, 385])
    def test_zero_product_gate_scales_with_the_factors(self, seed, monkeypatch):
        # degrees 23-25: ||B1 B2|| sits near 1e-9 against large factor norms,
        # a rounding-level product that an absolute 1e-9 gate failed (seed
        # 328) or failed and passed by the BLAS thread count (seed 385)
        products = []
        analyse = classify.zero_product_analysis
        def spy(B1, B2, *args):
            products.append((B1.matrix, B2.matrix))
            return analyse(B1, B2, *args)
        monkeypatch.setattr(classify, "zero_product_analysis", spy)
        rep = run_suite(SuiteConfig(seed=seed, trials=1, degree_range=(23, 25),
                                    checks=["hankel-zero-product"]))
        assert rep.overall_pass, rep.human_summary()
        assert len(products) == 2
        for B1, B2 in products:
            ratio = np.linalg.norm(B1 @ B2) / (np.linalg.norm(B1) * np.linalg.norm(B2))
            assert ratio < 1e-12

    @pytest.mark.parametrize("seed", [303, 304, 305])
    def test_high_degree_sweep_fails_only_hankel_inverse(self, seed):
        # one trial per check in a low and a high band of suite-high: nothing
        # fails at degrees 16-18, and at 30-32 only hankel-inverse may, where
        # cond(B) passes COND_LIMIT and tho_inverse_class refuses to invert
        rep = run_suite(SuiteConfig(seed=seed, trials=1, degree_range=(16, 18)))
        assert rep.overall_pass, rep.human_summary()
        rep = run_suite(SuiteConfig(seed=seed, trials=1, degree_range=(30, 32)))
        failed = {c["id"]: c for c in rep.checks if c["failures"]}
        assert set(failed) <= {"hankel-inverse"}, rep.human_summary()
        for check in failed.values():
            for ce in check["counterexamples"]:
                assert ce["error"].startswith("Singular"), ce["error"]

    @pytest.mark.parametrize("seed", [101, 102, 103, 104, 105])
    def test_degree_one_sweep_fails_as_recorded(self, seed):
        # at degree 1, K_u is one-dimensional: every operator is a scalar and
        # lies in every class, and these ten checks expect what a larger
        # space gives.  This pins today's failing set, each with its error or
        # its false flags, so that a mend or a new failure shows here
        rep = run_suite(SuiteConfig(seed=seed, trials=1, degree_range=(1, 1)))
        failed = {c["id"]: c["counterexamples"] for c in rep.checks if c["failures"]}
        assert set(failed) == set(DEGREE_ONE_FAILURES), rep.human_summary()
        for cid, want in DEGREE_ONE_FAILURES.items():
            (ce,) = failed[cid]
            if isinstance(want, str):
                assert ce["error"] == want, cid
                continue
            assert ce["error"] is None, cid
            details = json.loads(json.dumps(ce["details"]))
            assert {k: details[k] for k in want} == want, cid

    @pytest.mark.parametrize("seed, band", [(303, (16, 18)), (304, (16, 18)),
                                            (303, (23, 25)), (304, (23, 25))])
    def test_hankel_inverse_passes_at_high_degree(self, seed, band):
        # the class certificates of D B sit near 1e-6 to 0.4 in absolute
        # terms against ||D B||_F of 1e9 to 1e15, a rounding-level fit that an
        # absolute 1e-8 gate failed; the library's norm-relative gate passes
        rep = run_suite(SuiteConfig(seed=seed, trials=1, degree_range=band,
                                    checks=["hankel-inverse"]))
        assert rep.overall_pass, rep.human_summary()

    @pytest.mark.parametrize("check", ["hankel-inverse", "hankel-product-symbols"])
    def test_class_certificate_gate_still_rejects(self, check, monkeypatch):
        # negative control: class multiplier fits whose residual exceeds
        # REBUILD_TOL * max(1, ||M||_F) fail the trial with NoCertificate
        fit = classify.class_multipliers

        def inflated(alpha, *members):
            level, multipliers, _ = fit(alpha, *members)
            return level, multipliers, [
                2 * classify.REBUILD_TOL * max(1.0, float(np.linalg.norm(M.matrix)))
                for M in members]

        monkeypatch.setattr(classify, "class_multipliers", inflated)
        monkeypatch.setattr(products, "class_multipliers", inflated)
        rep = run_suite(SuiteConfig(seed=3, trials=3, checks=[check]))
        (report,) = rep.checks
        assert report["failures"] == 3
        for ce in report["counterexamples"]:
            assert ce["error"].startswith("NoCertificate"), ce["error"]

    def test_byte_determinism(self):
        r1 = run_suite(SuiteConfig(seed=7))
        r2 = run_suite(SuiteConfig(seed=7))
        got = r1.json_bytes()
        assert got == r2.json_bytes()
        # a change that moves the reports on purpose rewrites the committed
        # report (`truncops verify-suite --seed 7 --json > tests/data/seed7_report.json`)
        # and this digest; a mismatch names the first check and field that moved
        want = SEED7_REPORT.read_bytes()
        assert got + b"\n" == want, _first_difference(json.loads(got), json.loads(want))
        assert hashlib.sha256(got).hexdigest() == \
            "f09e01ff8b5ccc7e41e44143417fdce831261f1689fb5cb2a5bc3b407b07e446"

    def test_high_band_byte_determinism(self):
        # degrees 30-32, where the poles, the reach and the weights of the
        # zeros pick the quadrature levels and shape every operator
        got = run_suite(SuiteConfig(seed=7, trials=1, degree_range=(30, 32))).json_bytes()
        assert hashlib.sha256(got).hexdigest() == \
            "5eb96f243ecdf5df94785c87b6d9794c8503d051c5ceb31eed9f04dc826ed35c"

    def test_first_difference_names_the_check_and_field(self):
        want = json.loads(SEED7_REPORT.read_bytes())
        got = json.loads(SEED7_REPORT.read_bytes())
        assert _first_difference(got, want) == "no field differs"
        got["checks"][3]["max_residual"] *= 2
        got["checks"][5]["passes"] -= 1
        said = _first_difference(got, want)
        assert said.startswith(f"check {want['checks'][3]['id']!r}, field 'max_residual': ")
        got["quadrature"]["pairings"] += 1
        assert _first_difference(got, want).startswith("field 'quadrature': ")

    def test_zero_trials_fails_build(self):
        rep = run_suite(SuiteConfig(seed=1, trials=0, checks=["kernel-core"]))
        assert not rep.overall_pass

    def test_negative_trials_rejected(self):
        with pytest.raises(InvalidRange, match="trials"):
            run_suite(SuiteConfig(seed=1, trials=-1, checks=["kernel-core"]))

    def test_check_filter(self):
        rep = run_suite(SuiteConfig(seed=1, trials=1,
                                    checks=["kernel-core", "clark-unitary"]))
        assert [c["id"] for c in rep.checks] == ["kernel-core", "clark-unitary"]

    def test_repeated_check_runs_once(self):
        rep = run_suite(SuiteConfig(seed=1, trials=1,
                                    checks=["clark-unitary", "kernel-core", "clark-unitary"]))
        assert [c["id"] for c in rep.checks] == ["clark-unitary", "kernel-core"]

    def test_unknown_check_rejected(self):
        with pytest.raises(InvalidRange):
            run_suite(SuiteConfig(checks=["no-such-check"]))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(InvalidRange, match="tol"):
            run_suite(SuiteConfig(seed=1, trials=1, checks=["kernel-core"], tol=tol))

    def test_fault_injection_surfaces_per_trial(self):
        bad = QuadratureSettings(tol=1e-15, start=64, cap=128)
        rep = run_suite(SuiteConfig(seed=2, trials=2, quad=bad,
                                    checks=["conjugation-dictionary"]))
        # the suite completes; failures carry the error label instead of dying
        assert not rep.overall_pass
        errs = [ce.get("error") for c in rep.checks for ce in c["counterexamples"]]
        assert any(e and "NoConvergence" in e for e in errs)

    def test_replay_reproduces_residual(self):
        # force failures with an absurd tolerance, then replay the embedded spec
        rep = run_suite(SuiteConfig(seed=11, trials=2, checks=["kernel-core"], tol=1e-30))
        assert not rep.overall_pass
        ce = rep.checks[0]["counterexamples"][0]
        problem = ProblemSpec.from_json(ce["problem"])
        again = run_trial("kernel-core", problem)
        assert abs(again.residual - ce["residual"]) < 1e-14

    def test_replay_helper(self):
        p = generate_instance(4, (2, 3), (1, 2),
                              {"spaces": 1, "operation": "kernel-core"})
        r1 = replay(p.to_json())
        r2 = replay(p.to_json())
        assert r1.passed == r2.passed
        assert r1.residual == r2.residual

    def test_kernel_core_fails_on_corrupted_basis_values(self, monkeypatch):
        # negative control of the Gram oracle: scaling one basis column by
        # 1 + 1e-10 moves the Gram matrix off the identity by about 2e-10,
        # past GRAM_TOL, while every other residual stays under the main 1e-9
        problem = generate_instance(5, (2, 4), (1, 3),
                                    dict(CHECKS["kernel-core"].constraints,
                                         operation="kernel-core"))
        with quadrature.use(quadrature.Evaluation()):
            assert run_trial("kernel-core", problem).passed
        values = ModelSpaceBasis.values

        def corrupted(space, m):
            out = values(space, m).copy()
            out[:, 0] *= 1 + 1e-10
            return out

        monkeypatch.setattr(ModelSpaceBasis, "values", corrupted)
        with quadrature.use(quadrature.Evaluation()):
            result = run_trial("kernel-core", problem)
        assert not result.passed and result.error is None
        assert GRAM_TOL < result.details["gram"] < 1e-9
        assert result.residual < problem.tolerances.get("main", 1e-9)

    def test_atho_product_true_fails_when_unitary_factor_not_hankel(self, monkeypatch):
        # is_tho rejecting the unitary factor fails the trial instead of raising
        from truncops.modelspace import OperatorMatrix, tm_basis

        def not_hankel(u, rng):
            space = tm_basis(u)
            mat = np.arange(1, space.dim**2 + 1, dtype=complex).reshape(space.dim, -1)
            out = OperatorMatrix(mat, space, space)
            assert not classify.is_tho(out).is_member
            return out

        monkeypatch.setattr(harness, "_unitary_hankel", not_hankel)
        check = CHECKS["atho-product-true"]
        problem = generate_instance(harness._trial_seed(3, check.id, 0), (2, 3), (1, 3),
                                    dict(check.constraints, operation=check.id))
        result = run_trial(check.id, problem)
        assert not result.passed
        assert result.details["error"] == "unitary factor not Hankel"
        assert result.error is None

    def test_unitary_hankel_factor_is_member_at_degree_32(self):
        # suite seed 329, degrees 30-32: the first trial of atho-product-true.
        # With boundary kernels evaluated through expanded coefficients,
        # is_tho rejected this factor, Hankel by construction.
        check = CHECKS["atho-product-true"]
        seed = harness._trial_seed(329, check.id, 0)
        assert seed == 3549765280
        problem = generate_instance(seed, (30, 32), SuiteConfig().symbol_degree_range,
                                    dict(check.constraints, operation=check.id))
        u = problem.inner_u()
        assert u.degree == 32
        rng = np.random.default_rng(problem.seed)
        harness._class_hankel_pair(u, harness.ExtendedScalar.finite(problem.param_c("alpha")),
                                   rng)
        assert classify.is_tho(harness._unitary_hankel(u, rng)).is_member


class TestClusteredZeros:
    @pytest.mark.parametrize("n", [24, 32])
    def test_defect_rank_one_passes(self, n):
        # zeros on one side of the circle, which the uniform draw never visits:
        # the boundary kernels and the interior symbol v/(z - lambda) are
        # evaluated factored, so their pairings converge and the identities hold
        rng = np.random.default_rng(n)
        problem = generate_instance(n, (n, n), (1, 3), dict(
            CHECKS["defect-rank-one"].constraints, operation="defect-rank-one"))
        problem = ProblemSpec.from_json(dict(
            problem.to_json(), u=harness.clustered_inner(rng, n).to_json(),
            v=harness.clustered_inner(rng, n - 1).to_json()))
        got = run_trial("defect-rank-one", problem)
        assert got.passed, got.error
        assert got.details["rank_one_boundary"] < 1e-12


class TestEvaluationContext:
    def test_threaded_suites_match_sequential(self):
        from concurrent.futures import ThreadPoolExecutor
        cfgs = [SuiteConfig(seed=7, trials=1), SuiteConfig(seed=8, trials=1)]
        sequential = [run_suite(c).json_bytes() for c in cfgs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = [r.json_bytes() for r in pool.map(run_suite, cfgs)]
        assert threaded == sequential

    def test_suite_leaves_session_state_alone(self, u_generic):
        from truncops import quadrature
        from truncops.modelspace import tm_basis
        space = tm_basis(u_generic)
        before = quadrature.STATS.snapshot()
        run_suite(SuiteConfig(seed=1, trials=1, checks=["kernel-core"]))
        assert tm_basis(u_generic) is space
        assert quadrature.STATS.snapshot() == before

    def test_suite_memo_holds_four_builders(self, monkeypatch):
        # each generator's operators are held by its basis, so the memo of a
        # suite run has the tables of tm_basis, hankel_space, cross_gram and
        # the warm pairs of spaces only
        made, evaluation = [], quadrature.Evaluation
        monkeypatch.setattr(quadrature, "Evaluation",
                            lambda *args: made.append(evaluation(*args)) or made[-1])
        run_suite(SuiteConfig(seed=7, trials=1))
        monkeypatch.undo()
        (ev,) = made
        assert {build.__name__ for build in ev.memo.tables} == {"tm_basis", "hankel_space",
                                                                 "cross_gram", "_warm_pair"}

    def test_quadrature_cap_below_first_level(self):
        # the first level of the default start floor is 2 * QUAD_START nodes
        rep = run_suite(SuiteConfig(seed=3, trials=1, quad=QuadratureSettings(cap=QUAD_START)))
        # the suite completes and nothing is paired: every trial fails on the
        # cap, except those of the checks that make no pairing at all
        # (membership-transport builds from a Laurent symbol, in closed form)
        exact = {"clark-unitary", "hankel-zero-product", "hankel-product-symbols",
                 "rank-one-examples", "membership-transport"}
        assert rep.quadrature_stats["pairings"] == 0
        for c in rep.checks:
            if c["id"] in exact:
                assert c["failures"] == 0, c["id"]
                continue
            assert c["failures"] == c["trials"] == 1, c["id"]
            assert "NoConvergence" in c["counterexamples"][0]["error"]

    def test_hygiene_honours_suite_settings(self):
        # the doubled builds run at twice the level the first ones reached:
        # a cap between the two admits the first builds and stops the doubled
        # ones, whose error names the suite's tol and cap
        alone = dict(seed=7, trials=1, checks=["quadrature-hygiene"])
        doubled = run_suite(SuiteConfig(**alone)).quadrature_stats["max_nodes"]
        quad = QuadratureSettings(tol=3e-12, cap=doubled - 1)
        rep = run_suite(SuiteConfig(**alone, quad=quad))
        (check,) = rep.checks
        assert check["failures"] == 1
        assert 0 < rep.quadrature_stats["max_nodes"] <= doubled // 2
        error = check["counterexamples"][0]["error"]
        assert error.startswith("NoConvergence")
        assert f"to 3e-12 within {doubled - 1} nodes" in error

    def test_hygiene_doubles_the_level_of_its_first_builds(self, monkeypatch):
        levels = []
        record = quadrature._Stats.record
        def spy(stats, m):
            levels.append(m)
            record(stats, m)
        monkeypatch.setattr(quadrature._Stats, "record", spy)
        problem = generate_instance(5, (2, 4), (1, 3), dict(CHECKS["quadrature-hygiene"].constraints,
                                                            operation="quadrature-hygiene"))
        with quadrature.use(quadrature.Evaluation()):
            assert run_trial("quadrature-hygiene", problem).passed
        # the two first builds (a basis build makes no pairing), then the two
        # doubled builds
        first, doubled = levels[:-2], levels[-2:]
        assert len(first) == 2
        assert doubled == [2 * max(first)] * 2

    def test_default_suite_pairings_and_levels(self):
        # the pairing count is fixed by the checks, by the memo of each
        # generator's builds and by the pairs built often enough to contract
        # their basis-symbol operators; the first level of each pairing comes from its
        # sides, so no pairing needs a blind 4096 nodes; a Laurent symbol's
        # Toeplitz and Hankel builds are closed forms and pair nothing
        rep = run_suite(SuiteConfig(seed=7))
        assert rep.quadrature_stats["pairings"] == 1322
        assert rep.quadrature_stats["max_nodes"] <= 1024


class TestCLI:
    def test_clark_example(self, capsys):
        rc = main(["clark", "--u", '{"zeros":[[0,0],[0,0]],"constant":[1,0]}',
                   "--alpha", "1,0", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        pts = sorted(p[0] for p in out["points"])
        assert pts == pytest.approx([-1.0, 1.0])
        assert out["weights"] == pytest.approx([0.5, 0.5])

    def test_build_op_example(self, capsys):
        rc = main(["build-op", "--op", "tto", "--u", "z2", "--v", "z2",
                   "--symbol", '{"laurent":{"1":[1,0]}}', "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        mat = np.array([[complex(a, b) for a, b in row] for row in out["matrix"]])
        assert np.allclose(mat, [[0, 0], [1, 0]], atol=1e-12)

    def test_build_op_calculus_at_infinity(self, capsys):
        # at infinity the member is p(S)*; on K_{z^3}, S is the down shift
        rc = main(["build-op", "--op", "calculus", "--u", "z3", "--alpha", "inf",
                   "--symbol", '{"laurent":{"0":[1,0],"1":[0.5,0]}}', "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        mat = np.array([[complex(a, b) for a, b in row] for row in out["matrix"]])
        assert np.allclose(mat, [[1, 0.5, 0], [0, 1, 0.5], [0, 0, 1]], atol=1e-12)

    @pytest.mark.parametrize("argv, need", [
        (["clark", "--u", "z3", "--alpha", "inf"], "--alpha needs a unimodular value"),
        (["build-op", "--op", "clark-perturbation", "--u", "z2", "--alpha", "inf"],
         "--alpha needs a finite value"),
        (["build-op", "--op", "sedlock", "--u", "z2", "--symbol", '{"laurent":{"1":[1,0]}}',
          "--alpha", "0.5", "--c", "inf"], "--c needs a finite value"),
    ], ids=["clark", "clark-perturbation", "sedlock-c"])
    def test_infinite_value_is_usage_error(self, capsys, argv, need):
        assert main(argv) == 2
        assert need in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["build-op", "--op", "clark-perturbation", "--u", "z2", "--alpha", "nan"],
        ["build-op", "--op", "sedlock", "--u", "z2", "--symbol", '{"laurent":{"1":[1,0]}}',
         "--alpha", "nan"],
        ["build-op", "--op", "sedlock", "--u", "z2", "--symbol", '{"laurent":{"1":[1,0]}}',
         "--alpha", "0.5", "--c", "nan"],
        ["clark", "--u", "z2", "--alpha", "nan"],
        ["clark", "--u", "z2", "--alpha", "1,0,5"],
        ["build-op", "--op", "clark-perturbation", "--u", "z2", "--alpha", "1,inf"],
    ], ids=["clark-perturbation-nan", "sedlock-nan", "sedlock-c-nan", "clark-nan",
            "clark-three-parts", "clark-perturbation-infinite-part"])
    def test_bad_scalar_part_is_usage_error(self, capsys, argv):
        # each used to print a NaN matrix, fail inside numpy or drop the third part
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: a scalar is re,im or re with finite parts, or inf; got {argv[-1]!r}" \
            in captured.err

    @pytest.mark.parametrize("command, flag, text", [
        (["product-test", "--theorem", "kernel-core"], "--spec", "{}"),
        (["product-test", "--theorem", "kernel-core"], "--spec", "[1,2]"),
        (["product-test", "--theorem", "kernel-core"], "--spec",
         '{"operation": "kernel-core", "seed": 1}'),
        (["classify"], "--input", "{}"),
        (["build-op", "--op", "tto", "--u", "z2"], "--symbol", '{"nu":[[1,0]]}'),
        (["build-op", "--op", "tto", "--u", "z2"], "--symbol", '{"laurent":[1]}'),
    ], ids=["spec-empty", "spec-list", "spec-without-u", "classify-empty", "symbol",
            "symbol-laurent-list"])
    def test_malformed_json_is_usage_error(self, tmp_path, capsys, command, flag, text):
        # each used to end in a KeyError or TypeError traceback, exit 1
        f = tmp_path / "doc.json"
        f.write_text(text)
        assert main([*command, flag, text if flag == "--symbol" else str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: {flag} is malformed" in captured.err

    @pytest.mark.parametrize("edit, says", [
        (lambda spec: spec.update(u={}), "KeyError: 'zeros'"),
        (lambda spec: spec.pop("params"), "KeyError: 'alpha'"),
        (lambda spec: spec["params"].update({"lambda": 0.2}), "TypeError"),
        (lambda spec: spec.pop("v"), "--spec lacks v, which displacement-roundtrip needs"),
        (lambda spec: spec.pop("symbol"), "KeyError: 'symbol'"),
        # these two named no flag: a wrong value is a ValueError, not a KeyError
        (lambda spec: spec["params"].update({"lambda": [0.1, 0.2, 0.3]}),
         "--spec is malformed: ValueError: too many values to unpack"),
        (lambda spec: spec.update(seed="x"),
         "--spec is malformed: ValueError: invalid literal for int()"),
    ], ids=["u-empty", "no-params", "lambda-scalar", "no-v", "no-symbol", "lambda-three-parts",
            "seed-not-a-number"])
    def test_incomplete_spec_is_usage_error(self, tmp_path, capsys, edit, says):
        # each used to end in a KeyError or TypeError traceback, exit 1
        spec = generate_instance(4, (2, 3), (1, 2), {"spaces": 2}).to_json()
        edit(spec)
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        assert main(["product-test", "--theorem", "displacement-roundtrip", "--spec", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: --spec" in captured.err and says in captured.err

    def test_classify_antilinear_is_an_error(self, tmp_path, capsys):
        # x -> S conj(x) used to be classified as a Toeplitz operator
        assert main(["build-op", "--op", "shift", "--u", "z3", "--json"]) == 0
        op = json.loads(capsys.readouterr().out)
        op["antilinear"] = True
        f = tmp_path / "op.json"
        f.write_text(json.dumps(op))
        assert main(["classify", "--input", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: SpaceMismatch: is_tto needs a linear operator" in captured.err

    def test_clark_alpha_off_the_circle_is_usage_error(self, capsys):
        assert main(["clark", "--u", "z3", "--alpha", "0.5"]) == 2
        assert "--alpha needs a unimodular value, got '0.5'" in capsys.readouterr().err
        # the perturbation itself is a contraction there, so build-op accepts it
        assert main(["build-op", "--op", "clark-perturbation", "--u", "z3", "--alpha", "0.5",
                     "--json"]) == 0

    def test_build_op_calculus_pole_in_disk(self, capsys):
        rc = main(["build-op", "--op", "calculus", "--u", "z3", "--alpha", "0.3",
                   "--symbol", '{"laurent":{"-1":[1,0]}}', "--json"])
        assert rc == 1
        assert "SingularDenominator" in capsys.readouterr().err

    @pytest.mark.parametrize("op, given", [("calculus", ["--symbol", '{"laurent":{"1":[1,0]}}']),
                                           ("clark-perturbation", []),
                                           ("tto", ["--alpha", "0.3"])])
    def test_build_op_missing_flag_is_usage_error(self, capsys, op, given):
        rc = main(["build-op", "--op", op, "--u", "z3", *given])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--alpha" in err or "--symbol" in err

    @pytest.mark.parametrize("flag", ["--symbol", "--alpha", "--v", "--c"])
    def test_build_op_empty_value_is_usage_error(self, capsys, flag):
        # an empty --symbol used to reach tto_matrix as None, a traceback
        given = {"--symbol": '{"laurent":{"1":[1,0]}}', "--alpha": "0.3", "--c": "0.5"}
        given[flag] = ""
        rc = main(["build-op", "--op", "sedlock", "--u", "z3",
                   *(item for pair in given.items() for item in pair)])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("op, attr", [("shift", "shift"), ("shift-adj", "shift_adjoint"),
                                          ("involution", "symmetric_involution")])
    def test_build_op_emits_the_operator_the_basis_holds(self, capsys, op, attr):
        u = InnerFunction([0.5j, -0.5j, 0.3, 0.2 + 0.1j, 0.2 - 0.1j], constant=-1)
        assert main(["build-op", "--op", op, "--u", json.dumps(u.to_json()), "--json"]) == 0
        got = json.loads(capsys.readouterr().out)
        with quadrature.use(quadrature.Evaluation()):
            want = getattr(tm_basis(u), attr).to_json()
        assert got == json.loads(json.dumps(want))

    def test_classify_pipe(self, tmp_path, capsys):
        rc = main(["build-op", "--op", "shift", "--u", "z3", "--json"])
        op_json = capsys.readouterr().out
        f = tmp_path / "op.json"
        f.write_text(op_json)
        rc = main(["classify", "--input", str(f), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["reports"]["is_tto"]["verdict"] is True
        assert out["reports"]["is_tho"]["verdict"] is False
        assert out["reports"]["sedlock"]["alpha"] == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_verify_suite_unknown_check_is_usage_error(self, capsys):
        rc = main(["verify-suite", "--trials", "1", "--theorem", "kernel-core",
                   "--theorem", "no-such-check"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'no-such-check'" in err and "kernel-core" in err and "quadrature-hygiene" in err

    def test_verify_suite_exit_codes(self, capsys):
        assert main(["verify-suite", "--seed", "3", "--trials", "1",
                     "--theorem", "kernel-core"]) == 0
        capsys.readouterr()
        # an unattainable quadrature tolerance makes trials fail -> exit 1
        assert main(["verify-suite", "--seed", "3", "--trials", "1",
                     "--theorem", "conjugation-dictionary",
                     "--quad-tol", "1e-18", "--quad-cap", "128"]) == 1
        capsys.readouterr()

    def test_verify_suite_trial_count(self, capsys):
        # a negative count is a usage error; zero trials run and fail the suite
        assert main(["verify-suite", "--trials", "-1", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: --trials must be >= 0" in captured.err
        assert main(["verify-suite", "--trials", "0", "--theorem", "kernel-core"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-9"])
    def test_verify_suite_bad_tol_is_usage_error(self, capsys, value):
        # a NaN tolerance used to fail every trial of a main-tolerance check
        assert main(["verify-suite", "--seed", "7", "--trials", "1",
                     "--theorem", "kernel-core", f"--tol={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: --tol needs a positive finite value" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-9"])
    def test_verify_suite_bad_quad_tol_is_usage_error(self, capsys, value):
        assert main(["verify-suite", "--seed", "7", "--trials", "1",
                     "--theorem", "kernel-core", f"--quad-tol={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: --quad-tol needs a positive finite value" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-9"])
    def test_classify_bad_tol_is_usage_error(self, tmp_path, capsys, value):
        main(["build-op", "--op", "shift", "--u", "z3", "--json"])
        f = tmp_path / "op.json"
        f.write_text(capsys.readouterr().out)
        assert main(["classify", "--input", str(f), f"--tol={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: --tol needs a positive finite value" in captured.err

    def test_verify_suite_negative_quad_cap_is_usage_error(self, capsys):
        assert main(["verify-suite", "--seed", "7", "--trials", "1",
                     "--theorem", "kernel-core", "--quad-cap=-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: --quad-cap needs a positive finite value" in captured.err

    def test_verify_suite_zero_quad_cap_is_not_ignored(self, capsys):
        # a cap of 0 nodes admits no quadrature level, so it is a usage error;
        # a small positive cap is fault injection: every pairing fails
        assert main(["verify-suite", "--seed", "3", "--trials", "1",
                     "--theorem", "quadrature-hygiene", "--quad-cap", "0"]) == 2
        capsys.readouterr()
        assert main(["verify-suite", "--seed", "3", "--trials", "1", "--json",
                     "--theorem", "quadrature-hygiene", "--quad-cap", "8"]) == 1
        report = json.loads(capsys.readouterr().out)
        (check,) = report["checks"]
        assert check["failures"] == 1
        assert "NoConvergence" in json.dumps(check["counterexamples"])

    def test_verify_suite_byte_identical(self, capsys):
        main(["verify-suite", "--seed", "7", "--trials", "1", "--json",
              "--theorem", "kernel-core"])
        out1 = capsys.readouterr().out
        main(["verify-suite", "--seed", "7", "--trials", "1", "--json",
              "--theorem", "kernel-core"])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_tol_overrides_exactly_the_main_tolerance_checks(self, capsys):
        main_checks = {"kernel-core", "defect-rank-one", "conjugation-dictionary",
                       "involution-identities", "rank-one-examples", "quadrature-hygiene"}
        assert {cid for cid, c in CHECKS.items() if c.tol is not None} == main_checks
        assert main(["verify-suite", "--seed", "3", "--trials", "1", "--tol", "1e-300",
                     "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {c["id"] for c in report["checks"] if c["failures"]} == main_checks
        with pytest.raises(SystemExit):
            main(["verify-suite", "--help"])
        help_text = "".join(capsys.readouterr().out.split())   # undo line wrapping
        assert all(cid in help_text for cid in main_checks)

    def test_zero_trials_prints_no_pass(self, capsys):
        # each check used to print "[PASS] <id>: 0/0 trials" under "overall FAIL"
        argv = ["verify-suite", "--trials", "0", "--theorem", "kernel-core",
                "--theorem", "clark-unitary"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "overall FAIL" in lines[0]
        assert lines[1:] == [f"  [FAIL] {cid}: 0/0 trials, max residual 0"
                             for cid in ("kernel-core", "clark-unitary")]
        assert main([*argv, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["overall_pass"] is False
        assert [(c["trials"], c["failures"]) for c in report["checks"]] == [(0, 0), (0, 0)]

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["build-op"])            # missing required arguments
        assert exc.value.code == 2

    @pytest.mark.parametrize("u", ["z99999", json.dumps({"zeros": [[0.1, 0.0]] * 33})])
    def test_degree_above_bound_exits_1_before_building(self, u, capsys, monkeypatch):
        built = []

        class Unbuilt:      # records any attempt to build the generator
            def __init__(self, *args):
                built.append(args)

            @classmethod
            def from_json(cls, obj):
                built.append(obj)

        monkeypatch.setattr(cli, "InnerFunction", Unbuilt)
        monkeypatch.setattr(harness, "InnerFunction", Unbuilt)     # the JSON decoder's
        assert main(["build-op", "--op", "shift", "--u", u]) == 1
        assert "InvalidRange" in capsys.readouterr().err
        assert built == []

    def test_degree_at_bound_accepted(self, capsys):
        assert harness.MAX_DEGREE == 32
        assert parse_inner("z32").degree == 32
        assert parse_inner(json.dumps({"zeros": [[0.1, 0.0]] * 32})).degree == 32
        assert main(["build-op", "--op", "shift", "--u", "z32", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["matrix"]) == 32

    @staticmethod
    def _spec_file(tmp_path, **fields) -> str:
        spec = generate_instance(4, (2, 3), (1, 2), {"spaces": 2}).to_json()
        spec.update(fields)
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        return str(f)

    @pytest.mark.parametrize("field", ["u", "v"])
    def test_spec_generator_above_bound_exits_1(self, tmp_path, capsys, field):
        # a 40-zero u used to run kernel-core and pass
        spec = self._spec_file(tmp_path, **{field: {"zeros": [[0.1, 0.0]] * 40}})
        assert main(["product-test", "--theorem", "displacement-roundtrip", "--spec", spec]) == 1
        assert "InvalidRange: degree 40 above the largest, 32" in capsys.readouterr().err

    @pytest.mark.parametrize("symbol", [
        {"laurent": {str(k): [1.0, 0.0] for k in (-8000, 0, 3)}},
        {"num": [[1.0, 0.0]] * 16001, "den": [[0.5, 0.0]] * 8000 + [[1.0, 0.0]]},
        {"num": [[1.0, 0.0]], "den": [[0.5, 0.0]] * 66},
    ], ids=["laurent", "num-den", "den-only"])
    def test_spec_symbol_above_bound_exits_1_before_building(self, tmp_path, capsys,
                                                              monkeypatch, symbol):
        # a degree-8000 Laurent symbol used to take seconds in the row loop of
        # the Hankel build, and a degree-8000 denominator a polyroots solve
        spec = self._spec_file(tmp_path, symbol=symbol)
        built = []
        monkeypatch.setattr(harness.RationalSymbol, "from_json", built.append)
        assert main(["product-test", "--theorem", "displacement-roundtrip", "--spec", spec]) == 1
        assert "InvalidRange" in capsys.readouterr().err
        assert built == []
        assert main(["build-op", "--op", "tho", "--u", "z2", "--symbol", json.dumps(symbol)]) == 1
        assert "InvalidRange" in capsys.readouterr().err
        assert built == []

    def test_spec_at_bounds_accepted(self, tmp_path, capsys):
        assert harness.MAX_SYMBOL_DEGREE == 64
        laurent = {str(k): [0.01, 0.0] for k in range(-64, 65)}
        spec = self._spec_file(tmp_path, u={"zeros": [[0.1 * (-1) ** k, 0.0] for k in range(32)]},
                               symbol={"laurent": laurent})
        assert main(["product-test", "--theorem", "displacement-roundtrip", "--spec", spec]) == 0
        capsys.readouterr()
        widest = {"num": [[0.01, 0.0]] * 129, "den": [[0.0, 0.0]] * 64 + [[1.0, 0.0]]}
        assert cli.parse_symbol(json.dumps(widest)).reach.degree == 64

    def test_product_test_subcommand(self, tmp_path, capsys):
        p = generate_instance(9, (2, 3), (1, 2),
                              {"spaces": 1, "real_symmetric": True,
                               "operation": "rank-one-examples"})
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(p.to_json()))
        rc = main(["product-test", "--theorem", "rank-one-examples",
                   "--spec", str(f), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["verdict"] is True

    def test_list_checks(self, capsys):
        assert main(["verify-suite", "--list"]) == 0
        out = capsys.readouterr().out
        assert "kernel-core" in out

    def test_console_script_installed(self):
        # the child imports the same truncops as this process, installed or not
        path = [str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run([sys.executable, "-m", "truncops.cli", "clark",
                               "--u", "z2", "--alpha", "1,0"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
        assert proc.returncode == 0
        assert "orientation" in proc.stdout


class TestParsers:
    def test_parse_inner_shorthand(self):
        u = parse_inner("z^3")
        assert u.degree == 3 and all(z == 0 for z in u.zeros)
        v = parse_inner('{"zeros": [[0.5, 0.0]], "constant": [1.0, 0.0]}')
        assert v.zeros == (0.5,)

    def test_parse_scalar(self):
        assert parse_scalar("1,0").value == 1.0
        assert parse_scalar("0.5,-0.25").value == 0.5 - 0.25j
        assert parse_scalar("inf").is_infinity
        for bad in ("nan", "1,nan", "1,0,5", "1,inf", "-inf", "1e999"):
            with pytest.raises(ValueError):
                parse_scalar(bad)
