import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from truncops import CHECKS, ProblemSpec, SuiteConfig, generate_instance, replay, run_suite
from truncops import classify, harness
from truncops.blaschke import InnerFunction
from truncops.cli import main, parse_inner, parse_scalar
from truncops.errors import InvalidRange
from truncops.harness import clamp_level, random_inner, run_trial
from truncops.quadrature import QuadratureSettings


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


class TestClampLevel:
    def test_keeps_safe_parameters(self):
        u = InnerFunction((0.0, 0.0), 1.0)
        assert clamp_level(u, 0.3) == pytest.approx(0.3)

    def test_shrinks_unsafe_parameters(self, rng):
        u = random_inner(rng, 4)
        a = clamp_level(u, 0.89 * np.exp(0.3j))
        from truncops.harness import _level_radius
        assert _level_radius(u, a) <= 0.92 + 1e-9

    def test_unimodular_untouched(self, rng):
        u = random_inner(rng, 3)
        a = np.exp(0.7j)
        assert clamp_level(u, a) == a


class TestSuite:
    def test_small_run_passes(self):
        rep = run_suite(SuiteConfig(seed=3, trials=2))
        assert rep.overall_pass, rep.human_summary()
        assert {c["id"] for c in rep.checks} == set(CHECKS)

    def test_byte_determinism(self):
        r1 = run_suite(SuiteConfig(seed=7, trials=2))
        r2 = run_suite(SuiteConfig(seed=7, trials=2))
        assert r1.json_bytes() == r2.json_bytes()

    def test_zero_trials_fails_build(self):
        rep = run_suite(SuiteConfig(seed=1, trials=0, checks=["kernel-core"]))
        assert not rep.overall_pass

    def test_check_filter(self):
        rep = run_suite(SuiteConfig(seed=1, trials=1,
                                    checks=["kernel-core", "clark-unitary"]))
        assert [c["id"] for c in rep.checks] == ["kernel-core", "clark-unitary"]

    def test_unknown_check_rejected(self):
        with pytest.raises(InvalidRange):
            run_suite(SuiteConfig(checks=["no-such-check"]))

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
        rep = run_suite(SuiteConfig(seed=11, trials=2, checks=["kernel-core"],
                                    tolerances={"kernel-core": {"main": 1e-30}}))
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

    def test_verify_suite_exit_codes(self, capsys):
        assert main(["verify-suite", "--seed", "3", "--trials", "1",
                     "--theorem", "kernel-core"]) == 0
        capsys.readouterr()
        # an unattainable quadrature tolerance makes trials fail -> exit 1
        assert main(["verify-suite", "--seed", "3", "--trials", "1",
                     "--theorem", "conjugation-dictionary",
                     "--quad-tol", "1e-18", "--quad-cap", "128"]) == 1
        capsys.readouterr()

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
        assert set(harness.MAIN_TOLERANCE_CHECKS) == main_checks
        assert main(["verify-suite", "--seed", "3", "--trials", "1", "--tol", "1e-300",
                     "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {c["id"] for c in report["checks"] if c["failures"]} == main_checks
        with pytest.raises(SystemExit):
            main(["verify-suite", "--help"])
        help_text = "".join(capsys.readouterr().out.split())   # undo line wrapping
        assert all(cid in help_text for cid in main_checks)

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["build-op"])            # missing required arguments
        assert exc.value.code == 2

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
